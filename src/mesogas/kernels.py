"""Low-level numeric kernels, written with numpy.

Conventions shared by all kernels:
  * points are (n, d) float64 arrays, d >= 3; the Metropolis kernel steps
    C chains in lockstep on a (C, N, d) array
  * the interaction kernel is g(x) = |x|^(2-d)
  * a "smeared" evaluation replaces a point charge by the uniform ball of
    radius r around it; by Newton's theorem the resulting potential has the
    closed form used in `_ball_g` and is exact, not a quadrature.
    ``grid_potential_at_points`` is the one smeared sum, for the cells of a
    grid measure and for atoms alike.

Accumulation order is fixed, so results are deterministic for a given seed.

``_scipy_extension`` is the one place where the package loads a compiled
module of scipy's directly, past the ``__init__`` of the packages above it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from functools import lru_cache

import numpy as np

# Always False: there is no compiled implementation. perfbench/worker.py
# reads this constant for the machine facts it records.
NUMBA_ENABLED = False

# Point-source pairs per block of grid_potential_at_points: 128 points on an
# 8^3 grid, and one point per block on criterion 1's 48^3 grid, where
# blocks of several points measured slower.
BLOCK_ENTRIES = 1 << 16


def _scipy_extension(name):
    """scipy's compiled module `name`, e.g.
    "scipy.fft._pocketfft.pypocketfft", loaded from scipy's install
    directory without running the ``__init__`` of any package above it.

    The module is registered in ``sys.modules`` under `name`, so a later
    ``import scipy.fft`` or ``scipy.optimize`` reuses this object instead of
    initialising the extension a second time; a module already there is
    returned as it is. Those ``__init__`` files are most of scipy's import
    cost: after numpy, ``import scipy.fft`` takes 0.3-0.4 s and
    ``import scipy.optimize._highspy._core`` 0.55-0.6 s, the two compiled
    modules alone about 1 ms and 10 ms (shared 2-CPU VM).
    """
    module = sys.modules.get(name)
    if module is None:
        # find_spec of a top-level name locates scipy without importing it
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        *packages, _ = name.split(".")[1:]
        finder = importlib.machinery.FileFinder(
            os.path.join(root, *packages),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is None:
            raise ImportError(f"scipy has no compiled module {name}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=16)
def _upper_pairs(n):
    # np.triu_indices(n, k=1), built once per n and shared read-only
    iu = np.triu_indices(n, k=1)
    for idx in iu:
        idx.flags.writeable = False
    return iu


def _pair_r2(points):
    # squared distances of the unordered pairs i < j, in row-major order
    diff = points[:, None, :] - points[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    return r2[_upper_pairs(points.shape[0])]


def pairwise_g_sum(points, d):
    vals = _pair_r2(points)
    if np.any(vals == 0.0):
        return np.inf
    return float(2.0 * np.sum(vals ** (0.5 * (2.0 - d))))


def min_pairwise_distance(points):
    if points.shape[0] < 2:
        return np.inf
    return float(np.sqrt(np.min(_pair_r2(points))))


def _rowdot(a, b):
    # a[i] @ b[i] for each row i (b may be one vector for all rows), with
    # the arithmetic of the 1-D dot product, which row sums do not share
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _ball_g(r2, radius, d):
    # potential of the unit-mass uniform ball of `radius` at squared distance
    # r2; radius 0 is the raw kernel, +inf at r2 == 0
    r2 = np.asarray(r2, dtype=float)
    out = np.empty_like(r2)
    far = r2 >= radius * radius
    with np.errstate(divide="ignore"):
        out[far] = r2[far] ** (0.5 * (2.0 - d))
    out[~far] = (r2[~far] + 0.5 * d * (radius * radius - r2[~far])) / radius ** d
    return out


def grid_potential_at_points(density, centers, cellvol, points, radius, d):
    """h at `points` from the sources at `centers`, each point smeared at
    `radius`: cellvol * sum_j density[j] * g_ball(point - centers[j]).

    A grid measure passes its flat density, cell centers and cell volume;
    atoms pass weight 1 at each atom and their common weight as `cellvol`,
    which by symmetry of g_ball gives their smeared field at `points`.
    radius == 0 evaluates the raw kernel, +inf at a coincident source.
    Points are evaluated in blocks of at most BLOCK_ENTRIES point-source
    pairs (at least one point per block), each point's value with the
    arithmetic of a point evaluated alone, so a caller may evaluate only
    the distinct ones of repeated points.
    """
    out = np.zeros(points.shape[0])
    nz = density != 0.0
    centers = centers[nz]
    rho = density[nz]
    block = max(1, BLOCK_ENTRIES // max(rho.size, 1))
    for s in range(0, points.shape[0], block):
        diff = centers[None, :, :] - points[s:s + block, None, :]
        r2 = np.einsum("qik,qik->qi", diff, diff)
        out[s:s + block] = cellvol * _rowdot(_ball_g(r2, radius, d), rho)
    return out


def run_chain_quadratic(x, scale, beta, nweight, vcoef, d,
                        normals, unifs, sites, ham_in, V=None):
    """Single-site Metropolis steps of C chains in lockstep, for
    V(x) = vcoef*|x|^2 or for a callable V.

    `x` is (C, N, d) and is mutated in place; `scale` and `ham_in` hold one
    value per chain. `normals`, `unifs` and `sites` hold one row per
    proposal, step-major: row t*C + c is chain c's proposal at step t.
    Each chain's arithmetic is that of a chain stepped alone, so its
    trajectory does not depend on the others. The confinement increment is
    nweight*vcoef*(|new|^2 - |old|^2); when V is given it is
    nweight*(V(new) - V(old)) instead, V called once per step on the (C, d)
    points, and vcoef is unused. A coincident proposal has an infinite
    increment and is rejected.
    Returns (total accepted, hamiltonians (C,), accepted per chain (C,)).
    """
    C, N = x.shape[0], x.shape[1]
    steps = len(normals) // C
    normals = normals.reshape(steps, C, d)
    unifs = unifs.reshape(steps, C)
    sites = sites.reshape(steps, C)
    scale = np.asarray(scale, dtype=float).reshape(C, 1)
    p = 0.5 * (2.0 - d)
    ham = np.array(ham_in, dtype=float).reshape(C)
    accepted = np.zeros(C, dtype=np.int64)
    chains = np.arange(C)
    lower = np.arange(N - 1)
    # exp(-beta*dham) overflows for steep downhill moves, which dham <= 0
    # accepts anyway; a coincident proposal divides by zero, and its
    # dham = +inf is rejected
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for t in range(steps):
            i = sites[t]
            old = x[chains, i]
            new = old + scale * normals[t]
            if N == 1:
                # no pairs: their sum is exactly 0.0, as the empty reduce
                # below gives, and the increment adds to it
                dham = np.zeros(C)
            else:
                # the other particles in their own order, as np.delete
                # leaves them, so each pair sum adds up as a chain's alone
                # would
                others = x[chains[:, None], lower + (lower >= i[:, None])]
                diff_old = others - old[:, None, :]
                diff_new = others - new[:, None, :]
                r2o = np.einsum("cik,cik->ci", diff_old, diff_old)
                r2n = np.einsum("cik,cik->ci", diff_new, diff_new)
                dham = 2.0 * np.add.reduce(r2n ** p - r2o ** p, axis=1)
            if V is None:
                dham += nweight * vcoef * (_rowdot(new, new)
                                           - _rowdot(old, old))
            else:
                dham += nweight * (V(new) - V(old))
            take = (dham <= 0.0) | (unifs[t] < np.exp(-beta * dham))
            x[chains, i] = np.where(take[:, None], new, old)
            ham += np.where(take, dham, 0.0)
            accepted += take
    return int(accepted.sum()), ham, accepted
