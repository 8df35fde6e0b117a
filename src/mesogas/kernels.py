"""Low-level numeric kernels, written with numpy.

Conventions shared by all kernels:
  * points are (n, d) float64 arrays, d >= 3, and a lattice is its (d, n)
    per-axis cell centers; the Metropolis kernel steps C chains under
    V(x) = vcoef*|x|^2 in lockstep on a (C, N, d) array, internally on a
    (d, C, N) copy
  * the interaction kernel is g(x) = |x|^(2-d)
  * a "smeared" evaluation replaces a point charge by the uniform ball of
    radius r around it; by Newton's theorem the resulting potential has the
    closed form used in `_ball_g` and is exact, not a quadrature.
    ``grid_potential_at_points`` is the one smeared sum, for the cells of a
    grid measure and for atoms alike.

Accumulation order is fixed, so results are deterministic for a given seed:
``_axis_sum`` adds the per-axis squares of every squared distance in one
order on every host, the even-indexed axes, then the odd ones, then the two
sums (np.einsum's order on the hosts where the pins were recorded). The
confinement V(x) = coef |x|^2 and the dense kernel matrix sum their
squares with it too, so no module of the package calls np.einsum.

``_scipy_extension`` is the one place where the package loads a compiled
module of scipy's directly, past the ``__init__`` of the packages above it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from functools import lru_cache, reduce

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


@lru_cache(maxsize=16)
def _chain_offsets(C, N, d):
    # flat index of chain c's particle 0, coordinate k, in a (d, C, N)
    # array, as a shared read-only (C, d) array
    offsets = np.arange(0, d * C * N, N).reshape(d, C).T
    offsets.flags.writeable = False
    return offsets


def _axis_sum(sq, out):
    # sq[0] + ... + sq[d-1], for per-axis squares that broadcast to `out`
    # (which may be sq[0]), written to `out` in the module docstring's
    # order; at d = 3, (sq[0] + sq[2]) + sq[1]
    odd = reduce(np.add, sq[1::2])
    np.add(sq[0], sq[2], out=out)
    for even in sq[4::2]:
        np.add(out, even, out=out)
    return np.add(out, odd, out=out)


def _pair_r2(points):
    # squared distances of the unordered pairs i < j, in row-major order
    diff = points.T[:, :, None] - points.T[:, None, :]
    diff *= diff
    return _axis_sum(diff, diff[0])[_upper_pairs(points.shape[0])]


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
    # r2; radius 0 is the raw kernel, +inf at r2 == 0. Every entry is raised
    # to the power, and only the few inside the ball are written again.
    with np.errstate(divide="ignore"):
        out = r2 ** (0.5 * (2.0 - d))
    near = r2 < radius * radius
    inside = r2[near]
    out[near] = (inside + 0.5 * d * (radius * radius - inside)) / radius ** d
    return out


def grid_potential_at_points(weights, axes, scale, points, radius, d):
    """scale * sum_s weights[s] * g_ball(x - s) between the cells of a
    lattice with (d, n) per-axis cell centers `axes` and `points` (m, d),
    each term smeared at `radius` (0: the raw kernel, +inf at a
    coincident pair). Weights shaped like the lattice make its cells the
    sources (density, `scale` the cell volume; empty cells are skipped)
    and give h at each point. One weight per point makes the points the
    sources (atoms: weights 1, `scale` their weight) and gives their field
    at the cells, shaped like the lattice. A block holds at most
    BLOCK_ENTRIES pairs, or one point (one slab of cells), and each value
    has the arithmetic of one evaluated alone, so a caller may evaluate
    only the distinct ones of repeated points.
    """
    n, dims, m = axes.shape[1], axes.shape[0], points.shape[0]
    diff = axes[:, :, None] - points.T[:, None, :]
    sq = diff * diff                    # (d, n, m): axis k's table
    on_axis = [(1,) * k + (n,) + (1,) * (dims - 1 - k) for k in range(dims)]
    if weights.shape == (n,) * dims:
        # a row per point, the cells contiguous; take keeps rows in C
        # order, the layout of the dot product's arithmetic
        keep = np.flatnonzero(weights)
        rho = weights.ravel()[keep]
        out = np.empty(m)
        block = max(1, BLOCK_ENTRIES // weights.size)
        r2 = np.empty((min(block, m),) + weights.shape)
        for s in range(0, m, block):
            rows = _axis_sum([sq[k, :, s:s + block].T.reshape(
                (-1,) + on_axis[k]) for k in range(dims)], r2[:m - s])
            g = _ball_g(rows.reshape(-1, weights.size).take(keep, axis=1),
                        radius, d)
            out[s:s + block] = scale * _rowdot(g, rho)
        return out
    # a row per cell, the points contiguous
    parts = [sq[k].reshape(on_axis[k] + (m,)) for k in range(dims)]
    out = np.empty((n,) * dims)
    block = max(1, BLOCK_ENTRIES // max(n ** (dims - 1) * m, 1))
    r2 = np.empty((min(block, n),) + (n,) * (dims - 1) + (m,))
    for s in range(0, n, block):
        rows = _axis_sum([parts[0][s:s + block], *parts[1:]], r2[:n - s])
        out[s:s + block] = scale * _rowdot(_ball_g(rows, radius, d), weights)
    return out


def run_chain_quadratic(x, scale, beta, nweight, vcoef, d,
                        normals, unifs, sites, ham_in):
    """Single-site Metropolis steps of C chains in lockstep, for
    V(x) = vcoef*|x|^2.

    `x` is (C, N, d) and is mutated in place; `scale` and `ham_in` hold one
    value per chain. `normals`, `unifs` and `sites` hold one row per
    proposal, step-major: row t*C + c is chain c's proposal at step t.
    Each chain's arithmetic is that of a chain stepped alone, so its
    trajectory does not depend on the others. The confinement increment is
    nweight*vcoef*(|new|^2 - |old|^2). A coincident proposal has an
    infinite increment and is rejected.
    Returns (total accepted, hamiltonians (C,), accepted per chain (C,)).
    """
    C, N = x.shape[0], x.shape[1]
    steps = len(normals) // C
    sites = sites.reshape(steps, C, 1)
    moves = (np.asarray(scale, dtype=float).reshape(C, 1)
             * normals.reshape(steps, C, d))
    unifs = unifs.reshape(steps, C)
    p = 0.5 * (2.0 - d)
    ham = np.array(ham_in, dtype=float).reshape(C)
    accepted = np.zeros(C, dtype=np.int64)
    # the chains coordinate-major, and each moving coordinate's index there
    xt = x.transpose(2, 0, 1).copy()
    flat = xt.reshape(-1)
    moving = _chain_offsets(C, N, d) + sites
    step = np.empty((2, C, d))          # old and new point of each chain
    old, new = step
    if N > 1:
        # each chain's other particles in np.delete order, as flat indices
        # into (C, N) pair terms, so each sum adds up as a chain's alone;
        # formed for the steps of one block of BLOCK_ENTRIES indices at a time
        lower = np.arange(N - 1)
        firsts = np.arange(0, C * N, N)[:, None] + lower
        chunk = max(1, BLOCK_ENTRIES // (C * N))
        diff = np.empty((d, 2, C, N))
        points, ends = xt[:, None], step.transpose(2, 0, 1)[..., None]
        terms = np.empty((C, N))
    # exp(-beta*dham) overflows for steep downhill moves, which it accepts
    # (u < 1 <= exp(-beta*dham) wherever dham <= 0); a particle's distance
    # to itself and a coincident proposal divide by zero, and the latter's
    # dham = +inf is rejected
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for t in range(steps):
            flat.take(moving[t], out=old)
            np.add(old, moves[t], out=new)
            dham = 0.0          # the empty pair sum at N = 1
            if N > 1:
                np.subtract(points, ends, out=diff)
                np.multiply(diff, diff, out=diff)
                pw = np.power(_axis_sum(diff, diff[0]), p, out=diff[0])
                np.subtract(pw[1], pw[0], out=terms)
                if t % chunk == 0:
                    others = firsts + (lower >= sites[t:t + chunk])
                dham = 2.0 * np.add.reduce(terms.take(others[t % chunk]),
                                           axis=1)
            norms = _rowdot(step, step)
            dham = dham + nweight * vcoef * (norms[1] - norms[0])
            take = unifs[t] < np.exp(-beta * dham)
            flat[moving[t]] = np.where(take[:, None], new, old)
            np.add(ham, dham, out=ham, where=take)
            accepted += take
    x[...] = xt.transpose(1, 2, 0)
    return int(accepted.sum()), ham, accepted
