"""Low-level numeric kernels, written with numpy.

Conventions shared by all kernels:
  * points are (n, d) float64 arrays, d >= 3
  * the interaction kernel is g(x) = |x|^(2-d)
  * a "smeared" evaluation replaces a point charge by the uniform ball of
    radius r around it; by Newton's theorem the resulting potential has the
    closed form used in `_ball_g` and is exact, not a quadrature.

Accumulation order is fixed, so results are deterministic for a given seed.
"""

from __future__ import annotations

import numpy as np

# Always False: there is no compiled implementation. perfbench/worker.py
# reads this constant for the machine facts it records.
NUMBA_ENABLED = False


def _pair_r2(points):
    # squared distances of the unordered pairs i < j, in row-major order
    diff = points[:, None, :] - points[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    return r2[np.triu_indices(points.shape[0], k=1)]


def pairwise_g_sum(points, d):
    vals = _pair_r2(points)
    if np.any(vals == 0.0):
        return np.inf
    return float(2.0 * np.sum(vals ** (0.5 * (2.0 - d))))


def min_pairwise_distance(points):
    if points.shape[0] < 2:
        return np.inf
    return float(np.sqrt(np.min(_pair_r2(points))))


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
    """h at `points` from the grid measure, each point smeared at `radius`.

    `density` is flat over the cells with the given `centers` and volume.
    radius == 0 evaluates the raw kernel g(point - cell center).
    """
    out = np.zeros(points.shape[0])
    nz = density != 0.0
    centers = centers[nz]
    rho = density[nz]
    for q in range(points.shape[0]):
        diff = centers - points[q]
        r2 = np.einsum("ik,ik->i", diff, diff)
        out[q] = cellvol * float(rho @ _ball_g(r2, radius, d))
    return out


def atoms_potential_on_grid(atoms, weight, centers, radius, d):
    """Field of smeared atoms sampled at each of the (n, d) `centers`."""
    out = np.zeros(centers.shape[0])
    for a in range(atoms.shape[0]):
        diff = centers - atoms[a]
        r2 = np.einsum("ik,ik->i", diff, diff)
        out += _ball_g(r2, radius, d)
    return weight * out


def run_chain_quadratic(x, scale, beta, nweight, vcoef, d,
                        normals, unifs, sites, ham_in, V=None):
    """Single-site Metropolis steps for V(x) = vcoef*|x|^2, or for a callable V.

    The confinement increment is nweight*vcoef*(|new|^2 - |old|^2); when V
    is given it is nweight*(V(new) - V(old)) instead and vcoef is unused.
    Mutates x in place; returns (accepted moves, hamiltonian after the block).
    Coincident proposals are rejected outright.
    """
    nsteps = normals.shape[0]
    p = 0.5 * (2.0 - d)
    accepted = 0
    ham = ham_in
    for t in range(nsteps):
        i = int(sites[t])
        old = x[i].copy()
        new = old + scale * normals[t]
        others = np.delete(x, i, axis=0)
        r2o = np.einsum("ik,ik->i", others - old, others - old)
        r2n = np.einsum("ik,ik->i", others - new, others - new)
        if np.any(r2n == 0.0):
            continue
        dpair = 2.0 * float(np.sum(r2n ** p - r2o ** p))
        if V is None:
            dham = dpair + nweight * vcoef * float(new @ new - old @ old)
        else:
            dham = dpair + nweight * float(V(new[None, :])[0] - V(old[None, :])[0])
        if dham <= 0.0 or unifs[t] < np.exp(-beta * dham):
            x[i] = new
            ham += dham
            accepted += 1
    return accepted, ham
