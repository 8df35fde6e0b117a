"""The numpy kernels against plain per-item loops, and the call contract
that the benchmark's tracer reads from the Metropolis kernel."""

import warnings

import numpy as np
import pytest

from mesogas import kernels
from mesogas.grids import Box, GridMeasure
from mesogas.sampler import RegimeParams, gibbs_sample


def _potential_oracle(density, centers, cellvol, points, radius, d):
    # one point at a time, as grid_potential_at_points evaluated before
    # it took points in blocks
    out = np.zeros(points.shape[0])
    nz = density != 0.0
    for q in range(points.shape[0]):
        diff = centers[nz] - points[q]
        r2 = np.einsum("ik,ik->i", diff, diff)
        out[q] = cellvol * float(density[nz] @ kernels._ball_g(r2, radius, d))
    return out


@pytest.mark.parametrize("radius", [0.0, 0.3])
def test_blocked_grid_potential_matches_the_point_loop(radius):
    """Point counts on both sides of a block boundary, on a grid with empty
    cells; radius 0 is the raw kernel. Repeated points (all equal,
    interleaved, and on both sides of a block edge, with more distinct
    points than one block holds) each get the loop's value to the last
    bit, wherever the block edges fall. Atoms as the sources,
    with unit weights scaled by their common one and an atom on a cell
    centre, evaluated at the cell centres, are one more case."""
    rng = np.random.default_rng(21)
    grid = GridMeasure(Box.cube(np.zeros(3), 1.0), 8,
                       rng.uniform(0.0, 1.0, (8, 8, 8)))
    density = grid.density.ravel().copy()
    density[rng.random(density.size) < 0.3] = 0.0
    block = kernels.BLOCK_ENTRIES // np.count_nonzero(density)
    cases = [rng.uniform(-1.2, 1.2, (n, 3))
             for n in (1, block - 1, block, block + 1, 2 * block + 3)]
    base = rng.uniform(-1.2, 1.2, (block + 1, 3))
    cases += [np.repeat(base[:1], 2 * block + 3, axis=0),
              base[rng.integers(0, 7, size=3 * block)],
              np.concatenate([base, base[::-1]])]
    calls = [(density, grid.cell_centers(), grid.cell_volume, pts, radius,
              3.0) for pts in cases]
    atoms = np.vstack([rng.uniform(-1.2, 1.2, (40, 3)),
                       grid.cell_centers()[77]])
    calls.append((np.ones(41), atoms, -0.5, grid.cell_centers(), radius, 3.0))
    for args in calls:
        got = kernels.grid_potential_at_points(*args)
        want = _potential_oracle(*args)
        assert np.array_equal(got, want), len(args[3])
    assert (got[77] == -np.inf) == (radius == 0.0)


def test_chain_kernel_call_contract(quad, monkeypatch):
    """Each call's normals hold one row per proposal and its first result
    is the call's total accepted count: summed over the calls of a lockstep
    run they give the proposals and the acceptances of every chain."""
    calls = []
    real = kernels.run_chain_quadratic

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((len(args[6]), int(result[0]), result[2].copy()))
        return result

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = RegimeParams(N=16, gamma=0.3, lam=0.05)
    steps = 30 * 16
    monkeypatch.setattr(kernels, "run_chain_quadratic", recording)
    runs = gibbs_sample(p, quad, steps, 10 * 16, seed=2, chain_index=range(3))
    assert sum(n for n, _, _ in calls) == 3 * steps
    assert all(total == int(per.sum()) for _, total, per in calls)
    assert sum(total for _, total, _ in calls) == sum(
        states[-1].accepted for states in runs)



@pytest.mark.parametrize("n", [1, 2, 64])
def test_pair_r2_with_cached_indices_is_bit_identical(n):
    """The pair distances read through the cached, read-only upper-triangle
    indices are the ones fresh np.triu_indices give, to the last bit, and
    a second call reuses the same arrays."""
    pts = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    want = np.einsum("ijk,ijk->ij", diff, diff)[np.triu_indices(n, k=1)]
    got = kernels._pair_r2(pts)
    assert got.shape == (n * (n - 1) // 2,)
    assert np.array_equal(got, want)
    iu = kernels._upper_pairs(n)
    assert iu is kernels._upper_pairs(n)
    assert not any(idx.flags.writeable for idx in iu)
    assert np.array_equal(kernels._pair_r2(pts), want)
