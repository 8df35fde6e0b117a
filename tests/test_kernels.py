"""The numpy kernels against plain per-item loops, and the call contract
that the benchmark's tracer reads from the Metropolis kernel."""

import itertools
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
    centre, evaluated at the cell centres, are one more case: few enough
    for one block, and enough for a block of two slabs of cells."""
    rng = np.random.default_rng(21)
    grid = GridMeasure(Box.cube(np.zeros(3), 1.0), 8,
                       rng.uniform(0.0, 1.0, (8, 8, 8)))
    density = grid.density.ravel().copy()
    density[rng.random(density.size) < 0.3] = 0.0
    block = kernels.BLOCK_ENTRIES // density.size
    cases = [rng.uniform(-1.2, 1.2, (n, 3))
             for n in (1, block - 1, block, block + 1, 2 * block + 3)]
    base = rng.uniform(-1.2, 1.2, (block + 1, 3))
    cases += [np.repeat(base[:1], 2 * block + 3, axis=0),
              base[rng.integers(0, 7, size=3 * block)],
              np.concatenate([base, base[::-1]])]
    for pts in cases:
        got = kernels.grid_potential_at_points(
            density.reshape(grid.density.shape), grid.cell_axes(),
            grid.cell_volume, pts, radius, 3.0)
        want = _potential_oracle(density, grid.cell_centers(),
                                 grid.cell_volume, pts, radius, 3.0)
        assert np.array_equal(got, want), len(pts)
    for count in (40, 400):
        atoms = np.vstack([rng.uniform(-1.2, 1.2, (count, 3)),
                           grid.cell_centers()[77]])
        got = kernels.grid_potential_at_points(
            np.ones(count + 1), grid.cell_axes(), -0.5, atoms, radius, 3.0)
        want = _potential_oracle(np.ones(count + 1), atoms, -0.5,
                                 grid.cell_centers(), radius, 3.0)
        assert np.array_equal(got.ravel(), want), count
        assert (got.ravel()[77] == -np.inf) == (radius == 0.0)


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


def _reference_chain(x, scale, beta, nweight, vcoef, d,
                     normals, unifs, sites, ham_in):
    # run_chain_quadratic as it was before it took per-axis distances:
    # particle-major x, np.einsum for every squared distance, and one
    # fancy-indexed gather of the other particles per step
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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for t in range(steps):
            i = sites[t]
            old = x[chains, i]
            new = old + scale * normals[t]
            if N == 1:
                dham = np.zeros(C)
            else:
                others = x[chains[:, None], lower + (lower >= i[:, None])]
                diff_old = others - old[:, None, :]
                diff_new = others - new[:, None, :]
                r2o = np.einsum("cik,cik->ci", diff_old, diff_old)
                r2n = np.einsum("cik,cik->ci", diff_new, diff_new)
                dham = 2.0 * np.add.reduce(r2n ** p - r2o ** p, axis=1)
            dham += nweight * vcoef * (kernels._rowdot(new, new)
                                       - kernels._rowdot(old, old))
            take = (dham <= 0.0) | (unifs[t] < np.exp(-beta * dham))
            x[chains, i] = np.where(take[:, None], new, old)
            ham += np.where(take, dham, 0.0)
            accepted += take
    return int(accepted.sum()), ham, accepted


def test_squared_distances_keep_the_order_the_pins_were_recorded_in(
        monkeypatch):
    """Every trajectory and potential pin was recorded while the kernels
    summed squares with np.einsum, which on those hosts (numpy 2 on
    x86-64) adds the even-indexed axes, then the odd-indexed ones, then
    the two sums. The kernels now fix that order themselves on every
    host, which is what "accumulation order is fixed" in the module
    docstring means. At d = 3, 4 and 5: the helper is that sum written out
    by hand, and is np.einsum; the chain kernel, which steps on per-axis
    distances, is the einsum kernel it replaced, bit for bit, on random
    states, steps and coefficients at N = 2, 16 and 64, also where its
    index blocks hold only a few steps each."""
    rng = np.random.default_rng(30)
    for d in (3, 4, 5):
        diff = rng.standard_normal((100000, d)) * rng.uniform(
            1e-3, 1e3, (100000, 1))
        s = (diff * diff).T
        by_hand = {3: lambda: (s[0] + s[2]) + s[1],
                   4: lambda: (s[0] + s[2]) + (s[1] + s[3]),
                   5: lambda: ((s[0] + s[2]) + s[4]) + (s[1] + s[3])}[d]()
        r2 = kernels._axis_sum(s, np.empty(len(diff)))
        assert np.array_equal(r2, by_hand)
        assert np.array_equal(r2, np.einsum("ik,ik->i", diff, diff))
    for d, N, block in itertools.product(
            (3, 4, 5), (2, 16, 64), (kernels.BLOCK_ENTRIES, 64)):
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)
        C, steps = int(rng.integers(1, 5)), 3 * N
        x = rng.standard_normal((C, N, d))
        args = (rng.uniform(0.05, 1.0, C), rng.uniform(0.2, 3.0),
                float(N), rng.uniform(0.5, 2.0), d,
                rng.standard_normal((steps * C, d)),
                rng.random(steps * C),
                rng.integers(0, N, steps * C),
                rng.uniform(-10.0, 10.0, C))
        want_x, got_x = x.copy(), x.copy()
        want = _reference_chain(want_x, *args)
        got = kernels.run_chain_quadratic(got_x, *args)
        assert np.array_equal(got_x, want_x), (d, N, block)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])
