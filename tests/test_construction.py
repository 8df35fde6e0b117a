"""Cube tilings, separated placements, and their certificates."""

import math

import numpy as np
import pytest

from mesogas import kernels
from mesogas.construction import (BL_MAX_SITES, ConstructionParams,
                                  _normalized, certify, construct,
                                  cube_lattice, cube_masses,
                                  fit_potential_bound, place_points,
                                  round_counts, separation_radius,
                                  tau_values, volume_estimate)
from mesogas.grids import (AtomicMeasure, Box, GridMeasure, bl_distance,
                           mass, resample)

BOX = Box.cube(np.zeros(3), 1.0)


def uniform_target(cells=4):
    return GridMeasure.uniform(BOX, cells, 1.0 / BOX.volume)


def test_tiling_geometry():
    cubes = cube_lattice(BOX, 0.5)
    assert cubes.density.size == 64
    assert cubes.spacing[0] == pytest.approx(0.5)
    centers = cubes.cell_centers()
    assert centers.shape == (64, 3)
    idx = cubes.cell_index(np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]]))
    assert idx[0] >= 0 and idx[1] == -1
    # the box is open: a point on its outer face lies in no cube
    assert cubes.cell_index(np.array([[1.0, 0.0, 0.0]]))[0] == -1
    # every cell of a finer target falls in the cube centred within half
    # a side of it
    fine = uniform_target(8).cell_centers()
    idx = cubes.cell_index(fine)
    assert np.all(idx >= 0)
    assert np.all(np.max(np.abs(fine - centers[idx]), axis=1) < 0.25)


def test_tiling_requires_divisibility():
    with pytest.raises(ValueError):
        cube_lattice(BOX, 0.3)


def test_round_counts_total_and_priority():
    weights = np.array([0.51, 0.29, 0.2])
    counts = round_counts(weights, 10)
    assert counts.sum() == 10
    assert counts.tolist() == [5, 3, 2]
    # the largest fractional parts get the leftover units
    counts = round_counts(np.array([0.55, 0.45]), 1)
    assert counts.tolist() == [1, 0]


def test_assign_counts_follows_target_mass():
    target = uniform_target(4)
    cubes = cube_lattice(BOX, 0.5)
    counts = round_counts(cube_masses(target, cubes), 128)
    assert counts.sum() == 128
    assert np.all(counts == 2)


def test_tau_formula():
    eta, sep = 0.5, 0.2
    counts = np.array([0, 1, 8, 27])
    taus = tau_values(counts, eta, sep, 3)
    want = sep * eta * np.array([1.0, 1.0, 0.5, 1.0 / 3.0])
    occupied = counts > 0
    assert np.allclose(taus[occupied], want[occupied])
    assert separation_radius(counts, eta, sep, 3) == pytest.approx(
        sep * eta / 3.0)


def test_place_points_respects_hard_constraints():
    target = uniform_target(4)
    params = ConstructionParams(target=target, N=96, cube_size=0.5,
                                separation=0.25)
    cubes = cube_lattice(target.box, params.cube_size)
    counts = round_counts(cube_masses(target, cubes), 96)
    config = place_points(counts, cubes, 0.25, seed=5)
    assert config.count == 96
    assert config.weight == pytest.approx(1.0 / 96)
    taus = tau_values(counts, cubes.spacing[0], 0.25, 3)
    tau_min = separation_radius(counts, cubes.spacing[0], 0.25, 3)
    assert kernels.min_pairwise_distance(config.points) >= tau_min
    idx = cubes.cell_index(config.points)
    centers = cubes.cell_centers()
    wall = 0.5 * cubes.spacing[0] - np.max(np.abs(config.points - centers[idx]),
                                      axis=1)
    assert np.all(wall >= taus[idx] - 1e-12)


def test_place_points_is_deterministic():
    target = uniform_target(2)
    cubes = cube_lattice(BOX, 1.0)
    counts = round_counts(cube_masses(target, cubes), 40)
    a = place_points(counts, cubes, 0.2, seed=9)
    b = place_points(counts, cubes, 0.2, seed=9)
    assert np.array_equal(a.points, b.points)
    c = place_points(counts, cubes, 0.2, seed=10)
    assert not np.array_equal(a.points, c.points)


def test_packing_rejects_impossible_separation():
    target = uniform_target(2)
    params = ConstructionParams(target=target, N=1000, cube_size=1.0,
                                separation=0.9)
    with pytest.raises(ValueError, match="placement budget exhausted"):
        construct(params, seed=1)


def test_certify_exact_quantization_bl_bound():
    """Placing each cube's points at its center transports mass at most
    half the cube diagonal, and the certificate's BL distance agrees."""
    target = uniform_target(4)
    cubes = cube_lattice(BOX, 0.5)
    counts = round_counts(cube_masses(target, cubes), 64)
    config = AtomicMeasure(cubes.cell_centers()[counts > 0], 1.0 / 64)
    report = certify(config, target, 0.5, 0.2)
    assert report.bl_to_target <= 0.5 * math.sqrt(3) / 2 + 1e-9


@pytest.mark.parametrize("N", [8, 200])
def test_certify_coarsens_the_target_of_an_oversized_bl_lp(N):
    """11^3 target cells and N atoms exceed BL_MAX_SITES, so certify
    measures the BL distance to the normalized target resampled on the
    largest lattice that fits beside the atoms: 10^3 cells. At N = 200
    they fill the cap exactly, where the float cube root of 1000 is
    9.999999999999998."""
    target = GridMeasure.from_function(
        BOX, 11, lambda p: 1.0 + 0.5 * np.cos(2.0 * p).prod(axis=1))
    cubes = cube_lattice(BOX, 1.0)
    counts = round_counts(cube_masses(target, cubes), N)
    config = place_points(counts, cubes, 0.2, seed=4)
    assert 10 ** 3 + config.count <= BL_MAX_SITES < 11 ** 3 + config.count
    report = certify(config, target, 1.0, 0.2)
    coarse = _normalized(resample(_normalized(target), BOX, 10))
    assert report.bl_to_target == bl_distance(config, coarse)


def test_params_reject_an_n_whose_bl_lp_exceeds_the_cap():
    """certify's coarsest BL target keeps 2 cells per axis, so at d = 3 the
    LP has at least N + 8 sites: N = 1192 fits BL_MAX_SITES = 1200 and
    N = 1193 is refused before any point is placed."""
    kw = dict(target=uniform_target(8), cube_size=0.25, separation=0.2)
    ConstructionParams(N=BL_MAX_SITES - 8, **kw)
    with pytest.raises(ValueError, match=f"cap of {BL_MAX_SITES}"):
        ConstructionParams(N=BL_MAX_SITES - 7, **kw)


def test_certify_flags_separation_violation():
    target = uniform_target(2)
    clump = AtomicMeasure(np.full((4, 3), 0.01), 0.25)
    report = certify(clump, target, 1.0, 0.2)
    assert not report.separation_ok


def test_certify_reports_bound_when_constants_given():
    target = uniform_target(4)
    params = ConstructionParams(target=target, N=128, cube_size=0.5,
                                separation=0.3)
    report = construct(params, seed=3, bound_constants=(0.5, 0.1))
    b = report.potential_bound
    assert b is not None
    eta = 0.5
    want = 0.5 * (1.0 / (128 * eta ** 3) + eta) + 0.1 * eta ** 2
    assert b["value"] == pytest.approx(want, rel=1e-12)
    assert b["satisfied"] == (report.max_potential_gap <= b["value"])


def test_fit_potential_bound_envelopes_calibration():
    records = [(64, 0.5, 0.2), (128, 0.5, 0.15), (256, 0.25, 0.1),
               (512, 0.25, 0.08)]
    C, c_lam = fit_potential_bound(records)
    assert C >= 0.0 and c_lam >= 0.0
    for n, e, g in records:
        assert C * (1.0 / (n * e ** 3) + e) + c_lam * e ** 2 >= g - 1e-12
    with pytest.raises(ValueError):
        fit_potential_bound([(64, 0.5, 0.2)])


def test_potential_gap_shrinks_with_cube_size():
    """Finer tilings track the target better while eta stays above N^{-1/3}."""
    target8 = GridMeasure.uniform(BOX, 8, 1.0 / BOX.volume)
    gaps = []
    for eta in (1.0, 0.25):
        params = ConstructionParams(target=target8, N=512, cube_size=eta,
                                    separation=0.3)
        rep = construct(params, seed=7)
        gaps.append(rep.max_potential_gap)
        assert eta > 512.0 ** (-1.0 / 3.0)
    assert gaps[1] < gaps[0]


def test_volume_estimate_anatomy():
    target = uniform_target(4)
    ref = uniform_target(4)
    ve = volume_estimate(target, ref, N=500, cube_size=0.5, separation=0.1,
                         trials=3, seed=2)
    assert ve.target == pytest.approx(0.0, abs=1e-12)
    assert ve.stirling_gap_per_N <= 0.0
    assert ve.separation_loss_per_N < 0.0
    assert ve.log_volume_per_N == pytest.approx(
        ve.multinomial_per_N + ve.separation_loss_per_N, rel=1e-12)
    with pytest.raises(ValueError):
        volume_estimate(target, ref, 500, 0.5, 0.1, trials=0, seed=2)
    # the reference must share the target's lattice
    with pytest.raises(ValueError, match="target's lattice"):
        volume_estimate(target, uniform_target(8), 500, 0.5, 0.1, trials=1,
                        seed=2)


def test_volume_separation_loss_scales_linearly():
    target = uniform_target(4)
    ref = uniform_target(4)
    ratios = []
    for sep in (0.05, 0.1, 0.2):
        ve = volume_estimate(target, ref, N=500, cube_size=0.5,
                             separation=sep, trials=4, seed=11)
        ratios.append(ve.separation_loss_per_N / sep)
    spread = max(ratios) - min(ratios)
    assert abs(spread) < 0.25 * abs(np.mean(ratios))


def test_construct_end_to_end_report():
    target = uniform_target(4)
    params = ConstructionParams(target=target, N=200, cube_size=0.5,
                                separation=0.2)
    report = construct(params, seed=13, volume_trials=2)
    assert report.separation_ok
    assert report.boundary_ok
    assert report.min_separation >= report.tau_min
    assert np.isfinite(report.energy_gap)
    assert np.isfinite(report.bl_to_target)
    assert np.isfinite(report.log_volume_estimate)
    assert "volume" in report.extras
    obj = report.to_json()
    for key in ("min_separation", "bl_to_target", "energy_gap",
                "max_potential_gap", "separation_ok"):
        assert key in obj


def test_cube_masses_sum_to_total():
    target = uniform_target(4)
    cubes = cube_lattice(BOX, 0.5)
    masses = cube_masses(target, cubes)
    assert masses.sum() == pytest.approx(mass(target), rel=1e-12)
