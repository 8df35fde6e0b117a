"""Zero-temperature and thermal equilibrium solvers."""

import math

import numpy as np
import pytest

from mesogas.coulomb import SpaceParams
from mesogas.equilibrium import (Potential, blowup, check_confining,
                                 solve_thermal, thermal_box)
from mesogas.grids import mass


def test_potential_evaluation_and_json():
    V = Potential(2.0)
    pts = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    assert np.allclose(V(pts), [2.0, 6.0])
    assert V.to_json() == {"kind": "quadratic", "coef": 2.0}


@pytest.mark.parametrize("coef", [-1.0, 0.0, math.nan, math.inf])
def test_potential_rejects_a_coef_that_is_not_finite_and_positive(coef):
    """A negative coef gave a complex equilibrium radius, 0 divided by
    zero and NaN a NaN radius; each is refused where V is built."""
    with pytest.raises(ValueError, match="finite and > 0"):
        Potential(coef)


def test_equilibrium_radius_unit_for_unit_quadratic():
    V = Potential(1.0)
    assert V.equilibrium_radius(3) == pytest.approx(1.0, rel=1e-12)
    # a stronger trap packs the same mass into a smaller ball
    assert Potential(2.0).equilibrium_radius(3) < 1.0


def test_equilibrium_solution_matches_flat_ball_profile(equilibrium16):
    """For the quadratic trap the minimizer is uniform on a ball."""
    sol = equilibrium16
    sp = SpaceParams(3)
    flat = 3.0 / abs(sp.c_d) * 2.0  # d * coef / |c_d| with coef 1, times 2
    flat = 3.0 / (4.0 * math.pi)
    centers = sol.measure.cell_centers()
    r = np.linalg.norm(centers, axis=1)
    vals = sol.measure.density.ravel()
    inside = r < 0.8
    assert np.max(np.abs(vals[inside] - flat)) < 3e-2
    assert mass(sol.measure) == pytest.approx(1.0, rel=1e-9)
    assert sol.k == pytest.approx(3.0, rel=1e-2)
    assert sol.el_residual < 1e-2
    assert sol.converged


def test_equilibrium_support_is_unit_ball(equilibrium16):
    sol = equilibrium16
    centers = sol.measure.cell_centers()
    r = np.linalg.norm(centers, axis=1)
    vals = sol.measure.density.ravel()
    radius = float(r[vals > 1e-6 * vals.max()].max())
    cell = sol.measure.cell_diagonal
    assert abs(radius - 1.0) < cell
    assert sol.support_max >= sol.support_min > 0.0
    assert check_confining(sol.potential, sol.measure) > 0.0


def test_thermal_solution_basics(quad, thermal):
    sol = thermal(64)
    assert sol.kind == "thermal"
    assert mass(sol.measure) == pytest.approx(1.0, rel=1e-9)
    assert sol.el_residual < 1e-6
    assert sol.converged
    assert np.all(sol.measure.density > 0)


def test_thermal_approaches_equilibrium_center_density(quad, thermal):
    flat = 3.0 / (4.0 * math.pi)
    gaps = []
    for N in (16, 64, 256):
        sol = thermal(N)
        center = sol.measure.density_at(np.zeros((1, 3)))[0]
        gaps.append(abs(center - flat))
    assert gaps[2] < gaps[0]


def test_thermal_box_contains_support(quad):
    box = thermal_box(quad, 64, 64.0 ** -0.3, 3)
    assert box.half_width[0] >= 1.3


def test_zeta_confines(quad, thermal):
    """The effective one-body field zeta = -(1/(N beta)) log mu_beta grows
    away from the support."""
    sol = thermal(64)
    z = -sol.log_density / (64 * 64.0 ** -0.3)
    centers = sol.measure.cell_centers()
    r = np.linalg.norm(centers, axis=1)
    zc = float(np.mean(np.asarray(z).ravel()[r < 0.3]))
    zb = float(np.mean(np.asarray(z).ravel()[r > 0.9 * r.max()]))
    assert zb > zc


def test_log_density_smooth_tracks_stored_shape(quad, thermal):
    """The smeared-field log density and the stored lattice log agree up to
    a constant offset (the two forms share the density shape; the offset is
    the smearing-convention normalization, and the exact-identity tests in
    the sampler suite pin the smooth form algebraically)."""
    sol = thermal(32)
    pts = np.random.default_rng(1).uniform(-0.4, 0.4, (40, 3))
    gap = sol.log_density_smooth(pts) - sol.log_density_at(pts)
    assert float(gap.max() - gap.min()) < 0.1


def test_log_density_smooth_requires_thermal(equilibrium16):
    with pytest.raises(ValueError):
        equilibrium16.log_density_smooth(np.zeros((1, 3)))


def test_log_density_at_is_minus_inf_outside(quad, thermal):
    sol = thermal(32)
    far = np.array([[50.0, 0.0, 0.0]])
    assert sol.log_density_at(far)[0] == -math.inf


def test_blowup_dilates_by_n_to_lambda(quad, thermal):
    sol = thermal(32)
    lam = 0.05
    up = blowup(sol, 32, lam)
    x = 32.0 ** lam
    assert np.allclose(up.box.half_width, x * sol.measure.box.half_width)
    assert mass(up) == pytest.approx(x ** 3 * mass(sol.measure), rel=1e-12)


def test_thermal_rejects_bad_arguments(quad):
    with pytest.raises(ValueError):
        solve_thermal(quad, 0, 1.0)
    with pytest.raises(ValueError):
        solve_thermal(quad, 16, -1.0)


def test_equilibrium_density_is_analytic_for_quadratic_v_only():
    assert Potential(1.0).equilibrium_density(3) == pytest.approx(
        3.0 / (4.0 * math.pi), rel=1e-12)
