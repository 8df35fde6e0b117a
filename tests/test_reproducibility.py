"""Solver outputs pinned to recorded values.

Each solver is deterministic, so a refactor that keeps its arithmetic keeps
these numbers to the last few bits; 1e-10 relative leaves room only for
reassociated floating-point sums.
"""

import math
import warnings

import numpy as np
import pytest

from mesogas.construction import (CubeTiling, certify, cube_masses,
                                  energy_gap, place_points, round_counts,
                                  separation_radius)
from mesogas.equilibrium import solve_equilibrium, solve_thermal
from mesogas.grids import Box, GridMeasure
from mesogas.rates import ExteriorDomain, phi_rate, t_rate
from mesogas.sampler import RegimeParams

REL = 1e-10


def test_solve_equilibrium_pinned(quad):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve_equilibrium(quad, Box.cube(np.zeros(3), 1.3), 16, tol=1e-5)
    assert sol.k == pytest.approx(2.9946023211413912, rel=REL)
    assert sol.objective == pytest.approx(1.794614390507689, rel=REL)


def test_solve_thermal_pinned(thermal):
    sol = thermal(64, cells=16)
    assert sol.k == pytest.approx(2.846207981693091, rel=REL)


def test_t_rate_pinned(quad):
    """The sweep_energy instance of the benchmark at N = 64."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # gamma = 0.3 is exploratory
        params = RegimeParams(64, 0.3, 0.05)
    th = solve_thermal(quad, 64, params.beta, cells_per_axis=16, tol=1e-8)
    domain = ExteriorDomain.build(params.window, 8, 4)
    mu = GridMeasure.uniform(params.window, 8, 0.1)
    rep = t_rate(mu, params, th, domain, tol=1e-7)
    assert rep.value == pytest.approx(1.7056743281602564, rel=REL)


def test_phi_rate_pinned():
    alpha = 3.0 / (4.0 * math.pi)
    window = Box.cube(np.zeros(3), 1.0)
    domain = ExteriorDomain.build(window, 4, 4)
    mu = GridMeasure.from_function(
        window, 4, lambda x: alpha * (1.0 + 0.5 * np.prod(np.cos(x), axis=1)))
    rep = phi_rate(mu, alpha, domain, tol=1e-10)
    assert rep.value == pytest.approx(0.09054999632517027, rel=REL)


def _construct_instance():
    """The construct instance of the benchmark: N = 320 on a 6-cell target."""
    box = Box.cube(np.zeros(3), 1.0)
    target = GridMeasure.uniform(box, 6, 1.0 / box.volume)
    tiling = CubeTiling.build(box, 0.25)
    counts = round_counts(cube_masses(target, tiling), 320)
    return counts, place_points(counts, tiling, 0.2, seed=0), target


def test_construction_energy_gap_pinned():
    counts, config, target = _construct_instance()
    tau_min = separation_radius(counts, 0.25, 0.2, 3)
    gap, _ = energy_gap(config, target, tau_min)
    assert gap == pytest.approx(0.1849626073463101, rel=REL)


def test_construction_bl_to_target_pinned():
    """The 536-site BL LP; 1e-9 absolute is the benchmark's bl_ tolerance."""
    _, config, target = _construct_instance()
    report = certify(config, target, 0.25, 0.2)
    assert report.bl_to_target == pytest.approx(0.22792132064819687,
                                                rel=0, abs=1e-9)
