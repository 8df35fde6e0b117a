"""Shared fixtures. Solver calls dominate the suite's runtime, so thermal
and equilibrium solutions are computed once per session and handed out to
every test that only reads them."""

import warnings

import numpy as np
import pytest

from mesogas.equilibrium import Potential, solve_equilibrium, solve_thermal
from mesogas.grids import Box


@pytest.fixture(scope="session")
def quad():
    return Potential(1.0)


@pytest.fixture(scope="session")
def thermal(quad):
    """Factory for cached thermal solves with beta = N^{-gamma}."""
    cache = {}

    def get(N, cells=24, gamma=0.3):
        key = (N, cells, gamma)
        if key not in cache:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cache[key] = solve_thermal(quad, N, float(N) ** -gamma,
                                           cells_per_axis=cells)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def equilibrium16(quad):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve_equilibrium(quad, Box.cube(np.zeros(3), 1.6), 16)
