"""Measure algebra: boxes, lattice densities, atoms, and the BL metric."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog
from scipy.spatial.distance import cdist, pdist

from mesogas import grids
from mesogas.construction import ConstructionParams, construct
from mesogas.grids import (AtomicMeasure, Box, GridMeasure, bl_distance,
                           box_mass, dilate, mass, measure_to_json,
                           relative_entropy, resample)


def test_box_volume_and_strict_membership():
    box = Box.cube(np.zeros(3), 1.0)
    assert box.volume == 8.0
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.999, -0.999, 0.0]])
    inside = box.contains(pts)
    assert inside.tolist() == [True, False, True]


def test_box_scaled_and_shrunk():
    box = Box(np.array([1.0, -2.0]), np.array([0.5, 2.0]))
    assert np.allclose(box.scaled(2.0).center, [2.0, -4.0])
    assert np.allclose(box.scaled(2.0).half_width, [1.0, 4.0])
    assert np.allclose(box.scaled(0.5).half_width, [0.25, 1.0])
    with pytest.raises(ValueError):
        Box(np.zeros(2), np.array([1.0, 0.0]))


def test_uniform_mass_is_density_times_volume():
    m = GridMeasure.uniform(Box.cube(np.zeros(3), 1.0), 8, 1.0)
    assert mass(m) == pytest.approx(8.0, rel=1e-14)


def test_dilation_scales_mass_but_not_values():
    rng = np.random.default_rng(3)
    m = GridMeasure(Box.cube(np.zeros(3), 1.0), 4, rng.uniform(0, 1, (4, 4, 4)))
    for x in (0.5, 2.0, 3.7):
        mx = dilate(m, x)
        assert mass(mx) == pytest.approx(x ** 3 * mass(m), rel=1e-12)
        assert np.array_equal(mx.density, m.density)
        assert np.allclose(mx.box.half_width, x * m.box.half_width)


def test_dilation_of_atoms_scales_weight():
    a = AtomicMeasure(np.array([[0.1, 0.2, 0.3], [-0.4, 0.0, 0.5]]), 0.5)
    ax = dilate(a, 2.0)
    assert ax.weight == pytest.approx(0.5 * 8.0)
    assert np.allclose(ax.points, 2.0 * a.points)


def test_relative_entropy_reference_must_cover_support():
    box = Box.cube(np.zeros(3), 1.0)
    m = GridMeasure.uniform(box, 4, 1.0)
    ref = m.with_density(np.where(m.cell_centers()[:, 0].reshape(4, 4, 4) > 0,
                                  1.0, 0.0))
    assert relative_entropy(m, ref) == math.inf
    assert relative_entropy(m, m) == pytest.approx(0.0, abs=1e-14)


def test_relative_entropy_matches_direct_sum():
    rng = np.random.default_rng(8)
    box = Box.cube(np.zeros(3), 1.0)
    a = GridMeasure(box, 4, rng.uniform(0.1, 1.0, (4, 4, 4)))
    b = GridMeasure(box, 4, rng.uniform(0.1, 1.0, (4, 4, 4)))
    dv = a.cell_volume
    direct = float(np.sum(a.density * np.log(a.density / b.density)) * dv)
    assert relative_entropy(a, b) == pytest.approx(direct, rel=1e-12)


def test_box_mass_exact_overlap():
    m = GridMeasure.uniform(Box.cube(np.zeros(3), 1.0), 10, 2.0)
    for hw in (0.3, 0.55, 1.0, 1.7):
        got = box_mass(m, Box.cube(np.zeros(3), hw))
        want = 2.0 * (2.0 * min(hw, 1.0)) ** 3
        assert got == pytest.approx(want, rel=1e-12)


def test_box_mass_varies_smoothly_unlike_restrict():
    rng = np.random.default_rng(5)
    m = GridMeasure(Box.cube(np.zeros(3), 1.0), 8,
                    rng.uniform(0.5, 1.5, (8, 8, 8)))
    hws = np.linspace(0.3, 0.9, 25)
    vals = np.array([box_mass(m, Box.cube(np.zeros(3), h)) for h in hws])
    assert np.all(np.diff(vals) > 0)


def test_resample_preserves_uniform_values():
    m = GridMeasure.uniform(Box.cube(np.zeros(3), 1.0), 8, 3.0)
    r = resample(m, Box.cube(np.zeros(3), 0.5), 4)
    assert np.allclose(r.density, 3.0)


def test_bl_distance_two_unit_atoms():
    """For point masses the optimal test function gives min(|x - y|, 2)."""
    for r in (0.5, 1.5, 3.0):
        a = AtomicMeasure(np.array([[0.0, 0.0, 0.0]]))
        b = AtomicMeasure(np.array([[r, 0.0, 0.0]]))
        assert bl_distance(a, b) == pytest.approx(min(r, 2.0), rel=1e-9)


def test_bl_distance_identity_and_symmetry():
    rng = np.random.default_rng(21)
    box = Box.cube(np.zeros(3), 1.0)
    a = GridMeasure(box, 3, rng.uniform(0, 1, (3, 3, 3)))
    b = GridMeasure(box, 3, rng.uniform(0, 1, (3, 3, 3)))
    assert bl_distance(a, a) == pytest.approx(0.0, abs=1e-9)
    assert bl_distance(a, b) == pytest.approx(bl_distance(b, a), rel=1e-9)


def test_bl_distance_bounded_by_total_mass():
    rng = np.random.default_rng(22)
    box = Box.cube(np.zeros(3), 1.0)
    for _ in range(5):
        a = GridMeasure(box, 3, rng.uniform(0, 1, (3, 3, 3)))
        b = GridMeasure(box, 3, rng.uniform(0, 1, (3, 3, 3)))
        assert bl_distance(a, b) <= mass(a) + mass(b) + 1e-9


def test_bl_distance_site_cap():
    rng = np.random.default_rng(4)
    box = Box.cube(np.zeros(3), 1.0)
    a = GridMeasure(box, 20, rng.uniform(0.1, 1.0, (20, 20, 20)))
    b = GridMeasure(box, 10, rng.uniform(0.1, 1.0, (10, 10, 10)))
    with pytest.raises(ValueError):
        bl_distance(a, b, max_sites=100)


def _sites(m):
    if isinstance(m, GridMeasure):
        return m.cell_centers(), m.density.ravel() * m.cell_volume
    return m.points, np.full(m.count, m.weight)


def _bl_oracle(a, b):
    """The BL distance as the inequality LP in the site values of f.

    Every pair closer than 2 gets |f_i - f_j| <= |x_i - x_j| and every site
    |f_i| <= 1; coincident sites are not merged.
    """
    pa, wa = _sites(a)
    pb, wb = _sites(b)
    pts = np.vstack([pa, pb])
    w = np.concatenate([wa, -wb])
    n = pts.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    dd = pdist(pts)
    sel = dd < 2.0
    iu, ju, dd = iu[sel], ju[sel], dd[sel]
    p = iu.size
    if p == 0:
        return float(np.abs(w).sum())
    rows = np.repeat(np.arange(2 * p), 2)
    cols = np.concatenate([np.stack([iu, ju], 1).ravel(),
                           np.stack([ju, iu], 1).ravel()])
    A = sparse.csr_matrix((np.tile([1.0, -1.0], 2 * p), (rows, cols)),
                          shape=(2 * p, n))
    res = linprog(-w, A_ub=A, b_ub=np.concatenate([dd, dd]),
                  bounds=[(-1.0, 1.0)] * n, method="highs")
    assert res.success
    return float(-res.fun)


def _atoms(rng, n, half, weight):
    return AtomicMeasure(rng.uniform(-half, half, (n, 3)), weight)


def _family(name, rng):
    box = Box.cube(np.zeros(3), 1.0)
    if name == "coincident":
        a = _atoms(rng, 12, 1.0, 0.1)
        pb = np.vstack([a.points[:6], rng.uniform(-1, 1, (8, 3))])
        return a, AtomicMeasure(pb, 0.1)
    if name == "signed-grid":
        rho = rng.uniform(-1.0, 1.0, (4, 4, 4))
        return _atoms(rng, 10, 1.0, 0.05), GridMeasure(box, 4, rho, signed=True)
    if name == "unequal-mass":
        return _atoms(rng, 15, 1.5, 0.2), _atoms(rng, 7, 1.5, 0.05)
    if name == "one-signed":
        return GridMeasure(box, 3, rng.uniform(0.1, 1.0, (3, 3, 3))), \
            GridMeasure.zeros(box, 3)
    if name == "far-apart":
        a = AtomicMeasure(np.arange(4)[:, None] * [2.5, 0.0, 0.0], 0.3)
        return a, AtomicMeasure(a.points + [0.0, 2.1, 0.0], 0.7)
    return _atoms(rng, 1, 1.0, 0.4), AtomicMeasure(np.zeros((0, 3)))


FAMILIES = ["coincident", "signed-grid", "unequal-mass", "one-signed",
            "far-apart", "single-site"]


@pytest.mark.parametrize("name", FAMILIES)
def test_bl_distance_matches_the_inequality_lp(name):
    rng = np.random.default_rng(FAMILIES.index(name))
    for _ in range(5):
        a, b = _family(name, rng)
        want = _bl_oracle(a, b)
        assert bl_distance(a, b) == pytest.approx(want, rel=1e-9, abs=1e-15)
        if name in ("one-signed", "far-apart", "single-site"):
            # no pair can cancel, so the optimum is the total mass
            assert want == pytest.approx(mass(a) + mass(b), rel=1e-12)


def _transport_lp(a, b, presolve):
    """The transport LP that bl_distance solves, built and solved as it was
    before bl_distance called HiGHS directly: a ``scipy.sparse`` matrix
    handed to ``linprog``."""
    pa, wa = _sites(a)
    pb, wb = _sites(b)
    pts, site = np.unique(np.vstack([pa, pb]), axis=0, return_inverse=True)
    w = np.bincount(site.ravel(), weights=np.concatenate([wa, -wb]),
                    minlength=pts.shape[0])
    pts, w = pts[w != 0.0], w[w != 0.0]
    n = pts.shape[0]
    if n == 0:
        return 0.0
    src, snk = np.flatnonzero(w > 0.0), np.flatnonzero(w < 0.0)
    dd = cdist(pts[src], pts[snk])
    i, j = np.nonzero(dd < 2.0)
    m = i.size
    A = sparse.csc_matrix(
        (np.ones(2 * m + n), (np.concatenate([src[i], snk[j], np.arange(n)]),
                              np.concatenate([np.arange(m), np.arange(m),
                                              m + np.arange(n)]))),
        shape=(n, m + n))
    res = linprog(np.concatenate([dd[i, j], np.ones(n)]), A_eq=A,
                  b_eq=np.abs(w), method="highs",
                  options={"presolve": presolve})
    assert res.success
    return float(res.fun)


@pytest.mark.parametrize("name", FAMILIES)
def test_bl_distance_matches_the_presolved_transport_lp(name):
    """Presolve cannot reduce the transport LP, so solving it without
    presolve gives the value of the presolved solve."""
    rng = np.random.default_rng(100 + FAMILIES.index(name))
    for _ in range(20):
        a, b = _family(name, rng)
        assert bl_distance(a, b) == pytest.approx(
            _transport_lp(a, b, presolve=True), rel=1e-12, abs=0.0)


@st.composite
def _atom_pair(draw):
    def side():
        n = draw(st.integers(1, 12))
        # a coarse lattice in a cube of side 3 makes coincidences and pairs
        # farther apart than 2 both likely
        pts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 3),
                            min_size=n, max_size=n))
        weight = draw(st.floats(0.01, 2.0))
        return AtomicMeasure(0.5 * np.asarray(pts, float), weight)
    return side(), side()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_atom_pair())
def test_bl_distance_property(pair):
    a, b = pair
    got = bl_distance(a, b)
    assert got == pytest.approx(_bl_oracle(a, b), rel=1e-9, abs=1e-12)
    assert got == pytest.approx(bl_distance(b, a), rel=1e-9, abs=1e-12)
    assert got <= mass(a) + mass(b) + 1e-9
    assert got == pytest.approx(_transport_lp(a, b, presolve=True),
                                rel=1e-12, abs=0.0)


@st.composite
def _measure_pair(draw):
    """Atoms on a coarse lattice against atoms, a grid, a copy of
    themselves (no site left) or nothing (a one-sided difference, a single
    site when there is one atom)."""
    def atoms(low):
        n = draw(st.integers(low, 12))
        pts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 3),
                            min_size=n, max_size=n))
        return AtomicMeasure(0.5 * np.asarray(pts, float).reshape(n, 3),
                             draw(st.floats(0.01, 2.0)))
    a = atoms(1)
    other = draw(st.sampled_from(["atoms", "grid", "same", "none"]))
    if other == "atoms":
        return a, atoms(1)
    if other == "grid":
        # cell centers -2/3, 0, 2/3 per axis; the one at 0 meets an atom
        rho = draw(st.lists(st.floats(0.0, 1.0), min_size=27, max_size=27))
        return a, GridMeasure(Box.cube(np.zeros(3), 1.0), 3, rho)
    if other == "same":
        return a, AtomicMeasure(a.points.copy(), a.weight)
    return a, AtomicMeasure(np.zeros((0, 3)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_measure_pair())
@example((AtomicMeasure([[0.5, 0.0, 0.0]], 0.4),
          AtomicMeasure(np.zeros((0, 3)))))
def test_bl_distance_equals_the_linprog_transport_lp(pair):
    """Handing the transport LP to HiGHS directly gives the objective that
    ``linprog`` gave for the same LP, bit for bit."""
    a, b = pair
    assert bl_distance(a, b) == _transport_lp(a, b, presolve=False)
    assert bl_distance(a, a) == 0.0


def _construct_lp(seed):
    """The configuration and target whose LP `mesogas construct` solves at
    N = 320, and the objective of that LP through ``linprog``."""
    box = Box.cube(np.zeros(3), 1.0)
    params = ConstructionParams(
        target=GridMeasure.uniform(box, 6, 1.0 / box.volume), N=320,
        cube_size=0.25, separation=0.2)
    report = construct(params, seed=seed)
    want = _transport_lp(report.configuration, params.target,
                         presolve=False)
    return report, params.target, want


def test_bl_distance_equals_the_linprog_transport_lp_of_construct():
    """The same on the 536-site LP of ``mesogas construct`` at N = 320 and
    seed 0, the LP that the benchmark's construct workload solves."""
    report, target, want = _construct_lp(0)
    pts = np.vstack([report.configuration.points, target.cell_centers()])
    assert np.unique(pts, axis=0).shape[0] == 536
    assert bl_distance(report.configuration, target) == want
    assert report.bl_to_target == want


@pytest.mark.parametrize("seed", [1, 2])
def test_bl_distance_equals_the_linprog_transport_lp_of_construct_seeds(seed):
    """The same bit for bit at other seeds, whose configurations differ."""
    report, target, want = _construct_lp(seed)
    assert bl_distance(report.configuration, target) == want
    assert report.bl_to_target == want


def test_bl_distance_raises_when_highs_rejects_the_lp(monkeypatch):
    """After a model that ``passModel`` rejects, ``run`` solves what is
    left and can report an optimum of 0; the rejection raises instead."""
    highs, _ = grids._lp_stack()

    class Rejecting(highs._Highs):
        def passModel(self, *args):
            return highs.HighsStatus.kError

    monkeypatch.setattr(highs, "_Highs", Rejecting)
    a = AtomicMeasure([[0.0, 0.0, 0.0]])
    b = AtomicMeasure([[0.5, 0.0, 0.0]])
    with pytest.raises(RuntimeError, match="kError"):
        bl_distance(a, b)


def test_bl_distance_holds_no_model_array_while_highs_runs(monkeypatch):
    """HiGHS copies the model in ``passModel``, so ``bl_distance`` frees its
    own arrays before ``run``: on the 536-site LP of ``mesogas construct``
    at N = 320 and seed 0, Python holds less than 0.1 MB more when ``run``
    starts than when ``bl_distance`` was entered (about 4.4 MB when the
    column arrays outlived ``passModel``). The index arrays arrive as
    C-contiguous int32, the type the binding takes without a copy."""
    highs, _ = grids._lp_stack()
    seen = {}

    class Recording(highs._Highs):
        def passModel(self, *args):
            seen["indices"] = [(a.dtype, a.flags.c_contiguous)
                               for a in args[11:13]]
            return super().passModel(*args)

        def run(self):
            seen["at_run"] = tracemalloc.get_traced_memory()[0]
            return super().run()

    box = Box.cube(np.zeros(3), 1.0)
    params = ConstructionParams(
        target=GridMeasure.uniform(box, 6, 1.0 / box.volume), N=320,
        cube_size=0.25, separation=0.2)
    report = construct(params, seed=0)
    monkeypatch.setattr(highs, "_Highs", Recording)
    tracemalloc.start()
    try:
        entered = tracemalloc.get_traced_memory()[0]
        got = bl_distance(report.configuration, params.target)
    finally:
        tracemalloc.stop()
    assert got == report.bl_to_target
    assert seen["indices"] == [(np.dtype(np.int32), True)] * 2
    assert seen["at_run"] - entered < 0.1e6


def test_measure_to_json_fields():
    rng = np.random.default_rng(31)
    box = Box(np.array([0.5, 0.0, -0.5]), np.array([1.0, 2.0, 0.5]))
    rho = rng.uniform(-1, 1, (3, 3, 3))
    got = measure_to_json(GridMeasure(box, 3, rho))
    assert got == {"box": {"center": [0.5, 0.0, -0.5],
                           "half_width": [1.0, 2.0, 0.5]},
                   "cells_per_axis": 3, "density": rho.ravel().tolist(),
                   "signed": True}
    assert type(got["signed"]) is bool

    pts = rng.uniform(-1, 1, (6, 3))
    got = measure_to_json(AtomicMeasure(pts, 0.125))
    assert got == {"points": pts.tolist(), "weight": 0.125}
