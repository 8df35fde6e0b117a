"""Rate functionals and their closed-form sub-minimizers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky
from scipy.optimize import nnls

from mesogas.coulomb import dense_kernel_matrix
from mesogas.equilibrium import solve_thermal
from mesogas.grids import Box, GridMeasure, box_mass, dilate, mass
from mesogas.rates import (ExteriorDomain, _t_cube, alpha_minimizer,
                           blowup_on_domain, kappa_minimizer, n_rate,
                           phi_rate, phi_scaling_check, t_rate)

INNER = Box.cube(np.zeros(3), 0.5)


def small_domain(cells=2, factor=2):
    return ExteriorDomain.build(INNER, cells, factor)


def test_exterior_domain_partitions_lattice():
    dom = small_domain()
    total = dom.layout.density.size
    n_win = int(np.sum(~dom.exterior_mask))
    assert n_win == 2 ** 3
    assert int(np.sum(dom.exterior_mask)) == total - n_win
    assert np.allclose(dom.layout.box.half_width, 2 * INNER.half_width)


def test_exterior_domain_build_validation():
    with pytest.raises(ValueError):
        ExteriorDomain.build(INNER, 2, 1)          # factor below two
    with pytest.raises(ValueError):
        ExteriorDomain.build(INNER, 3, 2.5)        # fractional cell padding


def test_embed_places_window_measure():
    dom = small_domain()
    mu = GridMeasure.uniform(INNER, 2, 1.0)
    q = dom.embed(mu)
    assert q[~dom.exterior_mask].min() == pytest.approx(1.0)
    assert np.all(q[dom.exterior_mask] == 0.0)


def test_n_rate_zero_exactly_at_reference():
    box = Box.cube(np.zeros(3), 1.0)
    ref = 0.3
    at_ref = GridMeasure.uniform(box, 4, ref)
    assert n_rate(at_ref, ref) == pytest.approx(0.0, abs=1e-12)


def test_n_rate_nonnegative_and_convex():
    rng = np.random.default_rng(2)
    box = Box.cube(np.zeros(3), 1.0)
    ref = 0.3
    prev = None
    for _ in range(200):
        a = GridMeasure(box, 3, rng.uniform(0, 0.9, (3, 3, 3)))
        b = GridMeasure(box, 3, rng.uniform(0, 0.9, (3, 3, 3)))
        va, vb = n_rate(a, ref), n_rate(b, ref)
        vm = n_rate(a.with_density((a.density + b.density) * 0.5), ref)
        assert va >= 0.0 and vb >= 0.0
        assert vm <= 0.5 * (va + vb) + 1e-10


def test_n_rate_validation():
    box = Box.cube(np.zeros(3), 1.0)
    m = GridMeasure.uniform(box, 3, 1.0)
    with pytest.raises(ValueError):
        n_rate(m, 0.0)


def test_phi_zero_when_window_matches_background():
    dom = small_domain(4, 2)
    alpha = 0.2
    mu = GridMeasure.uniform(INNER, 4, alpha)
    rep = phi_rate(mu, alpha, dom)
    assert rep.value == pytest.approx(0.0, abs=1e-10)


def test_phi_minimizer_is_feasible():
    rng = np.random.default_rng(6)
    dom = small_domain(4, 2)
    mu = GridMeasure(INNER, 4, rng.uniform(0, 0.5, (4, 4, 4)))
    rep = phi_rate(mu, 0.1, dom)
    phi = rep.minimizer.density
    assert np.all(phi >= 0.0)
    assert np.all(phi[~dom.exterior_mask] == 0.0)
    assert rep.kkt_residual < 1e-8
    assert rep.value >= 0.0


def test_phi_matches_dense_nnls_oracle():
    """The projected-gradient solve agrees with a direct nonnegative
    least-squares solve of the same quadratic program."""
    rng = np.random.default_rng(99)
    dom = small_domain()
    lay = dom.layout
    dv = lay.cell_volume
    K = dense_kernel_matrix(lay)
    L = cholesky(K + 1e-12 * np.eye(K.shape[0]), lower=True)
    ext = dom.exterior_mask.ravel()
    for _ in range(5):
        mu = GridMeasure(INNER, 2, rng.uniform(0.05, 0.5, (2, 2, 2)))
        alpha = rng.uniform(0.05, 0.25)
        rep = phi_rate(mu, alpha, dom, tol=1e-12, max_iter=20000)
        q0 = (dom.embed(mu) - alpha).ravel()
        _, rnorm = nnls(L.T[:, ext], -L.T @ q0)
        oracle = rnorm ** 2 * dv * dv
        assert rep.value == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_phi_scaling_identity():
    rng = np.random.default_rng(8)
    dom = small_domain(4, 2)
    mu = GridMeasure(INNER, 4, rng.uniform(0, 0.4, (4, 4, 4)))
    for x in (0.5, 2.0):
        lhs, rhs = phi_scaling_check(mu, 0.15, dom, x)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)


def test_phi_superquadratic_in_the_deviation():
    """Doubling the deviation mu - alpha at least quadruples Phi. The
    admissible screening fields form a cone, so scaling is exact; the
    inequality form tolerates solver slack."""
    rng = np.random.default_rng(9)
    dom = small_domain(4, 2)
    for _ in range(10):
        alpha = rng.uniform(0.05, 0.3)
        dev = rng.uniform(-alpha, 0.4, (4, 4, 4))
        mu = GridMeasure(INNER, 4, alpha + dev)
        doubled = GridMeasure(INNER, 4, alpha + 2.0 * dev, signed=True)
        v1 = phi_rate(mu, alpha, dom).value
        v2 = phi_rate(doubled, alpha, dom).value
        assert v2 >= 4.0 * v1 - 1e-8


def test_kappa_closed_form_scales_the_exterior():
    dom = small_domain()
    rng = np.random.default_rng(10)
    w = dom.layout.with_density(rng.uniform(0.2, 1.0, dom.layout.density.shape))
    total = mass(w)
    i_ext = float(np.sum(w.density[dom.exterior_mask]) * dom.layout.cell_volume)
    nu_bar = 0.4 * total
    kap, mu_star, val = kappa_minimizer(nu_bar, w, dom)
    assert kap == pytest.approx((total - nu_bar) / i_ext, rel=1e-12)
    assert val == pytest.approx(kap * math.log(kap) * i_ext, rel=1e-12)
    ext_vals = mu_star.density[dom.exterior_mask]
    assert np.allclose(ext_vals, kap * w.density[dom.exterior_mask])
    assert np.all(mu_star.density[~dom.exterior_mask] == 0.0)


def test_kappa_warns_when_blowup_spills(quad, thermal):
    """0.321 of the dilated mass 1.516 (21.2%) lies outside the truncation
    box, and the warning reports that mass."""
    sol = thermal(16)
    dom = small_domain()
    up = dilate(sol.measure, 16.0 ** 0.05)
    outside = mass(up) - box_mass(up, dom.truncation)
    assert outside == pytest.approx(0.321, abs=5e-4)
    with pytest.warns(UserWarning, match=r"\(0\.321 of its 1\.52 mass"):
        kappa_minimizer(0.1, up, dom)


def test_kappa_is_silent_when_the_truncation_box_holds_the_mass(thermal):
    """The dilated thermal box (half-width 3.03) reaches past the
    truncation box (half-width 2), but the box holds 99.9993% of the
    mass, so nothing is worth a warning."""
    sol = thermal(16)
    dom = ExteriorDomain.build(INNER, 2, 4)
    up = dilate(sol.measure, 16.0 ** 0.05)
    assert np.any(up.box.half_width > dom.truncation.half_width)
    assert box_mass(up, dom.truncation) > 0.999 * mass(up)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa_minimizer(0.1, up, dom)


@pytest.mark.parametrize("N, half_width, cells, factor, share, cause", [
    # the sweep_energy lattices: the truncation box holds 100.000%
    (16, 1.0, 8, 4, "122.632%", "nearest-cell resampling"),
    (32, 1.0, 8, 4, "99.314%", "nearest-cell resampling"),
    # factor 2 cuts the dilated thermal box, but only the smaller window
    # loses thermal mass to it (75.119%; at factor 4 the last case reads
    # 126.296%)
    (16, 0.5, 4, 2, "80.145%", "truncation drops part of it"),
    (16, 1.0, 4, 2, "126.295%", "nearest-cell resampling"),
])
def test_t_rate_warns_on_a_mass_gap_of_either_sign(thermal, N, half_width,
                                                   cells, factor, share,
                                                   cause):
    """The dilated thermal mass on the rate lattice should be N^(lambda d);
    a gap above 0.1% either way warns. It names truncation when the
    truncation box, pulled back to the thermal lattice, holds under 99.9%
    of the thermal mass, and the resampling otherwise."""
    dom = ExteriorDomain.build(Box.cube(np.zeros(3), half_width), cells,
                               factor)
    params = type("P", (), {"N": float(N), "lam": 0.05})()
    mu = GridMeasure.uniform(dom.interior, cells, 0.01)
    sol = thermal(N, cells=16)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t_rate(mu, params, sol, dom, include_energy=False)
    texts = [str(w.message) for w in caught]
    assert len(texts) == 1, texts
    assert f"carries {share} of the dilated thermal mass" in texts[0]
    held = box_mass(sol.measure, dom.truncation.scaled(N ** -0.05))
    assert f"truncation box holds {held:.3%} of the thermal mass" in texts[0]
    assert (held < 0.999) == (cause == "truncation drops part of it")
    assert cause in texts[0]


def test_alpha_closed_form(quad, thermal):
    sol = thermal(32)
    excl = Box.cube(np.zeros(3), 0.5)
    meas = sol.measure
    outside = ~excl.contains(meas.cell_centers())
    i_ext = float(meas.density.ravel()[outside].sum() * meas.cell_volume)
    for i_N, N in ((0.0, 32.0), (10.0, 32.0), (31.0, 32.0)):
        alpha, rho = alpha_minimizer(i_N, N, sol, excl)
        assert alpha == pytest.approx((1.0 - i_N / N) / i_ext, rel=1e-12)
        assert mass(rho) == pytest.approx(1.0 - i_N / N, rel=1e-9)
    with pytest.raises(ValueError):
        alpha_minimizer(-1.0, 32.0, sol, excl)
    with pytest.raises(ValueError):
        alpha_minimizer(33.0, 32.0, sol, excl)


def test_blowup_on_domain_matches_density(quad, thermal):
    sol = thermal(32)
    dom = small_domain(4, 2)
    w, logw = blowup_on_domain(sol, 32.0, 0.05, dom)
    up = dilate(sol.measure, 32.0 ** 0.05)
    direct = up.density_at(dom.layout.cell_centers()).reshape(w.shape)
    inside = direct > 0
    assert np.allclose(w[inside], direct[inside], rtol=1e-6)
    assert np.all(np.isfinite(logw[inside]))


def test_t_rate_without_energy_reduces_to_kappa(quad, thermal):
    """Dropping the quadratic term leaves exactly the exterior entropy
    problem, whose minimum the kappa closed form gives."""
    sol = thermal(32)
    params_like = type("P", (), {"N": 32.0, "lam": 0.05})()
    dom = small_domain(4, 2)
    mu = GridMeasure.uniform(INNER, 4, 0.15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = t_rate(mu, params_like, sol, dom, include_energy=False)
        w, _ = blowup_on_domain(sol, 32.0, 0.05, dom)
        wm = dom.layout.with_density(w)
        _, _, want = kappa_minimizer(mass(mu), wm, dom)
    assert rep.value == pytest.approx(want, rel=1e-6, abs=1e-9)
    for key in ("energy_term", "entropy_term", "t_script", "mu_v0"):
        assert key in rep.extras


def test_t_rate_full_value_dominates_entropy_part(quad, thermal):
    sol = thermal(32)
    params_like = type("P", (), {"N": 32.0, "lam": 0.05})()
    dom = small_domain(4, 2)
    mu = GridMeasure.uniform(INNER, 4, 0.15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        full = t_rate(mu, params_like, sol, dom)
        bare = t_rate(mu, params_like, sol, dom, include_energy=False)
    assert full.extras["energy_term"] >= -1e-10
    assert full.value >= bare.value - 1e-8


def test_t_rate_on_the_whole_lattice_keeps_its_floats(thermal):
    """log w is finite on every cell of this factor-2 lattice, so T solves
    on the whole lattice with the arithmetic it had before it solved on a
    cube: these are the floats recorded before that change."""
    sol = thermal(32)
    params_like = type("P", (), {"N": 32.0, "lam": 0.05})()
    dom = small_domain(4, 2)
    mu = GridMeasure.uniform(INNER, 4, 0.15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = t_rate(mu, params_like, sol, dom)
        _, logw = blowup_on_domain(sol, 32.0, 0.05, dom)
    assert np.all(np.isfinite(logw))
    assert rep.extras["solve_cells"] == dom.layout.cells_per_axis == 8
    assert rep.value == 0.09431380277408302
    assert rep.extras["energy_term"] == 0.004782378616020059


@pytest.fixture(scope="module")
def thermal_d(quad):
    """Factory for cached 8-cell thermal solves in d = 3 and 4."""
    cache = {}

    def get(N, d):
        if (N, d) not in cache:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cache[N, d] = solve_thermal(quad, N, float(N) ** -0.3,
                                            cells_per_axis=8, d=d)
        return cache[N, d]

    return get


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.sampled_from([3, 4]), N=st.sampled_from([4, 16, 64, 256]),
       lam=st.floats(0.0, 0.3), cells=st.sampled_from([2, 4]),
       factor=st.integers(2, 4), half_width=st.floats(0.3, 3.0))
def test_t_cube_holds_the_window_and_the_dilated_thermal_box(
        thermal_d, d, N, lam, cells, factor, half_width):
    """The cube T solves on is the smallest cube of lattice cells holding the
    window and every cell where log w is finite, and it is the whole lattice
    when log w is finite everywhere."""
    dom = ExteriorDomain.build(Box.cube(np.zeros(d), half_width), cells,
                               factor)
    _, logw = blowup_on_domain(thermal_d(N, d), float(N), lam, dom)
    cube = _t_cube(dom, logw)
    n = dom.layout.cells_per_axis
    side = cube[0].stop - cube[0].start
    assert len(cube) == d
    assert all(0 <= s.start and s.stop <= n and s.stop - s.start == side
               for s in cube)
    live = dom.interior_mask | np.isfinite(logw)
    outside = live.copy()
    outside[cube] = False
    assert not outside.any()
    # smallest: on some axis, live cells sit in both end slabs of the cube
    inner = live[cube]
    assert any(inner.take(0, axis=k).any() and inner.take(-1, axis=k).any()
               for k in range(d))
    if np.all(np.isfinite(logw)):
        assert side == n


def test_phi_background_gap_closes_with_n(quad, thermal):
    """|Phi^{mu_V(0)}(rho) - Phi^{w_N}(rho)| for the dilated thermal
    background w_N shrinks as N grows."""
    dom = small_domain(4, 2)
    rho = GridMeasure.uniform(INNER, 4, 0.3)
    mu_v0 = quad.equilibrium_density(3)
    gaps = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for N in (16, 256):
            w, _ = blowup_on_domain(thermal(N), float(N), 0.05, dom)
            gaps.append(abs(phi_rate(rho, mu_v0, dom).value
                            - phi_rate(rho, w, dom).value))
    assert gaps[1] < gaps[0]
