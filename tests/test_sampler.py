"""Gibbs sampler, splitting identity, and mesoscopic observables."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesogas.coulomb import energy, energy_offdiag, potential_at_points
from mesogas.equilibrium import Potential
from mesogas.grids import AtomicMeasure, GridMeasure, Box, bl_distance, mass
from mesogas.kernels import pairwise_g_sum
from mesogas.sampler import (RegimeParams, ball_scores, chain_to_jsonl,
                             estimate_event_probability, gibbs_sample,
                             hamiltonian, local_empirical_field,
                             splitting_decompose)


def make_params(N=32, gamma=0.3, lam=0.05, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return RegimeParams(N=N, gamma=gamma, lam=lam, **kw)


def test_regime_params_derived_quantities():
    p = make_params(N=64, gamma=0.3, lam=0.05)
    assert p.beta == pytest.approx(64.0 ** -0.3)
    assert p.speed_super == pytest.approx(64.0 ** 0.85)
    assert p.speed_sub == pytest.approx(64.0 ** 1.75)


def test_regime_is_classified_exactly_on_the_critical_line():
    assert make_params(gamma="9/10", lam="1/20").regime == "critical"
    assert make_params(gamma=Fraction(9, 10),
                       lam=Fraction(1, 20)).regime == "critical"
    assert make_params(gamma=1, lam=0).regime == "critical"
    # binary floats land just off the line, and the classification says so
    assert make_params(gamma=0.9, lam=0.05).regime == "entropy"
    assert make_params(gamma=0.95, lam=0.05).regime == "entropy"
    assert make_params(gamma=0.5, lam=0.05).regime == "energy"


@st.composite
def _rational_lambda(draw):
    d = draw(st.sampled_from((3, 4)))
    lam = draw(st.fractions(min_value=0, max_value=Fraction(1, d),
                            max_denominator=10 ** 6)
               .filter(lambda x: 0 < x < Fraction(1, d)))
    return d, lam


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_rational_lambda())
def test_regime_classification_is_exact(d_lam):
    d, lam = d_lam
    star = 1 - 2 * lam
    eps = Fraction(1, 10 ** 9)
    for gamma, regime in ((star, "critical"), (star + eps, "entropy"),
                          (star - eps, "energy")):
        p = make_params(gamma=str(gamma), lam=str(lam), d=d)
        assert p.regime == regime
        assert (p.gamma, p.lam) == (float(gamma), float(lam))
    # a binary float classifies as its exact value does
    g, x = float(star), float(lam)
    p = make_params(gamma=g, lam=x, d=d)
    assert p.regime == make_params(gamma=Fraction(g), lam=Fraction(x),
                                   d=d).regime
    assert (p.gamma, p.lam) == (g, x)


def test_regime_params_validation():
    for bad in (dict(N=0), dict(d=2), dict(gamma=0.0), dict(lam=0.5),
                dict(R=0.0)):
        with pytest.raises(ValueError):
            make_params(**bad)


def test_hamiltonian_two_particles_closed_form():
    V = Potential("quadratic", 1.0)
    X = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    got = hamiltonian(X, V, 2)
    want = 2.0 * 0.5 + 2.0 * (0.0 + 4.0)
    assert got == pytest.approx(want, rel=1e-14)
    coincident = np.zeros((2, 3))
    assert hamiltonian(coincident, V, 2) == math.inf


def test_splitting_identity_exact(quad, thermal):
    sol = thermal(32)
    rng = np.random.default_rng(77)
    beta = 32.0 ** -0.3
    hw = sol.measure.box.half_width[0]
    for _ in range(10):
        X = rng.uniform(-0.9 * hw, 0.9 * hw, (32, 3))
        H = hamiltonian(X, quad, 32)
        main, zsum, fluct = splitting_decompose(X, sol, 32, beta)
        assert H == pytest.approx(main + zsum + fluct, rel=1e-8)


def test_splitting_requires_full_configuration(quad, thermal):
    sol = thermal(32)
    with pytest.raises(ValueError):
        splitting_decompose(np.zeros((4, 3)), sol, 32, 0.5)
    # the constants it reuses belong to the solve's own (N, beta)
    with pytest.raises(ValueError):
        splitting_decompose(np.zeros((32, 3)), sol, 32, 0.5)


def test_next_order_rewrite_is_exact(quad, thermal):
    """-beta H + N^2 beta E equals -beta fluct plus the summed smooth log
    density: the constant and linear terms telescope exactly."""
    sol = thermal(32)
    beta = 32.0 ** -0.3
    rng = np.random.default_rng(5)
    X = rng.uniform(-0.5, 0.5, (32, 3))
    H = hamiltonian(X, quad, 32)
    main, zsum, fluct = splitting_decompose(X, sol, 32, beta)
    lhs = -beta * H + beta * main
    rhs = -beta * fluct + float(np.sum(sol.log_density_smooth(X)))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_gibbs_sample_is_deterministic(quad):
    p = make_params(N=16)
    a = gibbs_sample(p, quad, 40 * 16, 20 * 16, seed=3, chain_index=2)
    b = gibbs_sample(p, quad, 40 * 16, 20 * 16, seed=3, chain_index=2)
    assert len(a) == len(b) == 20
    assert all(np.array_equal(x.points, y.points) for x, y in zip(a, b))
    c = gibbs_sample(p, quad, 40 * 16, 20 * 16, seed=3, chain_index=3)
    assert not np.array_equal(a[-1].points, c[-1].points)


def test_gibbs_sample_snapshot_cadence_and_acceptance(quad):
    p = make_params(N=16)
    states = gibbs_sample(p, quad, 50 * 16, 10 * 16, seed=9)
    assert len(states) == 40
    assert 0.05 < states[-1].acceptance_rate < 0.95
    assert states[-1].step == 50 * 16
    with pytest.raises(ValueError):
        gibbs_sample(p, quad, 100, 100, seed=9)


def test_gibbs_energy_bookkeeping_stays_consistent(quad):
    """The incrementally updated Hamiltonian matches a fresh evaluation."""
    p = make_params(N=16)
    states = gibbs_sample(p, quad, 60 * 16, 0, seed=12)
    last = states[-1]
    fresh = hamiltonian(last.points, quad, 16)
    assert last.hamiltonian == pytest.approx(fresh, rel=1e-8)


def test_callable_potential_chain_matches_quadratic(quad):
    """A plain callable V steps through the general-V branch of the step
    loop; for V = |x|^2 it reproduces the quadratic chain exactly."""
    p = make_params(N=16)
    plain = gibbs_sample(p, lambda q: np.einsum("ik,ik->i", q, q),
                         40 * 16, 20 * 16, seed=5, chain_index=1)
    ref = gibbs_sample(p, quad, 40 * 16, 20 * 16, seed=5, chain_index=1)
    assert [s.accepted for s in plain] == [s.accepted for s in ref]
    assert all(np.array_equal(a.points, b.points) for a, b in zip(plain, ref))


def _tabulated(quad, half_width):
    like = GridMeasure.zeros(Box.cube(np.zeros(3), half_width), 8)
    return Potential("tabulated",
                     table=like.with_density(quad.on_grid(like)))


def test_tabulated_potential_chain_keeps_hamiltonian(quad):
    """60 sampling sweeps pass the every-25-sweeps exact recheck twice."""
    p = make_params(N=16)
    tab = _tabulated(quad, 3.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        states = gibbs_sample(p, tab, 80 * 16, 20 * 16, seed=6)
    assert len(states) == 60
    assert not [w for w in caught if "drift" in str(w.message)]
    last = states[-1]
    assert last.hamiltonian == pytest.approx(hamiltonian(last.points, tab, 16),
                                             rel=1e-8)


def test_tabulated_potential_rejects_moves_off_its_box(quad):
    """A proposal leaving the table's box sees V = +inf and is rejected."""
    p = make_params(N=16)
    tab = _tabulated(quad, 1.5)
    table_box = tab.table.box
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runs = [gibbs_sample(p, tab, 80 * 16, 20 * 16, seed=0, chain_index=c)
                for c in range(4)]
    assert [len(states) for states in runs] == [60] * 4
    for states in runs:
        for s in states:
            assert np.all(table_box.contains(s.points))
    assert not [w for w in caught if "drift" in str(w.message)]


def test_tabulated_chains_draw_their_start_again_off_the_table(quad):
    """A start with a point off the table has V = +inf and is drawn again
    at the start scale, so every seed runs and stays on the table; a table
    far smaller than that scale raises after a bounded number of draws."""
    p = make_params(N=8, gamma=0.9, lam=0.05)
    tab = _tabulated(quad, 1.0)
    for seed in range(5):
        states = gibbs_sample(p, tab, 40 * 8, 20 * 8, seed=seed)
        assert len(states) == 20
        assert all(np.all(tab.table.box.contains(s.points)) for s in states)
    with pytest.raises(ValueError, match="no start of finite energy"):
        gibbs_sample(p, _tabulated(quad, 0.01), 40 * 8, 20 * 8, seed=0)


@pytest.mark.parametrize("kind, N", [("quadratic", 16), ("callable", 16),
                                     ("tabulated", 16), ("quadratic", 1)])
def test_lockstep_chains_match_chains_run_alone(quad, kind, N):
    """Chain c of a lockstep batch is gibbs_sample(..., chain_index=c),
    field for field; the table's box is small enough that some proposals
    leave it."""
    V = {"quadratic": quad,
         "callable": lambda q: np.einsum("ik,ik->i", q, q),
         "tabulated": _tabulated(quad, 1.5)}[kind]
    p = make_params(N=N)
    steps, burn = 30 * max(N, 16), 10 * max(N, 16)
    batch = gibbs_sample(p, V, steps, burn, seed=4, chain_index=[0, 3, 1])
    assert len(batch) == 3
    for c, states in zip([0, 3, 1], batch):
        alone = gibbs_sample(p, V, steps, burn, seed=4, chain_index=c)
        assert len(states) == len(alone)
        for s, t in zip(states, alone):
            assert np.array_equal(s.points, t.points)
            assert (s.hamiltonian, s.step, s.accepted, s.stream_id,
                    s.proposal_scale) == (t.hamiltonian, t.step, t.accepted,
                                          t.stream_id, t.proposal_scale)


def test_chains_raise_no_runtime_warnings(quad):
    """A cold chain, whose downhill moves overflow exp(-beta dH), and a
    tabulated chain proposing moves off its table both run silently."""
    p = make_params(N=8)
    stiff = lambda q: 1e4 * np.einsum("ik,ik->i", q, q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gibbs_sample(p, stiff, 40 * 8, 20 * 8, seed=1, chain_index=range(2))
        states = gibbs_sample(p, _tabulated(quad, 1.0), 40 * 8, 20 * 8,
                              seed=1, chain_index=range(2))
    assert all(len(s) == 20 for s in states)


def test_single_particle_chain_matches_gaussian(quad):
    """At N=1 the Gibbs law is exp(-V), a centered Gaussian."""
    p = make_params(N=1, gamma=0.5, lam=0.1)
    states = gibbs_sample(p, quad, 20000, 2000, seed=4)
    xs = np.concatenate([s.points for s in states], axis=0)
    var = xs.var(axis=0)
    assert np.all(np.abs(var - 0.5) < 0.08)


def test_local_empirical_field_window_and_weight():
    p = make_params(N=32, lam=0.05)
    rng = np.random.default_rng(15)
    X = rng.uniform(-1.2, 1.2, (32, 3))
    lemp = local_empirical_field(X, p)
    xfac = 32.0 ** 0.05
    want = int(np.sum(np.all(np.abs(X * xfac) < 1.0, axis=1)))
    assert lemp.count == want
    assert lemp.weight == pytest.approx(32.0 ** (0.05 * 3 - 1))
    assert np.all(np.abs(lemp.points) < 1.0)


def test_signed_energy_offdiag_expands_into_its_three_terms(thermal):
    """The energy ball's gap E_offdiag(mu - nu) is energy_offdiag with the
    atoms' weight negated: E(mu) - 2 G(nu, mu) + w^2 sum_{i != j} g, where
    G(nu, mu) = w sum_i h^mu(x_i)."""
    mu = thermal(16, cells=16).measure
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.3, 0.3, (64, 3))
    w = 1.0 / 64
    got = energy_offdiag([AtomicMeasure(pts, -w)], mu)[0]
    want = (energy(mu) - 2.0 * w * potential_at_points(mu, pts).sum()
            + w ** 2 * pairwise_g_sum(pts, 3))
    assert got == pytest.approx(want, rel=1e-12)


def test_ball_membership_kinds(quad, thermal):
    p = make_params(N=32, lam=0.05)
    rng = np.random.default_rng(44)
    X = rng.uniform(-0.5, 0.5, (32, 3)) * 32.0 ** -0.05
    lemp = local_empirical_field(X, p)
    win = Box.cube(np.zeros(3), 1.0)
    mu = GridMeasure.uniform(win, 8, mass(lemp) / win.volume)
    assert ball_scores([lemp], mu, 0.5, p, kind="energy")[0] < 1e9
    assert not ball_scores([lemp], mu, 0.5, p, kind="bl")[0] < 1e-12
    # a shrink margin wider than the window empties the energy ball
    assert not ball_scores([lemp], mu, 1e9, p, kind="energy")[0] < 1e9
    with pytest.raises(ValueError):
        ball_scores([lemp], mu, 0.5, p, kind="euclid")


_BALL_MU = GridMeasure(Box.cube(np.zeros(3), 1.0), 4,
                       np.random.default_rng(3).uniform(0.0, 0.3, (4, 4, 4)))


@st.composite
def _field_stack(draw):
    N = draw(st.sampled_from([1, 2, 8, 64]))
    k = draw(st.sampled_from([0.0, 0.5, 1.0]))
    p = make_params(N=N, lam=0.05)
    shrink = p.R - k * float(N) ** (-1.0 / 3)
    # a coarse lattice through the shrunken boundary and the window's
    # centre puts atoms on the boundary and on top of one another
    coords = st.sampled_from(sorted({-0.9, -0.5 * shrink, 0.0, 0.3,
                                     0.5 * shrink, shrink, -shrink}))
    fields = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, 5))
        pts = draw(st.lists(st.tuples(coords, coords, coords),
                            min_size=n, max_size=n))
        fields.append(AtomicMeasure(np.asarray(pts, float).reshape(n, 3),
                                    float(N) ** (0.05 * 3 - 1.0)))
    return p, k, draw(st.sampled_from(["energy", "bl"])), fields


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_field_stack())
def test_ball_scores_match_each_field_scored_alone(stack):
    p, k, kind, fields = stack
    scores = ball_scores(fields, _BALL_MU, k, p, kind=kind)
    shrink = p.R - k * float(p.N) ** (-1.0 / 3)
    for nu, score in zip(fields, scores):
        if kind == "bl":
            want = bl_distance(nu, _BALL_MU)
        elif shrink <= 0 or not np.all(
                Box.cube(np.zeros(3), shrink).contains(nu.points)):
            want = math.inf
        else:
            want = abs(energy_offdiag(
                [AtomicMeasure(nu.points, -nu.weight)], _BALL_MU)[0])
        assert score == want
        for eps in (0.05, 0.5, 5.0):
            assert (ball_scores([nu], _BALL_MU, k, p, kind=kind)[0]
                    < eps) == (want < eps)


def test_estimate_event_probability_bounds(quad):
    p = make_params(N=8)
    # 200 N = 1,600 proposals per chain, half burn-in: 100 snapshots each
    p_hat, err = estimate_event_probability(p, quad, lambda s: False,
                                            n_chains=2, seed=1)
    assert p_hat == 0.0
    assert err == pytest.approx(3.0 / 200.0)
    p_hat, err = estimate_event_probability(p, quad, lambda s: True,
                                            n_chains=2, seed=1)
    assert p_hat == 1.0


def test_chain_jsonl_roundtrip(quad):
    p = make_params(N=8)
    states = gibbs_sample(p, quad, 30 * 8, 20 * 8, seed=2)
    text = chain_to_jsonl(states)
    rows = [json.loads(line) for line in text.strip().split("\n")]
    assert len(rows) == len(states)
    for key in ("step", "hamiltonian", "acceptance_rate", "points"):
        assert key in rows[0]
    assert np.allclose(np.asarray(rows[-1]["points"]), states[-1].points)
