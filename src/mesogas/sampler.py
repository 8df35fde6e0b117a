"""Gibbs sampling of the interacting gas and the splitting identity.

The Hamiltonian is the ordered-pair interaction plus an N-weighted potential,

    H_N(X) = sum_{i != j} g(x_i - x_j) + N sum_i V(x_i),

and the Gibbs measure is (1/Z) exp(-beta H_N) with beta = N^{-gamma}.
``splitting_decompose`` rewrites H_N exactly around the thermal equilibrium
measure as

    H_N = N^2 E_beta(mu) + N sum_i zeta(x_i) + N^2 E_offdiag(emp - mu),

where zeta = 2 h^mu + V - k and k = 2 E(mu) + int V dmu + ent[mu]/(N beta).
The thermal solution carries both constants: its objective is E_beta(mu),
and k exceeds it by exactly E(mu). The three terms telescope algebraically,
so the identity holds to floating point provided the atom-to-continuum
cross integrals are evaluated once and reused on both sides; atoms are
smeared at one cell diagonal for those cross terms (atom-atom interactions
stay raw, matching H_N itself).

Sampling is single-site Metropolis with Gaussian proposals, the scale
auto-tuned toward 35% acceptance during burn-in and frozen afterward.
Chains are deterministic given (seed, chain index).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .coulomb import default_smear_radius, energy_offdiag, \
    potential_at_points
from .grids import AtomicMeasure, Box, GridMeasure, bl_distance


@dataclass(frozen=True)
class RegimeParams:
    """Scaling exponents of one experiment: temperature and window scale.

    beta = N^{-gamma}; the critical exponent is gamma* = 1 - 2 lambda.
    gamma > gamma* is the subcritical regime (entropy wins, speed
    N^{2-(d+2)lambda}), gamma < gamma* the supercritical one (energy wins,
    speed N^{1-lambda d}); ``cli.classify_regime`` places a point on that
    line in exact rational arithmetic. Values outside the theorem's
    hypothesis ranges are allowed for exploration but warn.
    """

    N: int
    gamma: float
    lam: float
    R: float = 1.0
    d: int = 3

    def __post_init__(self):
        if self.d < 3:
            raise ValueError("kernel |x|^{2-d} needs d >= 3")
        if self.N < 1:
            raise ValueError(f"N={self.N} must be a positive integer")
        if self.gamma <= 0:
            raise ValueError(f"gamma={self.gamma} must be positive")
        if not 0 <= self.lam < 1.0 / self.d:
            raise ValueError(f"lambda={self.lam} must lie in [0, 1/d)")
        if self.R <= 0:
            raise ValueError("window half-width R must be positive")
        lo = (self.d - 2) / self.d
        if not lo < self.gamma < 1:
            warnings.warn(f"gamma={self.gamma} outside the hypothesis range "
                          f"({lo:.4g}, 1); exploratory run")
        if self.lam == 0 or self.lam >= 1.0 / (self.d * (self.d + 2)):
            warnings.warn(f"lambda={self.lam} outside the hypothesis range "
                          f"(0, {1.0 / (self.d * (self.d + 2)):.4g}); "
                          "exploratory run")

    @property
    def beta(self) -> float:
        return float(self.N) ** (-self.gamma)

    @property
    def speed_sub(self) -> float:
        return float(self.N) ** (2.0 - (self.d + 2) * self.lam)

    @property
    def speed_super(self) -> float:
        return float(self.N) ** (1.0 - self.lam * self.d)

    @property
    def window(self) -> Box:
        return Box.cube(np.zeros(self.d), self.R)


def hamiltonian(X: np.ndarray, V, N: int, d: int | None = None) -> float:
    """Ordered-pair interaction energy plus N-weighted confinement.

    Coincident points give +inf (the kernel diverges on the diagonal).
    """
    pts = np.ascontiguousarray(np.atleast_2d(X), dtype=float)
    if d is None:
        d = pts.shape[1]
    pair = kernels.pairwise_g_sum(pts, d)
    if not math.isfinite(pair):
        return math.inf
    return float(pair) + float(N) * float(np.sum(V(pts)))


def splitting_decompose(X: np.ndarray, sol_thermal, N: int, beta: float
                        ) -> tuple[float, float, float]:
    """Exact three-term splitting of H_N around the thermal measure.

    Returns (main, zeta_sum, fluct) with main + zeta_sum + fluct = H_N(X)
    to floating point. The configuration must have exactly N points: the N
    weighting the potential is also the number of atoms the empirical
    measure averages over, and the telescoping uses both readings. (N, beta)
    must be the ones the thermal solution was solved at, whose constants it
    carries.
    """
    pts = np.ascontiguousarray(np.atleast_2d(X), dtype=float)
    if len(pts) != N:
        raise ValueError("splitting needs len(X) == N")
    if (float(N), float(beta)) != (sol_thermal.N, sol_thermal.beta):
        raise ValueError("splitting needs the (N, beta) of the thermal solve")
    mu = sol_thermal.measure
    k, objective = sol_thermal.k, sol_thermal.objective

    h_at = potential_at_points(mu, pts, smear_radius=default_smear_radius(mu))
    pair = float(kernels.pairwise_g_sum(pts, mu.d))

    main = N * N * objective
    zeta_sum = N * float(np.sum(2.0 * h_at + sol_thermal.potential(pts) - k))
    fluct = pair - 2.0 * N * float(np.sum(h_at)) + N * N * (k - objective)
    return main, zeta_sum, fluct


@dataclass(frozen=True, eq=False)
class ChainState:
    """Snapshot of one Metropolis chain at a retained sample."""

    points: np.ndarray
    hamiltonian: float
    step: int
    accepted: int
    stream_id: tuple
    proposal_scale: float

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.step if self.step else 0.0

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "hamiltonian": self.hamiltonian,
            "acceptance_rate": self.acceptance_rate,
            "points": self.points.tolist(),
        }


def chain_to_jsonl(states) -> str:
    return "\n".join(json.dumps(s.to_json()) for s in states) + "\n"


def _propose_batch(rng, n_props: int, N: int, d: int):
    sites = rng.integers(0, N, size=n_props)
    normals = rng.standard_normal((n_props, d))
    unifs = rng.random(n_props)
    return sites, normals, unifs


def gibbs_sample(params: RegimeParams, V, steps: int, burn_in: int,
                 seed: int, chain_index: int = 0,
                 initial: np.ndarray | None = None) -> list[ChainState]:
    """Metropolis chain for (1/Z) exp(-beta H_N); returns thinned snapshots.

    Proposals are single-site Gaussian moves. During burn-in the scale is
    retuned every window toward 35% acceptance, then frozen. One sample is
    recorded every N proposals after burn-in. The RNG stream is derived
    from (seed, chain_index), so trajectories are reproducible and chains
    with different indices are independent.
    """
    if not steps > burn_in >= 0:
        raise ValueError("need steps > burn_in >= 0")
    N, d, beta = params.N, params.d, params.beta
    rng = np.random.default_rng((seed, chain_index))

    quadratic = getattr(V, "kind", None) == "quadratic"
    if initial is not None:
        x = np.array(initial, dtype=float).reshape(N, d)
    else:
        init_scale = 1.0 / math.sqrt(2.0 * max(N * beta, 1e-12))
        if quadratic:
            init_scale /= math.sqrt(V.coef)
        x = rng.standard_normal((N, d)) * max(init_scale, 1e-3)

    ham = hamiltonian(x, V, N, d)
    while not math.isfinite(ham):
        x = rng.standard_normal((N, d))
        ham = hamiltonian(x, V, N, d)

    scale = 0.5 / max(N * beta, 1.0) ** 0.5
    accepted_total = 0
    step = 0
    out: list[ChainState] = []
    tune_window = max(50, 10 * N)

    vcoef, general_v = (float(V.coef), None) if quadratic else (0.0, V)
    if getattr(V, "kind", None) == "tabulated":
        # V is +inf off its table's box, so such proposals are rejected
        general_v = lambda p: V.table.density_at(p, fill=np.inf)

    def run(n_props, cur_scale, cur_ham):
        sites, normals, unifs = _propose_batch(rng, n_props, N, d)
        acc, new_ham = kernels.run_chain_quadratic(
            x, cur_scale, beta, float(N), vcoef, d,
            normals, unifs, sites, cur_ham, V=general_v)
        return int(acc), float(new_ham)

    # burn-in with scale tuning
    done = 0
    while done < burn_in:
        n = min(tune_window, burn_in - done)
        acc, ham = run(n, scale, ham)
        accepted_total += acc
        done += n
        step += n
        rate = acc / n
        scale *= math.exp(1.2 * (rate - 0.35))
        scale = min(max(scale, 1e-6), 1e3)

    # sampling with frozen scale
    since_check = 0
    remaining = steps - burn_in
    while remaining > 0:
        n = min(N, remaining)
        acc, ham = run(n, scale, ham)
        accepted_total += acc
        step += n
        remaining -= n
        since_check += 1
        if since_check >= 25:
            since_check = 0
            exact = hamiltonian(x, V, N, d)
            if abs(exact - ham) > 1e-8 * max(1.0, abs(exact)):
                warnings.warn("hamiltonian drift "
                              f"{abs(exact - ham):.2e}; resynced")
            ham = exact
        out.append(ChainState(points=x.copy(), hamiltonian=ham, step=step,
                              accepted=accepted_total,
                              stream_id=(seed, chain_index),
                              proposal_scale=scale))
    return out


def local_empirical_field(X: np.ndarray, params: RegimeParams) -> AtomicMeasure:
    """Empirical measure dilated by N^lambda and restricted to the window.

    Atoms N^lambda x_i are kept iff strictly inside the cube of half-width
    R; each carries weight N^{lambda d - 1}.
    """
    pts = np.atleast_2d(np.asarray(X, dtype=float)) * float(params.N) ** params.lam
    keep = params.window.contains(pts)
    weight = float(params.N) ** (params.lam * params.d - 1.0)
    return AtomicMeasure(points=pts[keep].copy(), weight=weight)


def ball_membership(nu: AtomicMeasure, mu: GridMeasure, eps: float, k: float,
                    params: RegimeParams, kind: str = "energy") -> bool:
    """Whether nu lies in the radius-eps ball around mu.

    kind="energy": |E_offdiag(mu - nu)| < eps and every atom at least
    k N^{-1/d} inside the window boundary. kind="bl": bounded-Lipschitz
    distance < eps (no support shrinkage; the two ball notions are kept
    separate deliberately).
    """
    if kind == "bl":
        return bool(bl_distance(nu, mu) < eps)
    if kind != "energy":
        raise ValueError("ball kind must be 'energy' or 'bl'")
    shrink = params.R - k * float(params.N) ** (-1.0 / params.d)
    if shrink <= 0:
        return False
    if nu.count:
        inner = Box.cube(np.zeros(params.d), shrink)
        if not np.all(inner.contains(nu.points)):
            return False
    gap = energy_offdiag(AtomicMeasure(nu.points, -nu.weight), mu)
    return bool(abs(gap) < eps)


def estimate_event_probability(params: RegimeParams, V, predicate,
                               n_chains: int, seed: int,
                               steps: int | None = None,
                               burn_in: int | None = None
                               ) -> tuple[float, float]:
    """Fraction of thinned post-burn-in samples where predicate(state) holds.

    Standard error is binomial; a zero-hit estimate reports the one-sided
    rule-of-three bound 3/n as its error bar.
    """
    if n_chains < 1:
        raise ValueError("need at least one chain")
    if steps is None:
        steps = 200 * params.N
    if burn_in is None:
        burn_in = steps // 2
    hits = 0
    n = 0
    for c in range(n_chains):
        for state in gibbs_sample(params, V, steps, burn_in, seed, c):
            n += 1
            if predicate(state):
                hits += 1
    if n == 0:
        return 0.0, 1.0
    p_hat = hits / n
    if hits == 0:
        return 0.0, 3.0 / n
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / n)
