"""Gibbs sampling of the interacting gas and the splitting identity.

The Hamiltonian is the ordered-pair interaction plus an N-weighted potential,

    H_N(X) = sum_{i != j} g(x_i - x_j) + N sum_i V(x_i),

and the Gibbs measure is (1/Z) exp(-beta H_N) with beta = N^{-gamma}.
``RegimeParams`` alone decides the regime, against gamma* = 1 - 2 lambda
exactly, and ``speed_exponents`` gives the decay-speed exponents.
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
Chains are deterministic given (seed, chain index). Several chains step in
lockstep, one kernel call per block for all of them, but each keeps its own
random stream, draw order and proposal scale, so its trajectory is the same
bit for bit whether it runs alone or beside others. ``ball_scores`` tests a
whole stack of snapshots against a ball at once.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.random import default_rng

from . import kernels
from .coulomb import energy_offdiag, potential_at_points
from .grids import AtomicMeasure, Box, GridMeasure, bl_distance


@dataclass(frozen=True)
class RegimeParams:
    """Scaling exponents of one experiment: temperature and window scale.

    beta = N^{-gamma}. In a window of side N^{-lambda} the entropy cost of a
    deviation scales as its particle count N^{1-lambda d}, the energy cost
    as beta N^{2-(d+2)lambda} = N^{2-gamma-(d+2)lambda}; they balance on
    gamma* = 1 - 2 lambda. ``regime`` names the term that wins: "entropy"
    for gamma > gamma* (the hot, supercritical side), "energy" below it,
    "critical" on it. gamma and lambda, as written (int, float, Fraction or
    a string such as "9/10"), are compared in exact rational arithmetic,
    then stored as floats. ``speed_super`` is the entropy speed;
    ``speed_sub`` is N^{2-(d+2)lambda}, the energy speed without beta.
    Values outside the theorem's hypothesis ranges are allowed but warn.
    """

    N: int
    gamma: float
    lam: float
    R: float = 1.0
    d: int = 3
    regime: str = field(init=False)

    def __post_init__(self):
        gamma, lam = Fraction(self.gamma), Fraction(self.lam)
        star = 1 - 2 * lam
        regime = ("entropy" if gamma > star else
                  "energy" if gamma < star else "critical")
        object.__setattr__(self, "gamma", float(gamma))
        object.__setattr__(self, "lam", float(lam))
        object.__setattr__(self, "regime", regime)
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
        for text in self.hypothesis_warnings:
            warnings.warn(text)

    @property
    def hypothesis_warnings(self) -> list[str]:
        """The texts of the warnings this regime raised when it was made,
        one per value outside the theorem's hypothesis ranges."""
        lo = (self.d - 2) / self.d
        hi = 1.0 / (self.d * (self.d + 2))
        texts = []
        if not lo < self.gamma < 1:
            texts.append(f"gamma={self.gamma} outside the hypothesis range "
                         f"({lo:.4g}, 1); exploratory run")
        if self.lam == 0 or self.lam >= hi:
            texts.append(f"lambda={self.lam} outside the hypothesis range "
                         f"(0, {hi:.4g}); exploratory run")
        return texts

    @property
    def beta(self) -> float:
        return float(self.N) ** (-self.gamma)

    @property
    def speed_sub(self) -> float:
        return float(self.N) ** speed_exponents(self.lam, self.d)[1]

    @property
    def speed_super(self) -> float:
        return float(self.N) ** speed_exponents(self.lam, self.d)[0]

    @property
    def window(self) -> Box:
        return Box.cube(np.zeros(self.d), self.R)


def speed_exponents(lam: float, d: int) -> tuple[float, float]:
    """Exponents of the entropy speed and of ``speed_sub``, in that order;
    a sweep's regression calls them "super" and "sub"."""
    return 1.0 - lam * d, 2.0 - (d + 2) * lam


def hamiltonian(X: np.ndarray, V, N: int) -> float:
    """Ordered-pair interaction energy plus N-weighted confinement.

    Coincident points give +inf (the kernel diverges on the diagonal).
    """
    pts = np.ascontiguousarray(np.atleast_2d(X), dtype=float)
    pair = kernels.pairwise_g_sum(pts, pts.shape[1])
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

    h_at = potential_at_points(mu, pts)
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
    # integers(0, 1) draws nothing from the stream, so at N = 1 the zeros
    # it would return leave the draw order as it is
    sites = (rng.integers(0, N, size=n_props) if N > 1
             else np.zeros(n_props, dtype=np.int64))
    normals = rng.standard_normal((n_props, d))
    unifs = rng.random(n_props)
    return sites, normals, unifs


# Draws of a chain's start before gibbs_sample gives up. An N = 8 start at
# scale 0.64 lies in a table of half width 1 with probability about 0.05.
START_DRAWS = 1000


def gibbs_sample(params: RegimeParams, V, steps: int, burn_in: int,
                 seed: int, chain_index: int | Sequence[int] = 0
                 ) -> list[ChainState] | list[list[ChainState]]:
    """Metropolis chains for (1/Z) exp(-beta H_N); returns thinned snapshots.

    Each chain starts from a centred Gaussian draw, drawn again while its
    energy is infinite (a point off a tabulated potential's box), at most
    START_DRAWS times. Proposals are single-site Gaussian moves. During
    burn-in each chain's scale is retuned every window toward 35%
    acceptance, then frozen. One sample is recorded every N proposals
    after burn-in. Each chain draws from its own RNG stream, derived from
    (seed, chain_index), so trajectories are reproducible and chains with
    different indices are independent.

    `chain_index` is one index, whose snapshot list is returned, or a
    sequence of indices, whose chains step in lockstep through one kernel
    call per block and come back as one snapshot list each. A chain's
    snapshots are the same bit for bit whichever chains run beside it.
    """
    if not steps > burn_in >= 0:
        raise ValueError("need steps > burn_in >= 0")
    many = not isinstance(chain_index, numbers.Integral)
    indices = list(chain_index) if many else [chain_index]
    if not indices:
        raise ValueError("need at least one chain")
    N, d, beta = params.N, params.d, params.beta
    C = len(indices)
    rngs = [default_rng((seed, c)) for c in indices]

    quadratic = getattr(V, "kind", None) == "quadratic"
    vcoef, general_v = (float(V.coef), None) if quadratic else (0.0, V)
    if getattr(V, "kind", None) == "tabulated":
        # V is +inf off its table's box, so such proposals are rejected and
        # such starts drawn again
        general_v = lambda p: V.table.density_at(p, fill=np.inf)
    init_scale = 1.0 / math.sqrt(2.0 * max(N * beta, 1e-12))
    if quadratic:
        init_scale /= math.sqrt(V.coef)
    init_scale = max(init_scale, 1e-3)
    x = np.empty((C, N, d))
    ham = np.empty(C)
    for c, rng in enumerate(rngs):
        for _ in range(START_DRAWS):
            x[c] = rng.standard_normal((N, d)) * init_scale
            ham[c] = hamiltonian(x[c], general_v or V, N)
            if math.isfinite(ham[c]):
                break
        else:
            raise ValueError(f"no start of finite energy in {START_DRAWS} "
                             f"draws at scale {init_scale:.3g}")

    scale = [0.5 / max(N * beta, 1.0) ** 0.5] * C
    accepted_total = np.zeros(C, dtype=np.int64)
    step = 0
    out: list[list[ChainState]] = [[] for _ in indices]
    tune_window = max(50, 10 * N)

    def run(n_props):
        # each chain draws its block from its own stream; rows step-major
        sites = np.empty((n_props, C), dtype=np.int64)
        normals = np.empty((n_props, C, d))
        unifs = np.empty((n_props, C))
        for c, rng in enumerate(rngs):
            sites[:, c], normals[:, c], unifs[:, c] = _propose_batch(
                rng, n_props, N, d)
        _, ham[:], acc = kernels.run_chain_quadratic(
            x, np.array(scale), beta, float(N), vcoef, d,
            normals.reshape(n_props * C, d), unifs.reshape(-1),
            sites.reshape(-1), ham, V=general_v)
        return acc

    # burn-in with scale tuning
    done = 0
    while done < burn_in:
        n = min(tune_window, burn_in - done)
        acc = run(n)
        accepted_total += acc
        done += n
        step += n
        for c in range(C):
            rate = int(acc[c]) / n
            scale[c] *= math.exp(1.2 * (rate - 0.35))
            scale[c] = min(max(scale[c], 1e-6), 1e3)

    # sampling with frozen scale
    since_check = 0
    remaining = steps - burn_in
    while remaining > 0:
        n = min(N, remaining)
        accepted_total += run(n)
        step += n
        remaining -= n
        since_check += 1
        if since_check >= 25:
            since_check = 0
            for c in range(C):
                exact = hamiltonian(x[c], V, N)
                if abs(exact - ham[c]) > 1e-8 * max(1.0, abs(exact)):
                    warnings.warn("hamiltonian drift "
                                  f"{abs(exact - ham[c]):.2e}; resynced")
                ham[c] = exact
        for c in range(C):
            out[c].append(ChainState(points=x[c].copy(),
                                     hamiltonian=float(ham[c]), step=step,
                                     accepted=int(accepted_total[c]),
                                     stream_id=(seed, indices[c]),
                                     proposal_scale=scale[c]))
    return out if many else out[0]


def local_empirical_field(X: np.ndarray, params: RegimeParams) -> AtomicMeasure:
    """Empirical measure dilated by N^lambda and restricted to the window.

    Atoms N^lambda x_i are kept iff strictly inside the cube of half-width
    R; each carries weight N^{lambda d - 1}.
    """
    pts = np.atleast_2d(np.asarray(X, dtype=float)) * float(params.N) ** params.lam
    keep = params.window.contains(pts)
    weight = float(params.N) ** (params.lam * params.d - 1.0)
    return AtomicMeasure(points=pts[keep].copy(), weight=weight)


def ball_scores(fields: Sequence[AtomicMeasure], mu: GridMeasure, k: float,
                params: RegimeParams, kind: str = "energy") -> np.ndarray:
    """Distance of each local field from mu in the ball's own sense.

    kind="energy": |E_offdiag(mu - nu)|, or +inf when an atom lies within
    k N^{-1/d} of the window boundary; one ``energy_offdiag`` call scores
    every field that stays inside. kind="bl": the bounded-Lipschitz
    distance, with no support shrinkage (the two ball notions are kept
    separate deliberately).
    """
    if kind == "bl":
        return np.array([bl_distance(nu, mu) for nu in fields], dtype=float)
    if kind != "energy":
        raise ValueError("ball kind must be 'energy' or 'bl'")
    scores = np.full(len(fields), np.inf)
    shrink = params.R - k * float(params.N) ** (-1.0 / params.d)
    if shrink <= 0:
        return scores
    inner = Box.cube(np.zeros(params.d), shrink)
    inside = [j for j, nu in enumerate(fields)
              if not nu.count or np.all(inner.contains(nu.points))]
    if inside:
        gaps = energy_offdiag(
            [AtomicMeasure(fields[j].points, -fields[j].weight)
             for j in inside], mu)
        scores[inside] = np.abs(gaps)
    return scores


def binomial_estimate(hits: Sequence[bool]) -> tuple[float, float]:
    """Hit fraction of a sample and its binomial standard error.

    A zero-hit estimate reports the one-sided rule-of-three bound 3/n as its
    error bar; an empty sample gives (0, 1).
    """
    n = len(hits)
    if n == 0:
        return 0.0, 1.0
    count = int(np.count_nonzero(hits))
    if count == 0:
        return 0.0, 3.0 / n
    p_hat = count / n
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / n)


def estimate_event_probability(params: RegimeParams, V, predicate,
                               n_chains: int, seed: int) -> tuple[float, float]:
    """Fraction of thinned post-burn-in samples where predicate(state) holds.

    Each chain makes 200 N proposals, the first half of them burn-in. All
    chains run in lockstep in one ``gibbs_sample`` call; the estimate and
    its error bar come from ``binomial_estimate``.
    """
    steps = 200 * params.N
    runs = gibbs_sample(params, V, steps, steps // 2, seed, range(n_chains))
    return binomial_estimate([bool(predicate(state))
                              for states in runs for state in states])
