"""Configuration-driven command line for the mesoscopic gas laboratory.

One JSON document drives every subcommand; all randomness descends from a
single master seed so runs are reproducible bit for bit. Subcommands map
one-to-one onto the package's responsibilities:

* ``verify``      run the invariant registry, write a machine-readable
                  report, exit nonzero if any check fails;
* ``sample``      run Metropolis chains and write them as JSONL;
* ``equilibrium`` solve the zero-temperature and thermal problems;
* ``rate``        evaluate a rate functional on the configured measure;
* ``construct``   generate and certify a well-separated configuration;
* ``sweep``       grid of (N, gamma, lambda): estimate the probability of
                  the configured ball event, evaluate the matching rate
                  functional, emit CSV plus a decay-speed regression.

A sweep row has two independent stages, each needing only the row's
target: the ball stage runs the chains and scores their snapshots, the
rate stage evaluates the rate functional (for T, after its thermal solve).
The sweep runs them as 2R tasks, every ball stage in row order and then
every rate stage, on W workers: one per CPU the caller may run on
(``os.sched_getaffinity``), at most one per task. The calling process is
worker 0 and forked helpers are the others. Worker w runs task w first;
then each worker takes the next task no worker has taken, from one shared
counter, until none is left. With one worker, or where "fork" is not
available, no process is started. A stage's numbers do not depend on the
process that ran it, so ``sweep.csv`` and ``sweep_regression.json`` are
the same for any worker count, and stderr reports each row in row order.
A failed stage leaves NaN in its own columns and its text in ``error``
(both texts, ball first and joined by "; ", when both fail); a row whose
p_hat is 0 or 1 gets a note that it measured no large deviation.
``sweep_timing.json`` records the worker count, the wall time, per row the
pid and seconds of each stage (``ball_pid``, ``ball_s``, ``rate_pid``,
``rate_s``; null for a stage that failed), and under ``tasks``, in start
order, each task's row index, stage, pid, start offset and seconds.

``verify``, ``rate`` and ``construct`` record every distinct warning their
work raised under ``"warnings"`` in their JSON report, and print each one
to stderr once.

Importing this module loads numpy, ``scipy.fft`` and ``scipy.special``
(which ``scipy.fft`` loads itself). ``load_config`` adds the LP stack of
``grids.bl_distance``, scipy's HiGHS binding and ``cdist``, only for a
config that asks for a BL LP; the binding's package, ``scipy.optimize``,
brings ``scipy.sparse``, ``scipy.linalg`` and ``scipy.spatial`` with it. A
run that solves no BL LP, such as an energy-ball sweep, never loads them.

Exit codes: 0 success, 1 invariant failure, 2 invalid configuration.
Every count of the config, and the seed from the config or ``--seed``, is
a whole number >= 0: 8.5 is an error, not 8, and so is a negative seed.
The configuration is read once: each (N, gamma, lambda) of the grid becomes
a ``RegimeParams``, the window and its truncated exterior an
``ExteriorDomain`` and the construction section a ``ConstructionParams``,
so their own validity rules decide what is a configuration error and their
warnings flag values outside the hypothesis ranges of the scaling theory.
A sweep row's ``regime`` is the one its ``RegimeParams`` decided.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .construction import ConstructionParams, construct
from .equilibrium import Potential, solve_equilibrium, solve_thermal
from .grids import (AtomicMeasure, Box, GridMeasure, _lp_stack, bl_distance,
                    mass)
from .rates import ExteriorDomain, n_rate, phi_rate, t_rate
from .sampler import (RegimeParams, ball_scores, binomial_estimate,
                      chain_to_jsonl, gibbs_sample, local_empirical_field,
                      speed_exponents)

SWEEP_COLUMNS = ["N", "gamma", "lambda", "regime", "ball_type", "epsilon",
                 "k", "p_hat", "stderr", "acceptance", "rate_value",
                 "speed_sub", "speed_super", "error"]


class ConfigError(ValueError):
    """Raised for mathematically invalid configuration input."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _as_list(x):
    if x is None:
        return []
    return list(x) if isinstance(x, (list, tuple)) else [x]


def _count(value, name: str) -> int:
    """A config count or seed: a whole number >= 0, never 8.5 read as 8."""
    number = int(value)
    if isinstance(value, float) and value != number or number < 0:
        raise ConfigError(f"{name}={value!r}: expected a whole number >= 0")
    return number


@dataclass
class ExperimentConfig:
    """Validated view of the single JSON configuration document.

    ``regimes`` is the (N, gamma, lambda) product of the grid, one
    ``RegimeParams`` each, classified from gamma and lambda as written (so
    "9/10" stays exact); it is empty when the config has no grid.
    ``domain`` is the window cube of half-width R (``domain.interior``)
    with its truncated exterior, built from ``solver.window_cells`` and
    ``solver.exterior_factor``.
    """

    d: int = 3
    potential: Potential = field(default_factory=Potential)
    regimes: list[RegimeParams] = field(default_factory=list)
    R: float = 1.0
    ball_type: str = "bl"
    ball_epsilon: float = 0.5
    ball_k: float = 1.0
    target_kind: str = "uniform"
    target_value: float | None = None
    cells_per_axis: int = 32
    window_cells: int = 8
    domain: ExteriorDomain | None = None
    solver_tol: float = 1e-9
    chains: int = 16
    steps: int | None = None
    burn_in: int | None = None
    construction: ConstructionParams | None = None
    volume_trials: int = 4
    rate_functional: str = "n"
    seed: int = 20240817

    @staticmethod
    def from_json(obj: dict) -> "ExperimentConfig":
        """Parse and validate; every rejected value raises ConfigError."""
        try:
            return ExperimentConfig._parse(obj)
        except (ValueError, TypeError, OverflowError) as exc:  # ConfigError too
            raise ConfigError(str(exc)) from exc

    @staticmethod
    def _parse(obj: dict) -> "ExperimentConfig":
        cfg = ExperimentConfig()
        cfg.d = _count(obj.get("d", 3), "d")
        if cfg.d < 3:
            raise ConfigError(f"d={cfg.d}: the kernel |x|^(2-d) needs d >= 3")
        pot = obj.get("potential", {})
        cfg.potential = Potential(kind=pot.get("kind", "quadratic"),
                                  coef=float(pot.get("coef", 1.0)))
        cfg.R = float(obj.get("R", 1.0))
        if cfg.R <= 0:
            raise ConfigError("window half-width R must be positive")
        grid = obj.get("grid", {})
        axes = [_as_list(grid.get(key)) for key in ("N", "gamma", "lambda")]
        if any(axes) and not all(axes):
            raise ConfigError("grid must provide N, gamma, and lambda")
        cfg.regimes = [RegimeParams(N=_count(N, "grid N"), gamma=gamma,
                                    lam=lam, R=cfg.R, d=cfg.d)
                       for N, gamma, lam in itertools.product(*axes)]
        ball = obj.get("ball", {})
        cfg.ball_type = ball.get("type", "bl")
        if cfg.ball_type not in ("bl", "energy"):
            raise ConfigError(f"unknown ball type {cfg.ball_type!r}")
        cfg.ball_epsilon = float(ball.get("epsilon", 0.5))
        cfg.ball_k = float(ball.get("k", 1.0))
        if cfg.ball_epsilon <= 0:
            raise ConfigError("ball radius epsilon must be positive")
        target = obj.get("target", {})
        cfg.target_kind = target.get("kind", "uniform")
        if cfg.target_kind not in ("uniform", "ball"):
            raise ConfigError(f"unknown target kind {cfg.target_kind!r}")
        tv = target.get("value")
        cfg.target_value = None if tv is None else float(tv)
        solver = obj.get("solver", {})
        cfg.cells_per_axis = _count(solver.get("cells_per_axis", 32),
                                    "cells_per_axis")
        cfg.window_cells = _count(solver.get("window_cells", 8),
                                  "window_cells")
        cfg.solver_tol = float(solver.get("tol", 1e-9))
        if cfg.cells_per_axis < 4 or cfg.window_cells < 2:
            raise ConfigError("grids need at least a handful of cells")
        cfg.domain = ExteriorDomain.build(
            Box.cube(np.zeros(cfg.d), cfg.R), cfg.window_cells,
            factor=_count(solver.get("exterior_factor", 4), "exterior_factor"))
        sampler = obj.get("sampler", {})
        cfg.chains = _count(sampler.get("chains", 16), "chains")
        steps, burn_in = sampler.get("steps"), sampler.get("burn_in")
        cfg.steps = None if steps is None else _count(steps, "steps")
        cfg.burn_in = None if burn_in is None else _count(burn_in, "burn_in")
        n_steps = math.inf if cfg.steps is None else cfg.steps
        if cfg.chains < 1 or not n_steps > (cfg.burn_in or 0) >= 0:
            raise ConfigError("sampler needs chains >= 1 and "
                              "steps > burn_in >= 0")
        c = obj.get("construction", {})
        quantile = c.get("truncate_quantile")
        box = Box.cube(np.zeros(cfg.d), float(c.get("half_width", 1.0)))
        cfg.construction = ConstructionParams(
            target=GridMeasure.uniform(
                box, _count(c.get("target_cells", 16), "target_cells"),
                1.0 / box.volume),
            N=_count(c.get("N", 256), "construction N"),
            cube_size=float(c.get("cube_size", 0.5)),
            separation=float(c.get("separation", 0.2)),
            truncate_quantile=None if quantile is None else float(quantile))
        cfg.volume_trials = _count(c.get("volume_trials", 4), "volume_trials")
        cfg.rate_functional = obj.get("rate", {}).get("functional", "n")
        if cfg.rate_functional not in ("n", "phi", "t"):
            raise ConfigError(f"unknown rate functional {cfg.rate_functional!r}")
        cfg.seed = _count(obj.get("seed", 20240817), "seed")
        return cfg

    # -- derived objects ----------------------------------------------------

    def mu_v_density(self) -> float:
        """Density of the quadratic-potential equilibrium measure at 0."""
        return self.potential.equilibrium_density(self.d)

    def target_measure(self, N: int | None = None,
                       lam: float | None = None) -> GridMeasure:
        """Deviation target on the window grid.

        kind "uniform" fills the whole window cube at the target value.
        kind "ball" fills only the dilated equilibrium support (radius
        r_V N^lambda), so the target tracks where the blown-up gas actually
        lives; it therefore needs N and lambda.
        """
        value = self.target_value
        if value is None:
            value = self.mu_v_density()
        win = self.domain.interior
        if self.target_kind == "uniform":
            return GridMeasure.uniform(win, self.window_cells, value)
        if N is None or lam is None:
            raise ConfigError("the ball target is the dilated equilibrium "
                              "support and needs N and lambda")
        radius = self.potential.equilibrium_radius(self.d) \
            * float(N) ** float(lam)
        return GridMeasure.from_function(
            win, self.window_cells,
            lambda p: np.where(np.linalg.norm(p, axis=1) < radius, value, 0.0))


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = ExperimentConfig.from_json(obj)
    # a config that asks for a BL LP loads the solver now, so that start-up
    # pays for the import and forked sweep helpers inherit it
    if cfg.ball_type == "bl" or "construction" in obj:
        _lp_stack()
    return cfg


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check(name, residual, tolerance):
    return {"name": name, "passed": bool(residual <= tolerance),
            "residual": float(residual), "tolerance": float(tolerance)}


def _verify_checks(cfg: ExperimentConfig) -> list[dict]:
    from . import kernels
    from .coulomb import (SmearKind, energy, g_radial, shell_self_energy,
                          shell_shell_interaction)
    from .equilibrium import blowup
    from .grids import dilate
    from .rates import kappa_minimizer
    from .sampler import hamiltonian, splitting_decompose

    d = cfg.d
    rng = np.random.default_rng(cfg.seed)
    checks = []

    # analytic smearing identities (exact)
    R = 0.7
    lhs = shell_self_energy(R, d)
    rhs = g_radial(R, d) * shell_self_energy(1.0, d) * 1.0 ** (d - 2)
    checks.append(_check("smearing-sphere-scaling",
                         abs(lhs - rhs) / abs(rhs), 1e-12))
    worst = 0.0
    for _ in range(20):
        ra, rb = rng.uniform(0.05, 0.3, size=2)
        s = ra + rb + rng.uniform(0.01, 1.0)
        got = shell_shell_interaction(s, ra, rb, d)
        worst = max(worst, abs(got - g_radial(s, d)) / abs(g_radial(s, d)))
    checks.append(_check("smearing-newton-exterior", worst, 1e-10))

    # offdiagonal smeared evaluation equals the raw pair sum when the
    # smearing radius stays below the minimum separation
    worst = 0.0
    for _ in range(10):
        pts = rng.uniform(-1.0, 1.0, size=(12, d))
        dmin = kernels.min_pairwise_distance(np.ascontiguousarray(pts))
        atoms = AtomicMeasure(points=pts, weight=1.0 / 12)
        eps = 0.49 * dmin
        smeared = energy(atoms, SmearKind("sphere", eps))
        raw = atoms.weight ** 2 * kernels.pairwise_g_sum(
            np.ascontiguousarray(pts), float(d))
        corr = 12 * atoms.weight ** 2 * shell_self_energy(eps, d)
        worst = max(worst, abs(smeared - corr - raw) / max(abs(raw), 1e-12))
    checks.append(_check("smearing-offdiag-equality", worst, 1e-6))

    # lattice dilation scaling of the energy (exact cellwise identity)
    box = Box.cube(np.zeros(d), 1.0)
    mu = GridMeasure.from_function(
        box, 8, lambda p: 1.0 + 0.3 * np.cos(p).prod(axis=1))
    e1 = energy(mu)
    worst = 0.0
    for x in (0.5, 2.0):
        ex = energy(dilate(mu, x))
        worst = max(worst, abs(ex - x ** (d + 2) * e1) / abs(ex))
    checks.append(_check("energy-dilation-scaling", worst, 1e-10))

    # equilibrium solver against the analytic uniform ball (grid-sensitive)
    eq = solve_equilibrium(cfg.potential, Box.cube(np.zeros(d), 1.3),
                           cfg.cells_per_axis, tol=1e-5)
    dens = eq.measure.density
    centers = eq.measure.cell_centers()
    r_eq = cfg.potential.equilibrium_radius(d)
    inner = np.linalg.norm(centers, axis=1) < 0.8 * r_eq
    target = cfg.mu_v_density()
    dev = np.max(np.abs(dens.ravel()[inner] - target)) / target
    checks.append(_check("equilibrium-vs-analytic", dev, 3e-2))
    checks.append(_check("equilibrium-el-residual", eq.el_residual, 1e-3))

    # thermal solver and splitting identity
    first = cfg.regimes[0] if cfg.regimes else None
    N0 = 16
    gamma0 = first.gamma if first else 0.9
    beta0 = float(N0) ** (-gamma0)
    th = solve_thermal(cfg.potential, N0, beta0, d=d,
                       cells_per_axis=cfg.cells_per_axis, tol=1e-10)
    checks.append(_check("thermal-el-residual", th.el_residual, 1e-6))
    worst = 0.0
    worst_rw = 0.0
    for _ in range(5):
        X = rng.normal(scale=0.5, size=(N0, d))
        H = hamiltonian(X, cfg.potential, N0)
        main, zs, fl = splitting_decompose(X, th, N0, beta0)
        worst = max(worst, abs(H - (main + zs + fl)) / abs(H))
        lhs = -beta0 * H + beta0 * main
        rhs = -beta0 * fl + th.log_density_smooth(X).sum()
        worst_rw = max(worst_rw, abs(lhs - rhs) / max(abs(lhs), 1.0))
    checks.append(_check("splitting-identity", worst, 1e-6))
    checks.append(_check("next-order-rewrite", worst_rw, 1e-6))

    # closed-form kappa against the entropic minimizer it solves
    lam0 = first.lam if first and first.lam > 0.0 else 0.05
    params0 = RegimeParams(N=256, gamma=gamma0, lam=lam0, R=cfg.R, d=d)
    domain = cfg.domain
    window = domain.interior
    w_blow = blowup(th, 256, lam0)
    mu_win = GridMeasure.uniform(window, cfg.window_cells,
                                 0.5 * cfg.mu_v_density())
    kap, kmin, kval = kappa_minimizer(mass(mu_win), w_blow, domain)
    rep = t_rate(mu_win, params0, th, domain, include_energy=False,
                 tol=1e-10, max_iter=4000)
    checks.append(_check("kappa-closed-form",
                         abs(kval - rep.value) / max(abs(kval), 1e-9), 1e-6))

    # rate-function basics
    alpha = cfg.mu_v_density()
    v_zero = n_rate(GridMeasure.uniform(window, cfg.window_cells, alpha),
                    alpha)
    checks.append(_check("n-rate-zero-at-reference", abs(v_zero), 1e-12))
    mu2 = GridMeasure.uniform(window, cfg.window_cells, 2 * alpha)
    expect = 2 * alpha * math.log(2.0) * window.volume - alpha * window.volume
    checks.append(_check("n-rate-closed-form",
                         abs(n_rate(mu2, alpha) - expect) / abs(expect), 1e-12))
    rep0 = phi_rate(GridMeasure.uniform(window, cfg.window_cells, alpha),
                    alpha, domain, tol=1e-9)
    checks.append(_check("phi-zero-at-background", abs(rep0.value), 1e-8))

    # construction separation (exact constraint on a small run)
    from .construction import (CubeTiling, assign_counts, place_points,
                               separation_radius)
    box1 = Box.cube(np.zeros(d), 1.0)
    nu1 = GridMeasure.uniform(box1, 8, 1.0 / box1.volume)
    counts = assign_counts(nu1, 27, 0.5)
    tiling = CubeTiling.build(box1, 0.5)
    cfg_pts = place_points(counts, tiling, 0.2, seed=cfg.seed)
    tau = separation_radius(counts, 0.5, 0.2, d)
    dmin = kernels.min_pairwise_distance(
        np.ascontiguousarray(cfg_pts.points))
    checks.append(_check("construction-separation",
                         max(0.0, (tau - dmin) / tau), 0.0))

    # BL metric on a two-atom instance: distance min(t, 2) exactly
    t_sep = 0.6
    a = AtomicMeasure(points=np.zeros((1, d)), weight=1.0)
    b_pts = np.zeros((1, d)); b_pts[0, 0] = t_sep
    b = AtomicMeasure(points=b_pts, weight=1.0)
    checks.append(_check("bl-two-atoms",
                         abs(bl_distance(a, b) - min(t_sep, 2.0)), 1e-7))
    return checks


def _messages(caught) -> list[str]:
    # distinct warning texts, in the order first raised
    return list(dict.fromkeys(str(w.message) for w in caught))


def _recording_warnings(work):
    """Run `work()` and return its result with the distinct texts of the
    warnings it raised, each printed to stderr once, also when it fails."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            return work(), _messages(caught)
        finally:
            for msg in _messages(caught):
                print(f"warning: {msg}", file=sys.stderr)


def run_verify(cfg: ExperimentConfig, out_dir: Path) -> int:
    checks, messages = _recording_warnings(lambda: _verify_checks(cfg))
    passed = all(c["passed"] for c in checks)
    report = {"checks": checks, "passed": passed, "warnings": messages,
              "seed": cfg.seed, "cells_per_axis": cfg.cells_per_axis}
    text = json.dumps(report, sort_keys=True, indent=2)
    (out_dir / "verify.json").write_text(text + "\n")
    for c in checks:
        flag = "PASS" if c["passed"] else "FAIL"
        print(f"{flag} {c['name']}: residual {c['residual']:.3e} "
              f"(tol {c['tolerance']:.1e})")
    print(f"verify: {'all checks passed' if passed else 'FAILURES present'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# sample / equilibrium / rate / construct
# ---------------------------------------------------------------------------

def _first_regime(cfg: ExperimentConfig) -> RegimeParams:
    if not cfg.regimes:
        raise ConfigError("grid must provide N, gamma, and lambda")
    return cfg.regimes[0]


def _run_chains(cfg: ExperimentConfig, params: RegimeParams):
    """Every configured chain of one regime, stepped in lockstep.

    Returns the proposals per chain and the burn-in (by default 200 N and
    half of it) with one snapshot list per chain.
    """
    steps = cfg.steps or 200 * params.N
    burn = cfg.burn_in if cfg.burn_in is not None else steps // 2
    return steps, burn, gibbs_sample(params, cfg.potential, steps, burn,
                                     cfg.seed, chain_index=range(cfg.chains))


def run_sample(cfg: ExperimentConfig, out_dir: Path) -> int:
    params = _first_regime(cfg)
    steps, burn, runs = _run_chains(cfg, params)
    summary = []
    for c, states in enumerate(runs):
        path = out_dir / f"chain_{c:03d}.jsonl"
        path.write_text(chain_to_jsonl(states))
        summary.append({"chain": c, "snapshots": len(states),
                        "acceptance_rate": states[-1].acceptance_rate,
                        "final_hamiltonian": states[-1].hamiltonian})
    (out_dir / "sample_summary.json").write_text(
        json.dumps({"params": {"N": params.N, "gamma": params.gamma,
                               "lambda": params.lam, "beta": params.beta},
                    "steps": steps, "burn_in": burn, "chains": summary},
                   sort_keys=True, indent=2) + "\n")
    print(f"wrote {cfg.chains} chains ({steps} proposals each) to {out_dir}")
    return 0


def run_equilibrium(cfg: ExperimentConfig, out_dir: Path) -> int:
    r_eq = cfg.potential.equilibrium_radius(cfg.d)
    eq = solve_equilibrium(cfg.potential,
                           Box.cube(np.zeros(cfg.d), 1.3 * r_eq),
                           cfg.cells_per_axis, tol=max(cfg.solver_tol, 1e-6))
    (out_dir / "equilibrium.json").write_text(
        json.dumps(eq.to_json(), sort_keys=True) + "\n")
    print(f"equilibrium: k={eq.k:.6f} el_residual={eq.el_residual:.3e} "
          f"converged={eq.converged}")
    if cfg.regimes:
        params = cfg.regimes[0]
        th = solve_thermal(cfg.potential, params.N, params.beta, d=cfg.d,
                           cells_per_axis=cfg.cells_per_axis,
                           tol=cfg.solver_tol)
        (out_dir / "thermal.json").write_text(
            json.dumps(th.to_json(), sort_keys=True) + "\n")
        print(f"thermal (N={params.N}, beta={params.beta:.4g}): "
              f"k={th.k:.6f} el_residual={th.el_residual:.3e}")
    return 0


def _rate_for(cfg: ExperimentConfig, params: RegimeParams, mu: GridMeasure):
    alpha = cfg.mu_v_density()
    if cfg.rate_functional == "n":
        return n_rate(mu, alpha), None
    if cfg.rate_functional == "phi":
        rep = phi_rate(mu, alpha, cfg.domain, tol=1e-8)
        return rep.value, rep
    thermal = solve_thermal(cfg.potential, params.N, params.beta, d=cfg.d,
                            cells_per_axis=cfg.cells_per_axis,
                            tol=cfg.solver_tol)
    rep = t_rate(mu, params, thermal, cfg.domain, tol=1e-7)
    return rep.value, rep


def run_rate(cfg: ExperimentConfig, out_dir: Path) -> int:
    params = _first_regime(cfg)
    mu = cfg.target_measure(params.N, params.lam)
    try:
        (value, rep), messages = _recording_warnings(
            lambda: _rate_for(cfg, params, mu))
    except ValueError as exc:  # e.g. a T target the thermal gas cannot reach
        raise ConfigError(f"infeasible rate target: {exc}") from exc
    payload = rep.to_json() if rep is not None else {
        "functional": "N", "value": value, "minimizer": None,
        "iterations": 0, "kkt_residual": 0.0, "mass_error": 0.0}
    payload["warnings"] = messages
    name = {"n": "N", "phi": "Phi", "t": "T"}[cfg.rate_functional]
    (out_dir / f"rate_{cfg.rate_functional}.json").write_text(
        json.dumps(payload, sort_keys=True) + "\n")
    print(f"{name} rate at the configured target: {value:.6f}")
    return 0


def run_construct(cfg: ExperimentConfig, out_dir: Path) -> int:
    params = cfg.construction
    report, messages = _recording_warnings(lambda: construct(
        params, seed=cfg.seed, volume_trials=cfg.volume_trials))
    (out_dir / "construction.json").write_text(json.dumps(
        {**report.to_json(), "warnings": messages}, sort_keys=True) + "\n")
    print(f"construction: N={params.N} min_sep={report.min_separation:.4f} "
          f"(tau_min {report.tau_min:.4f}) bl={report.bl_to_target:.4f} "
          f"energy_gap={report.energy_gap:.5f} ok={report.separation_ok}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _ball_estimate(cfg: ExperimentConfig, params: RegimeParams,
                   mu: GridMeasure) -> tuple[float, float, float]:
    """Probability of the configured ball around mu, its standard error and
    the mean final acceptance rate, from one lockstep run of the chains
    whose snapshots are all scored against the ball in one call."""
    _, _, runs = _run_chains(cfg, params)
    fields = [local_empirical_field(state.points, params)
              for states in runs for state in states]
    scores = ball_scores(fields, mu, cfg.ball_k, params, kind=cfg.ball_type)
    acceptance = float(np.mean([states[-1].acceptance_rate
                                for states in runs]))
    return (*binomial_estimate(scores < cfg.ball_epsilon), acceptance)


SWEEP_STAGES = ("ball", "rate")


class _StageResult(NamedTuple):
    values: dict          # the columns the stage fills; empty if it failed
    error: str | None     # the failure text, None if the stage completed
    messages: list        # distinct warning messages, in the order raised
    start: float          # time.perf_counter() when the stage began
    seconds: float
    pid: int


def _sweep_task(cfg: ExperimentConfig, params: RegimeParams,
                stage: str) -> _StageResult:
    """One stage of one sweep row: the "ball" stage estimates the ball
    probability (p_hat, stderr, acceptance), the "rate" stage evaluates the
    rate functional (rate_value). Each needs only the row's target, so the
    two run independently. The stage draws only from its row's
    (seed, chain index) streams, so its values do not depend on which
    process runs it.
    """
    start = time.perf_counter()
    values, error = {}, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            mu = cfg.target_measure(params.N, params.lam)
            if stage == "ball":
                values = dict(zip(("p_hat", "stderr", "acceptance"),
                                  _ball_estimate(cfg, params, mu)))
            else:
                values = {"rate_value": _rate_for(cfg, params, mu)[0]}
        except Exception as exc:  # keep sweeping; the row records NaN
            error = str(exc) or type(exc).__name__
    return _StageResult(values, error, _messages(caught), start,
                        time.perf_counter() - start, os.getpid())


def _drain_tasks(cfg: ExperimentConfig, tasks: list, first: int,
                 counter) -> dict:
    """Run task `first`, then the task whose index `counter` hands out
    next, until the list is exhausted; returns {index: result}."""
    done = {}
    index = first
    while index < len(tasks):
        done[index] = _sweep_task(cfg, *tasks[index])
        with counter.get_lock():
            index = counter.value
            counter.value += 1
    return done


def _sweep_workers(rows: int) -> int:
    """Processes for a sweep of `rows` rows: one per CPU this process may
    run on, at most one per task (two per row), and only the caller where
    helpers cannot be forked (there is no "fork" start method without
    os.fork)."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return max(1, min(len(SWEEP_STAGES) * rows,
                      len(os.sched_getaffinity(0))))


def _run_sweep_tasks(cfg: ExperimentConfig, tasks: list,
                     workers: int) -> list:
    """Every task's result, in task order, from `workers` processes: the
    caller and workers - 1 forked helpers. Worker w runs task w first, then
    each worker takes the next task no worker has taken yet."""
    if workers == 1:
        return [_sweep_task(cfg, *task) for task in tasks]
    # imported here, so that the other subcommands do not load it
    import multiprocessing

    # forked helpers inherit the loaded modules (no second import of numpy
    # and scipy) and their arguments, counter included, without pickling;
    # only their results travel back, through a pipe each. The caller
    # starts no thread, and OpenBLAS stops its thread pool before a fork
    # (its atfork handler). Helpers also inherit the stdio buffers, which
    # must be empty so that a helper does not write them again when it
    # exits.
    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("i", workers)
    sys.stdout.flush()
    sys.stderr.flush()
    helpers = []

    def helper(first, conn):
        conn.send(_drain_tasks(cfg, tasks, first, counter))

    try:
        for first in range(1, workers):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=helper, args=(first, writer))
            proc.start()
            writer.close()    # so a helper that dies leaves an EOF
            helpers.append((proc, reader))
        done = _drain_tasks(cfg, tasks, 0, counter)
        for proc, reader in helpers:
            try:
                done.update(reader.recv())
            except EOFError:
                raise RuntimeError(f"sweep helper {proc.pid} exited "
                                   "without its results") from None
    except BaseException:
        for proc, _ in helpers:
            proc.terminate()
        raise
    finally:
        for proc, reader in helpers:
            reader.close()
            proc.join()
    return [done[j] for j in range(len(tasks))]


def run_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    start = time.perf_counter()
    regimes = cfg.regimes
    tasks = [(params, stage) for stage in SWEEP_STAGES for params in regimes]
    workers = _sweep_workers(len(regimes))
    results = _run_sweep_tasks(cfg, tasks, workers)
    rows, timings = [], []
    for j, params in enumerate(regimes):
        row = {"N": params.N, "gamma": params.gamma, "lambda": params.lam,
               "regime": params.regime,
               "ball_type": cfg.ball_type,
               "epsilon": cfg.ball_epsilon, "k": cfg.ball_k,
               "p_hat": math.nan, "stderr": math.nan,
               "acceptance": math.nan, "rate_value": math.nan,
               "speed_sub": params.speed_sub,
               "speed_super": params.speed_super, "error": ""}
        timing = {"N": params.N, "gamma": params.gamma, "lambda": params.lam}
        errors, messages = [], []
        for s, stage in enumerate(SWEEP_STAGES):
            result = results[s * len(regimes) + j]
            row.update(result.values)
            ok = result.error is None
            timing[f"{stage}_pid"] = result.pid if ok else None
            timing[f"{stage}_s"] = result.seconds if ok else None
            errors += [] if ok else [result.error]
            messages += result.messages
        row["error"] = "; ".join(errors)
        label = f"row (N={params.N}, gamma={params.gamma}, lambda={params.lam})"
        if row["error"]:
            print(f"{label} failed: {row['error']}", file=sys.stderr)
        for msg in dict.fromkeys(messages):
            print(f"{label} warned: {msg}", file=sys.stderr)
        if row["p_hat"] in (0.0, 1.0):
            print(f"{label} note: p_hat = {row['p_hat']:g}, so the row "
                  "measured no large deviation", file=sys.stderr)
        rows.append(row)
        timings.append(timing)
    wall = time.perf_counter() - start
    order = sorted(range(len(tasks)), key=lambda t: results[t].start)
    task_log = [{"row": t % len(regimes), "stage": tasks[t][1],
                 "pid": results[t].pid, "start_s": results[t].start - start,
                 "seconds": results[t].seconds} for t in order]

    csv_path = out_dir / "sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    (out_dir / "sweep_timing.json").write_text(json.dumps(
        {"workers": workers, "wall_s": wall, "rows": timings,
         "tasks": task_log}, indent=2) + "\n")

    regression = regress_speeds(rows, cfg.d)
    (out_dir / "sweep_regression.json").write_text(
        json.dumps(regression, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(rows)} rows to {csv_path}")
    for g in regression["groups"]:
        print(f"  gamma={g['gamma']} lambda={g['lambda']}: fitted exponent "
              f"{g['exponent']:.3f} -> closer to {g['closer_to']} "
              f"(super {g['exponent_super']:.3f}, sub {g['exponent_sub']:.3f})")
    return 0


def regress_speeds(rows: list[dict], d: int) -> dict:
    """Fit the decay-speed exponent within each (gamma, lambda) group.

    The model -log p = I * N^s becomes linear as log(-log p) = log I +
    s log N; the slope is fitted by weighted least squares with binomial
    delta-method weights n p (log p)^2 / (1 - p), n recovered from the
    reported standard error. Rows with p_hat in {0, 1} or NaN carry no
    information about the exponent and are skipped. "super" is the entropy
    exponent 1 - lambda d, "sub" that of ``speed_sub`` (``speed_exponents``).
    """
    groups = []
    keys = sorted({(r["gamma"], r["lambda"]) for r in rows})
    for gamma, lam in keys:
        pts = [(r["N"], r["p_hat"], r["stderr"]) for r in rows
               if r["gamma"] == gamma and r["lambda"] == lam
               and np.isfinite(r["p_hat"]) and 0.0 < r["p_hat"] < 1.0]
        if len(pts) < 2:
            continue
        x = np.log([p[0] for p in pts])
        y = np.log([-math.log(p[1]) for p in pts])
        w = []
        for n_val, p, err in pts:
            n_eff = p * (1 - p) / err ** 2 if err > 0 else 1.0
            w.append(n_eff * p * math.log(p) ** 2 / (1.0 - p))
        w = np.asarray(w)
        A = np.stack([np.ones_like(x), x], axis=1)
        WA = A * w[:, None]
        coef, *_ = np.linalg.lstsq(WA.T @ A, WA.T @ y, rcond=None)
        slope = float(coef[1])
        e_super, e_sub = speed_exponents(lam, d)
        closer = "super" if abs(slope - e_super) <= abs(slope - e_sub) \
            else "sub"
        groups.append({"gamma": gamma, "lambda": lam, "exponent": slope,
                       "exponent_super": e_super, "exponent_sub": e_sub,
                       "closer_to": closer, "points": len(pts)})
    return {"groups": groups}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mesogas",
        description="mesoscopic Coulomb-gas laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "sample", "equilibrium", "rate", "construct",
                 "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = _count(args.seed, "--seed")
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    runner = {"verify": run_verify, "sample": run_sample,
              "equilibrium": run_equilibrium, "rate": run_rate,
              "construct": run_construct, "sweep": run_sweep}[args.command]
    try:
        return runner(cfg, out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
