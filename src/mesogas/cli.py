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
worker 0 and helpers forked with ``os.fork`` are the others. Worker w runs
task w first; then each worker takes the next task no worker has taken
from a pipe that holds that task's number, and puts the following number
back, until none is left. Each helper sends its results back pickled
through a pipe of its own; one that exits without them fails the sweep
with a ``RuntimeError`` naming its pid. With one worker, or where
``os.fork`` is not available, no process is started. A stage's numbers do
not depend on the process that ran it, so ``sweep.csv`` and
``sweep_regression.json`` are the same for any worker count, and stderr
reports each row in row order.
A failed stage leaves NaN in its own columns and its text in ``error``
(both texts, ball first and joined by "; ", when both fail); a row whose
p_hat is 0 or 1 gets a note that it measured no large deviation.
``sweep_timing.json`` records the worker count, the wall time, per row the
pid and seconds of each stage (``ball_pid``, ``ball_s``, ``rate_pid``,
``rate_s``; null for a stage that failed), and under ``tasks``, in start
order, each task's row index, stage, pid, start offset and seconds.

``verify``, ``sample``, ``equilibrium``, ``rate`` and ``construct`` record
every distinct warning their work raised under ``"warnings"`` in their JSON
report (``equilibrium`` in ``equilibrium.json`` and ``thermal.json``), and
print each one to stderr once. ``sample``, ``rate`` and the thermal solve
list first the hypothesis-range warnings of their regime, which the config
load printed.

Importing this module loads numpy and scipy's compiled pocketfft binding,
without running ``scipy.fft``'s package imports
(``kernels._scipy_extension``). ``load_config`` adds the LP stack of
``grids.bl_distance``, scipy's HiGHS binding and compiled ``cdist`` kernel,
loaded the same way, only for a config that asks for a BL LP.
``scipy.integrate.quad`` and ``scipy.optimize.nnls`` are imported where
they are called (``coulomb.sphere_average``,
``construction.fit_potential_bound``).

Exit codes: 0 success, 1 invariant failure, 2 invalid configuration.
``CONFIG_KEYS`` lists every config key with its reader, its default (a null
takes it too) and its rule; ``--seed`` passes the seed's. Any other key is
a configuration error that names it. ``RegimeParams`` (one per (N, gamma,
lambda) of the grid), ``ExteriorDomain`` and ``ConstructionParams`` apply
their own rules as the config is read, and warn on values outside the
hypothesis ranges of the scaling theory; a sweep row's ``regime`` is the
one its ``RegimeParams`` decided.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import itertools
import json
import math
import os
import pickle
import sys
import time
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .construction import ConstructionParams, construct
from .equilibrium import Potential, solve_equilibrium, solve_thermal
from .grids import (AtomicMeasure, Box, GridMeasure, _lp_stack, bl_distance,
                    mass)
from .rates import ExteriorDomain, RateReport, n_rate, phi_rate, t_rate
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

def _count(value) -> int:
    """A whole number >= 0: 8.5 is not read as 8, nor true as 1."""
    number = int(value)
    if (isinstance(value, bool) or number < 0
            or isinstance(value, float) and value != number):
        raise ConfigError("expected a whole number >= 0")
    return number


def _list(value) -> list:
    if not isinstance(value, list):
        raise ConfigError("expected a list")
    return value


def _exponents(value) -> list:
    """A list of numbers or strings: true is not read as 1, nor false as 0."""
    if any(isinstance(v, bool) for v in _list(value)):
        raise ConfigError("expected numbers or strings, not true or false")
    return value


# Every key a config may hold: (section, key), section None at the top level,
# maps to the ExperimentConfig attribute it sets, how its JSON value is read,
# the default an absent key or a null takes, and the rule a given value must
# pass ("> bound", a tuple of choices, or None). Any other key is an error.
CONFIG_KEYS = {
    (None, "why"): ("why", str, "", None),  # a free-text note
    (None, "d"): ("d", _count, 3, "> 2"),  # the kernel |x|^(2-d)
    (None, "R"): ("R", float, 1.0, "> 0"),
    (None, "seed"): ("seed", _count, 20240817, None),
    ("potential", "kind"): ("potential_kind", str, "quadratic",
                            ("quadratic",)),  # no config holds a table
    ("potential", "coef"): ("potential_coef", float, 1.0, "> 0"),
    ("grid", "N"): ("grid_N", lambda v: [*map(_count, _list(v))], (), None),
    ("grid", "gamma"): ("grid_gamma", _exponents, (), None),
    ("grid", "lambda"): ("grid_lambda", _exponents, (), None),
    ("ball", "type"): ("ball_type", str, "bl", ("bl", "energy")),
    ("ball", "epsilon"): ("ball_epsilon", float, 0.5, "> 0"),
    ("ball", "k"): ("ball_k", float, 1.0, None),
    ("target", "kind"): ("target_kind", str, "uniform", ("uniform", "ball")),
    ("target", "value"): ("target_value", float, None, None),
    ("solver", "cells_per_axis"): ("cells_per_axis", _count, 32, "> 3"),
    ("solver", "window_cells"): ("window_cells", _count, 8, "> 1"),
    ("solver", "exterior_factor"): ("exterior_factor", _count, 4, None),
    ("solver", "tol"): ("solver_tol", float, 1e-9, "> 0"),
    ("sampler", "chains"): ("chains", _count, 16, "> 0"),
    ("sampler", "steps"): ("steps", _count, None, "> 0"),
    ("sampler", "burn_in"): ("burn_in", _count, None, None),
    ("construction", "half_width"): ("half_width", float, 1.0, "> 0"),
    ("construction", "target_cells"): ("target_cells", _count, 16, "> 0"),
    ("construction", "N"): ("construction_N", _count, 256, None),
    ("construction", "cube_size"): ("cube_size", float, 0.5, "> 0"),
    ("construction", "separation"): ("separation", float, 0.2, None),
    ("construction", "volume_trials"): ("volume_trials", _count, 4, None),
    ("rate", "functional"): ("rate_functional", str, "n", ("n", "phi", "t")),
}


def _value(section: str | None, key: str, given):
    """The value of table key (section, key) whose JSON value is `given`.
    No key takes true or false, and no number is NaN or infinite."""
    _, read, default, rule = CONFIG_KEYS[section, key]
    if given is None:
        return default
    try:
        value = read(given)
        if isinstance(given, bool) or isinstance(value, float) \
                and not math.isfinite(value):
            raise ConfigError("expected a finite number or a string")
        if isinstance(rule, tuple) and value not in rule:
            raise ConfigError(f"must be one of {', '.join(rule)}")
        if isinstance(rule, str) and not value > float(rule.split()[1]):
            raise ConfigError(f"must be {rule}")
    except (ValueError, TypeError, OverflowError) as exc:  # ConfigError too
        where = key if section is None else f"{section}.{key}"
        raise ConfigError(f"{where}={given!r}: {exc}") from exc
    return value


class ExperimentConfig:
    """Each key of ``CONFIG_KEYS`` sets the attribute it names; from them
    come ``potential``, ``regimes``, ``domain`` and ``construction``."""

    @staticmethod
    def from_json(obj) -> "ExperimentConfig":
        """Parse and validate; every rejected value raises ConfigError."""
        try:
            return ExperimentConfig._parse(obj)
        except (ValueError, TypeError, OverflowError) as exc:  # ConfigError too
            raise ConfigError(str(exc)) from exc

    @staticmethod
    def _parse(obj) -> "ExperimentConfig":
        sections = [*dict.fromkeys(s for s, _ in CONFIG_KEYS if s)]
        given = {}
        for section in (None, *sections):
            keys = obj if section is None else given[None].get(section)
            keys = {} if keys is None else keys
            where = f"section {section!r}" if section else "the top level"
            if not isinstance(keys, dict):
                raise ConfigError(f"{where} must be an object, not {keys!r}")
            known = [k for s, k in CONFIG_KEYS if s == section]
            known += [] if section else sections
            for key in sorted(keys.keys() - known):
                near = difflib.get_close_matches(key, known, n=1)
                raise ConfigError(f"unknown key {key!r} in {where}" + (
                    f"; did you mean {near[0]!r}?" if near else ""))
            given[section] = keys
        cfg = ExperimentConfig()
        for (section, key), (attr, *_) in CONFIG_KEYS.items():
            setattr(cfg, attr, _value(section, key, given[section].get(key)))
        cfg.potential = Potential(kind=cfg.potential_kind,
                                  coef=cfg.potential_coef)
        axes = (cfg.grid_N, cfg.grid_gamma, cfg.grid_lambda)
        if any(axes) and not all(axes):
            raise ConfigError("grid must provide N, gamma, and lambda")
        cfg.regimes = [RegimeParams(N=N, gamma=g, lam=lam, R=cfg.R, d=cfg.d)
                       for N, g, lam in itertools.product(*axes)]
        cfg.domain = ExteriorDomain.build(
            Box.cube(np.zeros(cfg.d), cfg.R), cfg.window_cells,
            factor=cfg.exterior_factor)
        burn = cfg.burn_in or 0
        runs = [cfg.steps or math.inf,
                *(cfg.steps_at(params.N) for params in cfg.regimes)]
        if not min(runs) > burn:
            raise ConfigError(
                f"sampler needs steps > burn_in, but burn_in={burn} and a "
                f"chain takes {min(runs)} steps (by default 200 N)")
        box = Box.cube(np.zeros(cfg.d), cfg.half_width)
        cfg.construction = ConstructionParams(
            target=GridMeasure.uniform(box, cfg.target_cells,
                                       1.0 / box.volume),
            N=cfg.construction_N, cube_size=cfg.cube_size,
            separation=cfg.separation)
        return cfg

    # -- derived objects ----------------------------------------------------

    def steps_at(self, N: int) -> int:
        """Proposals per chain at N: ``steps``, by default 200 N."""
        return self.steps or 200 * N

    def mu_v_density(self) -> float:
        """Density of the quadratic-potential equilibrium measure at 0."""
        return self.potential.equilibrium_density(self.d)

    def target_measure(self, N: int, lam: float) -> GridMeasure:
        """Deviation target on the window grid, for the regime (N, lam).

        kind "uniform" fills the whole window cube at the target value.
        kind "ball" fills only the dilated equilibrium support (radius
        r_V N^lambda), so the target tracks where the blown-up gas actually
        lives.
        """
        value = self.target_value
        if value is None:
            value = self.mu_v_density()
        win = self.domain.interior
        if self.target_kind == "uniform":
            return GridMeasure.uniform(win, self.window_cells, value)
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
    from .coulomb import (energy, g_radial, shell_potential,
                          shell_self_energy, smeared_energy_bound,
                          sphere_average)
    from .equilibrium import blowup
    from .grids import box_mass, dilate
    from .rates import kappa_minimizer
    from .sampler import hamiltonian, splitting_decompose

    d = cfg.d
    rng = np.random.default_rng(cfg.seed)
    checks = []

    # smearing identities: the shell's closed-form self-energy g(R) against
    # the quadrature of its potential at a point on the shell, then Newton:
    # the quadrature of one shell's potential over a disjoint shell is g(s)
    R = 0.7
    lhs = shell_self_energy(R, d)
    rhs = sphere_average(lambda r: g_radial(r, d), R, R, d)
    checks.append(_check("smearing-shell-self-energy",
                         abs(lhs - rhs) / abs(rhs), 1e-10))
    worst = 0.0
    for _ in range(20):
        ra, rb = rng.uniform(0.05, 0.3, size=2)
        s = ra + rb + rng.uniform(0.01, 1.0)
        got = sphere_average(lambda r: shell_potential(r, ra, d), s, rb, d)
        worst = max(worst, abs(got - g_radial(s, d)) / abs(g_radial(s, d)))
    checks.append(_check("smearing-newton-exterior", worst, 1e-9))

    # the sphere-smearing energy bound holds with equality when the
    # smearing radius stays below half the minimum separation
    worst = 0.0
    for _ in range(10):
        pts = rng.uniform(-1.0, 1.0, size=(12, d))
        dmin = kernels.min_pairwise_distance(np.ascontiguousarray(pts))
        lhs, rhs = smeared_energy_bound(AtomicMeasure(pts, 1.0 / 12),
                                        0.49 * dmin)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-12))
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
    # the window takes at most half the mass the truncation box holds, so
    # a positive exterior measure can balance it
    held = box_mass(w_blow, domain.truncation)
    mu_win = GridMeasure.uniform(
        window, cfg.window_cells,
        0.5 * min(cfg.mu_v_density(), held / window.volume))
    try:
        _, _, kval = kappa_minimizer(mass(mu_win), w_blow, domain)
        rep = t_rate(mu_win, params0, th, domain, include_energy=False,
                     tol=1e-10, max_iter=4000)
        checks.append(_check("kappa-closed-form",
                             abs(kval - rep.value) / max(abs(kval), 1e-9),
                             1e-6))
    except ValueError as exc:  # e.g. no dilated mass on the exterior
        checks.append({"name": "kappa-closed-form", "passed": False,
                       "residual": None, "tolerance": 1e-6,
                       "error": str(exc)})

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
    from .construction import (cube_lattice, cube_masses, place_points,
                               round_counts, separation_radius)
    box1 = Box.cube(np.zeros(d), 1.0)
    nu1 = GridMeasure.uniform(box1, 8, 1.0 / box1.volume)
    cubes = cube_lattice(box1, 0.5)
    counts = round_counts(cube_masses(nu1, cubes), 27)
    cfg_pts = place_points(counts, cubes, 0.2, seed=cfg.seed)
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


def _regime_run(params: RegimeParams, work):
    """`_recording_warnings(work)`, its texts preceded by the hypothesis
    warnings that `params` raised as the config was read (printed then)."""
    result, messages = _recording_warnings(work)
    return result, [*dict.fromkeys(params.hypothesis_warnings + messages)]


def run_verify(cfg: ExperimentConfig, out_dir: Path) -> int:
    checks, messages = _recording_warnings(lambda: _verify_checks(cfg))
    passed = all(c["passed"] for c in checks)
    report = {"checks": checks, "passed": passed, "warnings": messages,
              "seed": cfg.seed, "cells_per_axis": cfg.cells_per_axis}
    text = json.dumps(report, sort_keys=True, indent=2)
    (out_dir / "verify.json").write_text(text + "\n")
    for c in checks:
        flag = "PASS" if c["passed"] else "FAIL"
        detail = c.get("error") or f"residual {c['residual']:.3e}"
        print(f"{flag} {c['name']}: {detail} (tol {c['tolerance']:.1e})")
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
    steps = cfg.steps_at(params.N)
    burn = cfg.burn_in if cfg.burn_in is not None else steps // 2
    return steps, burn, gibbs_sample(params, cfg.potential, steps, burn,
                                     cfg.seed, chain_index=range(cfg.chains))


def run_sample(cfg: ExperimentConfig, out_dir: Path) -> int:
    params = _first_regime(cfg)
    (steps, burn, runs), messages = _regime_run(
        params, lambda: _run_chains(cfg, params))
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
                    "steps": steps, "burn_in": burn, "chains": summary,
                    "warnings": messages},
                   sort_keys=True, indent=2) + "\n")
    print(f"wrote {cfg.chains} chains ({steps} proposals each) to {out_dir}")
    return 0


def run_equilibrium(cfg: ExperimentConfig, out_dir: Path) -> int:
    r_eq = cfg.potential.equilibrium_radius(cfg.d)
    eq, messages = _recording_warnings(lambda: solve_equilibrium(
        cfg.potential, Box.cube(np.zeros(cfg.d), 1.3 * r_eq),
        cfg.cells_per_axis, tol=max(cfg.solver_tol, 1e-6)))
    (out_dir / "equilibrium.json").write_text(json.dumps(
        {**eq.to_json(), "warnings": messages}, sort_keys=True) + "\n")
    print(f"equilibrium: k={eq.k:.6f} el_residual={eq.el_residual:.3e} "
          f"converged={eq.converged}")
    if cfg.regimes:
        params = cfg.regimes[0]
        th, messages = _regime_run(params, lambda: solve_thermal(
            cfg.potential, params.N, params.beta, d=cfg.d,
            cells_per_axis=cfg.cells_per_axis, tol=cfg.solver_tol))
        (out_dir / "thermal.json").write_text(json.dumps(
            {**th.to_json(), "warnings": messages}, sort_keys=True) + "\n")
        print(f"thermal (N={params.N}, beta={params.beta:.4g}): "
              f"k={th.k:.6f} el_residual={th.el_residual:.3e}")
    return 0


def _rate_for(cfg: ExperimentConfig, params: RegimeParams,
              mu: GridMeasure) -> RateReport:
    alpha = cfg.mu_v_density()
    if cfg.rate_functional == "n":
        return RateReport(functional="N", value=n_rate(mu, alpha),
                          minimizer=None, iterations=0, kkt_residual=0.0,
                          mass_error=0.0)
    if cfg.rate_functional == "phi":
        return phi_rate(mu, alpha, cfg.domain, tol=1e-8)
    thermal = solve_thermal(cfg.potential, params.N, params.beta, d=cfg.d,
                            cells_per_axis=cfg.cells_per_axis,
                            tol=cfg.solver_tol)
    return t_rate(mu, params, thermal, cfg.domain, tol=1e-7)


def run_rate(cfg: ExperimentConfig, out_dir: Path) -> int:
    params = _first_regime(cfg)
    mu = cfg.target_measure(params.N, params.lam)
    try:
        rep, messages = _regime_run(
            params, lambda: _rate_for(cfg, params, mu))
    except ValueError as exc:  # e.g. a T target the thermal gas cannot reach
        raise ConfigError(f"infeasible rate target: {exc}") from exc
    (out_dir / f"rate_{cfg.rate_functional}.json").write_text(json.dumps(
        {**rep.to_json(), "warnings": messages}, sort_keys=True) + "\n")
    print(f"{rep.functional} rate at the configured target: {rep.value:.6f}")
    return 0


def run_construct(cfg: ExperimentConfig, out_dir: Path) -> int:
    params = cfg.construction
    try:
        report, messages = _recording_warnings(lambda: construct(
            params, seed=cfg.seed, volume_trials=cfg.volume_trials))
    except ValueError as exc:  # a packing or placement budget that fails
        raise ConfigError(f"infeasible construction: {exc}") from exc
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
                values = {"rate_value": _rate_for(cfg, params, mu).value}
        except Exception as exc:  # keep sweeping; the row records NaN
            error = str(exc) or type(exc).__name__
    return _StageResult(values, error, _messages(caught), start,
                        time.perf_counter() - start, os.getpid())


def _drain_tasks(cfg: ExperimentConfig, tasks: list, first: int,
                 counter: tuple[int, int]) -> dict:
    """Run task `first`, then the task whose index the `counter` pipe
    hands out next, until the list is exhausted; returns {index: result}.
    The pipe holds one number, the next task no worker has taken: a worker
    that reads it holds the others off until it writes the one after."""
    reader, writer = counter
    done = {}
    index = first
    while index < len(tasks):
        done[index] = _sweep_task(cfg, *tasks[index])
        index = int.from_bytes(os.read(reader, 8), "little")
        os.write(writer, (index + 1).to_bytes(8, "little"))
    return done


def _sweep_workers(rows: int) -> int:
    """Processes for a sweep of `rows` rows: one per CPU this process may
    run on, at most one per task (two per row), and only the caller where
    helpers cannot be forked (there is no os.fork)."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return max(1, min(len(SWEEP_STAGES) * rows,
                      len(os.sched_getaffinity(0))))


def _run_sweep_tasks(cfg: ExperimentConfig, tasks: list,
                     workers: int) -> list:
    """Every task's result, in task order, from `workers` processes: the
    caller and workers - 1 helpers forked with os.fork. Worker w runs task
    w first, then each worker takes the next task no worker has taken yet
    from the one number in a shared pipe."""
    if workers == 1:
        return [_sweep_task(cfg, *task) for task in tasks]
    # forked helpers inherit the loaded modules (no second import of numpy
    # and scipy), their arguments and the task pipe; only their results
    # travel back, pickled through a pipe each. The caller starts no
    # thread, and OpenBLAS stops its thread pool before a fork (its atfork
    # handler). Helpers also inherit the stdio buffers, which must be
    # empty so that a helper does not write them again when it exits.
    counter = os.pipe()
    os.write(counter[1], workers.to_bytes(8, "little"))
    sys.stdout.flush()
    sys.stderr.flush()
    pending = {}        # pid: read end of its results, for each helper
    try:
        for first in range(1, workers):
            reader, writer = os.pipe()
            pid = os.fork()
            if pid == 0:
                # the helper never returns into the caller's code; it writes
                # out what it printed since the fork, and exits with status
                # 0 only once its results are written
                status = 1
                try:
                    with os.fdopen(writer, "wb") as fh:
                        pickle.dump(_drain_tasks(cfg, tasks, first, counter),
                                    fh)
                    status = 0
                finally:
                    sys.stdout.flush()
                    sys.stderr.flush()
                    os._exit(status)
            os.close(writer)    # so a helper that dies leaves an EOF
            pending[pid] = reader
        done = _drain_tasks(cfg, tasks, 0, counter)
        while pending:
            pid, reader = pending.popitem()
            with os.fdopen(reader, "rb") as fh:
                data = fh.read()
            if os.waitpid(pid, 0)[1] != 0:
                raise RuntimeError(f"sweep helper {pid} exited without "
                                   "its results")
            done.update(pickle.loads(data))
    except BaseException:
        # imported here, so that only a sweep that fails loads it
        import signal

        for pid in pending:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for pid in pending:
            os.waitpid(pid, 0)
        for fd in (*pending.values(), *counter):
            os.close(fd)
    return [done[j] for j in range(len(tasks))]


def run_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    _first_regime(cfg)  # a sweep needs a grid, as sample and rate do
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
            cfg.seed = _value(None, "seed", args.seed)
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
