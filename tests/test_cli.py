"""Configuration parsing and the command-line entry points."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mesogas import cli
from mesogas.cli import (SWEEP_COLUMNS, ConfigError, ExperimentConfig,
                         load_config, main, regress_speeds)


def base_config():
    return {
        "d": 3,
        "potential": {"kind": "quadratic", "coef": 1.0},
        "grid": {"N": [8], "gamma": [0.3], "lambda": [0.05]},
        "R": 1.0,
        "ball": {"type": "bl", "epsilon": 0.6, "k": 1.0},
        "target": {"kind": "uniform"},
        "solver": {"cells_per_axis": 24, "tol": 1e-7,
                   "window_cells": 4, "exterior_factor": 2},
        "sampler": {"chains": 2, "steps": 200, "burn_in": 100},
        "construction": {"half_width": 1.0, "target_cells": 8, "N": 64,
                         "cube_size": 0.5, "separation": 0.2,
                         "volume_trials": 0},
        "rate": {"functional": "n"},
        "seed": 11,
    }


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config()))
    return path


def test_config_rejects_bad_values():
    for patch in ({"d": 2},
                  {"grid": {"N": [0], "gamma": [0.3], "lambda": [0.05]}},
                  {"grid": {"N": [8], "gamma": [-1], "lambda": [0.05]}},
                  {"grid": {"N": [8], "gamma": [0.3], "lambda": [0.4]}},
                  {"grid": {"N": [8], "gamma": [math.inf], "lambda": [0.05]}},
                  {"R": 0.0},
                  {"ball": {"type": "euclid"}},
                  {"target": {"kind": "gaussian"}},
                  {"rate": {"functional": "q"}},
                  {"solver": {"cells_per_axis": 2}},
                  # counts are whole numbers: 8.5 is not read as 8
                  {"grid": {"N": [8.5], "gamma": [0.3], "lambda": [0.05]}},
                  # nor is true read as gamma = 1, or false as lambda = 0
                  {"grid": {"N": [8], "gamma": [True], "lambda": [0.05]}},
                  {"grid": {"N": [8], "gamma": [0.3], "lambda": [False]}},
                  {"sampler": {"chains": 2, "steps": 200, "burn_in": 100.7}},
                  {"construction": {**base_config()["construction"],
                                    "volume_trials": -1}},
                  {"seed": -1}):
        obj = base_config()
        obj.update(patch)
        with pytest.raises(ConfigError), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ExperimentConfig.from_json(obj)
    # the library's tabulated potential needs a table no config can hold
    for kind in ("tabulated", "cubic"):
        with pytest.raises(ConfigError, match=(
                f"^potential.kind='{kind}': must be one of quadratic$")):
            ExperimentConfig.from_json({"potential": {"kind": kind}})


MISSPELLED = [("sampler", "chians"), (None, "seeed"),
              ("solver", "exterior_facter"), ("grid", "lam")] + [
    (section, "typo") for section in dict.fromkeys(
        section for section, _ in cli.CONFIG_KEYS)]


@pytest.mark.parametrize("section, key", MISSPELLED)
def test_an_unknown_key_exits_2_and_is_named(tmp_path, capsys, section, key):
    """A key the table does not know, in any section or at the top level,
    is a configuration error that names it, not a key dropped in silence
    (the run would take the default it meant to set)."""
    obj = base_config()
    (obj if section is None else obj.setdefault(section, {}))[key] = 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    assert main(["sample", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and repr(key) in err
    assert "Traceback" not in err
    assert (f"section {section!r}" if section else "the top level") in err


@pytest.mark.parametrize("patch", [
    {"ball": {"epsilon": math.nan}}, {"ball": {"epsilon": math.inf}},
    {"solver": {"tol": math.nan}}, {"solver": {"tol": -math.inf}},
    {"sampler": {"chains": True, "steps": 200}},
    {"grid": {"N": [True], "gamma": [0.3], "lambda": [0.05]}}, {"ball": 3},
    {"grid": {"N": 8, "gamma": [0.3], "lambda": [0.05]}}, [base_config()]],
    ids=["epsilon-nan", "epsilon-inf", "tol-nan", "tol-minus-inf",
         "chains-true", "grid-N-true", "section-not-an-object",
         "grid-axis-not-a-list", "top-level-array"])
def test_bad_values_exit_2_without_a_traceback(tmp_path, capsys, patch):
    """A NaN or infinite number, true as a count, a section that is not an
    object, a grid axis that is not a list and a top-level array are each a
    configuration error at load, not a run or a traceback."""
    obj = patch if isinstance(patch, list) else {**base_config(), **patch}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))    # NaN and Infinity as Python writes
    assert main(["sample", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err


def test_an_explicit_null_takes_the_default():
    """Every key of the table set to null reads as the key left out."""
    obj = {}
    for section, key in cli.CONFIG_KEYS:
        (obj if section is None else obj.setdefault(section, {}))[key] = None
    nulls = ExperimentConfig.from_json(obj)
    for (section, key), (attr, _, default, _) in cli.CONFIG_KEYS.items():
        assert getattr(nulls, attr) == default, (section, key)
    assert ExperimentConfig.from_json({"target": {"value": None}}) \
        .target_measure(16, 0.05).density.max() \
        == pytest.approx(3 / (4 * math.pi))


ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("name", [
    *(f"perfbench/workloads/{path.name}"
      for path in sorted((ROOT / "perfbench" / "workloads").glob("*.json"))),
    "README.md"])
def test_every_committed_config_loads(tmp_path, name):
    """The benchmark workloads, each with its free-text "why", and the
    README's example config, cut from the README, all load."""
    text = (ROOT / name).read_text()
    if name == "README.md":
        text = text.split("A config looks like:\n\n```json\n")[1]
        text = text.split("```")[0]
    path = tmp_path / "config.json"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # gamma = 0.3 is exploratory
        cfg = load_config(str(path))
    assert cfg.seed == json.loads(text)["seed"]


def test_uniform_target_defaults_to_equilibrium_density():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = ExperimentConfig.from_json(base_config())
    mu = cfg.target_measure(8, 0.05)
    want = 3.0 / (4.0 * math.pi)
    assert cfg.mu_v_density() == pytest.approx(want, rel=1e-12)
    assert np.allclose(mu.density, want)


def test_ball_target_needs_regime_parameters():
    obj = base_config()
    obj["target"] = {"kind": "ball", "value": 0.2}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = ExperimentConfig.from_json(obj)
    mu = cfg.target_measure(16, 0.05)
    # positive inside the dilated support, zero in the window corners
    assert mu.density.max() == pytest.approx(0.2)
    assert mu.density.ravel()[0] == 0.0


def test_load_config_reports_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_main_returns_2_on_config_problems(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 2}))
    assert main(["verify", "--config", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_negative_seed_exits_2_from_the_config_or_the_command_line(
        tmp_path, capsys):
    obj = base_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", "--config", str(path), "--seed", "-3",
                 "--out", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err
    obj["seed"] = -3
    path.write_text(json.dumps(obj))
    assert main(["verify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_invalid_configs_exit_2_without_a_traceback(tmp_path, capsys):
    patches = [
        {"potential": {"kind": "cubic"}},
        {"potential": {"kind": "tabulated"}},
        {"grid": {"N": [8], "gamma": ["abc"], "lambda": [0.05]}},
        {"d": "three"},
        {"sampler": {"chains": 2, "steps": 100, "burn_in": 100}},
        {"construction": {"N": 64, "cube_size": 0.3, "separation": 0.2}},
        {"grid": {"N": [8], "gamma": [0.3]}},
    ]
    for i, patch in enumerate(patches):
        obj = base_config()
        obj.update(patch)
        path = tmp_path / f"bad_{i}.json"
        path.write_text(json.dumps(obj))
        code = main(["construct", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2, patch
        assert "configuration error" in capsys.readouterr().err, patch


def test_construct_beyond_the_bl_cap_exits_2_at_load(tmp_path, capsys):
    """1,300 atoms need a BL LP of at least 1,308 sites, above the cap of
    1,200, so construct is a configuration error at load, before
    placement."""
    obj = {"d": 3, "construction": {
        "half_width": 1.0, "target_cells": 8, "N": 1300, "cube_size": 0.25,
        "separation": 0.2}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["construct", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert "1308 sites" in err and "cap of 1200" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "sweep"])
def test_a_burn_in_without_steps_is_checked_at_load(tmp_path, capsys,
                                                   command):
    """Without `steps` a chain takes 200 N proposals, 1600 at N = 8, so a
    burn-in of 5000 is a configuration error at load, not a traceback from
    `sample` or a NaN row from `sweep`."""
    obj = base_config()
    obj["sampler"] = {"chains": 2, "burn_in": 5000}
    obj["grid"]["N"] = [8, 32]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # gamma = 0.3 is exploratory
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert "burn_in=5000" in err and "1600 steps" in err
    assert not out.exists()
    obj["sampler"]["burn_in"] = 1599       # below 200 N at every N: loads
    path.write_text(json.dumps(obj))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = load_config(str(path))
    assert [cfg.steps_at(p.N) for p in cfg.regimes] == [1600, 6400]


@pytest.mark.parametrize("command", ["sample", "rate", "sweep"])
def test_a_command_that_runs_the_grid_needs_one(tmp_path, capsys, command):
    """Without a grid there is no regime to sample, rate or sweep: each of
    the three exits 2 and writes nothing, not a header-only sweep.csv."""
    obj = base_config()
    del obj["grid"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: grid must provide N, gamma, and lambda" \
        in err and "Traceback" not in err
    assert [*out.iterdir()] == []


@pytest.mark.parametrize("functional, name", [("phi", "Phi"), ("t", "T")])
def test_rate_command_runs_phi_and_t(tmp_path, functional, name):
    obj = base_config()
    obj["rate"] = {"functional": functional}
    # below the dilated thermal mass at N = 8, which the T rate needs
    obj["target"] = {"kind": "uniform", "value": 0.1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["rate", "--config", str(path), "--out", str(out)])
    assert code == 0
    payload = json.loads((out / f"rate_{functional}.json").read_text())
    assert payload["functional"] == name
    assert math.isfinite(payload["value"]) and payload["value"] > 0.0
    assert payload["minimizer"]["density"]
    # the report's extras: T's energy/entropy split, Phi's screening mass
    extras = {"phi": ["screening_mass"],
              "t": ["energy_term", "entropy_term", "t_script", "mu_v0"]}
    assert all(math.isfinite(payload[key]) for key in extras[functional])
    if functional == "t":
        assert payload["energy_term"] + payload["entropy_term"] == \
            pytest.approx(payload["value"], rel=1e-12)
        # the cube T solved on, at most the 4 x 2 cells of the lattice
        solver = obj["solver"]
        assert 1 <= payload["solve_cells"] <= \
            solver["window_cells"] * solver["exterior_factor"]


def test_infeasible_t_target_exits_2(tmp_path, capsys):
    """The equilibrium density fills the window with mass 1.91, above the
    dilated thermal mass 8^0.15 that the T rate can place there."""
    obj = base_config()
    obj["rate"] = {"functional": "t"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["rate", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_infeasible_construct_and_kappa_check_end_without_a_traceback(
        tmp_path, capsys, monkeypatch):
    """A boundary layer of 0.45 swallows a cube of side 0.5, so construct
    exits 2. With N = 1 the truncation box holds less dilated mass than a
    window of density mu_V(0)/2 would, so verify's kappa check gives the
    window half the held mass and is posed. A kappa_minimizer that raises
    is recorded as a failed check, with the error."""
    construct_cfg = {"d": 3, "construction": {
        "half_width": 1.0, "target_cells": 4, "N": 8, "cube_size": 0.5,
        "separation": 0.9, "volume_trials": 0}}
    verify_cfg = {"d": 3, "R": 1.0,
                  "grid": {"N": [1], "gamma": [1.0], "lambda": [0.05]},
                  "solver": {"cells_per_axis": 4, "window_cells": 4,
                             "exterior_factor": 2},
                  "ball": {"type": "energy"}}

    def run(command, obj, out):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(obj))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return main([command, "--config", str(path),
                         "--out", str(tmp_path / out)])

    def kappa_check(out):
        report = json.loads((tmp_path / out / "verify.json").read_text())
        check, = [c for c in report["checks"]
                  if c["name"] == "kappa-closed-form"]
        return check

    # 4 cells per axis are too coarse for the analytic equilibrium density
    assert [run("construct", construct_cfg, "construct"),
            run("verify", verify_cfg, "posed")] == [2, 1]
    assert "configuration error: infeasible construction" in (
        capsys.readouterr().err)
    assert kappa_check("posed")["passed"]

    from mesogas import rates

    def raising(*args):
        raise ValueError("window mass exceeds the total mass (planted)")

    monkeypatch.setattr(rates, "kappa_minimizer", raising)
    assert run("verify", verify_cfg, "raised") == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    kappa = kappa_check("raised")
    assert not kappa["passed"] and kappa["residual"] is None
    assert "window mass exceeds the total mass" in kappa["error"]
    assert "FAIL kappa-closed-form: window mass" in captured.out


@pytest.mark.parametrize("command", ["verify", "sweep", "rate"])
@pytest.mark.parametrize("solver", [{"window_cells": 5, "exterior_factor": 2},
                                    {"window_cells": 4, "exterior_factor": 1}])
def test_bad_window_geometry_exits_2_at_load(tmp_path, capsys, command,
                                             solver):
    """A window lattice the truncation box cannot hold in whole cells, or a
    truncation box no larger than the window, is a configuration error
    before any stage runs."""
    obj = base_config()
    obj["solver"] = {**obj["solver"], **solver}
    obj["rate"] = {"functional": "t"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_commands_run_the_thermal_solve_in_the_configured_dimension(
        tmp_path):
    """At d = 4 every subcommand that solves the thermal problem solves it
    in four dimensions, so its box, the T rate and the sweep row agree in
    dimension with the window."""
    obj = base_config()
    obj.update(d=4, grid={"N": [16], "gamma": [0.6], "lambda": [0.02]},
               target={"kind": "uniform", "value": 0.1},
               rate={"functional": "t"})
    obj["solver"] = {**obj["solver"], "cells_per_axis": 8}
    path = tmp_path / "d4.json"
    path.write_text(json.dumps(obj))
    codes = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for command in ("equilibrium", "rate", "sweep", "verify"):
            codes[command] = main([command, "--config", str(path),
                                   "--out", str(tmp_path / command)])
    thermal = json.loads((tmp_path / "equilibrium" / "thermal.json")
                         .read_text())
    assert len(thermal["measure"]["box"]["center"]) == 4
    assert codes["rate"] == 0
    rate = json.loads((tmp_path / "rate" / "rate_t.json").read_text())
    assert math.isfinite(rate["value"])
    assert codes["sweep"] == 0
    with open(tmp_path / "sweep" / "sweep.csv") as fh:
        row, = csv.DictReader(fh)
    assert row["error"] == "" and math.isfinite(float(row["rate_value"]))
    report = json.loads((tmp_path / "verify" / "verify.json").read_text())
    assert len(report["checks"]) == 15
    # 8 cells per axis are too coarse for the analytic equilibrium density
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "equilibrium-vs-analytic"]
    assert codes["verify"] == 1


@pytest.mark.parametrize("lam, flagged", [(0.05, "gamma=0.3"),
                                          (0.0, "lambda=0")])
def test_sample_warns_once_per_out_of_range_value(tmp_path, lam, flagged):
    obj = base_config()
    obj["grid"]["lambda"] = [lam]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sample", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert sum(flagged in str(w.message) for w in caught) == 1


def test_verify_command_passes_and_writes_report(config_path, tmp_path,
                                                 capsys):
    out = tmp_path / "out"
    code = main(["verify", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["passed"] is True
    assert report["seed"] == 11
    assert len(report["checks"]) >= 10
    assert all(c["passed"] for c in report["checks"])
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL " not in text


def test_verify_smearing_check_fails_on_a_wrong_shell_self_energy(
        monkeypatch):
    """The first check sets the closed form g(R) against a quadrature of
    the shell's potential on the shell, so a wrong closed form (here the
    ball's self-energy) fails it."""
    from mesogas import coulomb
    monkeypatch.setattr(coulomb, "shell_self_energy",
                        coulomb.ball_self_energy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        first = cli._verify_checks(ExperimentConfig.from_json(base_config()))[0]
    assert first["name"] == "smearing-shell-self-energy"
    assert not first["passed"]


def test_verify_newton_check_fails_on_a_wrong_exterior_source(monkeypatch):
    """The Newton check averages one shell's potential over a disjoint
    shell by quadrature, so a wrong source (here a ball of four times the
    shell's radius, which the other shell cuts into) fails it."""
    from mesogas import coulomb
    ball = coulomb.ball_potential
    monkeypatch.setattr(coulomb, "shell_potential",
                        lambda r, R, d: ball(r, 4.0 * R, d))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        second = cli._verify_checks(
            ExperimentConfig.from_json(base_config()))[1]
    assert second["name"] == "smearing-newton-exterior"
    assert not second["passed"] and second["residual"] > 0.1


def test_verify_records_warnings_raised_by_its_checks(config_path, tmp_path,
                                                     monkeypatch):
    import mesogas.cli as cli
    real = cli.bl_distance

    def warning_bl(a, b):
        warnings.warn("planted by the bl-two-atoms check")
        return real(a, b)

    monkeypatch.setattr(cli, "bl_distance", warning_bl)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(config_path), "--out", str(out)]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["warnings"].count("planted by the bl-two-atoms check") == 1


def test_sample_command_writes_chains(config_path, tmp_path):
    out = tmp_path / "out"
    code = main(["sample", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    chains = sorted(out.glob("chain_*.jsonl"))
    assert len(chains) == 2
    rows = [json.loads(line) for line in chains[0].read_text().splitlines()]
    assert rows, "chain file should hold at least one snapshot"
    for key in ("step", "hamiltonian", "acceptance_rate", "points"):
        assert key in rows[0]
    assert np.asarray(rows[0]["points"]).shape == (8, 3)
    summary = json.loads((out / "sample_summary.json").read_text())
    assert summary["params"]["N"] == 8
    assert len(summary["chains"]) == 2


def test_equilibrium_command_writes_solutions(config_path, tmp_path):
    out = tmp_path / "out"
    code = main(["equilibrium", "--config", str(config_path),
                 "--out", str(out)])
    assert code == 0
    eq = json.loads((out / "equilibrium.json").read_text())
    th = json.loads((out / "thermal.json").read_text())
    assert eq["converged"] is True
    assert th["el_residual"] < 1e-6


def test_sample_and_equilibrium_record_and_print_their_warnings(
        tmp_path, capsys, monkeypatch):
    """gamma = 1.5 lies outside the hypothesis range (1/3, 1). The config
    load prints that warning once; sample_summary.json and thermal.json,
    whose runs use the regime, list it first, and equilibrium.json, whose
    zero-temperature solve has no regime, does not. A warning of the work
    itself is listed and printed to stderr once, however often raised."""
    obj = base_config()
    obj["grid"]["gamma"] = [1.5]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    outside = "gamma=1.5 outside the hypothesis range (0.3333, 1); " \
        "exploratory run"
    real_sample, real_solve = cli.gibbs_sample, cli.solve_thermal

    def warning_sample(*args, **kwargs):
        for _ in range(3):
            warnings.warn("planted by the chains")
        return real_sample(*args, **kwargs)

    def warning_solve(*args, **kwargs):
        warnings.warn("planted by the thermal solve")
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(cli, "gibbs_sample", warning_sample)
    monkeypatch.setattr(cli, "solve_thermal", warning_solve)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in ("sample", "equilibrium"):
            assert main([command, "--config", str(path),
                         "--out", str(out)]) == 0
    # the load's warning, once per run; the work's are recorded instead
    assert [str(w.message) for w in caught] == [outside] * 2
    summary = json.loads((out / "sample_summary.json").read_text())
    assert summary["warnings"] == [outside, "planted by the chains"]
    thermal = json.loads((out / "thermal.json").read_text())
    assert thermal["warnings"] == [outside, "planted by the thermal solve"]
    assert json.loads((out / "equilibrium.json").read_text())[
        "warnings"] == []
    err = capsys.readouterr().err
    assert err.count("planted by the chains") == 1
    assert err.count("planted by the thermal solve") == 1


def test_rate_command_reports_zero_at_the_reference(config_path, tmp_path,
                                                    capsys):
    out = tmp_path / "out"
    code = main(["rate", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "rate_n.json").read_text())
    assert payload["functional"] == "N"
    # uniform target at the default value is the reference itself
    assert abs(payload["value"]) < 1e-12


def test_rate_records_and_prints_its_warnings(tmp_path, capsys):
    """On the sweep_energy geometry at N = 16 the nearest-cell resampling
    puts 122.632% of the dilated thermal mass on the rate lattice. The T
    rate warns; `rate` writes the text under "warnings" in rate_t.json and
    prints it to stderr once."""
    obj = base_config()
    obj.update(grid={"N": [16], "gamma": [0.3], "lambda": [0.05]},
               ball={"type": "energy", "epsilon": 0.5, "k": 0.0},
               target={"kind": "uniform", "value": 0.1},
               solver={"cells_per_axis": 16, "tol": 1e-8, "window_cells": 8,
                       "exterior_factor": 4},
               rate={"functional": "t"})
    del obj["construction"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["rate", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "rate_t.json").read_text())
    gap, = [m for m in payload["warnings"] if "rate lattice carries" in m]
    assert "122.632%" in gap
    assert capsys.readouterr().err.count(gap) == 1


def test_construct_command_writes_certificate(config_path, tmp_path):
    out = tmp_path / "out"
    code = main(["construct", "--config", str(config_path),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "construction.json").read_text())
    assert report["separation_ok"] is True
    assert report["boundary_ok"] is True
    assert report["min_separation"] >= report["tau_min"]
    assert len(report["points"]) == 64
    assert report["warnings"] == []


def test_construct_records_and_prints_its_warnings(config_path, tmp_path,
                                                   monkeypatch, capsys):
    real = cli.construct

    def warning_construct(*args, **kwargs):
        warnings.warn("planted by the construction")
        warnings.warn("planted by the construction")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "construct", warning_construct)
    out = tmp_path / "out"
    assert main(["construct", "--config", str(config_path),
                 "--out", str(out)]) == 0
    report = json.loads((out / "construction.json").read_text())
    assert report["warnings"] == ["planted by the construction"]
    assert capsys.readouterr().err.count("planted by the construction") == 1


# a small construction (16 points, 2 to a cube, an LP of 80 sites) and, for
# each key of its section, another valid value
SMALL_CONSTRUCTION = {"half_width": 1.0, "target_cells": 4, "N": 16,
                      "cube_size": 1.0, "separation": 0.2, "volume_trials": 1}
OTHER_CONSTRUCTION = {"half_width": 0.5, "target_cells": 8, "N": 24,
                      "cube_size": 0.5, "separation": 0.3, "volume_trials": 2}


def _computed_outputs(construction: dict) -> str:
    """What `construct` computes, not what it copies from its inputs."""
    cfg = ExperimentConfig.from_json({"construction": construction})
    report = cli.construct(cfg.construction, seed=0,
                           volume_trials=cfg.volume_trials)
    return repr((report.configuration.points.tobytes(),
                 report.min_separation, report.tau_min, report.bl_to_target,
                 report.energy_gap, report.max_potential_gap,
                 report.log_volume_estimate))


@pytest.mark.parametrize("key", [key for section, key in cli.CONFIG_KEYS
                                 if section == "construction"])
def test_every_construction_key_changes_a_computed_output(key):
    """A construction key moved off its value to another valid one changes
    the points, a certificate or the volume estimate; a key that changes
    none of them is dead configuration."""
    default = cli.CONFIG_KEYS["construction", key][2]
    assert OTHER_CONSTRUCTION[key] != SMALL_CONSTRUCTION.get(key, default)
    assert _computed_outputs({**SMALL_CONSTRUCTION,
                              key: OTHER_CONSTRUCTION[key]}) \
        != _computed_outputs(SMALL_CONSTRUCTION)


def test_sweep_command_is_deterministic(config_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", str(config_path),
                 "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", str(config_path),
                 "--out", str(out_b)]) == 0
    text_a = (out_a / "sweep.csv").read_text()
    assert text_a == (out_b / "sweep.csv").read_text()
    with open(out_a / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [*rows[0].keys()] == SWEEP_COLUMNS
    assert len(rows) == 1
    assert rows[0]["regime"] == "energy"
    assert 0.0 <= float(rows[0]["p_hat"]) <= 1.0
    assert 0.0 < float(rows[0]["acceptance"]) < 1.0
    assert rows[0]["error"] == ""
    regression = json.loads((out_a / "sweep_regression.json").read_text())
    assert "groups" in regression


def _three_row_sweep(tmp_path, monkeypatch, cpus):
    """Sweep N = 6, 8, 10 of the base config as if `cpus` CPUs were
    available; returns the output directory and sweep_timing.json, whose
    task list holds each stage of each row exactly once, in start order."""
    obj = base_config()
    obj["grid"]["N"] = [6, 8, 10]
    path = tmp_path / "three.json"
    path.write_text(json.dumps(obj))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    out = tmp_path / f"cpus{cpus}"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # gamma = 0.3 is exploratory
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    timing = json.loads((out / "sweep_timing.json").read_text())
    assert timing["workers"] == cpus
    assert [r["N"] for r in timing["rows"]] == [6, 8, 10]
    tasks = timing["tasks"]
    assert sorted((t["row"], t["stage"]) for t in tasks) == [
        (row, stage) for row in range(3) for stage in ("ball", "rate")]
    starts = [t["start_s"] for t in tasks]
    assert starts == sorted(starts)
    assert len({t["pid"] for t in tasks}) == cpus
    return out, timing


def test_sweep_output_does_not_depend_on_the_worker_count(tmp_path,
                                                          monkeypatch):
    """With two CPUs the caller runs task 0 (the first row's ball stage)
    and the forked helper task 1 (the second row's), then each takes the
    next free task; with three CPUs two helpers do; one CPU starts no
    process. All three write the same bytes."""
    forked, timing = _three_row_sweep(tmp_path, monkeypatch, 2)
    rows = timing["rows"]
    assert rows[0]["ball_pid"] == os.getpid() != rows[1]["ball_pid"]
    three, _ = _three_row_sweep(tmp_path, monkeypatch, 3)

    def no_processes(*args, **kwargs):
        raise AssertionError("a one-CPU sweep must not start a process")

    monkeypatch.setattr(os, "fork", no_processes)
    alone, timing = _three_row_sweep(tmp_path, monkeypatch, 1)
    assert {t["pid"] for t in timing["tasks"]} == {os.getpid()}
    for name in ("sweep.csv", "sweep_regression.json"):
        assert (forked / name).read_bytes() == (alone / name).read_bytes()
        assert (three / name).read_bytes() == (alone / name).read_bytes()


def test_sweep_workers_stop_at_two_per_row(monkeypatch):
    """A row has two tasks, so more CPUs than that leave the rest idle."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
    assert [cli._sweep_workers(rows) for rows in (1, 3, 8, 9)] == [
        2, 6, 16, 16]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert cli._sweep_workers(3) == 1


def test_sweep_workers_take_each_task_once(tmp_path, monkeypatch):
    """Four workers, more than a small host has CPUs, drain 20,000 trivial
    tasks through the task pipe: each task runs exactly once, and each
    worker runs its own first task. Every run appends its task index to
    one file, whose appends do not interleave."""
    log = os.open(tmp_path / "runs", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def record(cfg, task, stage):
        os.write(log, task.to_bytes(4, "little"))
        return os.getpid()

    monkeypatch.setattr(cli, "_sweep_task", record)
    try:
        pids = cli._run_sweep_tasks(None, [(j, "ball")
                                           for j in range(20000)], 4)
    finally:
        os.close(log)
    runs = np.frombuffer((tmp_path / "runs").read_bytes(), dtype="<i4")
    assert np.array_equal(np.bincount(runs, minlength=20000), [1] * 20000)
    assert pids[0] == os.getpid()
    assert len(set(pids[:4])) == 4


def test_a_helper_that_dies_fails_the_sweep(monkeypatch):
    """A helper that exits in the middle of a task makes the sweep raise a
    RuntimeError that names its pid, and the caller reaps every helper it
    forked, the dead one and the others, before raising."""
    parent = os.getpid()

    def dying(cfg, task, stage):
        if task == 1 and os.getpid() != parent:
            os._exit(3)
        return os.getpid()

    monkeypatch.setattr(cli, "_sweep_task", dying)
    with pytest.raises(RuntimeError, match=r"sweep helper (\d+) exited") \
            as excinfo:
        cli._run_sweep_tasks(None, [(j, "ball") for j in range(40)], 3)
    pid = int(excinfo.value.args[0].split()[2])
    assert pid != parent
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_reports_what_happens_in_helper_rows(tmp_path, monkeypatch,
                                                   capsys):
    """With three CPUs the two helpers start with the ball stages of the
    N = 8 and N = 10 rows: the first fails and the second warns. The
    failure leaves that row's rate intact, and each stderr line appears
    once, under its own row's label."""
    parent = os.getpid()
    real = cli._ball_estimate

    def planted(cfg, params, mu):
        if os.getpid() != parent:
            if params.N == 8:
                raise ValueError("planted failure")
            warnings.warn("planted warning")
        return real(cfg, params, mu)

    monkeypatch.setattr(cli, "_ball_estimate", planted)
    out, timing = _three_row_sweep(tmp_path, monkeypatch, 3)
    assert timing["rows"][1]["ball_s"] is None
    assert timing["rows"][1]["ball_pid"] is None
    assert timing["rows"][1]["rate_s"] is not None
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert math.isnan(float(rows[1]["p_hat"]))
    assert math.isfinite(float(rows[1]["rate_value"]))
    assert rows[1]["error"] == "planted failure"
    for row in (rows[0], rows[2]):
        assert row["error"] == ""
        assert math.isfinite(float(row["p_hat"]))
        assert math.isfinite(float(row["rate_value"]))
    err = capsys.readouterr().err
    assert err.count("planted failure") == 1
    assert err.count("row (N=8, gamma=0.3, lambda=0.05) failed: "
                     "planted failure") == 1
    assert err.count("planted warning") == 1
    assert err.count("row (N=10, gamma=0.3, lambda=0.05) warned: "
                     "planted warning") == 1


def test_sweep_row_reports_both_failed_stages(config_path, tmp_path,
                                              monkeypatch, capsys):
    """Each stage fills its own columns; when both fail, `error` joins
    their texts, the ball stage's first."""
    def failing(text):
        def stage(*args, **kwargs):
            raise ValueError(text)
        return stage

    monkeypatch.setattr(cli, "_ball_estimate", failing("ball broke"))
    monkeypatch.setattr(cli, "_rate_for", failing("rate broke"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # gamma = 0.3 is exploratory
        assert main(["sweep", "--config", str(config_path),
                     "--out", str(out)]) == 0
    with open(out / "sweep.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["error"] == "ball broke; rate broke"
    assert math.isnan(float(row["p_hat"]))
    assert math.isnan(float(row["rate_value"]))
    (timing,) = json.loads((out / "sweep_timing.json").read_text())["rows"]
    assert [timing[key] for key in ("ball_pid", "ball_s", "rate_pid",
                                    "rate_s")] == [None] * 4
    err = capsys.readouterr().err
    assert err.count("row (N=8, gamma=0.3, lambda=0.05) failed: "
                     "ball broke; rate broke") == 1


def test_sweep_helpers_do_not_repeat_buffered_output(tmp_path):
    """Text the caller printed before a sweep forks its helpers is written
    once: stdout into a pipe is block-buffered, and a helper flushes its
    copy of the buffers when it exits."""
    obj = base_config()
    obj["grid"]["N"] = [6, 8]
    path = tmp_path / "two.json"
    path.write_text(json.dumps(obj))
    script = "\n".join([
        "import os, sys, warnings",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "from mesogas.cli import main",
        "warnings.simplefilter('ignore')",
        "print('printed before the sweep')",
        f"sys.exit(main(['sweep', '--config', {str(path)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]))"])
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("printed before the sweep") == 1
    timing = json.loads((tmp_path / "out" / "sweep_timing.json").read_text())
    assert timing["workers"] == 2


def test_seed_override_changes_the_report(config_path, tmp_path):
    out = tmp_path / "out"
    main(["verify", "--config", str(config_path), "--seed", "99",
          "--out", str(out)])
    report = json.loads((out / "verify.json").read_text())
    assert report["seed"] == 99


def test_regress_speeds_recovers_a_planted_exponent():
    d, slope, amp = 3, 0.85, 0.04
    rows = []
    for n in (16, 32, 64, 128):
        p = math.exp(-amp * n ** slope)
        rows.append({"N": n, "gamma": 0.3, "lambda": 0.05, "p_hat": p,
                     "stderr": math.sqrt(p * (1 - p) / 4096)})
    # rows with no information must be ignored, not crash the fit
    rows.append({"N": 256, "gamma": 0.3, "lambda": 0.05, "p_hat": 0.0,
                 "stderr": 0.0})
    rows.append({"N": 512, "gamma": 0.3, "lambda": 0.05, "p_hat": math.nan,
                 "stderr": math.nan})
    result = regress_speeds(rows, d)
    (group,) = result["groups"]
    assert group["points"] == 4
    assert group["exponent"] == pytest.approx(slope, abs=0.05)
    assert group["closer_to"] == "super"
    assert group["exponent_super"] == pytest.approx(1 - 0.05 * d)
    assert group["exponent_sub"] == pytest.approx(2 - 5 * 0.05)


def test_regress_speeds_needs_two_informative_points():
    rows = [{"N": 16, "gamma": 0.3, "lambda": 0.05, "p_hat": 0.5,
             "stderr": 0.01}]
    assert regress_speeds(rows, 3) == {"groups": []}
