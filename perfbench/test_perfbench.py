"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

They cover span self-time arithmetic, failure counting, metric names
against BENCHMARK.json, output tolerances, a tiny run of each workload
(untraced and traced, in this process), and the refusal to run without
the package sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

TINY = {
    "sweep_energy": {"grid": {"N": [8]},
                     "solver": {"cells_per_axis": 8, "window_cells": 4,
                                "exterior_factor": 2},
                     "sampler": {"chains": 1, "steps": 200, "burn_in": 100}},
    "construct": {"construction": {"N": 27, "cube_size": 0.5,
                                   "target_cells": 4, "volume_trials": 1}},
}


def _merged(base: dict, patch: dict) -> dict:
    out = dict(base)
    for key, value in patch.items():
        out[key] = (_merged(base[key], value) if isinstance(value, dict)
                    and isinstance(base.get(key), dict) else value)
    return out


def tiny_config(tmp_path, workload: str, extra: dict | None = None) -> Path:
    base = json.loads((HERE / "workloads" / f"{workload}.json").read_text())
    cfg = _merged(_merged(base, TINY[workload]), extra or {})
    path = tmp_path / f"{workload}.json"
    path.write_text(json.dumps(cfg))
    return path


def span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run": "t", **attrs}


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    tree = [span("cli.main", 0.0, 10.0),
            span("sampler.ball_membership", 1.0, 3.0, parent=0),
            span("grids.bl_distance", 1.5, 2.5, parent=1, sites=7),
            span("coulomb.energy", 2.0, 5.0, parent=0),     # overlaps [1, 3]
            span("grids.mass", 9.5, 11.0, parent=0)]        # ends late
    assert spans.self_times(tree) == pytest.approx([5.5, 1.0, 1.0, 3.0, 1.5])
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(5.5)
    assert m["grids.self_s"] == pytest.approx(2.5)
    assert m["grids.bl_distance.calls"] == 1
    assert m["grids.bl_distance.sites_max"] == 7
    assert m["sampler.ball_membership.s"] == pytest.approx(2.0)


def test_nested_calls_of_one_function_count_their_time_once():
    tree = [span("coulomb.energy", 0.0, 4.0),
            span("coulomb.GridKernel.potential", 0.5, 3.0, parent=0),
            span("coulomb.GridKernel.potential", 1.0, 2.0, parent=1)]
    m = spans.layer_metrics(tree)
    assert m["coulomb.GridKernel.potential.calls"] == 2
    assert m["coulomb.GridKernel.potential.s"] == pytest.approx(2.5)
    assert m["coulomb.self_s"] == pytest.approx(4.0)


def test_tracer_patches_every_binding_and_restores_them():
    from mesogas import cli, construction, grids, sampler
    original = grids.bl_distance
    tracer = spans.Tracer("t")
    tracer.install(worker.MODULES)
    try:
        for mod in (grids, sampler, cli, construction):
            assert mod.bl_distance is not original
            assert mod.bl_distance.__wrapped__ is original
    finally:
        tracer.uninstall()
    for mod in (grids, sampler, cli, construction):
        assert mod.bl_distance is original


# ---------------------------------------------------------------------------
# failures, names, tolerances
# ---------------------------------------------------------------------------

def test_an_infeasible_t_target_counts_as_a_failed_row(tmp_path):
    # the equilibrium density on the unit window holds 1.91 mass, above the
    # dilated thermal mass 16^0.15 = 1.52, so t_rate raises and the row is
    # NaN (on the committed solver lattices; an 8-cell thermal solve is too
    # coarse to show it)
    committed = json.loads((HERE / "workloads" / "sweep_energy.json").read_text())
    config = tiny_config(tmp_path, "sweep_energy",
                         {"grid": {"N": [16]}, "target": {"value": None},
                          "solver": committed["solver"]})
    rep = worker.run_rep("sweep_energy", config, 0, tmp_path / "out")
    failed = [op for op in rep["ops"] if not op["ok"]]
    assert [op["name"] for op in failed] == ["row N16"]
    assert "NaN" in failed[0]["problem"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    all_names = [w["name"] for w in spec["workloads"]] + [
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(name_re.match(n) for n in all_names)
    assert len(set(all_names)) == len(all_names)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    e2e, layer = run.metric_units(trace=False), run.metric_units(trace=True)
    assert sorted(e2e) == ["ok_ratio", "peak_rss_mb", "setup_s", "wall_s"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    produced = list(spans.layer_metrics([])) + list(run.PROCESS_METRICS)
    assert sorted(layer) == sorted(produced)
    assert all(unit_re.match(u) for u in list(e2e.values()) + list(layer.values()))


def test_reference_tolerances():
    assert run.mismatch("N16.p_hat", 0.25, 0.25) is None
    assert run.mismatch("N16.p_hat", 0.25, 0.25 + 1e-15) is not None
    assert run.mismatch("construction.bl_to_target", 0.2 + 5e-10, 0.2) is None
    assert run.mismatch("construction.bl_to_target", 0.2 + 2e-9, 0.2)
    assert run.mismatch("N16.rate_value", 1.0 + 5e-7, 1.0) is None
    assert run.mismatch("N16.rate_value", 1.0 + 2e-6, 1.0)


# ---------------------------------------------------------------------------
# tiny runs
# ---------------------------------------------------------------------------

EXERCISED = {"sweep_energy": "kernels.run_chain_quadratic.calls",
             "construct": "construction.place_points.s"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_of_each_workload(tmp_path, workload):
    config = tiny_config(tmp_path, workload)
    plain = worker.run_rep(workload, config, 3, tmp_path / "plain")
    traced = worker.run_rep(workload, config, 3, tmp_path / "traced",
                            trace=True)
    for rep in (plain, traced):
        assert [op for op in rep["ops"] if not op["ok"]] == []
    assert plain["outputs"] and traced["outputs"] == plain["outputs"]
    metrics = traced["metrics"]
    assert set(metrics) == set(spans.layer_metrics([]))
    assert metrics[EXERCISED[workload]] > 0
    assert metrics["cli.self_s"] > 0
    if workload == "sweep_energy":
        assert metrics["grids.bl_distance.calls"] == 0


def test_run_refuses_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
