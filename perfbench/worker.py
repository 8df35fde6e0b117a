"""One benchmark repetition, run in a fresh process by ``run.py``.

    python3 perfbench/worker.py --workload NAME --config PATH --seed N \
        --out DIR --result FILE --spawned-at T [--trace]

Set-up (imports of mesogas, numpy and scipy, then the CLI's own config
load and validation, ``cli.load_config``) is timed from ``--spawned-at``,
the parent's ``time.monotonic()`` just before it started this process.
``cli.main`` loads the config again inside the timed workload calls; that
takes about 0.1 ms, so the split between set-up and workload is not moved
by it. The workload's calls are timed with nothing else in the interval;
the checks on their outputs run afterwards. The result file holds the
timings, peak RSS, the outputs compared across repetitions and against the
reference, one entry per operation with its failure reason, and, with
``--trace``, the spans and per-layer metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from mesogas import (cli, construction, coulomb, equilibrium, grids, kernels,
                     rates, sampler)

MODULES = {"cli": cli, "sampler": sampler, "kernels": kernels, "grids": grids,
           "coulomb": coulomb, "equilibrium": equilibrium, "rates": rates,
           "construction": construction}


# ---------------------------------------------------------------------------
# timed workload calls
# ---------------------------------------------------------------------------

def _cli(command: str, config: Path, seed: int, out: Path) -> int:
    return cli.main([command, "--config", str(config), "--seed", str(seed),
                     "--out", str(out)])


def _sweep(config, seed, out):
    return {"rc": {"sweep": _cli("sweep", config, seed, out)}}


def _construct(config, seed, out):
    return {"rc": {"construct": _cli("construct", config, seed, out)}}


RUNNERS = {"sweep_energy": _sweep, "construct": _construct}


# ---------------------------------------------------------------------------
# checks on the outputs (untimed)
# ---------------------------------------------------------------------------

class Ledger:
    """Operations of one repetition and the outputs they produced."""

    def __init__(self):
        self.ops: list[dict] = []
        self.outputs: dict[str, float] = {}

    def op(self, name: str, problem: str | None = None) -> bool:
        self.ops.append({"name": name, "ok": problem is None,
                         "problem": problem})
        return problem is None

    def load(self, name: str, path: Path):
        if not path.exists():
            self.op(name, f"{path.name} was not written")
            return None
        return json.loads(path.read_text())


def _check_sweep(ledger, done, out):
    rows = []
    if ledger.op("cli.sweep", None if done["rc"]["sweep"] == 0
                 else f"exit code {done['rc']['sweep']}"):
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    for row in rows:
        tag = f"N{row['N']}"
        p_hat, rate = float(row["p_hat"]), float(row["rate_value"])
        problem = None
        if math.isnan(p_hat) or math.isnan(rate):
            problem = "row recorded NaN (the sweep swallowed an exception)"
        elif not 0.0 <= p_hat <= 1.0:
            problem = f"p_hat {p_hat} outside [0, 1]"
        ledger.op(f"row {tag}", problem)
        ledger.outputs[f"{tag}.p_hat"] = p_hat
        ledger.outputs[f"{tag}.rate_value"] = rate


def _check_construct(ledger, done, out):
    rc = done["rc"]["construct"]
    ledger.op("cli.construct", None if rc == 0 else f"exit code {rc}")
    rep = ledger.load("construction", out / "construction.json")
    if rep is None:
        return
    pts = np.asarray(rep["points"], dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    min_sep = float(dist.min())
    problem = None
    if not (rep["separation_ok"] and rep["boundary_ok"]):
        problem = (f"certificate false: separation_ok={rep['separation_ok']}"
                   f" boundary_ok={rep['boundary_ok']}")
    elif not min_sep >= rep["tau_min"]:
        problem = f"points {min_sep} apart, below tau_min {rep['tau_min']}"
    ledger.op("construction", problem)
    for key in ("bl_to_target", "energy_gap", "max_potential_gap",
                "log_volume_estimate", "min_separation", "tau_min"):
        ledger.outputs[f"construction.{key}"] = rep[key]


CHECKS = {"sweep_energy": _check_sweep, "construct": _check_construct}


# ---------------------------------------------------------------------------
# facts about the interpreter and libraries this repetition ran with
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, if it is the scipy-openblas build."""
    import ctypes
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)),
                     "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return None


def facts() -> dict:
    import importlib.util
    import platform
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "blas_thread_env": {k: os.environ[k] for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "numba_enabled": bool(kernels.NUMBA_ENABLED)}


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

def run_rep(workload: str, config: Path, seed: int, out: Path,
            trace: bool = False, started: float | None = None) -> dict:
    """Run one repetition in this process and return its result record.

    ``started`` is the monotonic time set-up began (defaults to now, which
    makes ``setup_s`` the config load alone).
    """
    if started is None:
        started = time.monotonic()
    cli.load_config(str(config))
    out.mkdir(parents=True, exist_ok=True)

    tracer = None
    if trace:
        from spans import Tracer, layer_metrics
        tracer = Tracer(run_id=f"{workload}-{seed}-{out.name}")
        tracer.install(MODULES)
    t0 = time.monotonic()
    cpu0 = time.process_time()
    try:
        done = RUNNERS[workload](Path(config), seed, out)
    finally:
        wall = time.monotonic() - t0
        cpu = time.process_time() - cpu0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()

    ledger = Ledger()
    CHECKS[workload](ledger, done, out)
    if tracer is not None:
        for span in tracer.spans:
            if span.get("converged") is False:
                ledger.op(f"traced {span['name']}", "converged=False")
    result = {"setup_s": t0 - started, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": peak_kb / 1024.0,
              "ops": ledger.ops, "outputs": ledger.outputs,
              "facts": facts()}
    if tracer is not None:
        result["metrics"] = layer_metrics(tracer.spans)
        result["spans"] = tracer.spans
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spawned-at", required=True, type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = run_rep(args.workload, args.config, args.seed, args.out,
                     trace=args.trace, started=args.spawned_at)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
