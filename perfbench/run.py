"""mesogas benchmark: time two CLI workloads end to end, check their outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from ``src/``. The
workloads are the configs in ``perfbench/workloads`` (each records why it
was chosen). Every repetition runs in a fresh process (``worker.py``), so
imports and module caches are paid as a command-line user pays them, and
repetitions follow one another in a closed loop with one caller until
``--seconds`` have passed (at least three of them). Long runs of few
workloads are what keep a run's medians steady on a shared host, whose
speed drifts by tens of percent over seconds to minutes. Repetition i
draws its inputs from the seed ``100 * seed + i``, so a run's medians
cover several inputs: the LP solve time of one construction varies by
about 10% from seed to seed.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones: medians over the repetitions of set-up
time, workload wall time and peak RSS, and the share of operations that
did not fail. With ``--trace 1`` untraced and traced repetitions alternate
and the metrics are the per-layer ones derived from the traced spans, plus
the CPU use of the untraced repetitions and the tracing overhead. Metric
names and units are those of ``BENCHMARK.json``.

The line before it lists machine and code facts. Full records (every
repetition, every failed operation, and the spans of traced repetitions)
are written to ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

WORKLOADS = ("sweep_energy", "construct")
DEFAULT_SEED = 0
MIN_REPS = 3
RUN_LIMIT_S = 165.0     # a run must end within 180 s

PROCESS_METRICS = ("proc.cpu_s", "proc.cpu_util", "trace.overhead_s")


def metric_units(trace: bool) -> dict[str, str]:
    """The metrics a run prints, with their units, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# comparing outputs
# ---------------------------------------------------------------------------

def tolerance(key: str) -> tuple[str, float]:
    """How an output must match the reference under a pure refactor."""
    if key.endswith("p_hat"):
        return "exact", 0.0
    if "bl_" in key:
        return "abs", 1e-9
    return "rel", 1e-6


def mismatch(key: str, got: float, want: float) -> str | None:
    kind, tol = tolerance(key)
    if kind == "exact":
        ok = got == want
    elif kind == "abs":
        ok = abs(got - want) <= tol
    else:
        ok = abs(got - want) <= tol * max(abs(want), 1e-300)
    return None if ok else f"{key}: {got!r} against reference {want!r}"


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

class Run:
    """The repetitions of one benchmark run and the operations they did."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.config = HERE / "workloads" / f"{workload}.json"
        self.work = STATE / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.reps: list[dict] = []
        self.ops: list[dict] = []
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def op(self, name: str, problem: str | None) -> None:
        self.ops.append({"name": name, "ok": problem is None,
                         "problem": problem})
        if problem is not None:
            print(f"{name} failed: {problem}", file=sys.stderr)

    def repeat(self, trace: bool, seed: int) -> dict | None:
        """Run one repetition in a fresh process; None if it failed."""
        idx = len(self.reps)
        out = self.work / f"rep{idx}"
        result_path = self.work / f"rep{idx}.json"
        log_path = self.work / f"rep{idx}.log"
        self.work.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--config", str(self.config),
               "--seed", str(seed), "--out", str(out),
               "--result", str(result_path)] + (["--trace"] if trace else [])
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)],
                                    stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - spawned))
            except subprocess.TimeoutExpired:
                rc = "timeout"
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        shutil.rmtree(out, ignore_errors=True)
        if rc != 0 or not result_path.exists():
            tail = log_path.read_text()[-2000:]
            print(f"repetition {idx} failed ({rc}):\n{tail}", file=sys.stderr)
            self.op(f"repetition {idx}", f"worker ended with {rc}")
            self.reps.append({"trace": trace, "seed": seed, "failed": True})
            return None
        rep = json.loads(result_path.read_text())
        rep["trace"] = trace
        rep["seed"] = seed
        self.reps.append(rep)
        for op in rep["ops"]:
            self.op(f"repetition {idx}: {op['name']}", op["problem"])
        return rep

    def good(self, trace: bool) -> list[dict]:
        return [r for r in self.reps
                if not r.get("failed") and r["trace"] == trace]

    def check_outputs(self, reference: dict | None) -> None:
        """Traced outputs equal untraced ones; the reference at its seed."""
        plain = {r["seed"]: r["outputs"] for r in self.good(trace=False)}
        for rep in self.good(trace=True):
            self.op(f"traced repetition, seed {rep['seed']}",
                    None if rep["outputs"] == plain.get(rep["seed"]) else
                    "traced outputs differ from the untraced ones")
        if reference is None or reference["seed"] not in plain:
            return
        got = plain[reference["seed"]]
        for key, want in sorted(reference["outputs"].items()):
            self.op(f"reference {key}", mismatch(key, got[key], want)
                    if key in got else "output missing")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def median_of(reps: list[dict], key: str) -> float:
    return float(statistics.median(r[key] for r in reps))


def end_to_end(run: Run) -> dict[str, float]:
    reps = run.good(trace=False)
    failed = sum(not op["ok"] for op in run.ops)
    return {"setup_s": median_of(reps, "setup_s"),
            "wall_s": median_of(reps, "wall_s"),
            "peak_rss_mb": median_of(reps, "peak_rss_mb"),
            "ok_ratio": 1.0 - failed / len(run.ops)}


def per_layer(run: Run) -> dict[str, float]:
    plain, traced = run.good(trace=False), run.good(trace=True)
    names = traced[0]["metrics"].keys()
    out = {k: float(statistics.median(r["metrics"][k] for r in traced))
           for k in names}
    wall = median_of(plain, "wall_s")
    out["proc.cpu_s"] = median_of(plain, "cpu_s")
    out["proc.cpu_util"] = out["proc.cpu_s"] / wall
    out["trace.overhead_s"] = median_of(traced, "wall_s") - wall
    return out


def predictions(workload: str, m: dict[str, float], traced_wall: float
                ) -> list[dict]:
    """The layer predictions the benchmark was defined with, checked."""
    timed = {k: v for k, v in m.items() if k.endswith(".s")}

    def largest(name):
        return max(timed, key=timed.get) == name

    claims = {
        "sweep_energy": [
            ("grids.bl_distance has no calls",
             m["grids.bl_distance.calls"] == 0),
            ("kernels.run_chain_quadratic is the largest timed share",
             largest("kernels.run_chain_quadratic.s"))],
        "construct": [("grids.bl_distance is most of the traced wall time",
                       m["grids.bl_distance.s"] > 0.5 * traced_wall)],
    }
    return [{"claim": c, "held": bool(h)} for c, h in claims[workload]]


# ---------------------------------------------------------------------------
# facts
# ---------------------------------------------------------------------------

def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "mesogas").glob("*.py")))


def facts(run: Run) -> dict:
    reps = [r for r in run.reps if "facts" in r]
    out = dict(reps[0]["facts"]) if reps else {}
    out.update({"nproc": os.cpu_count(),
                "cpus_available": len(os.sched_getaffinity(0)),
                "src_lines": src_lines(), "workload": run.workload,
                "seed": run.seed,
                "repetitions": len(run.good(False)),
                "traced_repetitions": len(run.good(True))})
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()

    if not (SRC / "mesogas" / "cli.py").is_file():
        print(f"no mesogas sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # the build: byte-compile the package once, so no repetition pays it
    build = subprocess.run([sys.executable, "-m", "compileall", "-q",
                            str(SRC / "mesogas")], capture_output=True,
                           text=True)
    if build.returncode != 0:
        print(f"compileall failed:\n{build.stdout}{build.stderr}",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, start + RUN_LIMIT_S)
    trace = bool(args.trace)
    try:
        longest = 0.0
        for i in range(100):
            began = time.monotonic()
            run.repeat(trace=False, seed=100 * args.seed + i)
            if trace:
                run.repeat(trace=True, seed=100 * args.seed + i)
            now = time.monotonic()
            longest = max(longest, now - began)
            rounds = len(run.good(False))
            enough = now - start >= args.seconds and (
                rounds >= (2 if trace else MIN_REPS))
            if enough or now + 1.5 * longest >= run.deadline:
                break
        if not run.good(False) or (trace and not run.good(True)):
            print("no repetition completed; no metrics", file=sys.stderr)
            return 1
        ref_path = HERE / "reference" / f"{args.workload}.json"
        reference = (json.loads(ref_path.read_text())
                     if ref_path.exists() else None)
        run.check_outputs(reference)
        metrics = per_layer(run) if trace else end_to_end(run)
        checked = (predictions(args.workload, metrics,
                               median_of(run.good(True), "wall_s"))
                   if trace else [])
        record = {"facts": facts(run), "metrics": metrics,
                  "predictions": checked,
                  "failed_ops": [op for op in run.ops if not op["ok"]],
                  "reps": [{k: v for k, v in r.items() if k != "spans"}
                           for r in run.reps]}
        results = STATE / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
        if trace:
            spans = [s for r in run.good(True) for s in r["spans"]]
            (results / f"{stem}-spans.json").write_text(json.dumps(spans))
        failed = len(record["failed_ops"])
    finally:
        run.close()

    units = metric_units(trace)
    for p in record["predictions"]:
        print(f"prediction {'held' if p['held'] else 'FAILED'}: {p['claim']}")
    print("facts " + json.dumps(record["facts"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(run.ops), "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
