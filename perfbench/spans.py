"""In-memory spans around the public functions of the mesogas modules.

A traced repetition installs a ``Tracer``: every public function of each
layer module is replaced, at every module that binds it, by a wrapper that
records a span (name, start, end, parent, run id) plus a few counts read
from the call's arguments or result. Spans stay in memory and are written
out when the repetition ends. ``layer_metrics`` turns them into the
per-layer metrics the benchmark reports.

Self time of a span is its duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import statistics
import time
import types

LAYERS = ("cli", "sampler", "kernels", "grids", "coulomb", "equilibrium",
          "rates", "construction")

# Per-call counts taken from arguments or results, keyed by span name.
# Each maps (args, kwargs, result) to a dict of numbers stored on the span.


def _bl_sites(args, kwargs, result):
    from mesogas.grids import _site_list
    return {"sites": sum(len(_site_list(m)[0]) for m in args[:2])}


def _chain_counts(args, kwargs, result):
    return {"proposals": len(args[6]), "accepted": int(result[0])}


def _solver_counts(args, kwargs, result):
    return {"iterations": int(result.iterations),
            "converged": bool(result.converged)}


def _rate_counts(args, kwargs, result):
    return {"iterations": int(result.iterations)}


OBSERVERS = {
    "grids.bl_distance": _bl_sites,
    "kernels.run_chain_quadratic": _chain_counts,
    "equilibrium.solve_thermal": _solver_counts,
    "rates.t_rate": _rate_counts,
}


class Tracer:
    """Records spans for one repetition; ``install`` patches the package."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        spans, stack, run_id = self.spans, self._stack, self.run_id

        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": stack[-1] if stack else None, "run": run_id}
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if observe is not None:
                span.update(observe(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Wrap each layer's public functions wherever they are bound.

        ``modules`` maps layer names to module objects. A function defined
        in one module and imported into others (``from .grids import
        bl_distance``) is replaced in every module that binds it, so no
        call escapes through a second name. ``GridKernel`` methods are
        patched on the class.
        """
        targets: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_")
                        and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    targets.setdefault(id(obj), (obj, f"{layer}.{attr}"))
        wrappers = {key: self.wrap(name, fn)
                    for key, (fn, name) in targets.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and obj is targets[id(obj)][0]:
                    self._patch(mod, attr, wrappers[id(obj)])
        kernel_cls = modules["coulomb"].GridKernel
        for method in ("__init__", "potential"):
            fn = vars(kernel_cls)[method]
            self._patch(kernel_cls, method,
                        self.wrap(f"coulomb.GridKernel.{method}", fn))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float
             ) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return [s["end"] - s["start"] - _covered(kids, s["start"], s["end"])
            for s, kids in zip(spans, children)]


def _outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans of `name` that have no ancestor of the same name."""
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and spans[p]["name"] != name:
            p = spans[p]["parent"]
        if p is None:
            out.append(s)
    return out


def _under(spans: list[dict], i: int, names: set) -> bool:
    p = spans[i]["parent"]
    while p is not None:
        if spans[p]["name"] in names:
            return True
        p = spans[p]["parent"]
    return False


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (see BENCHMARK.json)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def calls(name):
        return float(len(by_name.get(name, ())))

    def secs(name):
        return float(sum(s["end"] - s["start"]
                         for s in _outermost(spans, name)))

    def self_s(name):
        return float(sum(selfs[i] for i in by_name.get(name, ())))

    def attr_sum(name, key):
        return float(sum(spans[i].get(key, 0) for i in by_name.get(name, ())))

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(
            t for s, t in zip(spans, selfs)
            if s["name"].split(".", 1)[0] == layer))

    bl = "grids.bl_distance"
    bl_durs = [spans[i]["end"] - spans[i]["start"] for i in by_name.get(bl, ())]
    bl_sites = [spans[i]["sites"] for i in by_name.get(bl, ())]
    m[f"{bl}.calls"] = calls(bl)
    m[f"{bl}.s"] = secs(bl)
    m[f"{bl}.p50_s"] = float(statistics.median(bl_durs)) if bl_durs else 0.0
    m[f"{bl}.sites_max"] = float(max(bl_sites, default=0))
    m[f"{bl}.sites_mean"] = (float(statistics.fmean(bl_sites))
                             if bl_sites else 0.0)

    chain = "kernels.run_chain_quadratic"
    m[f"{chain}.calls"] = calls(chain)
    m[f"{chain}.s"] = secs(chain)
    m["sampler.gibbs_sample.self_s"] = self_s("sampler.gibbs_sample")
    proposals = attr_sum(chain, "proposals")
    accepted = attr_sum(chain, "accepted")
    sampling_s = secs("sampler.gibbs_sample")
    m["sampler.proposals"] = proposals
    m["sampler.proposals_per_s"] = proposals / sampling_s if sampling_s else 0.0
    m["sampler.acceptance_ratio"] = accepted / proposals if proposals else 0.0

    m["sampler.ball_membership.calls"] = calls("sampler.ball_membership")
    m["sampler.ball_membership.s"] = secs("sampler.ball_membership")
    m["coulomb.potential_at_points.s"] = secs("coulomb.potential_at_points")
    m["kernels.grid_potential_at_points.s"] = secs(
        "kernels.grid_potential_at_points")

    pot = "coulomb.GridKernel.potential"
    m[f"{pot}.calls"] = calls(pot)
    m[f"{pot}.s"] = secs(pot)
    builds = calls("coulomb.GridKernel.__init__")
    lookups = calls("coulomb.grid_kernel")
    m["coulomb.grid_kernel.builds"] = builds
    m["coulomb.grid_kernel.hit_ratio"] = (
        (lookups - builds) / lookups if lookups else 0.0)

    thermal = "equilibrium.solve_thermal"
    m[f"{thermal}.s"] = secs(thermal)
    iterations = m[f"{thermal}.iterations"] = attr_sum(thermal, "iterations")
    # each GridKernel.potential call is one forward and one inverse FFT
    solver_ffts = 2.0 * sum(1 for i in by_name.get(pot, ())
                            if _under(spans, i, {thermal}))
    m["equilibrium.ffts_per_iteration"] = (
        solver_ffts / iterations if iterations else 0.0)

    m["rates.t_rate.s"] = secs("rates.t_rate")
    m["rates.t_rate.iterations"] = attr_sum("rates.t_rate", "iterations")

    m["kernels.pairwise_g_sum.calls"] = calls("kernels.pairwise_g_sum")
    m["kernels.pairwise_g_sum.s"] = secs("kernels.pairwise_g_sum")
    m["kernels.min_pairwise_distance.s"] = secs("kernels.min_pairwise_distance")
    m["kernels.atoms_potential_on_grid.s"] = secs(
        "kernels.atoms_potential_on_grid")
    m["construction.place_points.s"] = secs("construction.place_points")
    m["construction.certify.self_s"] = self_s("construction.certify")
    m["construction.volume_estimate.s"] = secs("construction.volume_estimate")
    return m
