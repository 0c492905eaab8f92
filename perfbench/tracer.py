"""Spans around the public functions of each ararps module, set from outside.

``install`` wraps each function in ``TRACED`` and rebinds every name that
refers to it in every ``ararps`` module.  Rebinding only the defining module
would miss callers that bound the name with ``from ... import``.  Methods
are wrapped on their class.

Spans are aggregated as they close: per name the call count, inclusive time
(outermost span of a recursion only) and self time (span minus its child
spans), and per (parent, child) edge the calls and inclusive time.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute); a "Class.method" attribute is a method
TRACED = [
    ("special.gamma", "special", "gamma"),
    ("special.frac_series", "special", "frac_cosh_series"),
    ("special.frac_series", "special", "frac_sinh_series"),
    ("hypalg.HypExpr.add", "hypalg", "HypExpr.__add__"),
    ("hypalg.HypExpr.mul", "hypalg", "HypExpr.__mul__"),
    ("hypalg.HypExpr.scale", "hypalg", "HypExpr.scale"),
    ("hypalg.HypExpr.diff", "hypalg", "HypExpr.diff"),
    ("hypalg.HypExpr.of", "hypalg", "HypExpr.of"),
    ("hypalg.HypExpr.eval", "hypalg", "HypExpr.__call__"),
    ("fpseries.FracSeries.add", "fpseries", "FracSeries.__add__"),
    ("fpseries.series_mul", "fpseries", "series_mul"),
    ("fpseries.series_pow", "fpseries", "series_pow"),
    ("fpseries.series_spatial_diff", "fpseries", "series_spatial_diff"),
    ("fpseries.series_eval", "fpseries", "series_eval"),
    ("solver.solve", "solver", "solve"),
    ("solver.residual_check", "solver", "residual_check"),
    ("solver.apply_operator", "solver", "apply_operator"),
    ("solver.exact_solution", "solver", "exact_solution"),
    ("caputo.caputo_numeric", "caputo", "caputo_numeric"),
    ("caputo.rl_integral_numeric", "caputo", "rl_integral_numeric"),
    ("ara.ara_numeric", "ara", "ara_numeric"),
    ("ara.verify_property", "ara", "verify_property"),
    ("bench.make_table", "bench", "make_table"),
    ("bench.emit_surface", "bench", "emit_surface"),
    ("bench.run_validation", "bench", "run_validation"),
]


class Stat:
    __slots__ = ("calls", "incl", "self_s", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        # open spans: [name, time covered by closed child spans]
        self.stack: list[list] = [["<root>", 0.0]]
        self.eval_us: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, after=None):
        stat = self.stats[name]
        stack, edges, clock = self.stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            stat.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - frame[1]
                if not stat.active:
                    stat.incl += dt
                parent = stack[-1]
                parent[1] += dt
                edge = edges[(parent[0], name)]
                edge[0] += 1
                edge[1] += dt
            if after is not None:
                t1 = clock()
                after(self, args, result, dt)
                stack[-1][1] += clock() - t1  # keep hook time out of the parent's self time
            return result

        return traced

    def summary(self) -> dict:
        return {
            "spans": {k: {"calls": s.calls, "s": s.incl, "self_s": s.self_s}
                      for k, s in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "calls": n, "s": t}
                      for (p, c), (n, t) in sorted(self.edges.items())],
            "counts": dict(self.counts),
        }


def _after_solve(tr: Tracer, args, result, dt) -> None:
    sizes = [len(c.terms) for c in result.series.coeffs]
    tr.counts["solver.coeff_terms.max"] = max(tr.counts["solver.coeff_terms.max"], max(sizes))
    tr.counts["solver.coeff_terms.sum"] += sum(sizes)


def _after_mul(tr: Tracer, args, result, dt) -> None:
    a, b = args[0].coeffs, args[1].coeffs
    tr.counts["fpseries.series_mul.pairs"] += sum(
        len(a[m].terms) * len(b[n - m].terms) for n in range(len(result.coeffs)) for m in range(n + 1)
    )
    tr.counts["fpseries.series_mul.out_terms"] += sum(len(c.terms) for c in result.coeffs)


def _after_eval(tr: Tracer, args, result, dt) -> None:
    tr.eval_us.append(dt * 1e6)


AFTER = {"solver.solve": _after_solve, "fpseries.series_mul": _after_mul,
         "fpseries.series_eval": _after_eval}


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED and rebind all names that refer to it."""
    modules = [m for k, m in sorted(sys.modules.items()) if k == "ararps" or k.startswith("ararps.")]
    for name, mod_name, attr in TRACED:
        owner = importlib.import_module(f"ararps.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(tracer.wrap(name, raw.__func__, AFTER.get(name))))
            else:
                setattr(cls, meth, tracer.wrap(name, raw, AFTER.get(name)))
            continue
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(name, orig, AFTER.get(name))
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
    # the click group is an object: CliRunner.invoke calls its ``main``
    cli = importlib.import_module("ararps.bench").cli
    cli.main = tracer.wrap("bench.cli", cli.main)


def per_layer(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json that the trace provides."""
    st, counts = tracer.stats, tracer.counts
    out: dict[str, float] = {}

    def put(name: str, *fields: str) -> None:
        s = st[name]
        for f in fields:
            out[f"{name}.{f}"] = {"calls": s.calls, "s": s.incl, "self_s": s.self_s}[f]

    put("solver.solve", "calls", "s")
    residual_in_solve = tracer.edges[("solver.solve", "solver.residual_check")][1]
    out["solver.recursion.s"] = st["solver.solve"].incl - residual_in_solve
    put("solver.residual_check", "calls", "s")
    put("solver.apply_operator", "calls", "s")
    out["solver.coeff_terms.max"] = counts["solver.coeff_terms.max"]
    out["solver.coeff_terms.sum"] = counts["solver.coeff_terms.sum"]
    put("solver.exact_solution", "calls", "s")
    put("fpseries.series_mul", "calls", "self_s")
    pairs, out_terms = counts["fpseries.series_mul.pairs"], counts["fpseries.series_mul.out_terms"]
    out["fpseries.series_mul.pairs"] = pairs
    out["fpseries.series_mul.out_terms"] = out_terms
    out["fpseries.series_mul.merge_ratio"] = pairs / out_terms if out_terms else 0.0
    put("fpseries.series_pow", "calls", "s")
    put("fpseries.series_spatial_diff", "calls", "self_s")
    put("fpseries.FracSeries.add", "calls", "self_s")
    put("fpseries.series_eval", "calls", "self_s")
    if len(tracer.eval_us) >= 2:
        q = statistics.quantiles(tracer.eval_us, n=100, method="inclusive")
        out["fpseries.series_eval.p50_us"], out["fpseries.series_eval.p99_us"] = q[49], q[98]
    else:
        out["fpseries.series_eval.p50_us"] = out["fpseries.series_eval.p99_us"] = (
            tracer.eval_us[0] if tracer.eval_us else 0.0)
    for meth in ("add", "mul", "scale", "diff", "of", "eval"):
        put(f"hypalg.HypExpr.{meth}", "calls", "self_s")
    put("special.gamma", "calls", "self_s")
    put("special.frac_series", "calls", "s")
    put("caputo.caputo_numeric", "calls", "s")
    put("caputo.rl_integral_numeric", "calls", "self_s")
    put("ara.ara_numeric", "calls", "self_s")
    put("ara.verify_property", "calls", "s")
    put("bench.make_table", "calls", "s")
    put("bench.emit_surface", "calls", "s")
    put("bench.run_validation", "s")
    put("bench.cli", "s")
    return out
