"""The benchmark's workloads: seeded inputs, the timed work, and its checks.

A workload is a list of units run in order in one fresh interpreter.  A unit
is some work against the public ararps API (timed), the number of
operations it performs (a solve, a checked output point or a CLI call), and
a check of its output against ``oracles`` (not timed).

Inputs depend only on the workload name and the seed.  ``make_inputs``
imports nothing from ararps, so the inputs can be built and inspected
without the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oracles

WORKLOADS = ("paper-repro", "multifreq-lattice", "multifreq-incommensurate", "validate-cli")

SURFACE_ALPHAS = (0.25, 0.5, 0.75, 1.0)
SURFACE_K = 24
SURFACE_POINTS = 21 * 21  # emit_surface's default grid
TABLE_ROWS = 24
TABLES = ((1, 2.0), (2, 2.0), (2, 0.5), (3, 2.0), (4, 2.0))

# D^alpha y = (y^2)_xx + y*y_x - 0.5*y^3, the generic multi-frequency spec
MULTIFREQ_RHS = {
    "node": "add",
    "terms": [
        {"node": "dx", "order": 2,
         "child": {"node": "pow", "exponent": 2, "child": {"node": "solution"}}},
        {"node": "mul", "left": {"node": "solution"},
         "right": {"node": "dx", "order": 1, "child": {"node": "solution"}}},
        {"node": "scale", "factor": -0.5,
         "child": {"node": "pow", "exponent": 3, "child": {"node": "solution"}}},
    ],
}
# b stays fixed: moving it changes which terms pruning drops, and with them
# the work.  Each IC frequency is an integer combination of the generators.
MULTIFREQ = {
    "multifreq-lattice": {"K": 7, "generators": (0.4,), "combos": ((1,), (2,), (3,))},
    "multifreq-incommensurate": {
        "K": 4, "generators": (0.4, 0.4 * math.sqrt(2.0)), "combos": ((1, 0), (0, 1), (1, 1)),
    },
}
ORACLE_POINTS = 3
TRANSFORM_CALLS = 8


@dataclass
class Unit:
    name: str
    ops: int
    work: Callable[[], Any]
    check: Callable[[Any], list[str]]


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs; the same (workload, seed) gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "paper-repro":
        tasks = [["table", ex, g] for ex, g in TABLES] + [["surface", ex, 2.0] for ex in (1, 2, 3, 4)]
        rng.shuffle(tasks)
        return {"tasks": tasks}
    if workload in MULTIFREQ:
        cfg = MULTIFREQ[workload]
        ic = []
        for combo in cfg["combos"]:
            freq = sum(c * g for c, g in zip(combo, cfg["generators"]))
            coeff = rng.uniform(0.4, 0.6) * rng.choice((-1.0, 1.0))
            ic.append({"kind": rng.choice(("cosh", "sinh")), "freq": freq, "coeff": coeff})
        # the last kind is the opposite of the first: these IC patterns give
        # the same number of terms at every order, so the work is the same
        # for every seed (on the lattice, the other patterns give fewer)
        ic[-1]["kind"] = "sinh" if ic[0]["kind"] == "cosh" else "cosh"
        spec = {"time_order": 1, "alpha": rng.uniform(0.6, 0.8), "rhs": MULTIFREQ_RHS, "ic_a": ic}
        xs = sorted(rng.uniform(-2.0, 2.0) for _ in range(ORACLE_POINTS))
        return {"spec": spec, "K": cfg["K"], "generators": len(cfg["generators"]), "xs": xs}
    if workload == "validate-cli":
        calls = [
            [rng.choice((0.0, 0.5, 1.0, 1.5, 2.0, 2.5)), rng.choice((1, 2)), round(rng.uniform(1.0, 10.0), 3)]
            for _ in range(TRANSFORM_CALLS)
        ]
        return {"transforms": calls}
    raise ValueError(f"unknown workload {workload!r}")


def _terms(expr) -> list[tuple[int, float, float]]:
    return [(int(k), f, c) for k, f, c in expr.terms]


def _surface_check(ex: int, paths: list[Path]) -> list[str]:
    bad = []
    for alpha in SURFACE_ALPHAS:
        path = next((p for p in paths if p.name == f"surface_ex{ex}_alpha{alpha:g}.dat"), None)
        if path is None:
            bad.append(f"ex{ex} alpha={alpha:g}: no surface file")
            if alpha == 1.0:
                bad.extend([f"ex{ex} alpha=1: point missing"] * SURFACE_POINTS)
            continue
        points = oracles.parse_surface(path.read_text())
        if len(points) != SURFACE_POINTS:
            bad.append(f"ex{ex} alpha={alpha:g}: {len(points)} points, want {SURFACE_POINTS}")
        if alpha == 1.0:
            bad.extend(oracles.check_surface(ex, points))
        elif oracles.check_initial_row(ex, points):
            bad.append(f"ex{ex} alpha={alpha:g}: " + oracles.check_initial_row(ex, points)[0])
    return bad


def build_units(workload: str, inputs: dict, ararps, out_dir: Path) -> list[Unit]:
    """Units that run ``inputs`` against the imported ``ararps`` package.

    Functions are looked up on their modules at call time, so that a tracer
    that rebinds them sees every call.
    """
    bench, solver = ararps.bench, ararps.solver
    units: list[Unit] = []
    if workload == "paper-repro":
        for kind, ex, g in inputs["tasks"]:
            if kind == "table":
                units.append(Unit(
                    f"table ex{ex} gamma={g:g}", 1 + TABLE_ROWS,
                    lambda ex=ex, g=g: [(r.x, r.t, r.numeric)
                                        for r in bench.make_table(ex, solver.ExampleParams(gamma=g))],
                    lambda pts, ex=ex, g=g: (oracles.check_table(ex, g, pts)
                                             + ([] if len(pts) == TABLE_ROWS else [f"{len(pts)} rows"])),
                ))
            else:
                units.append(Unit(
                    f"surface ex{ex}", len(SURFACE_ALPHAS) + SURFACE_POINTS,
                    lambda ex=ex: bench.emit_surface(ex, solver.ExampleParams(), SURFACE_ALPHAS,
                                                     SURFACE_K, out_dir=out_dir),
                    lambda paths, ex=ex: _surface_check(ex, paths),
                ))
        return units
    if workload in MULTIFREQ:
        spec, K, xs = inputs["spec"], inputs["K"], inputs["xs"]
        n_points = (K - spec["time_order"] + 1) * len(xs)

        def work():
            res = solver.solve(solver.pde_spec_from_json(json.dumps(spec)), K)
            return [_terms(c) for c in res.series.coeffs]

        def check(coeffs):
            if len(coeffs) != K + 1:
                return [f"{len(coeffs)} coefficients, want {K + 1}"] * (1 + n_points)
            return [m for _, _, m in oracles.check_coefficients(spec, coeffs, xs) if m]

        units.append(Unit(f"solve K={K}", 1 + n_points, work, check))
        return units
    if workload == "validate-cli":
        from click.testing import CliRunner

        def invoke(args):
            res = CliRunner().invoke(bench.cli, args)
            return res.exit_code, res.output

        units.append(Unit("validate", 1, lambda: invoke(["validate"]),
                          lambda r: [m for m in [oracles.check_validate(*r)] if m]))
        for p, n, s in inputs["transforms"]:
            args = ["transform", "--fn", f"t^{p:g}", "--n", str(n), "--s", repr(s)]
            units.append(Unit(
                f"transform t^{p:g} n={n} s={s:g}", 1, lambda args=args: invoke(args),
                lambda r, p=p, n=n, s=s: [m for m in [oracles.check_transform(p, n, s, *r)] if m],
            ))
        return units
    raise ValueError(f"unknown workload {workload!r}")


def describe(workload: str, inputs: dict) -> dict:
    """A short, printable summary of the inputs."""
    if workload in MULTIFREQ:
        spec = inputs["spec"]
        return {
            "alpha": spec["alpha"], "K": inputs["K"], "generators": inputs["generators"],
            "ic": [[t["kind"], t["freq"], t["coeff"]] for t in spec["ic_a"]],
        }
    return inputs

