"""The ararps benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each repetition runs ``worker.py`` in a fresh interpreter, one at a time,
so every repetition starts with cold caches and pays ``import ararps``.

--trace 0  repeats the workload until S seconds have been spent and reports
           the end-to-end metrics as medians over repetitions:
           setup_s      ``import ararps`` in a fresh interpreter
           wall_s       the workload's fixed work after set-up
           peak_rss_mb  ``ru_maxrss`` of the repetition's process
--trace 1  runs the workload once untraced and once traced, and reports the
           per-layer metrics (see tracer.py) and trace.overhead_s.  The span
           summary is written to .bench_out/trace-<workload>-<seed>.json.

Times are reported at a nominal machine speed.  While a worker runs, a
thread in it times a fixed sub-millisecond pure-Python computation every
20 ms (worker.SpeedSampler), and each time the worker measures is multiplied
by REF_NOMINAL_S over the mean of the samples taken meanwhile.  On a shared
2-core x86-64 VM the speed moved by tens of percent within seconds: over
ten runs per workload, raw wall_s medians spread by 10-19% (quartile
distance over median), scaled ones by 2-4.5%.  The unscaled medians are
printed as well.

Every operation (a solve, a checked output point, a CLI call) is counted in
``attempted``; it is ``failed`` if it raises, misses its output check or is
left unfinished when its repetition overruns the time cap.  Lines before the
last describe the environment, each repetition and each metric's quartiles;
the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

REP_CAP_S = 60.0  # one repetition; a normal one takes under 10 s
TRACE_CAP_S = 100.0
RUN_BUDGET_S = 170.0  # the whole run
# about worker.reference_s on an idle 2-core x86-64 VM; times are
# reported as if the reference took this long
REF_NOMINAL_S = 0.0005
IMPORTTIME_MODULES = {"scipy.integrate": "setup.import_scipy_integrate_s",
                      "mpmath": "setup.import_mpmath_s", "numpy": "setup.import_numpy_s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


class NotStarted(RuntimeError):
    """The worker failed before the workload started: no program to measure."""


def worker(args: list[str], timeout: float) -> dict:
    """Run one worker; returns its result, or a failure record on overrun or crash."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timed_out = False
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
        out, err, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        timed_out, code = True, None
        out, err = exc.stdout or "", exc.stderr or ""
        out = out.decode(errors="replace") if isinstance(out, bytes) else out
        err = err.decode(errors="replace") if isinstance(err, bytes) else err
    planned, done, failed, result = None, 0, 0, None
    for line in out.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if "planned" in rec:
            planned = rec["planned"]
        elif "unit" in rec:
            done += rec["ops"]
            failed += rec["failed"]
        elif "result" in rec:
            result = rec["result"]
    if result is not None and code == 0:
        return result | {"planned": planned}
    if planned is None and not timed_out:
        raise NotStarted(f"worker exit {code}: {err.strip()[-600:]}")
    # an overrun or crash: unfinished operations count as failed, and a
    # worker that never got to plan its work counts as one failed operation
    planned = planned or 1
    return {"error": "timeout" if timed_out else f"exit {code}: {err.strip()[-400:]}",
            "planned": planned, "failed": failed + planned - done,
            "wall_s": timeout if timed_out else None}


def env_stamp() -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "mpmath": version("mpmath"), "click": version("click"), "nproc": os.cpu_count(),
    }


def import_breakdown(deadline: float) -> dict:
    """Cumulative import times from ``-X importtime`` (also warms the file cache)."""
    cmd = [sys.executable, "-X", "importtime", str(HERE / "worker.py"),
           "--workload", "probe", "--seed", "0", "--probe"]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import ararps from {ROOT / 'src'}: {proc.stderr.strip()[-600:]}")
    found = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$", line)
        if m and m.group(2) in IMPORTTIME_MODULES:
            found[IMPORTTIME_MODULES[m.group(2)]] = int(m.group(1)) / 1e6
    return {name: found.get(name, 0.0) for name in IMPORTTIME_MODULES.values()}


def scaled(res: dict, key: str) -> float:
    """``res[key]`` at nominal machine speed, from the reference sampled meanwhile."""
    ref = res.get("ref_" + key.removesuffix("_s") + "_s")
    return res[key] * (REF_NOMINAL_S / statistics.mean(ref) if ref else 1.0)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def log(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "ararps" / "__init__.py").is_file():
        print(f"no ararps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    env = env_stamp()
    if args.trace:
        try:
            env.update(import_breakdown(deadline))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(exc, file=sys.stderr)
            return 1
    log({"env": env})
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    def rep(extra: list[str], cap: float) -> dict:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        # the worker may be killed; its files go with this directory
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            res = worker(base + extra + ["--out", tmp], min(cap, deadline - time.monotonic()))
        shown = {k: v for k, v in res.items() if k not in ("trace", "per_layer")}
        for key in ("ref_import_s", "ref_wall_s"):
            if shown.get(key):
                shown[key] = {"n": len(res[key]), "mean": statistics.mean(res[key])}
        log({"rep": shown})
        return res

    try:
        metrics, reps = measure(args, env, rep, deadline)
    except NotStarted as exc:
        print(exc, file=sys.stderr)
        return 1
    if metrics is None:
        return 1
    attempted = sum(r["planned"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    log({"failed_frac": failed / max(attempted, 1)})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def measure(args, env: dict, rep, deadline: float):
    """Run the repetitions; returns (metrics, repetitions), or (None, reps) without samples."""
    if args.trace:
        plain = rep([], REP_CAP_S)
        traced = rep(["--trace"], TRACE_CAP_S)
        reps = [plain, traced]
        layers = {k: v for k, v in env.items() if k.startswith("setup.")}
        layers.update(traced.get("per_layer", {}))
        if plain.get("wall_s") is not None and traced.get("wall_s") is not None:
            layers["trace.overhead_s"] = scaled(traced, "wall_s") - scaled(plain, "wall_s")
        if "trace" in traced:
            path = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
            path.write_text(json.dumps({"env": env, "per_layer": layers,
                                        **traced["trace"]}, indent=1))
            log({"trace_file": str(path.relative_to(ROOT))})
        return {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}, reps

    reps = []
    t_work = time.monotonic()
    while not reps or time.monotonic() - t_work < args.seconds:
        if deadline - time.monotonic() < 5.0:
            break
        reps.append(rep([], REP_CAP_S))
    done = [r for r in reps if "error" not in r]
    samples = {
        "setup_s": ([(r["import_s"], scaled(r, "import_s")) for r in done], "s"),
        # an overrun repetition counts with its time cap
        "wall_s": ([(r["wall_s"], scaled(r, "wall_s")) for r in reps if r.get("wall_s")], "s"),
        "peak_rss_mb": ([(r["peak_rss_mb"], r["peak_rss_mb"]) for r in done], "MB"),
    }
    metrics = {}
    for name, (pairs, unit) in samples.items():
        if not pairs:
            print(f"no samples of {name}", file=sys.stderr)
            return None, reps
        q1, med, q3 = quartiles([v for _, v in pairs])
        log({"metric": name, "unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(pairs),
             "unscaled_median": statistics.median(v for v, _ in pairs)})
        metrics[name] = {"value": med, "unit": unit}

    return metrics, reps


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


if __name__ == "__main__":
    sys.exit(main())
