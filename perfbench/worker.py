"""One repetition of one workload, in the fresh interpreter it was started in.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--probe]

Times ``import ararps`` first, then runs the workload's units cold and checks
each unit's output outside the timed region.  Writes JSON lines to stdout:
``{"planned": ops}`` at the start, ``{"unit": ..., "failed": ...}`` after
each unit, so that a parent that kills an overrunning repetition knows what
finished, and a final ``{"result": ...}``.  ``--probe`` only imports.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a fractional alpha that no workload uses, for the cold weight-table timing
FRESH_ALPHA = 1.0 / math.pi
WEIGHT_ORDER = 24
REF_BLOCKS = 6
SAMPLE_EVERY_S = 0.02


def reference_s() -> float:
    """Time a fixed, sub-millisecond pure-Python computation that does not
    touch ararps.  It does the same kind of work as the program (tuples,
    dict buckets, sorting, float math)."""
    t0 = time.perf_counter()
    total = 0.0
    for block in range(REF_BLOCKS):
        buckets: dict[tuple[int, float], list[float]] = {}
        for i in range(100):
            kind, freq = (block + i) % 3, ((block * i) % 17) * 0.25
            buckets.setdefault((kind, freq), []).append(math.cosh(freq * 0.1) * (i - 50))
        total += math.fsum(abs(math.fsum(v)) for _, v in sorted(buckets.items()))
    elapsed = time.perf_counter() - t0
    if not total > 0.0:
        raise RuntimeError("reference computation went wrong")
    return elapsed


class SpeedSampler:
    """Times ``reference_s`` from a thread every SAMPLE_EVERY_S seconds.

    The machine's speed drifts by tens of percent within seconds when other
    tenants load it.  Samples taken while the program runs say how fast the
    machine was during exactly the timed intervals, so run.py can report
    times at a fixed nominal speed.  Each sample holds the interpreter lock
    for about half a millisecond, a few percent of the timed work.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.samples.append((time.perf_counter(), reference_s()))

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def within(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Reference times of the samples taken inside ``intervals``."""
        return [d for t, d in self.samples if any(a <= t <= b for a, b in intervals)]


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--out", default=".", help="directory for the files the workload writes")
    args = ap.parse_args()

    sampler = SpeedSampler()
    t0 = time.perf_counter()
    import ararps
    t_imported = time.perf_counter()
    import_s = t_imported - t0
    if not Path(ararps.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ararps imported from {ararps.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.probe:
        sampler.stop()
        emit({"result": {"import_s": import_s, "ref_import_s": sampler.within([(t0, t_imported)])}})
        return 0

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    units = workloads.build_units(args.workload, inputs, ararps, Path(args.out))
    emit({"planned": sum(u.ops for u in units)})
    failed = 0
    messages: list[str] = []
    outputs = {}
    timed: list[tuple[float, float]] = []
    for unit in units:
        t1 = time.perf_counter()
        try:
            output = unit.work()
        except Exception as exc:  # a raising operation is a failed one
            timed.append((t1, time.perf_counter()))
            bad = [f"{unit.name}: raised {exc!r}"] * unit.ops
        else:
            timed.append((t1, time.perf_counter()))
            outputs[unit.name] = output
            bad = unit.check(output)[: unit.ops]
        failed += len(bad)
        messages += bad[:3]
        emit({"unit": unit.name, "ops": unit.ops, "failed": len(bad)})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sampler.stop()

    result = {
        "import_s": import_s, "ref_import_s": sampler.within([(t0, t_imported)]),
        "wall_s": sum(b - a for a, b in timed), "ref_wall_s": sampler.within(timed),
        "peak_rss_mb": peak_rss_mb,
        "failed": failed, "messages": messages[:10],
        "inputs": workloads.describe(args.workload, inputs),
    }
    if args.workload in workloads.MULTIFREQ:
        coeffs = next(iter(outputs.values()), [])
        result["terms_per_order"] = [len(c) for c in coeffs]
    if tracer is not None:
        t1 = time.perf_counter()
        for m in range(WEIGHT_ORDER + 1):
            for j in range(WEIGHT_ORDER + 1 - m):
                ararps.fpseries.conv_weight(FRESH_ALPHA, m, j)
        cold_s = time.perf_counter() - t1
        result["per_layer"] = tracing.per_layer(tracer) | {"fpseries.conv_weight.cold_s": cold_s}
        result["trace"] = tracer.summary()
    emit({"result": result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
