"""One workload in one fresh process; ``run.py`` starts it and reads its result.

Modes:
  setup    build the workload and stop (a set-up time sample)
  measure  build, run chunks for --seconds of timed calls, check outputs
  trace    build and run the fixed traced op set untraced, then install the
           span wrappers, build again and run the same op set traced;
           report per-layer metrics, tracing overhead and exact counters

The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from timing import REFERENCE_S, Stopwatch, reference_seconds, scaled

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def import_coinpress():
    """Import coinpress from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import coinpress

    if Path(coinpress.__file__).resolve().parent != SRC / "coinpress":
        raise SystemExit(f"coinpress imported from {coinpress.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def run_chunks(workload, count=None, seconds=None, mark_op=lambda _op: None):
    """Run ``count`` chunks, or whole cycles until ``seconds`` of timed calls.

    Returns (ops, failed, chunks), one (ops, seconds, seconds at reference
    speed) per chunk.
    """
    ops = failed = 0
    chunks: list[tuple[int, float, float]] = []
    watch = Stopwatch()
    busy = 0.0
    index = 0
    while (
        (count is not None and index < count)
        or (seconds is not None and (busy < seconds or index % workload.cycle))
    ):
        first = len(watch.segments)
        n, bad = workload.run_chunk(index, mark_op, watch)
        segments = watch.segments[first:]
        raw = sum(dt for dt, _ in segments)
        ops += n
        failed += bad
        busy += raw
        chunks.append((n, raw, scaled(segments)))
        index += 1
    return ops, failed, chunks


def cycle_rates(chunks, cycle: int, column: int = 2) -> list[float]:
    """Ops per second of each whole cycle of chunks, at reference speed
    (column 2) or raw (column 1)."""
    rates = []
    for start in range(0, len(chunks) - cycle + 1, cycle):
        part = chunks[start:start + cycle]
        rates.append(sum(c[0] for c in part) / sum(c[column] for c in part))
    return rates


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("coinpress/*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counters(workload: str, seed: int, counters: dict) -> bool:
    """Exact counters must repeat for the same seed and the same source."""
    path = OUT / "counters" / f"{workload}-{seed}.json"
    record = {"source_digest": source_digest(), "counters": counters}
    if path.exists():
        previous = json.loads(path.read_text())
        if previous["source_digest"] == record["source_digest"]:
            return previous["counters"] == counters
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args(argv)

    import_coinpress()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workload = cls(args.seed)
    raw_setup_s = time.monotonic() - args.t0
    result = {
        "setup_s": raw_setup_s * REFERENCE_S / reference_seconds(),
        "raw_setup_s": raw_setup_s,
        "env": environment(),
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if args.mode == "measure":
        ops, failed, chunks = run_chunks(workload, seconds=args.seconds)
        failed += workload.finish()
        result.update(
            ops=ops, failed=failed, peak_rss_mb=peak_rss_mb(), chunks=chunks,
            ops_per_s=statistics.median(cycle_rates(chunks, cls.cycle)),
            raw_ops_per_s=statistics.median(cycle_rates(chunks, cls.cycle, column=1)),
            speed=sum(c[2] for c in chunks) / sum(c[1] for c in chunks),
        )
        print(json.dumps(result))
        return 0

    from tracing import Tracer, layer_metrics

    baseline = cls.baseline_chunks
    ops, failed, untraced = run_chunks(workload, count=baseline)
    failed += workload.finish()
    tracer = Tracer()
    tracer.install()
    try:
        traced_workload = cls(args.seed)
        traced_ops, traced_failed, traced = run_chunks(
            traced_workload, count=cls.traced_cycles * cls.cycle, mark_op=tracer.mark_op
        )
    finally:
        tracer.uninstall()
    traced_failed += traced_workload.finish()
    overhead = {
        "ops": sum(c[0] for c in untraced),
        "untraced_s": sum(c[2] for c in untraced),
        "traced_s": sum(c[2] for c in traced[:baseline]),
    }
    metrics, counters = layer_metrics(tracer, traced_workload, traced_ops, overhead)
    repeat_ok = check_counters(args.workload, args.seed, counters)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(
        str(OUT / f"trace-{args.workload}-{args.seed}.npz"),
        {"workload": args.workload, "seed": args.seed, "env": result["env"],
         "metrics": metrics, "counters": counters},
    )
    result.update(ops=ops + traced_ops, failed=failed + traced_failed,
                  counters_repeat=repeat_ok, metrics=metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
