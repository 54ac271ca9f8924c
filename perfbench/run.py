"""coinpress benchmark: three seeded workloads against the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload estimate-wide --seed 1 --seconds 10 --trace 0

--workload  estimate-wide | compile-toy | oracle-n4 | all
--seed      workload seed; every input is generated from it. Tune on seeds
            1-10 and confirm any claim on the held-out seed HELD_OUT_SEED.
--seconds   timed calls per run, rounded up to whole cycles of the op mix
--trace 0   end-to-end metrics: setup_s, ops_per_s, peak_rss_mb
--trace 1   per-layer metrics from a traced run (see tracing.py), with the
            tracing overhead and exact counters that must repeat per seed

Each workload runs in fresh single-threaded processes (closed loop: each op
starts when the previous one ends) with COINPRESS_THREADS removed from the
environment. setup_s is the median over SETUP_SAMPLES processes of the time
from process start to the first timed op; ops_per_s is the median over whole
cycles of the op mix. Both are scaled to a reference machine speed measured
by a fixed pure-Python kernel (worker.py), because a shared host runs the
same code up to about twice as slowly for minutes at a time; the raw figures
are printed beside them. error_rate (failed / attempted ops) is printed and
carried by the "attempted" and "failed" fields. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is non-zero when any output check fails or a run cannot
complete.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("estimate-wide", "compile-toy", "oracle-n4")
HELD_OUT_SEED = 4242
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "COINPRESS_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, seconds: int, mode: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
        "--t0", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} did not finish in {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if trace:
        res = run_worker(workload, seed, seconds, "trace")
        correct = res["failed"] == 0 and res["counters_repeat"]
        metrics = {
            m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
            for m in load_spec()["per_layer"]
        }
        notes = [f"counters_repeat={res['counters_repeat']}"]
    else:
        setups = [run_worker(workload, seed, seconds, "setup")
                  for _ in range(SETUP_SAMPLES - 1)]
        res = run_worker(workload, seed, seconds, "measure")
        setups.append(res)
        correct = res["failed"] == 0
        res["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        raw_setup_s = statistics.median(s["raw_setup_s"] for s in setups)
        metrics = {
            m["name"]: {"value": res[m["name"]], "unit": m["unit"]}
            for m in load_spec()["end_to_end"]
        }
        notes = [f"raw_ops_per_s={res['raw_ops_per_s']:.6g} raw_setup_s={raw_setup_s:.6g} "
                 f"speed={res['speed']:.3f}"]
    env = res["env"]
    print(f"# workload={workload} seed={seed} trace={int(trace)} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} held_out_seed={HELD_OUT_SEED}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {res['failed'] / res['ops']:.6g} ({res['failed']}/{res['ops']} ops) "
          + " ".join(notes))
    return {"correct": correct, "attempted": res["ops"], "failed": res["failed"],
            "metrics": metrics}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="coinpress benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    if not (ROOT / "src" / "coinpress" / "__init__.py").is_file():
        print(f"error: no coinpress sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result, sort_keys=True))
        ok &= result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
