"""Span tracing for the benchmark's traced run, installed from outside coinpress.

Wrappers replace names where their callers look them up (module globals and
class attributes) and restore them on ``uninstall``. Each wrapped call
records a span: name, start, end, parent span and op id. Spans live in
flat arrays in memory and are written out once, at the end.

The hash primitive is called millions of times per oracle pass, so
``HashFunction.eval``, ``eval_batch`` and ``sample_hash`` are aggregated
instead of recorded one span per call: each call adds its count and time to
per-name totals and its time to the enclosing span, so self times stay
exact without hundreds of megabytes of spans.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

import numpy as np

from coinpress import adversaries, harness, hashing, ip2am, oracle, protocol

REJECT_REASONS = (
    protocol.REJECT_MALFORMED_HISTOGRAM, protocol.REJECT_HISTOGRAM_SUM,
    protocol.REJECT_DEGENERATE, protocol.REJECT_HASH_WIDTH,
    protocol.REJECT_MALFORMED_SETS, protocol.REJECT_OVERSIZE,
    protocol.REJECT_CHECK_A, protocol.REJECT_CHECK_B, protocol.REJECT_CHECK_C,
    protocol.REJECT_BAND_NOT_LIVE, protocol.REJECT_EMPTY_SET,
    protocol.REJECT_MALFORMED_TABLE,
)


class Tracer:
    """Spans and aggregated leaf calls of one traced phase, plus the
    wrappers that record them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.leaf = array("d")  # time of aggregated calls made directly inside
        self.value = array("d")  # one number a span's note records
        self.stack: list[int] = []
        self.op_id = -1
        self.leaf_stats: dict[str, list] = {}  # name -> [calls, seconds, items]
        self.rejects: Counter = Counter()
        self.outputs = 0
        self._patched: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.leaf.append(0.0)
        self.value.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def mark_op(self, op_id: int) -> None:
        self.op_id = op_id

    # -- installing wrappers ------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_span(self, owner, attr: str, name: str, note=None) -> None:
        fn = getattr(owner, attr)
        nid = self.intern(name)
        tracer = self

        def wrapped(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if note is not None:
                note(tracer, idx, args, result)
            return result

        self._replace(owner, attr, wrapped)

    def wrap_leaf(self, owner, attr: str, name: str, items=None) -> None:
        fn = getattr(owner, attr)
        stats = self.leaf_stats.setdefault(name, [0, 0.0, 0])
        stack, leaf, clock = self.stack, self.leaf, time.perf_counter

        def wrapped(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            stats[0] += 1
            stats[1] += dt
            stats[2] += items(args) if items is not None else 1
            if stack:
                leaf[stack[-1]] += dt
            return result

        self._replace(owner, attr, wrapped)

    def install(self) -> None:
        span = self.wrap_span
        span(harness, "estimate_output_distribution", "harness.estimate")
        span(harness, "report_to_bytes", "harness.report_to_bytes")
        span(harness, "run_protocol", "protocol.run_protocol", note_run)
        span(ip2am, "run_protocol", "protocol.run_protocol", note_run)
        span(ip2am, "estimate_acceptance", "ip2am.estimate_acceptance")
        span(ip2am, "transform_run", "ip2am.transform_run", note_transform)
        span(ip2am, "conditional_message_distribution", "ip2am.conditional_message_distribution")
        span(ip2am, "conditional_randomness_distribution", "ip2am.conditional_randomness_distribution")
        span(ip2am.HonestTransformProver, "sampling_strategy", "ip2am.sampling_strategy")
        for module in (protocol, oracle):
            span(module, "validate_histogram_message", "protocol.validate_histogram_message")
            span(module, "check_sets", "protocol.check_sets", note_sets)
            span(module, "finalize", "protocol.finalize")
        span(protocol, "choose_challenge", "protocol.choose_challenge")
        span(protocol, "choose_element", "protocol.choose_element")
        span(protocol, "build_histogram", "dist.build_histogram")
        span(protocol, "buckets", "dist.buckets")
        span(adversaries, "buckets", "dist.buckets")
        span(protocol.HonestProver, "produce_sets", "protocol.produce_sets")
        for cls in (adversaries.MixtureProver, adversaries.InflatingProver, adversaries.ScriptedProver):
            span(cls, "produce_sets", "adversaries.produce_sets")
        span(oracle, "OracleRun", "oracle.build")
        span(oracle, "verify_band_sandwich", "oracle.verify_band_sandwich")
        span(oracle, "verify_band_sums", "oracle.verify_band_sums")
        span(oracle, "exact_output_distribution_flat", "oracle.flat")
        span(oracle.ComponentRun, "placement_probability", "oracle.placement_probability")
        self.wrap_leaf(hashing.HashFunction, "eval", "hashing.eval")
        self.wrap_leaf(hashing.HashFunction, "eval_batch", "hashing.eval_batch",
                       items=lambda args: len(args[1]))
        self.wrap_leaf(protocol, "sample_hash", "hashing.sample_hash")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "leaf": np.frombuffer(self.leaf, dtype=np.float64).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def write(self, path: str, header: dict) -> None:
        meta = dict(header, names=self.names, leaf_stats=self.leaf_stats)
        np.savez_compressed(path, meta=np.array(json.dumps(meta)), **self.arrays())


def note_run(tracer: Tracer, idx: int, args, transcript) -> None:
    tracer.value[idx] = len(transcript.coins)
    if transcript.outcome.kind == "reject":
        tracer.rejects[transcript.outcome.reason] += 1
    else:
        tracer.outputs += 1


def note_sets(tracer: Tracer, idx: int, args, result) -> None:
    sets, ctx = args[0], args[2]
    if isinstance(sets, dict):
        tracer.value[idx] = sum(len(sets[i]) for i in ctx.active if i in sets)


def note_transform(tracer: Tracer, idx: int, args, am) -> None:
    # 1 accept, 0 reject by the final checks, -1 reject inside a sampling run
    tracer.value[idx] = -1.0 if am.sampling_reject_round is not None else float(am.accept)


class SpanTable:
    """Per-name totals and self times computed from a tracer's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.tracer = tracer
        self.name_id, self.parent, self.value = a["name_id"], a["parent"], a["value"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_time = self.dur - child - a["leaf"]

    def mask(self, name: str) -> np.ndarray:
        nid = self.tracer._ids.get(name)
        if nid is None:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name_id == nid

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def percentile_us(self, name: str, q: float) -> float:
        d = self.dur[self.mask(name)]
        return float(np.percentile(d, q) * 1e6) if len(d) else 0.0

    def values(self, name: str, parent: str | None = None) -> np.ndarray:
        m = self.mask(name)
        if parent is not None:
            m &= np.isin(self.parent, np.nonzero(self.mask(parent))[0])
        return self.value[m]

    def children_total(self, name: str, parent: str) -> float:
        m = self.mask(name) & np.isin(self.parent, np.nonzero(self.mask(parent))[0])
        return float(self.dur[m].sum())

    def parents_with_child(self, parent: str, child: str) -> int:
        kids = self.mask(child) & (self.parent >= 0)
        return int(np.isin(np.nonzero(self.mask(parent))[0], self.parent[kids]).sum())


def share(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, workload, ops: int, overhead: dict) -> tuple[dict, dict]:
    """Per-layer metrics (name -> value) and the exact counters among them.

    ``workload`` is the traced workload object, ``ops`` its op count, and
    ``overhead`` holds the op count and normalised seconds of the chunks
    that ran both untraced and traced.
    """
    t = SpanTable(tracer)
    leaf = {name: tracer.leaf_stats.get(name, [0, 0.0, 0]) for name in
            ("hashing.eval", "hashing.eval_batch", "hashing.sample_hash")}
    runs = t.calls("protocol.run_protocol")
    transforms = t.calls("ip2am.transform_run")
    strategy_calls = t.calls("ip2am.sampling_strategy")
    strategy_misses = (
        t.parents_with_child("ip2am.sampling_strategy", "ip2am.conditional_message_distribution")
        + t.parents_with_child("ip2am.sampling_strategy", "ip2am.conditional_randomness_distribution")
    )
    verdicts = t.values("ip2am.transform_run")
    branches = sum(getattr(workload, "branches", []))
    build_s = t.total("oracle.build")
    hash_evals = leaf["hashing.eval"][0] + leaf["hashing.eval_batch"][2]
    coins = float(t.values("protocol.run_protocol").sum())
    set_elements = float(t.values("protocol.check_sets").sum())
    accepts = {case["label"]: share(case["hits"], case["trials"])
               for case in getattr(workload, "cases", [])}

    counters = {
        "ops": ops,
        "hashing.eval.calls": leaf["hashing.eval"][0],
        "hashing.eval_batch.calls": leaf["hashing.eval_batch"][0],
        "hashing.eval_batch.items": leaf["hashing.eval_batch"][2],
        "hashing.sample_hash.calls": leaf["hashing.sample_hash"][0],
        "protocol.run_protocol.calls": runs,
        "protocol.check_sets.calls": t.calls("protocol.check_sets"),
        "coins": coins,
        "set_elements": set_elements,
        "ip2am.transform_run.calls": transforms,
        "oracle.branches": branches,
        "oracle.placement_probability.calls": t.calls("oracle.placement_probability"),
        "rejects": dict(sorted(tracer.rejects.items())),
    }
    harness_s = t.total("harness.estimate")
    metrics = {
        "dist.build_histogram.s": t.total("dist.build_histogram"),
        "dist.buckets.s": t.total("dist.buckets"),
        "hashing.eval.calls": leaf["hashing.eval"][0],
        "hashing.eval.s": leaf["hashing.eval"][1],
        "hashing.eval_batch.calls": leaf["hashing.eval_batch"][0],
        "hashing.eval_batch.s": leaf["hashing.eval_batch"][1],
        "hashing.sample_hash.calls": leaf["hashing.sample_hash"][0],
        "protocol.run_protocol.calls": runs,
        "protocol.run_protocol.p50_us": t.percentile_us("protocol.run_protocol", 50),
        "protocol.run_protocol.p90_us": t.percentile_us("protocol.run_protocol", 90),
        "protocol.run_protocol.self_s": t.self_total("protocol.run_protocol"),
        "protocol.validate_histogram_message.s": t.total("protocol.validate_histogram_message"),
        "protocol.choose_challenge.s": t.total("protocol.choose_challenge"),
        "protocol.check_sets.s": t.total("protocol.check_sets"),
        "protocol.check_sets.calls": t.calls("protocol.check_sets"),
        "protocol.choose_element.s": t.total("protocol.choose_element"),
        "protocol.finalize.s": t.total("protocol.finalize"),
        "protocol.produce_sets.s": t.total("protocol.produce_sets"),
        "protocol.coins_per_run": share(coins, runs),
        "protocol.set_elements_per_run": share(
            float(t.values("protocol.check_sets", parent="protocol.run_protocol").sum()), runs
        ),
        "protocol.output_share": share(tracer.outputs, runs),
    }
    for reason in REJECT_REASONS:
        metrics[f"protocol.reject.{reason}"] = tracer.rejects.get(reason, 0)
    metrics.update({
        "adversaries.produce_sets.s": t.total("adversaries.produce_sets"),
        "harness.estimate.s": harness_s,
        "harness.overhead_s": harness_s - t.children_total("protocol.run_protocol", "harness.estimate"),
        "harness.trials": len(t.values("protocol.run_protocol", parent="harness.estimate")),
        "ip2am.transform_run.calls": transforms,
        "ip2am.transform_run.p50_us": t.percentile_us("ip2am.transform_run", 50),
        "ip2am.transform_run.p90_us": t.percentile_us("ip2am.transform_run", 90),
        "ip2am.transform_run.self_s": t.self_total("ip2am.transform_run"),
        "ip2am.conditional_message_distribution.s": t.total("ip2am.conditional_message_distribution"),
        "ip2am.conditional_randomness_distribution.s": t.total("ip2am.conditional_randomness_distribution"),
        "ip2am.strategy_cache_hit_share": share(strategy_calls - strategy_misses, strategy_calls),
        "ip2am.sampling_reject_share": share(float((verdicts == -1).sum()), len(verdicts)),
        "ip2am.accept_share.member": accepts.get("member", 0.0),
        "ip2am.accept_share.nonmember": accepts.get("nonmember", 0.0),
        "oracle.build.s": build_s,
        "oracle.verify_band_sandwich.s": t.total("oracle.verify_band_sandwich"),
        "oracle.verify_band_sums.s": t.total("oracle.verify_band_sums"),
        "oracle.flat.s": t.total("oracle.flat"),
        "oracle.branches": branches,
        "oracle.branches_per_s": share(branches, build_s),
        "oracle.placement_probability.calls": t.calls("oracle.placement_probability"),
        "oracle.placement_probability.s": t.total("oracle.placement_probability"),
        "op.count": ops,
        "op.hash_evals": share(hash_evals, ops),
        "op.coins": share(coins, ops),
        "op.set_elements": share(set_elements, ops),
        "op.check_sets_calls": share(t.calls("protocol.check_sets"), ops),
        "trace.ops_per_s.untraced": share(overhead["ops"], overhead["untraced_s"]),
        "trace.ops_per_s.traced": share(overhead["ops"], overhead["traced_s"]),
        "trace.overhead_share": share(overhead["traced_s"], overhead["untraced_s"]) - 1.0,
    })
    return metrics, counters
