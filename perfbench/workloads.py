"""The benchmark's three seeded workloads, driven through coinpress's public API.

Each workload builds its instance from the seed alone (the program sees only
the generated inputs), runs its operations in fixed-size chunks, times only
the calls into coinpress, and checks every output outside the timed calls.

* ``estimate-wide``: Monte Carlo estimates on an n=16 instance whose
  4096-element support makes the hash layer dominate. One op is one trial.
* ``compile-toy``: the private-to-public-coin compiler on the toy multiset
  instances at t=300, where per-run verifier work over large exact
  rationals dominates and sets hold at most 3 elements. One op is one
  compiled ``transform_run``.
* ``oracle-n4``: exact enumeration, structural checks and the flat
  cross-check at n=4 for four provers at two band widths. One op is one
  (config, prover) pass; timed phases run all eight passes, so every run
  measures the same mix of passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

from coinpress import adversaries, cli, harness, ip2am, oracle, protocol
from coinpress.dist import ExplicitDistribution, fraction_to_str


def sub_seed(seed: int, *labels) -> int:
    """Independent 64-bit seed for one part of a workload."""
    blob = ":".join(["perfbench", str(seed), *map(str, labels)]).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class Workload:
    """Interface: ``__init__(seed)`` is the set-up; ``run_chunk`` runs ops.

    ``run_chunk(index, mark_op, watch)`` returns (ops, failed). Calls into
    coinpress run inside ``with watch:`` blocks (a ``timing.Stopwatch``), so
    checks stay untimed. ``mark_op(op_id)`` is called before each call into
    coinpress (a chunk of trials, or one oracle pass) so a tracer can tag
    the spans under it with that id. ``finish()`` runs the checks that need
    the whole phase and returns the number of further failed ops.

    ``cycle`` chunks make one representative unit of the workload's op mix;
    timed phases run whole cycles. The traced run measures a fixed
    ``traced_cycles`` cycles, so its counters repeat exactly, and compares
    its first ``baseline_chunks`` chunks against the same chunks untraced.
    """

    name = ""
    cycle = 1
    traced_cycles = 1
    baseline_chunks = 1

    def run_chunk(self, index: int, mark_op, watch) -> tuple[int, int]:
        raise NotImplementedError

    def finish(self) -> int:
        return 0


# ---------------------------------------------------------------------------
# estimate-wide


class EstimateWide(Workload):
    """n=16, 4096 elements at two mass levels (1:3), eps=0.5, t=64, gap 6."""

    name = "estimate-wide"
    chunk_trials = 32
    traced_cycles = 8
    baseline_chunks = 8
    replay_checks = 4

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(sub_seed(seed, "support"))
        support = rng.sample(range(1 << 16), 4096)
        light, heavy = Fraction(1, 8192), Fraction(3, 8192)
        mass = {x: (heavy if i % 2 else light) for i, x in enumerate(support)}
        self.dist = ExplicitDistribution(n=16, mass=mass)
        self.params = protocol.ProtocolParams.raw(
            n=16, eps=0.5, delta=0.5, t=64, sampling_gap=6.0
        )
        self.factory = cli.make_prover_factory("honest", self.dist, self.params, ".")
        self.expected_p = {
            format(x, "04x"): fraction_to_str(p) for x, p in self.dist.mass.items()
        }
        self.reports: dict[int, dict] = {}

    def master_seed(self, index: int) -> int:
        return sub_seed(self.seed, "estimate", index)

    def run_chunk(self, index, mark_op, watch):
        mark_op(index)
        with watch:
            report = harness.estimate_output_distribution(
                self.params, self.factory, self.chunk_trials, self.master_seed(index)
            )
            blob = harness.report_to_bytes(report, "json")
        obj = json.loads(blob)
        failed = 0
        for key, count in obj["bins"].items():
            x_hex, _, p_key = key.partition("|")
            if self.expected_p.get(x_hex) != p_key:
                failed += count
        counted = sum(obj["per_x"].values()) + sum(obj["rejects"].values())
        if counted != self.chunk_trials:
            failed = self.chunk_trials
        self.reports[index] = obj
        return self.chunk_trials, failed

    def finish(self):
        """Replay a seeded sample of trials to byte-identical transcripts."""
        if not self.reports:
            return 0
        rng = random.Random(sub_seed(self.seed, "replay"))
        chunks = sorted(self.reports)
        failed = 0
        for _ in range(self.replay_checks):
            index = rng.choice(chunks)
            trial = rng.randrange(self.chunk_trials)
            stream = harness.split_seed(self.master_seed(index), trial)
            prover = self.factory(stream)
            tr = protocol.run_protocol(
                self.params, prover, rng=random.Random(stream), trial=trial
            )
            again = protocol.replay(self.params, prover, tr)
            obj = self.reports[index]
            out = tr.outcome
            if out.kind == "reject":
                in_report = obj["rejects"].get(out.reason, 0) > 0
            else:
                key = f"{out.x:04x}|{harness.probability_bin_key(out.p)}"
                in_report = obj["bins"].get(key, 0) > 0
            if again.to_json() != tr.to_json() or not in_report:
                failed += 1
        return failed


# ---------------------------------------------------------------------------
# compile-toy


class CompileToy(Workload):
    """Compiled toy proofs: member aab/abb and non-member aab/aba."""

    name = "compile-toy"
    eps = 0.02
    delta = 0.25
    chunk_trials = 64
    cycle = 2  # member chunk, then non-member chunk
    traced_cycles = 6
    baseline_chunks = 12

    def __init__(self, seed: int):
        self.seed = seed
        self.cases = []
        for label, s1 in (("member", "abb"), ("nonmember", "aba")):
            toy = ip2am.toy_protocol(ip2am.ToyMultisetInstance(s0="aab", s1=s1))
            prover = ip2am.HonestTransformProver(toy.spec, None, toy.honest_answer)
            self.cases.append(
                {"label": label, "toy": toy, "factory": lambda _seed, p=prover: p,
                 "trials": 0, "hits": 0, "failed": 0}
            )
        compl, sound = ip2am.bounds_calculator(1.0, 0.5, 1, self.eps, self.delta)
        self.bound = {"member": compl, "nonmember": sound}

    def _within(self, label: str, hits: int, trials: int) -> bool:
        rate = hits / trials
        band = 3 * math.sqrt(0.25 / trials)
        if label == "member":
            return rate >= self.bound[label] - band
        return rate <= self.bound[label] + band

    def run_chunk(self, index, mark_op, watch):
        case = self.cases[index % 2]
        mark_op(index)
        with watch:
            rate = ip2am.estimate_acceptance(
                case["toy"].spec, None, case["factory"], self.chunk_trials,
                sub_seed(self.seed, "compile", index), self.eps, self.delta,
            )
        hits = round(rate * self.chunk_trials)
        case["trials"] += self.chunk_trials
        case["hits"] += hits
        failed = 0
        if not self._within(case["label"], hits, self.chunk_trials):
            failed = self.chunk_trials
        case["failed"] += failed
        return self.chunk_trials, failed

    def finish(self):
        """The pooled accept rates must also respect the bounds."""
        failed = 0
        for case in self.cases:
            if case["trials"] and not self._within(case["label"], case["hits"], case["trials"]):
                failed += case["trials"] - case["failed"]
        return failed


# ---------------------------------------------------------------------------
# oracle-n4

# The mass profile is fixed and the seed picks the support and its order, so
# every seed enumerates the same number of live challenges. All masses lie
# above 2**-4, so the one-band inflation still fits under t=8 at eps=0.5.
ORACLE_MASSES = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(1, 8), Fraction(1, 8))


class OracleN4(Workload):
    """Four provers at eps=1.0 and eps=0.5: n=4, t=8, gap 1, interval 2."""

    name = "oracle-n4"
    cycle = 8  # every (config, prover) pass once
    traced_cycles = 1
    baseline_chunks = 4  # the eps=1.0 passes; a second untraced cycle would not fit

    def __init__(self, seed: int):
        rng = random.Random(sub_seed(seed, "oracle"))
        self.passes = []
        for eps in (1.0, 0.5):
            params = protocol.ProtocolParams.raw(
                n=4, eps=eps, delta=0.5, t=8, gap_size=1, interval_size=2,
                sampling_gap=1.0,
            )
            main = self._distribution(rng)
            other = self._distribution(rng)
            provers = (
                ("honest", protocol.HonestProver(main, params)),
                ("mixture", adversaries.MixtureProver(
                    [(Fraction(1, 2), main), (Fraction(1, 4), other)],
                    sub_seed(seed, "mixture", eps), params,
                )),
                ("inflating", adversaries.inflating_prover(main, 1, params)),
                ("overlapping", adversaries.overlapping_sets_prover(main, params)),
            )
            for label, prover in provers:
                self.passes.append((f"eps={eps} {label}", params, prover))
        self.branches: list[int] = []

    @staticmethod
    def _distribution(rng: random.Random) -> ExplicitDistribution:
        support = rng.sample(range(16), len(ORACLE_MASSES))
        return ExplicitDistribution(n=4, mass=dict(zip(support, ORACLE_MASSES)))

    def run_chunk(self, index, mark_op, watch):
        _label, params, prover = self.passes[index % len(self.passes)]
        mark_op(index)
        # One timed block per stage: a pass lasts seconds, and shorter blocks
        # follow the machine's speed more closely.
        with watch:
            run = oracle.OracleRun(oracle.ExactConfig(params=params, prover=prover))
        with watch:
            sandwich = oracle.verify_band_sandwich(run)
        with watch:
            sums = oracle.verify_band_sums(run)
        with watch:
            flat_outputs, flat_reject = oracle.exact_output_distribution_flat(params, prover)
        exact = run.distribution
        ok = (
            exact.outputs == flat_outputs
            and exact.reject_mass == flat_reject
            and exact.total_mass() == 1
            and not sandwich.violations
            and not sandwich.indeterminate
            and not sums.violations
        )
        self.branches.append(count_branches(run))
        return 1, int(not ok)


def count_branches(run) -> int:
    """Hash functions enumerated per live (shift, interval) per component."""
    total = 0
    for comp in run.components:
        for tables in comp.shifts.values():
            for challenge in tables.challenges.values():
                rows = challenge[4]
                if rows is not None:
                    total += len(rows)
    return total


WORKLOADS = {cls.name: cls for cls in (EstimateWide, CompileToy, OracleN4)}
