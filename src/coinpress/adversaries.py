"""Canonical cheating provers and the scripted prover used by tests.

The mixture prover first draws one of several distributions and then plays
honestly for it; the rejecting prover forces a round-1 rejection with some
probability; the inflating prover shifts its reported histogram toward
smaller claimed probabilities and pads its sets to survive the cardinality
check. All of them draw their private randomness up front from their own
seed, so the exact oracle can enumerate them as deterministic provers
conditioned on the draw.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction
from typing import Mapping, Sequence

from coinpress.dist import ExplicitDistribution, buckets
from coinpress.protocol import (
    HonestProver,
    ProtocolParams,
    ProverStrategy,
    band_mass_sum,
    check_b_window,
    compute_live_bands,
    pick_by_offset,
    scale_weights,
)


class RejectNowProver(ProverStrategy):
    """Sends no histogram (None), which round 1 rejects as malformed."""

    def produce_histogram(self):
        return None

    def produce_sets(self, s, k, f, g, m):
        return None

    def produce_probability(self, j, x):
        return Fraction(0)

    def produce_table(self):
        return None


class MixtureProver(ProverStrategy):
    """Draws a component distribution per run, then plays honestly for it.

    ``components`` is a list of (weight, distribution) pairs whose weights
    sum to at most 1; the residual weight is an outright rejection (the
    prover sends a histogram that cannot pass round 1).
    """

    def __init__(
        self,
        components: Sequence[tuple[Fraction, ExplicitDistribution]],
        seed: int,
        params: ProtocolParams,
    ):
        weights = [Fraction(q) for q, _ in components]
        if any(q < 0 for q in weights):
            raise ValueError("component weights must be nonnegative")
        total = sum(weights, Fraction(0))
        if total > 1:
            raise ValueError("component weights sum to more than 1")
        self.params = params
        self.components = [
            (Fraction(q), HonestProver(dist, params)) for q, dist in components
        ]
        self.residual = 1 - total
        self._rng = random.Random(seed)
        self._scaled, self._scale_total = scale_weights(weights + [self.residual])
        self._reject = RejectNowProver()
        self._active: ProverStrategy = self._reject

    def reseeded(self, seed: int) -> "MixtureProver":
        """A prover sharing these components but drawing from ``seed``.

        Equal to ``MixtureProver(components, seed, params)`` without
        rebuilding the components' honest provers.
        """
        twin = copy.copy(self)
        twin._rng = random.Random(seed)
        twin._active = self._reject
        return twin

    def begin_run(self):
        u = self._rng.randrange(self._scale_total)
        idx = pick_by_offset(self._scaled, u)
        if idx == len(self.components):
            self._active = self._reject
        else:
            self._active = self.components[idx][1]

    def produce_histogram(self):
        return self._active.produce_histogram()

    def produce_sets(self, s, k, f, g, m):
        return self._active.produce_sets(s, k, f, g, m)

    def produce_probability(self, j, x):
        return self._active.produce_probability(j, x)

    def produce_table(self):
        return self._active.produce_table()

    def randomness_support(self):
        support = [(q, strat) for q, strat in self.components if q > 0]
        if self.residual > 0:
            support.append((self.residual, self._reject))
        return support


def mixture_prover(components, seed: int, params: ProtocolParams) -> MixtureProver:
    return MixtureProver(components, seed, params)


def rejecting_prover(
    dist: ExplicitDistribution,
    reject_prob: Fraction,
    seed: int,
    params: ProtocolParams,
) -> MixtureProver:
    """Honest for ``dist`` except for an outright rejection with the given probability."""
    reject_prob = Fraction(reject_prob)
    if not 0 <= reject_prob <= 1:
        raise ValueError("reject probability outside [0, 1]")
    return MixtureProver([(1 - reject_prob, dist)], seed, params)


class InflatingProver(ProverStrategy):
    """Reports every band shifted toward smaller claimed probabilities.

    Band mass at index i is claimed at index i + shift, so claimed
    probabilities shrink by a factor of about 2**(shift * eps). Sets are
    built from the true bucket members (hash-filtered) and padded with
    spare elements that hash to the zero target, so the cardinality check
    passes whenever enough spares exist. A stress strategy for soundness
    diagnostics; shift 0 plays exactly honestly.
    """

    # Members and spares are both filtered by f(x) == 0.
    depends_on_hash_zero_set = True

    def __init__(self, dist: ExplicitDistribution, shift: int, params: ProtocolParams):
        if shift < 0:
            raise ValueError("shift must be nonnegative")
        if params.n > 16:
            raise ValueError("inflating prover enumerates {0,1}^n; needs n <= 16")
        self.shift = shift
        self.params = params
        self.dist = dist
        self._honest = HonestProver(dist, params)
        true_weights = self._honest.histogram.weights
        shifted = [Fraction(0)] * (params.t + 1)
        for i, w in enumerate(true_weights):
            if w == 0:
                continue
            if i + shift <= params.t:
                shifted[i + shift] += w
        self.claimed_weights = tuple(shifted)
        self._live = compute_live_bands(self.claimed_weights, params)
        self._true_buckets = {
            i: sorted(xs) for i, xs in buckets(dist, params.eps, params.t).items()
        }
        self._plans: dict[tuple, tuple] = {}  # (s, k, m, g) -> _plan(s, k, m, g)

    def begin_run(self):
        pass

    def produce_histogram(self):
        if self.shift == 0:
            return self._honest.produce_histogram()
        return self.claimed_weights

    def produce_sets(self, s, k, f, g, m):
        if self.shift == 0:
            return self._honest.produce_sets(s, k, f, g, m)
        plan = self._plans.get((s, k, m, g))
        if plan is None:
            plan = self._plans[(s, k, m, g)] = self._plan(s, k, m, g)
        pool = None
        used: set[int] = set()
        out = {}
        for i, bucket, want_lo, want_hi in plan:
            members = [x for x in bucket if f.eval(x) == 0]
            chosen = [x for x in members if x not in used][: max(want_hi, want_lo)]
            if len(chosen) < want_lo:
                if pool is None:
                    # Spare pool: everything hashing to the zero target, used
                    # to pad sets up to the cardinality window's lower edge.
                    pool = [x for x in range(1 << self.params.n) if f.eval(x) == 0]
                for x in pool:
                    if len(chosen) >= want_lo:
                        break
                    if x not in used and x not in chosen:
                        chosen.append(x)
            out[i] = sorted(chosen)
            used.update(chosen)
        return out

    def _plan(self, s, k, m, g):
        """Per live band of interval (s, k), in order: the true members
        claimed there, and the smallest and largest set sizes inside its
        cardinality window under hash width m and centring g."""
        params = self.params
        interval = params.layout.interval(s, k)
        z = band_mass_sum(self.claimed_weights, interval, params.eps)
        plan = []
        for i in interval:
            if i not in self._live:
                continue
            lo, hi = check_b_window(i, float(self.claimed_weights[i]), m, g, z, params.eps)
            bucket = self._true_buckets.get(i - self.shift, [])
            plan.append((i, bucket, max(0, int(-(-lo // 1))), int(hi // 1)))
        return tuple(plan)

    def produce_probability(self, j, x):
        if self.shift == 0:
            return self._honest.produce_probability(j, x)
        # A rational claim inside band j: the band's upper endpoint, taken
        # as the exact value of its double approximation.
        exponent = j * self.params.eps
        if exponent == int(exponent):
            return Fraction(1, 2 ** int(exponent))
        return Fraction(2.0 ** (-exponent))

    def produce_table(self):
        return self._honest.produce_table()


def inflating_prover(dist: ExplicitDistribution, shift: int, params: ProtocolParams) -> InflatingProver:
    return InflatingProver(dist, shift, params)


class ScriptedProver(ProverStrategy):
    """Fixed responses per round; anything unscripted degrades to garbage.

    Each entry of ``responses`` may be a constant or a callable receiving
    the round's arguments (the sets entry receives (s, k, f, g, m)).
    Garbage responses are guaranteed protocol violations, used to exercise
    the reject paths.
    """

    def __init__(self, responses: Mapping[str, object]):
        self.responses = dict(responses)

    def _lookup(self, key, args=()):
        if key not in self.responses:
            return None
        value = self.responses[key]
        if callable(value):
            return value(*args)
        return value

    def produce_histogram(self):
        return self._lookup("histogram")

    def produce_sets(self, s, k, f, g, m):
        return self._lookup("sets", (s, k, f, g, m))

    def produce_probability(self, j, x):
        value = self._lookup("probability", (j, x))
        return Fraction(0) if value is None else value

    def produce_table(self):
        return self._lookup("table")


def overlapping_sets_prover(dist: ExplicitDistribution, params: ProtocolParams) -> ScriptedProver:
    """Honest histogram, but every set also smuggles in the first bucket member.

    With more than one live band in an interval this violates pairwise
    disjointness and must be caught by the set checks.
    """
    honest = HonestProver(dist, params)

    def sets(s, k, f, g, m):
        out = {i: list(xs) for i, xs in honest.produce_sets(s, k, f, g, m).items()}
        donors = [xs[0] for xs in out.values() if xs]
        if donors:
            for i in out:
                if donors[0] not in out[i]:
                    out[i] = sorted(out[i] + [donors[0]])
        return out

    prover = ScriptedProver(
        {
            "histogram": honest.produce_histogram(),
            "sets": sets,
            "probability": lambda j, x: honest.produce_probability(j, x),
            "table": honest.produce_table(),
        }
    )
    # The sets read f only through the honest prover's filter.
    prover.depends_on_hash_zero_set = True
    return prover


# ---------------------------------------------------------------------------
# The explicit non-realizability table (two elements, four output pairs)


def nonrealizable_table() -> dict[tuple[str, Fraction], Fraction]:
    """Joint output table whose per-element sums of mass/p equal 1 exactly,
    yet no mixture of honest provers produces it."""
    return {
        ("x1", Fraction(1, 2)): Fraction(1, 4),
        ("x1", Fraction(1, 4)): Fraction(1, 8),
        ("x2", Fraction(3, 4)): Fraction(1, 2),
        ("x2", Fraction(3, 8)): Fraction(1, 8),
    }


def soundness_sums_from_table(table: Mapping[tuple[str, Fraction], Fraction]) -> dict[str, Fraction]:
    """Per-element sum of mass(x, p) / p, computed exactly."""
    sums: dict[str, Fraction] = {}
    for (x, p), q in table.items():
        sums[x] = sums.get(x, Fraction(0)) + Fraction(q) / Fraction(p)
    return sums


def mixture_realization_exists(
    table: Mapping[tuple[str, Fraction], Fraction],
    extra_values: Sequence[Fraction] = (),
) -> bool:
    """Search for honest-mixture weights reproducing ``table`` exactly.

    Candidate component distributions assign each element a probability
    drawn from the values occurring in the table (plus 0, 1, and any
    ``extra_values``) and must sum to 1. An idealized honest component
    with distribution P contributes weight * P(x) to the cell (x, P(x)).
    Because a candidate over two elements is pinned by its first value,
    every cell determines at most one candidate and the weights are forced
    cell by cell; any conflict, unmatched cell, or weight outside [0, 1]
    means no realization exists.
    """
    elements = sorted({x for x, _ in table})
    values = sorted({Fraction(p) for _, p in table} | set(extra_values) | {Fraction(0), Fraction(1)})
    if len(elements) != 2:
        raise ValueError("the search is specialized to two-element tables")
    x1, x2 = elements
    candidates = [
        (v, 1 - v) for v in values if 0 <= v <= 1 and (1 - v) in values
    ]
    forced: dict[int, Fraction] = {}
    for ci, (p1, p2) in enumerate(candidates):
        for x, pv in ((x1, p1), (x2, p2)):
            if pv == 0:
                continue
            target = Fraction(table.get((x, pv), 0))
            q = target / pv
            if ci in forced and forced[ci] != q:
                return False
            forced[ci] = q
    # Cells whose probability value no candidate can produce.
    for (x, p), massv in table.items():
        if Fraction(massv) == 0:
            continue
        hit = any(
            (x == x1 and p1 == p) or (x == x2 and p2 == p)
            for (p1, p2) in candidates
        )
        if not hit:
            return False
    weights = [forced.get(ci, Fraction(0)) for ci in range(len(candidates))]
    if any(q < 0 for q in weights):
        return False
    if sum(weights, Fraction(0)) > 1:
        return False
    return True
