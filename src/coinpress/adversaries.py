"""Canonical cheating provers and the scripted prover used by tests.

The mixture prover draws one of several distributions and plays honestly
for it; the rejecting prover is a mixture whose residual weight sends no
histogram at all (``ScriptedProver({})``), which round 1 rejects. The
inflating prover shifts its reported histogram toward smaller claimed
probabilities and pads its sets to survive the cardinality check; the
overlapping-sets prover smuggles one element into every set. Both start
from honest play, so both subclass ``protocol.HonestProver``, override
only what they change and edit the sets of the honest ``_choose_sets``.
They inherit its width check, its banding of the support with its bit
planes (the inflating prover relabels the bands), its fallback table,
its read of the verifier's compiled challenges and its memoizing
``produce_sets``. A randomized prover is its ``randomness_support``,
which the exact oracle enumerates; a trial draws one strategy up front
with ``reseeded(seed)``. The verifier checks the sets as recorded.
"""

from __future__ import annotations

import copy
import functools
import math
import random
from fractions import Fraction
from typing import Mapping, Sequence

# buckets is read by nothing here; perfbench's tracer wraps adversaries.buckets
from coinpress.dist import ExplicitDistribution, buckets, pow2
from coinpress.hashing import BitPlanes, select
from coinpress.protocol import (
    CoinSource,
    HonestProver,
    ProtocolParams,
    ProverStrategy,
    cumulative_weights,
)


class MixtureProver(ProverStrategy):
    """Plays honestly for one component distribution, drawn from ``seed``.

    ``components`` is a list of (weight, distribution) pairs whose weights
    sum to at most 1; the residual weight is an outright rejection (the
    prover sends no histogram, as ``ScriptedProver({})`` does). The
    component is drawn by ``CoinSource.pick`` when the prover is built or
    ``reseeded``.
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
        self._reject = ScriptedProver({})
        self._strategies = [strat for _, strat in self.components] + [self._reject]
        self._draw = cumulative_weights(weights + [self.residual])
        self._active = self._pick(seed)

    def _pick(self, seed: int) -> ProverStrategy:
        return self._strategies[CoinSource(rng=random.Random(seed)).pick(self._draw)]

    def reseeded(self, seed: int) -> "MixtureProver":
        """A prover sharing these components but drawing from ``seed``.

        Equal to ``MixtureProver(components, seed, params)`` without
        rebuilding the components' honest provers.
        """
        twin = copy.copy(self)
        twin._active = self._pick(seed)
        return twin

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


class InflatingProver(HonestProver):
    """Reports every band shifted toward smaller claimed probabilities.

    Band mass at index i is claimed at index i + shift, so claimed
    probabilities shrink by a factor of about 2**(shift * eps). Sets are
    built from the true bucket members (hash-filtered) and padded with
    spare elements that hash to the zero target, so the cardinality check
    passes whenever enough spares exist. A stress strategy for soundness
    diagnostics; ``inflating_prover`` plays shift 0 with the honest prover.

    ``_banding`` is the honest one with each true band i relabeled
    i + shift, the band its mass is claimed at, so the honest
    ``_choose_sets`` gives, per active band of the claimed histogram, the
    true members that hash to zero. Per active band in order, this class
    drops the members an earlier set took, cuts the set to the largest
    size in check (b)'s window of the verifier's compiled challenge
    (``_challenges``), and pads it up to the smallest from the spare pool:
    the inputs of [0, 2**n) that hash to zero, in ascending order, hashed
    when a set first needs padding. Members and spares are both filtered
    by f(x) == 0, so the inherited ``depends_on_hash_zero_set`` holds and
    the inherited ``produce_sets`` answers once per zero set.
    """

    def __init__(self, dist: ExplicitDistribution, shift: int, params: ProtocolParams):
        if shift < 1:
            raise ValueError("shift must be at least 1")
        if params.n > 16:
            raise ValueError("inflating prover enumerates {0,1}^n; needs n <= 16")
        super().__init__(dist, params)
        self.shift = shift

    @functools.cached_property
    def claimed_weights(self) -> tuple[Fraction, ...]:
        # mass shifted past band t is dropped
        shifted = (Fraction(0),) * self.shift + self.histogram.weights
        return shifted[: self.params.t + 1]

    @functools.cached_property
    def _all_planes(self) -> BitPlanes:
        return BitPlanes.of(range(1 << self.params.n), self.params.n)

    @functools.cached_property
    def _banding(self) -> tuple:
        """The honest banding with each true band i relabeled i + shift, the
        band it is claimed at; the support, and so its planes, stay as they
        are."""
        bands, offsets, support = HonestProver._banding.func(self)
        return [i + self.shift for i in bands], offsets, support

    def produce_histogram(self):
        return self.claimed_weights

    # The honest prover's memoizing front door, named again in this class
    # body so that per-class instrumentation (perfbench's tracer wraps
    # ``cls.__dict__["produce_sets"]``) tells the two apart.
    produce_sets = HonestProver.produce_sets

    def _choose_sets(self, s, k, f, g, m):
        members = super()._choose_sets(s, k, f, g, m)
        if not members:
            return members
        ctx = self._challenges[s, k]
        pool = None
        used: set[int] = set()
        out = {}
        for i, (lo, hi) in zip(ctx.active, ctx.windows):
            want_lo = max(0, math.ceil(lo))
            chosen = [x for x in members[i] if x not in used][: max(math.floor(hi), want_lo)]
            if len(chosen) < want_lo:
                if pool is None:
                    # Spare pool: everything hashing to the zero target, used
                    # to pad sets up to the cardinality window's lower edge.
                    # Input j of the planes is j itself.
                    pool = select(range(1 << self.params.n), f.eval_batch(self._all_planes))
                for x in pool:
                    if len(chosen) >= want_lo:
                        break
                    if x not in used and x not in chosen:
                        chosen.append(x)
            out[i] = sorted(chosen)
            used.update(chosen)
        return out

    def produce_probability(self, j, x):
        # A rational claim inside band j: the band's upper endpoint, taken
        # as the exact value of its double approximation.
        return Fraction(pow2(-j * self.params.eps))


def inflating_prover(dist: ExplicitDistribution, shift: int, params: ProtocolParams) -> ProverStrategy:
    """The inflating prover for ``shift``; shift 0 is the honest prover."""
    if shift == 0:
        return HonestProver(dist, params)
    return InflatingProver(dist, shift, params)


class OverlappingSetsProver(HonestProver):
    """Honest play, but every set also smuggles in the first bucket member.

    With more than one live band in an interval this violates pairwise
    disjointness and must be caught by the set checks. Only the sets
    differ from the honest prover's, and they read f only through its
    filter, so its memo answers them once per zero set too.
    """

    def _choose_sets(self, s, k, f, g, m):
        out = super()._choose_sets(s, k, f, g, m)
        donors = [xs[0] for xs in out.values() if xs]
        if donors:
            for i in out:
                if donors[0] not in out[i]:
                    out[i] = sorted(out[i] + [donors[0]])
        return out


def overlapping_sets_prover(dist: ExplicitDistribution, params: ProtocolParams) -> OverlappingSetsProver:
    """The overlapping-sets prover for ``dist``."""
    return OverlappingSetsProver(dist, params)


class ScriptedProver(ProverStrategy):
    """Fixed responses per round; anything unscripted degrades to garbage.

    Each entry of ``responses`` may be a constant or a callable receiving
    the round's arguments (the sets entry receives (s, k, f, g, m)).
    Garbage responses are guaranteed protocol violations, used to exercise
    the reject paths.
    """

    def __init__(self, responses: Mapping[str, object]):
        self.responses = dict(responses)
        # A constant list histogram is sent as one tuple, so it compiles once.
        if type(self.responses.get("histogram")) is list:
            self.responses["histogram"] = tuple(self.responses["histogram"])
        # A constant sets answer reads nothing of f.
        self.depends_on_hash_zero_set = not callable(self.responses.get("sets"))

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
