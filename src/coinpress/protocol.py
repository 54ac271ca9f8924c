"""The sampling protocol: parameters, verifier state machine, honest prover.

One run proceeds in fixed message order. The prover sends a histogram; the
verifier draws a shift and an interval index proportionally to histogram
mass, derives a hash output width, and sends the challenge; the prover
sends hash-filtered sets, one per live band of the chosen interval; the
verifier checks the sets, draws a band and an element, asks for that
element's probability, and outputs the pair (after substituting the band's
upper endpoint when the claimed probability lies outside the band).

Every random draw the verifier makes goes through a coin source that
records elementary integer coins, so a transcript can be replayed
deterministically. All real-valued verifier comparisons are widened by the
global tolerance so an honest prover is never rejected by rounding.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import json
import marshal
import math
from abc import ABCMeta
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import is_
from typing import Optional, Sequence, Union

from coinpress.dist import (
    MAX_BITS,
    TAU,
    ExplicitDistribution,
    Histogram,
    IntervalLayout,
    buckets,
    build_histogram,
    element_to_hex,
    fraction_to_str,
    interval_layout,
    interval_weights,
    pow2,
)
from coinpress.hashing import BitPlanes, HashFunction, sample_hash, select

MODE_RAW = "raw"
MODE_TRIVIAL = "trivial-fallback"

DEFAULT_SET_CAP = 1 << 22

ProbabilityValue = Union[Fraction, float]


class DegenerateChoiceError(ValueError):
    """All weights passed to a weighted choice were zero."""


# ---------------------------------------------------------------------------
# Parameters


@dataclass(frozen=True)
class ProtocolParams:
    """The protocol constants a caller chooses, built by ``raw`` or
    ``derive_params``. ``eps`` is the histogram band width, ``t`` the
    largest band index, ``gap_size``/``interval_size`` the integer tiling
    constants, and ``sampling_gap`` centers the hash output width so that
    surviving sets have roughly 2**sampling_gap elements. The accuracy
    targets ``eps_prime``/``delta_prime`` are set only by ``derive_params``.
    ``mode`` and the tiling's real-valued precursors are derived, not stored.
    """

    n: int
    eps: float
    delta: float
    t: int
    gap_size: int
    interval_size: int
    sampling_gap: float
    eps_prime: Optional[float] = None
    delta_prime: Optional[float] = None
    set_cap: int = DEFAULT_SET_CAP

    def __post_init__(self):
        if not 1 <= self.n <= MAX_BITS:
            raise ValueError(f"n={self.n} outside 1..{MAX_BITS}")
        if self.mode != MODE_TRIVIAL:
            g, iv = self.gap_size, self.interval_size
            if not (0 < self.eps <= 1):
                raise ValueError(f"eps={self.eps} outside (0, 1]")
            if g < 1 or iv < g or iv % g != 0:
                raise ValueError(
                    f"structural invariants violated: gap_size={g}, interval_size={iv}"
                )
            if self.t < 1:
                raise ValueError("t must be at least 1")

    @classmethod
    def raw(
        cls,
        n: int,
        eps: float,
        delta: float,
        t: Optional[int] = None,
        gap_size: Optional[int] = None,
        interval_size: Optional[int] = None,
        sampling_gap: Optional[float] = None,
        set_cap: int = DEFAULT_SET_CAP,
    ) -> "ProtocolParams":
        """Desk-scale constructor: eps and delta are used as given.

        Unspecified constants are filled in by the standard formulas; only
        structural invariants are validated, none of the calibrated-regime
        assumptions.
        """
        if not 0 < eps <= 1:
            raise ValueError("eps must lie in (0, 1]")
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        g_raw, i_raw = _raw_sizes(eps, delta)
        # Below eps = 2**-64, i_raw >= g_raw >= 2 * n / eps, and above it
        # 2 * n / eps is finite: past this check no formula below overflows.
        if not math.isfinite(i_raw):
            raise ValueError(
                f"eps={eps!r} and delta={delta!r} are too small: "
                "the raw interval size overflows a double"
            )
        if t is None:
            t = math.ceil(2 * n / eps)
        if gap_size is None:
            gap_size = max(1, math.ceil(g_raw))
        if interval_size is None:
            interval_size = math.ceil(i_raw / gap_size) * gap_size
        interval_size = max(interval_size, gap_size)
        if sampling_gap is None:
            sampling_gap = _sampling_gap(t, i_raw, eps)
        return cls(
            n=n, eps=eps, delta=delta, t=t, gap_size=gap_size,
            interval_size=interval_size, sampling_gap=sampling_gap,
            set_cap=set_cap,
        )

    @property
    def mode(self) -> str:
        """``MODE_TRIVIAL`` exactly when the accuracy targets are set."""
        return MODE_RAW if self.eps_prime is None else MODE_TRIVIAL

    @property
    def gap_size_raw(self) -> float:
        return _raw_sizes(self.eps, self.delta)[0]

    @property
    def interval_size_raw(self) -> float:
        return _raw_sizes(self.eps, self.delta)[1]

    @functools.cached_property
    def layout(self) -> IntervalLayout:
        return interval_layout(self.t, self.gap_size, self.interval_size)

    @property
    def live_threshold(self) -> Fraction:
        """Minimum band mass the verifier is willing to sample from."""
        return Fraction(self.eps) / (2 * self.t)

    def digest(self) -> str:
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:
        blob = json.dumps(
            {
                "n": self.n, "eps": repr(self.eps), "delta": repr(self.delta),
                "t": self.t, "gap_size": self.gap_size,
                "interval_size": self.interval_size,
                "sampling_gap": repr(self.sampling_gap), "mode": self.mode,
                "set_cap": self.set_cap,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def describe(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n,
            "eps": self.eps,
            "delta": self.delta,
            "eps_prime": self.eps_prime,
            "delta_prime": self.delta_prime,
            "t": self.t,
            "gap_size_raw": self.gap_size_raw,
            "interval_size_raw": self.interval_size_raw,
            "gap_size": self.gap_size,
            "interval_size": self.interval_size,
            "sampling_gap": self.sampling_gap,
            "num_shifts": self.interval_size // self.gap_size + 1,
        }


def _raw_sizes(eps: float, delta: float) -> tuple[float, float]:
    """The real-valued gap and interval sizes the tiling constants round up."""
    g_raw = (2.0 / eps) * math.log2(1.0 / eps) if eps < 1 else 1.0
    return g_raw, g_raw / delta


def _sampling_gap(t: int, interval_size_raw: float, eps: float) -> float:
    # log2(t * I' * 2**(2*I'*eps) / eps**4), evaluated in log space because
    # the middle factor overflows floats at calibrated parameters.
    return (
        math.log2(t)
        + math.log2(interval_size_raw)
        + 2.0 * interval_size_raw * eps
        + 4.0 * math.log2(1.0 / eps)
    )


def derive_params(n: int, eps_prime: float, delta_prime: float) -> ProtocolParams:
    """Derive the calibrated constants for user-facing accuracy targets.

    The effective band width is eps_prime / 9000 and the effective gap
    fraction delta_prime / 16. The calibrated protocol applies only when
    (9000/eps_prime)**(16/delta_prime) <= 2**(n/50). In log space the left
    side exceeds 16 * log2(9000) > 210 for every target in (0, 1), and the
    right side is at most 64/50, so at every width the fallback mode is
    returned, in which the prover simply sends the whole distribution. The
    constants are those of ``ProtocolParams.raw`` at the effective eps and
    delta, for inspection, with the targets set, which selects that mode.
    """
    if not 0 < eps_prime < 1 or not 0 < delta_prime < 1:
        raise ValueError("accuracy targets must lie in (0, 1)")
    return replace(
        ProtocolParams.raw(n, eps_prime / 9000.0, delta_prime / 16.0),
        eps_prime=eps_prime, delta_prime=delta_prime,
    )


# ---------------------------------------------------------------------------
# Coin sources


def scale_weights(weights: Sequence[Fraction]) -> tuple[list[int], int]:
    """Rescale rational weights to integers with the same ratios."""
    fracs = [Fraction(w) for w in weights]
    if any(w < 0 for w in fracs):
        raise ValueError("negative weight")
    denom = math.lcm(*(w.denominator for w in fracs)) if fracs else 1
    scaled = [int(w * denom) for w in fracs]
    return scaled, sum(scaled)


def cumulative_weights(weights: Sequence[Fraction]) -> tuple[int, ...]:
    """Running sums of ``scale_weights(weights)``: the table ``CoinSource.pick``
    draws from."""
    return tuple(itertools.accumulate(scale_weights(weights)[0]))


def pick_by_offset(scaled: Sequence[int], u: int) -> int:
    """Index selected by the integer coin u in [0, sum(scaled))."""
    acc = 0
    for idx, w in enumerate(scaled):
        acc += w
        if u < acc:
            return idx
    raise ValueError("offset out of range")


class CoinSource:
    """Elementary integer coins for one protocol run, recorded for replay.

    A live source draws each coin below ``size`` from its rng's
    ``getrandbits`` alone, by the rejection sampler that
    ``random.Random.randrange(size)`` runs for an int bound (Python 3.10
    and 3.11): k = size.bit_length(), then ``getrandbits(k)`` redrawn until
    it is below size. So over a ``random.Random`` the coins are exactly
    those of ``rng.randrange``, drawn in one frame. A replaying source
    hands back the recorded coins in order, each checked against its size.
    """

    def __init__(self, rng=None, replay: Optional[Sequence[int]] = None):
        if (rng is None) == (replay is None):
            raise ValueError("provide exactly one of rng, replay")
        self._getrandbits = rng.getrandbits if rng is not None else None
        self._replay = list(replay) if replay is not None else None
        self._pos = 0
        self.record: list[int] = []

    def randrange(self, size: int) -> int:
        getrandbits = self._getrandbits
        if getrandbits is None:
            value = self._replay[self._pos]
            self._pos += 1
            if not 0 <= value < size:
                raise ValueError("replayed coin out of range")
        else:
            if size < 1:
                raise ValueError("empty range for a coin")
            k = size.bit_length()
            value = getrandbits(k)
            while value >= size:
                value = getrandbits(k)
        self.record.append(value)
        return value

    def weighted_index(self, weights: Sequence[Fraction]) -> int:
        """Index i chosen with probability weights[i] / sum(weights)."""
        return self.pick(cumulative_weights(weights))

    def pick(self, cumulative: Sequence[int]) -> int:
        """Index i chosen with probability proportional to its step
        cumulative[i] - cumulative[i - 1]: one coin u below the total, and
        the first i with u < cumulative[i] (``pick_by_offset`` by bisection).
        """
        if not cumulative or cumulative[-1] == 0:
            raise DegenerateChoiceError("all weights are zero")
        return bisect.bisect_right(cumulative, self.randrange(cumulative[-1]))


# ---------------------------------------------------------------------------
# Messages, transcripts, prover interface

REJECT_MALFORMED_HISTOGRAM = "malformed-histogram"
REJECT_HISTOGRAM_SUM = "histogram-sum"
REJECT_DEGENERATE = "degenerate-choice"
REJECT_HASH_WIDTH = "hash-width"
REJECT_MALFORMED_SETS = "malformed-sets"
REJECT_OVERSIZE = "oversize"
REJECT_CHECK_A = "check-a"
REJECT_CHECK_B = "check-b"
REJECT_CHECK_C = "check-c"
REJECT_BAND_NOT_LIVE = "band-not-live"
REJECT_EMPTY_SET = "empty-set"
REJECT_MALFORMED_TABLE = "malformed-table"


@dataclass(frozen=True)
class Outcome:
    kind: str  # "output" | "reject"
    x: Optional[int] = None
    p: Optional[ProbabilityValue] = None
    band: Optional[int] = None
    reason: Optional[str] = None

    # Both builders fill the five fields in directly, as ``hashing._members``
    # builds hash functions, instead of through the frozen dataclass
    # constructor: the outcome equals, hashes and shows as the one
    # ``Outcome(kind=..., ...)`` builds.

    @classmethod
    def output(cls, x: int, p: ProbabilityValue, band: Optional[int]) -> "Outcome":
        out = _new(cls)
        out.__dict__.update(kind="output", x=x, p=p, band=band, reason=None)
        return out

    @classmethod
    def reject(cls, reason: str) -> "Outcome":
        out = _new(cls)
        out.__dict__.update(kind="reject", x=None, p=None, band=None, reason=reason)
        return out


_new = object.__new__


@dataclass
class Transcript:
    """Ordered record of one protocol run, replayable from its coins."""

    params_digest: str
    messages: list
    coins: list[int]
    outcome: Outcome
    trial: Optional[int] = None

    def to_json_obj(self) -> dict:
        return {
            "trial": self.trial,
            "params_digest": self.params_digest,
            "coins": list(self.coins),
            "messages": [_message_json(m) for m in self.messages],
            "outcome": _outcome_json(self.outcome),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))


def probability_json(p: ProbabilityValue):
    if isinstance(p, Fraction):
        return fraction_to_str(p)
    return {"real": format(float(p), ".12g")}


def probability_bin_key(p: ProbabilityValue) -> str:
    """Canonical aggregation key: exact "num/den" for rationals, a decimal
    of 12 significant digits for tagged reals."""
    pj = probability_json(p)
    return pj if isinstance(pj, str) else "~" + pj["real"]


def _message_json(msg: tuple):
    kind = msg[0]
    if kind == "histogram":
        if msg[1] is None:
            return {"kind": kind, "weights": None}
        return {"kind": kind, "weights": [_weight_json(w) for w in msg[1]]}
    if kind == "challenge":
        s, k, f = msg[1], msg[2], msg[3]
        return {"kind": kind, "s": s, "k": k, "f": f.to_json_obj() if f else None}
    if kind == "sets":
        n = msg[2]
        if msg[1] is None:
            return {"kind": kind, "sets": None}
        # Bands and elements are rendered by their exact values, so no
        # method of a prover's int subclass runs: ``parse_sets`` keeps
        # exact bands (a bool stays a bool), and ``_element_json`` reads
        # each element's value.
        return {
            "kind": kind,
            "sets": {
                str(i): [_element_json(x, n) for x in xs]
                for i, xs in sorted(msg[1].items())
            },
        }
    if kind == "element":
        return {"kind": kind, "band": msg[1], "x": element_to_hex(msg[2], msg[3])}
    if kind == "probability":
        return {"kind": kind, "p": _claim_json(msg[1])}
    if kind == "table":
        n = msg[2]
        if msg[1] is None:
            return {"kind": kind, "entries": None}
        return {
            "kind": kind,
            "entries": [[element_to_hex(x, n), probability_json(p)] for x, p in msg[1]],
        }
    raise ValueError(f"unknown message kind {kind}")


# The name of a class, read from its slot: no ``__name__`` a metaclass
# defines runs.
_type_name = type.__dict__["__name__"].__get__


def _weight_json(w):
    # A malformed histogram may list floats, strings or junk; keep only their
    # type. A number is rendered by its exact value.
    value = exact_number(w)
    if value is None:
        return {"malformed": _type_name(type(w))}
    return fraction_to_str(Fraction(value))


def _element_json(x, n: int):
    # A malformed sets message may list non-integers; keep only their type.
    # An int is rendered by its exact value (a bool renders as its int).
    try:
        return element_to_hex(int.__index__(x), n)
    except TypeError:
        return {"malformed": _type_name(type(x))}


def _claim_json(p):
    # A malformed probability message may be a string or junk, or an int
    # too large for a float; keep only its type. A number is rendered by its
    # exact value: a float subclass by ``float.__float__``, which copies it
    # without calling any method the subclass defines.
    value = exact_number(p)
    try:
        return probability_json(float.__float__(p) if value is None else value)
    except (TypeError, OverflowError):
        return {"malformed": _type_name(type(p))}


def _outcome_json(outcome: Outcome):
    if outcome.kind == "output":
        return {
            "kind": "output",
            "x": outcome.x,
            "p": probability_json(outcome.p),
            "band": outcome.band,
        }
    return {"kind": "reject", "reason": outcome.reason}


class ProverStrategy:
    """Behavioral interface every prover implements.

    A strategy answers from the message history alone, so a run is a pure
    function of the verifier's coins. A randomized prover is its
    ``randomness_support``; a trial draws one strategy up front with
    ``reseeded(seed)``. The verifier checks the sets as recorded
    (``parse_sets``), so set entries may be any iterables.

    The verifier is total: whatever a prover returns, the run ends in an
    ``Outcome``. A ``produce_*`` call that raises an ``Exception`` sends an
    unreadable message (``ask``). One decoder per message,
    ``parse_histogram``, ``parse_sets`` and ``parse_table``, turns it into
    a record, or into None, a typed reject, when it is malformed or any of
    its objects raises. Past the decoders no method of a value the prover
    sent runs: numbers are read by ``exact_number``, elements and bands by
    ``exact_ints``, types are compared by identity, and the transcript
    renders a value by its exact number or its type's name slot. Both
    oracles read messages through the same decoders.
    """

    # True when ``produce_sets`` reads the hash f only through its zero set
    # {x in [0, 2**n) : f(x) = 0}. The exact oracle then asks once per
    # distinct zero set, weighted by how many hash functions share it,
    # instead of once per hash function. ``HonestProver`` and the provers
    # built on it work out each answer once per zero set of the current
    # hash rows (``HonestProver.produce_sets``), at most 2**m answers per
    # challenge. The flat cross-check ignores the flag and asks about every
    # function, but checks each distinct answer once per zero set: per
    # (a, b) when m > 0, and once per sweep at m = 0, where the zero set is
    # the whole domain.
    depends_on_hash_zero_set = False

    def produce_histogram(self) -> Sequence[Fraction]:
        raise NotImplementedError

    def produce_sets(self, s: int, k: int, f: HashFunction, g: float, m: int) -> Mapping[int, Sequence[int]]:
        raise NotImplementedError

    def produce_probability(self, j: int, x: int) -> Fraction:
        raise NotImplementedError

    def produce_table(self) -> Sequence[tuple[int, Fraction]]:
        """Full (element, probability) listing for the fallback protocol."""
        raise NotImplementedError

    def randomness_support(self) -> Sequence[tuple[Fraction, "ProverStrategy"]]:
        """Decomposition into deterministic strategies with probabilities.

        Deterministic strategies return themselves with probability one;
        randomized ones enumerate their up-front draw so exact enumeration
        can condition on it.
        """
        return [(Fraction(1), self)]


# Marshal's type code for bytes, which it also writes for any other buffer
# object (a bytearray, a memoryview, an array), so such a part would load
# back as bytes. It is looked for as an int: ``115 in blob`` scans the bytes
# several times faster than the one-byte needle ``b"s"``.
MARSHAL_BYTES = ord("s")


def compute_live_bands(weights: Sequence[Fraction], params: ProtocolParams) -> set[int]:
    """Band indices whose mass clears the verifier's sampling threshold."""
    thresh = params.live_threshold
    return {j for j, w in enumerate(weights) if w >= thresh}


class HonestProver(ProverStrategy):
    """Prover that holds the distribution and follows the protocol exactly.

    The support is kept in one list sorted by (band, element), with its
    bit planes (``BitPlanes``). The k-th nonempty band, ``bands[k]``,
    occupies ``support[offsets[k]:offsets[k + 1]]``, so the bands of any
    interval form one contiguous slice, hashed in one ``eval_batch`` call
    on the same slice of the planes, and planned per challenge from the
    verifier's compiled ``ChallengeContext`` for this prover's histogram
    message (``_challenges``). The histogram, the banding, the planes and
    the plans are built on first read: a fallback run reads only
    ``produce_table``, and its t can reach millions of bands.

    ``produce_sets`` memoizes: once the hash rows are asked about a second
    time, ``_choose_sets`` works out each answer once per challenge and
    zero set of those rows, and the answer is kept as one ``marshal`` blob
    (see ``produce_sets``). At m = 0 the rows are ``()`` for every hash
    and the batch keeps every input, so that is once per challenge, after
    the first call under those rows. The cheating provers in ``adversaries``
    that start from honest play subclass this one, edit the sets of its
    ``_choose_sets`` and inherit the memo; the inflating prover also
    relabels the bands of ``_banding``, so the plans follow its claimed
    histogram.
    """

    depends_on_hash_zero_set = True

    def __init__(self, dist: ExplicitDistribution, params: ProtocolParams):
        if dist.n != params.n:
            raise ValueError("distribution width does not match parameters")
        self.dist = dist
        self.params = params
        # The memo: the rows tuple its answers belong to, held so that its
        # id cannot be reused, (s, k, c_low) -> the answer's blob, and
        # whether a later call under that tuple missed.
        self._rows = None
        self._answers: dict[tuple[int, int, int], bytes] = {}
        self._missed = False

    @functools.cached_property
    def histogram(self) -> Histogram:
        return build_histogram(self.dist, self.params.eps, self.params.t)

    @functools.cached_property
    def _banding(self) -> tuple:
        """(bands, offsets, support), as the class docstring describes them."""
        members = buckets(self.dist, self.params.eps, self.params.t)
        bands = sorted(members)
        offsets = [0, *itertools.accumulate(len(members[i]) for i in bands)]
        support = [x for i in bands for x in sorted(members[i])]
        return bands, offsets, support

    @functools.cached_property
    def _planes(self) -> BitPlanes:
        return BitPlanes.of(self._banding[2], self.params.n)

    @functools.cached_property
    def _challenges(self) -> dict[tuple[int, int], ChallengeContext]:
        """The verifier's compiled contexts, per (s, k), for this prover's
        histogram message; empty when round 1 rejects it."""
        tables = validate_histogram_message(self.produce_histogram(), self.params)[0]
        return tables.challenges if tables else {}

    @functools.cached_property
    def _plans(self) -> dict[tuple[int, int], tuple]:
        """(s, k) -> what ``produce_sets`` needs of that challenge besides
        f: its active bands, the planes of the support slice holding the
        interval's bands, and per active band with members its cut of that
        slice: (band, offset in the slice, mask of its size, its members).
        Only challenges with an active band have a plan."""
        bands, offsets, support = self._banding
        plans = {}
        for key, ctx in self._challenges.items():
            if not ctx.active:
                continue
            first = bisect.bisect_left(bands, ctx.interval[0])
            last = bisect.bisect_right(bands, ctx.interval[-1])
            lo = offsets[first]
            cuts = tuple(
                (
                    bands[pos],
                    offsets[pos] - lo,
                    (1 << (offsets[pos + 1] - offsets[pos])) - 1,
                    support[offsets[pos]:offsets[pos + 1]],
                )
                for pos in range(first, last)
                if bands[pos] in ctx.active
            )
            plans[key] = ctx.active, self._planes.slice(lo, offsets[last]), cuts
        return plans

    def produce_histogram(self) -> Sequence[Fraction]:
        return self.histogram.weights

    def produce_sets(self, s, k, f, g, m):
        """``_choose_sets(s, k, f, g, m)``, answered from the memo when it
        can be.

        The zero set of a ``HashFunction`` is fixed by its ``rows`` and
        ``c_low``, so each answer is kept under (s, k, f.c_low) for the
        current rows tuple. Rows are compared by identity, and the tuple is
        held, so its id cannot be reused while its answers are kept; another
        tuple clears them, so at most one tuple's answers are kept (at most
        2**m per challenge). The members of one (a, b) share one tuple
        (``members_sharing_rows``), and every member at m = 0 has the rows
        ``()``. Any other f, such as a subclass or a test double, is
        answered directly.

        The first call under a new rows tuple is answered directly too, and
        keeps nothing, unless a later call under the tuple before it missed.
        Most tuples are asked about once: a Monte Carlo trial draws fresh
        rows, and so does each pattern row of the structured oracle. A sweep
        that asks about each tuple many times, such as the flat cross-check
        over the members of each (a, b), misses on each new zero set, so it
        keeps the first answer of the next tuple too, which the member
        c = 2**m, of the same zero set, reads back. Only a miss sets the
        flag, so a hit stores nothing: a store on every hit cost about 45 ns
        a hit, 3% of an oracle-n4 cycle (Python 3.11.7). From the second
        call on, and on such a first call, an answer is kept as
        ``marshal.dumps(answer, 2)``, and a hit returns ``marshal.loads`` of
        it: a fresh dict of fresh lists, built in C, with the exact types of
        the answer worked out. An answer marshal refuses (an int subclass, a
        non-dict mapping) is returned as worked out and not kept, and so is
        one whose blob holds marshal's bytes code anywhere
        (``MARSHAL_BYTES``), since marshal writes any buffer as bytes.
        """
        if type(f) is HashFunction:
            if f.rows is self._rows:
                blob = self._answers.get((s, k, f.c_low))
                if blob is not None:
                    return marshal.loads(blob)
                self._missed = True
            else:
                keep = self._missed
                self._rows, self._answers, self._missed = f.rows, {}, False
                if not keep:
                    return self._choose_sets(s, k, f, g, m)
            answer = self._choose_sets(s, k, f, g, m)
            try:
                blob = marshal.dumps(answer, 2)
            except ValueError:
                return answer
            if MARSHAL_BYTES not in blob:
                self._answers[s, k, f.c_low] = blob
            return answer
        return self._choose_sets(s, k, f, g, m)

    def _choose_sets(self, s, k, f, g, m):
        plan = self._plans.get((s, k))
        if plan is None:
            return {}
        active, planes, cuts = plan
        out = {i: [] for i in active}
        keep = f.eval_batch(planes)
        for i, a, mask, members in cuts:
            out[i] = select(members, keep >> a & mask)
        return out

    def produce_probability(self, j: int, x: int) -> Fraction:
        return self.dist.prob(x)

    def produce_table(self):
        return [(x, self.dist.prob(x)) for x in self.dist.support()]


def honest_prover(dist: ExplicitDistribution, params: ProtocolParams) -> HonestProver:
    return HonestProver(dist, params)


# ---------------------------------------------------------------------------
# Verifier rounds


# Compiled histogram records, by identity: id(record) -> (record, params,
# tables). Holding the record keeps it alive, so its id cannot be reused
# while it is here. Only records whose entries are exactly int or Fraction
# enter: no bool, no subclass, so reading them again runs no user code and
# no value can have changed. A record compiles once while its prover lives,
# so a prover rebuilt for every trial compiles on every trial; the CLI and
# the benchmark share provers across trials (``reseeded`` copies share
# their honest provers). Compiles per process, measured: estimate-wide 1,
# oracle-n4 10, compile-toy 11, ``transform --prover random-answers`` 7.
# The bound caps the memory that a stream of ever-new records can pin,
# evicting oldest first.
TABLES_CACHE_SIZE = 64
_compiled: dict[int, tuple[tuple, ProtocolParams, VerifierTables]] = {}


def validate_histogram_message(weights, params: ProtocolParams):
    """Round 1: (tables, None) for a well-formed histogram message, else
    (None, reject reason).

    The message must be a sized iterable of t+1 int or Fraction entries,
    each read by its exact value (``exact_number``); ``bool`` is an
    ``int``, so True and False are the weights 1 and 0. Everything else is
    compiled by ``verifier_tables``. A tuple of exact int and Fraction
    entries is compiled once per params: sent again with equal params, the
    same tuple skips the per-entry pass and the compile. Callers pass one
    params object per parameter set (``ip2am.sampling_params_for`` keeps
    one pair per set), so the hit is by identity. A t past the band cap
    raises ``InvalidLayoutError``, which ``run_protocol`` raises first.
    """
    weights = parse_histogram(weights)
    known = _compiled.get(id(weights))
    if known is not None and (known[1] is params or known[1] == params):
        # checked and compiled under equal params, so of the same length t+1
        tables = known[2]
    else:
        if weights is None or len(weights) != params.t + 1:
            return None, REJECT_MALFORMED_HISTOGRAM
        exact = all(t is Fraction or t is int for t in map(type, weights))
        values = weights if exact else tuple(map(exact_number, weights))
        if not exact and None in values:
            return None, REJECT_MALFORMED_HISTOGRAM
        tables = verifier_tables(params, tuple(map(Fraction, values)))
        if exact:
            _compiled.pop(id(weights), None)
            if len(_compiled) >= TABLES_CACHE_SIZE:
                del _compiled[next(iter(_compiled))]
            _compiled[id(weights)] = (weights, params, tables)
    if tables.reason is not None:
        return None, tables.reason
    return tables, None


@dataclass(frozen=True)
class ChallengeContext:
    """Every constant of challenge (s, k) before the hash is drawn, compiled
    once per histogram by ``verifier_tables``; the verifier and the honest
    and inflating provers read it. ``windows`` holds check (b)'s window
    (lo, hi) per active band before TAU widening, none when m > n; the
    provers read it. ``bounds`` holds the same windows widened by TAU,
    (lo * (1.0 - TAU), hi * (1.0 + TAU)), the float products check (b)
    compares set sizes with, and ``active_set`` the active bands, the keys
    a sets message must have; the verifier reads these two."""

    s: int
    k: int
    interval: tuple[int, ...]
    active: tuple[int, ...]  # live bands of the chosen interval, sorted
    active_set: frozenset[int]
    g: float
    m: int
    band_mass_sum: float  # sum of 2**(i*eps) * h_i over the interval; inf on overflow
    windows: tuple[tuple[float, float], ...]  # in the order of active
    bounds: tuple[tuple[float, float], ...]  # windows widened by TAU
    band_draw: tuple[int, ...]  # cumulative_weights over the interval


@dataclass(frozen=True)
class VerifierTables:
    """Every pure function of (params, histogram) the verifier reads.

    ``reason`` is the round-1 verdict on the entries' values; the other
    fields are empty unless it is None. ``challenges`` holds, per interval
    (s, k) of positive mass, its ``ChallengeContext``; m > n there marks a
    hash-width reject. The ``*_draw`` fields are ``cumulative_weights``
    tables, so each draw spends exactly the coin
    ``CoinSource.weighted_index`` would on the same weights.
    """

    reason: Optional[str]
    weights: tuple[Fraction, ...] = ()
    shift_weights: dict[int, Fraction] = field(default_factory=dict)
    interval_weights: dict[int, dict[int, Fraction]] = field(default_factory=dict)
    challenges: dict[tuple[int, int], ChallengeContext] = field(default_factory=dict)
    shift_draw: tuple[int, ...] = ()  # over layout.shifts
    interval_draw: dict[int, tuple[int, ...]] = field(default_factory=dict)  # over index_range


def verifier_tables(params: ProtocolParams, weights: tuple[Fraction, ...]) -> VerifierTables:
    """Compile the verifier for one histogram of exact weights."""
    if any(w < 0 for w in weights):
        return VerifierTables(REJECT_MALFORMED_HISTOGRAM)
    if not (1 - Fraction(1, 2**params.n)) <= sum(weights, Fraction(0)) <= 1:
        return VerifierTables(REJECT_HISTOGRAM_SUM)
    layout = params.layout
    floats = tuple(map(float, weights))
    live = compute_live_bands(weights, params)
    hist = Histogram(eps=params.eps, t=params.t, weights=weights)
    shift_weights, per_shift, challenges, interval_draw = {}, {}, {}, {}
    for s in layout.shifts:
        per_interval, shift_weights[s] = interval_weights(hist, layout, s)
        per_shift[s] = per_interval
        interval_draw[s] = cumulative_weights([per_interval[k] for k in layout.index_range])
        for k in layout.index_range:
            if per_interval[k] == 0:
                continue
            interval = layout.interval(s, k)
            z = band_mass_sum(floats, interval, params.eps)
            m, g = challenge_width(weights, interval, z, params)
            active = tuple(i for i in interval if i in live)
            windows = () if m > params.n else tuple(
                check_b_window(i, floats[i], m, g, z, params.eps) for i in active
            )
            challenges[(s, k)] = ChallengeContext(
                s=s, k=k, interval=interval, active=active, active_set=frozenset(active),
                g=g, m=m, band_mass_sum=z, windows=windows,
                bounds=tuple((lo * (1.0 - TAU), hi * (1.0 + TAU)) for lo, hi in windows),
                band_draw=cumulative_weights([weights[i] for i in interval]),
            )
    return VerifierTables(
        reason=None, weights=weights,
        shift_weights=shift_weights, interval_weights=per_shift, challenges=challenges,
        shift_draw=cumulative_weights([shift_weights[s] for s in layout.shifts]),
        interval_draw=interval_draw,
    )


def band_mass_sum(weights, interval: Sequence[int], eps: float) -> float:
    """The sum of 2**(i*eps) * w_i over the interval, in doubles; inf when
    a power of two overflows."""
    try:
        return sum((2.0 ** (i * eps)) * float(weights[i]) for i in interval)
    except OverflowError:
        return math.inf


def challenge_width(weights, interval: Sequence[int], z: float, params: ProtocolParams):
    """Hash output width m and centring g for an interval whose band-mass
    sum is z (``band_mass_sum`` of the same weights and interval).

    The level is log2(z). When the float sum underflows to 0 or overflows
    to inf, the level is taken from exact logs of the rational weights
    instead, so tiny masses give a small level rather than a domain error,
    and mass in bands past 2**1024 a large level (a hash-width reject)
    rather than an overflow.
    """
    if 0 < z < math.inf:
        level = math.log2(z)
    else:
        logs = [
            i * params.eps + math.log2(w.numerator) - math.log2(w.denominator)
            for i in interval
            if (w := Fraction(weights[i])) > 0
        ]
        top = max(logs)
        level = top + math.log2(sum(2.0 ** (lg - top) for lg in logs))
    shifted = level - params.sampling_gap
    m = max(0, math.floor(shifted))
    g = params.sampling_gap + (shifted - math.floor(shifted))
    return m, g


def choose_challenge(tables: VerifierTables, params: ProtocolParams, coins: CoinSource):
    """Draw shift, interval, and hash; returns (context, hash, reject reason)."""
    layout = params.layout
    # A histogram that passes round 1 has positive mass, and every band lies
    # in an interval for all but one of at least two shifts, so the shift
    # draw is not degenerate. Shift s has positive mass, so neither is its
    # interval draw.
    s = layout.shifts[coins.pick(tables.shift_draw)]
    ctx = tables.challenges[(s, layout.index_range[coins.pick(tables.interval_draw[s])])]
    if ctx.m > params.n:
        return None, None, REJECT_HASH_WIDTH
    return ctx, sample_hash(params.n, ctx.m, coins), None


def check_b_window(i: int, w_f: float, m: int, g: float, z: float, eps: float) -> tuple[float, float]:
    """Check (b)'s cardinality window [lo, hi], before widening by TAU, for
    band i of mass w_f under hash width m and centring g, in an interval
    with band-mass sum z.

    When a power of two overflows a double (bands past i * eps = 1024,
    reachable at huge sampling gaps), the window is (inf, inf): no set
    size fits it, so the band ends in a check-b reject. Both edges go, not
    just the one that overflowed, because an infinite upper edge alone
    would drop the bound the check exists for."""
    try:
        if m == 0:
            lo = (2.0 ** (i * eps)) * w_f
            hi = (2.0 ** ((i + 1) * eps)) * w_f
        else:
            base = (2.0 ** g) / z
            lo = (2.0 ** (-eps)) * base * (2.0 ** (i * eps)) * w_f
            hi = (2.0 ** eps) * base * (2.0 ** ((i + 1) * eps)) * w_f
    except OverflowError:
        return math.inf, math.inf
    return lo, hi


# int, endlessly: ``all(map(is_, map(type, xs), _INTS))`` tells that every
# element of xs is exactly an int by comparing types by identity, so not
# even a metaclass's ``__hash__`` runs. A repeat keeps no position, so one
# serves every call, which saves building one per call on small sets.
_INTS = itertools.repeat(int)


def exact_ints(xs):
    """The elements of a sets entry, or the bands of a sets message, as the
    verifier reads them: xs itself when every element is exactly an int,
    else a list keeping each bool and replacing each other int subclass by
    its exact int value. The value is read by ``int.__index__``, which
    copies the int without calling any method the subclass defines. None
    when an element is not an int."""
    # map() keeps the per-element work in C.
    if all(map(is_, map(type, xs), _INTS)):
        return xs
    try:
        return [x if type(x) is bool else int.__index__(x) for x in xs]
    except TypeError:
        return None


def exact_number(v):
    """A number a prover sent, by its exact value, read without running any
    method its class defines: v itself when its type is exactly int, bool
    or Fraction, another int subclass by ``int.__index__``, and another
    Fraction subclass as the Fraction of the base class's numerator and
    denominator slots. None when v is neither an int nor a Fraction."""
    t = type(v)
    if t is int or t is Fraction or t is bool:
        return v
    try:
        return int.__index__(v)
    except TypeError:
        pass
    try:
        return Fraction(
            int.__index__(Fraction._numerator.__get__(v)),
            int.__index__(Fraction._denominator.__get__(v)),
        )
    except (TypeError, AttributeError, ZeroDivisionError):
        return None


def check_sets(sets, f: HashFunction, ctx: ChallengeContext, params: ProtocolParams):
    """Validate the sets message as ``parse_sets`` records it, under the
    drawn hash f; returns (normalized sets, reject reason).

    The verifier checks, in order: message shape (its keys are
    ``ctx.active_set``), the total-size guard, (a) every listed element
    hashes to the all-zero target, (b) every set's size lies in its
    ``ctx.bounds`` entry, the ``ctx.windows`` entry widened by TAU, and (c)
    the sets are pairwise disjoint.

    Each entry is read once through ``exact_ints``, so no method of a
    prover's int subclass runs, and sorted; an exact value outside
    [0, 2**n), found on the sorted ends, is malformed. The sorted entries
    are listed as they are read, and one set is built over that list: when
    its size equals the total, no set holds a duplicate and check (c)
    passes. Only when it falls short are the sets looked at one by one: a
    duplicate inside one is malformed, else the overlap fails check (c)
    after (a) and (b). Check (a) is one ``HashFunction.zero_on`` call over
    that list, and evaluates nothing at m = 0.
    """
    if sets is None or sets.keys() != ctx.active_set:
        return None, REJECT_MALFORMED_SETS
    normalized = {}
    listed = []
    for i in ctx.active:
        xs = exact_ints(sets[i])
        if xs is None:
            return None, REJECT_MALFORMED_SETS
        xs = sorted(xs)
        if xs and (xs[0] < 0 or xs[-1] >> params.n):
            return None, REJECT_MALFORMED_SETS
        normalized[i] = tuple(xs)
        listed += xs
    total = len(listed)
    overlap = len(set(listed)) != total
    if overlap and any(len(set(xs)) != len(xs) for xs in normalized.values()):
        return None, REJECT_MALFORMED_SETS
    if total > params.set_cap:
        return None, REJECT_OVERSIZE
    # with no rows (m = 0) every input hashes to the zero target
    if f.rows and not f.zero_on(listed):
        return None, REJECT_CHECK_A
    for xs, (lo, hi) in zip(normalized.values(), ctx.bounds):
        if not lo <= len(xs) <= hi:
            return None, REJECT_CHECK_B
    if overlap:
        return None, REJECT_CHECK_C
    return normalized, None


def choose_element(ctx: ChallengeContext, sets, coins: CoinSource):
    """Draw the band and element; returns ((band, element), reject reason)."""
    # The interval was drawn by its mass, so its band draw is not degenerate.
    j = ctx.interval[coins.pick(ctx.band_draw)]
    if j not in ctx.active_set:
        return None, REJECT_BAND_NOT_LIVE
    members = sets[j]
    if not members:
        return None, REJECT_EMPTY_SET
    x = members[coins.randrange(len(members))]
    return (j, x), None


def finalize(j: int, x: int, p_msg, params: ProtocolParams) -> Outcome:
    """Accept the claimed probability if it lies in band j, else substitute.

    The claim is read by its exact value (``exact_number``), and an
    accepted claim is output as that exact Fraction. It lies in band j when
    ``bucket_of`` puts it there, decided as ``bucket_of`` decides it but on
    the claim's numerator and denominator as ints: 0 < num <= den, and the
    floor of (TAU - (log2(num) - log2(den))) / eps equals j. The verifier's
    j is a band in 0..t, so ``bucket_of``'s range check adds nothing. The
    substitute is the band's upper endpoint ``pow2(-j*eps)``: an exact
    rational when j*eps is an integer and a tagged real otherwise.
    """
    p = exact_number(p_msg)
    if p is not None:
        num, den = p.numerator, p.denominator
        if 0 < num <= den and math.floor(
            (TAU - (math.log2(num) - math.log2(den))) / params.eps
        ) == j:
            return Outcome.output(x, p if type(p) is Fraction else Fraction(p), j)
    return Outcome.output(x, pow2(-j * params.eps), j)


# ---------------------------------------------------------------------------
# Full runs


def run_protocol(
    params: ProtocolParams,
    prover: ProverStrategy,
    rng=None,
    replay_coins: Optional[Sequence[int]] = None,
    trial: Optional[int] = None,
) -> Transcript:
    """Execute one full run and return its transcript.

    In fallback mode the run delegates to the trivial protocol. Exactly one
    of ``rng`` and ``replay_coins`` must be provided. A t past the band cap
    ``MAX_BANDS`` raises ``InvalidLayoutError`` before the prover is asked.
    """
    if params.mode == MODE_TRIVIAL:
        return trivial_protocol(params, prover, rng=rng, replay_coins=replay_coins, trial=trial)
    params.layout  # built, or refused at the band cap, before the first message
    coins = CoinSource(rng=rng, replay=replay_coins)
    messages: list = []

    # Each message is read as ``ask`` reads it, inline on this per-run path.
    try:
        weights = prover.produce_histogram()
    except Exception:
        weights = None
    weights = parse_histogram(weights)
    messages.append(("histogram", weights))
    tables, reason = validate_histogram_message(weights, params)
    if reason is not None:
        return _finish(params, messages, coins, Outcome.reject(reason), trial)

    ctx, f, reason = choose_challenge(tables, params, coins)
    if reason is not None:
        return _finish(params, messages, coins, Outcome.reject(reason), trial)
    messages.append(("challenge", ctx.s, ctx.k, f))

    try:
        record = prover.produce_sets(ctx.s, ctx.k, f, ctx.g, ctx.m)
    except Exception:
        record = None
    record = parse_sets(record)
    messages.append(("sets", record, params.n))
    sets, reason = check_sets(record, f, ctx, params)
    if reason is not None:
        return _finish(params, messages, coins, Outcome.reject(reason), trial)

    picked, reason = choose_element(ctx, sets, coins)
    if reason is not None:
        return _finish(params, messages, coins, Outcome.reject(reason), trial)
    j, x = picked
    messages.append(("element", j, x, params.n))

    try:
        p_msg = prover.produce_probability(j, x)
    except Exception:
        p_msg = None
    messages.append(("probability", p_msg))
    outcome = finalize(j, x, p_msg, params)
    return _finish(params, messages, coins, outcome, trial)


def ask(produce, *args):
    """A prover's message: what ``produce(*args)``, one of its ``produce_*``
    methods, returns, or None when it raises an ``Exception``. None is an
    unreadable message of that round: a malformed histogram, sets or table,
    or a claim that ``finalize`` substitutes. A ``BaseException`` that is
    not an ``Exception``, such as ``KeyboardInterrupt``, propagates. The
    verifier and both oracles read every prover message this way.
    ``run_protocol`` and the flat oracle's sweep inline it on their per-run
    and per-hash paths, where its frame would cost about 0.1 us a message
    (Python 3.11)."""
    try:
        return produce(*args)
    except Exception:
        return None


def parse_histogram(raw):
    """The histogram message as a transcript keeps it and round 1 reads it:
    a tuple of its entries, or None unless it is a sized iterable. Like
    every decoder of a prover's message, it is total: any exception the
    prover's objects raise while it reads them gives None."""
    try:
        len(raw)
        return tuple(raw)
    except Exception:
        return None


def parse_sets(raw_sets):
    """The sets message as the transcript records it and the verifier checks
    it: {band: tuple of elements}, or None unless a mapping from int bands
    to iterables. Each entry is iterated once. Bands are read by their
    exact value (``exact_ints``), so no method of a key's int subclass
    runs, and two bands of one value are malformed. A mapping is told by
    its type, never by ``isinstance``, which would read the message's
    ``__class__``; only a type whose metaclass is ``type`` or ``ABCMeta``
    is asked whether it is a ``Mapping``, since the ABC's caches hash it.
    Total, as ``parse_histogram``."""
    try:
        cls = type(raw_sets)
        if cls is dict and all(map(is_, map(type, raw_sets), _INTS)):
            # The exact int bands of a dict are distinct values, and hashing
            # them runs no prover code, so the entries are read in one pass.
            return {i: tuple(xs) for i, xs in raw_sets.items()}
        if not (type(cls) is type or type(cls) is ABCMeta) or not issubclass(cls, Mapping):
            return None
        entries = [(i, tuple(xs)) for i, xs in raw_sets.items()]
        bands = exact_ints([i for i, _ in entries])
        if bands is None:
            return None
        record = dict(zip(bands, [xs for _, xs in entries]))
        return record if len(record) == len(entries) else None
    except Exception:
        return None


def _finish(params, messages, coins, outcome, trial) -> Transcript:
    # positional: the dataclass ``__init__`` binds these faster than keywords
    return Transcript(params.digest(), messages, coins.record, outcome, trial)


def parse_table(entries) -> Optional[list[tuple[int, Fraction]]]:
    """The fallback table as (element, Fraction) pairs, or None unless it is
    an iterable of (int, int or Fraction) pairs. Each number is read by its
    exact value (``exact_number``), so no prover code runs and a float or
    string probability is refused. Total, as ``parse_histogram``."""
    try:
        pairs = [tuple(item) for item in entries]
    except Exception:
        return None
    table = []
    for pair in pairs:
        if len(pair) != 2:
            return None
        x, p = exact_number(pair[0]), exact_number(pair[1])
        if x is None or type(x) is Fraction or p is None:
            return None
        table.append((x, Fraction(p)))
    return table


def validate_table(table, params: ProtocolParams) -> Optional[str]:
    """None when a parsed table lists distinct n-bit elements with
    probabilities in (0, 1] summing to exactly 1, else the reject reason."""
    if table is None:
        return REJECT_MALFORMED_TABLE
    seen = set()
    total = Fraction(0)
    for x, p in table:
        if x < 0 or (x >> params.n) or x in seen or not 0 < p <= 1:
            return REJECT_MALFORMED_TABLE
        seen.add(x)
        total += p
    if total != 1:
        return REJECT_MALFORMED_TABLE
    return None


def trivial_protocol(
    params: ProtocolParams,
    prover: ProverStrategy,
    rng=None,
    replay_coins: Optional[Sequence[int]] = None,
    trial: Optional[int] = None,
) -> Transcript:
    """Exponential-size fallback: the prover sends the whole distribution.

    The verifier validates that the listed probabilities are positive and
    sum to exactly 1, then outputs an entry (x, p) with probability p.
    """
    coins = CoinSource(rng=rng, replay=replay_coins)
    messages: list = []
    table = parse_table(ask(prover.produce_table))
    messages.append(("table", table, params.n))
    reason = validate_table(table, params)
    if reason is not None:
        return _finish(params, messages, coins, Outcome.reject(reason), trial)
    table = sorted(table)
    idx = coins.weighted_index([p for _, p in table])
    x, p = table[idx]
    return _finish(params, messages, coins, Outcome.output(x, p, None), trial)


def replay(params: ProtocolParams, prover: ProverStrategy, transcript: Transcript) -> Transcript:
    """Re-run a transcript from its recorded coins."""
    return run_protocol(params, prover, replay_coins=transcript.coins, trial=transcript.trial)
