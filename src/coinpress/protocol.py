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
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from coinpress.dist import (
    TAU,
    ExplicitDistribution,
    Histogram,
    IntervalLayout,
    bucket_of,
    buckets,
    build_histogram,
    element_to_hex,
    fraction_to_str,
    interval_layout,
    interval_weights,
)
from coinpress.hashing import HashFunction, sample_hash

MODE_CALIBRATED = "calibrated"
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
    """All derived protocol constants plus the operating mode.

    ``eps`` is the histogram band width, ``t`` the largest band index,
    ``gap_size``/``interval_size`` the integer tiling constants (their raw
    real-valued precursors are kept for diagnostics), and ``sampling_gap``
    centers the hash output width so that surviving sets have roughly
    2**sampling_gap elements.
    """

    n: int
    eps: float
    delta: float
    t: int
    gap_size: int
    interval_size: int
    sampling_gap: float
    mode: str
    gap_size_raw: float
    interval_size_raw: float
    eps_prime: Optional[float] = None
    delta_prime: Optional[float] = None
    set_cap: int = DEFAULT_SET_CAP

    def __post_init__(self):
        if not 1 <= self.n <= 64:
            raise ValueError(f"n={self.n} outside 1..64")
        if self.mode not in (MODE_CALIBRATED, MODE_RAW, MODE_TRIVIAL):
            raise ValueError(f"unknown mode {self.mode!r}")
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
        g_raw = (2.0 / eps) * math.log2(1.0 / eps) if eps < 1 else 1.0
        i_raw = g_raw / delta
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
            mode=MODE_RAW, gap_size_raw=g_raw, interval_size_raw=i_raw,
            set_cap=set_cap,
        )

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
    fraction delta_prime / 16. When (9000/eps_prime)**(16/delta_prime)
    exceeds 2**(n/50), the calibrated protocol is not applicable and the
    fallback mode is selected, in which the prover simply sends the whole
    distribution. The inequality is evaluated in log space. All derived
    constants are still computed for inspection.
    """
    if not 0 < eps_prime < 1 or not 0 < delta_prime < 1:
        raise ValueError("accuracy targets must lie in (0, 1)")
    if not 1 <= n <= 64:
        raise ValueError("n outside 1..64")
    eps = eps_prime / 9000.0
    delta = delta_prime / 16.0
    t = math.ceil(2 * n / eps)
    g_raw = (2.0 / eps) * math.log2(1.0 / eps)
    i_raw = g_raw / delta
    g = math.ceil(g_raw)
    iv = math.ceil(i_raw / g) * g
    gap = _sampling_gap(t, i_raw, eps)
    fallback = (1.0 / delta) * math.log2(1.0 / eps) > n / 50.0
    return ProtocolParams(
        n=n, eps=eps, delta=delta, t=t, gap_size=g, interval_size=iv,
        sampling_gap=gap, mode=MODE_TRIVIAL if fallback else MODE_CALIBRATED,
        gap_size_raw=g_raw, interval_size_raw=i_raw,
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
    """Elementary integer coins for one protocol run, recorded for replay."""

    def __init__(self, rng=None, replay: Optional[Sequence[int]] = None):
        if (rng is None) == (replay is None):
            raise ValueError("provide exactly one of rng, replay")
        self._rng = rng
        self._replay = list(replay) if replay is not None else None
        self._pos = 0
        self.record: list[int] = []

    def _emit(self, value: int) -> int:
        self.record.append(value)
        return value

    def randrange(self, size: int) -> int:
        if self._replay is not None:
            value = self._replay[self._pos]
            self._pos += 1
            if not 0 <= value < size:
                raise ValueError("replayed coin out of range")
            return self._emit(value)
        return self._emit(self._rng.randrange(size))

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

    @classmethod
    def output(cls, x: int, p: ProbabilityValue, band: Optional[int]) -> "Outcome":
        return cls(kind="output", x=x, p=p, band=band)

    @classmethod
    def reject(cls, reason: str) -> "Outcome":
        return cls(kind="reject", reason=reason)


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


def _weight_json(w):
    # A malformed histogram may list floats, strings or junk; keep only their type.
    if isinstance(w, (int, Fraction)):
        return fraction_to_str(Fraction(w))
    return {"malformed": type(w).__name__}


def _element_json(x, n: int):
    # A malformed sets message may list non-integers; keep only their type.
    if isinstance(x, int):
        return element_to_hex(x, n)
    return {"malformed": type(x).__name__}


def _claim_json(p):
    # A malformed probability message may be a string or junk, or an int
    # too large for a float; keep only its type.
    if isinstance(p, (int, float, Fraction)):
        try:
            return probability_json(p)
        except OverflowError:
            pass
    return {"malformed": type(p).__name__}


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

    A strategy must be deterministic given its seed and the message
    history; strategies that flip their own coins draw them in
    ``begin_run`` so the exact oracle can enumerate the draw.
    """

    # True when ``produce_sets`` reads the hash f only through its zero set
    # {x in [0, 2**n) : f(x) = 0}. The exact oracle then asks once per
    # distinct zero set, weighted by how many hash functions share it,
    # instead of once per hash function.
    depends_on_hash_zero_set = False

    def begin_run(self) -> None:
        """Called once at the start of each protocol run."""

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


def compute_live_bands(weights: Sequence[Fraction], params: ProtocolParams) -> set[int]:
    """Band indices whose mass clears the verifier's sampling threshold."""
    thresh = params.live_threshold
    return {j for j, w in enumerate(weights) if w >= thresh}


class HonestProver(ProverStrategy):
    """Prover that holds the distribution and follows the protocol exactly.

    The support is kept in one uint64 array sorted by (band, element). The
    k-th nonempty band, ``_bands[k]``, occupies
    ``_support[_offsets[k]:_offsets[k + 1]]``, so the bands of any interval
    form one contiguous slice that is hashed in one batch. The slice and
    the live bands of each challenge are worked out on its first call.
    """

    depends_on_hash_zero_set = True

    def __init__(self, dist: ExplicitDistribution, params: ProtocolParams):
        if dist.n != params.n:
            raise ValueError("distribution width does not match parameters")
        self.dist = dist
        self.params = params
        self.histogram: Histogram = build_histogram(dist, params.eps, params.t)
        self._live = compute_live_bands(self.histogram.weights, params)
        members = buckets(dist, params.eps, params.t)
        self._bands = sorted(members)
        self._offsets = [0, *itertools.accumulate(len(members[i]) for i in self._bands)]
        self._support = np.array(
            [x for i in self._bands for x in sorted(members[i])], dtype=np.uint64
        )
        self._plans: dict[tuple[int, int], tuple] = {}  # (s, k) -> _plan(s, k)

    def produce_histogram(self) -> Sequence[Fraction]:
        return self.histogram.weights

    def produce_sets(self, s, k, f, g, m):
        plan = self._plans.get((s, k))
        if plan is None:
            plan = self._plans[(s, k)] = self._plan(s, k)
        live, lo, hi, cuts = plan
        out = {i: [] for i in live}
        if not out:
            return out
        block = self._support[lo:hi]
        if not f.rows:  # m = 0: every input hashes to the zero target
            for i, a, b in cuts:
                out[i] = block[a:b].tolist()
            return out
        keep = f.eval_batch(block) == 0
        for i, a, b in cuts:
            out[i] = block[a:b][keep[a:b]].tolist()
        return out

    def _plan(self, s, k):
        """What ``produce_sets`` needs of challenge (s, k) besides f: the
        live bands of the interval in order, the support slice holding the
        interval's bands, and each live band's cut of that slice."""
        interval = self.params.layout.interval(s, k)
        live = tuple(i for i in interval if i in self._live)
        if not live:
            return live, 0, 0, ()
        bands, offsets = self._bands, self._offsets
        first = bisect.bisect_left(bands, interval[0])
        last = bisect.bisect_right(bands, interval[-1])
        lo = offsets[first]
        cuts = tuple(
            (bands[pos], offsets[pos] - lo, offsets[pos + 1] - lo)
            for pos in range(first, last)
            if bands[pos] in live
        )
        return live, lo, offsets[last], cuts

    def produce_probability(self, j: int, x: int) -> Fraction:
        return self.dist.prob(x)

    def produce_table(self):
        return [(x, self.dist.prob(x)) for x in self.dist.support()]


def honest_prover(dist: ExplicitDistribution, params: ProtocolParams) -> HonestProver:
    return HonestProver(dist, params)


# ---------------------------------------------------------------------------
# Verifier rounds


_NUMERATOR = operator.attrgetter("numerator")
_DENOMINATOR = operator.attrgetter("denominator")


def validate_histogram_message(weights, params: ProtocolParams):
    """Round 1: (tables, None) for a well-formed histogram message, else
    (None, reject reason).

    The message must be a sized iterable of t+1 int or Fraction entries;
    ``bool`` is an ``int``, so True and False are the weights 1 and 0. This
    is the verifier's only per-run pass over it: the entries become one
    flat int key, numerators then denominators, without building a
    Fraction, and everything else is looked up in ``verifier_tables``.
    """
    weights = _histogram_record(weights)
    # map() keeps the per-entry work in C: this is most of a cached run.
    if (
        weights is None
        or len(weights) != params.t + 1
        or not all(map(isinstance, weights, itertools.repeat((int, Fraction))))
    ):
        return None, REJECT_MALFORMED_HISTOGRAM
    tables = verifier_tables(params, (*map(_NUMERATOR, weights), *map(_DENOMINATOR, weights)))
    if tables.reason is not None:
        return None, tables.reason
    return tables, None


@dataclass(frozen=True)
class ChallengeContext:
    """The verifier's state after drawing its challenge."""

    s: int
    k: int
    live: frozenset[int]
    interval: tuple[int, ...]
    active: tuple[int, ...]  # live bands of the chosen interval, sorted
    g: float
    m: int
    f: Optional[HashFunction]  # None until the hash is drawn
    band_mass_sum: float  # sum of 2**(i*eps) * h_i over the interval


@dataclass(frozen=True)
class VerifierTables:
    """Every pure function of (params, histogram) the verifier reads.

    ``reason`` is the round-1 verdict on the entries' values; the other
    fields are empty unless it is None. ``challenges`` holds, per interval
    (s, k) of positive mass, the challenge context before the hash is
    drawn; m > n there marks a hash-width reject. The ``*_draw`` fields are
    ``cumulative_weights`` tables, so each draw spends exactly the coin
    ``CoinSource.weighted_index`` would on the same weights.
    """

    reason: Optional[str]
    weights: tuple[Fraction, ...] = ()
    floats: tuple[float, ...] = ()
    live: frozenset[int] = frozenset()
    shift_weights: dict[int, Fraction] = field(default_factory=dict)
    interval_weights: dict[int, dict[int, Fraction]] = field(default_factory=dict)
    challenges: dict[tuple[int, int], ChallengeContext] = field(default_factory=dict)
    shift_draw: tuple[int, ...] = ()  # over layout.shifts
    interval_draw: dict[int, tuple[int, ...]] = field(default_factory=dict)  # over index_range
    band_draw: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)  # over the interval


# Workloads see few distinct histograms (one per prover component, three
# for the compiled toy protocol); the bound caps the memory that a stream
# of ever-new histograms can pin.
TABLES_CACHE_SIZE = 64


@functools.lru_cache(maxsize=TABLES_CACHE_SIZE)
def verifier_tables(params: ProtocolParams, key: tuple[int, ...]) -> VerifierTables:
    """Compile the verifier for one histogram, given as the int key that
    ``validate_histogram_message`` builds. Later runs on an equal histogram
    find the result in the cache."""
    half = len(key) // 2
    weights = tuple(map(Fraction, key[:half], key[half:]))
    if any(w < 0 for w in weights):
        return VerifierTables(REJECT_MALFORMED_HISTOGRAM)
    if not (1 - Fraction(1, 2**params.n)) <= sum(weights, Fraction(0)) <= 1:
        return VerifierTables(REJECT_HISTOGRAM_SUM)
    layout = params.layout
    floats = tuple(map(float, weights))
    live = frozenset(compute_live_bands(weights, params))
    hist = Histogram(eps=params.eps, t=params.t, weights=weights)
    shift_weights, per_shift, challenges, interval_draw, band_draw = {}, {}, {}, {}, {}
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
            challenges[(s, k)] = ChallengeContext(
                s=s, k=k, live=live, interval=interval,
                active=tuple(i for i in interval if i in live),
                g=g, m=m, f=None, band_mass_sum=z,
            )
            band_draw[(s, k)] = cumulative_weights([weights[i] for i in interval])
    return VerifierTables(
        reason=None, weights=weights, floats=floats, live=live,
        shift_weights=shift_weights, interval_weights=per_shift, challenges=challenges,
        shift_draw=cumulative_weights([shift_weights[s] for s in layout.shifts]),
        interval_draw=interval_draw, band_draw=band_draw,
    )


def band_mass_sum(weights, interval: Sequence[int], eps: float) -> float:
    return sum((2.0 ** (i * eps)) * float(weights[i]) for i in interval)


def challenge_width(weights, interval: Sequence[int], z: float, params: ProtocolParams):
    """Hash output width m and centring g for an interval whose band-mass
    sum is z (``band_mass_sum`` of the same weights and interval).

    The level is log2(z). When the float sum underflows to 0, the level is
    taken from exact logs of the rational weights instead, so tiny masses
    give a small level rather than a domain error.
    """
    if z > 0:
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
    """Draw shift, interval, and hash; returns (context, reject reason)."""
    layout = params.layout
    try:
        s = layout.shifts[coins.pick(tables.shift_draw)]
    except DegenerateChoiceError:
        return None, REJECT_DEGENERATE
    # Shift s has positive mass, so its interval draw is not degenerate.
    ctx = tables.challenges[(s, layout.index_range[coins.pick(tables.interval_draw[s])])]
    if ctx.m > params.n:
        return None, REJECT_HASH_WIDTH
    return replace(ctx, f=sample_hash(params.n, ctx.m, coins)), None


def check_b_window(i: int, w_f: float, m: int, g: float, z: float, eps: float) -> tuple[float, float]:
    """Check (b)'s cardinality window [lo, hi], before widening by TAU, for
    band i of mass w_f under hash width m and centring g, in an interval
    with band-mass sum z."""
    if m == 0:
        lo = (2.0 ** (i * eps)) * w_f
        hi = (2.0 ** ((i + 1) * eps)) * w_f
    else:
        base = (2.0 ** g) / z
        lo = (2.0 ** (-eps)) * base * (2.0 ** (i * eps)) * w_f
        hi = (2.0 ** eps) * base * (2.0 ** ((i + 1) * eps)) * w_f
    return lo, hi


def check_sets(sets, weights, ctx: ChallengeContext, params: ProtocolParams):
    """Validate the prover's sets; returns (normalized sets, reject reason).

    The verifier checks, in order: message shape, the total-size guard,
    (a) every listed element hashes to the all-zero target, (b) every
    set's cardinality lies in the band-mass window, and (c) the sets are
    pairwise disjoint. Real-valued bounds in (b) are widened by TAU.
    """
    if not isinstance(sets, Mapping) or set(sets.keys()) != set(ctx.active):
        return None, REJECT_MALFORMED_SETS
    normalized = {}
    total = 0
    for i in ctx.active:
        try:
            xs = list(sets[i])
        except TypeError:
            return None, REJECT_MALFORMED_SETS
        if any((not isinstance(x, int)) or x < 0 or (x >> params.n) for x in xs):
            return None, REJECT_MALFORMED_SETS
        if len(set(xs)) != len(xs):
            return None, REJECT_MALFORMED_SETS
        normalized[i] = tuple(sorted(xs))
        total += len(xs)
    if total > params.set_cap:
        return None, REJECT_OVERSIZE
    for i in ctx.active:
        for x in normalized[i]:
            if ctx.f.eval(x) != 0:
                return None, REJECT_CHECK_A
    for i in ctx.active:
        lo, hi = check_b_window(i, float(weights[i]), ctx.m, ctx.g, ctx.band_mass_sum, params.eps)
        if not (lo * (1.0 - TAU) <= len(normalized[i]) <= hi * (1.0 + TAU)):
            return None, REJECT_CHECK_B
    seen: set[int] = set()
    for i in ctx.active:
        for x in normalized[i]:
            if x in seen:
                return None, REJECT_CHECK_C
            seen.add(x)
    return normalized, None


def choose_element(tables: VerifierTables, ctx: ChallengeContext, sets, coins: CoinSource):
    """Draw the band and element; returns ((band, element), reject reason)."""
    # The interval was drawn by its mass, so its band draw is not degenerate.
    j = ctx.interval[coins.pick(tables.band_draw[(ctx.s, ctx.k)])]
    if j not in ctx.active:
        return None, REJECT_BAND_NOT_LIVE
    members = sets[j]
    if not members:
        return None, REJECT_EMPTY_SET
    x = members[coins.randrange(len(members))]
    return (j, x), None


def finalize(j: int, x: int, p_msg, params: ProtocolParams) -> Outcome:
    """Accept the claimed probability if it lies in band j, else substitute.

    The substitute is the band's upper endpoint 2**(-j*eps): an exact
    rational when j*eps is an integer and a tagged real otherwise.
    """
    if isinstance(p_msg, int):
        p_msg = Fraction(p_msg)
    if isinstance(p_msg, Fraction) and bucket_of(p_msg, params.eps, params.t) == j:
        return Outcome.output(x, p_msg, j)
    exponent = j * params.eps
    if exponent == int(exponent):
        substitute: ProbabilityValue = Fraction(1, 2 ** int(exponent))
    else:
        substitute = 2.0 ** (-exponent)
    return Outcome.output(x, substitute, j)


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
    of ``rng`` and ``replay_coins`` must be provided.
    """
    if params.mode == MODE_TRIVIAL:
        return trivial_protocol(params, prover, rng=rng, replay_coins=replay_coins, trial=trial)
    coins = CoinSource(rng=rng, replay=replay_coins)
    messages: list = []
    prover.begin_run()

    weights = _histogram_record(prover.produce_histogram())
    messages.append(("histogram", weights))
    tables, reason = validate_histogram_message(weights, params)
    if reason is not None:
        return _finish(params, messages, coins, Outcome.reject(reason), trial)

    ctx, reason = choose_challenge(tables, params, coins)
    if reason is not None:
        return _finish(params, messages, coins, Outcome.reject(reason), trial)
    messages.append(("challenge", ctx.s, ctx.k, ctx.f))

    raw_sets = prover.produce_sets(ctx.s, ctx.k, ctx.f, ctx.g, ctx.m)
    messages.append(("sets", _sets_record(raw_sets), params.n))
    sets, reason = check_sets(raw_sets, tables.floats, ctx, params)
    if reason is not None:
        return _finish(params, messages, coins, Outcome.reject(reason), trial)

    picked, reason = choose_element(tables, ctx, sets, coins)
    if reason is not None:
        return _finish(params, messages, coins, Outcome.reject(reason), trial)
    j, x = picked
    messages.append(("element", j, x, params.n))

    p_msg = prover.produce_probability(j, x)
    messages.append(("probability", p_msg))
    outcome = finalize(j, x, p_msg, params)
    return _finish(params, messages, coins, outcome, trial)


def _histogram_record(raw):
    """The histogram message as a transcript keeps it: a tuple of its
    entries, or None when it is not a sized iterable."""
    try:
        len(raw)
        return tuple(raw)
    except TypeError:
        return None


def _sets_record(raw_sets):
    """The sets message as a transcript keeps it: {band: tuple of elements},
    or None when it is not a mapping from int bands to iterables."""
    if not isinstance(raw_sets, Mapping):
        return None
    try:
        record = {i: tuple(xs) for i, xs in raw_sets.items()}
    except TypeError:
        return None
    if not all(isinstance(i, int) for i in record):
        return None
    return record


def _finish(params, messages, coins, outcome, trial) -> Transcript:
    return Transcript(
        params_digest=params.digest(),
        messages=messages,
        coins=list(coins.record),
        outcome=outcome,
        trial=trial,
    )


def parse_table(entries) -> Optional[list[tuple[int, Fraction]]]:
    """The fallback table as (element, Fraction) pairs, or None unless it is
    an iterable of (int, int or Fraction) pairs. Types are checked before
    anything is converted, so a float or string probability is refused."""
    try:
        pairs = [tuple(item) for item in entries]
    except TypeError:
        return None
    for pair in pairs:
        if len(pair) != 2 or not isinstance(pair[0], int) or not isinstance(pair[1], (int, Fraction)):
            return None
    return [(x, Fraction(p)) for x, p in pairs]


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
    prover.begin_run()
    table = parse_table(prover.produce_table())
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
