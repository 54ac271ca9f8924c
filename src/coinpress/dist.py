"""Explicit distributions, probability histograms, and the interval/gap layout.

Probabilities are exact rationals (``fractions.Fraction``) so that mass
accounting is exact; only the irrational quantities 2**(i*eps) are ever
evaluated in floating point. Bucket i collects the elements whose
probability lies in the half-open band (2**(-(i+1)*eps), 2**(-i*eps)],
and the histogram entry h_i is the total mass of bucket i.

Bucket membership is decided on log2(p) in double precision with a fixed
absolute tolerance TAU applied outward on the inclusive side of each band
boundary, so bucketing is deterministic and reproducible across platforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

# Global tolerance for real-valued comparisons made by the verifier. An
# honest prover must never be rejected by rounding; 1e-12 is far above the
# ~1e-16 relative error of double arithmetic and far below any statistical
# resolution the protocol works at.
TAU = 1e-12

MAX_BITS = 64

# The most bands (t + 1) a histogram or an interval layout is built for.
# Both allocate per band: at 2**20 bands ``interval_layout(t, 1, 2)`` alone
# holds about 148 MB (tracemalloc), so t near 6e9 (eps = 1e-9 at n = 3)
# would ask for GBs. No desk-scale run comes near it.
MAX_BANDS = 2**20


class InvalidDistributionError(ValueError):
    """Raised when a distribution violates its invariants."""


class InvalidLayoutError(ValueError):
    """Raised when interval layout parameters are structurally invalid."""


def _hex_width(n: int) -> int:
    return (n + 3) // 4


def element_to_hex(x: int, n: int) -> str:
    """Render an n-bit element as zero-padded lowercase hex."""
    return format(x, f"0{_hex_width(n)}x")


def element_from_hex(s: str, n: int) -> int:
    x = int(s, 16)
    if x < 0 or x >> n:
        raise InvalidDistributionError(f"element {s!r} does not fit in {n} bits")
    return x


def fraction_to_str(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def fraction_from_str(s: str) -> Fraction:
    num, _, den = s.partition("/")
    if not den:
        raise InvalidDistributionError(f"malformed rational {s!r}")
    return Fraction(int(num), int(den))


# The probability of every element outside a support: Fractions are
# immutable, so one serves every call.
_ZERO = Fraction(0)


@dataclass(frozen=True)
class ExplicitDistribution:
    """A sparse distribution over n-bit strings with exact rational masses.

    Invariants, checked at construction: the masses are strictly positive,
    sum to exactly 1, and every key fits in n bits (1 <= n <= 64). Absent
    keys have probability 0. Instances are immutable and safe to share
    across concurrent workers.
    """

    n: int
    mass: Mapping[int, Fraction]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_BITS:
            raise InvalidDistributionError(f"bit width {self.n} outside 1..{MAX_BITS}")
        mass = {int(x): Fraction(p) for x, p in self.mass.items()}
        for x, p in mass.items():
            if x < 0 or x >> self.n:
                raise InvalidDistributionError(f"element {x:#x} does not fit in {self.n} bits")
            if p <= 0:
                raise InvalidDistributionError(f"mass of {x:#x} is not strictly positive")
        total = sum(mass.values(), Fraction(0))
        if total != 1:
            raise InvalidDistributionError(f"total mass is {total}, expected exactly 1")
        object.__setattr__(self, "mass", mass)

    def prob(self, x: int) -> Fraction:
        """Probability of x, zero for elements outside the support."""
        return self.mass.get(x, _ZERO)

    def support(self) -> list[int]:
        return sorted(self.mass)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "mass": {
                element_to_hex(x, self.n): fraction_to_str(p)
                for x, p in sorted(self.mass.items())
            },
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExplicitDistribution":
        try:
            n = int(obj["n"])
            mass = {element_from_hex(k, n): fraction_from_str(v) for k, v in obj["mass"].items()}
        except (AttributeError, KeyError, TypeError) as exc:
            raise InvalidDistributionError(f"malformed distribution object: {exc}")
        return cls(n=n, mass=mass)

    @classmethod
    def uniform(cls, n: int, elements: Iterable[int]) -> "ExplicitDistribution":
        elems = list(elements)
        return cls(n=n, mass={x: Fraction(1, len(elems)) for x in elems})

    @classmethod
    def point(cls, n: int, x: int) -> "ExplicitDistribution":
        return cls(n=n, mass={x: Fraction(1)})


def load_distribution(path: str) -> ExplicitDistribution:
    """Load a distribution file, failing loudly on any invariant violation."""
    with open(path, "r", encoding="utf-8") as fh:
        return ExplicitDistribution.from_json_obj(json.load(fh))


def _log2_value(p) -> float:
    if isinstance(p, Fraction):
        return math.log2(p.numerator) - math.log2(p.denominator)
    return math.log2(p)


def pow2(e: float) -> Union[Fraction, float]:
    """2**e: an exact Fraction when e is an integer, else the double."""
    if e == int(e):
        return Fraction(2) ** int(e)
    return 2.0 ** e


def bucket_of(p, eps: float, t: int) -> Optional[int]:
    """Index i of the probability band holding p, or None for dropped tail.

    p belongs to band i when -(i+1)*eps < log2(p) <= -i*eps, with the
    boundary test widened by TAU toward the inclusive side. Values at or
    below 2**(-(t+1)*eps) fall outside every band and yield None.
    """
    if p <= 0 or p > 1:
        return None
    lg = _log2_value(p)
    i = math.floor((TAU - lg) / eps)
    if i < 0 or i > t:
        return None
    return i


@dataclass(frozen=True)
class Histogram:
    """Per-band mass vector of a distribution, indexed 0..t.

    ``weights[i]`` is the exact total mass of band i; ``dropped_mass`` is
    the mass of elements whose probability fell below every band, so that
    sum(weights) + dropped_mass == 1 exactly when built from a
    distribution.
    """

    eps: float
    t: int
    weights: tuple[Fraction, ...]
    dropped_mass: Fraction = field(default_factory=lambda: Fraction(0))

    def __post_init__(self):
        if len(self.weights) != self.t + 1:
            raise ValueError(f"histogram has {len(self.weights)} entries, expected {self.t + 1}")

    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))


def build_histogram(dist: ExplicitDistribution, eps: float, t: int) -> Histogram:
    """Accumulate the exact band masses of ``dist`` for band width eps.

    Refuses a t whose t + 1 bands exceed ``MAX_BANDS``, before allocating."""
    # eps in (0, 1) in calibrated use; eps == 1 is the classic dyadic grid
    # and is accepted for raw-mode experiments.
    if not 0 < eps <= 1:
        raise ValueError(f"eps {eps} outside (0, 1]")
    if t < 1:
        raise ValueError("t must be at least 1")
    if t + 1 > MAX_BANDS:
        raise ValueError(f"t is too large: its t + 1 bands cannot be indexed within MAX_BANDS = {MAX_BANDS}")
    weights = [Fraction(0)] * (t + 1)
    dropped = Fraction(0)
    for x, p in dist.mass.items():
        i = bucket_of(p, eps, t)
        if i is None:
            dropped += p
        else:
            weights[i] += p
    return Histogram(eps=eps, t=t, weights=tuple(weights), dropped_mass=dropped)


def buckets(dist: ExplicitDistribution, eps: float, t: int) -> dict[int, set[int]]:
    """All nonempty buckets of ``dist``, as a map from band index to members."""
    out: dict[int, set[int]] = {}
    for x, p in dist.mass.items():
        i = bucket_of(p, eps, t)
        if i is not None:
            out.setdefault(i, set()).add(x)
    return out


@dataclass(frozen=True)
class IntervalLayout:
    """Tiling of the band indices 0..t into intervals separated by gaps.

    For each shift s the indices split into intervals of size at most
    ``interval_size`` with gaps of size exactly ``gap_size`` between
    consecutive intervals; interval 0 is the stub {0, ..., s}. The shifts
    are chosen so that every index j in 0..t falls in a gap for exactly one
    shift, hence inside an interval for exactly len(shifts) - 1 of them.
    """

    t: int
    gap_size: int
    interval_size: int
    shifts: tuple[int, ...]
    index_range: tuple[int, ...]
    intervals: Mapping[int, tuple[tuple[int, ...], ...]]

    def interval(self, s: int, i: int) -> tuple[int, ...]:
        return self.intervals[s][i]

    def interval_index_of(self, s: int, j: int) -> Optional[int]:
        """Index i with j in interval i of shift s, or None when j is in a gap
        or outside 0..t."""
        if not 0 <= j <= self.t:
            return None
        if j <= s:
            return 0
        # Past the stub, each period is a gap of gap_size then an interval.
        q, r = divmod(j - s - 1, self.gap_size + self.interval_size)
        return None if r < self.gap_size else q + 1


def interval_layout(t: int, gap_size: int, interval_size: int) -> IntervalLayout:
    """Construct the interval/gap tiling of 0..t.

    Requires gap_size >= 1, interval_size >= gap_size, and
    interval_size % gap_size == 0. Shift s ranges over
    {-1, G-1, 2G-1, ..., I-1} (taking G = gap_size and I = interval_size),
    one shift per gap position inside a period of length G + I; this is
    what makes the per-shift gaps partition 0..t. Refuses a t whose t + 1
    bands exceed ``MAX_BANDS``, before allocating.
    """
    g, iv = gap_size, interval_size
    if g < 1 or iv < g or iv % g != 0:
        raise InvalidLayoutError(
            f"invalid layout: gap_size={g}, interval_size={iv} "
            "(need gap_size >= 1, interval_size >= gap_size, divisible)"
        )
    if t < 1:
        raise InvalidLayoutError("t must be at least 1")
    if t + 1 > MAX_BANDS:
        raise InvalidLayoutError(f"t is too large: its t + 1 bands cannot be indexed within MAX_BANDS = {MAX_BANDS}")
    shifts = tuple(c * g - 1 for c in range(iv // g + 1))
    k_max = -(-t // (iv + g))  # ceil
    index_range = tuple(range(k_max + 1))
    intervals = {}
    for s in shifts:
        per_shift = []
        for i in index_range:
            if i == 0:
                lo, hi = 0, s
            else:
                lo = s + i * g + (i - 1) * iv + 1
                hi = s + i * (g + iv)
            per_shift.append(tuple(range(max(lo, 0), min(hi, t) + 1)))
        intervals[s] = tuple(per_shift)
    return IntervalLayout(
        t=t,
        gap_size=g,
        interval_size=iv,
        shifts=shifts,
        index_range=index_range,
        intervals=intervals,
    )


def interval_weights(hist: Histogram, layout: IntervalLayout, s: int) -> tuple[dict[int, Fraction], Fraction]:
    """Exact per-interval masses for shift s and their total.

    Returns ({i: weight of interval i}, total weight w(s)).
    """
    if s not in layout.intervals:
        raise ValueError(f"{s} is not a shift of this layout")
    per_interval = {}
    total = Fraction(0)
    for i, members in enumerate(layout.intervals[s]):
        w = sum((hist.weights[j] for j in members), Fraction(0))
        per_interval[i] = w
        total += w
    return per_interval, total


def statistical_distance(d1: Mapping, d2: Mapping) -> Fraction:
    """Half the L1 distance between two distributions over a common space."""
    keys = set(d1) | set(d2)
    acc = Fraction(0)
    for k in keys:
        acc += abs(Fraction(d1.get(k, 0)) - Fraction(d2.get(k, 0)))
    return acc / 2
