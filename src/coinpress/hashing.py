"""3-wise independent hashing over GF(2^n) with exhaustive self-checks.

The family maps an n-bit input x to the m low-order bits of
a*x^2 + b*x + c computed in GF(2^n), with (a, b, c) drawn uniformly.
Degree-2 polynomials over a field are 3-wise independent, and truncation
to m bits preserves that, so for any three distinct inputs the outputs are
independent and uniform over the family choice. The family is exactly
enumerable for tiny n, which the verification helpers below exploit.

Everything is pure Python. The parity masks of a hash (``row_masks``)
are linear in its coefficients, so they are one lookup per 4-bit nibble of
the coefficients in per-width tables. Evaluation goes one input at a time
by those masks, or a batch held as bit planes (``BitPlanes``), so the
whole batch is hashed by xors of its planes, one lookup per nibble of each
mask in the batch's own tables of plane xors. Whether a whole list hashes
to the all-zero target is answered without transposing it, on the list
packed into one int of fixed-width lanes (``HashFunction.zero_on``), and
``select`` lists the members of a batch's zero set. The exhaustive
self-check counts members through the field arithmetic; the
tests hold a vectorized reference for it.

Field elements are Python ints holding polynomial bitmasks. Each width n
uses a fixed reduction polynomial (the smallest irreducible of degree n);
the table is versioned: changing any entry is a breaking format change for
recorded transcripts.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from coinpress.dist import MAX_BITS, element_to_hex

# Smallest irreducible polynomial of each degree over GF(2), as a bitmask
# including the leading term. Verified by tests: brute-force trial division
# for n <= 16 and a Rabin irreducibility check for the whole range.
IRREDUCIBLE_POLY = {
    1: 0x2, 2: 0x7, 3: 0xb, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11b,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201b, 14: 0x4021,
    15: 0x8003, 16: 0x1002b, 17: 0x20009, 18: 0x40009, 19: 0x80027,
    20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021, 24: 0x100001b,
    25: 0x2000009, 26: 0x400001b, 27: 0x8000027, 28: 0x10000003,
    29: 0x20000005, 30: 0x40000003, 31: 0x80000009, 32: 0x10000008d,
    33: 0x20000004b, 34: 0x40000001b, 35: 0x800000005, 36: 0x1000000035,
    37: 0x200000003f, 38: 0x4000000063, 39: 0x8000000011, 40: 0x10000000039,
    41: 0x20000000009, 42: 0x40000000027, 43: 0x80000000059,
    44: 0x100000000021, 45: 0x20000000001b, 46: 0x400000000003,
    47: 0x800000000021, 48: 0x100000000002d, 49: 0x2000000000071,
    50: 0x400000000001d, 51: 0x800000000004b, 52: 0x10000000000009,
    53: 0x20000000000047, 54: 0x4000000000007d, 55: 0x80000000000047,
    56: 0x100000000000095, 57: 0x200000000000011, 58: 0x400000000000063,
    59: 0x80000000000007b, 60: 0x1000000000000003, 61: 0x2000000000000027,
    62: 0x4000000000000069, 63: 0x8000000000000003, 64: 0x1000000000000001b,
}

# Lane width w, ``struct`` format code and xor-fold shifts per input width
# n, for packing n-bit inputs side by side into one int (``zero_on``): w is
# the smallest of 8, 16, 32 and 64 that holds n bits, the code's standard
# size is w / 8 bytes (the tests assert these sizes), and the shifts
# w/2, ..., 1 take the parity of each lane down to its lowest bit. struct
# rather than array: the program already loads struct, and array's
# extension module would add to every process's memory.
_LANE_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _lane(n: int) -> tuple[int, str, tuple[int, ...]]:
    w = min(w for w in _LANE_CODES if w >= n)
    return w, _LANE_CODES[w], tuple(w >> k for k in range(1, w.bit_length()))


LANES = {n: _lane(n) for n in range(1, MAX_BITS + 1)}


class WidthError(ValueError):
    """Raised when requested input/output widths are out of range."""


def gf2n_mul(a: int, b: int, n: int) -> int:
    """Product of two GF(2^n) elements (carry-less multiply then reduce)."""
    poly = IRREDUCIBLE_POLY[n]
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    top = acc.bit_length()
    while top > n:
        acc ^= poly << (top - n - 1)
        top = acc.bit_length()
    return acc


def gf2n_pow(a: int, e: int, n: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = gf2n_mul(r, a, n)
        a = gf2n_mul(a, a, n)
        e >>= 1
    return r


def gf2n_inv(a: int, n: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^n)")
    return gf2n_pow(a, 2**n - 2, n)


def _packed_rows(n: int, a: int, b: int) -> int:
    """All n row masks of x -> a*x^2 + b*x packed into one int, row r at
    bits r*n .. r*n + n - 1. Builds the ``row_masks`` tables."""
    # Column i is the image of the basis element t^i: a*t^(2i) + b*t^i.
    # Each step multiplies sq by t twice and lin by t once, reducing the
    # carry out of bit n-1 after every shift.
    poly, top = IRREDUCIBLE_POLY[n], 1 << n
    sq, lin = a, b
    cols = []
    for _ in range(n):
        cols.append(sq ^ lin)
        sq <<= 1
        if sq & top:
            sq ^= poly
        sq <<= 1
        if sq & top:
            sq ^= poly
        lin <<= 1
        if lin & top:
            lin ^= poly
    # Bit r of column i is bit i of row r, so row r is bit plane r.
    planes = BitPlanes.of(cols, n).planes
    return sum(plane << (r * n) for r, plane in enumerate(planes))


def _subset_xors(values: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Per run of four entries of ``values`` (the last run may be shorter),
    the xors of its subsets: entry s of table k is the xor of values[4k + i]
    over the set bits i of s. So a value with bit j set for each chosen
    entry j maps to the xor of those entries as one lookup per nibble."""
    tables = []
    for k in range(0, len(values), 4):
        table = [0]
        for v in values[k:k + 4]:
            table += [t ^ v for t in table]
        tables.append(tuple(table))
    return tuple(tables)


@functools.cache
def _row_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """The ``_subset_xors`` tables of the packed rows (``_packed_rows``) of
    the 2n basis coefficients: (t^j, 0) for j < n, then (0, t^j)."""
    basis = [_packed_rows(n, 1 << j, 0) for j in range(n)]
    basis += [_packed_rows(n, 0, 1 << j) for j in range(n)]
    return _subset_xors(basis)


def row_masks(n: int, m: int, a: int, b: int) -> tuple[int, ...]:
    """The m row masks of x -> a*x^2 + b*x: output bit r is the parity of
    ``x & rows[r]``. They do not depend on c.

    The rows are GF(2)-linear in (a, b), so the packed rows of (a, b) are
    the xor of those of its set coefficient bits: one ``_row_tables``
    lookup per nibble of a | b << n."""
    if not m:
        return ()
    key = a | b << n
    packed = 0
    for table in _row_tables(n):
        packed ^= table[key & 15]
        key >>= 4
    mask = (1 << n) - 1
    return tuple([packed >> (r * n) & mask for r in range(m)])


@dataclass(frozen=True)
class BitPlanes:
    """A sequence of ``count`` n-bit inputs stored bit-sliced: bit j of
    ``planes[i]`` is bit i of input j. ``nibble_xors`` holds the xors of
    the planes by runs of four, for ``output_planes``."""

    count: int
    planes: tuple[int, ...]

    @classmethod
    def of(cls, xs: Sequence[int], n: int) -> BitPlanes:
        """The planes of ``xs``, whose entries must lie in [0, 2**n)."""
        # Input j is written as n binary digits, last input first, so the
        # digits of bit i form one stride-n slice, most significant first.
        fmt = f"0{n}b"
        digits = "".join([format(x, fmt) for x in reversed(xs)])
        return cls(len(xs), tuple(int(digits[n - 1 - i::n] or "0", 2) for i in range(n)))

    def slice(self, lo: int, hi: int) -> BitPlanes:
        """The planes of inputs lo..hi-1."""
        mask = (1 << (hi - lo)) - 1
        return BitPlanes(hi - lo, tuple((plane >> lo) & mask for plane in self.planes))

    @functools.cached_property
    def nibble_xors(self) -> tuple[tuple[int, ...], ...]:
        """Per run of four planes, the xors of its subsets
        (``_subset_xors``). Built on first read and kept on the instance,
        outside the dataclass fields, so equality and hash ignore it."""
        return _subset_xors(self.planes)

    def __len__(self) -> int:
        return self.count


def output_planes(rows: Sequence[int], planes: BitPlanes) -> list[int]:
    """Plane r of the images of a batch under x -> a*x^2 + b*x given by its
    ``row_masks``: the xor of the input planes of the set bits of rows[r],
    as one ``BitPlanes.nibble_xors`` lookup per nibble of the row."""
    tables = planes.nibble_xors
    out = []
    for row in rows:
        ones = 0
        for table in tables:
            ones ^= table[row & 15]
            row >>= 4
        out.append(ones)
    return out


def select(xs: Sequence, bits: int) -> list:
    """The ``xs[j]`` for the set bits j of ``bits`` (a nonnegative int), in
    ascending j: ``[xs[j] for j in range(len(xs)) if bits >> j & 1]`` when
    bits < 2**len(xs).

    Past one 64-bit word, the binary digits of bits split on "1" into the
    empty run above the top set bit and, read bottom up, the run of zeros
    below each set bit: the k-th set bit (from 0) sits at the sum of the
    first k + 1 of those run lengths, plus k, and every step iterates in C.
    Within one word, where each int operation is cheap and that pipeline's
    fixed cost would dominate, the lowest set bit is taken off in turn. (An
    n = 4 band holds a few elements; an n = 16 one can hold thousands.)"""
    if bits >> 64:
        runs = f"{bits:b}".split("1")[:0:-1]
        indices = map(operator.add, itertools.accumulate(map(len, runs)), itertools.count())
        return [*map(xs.__getitem__, indices)]
    out = []
    while bits:
        low = bits & -bits
        out.append(xs[low.bit_length() - 1])
        bits ^= low
    return out


@dataclass(frozen=True)
class HashFunction:
    """One member of the family: x -> low m bits of a*x^2 + b*x + c.

    m == 0 yields the empty-string output, represented as the integer 0,
    so every input hashes to the all-zero target.

    Squaring is the Frobenius map, so x -> a*x^2 + b*x is linear over GF(2)
    and output bit r is the parity of ``x & rows[r]`` xor bit r of c. The
    row masks come from ``row_masks`` at construction; inputs must be
    exact ints (or bools) in [0, 2**n). ``eval`` hashes one input,
    ``eval_batch`` a batch held as bit planes, and ``zero_on`` answers
    whether a whole list hashes to the all-zero target.
    """

    n: int
    m: int
    a: int
    b: int
    c: int
    rows: tuple[int, ...] = field(init=False, repr=False, compare=False)
    c_low: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", row_masks(self.n, self.m, self.a, self.b))
        object.__setattr__(self, "c_low", self.c & ((1 << self.m) - 1))

    def eval(self, x: int) -> int:
        v = self.c_low
        for r, row in enumerate(self.rows):
            v ^= ((x & row).bit_count() & 1) << r
        return v

    def eval_batch(self, planes: BitPlanes) -> int:
        """The zero set of this function on a batch, as a bitset: bit j is
        set when input j hashes to the all-zero target. Output bit r is zero
        where output plane r (``output_planes``) equals bit r of c."""
        keep = (1 << planes.count) - 1
        for r, ones in enumerate(output_planes(self.rows, planes)):
            keep &= ones if self.c_low >> r & 1 else ~ones
        return keep

    def zero_on(self, xs: Sequence[int]) -> bool:
        """Whether every input of ``xs`` hashes to the all-zero target, as
        ``all(self.eval(x) == 0 for x in xs)``.

        The inputs are packed side by side into one int, in lanes of the
        ``LANES`` width w. Per row, each lane is masked by the row and
        xor-folded onto its lowest bit, so bit 0 of every lane is that
        input's output bit; all of them must equal bit r of c."""
        w, code, folds = LANES[self.n]
        packed = int.from_bytes(struct.pack(f"<{len(xs)}{code}", *xs), "little")
        ones = ((1 << (w * len(xs))) - 1) // ((1 << w) - 1)  # bit 0 of every lane
        c_low = self.c_low
        for r, row in enumerate(self.rows):
            v = packed & (row * ones)
            for s in folds:
                v ^= v >> s
            if v & ones != (ones if c_low >> r & 1 else 0):
                return False
        return True

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "a": element_to_hex(self.a, self.n),
            "b": element_to_hex(self.b, self.n),
            "c": element_to_hex(self.c, self.n),
        }


def _members(
    n: int, m: int, a: int, b: int, rows: tuple[int, ...], cs: Iterable[int]
) -> list[HashFunction]:
    """The members (a, b, c) for c in ``cs``, around the given ``rows``,
    filled in directly instead of through the frozen dataclass
    constructor: each equals, hashes as, and has the same ``rows`` and
    ``c_low`` as ``HashFunction(n, m, a, b, c)``."""
    low = (1 << m) - 1
    new = object.__new__
    out = []
    for c in cs:
        f = new(HashFunction)
        f.__dict__.update(n=n, m=m, a=a, b=b, c=c, rows=rows, c_low=c & low)
        out.append(f)
    return out


def members_sharing_rows(n: int, m: int, a: int, b: int) -> list[HashFunction]:
    """The 2**n members (a, b, c), c = 0 .. 2**n - 1, of the width-n family
    at output width m, in family order. They share one ``row_masks`` tuple
    and are built by ``_members``."""
    return _members(n, m, a, b, row_masks(n, m, a, b), range(1 << n))


def sample_hash(n: int, m: int, rng) -> HashFunction:
    """Draw (a, b, c) independently uniform from GF(2^n), in that order."""
    if not 1 <= n <= MAX_BITS:
        raise WidthError(f"input width {n} outside 1..{MAX_BITS}")
    if not 0 <= m <= n:
        raise WidthError(f"output width {m} outside 0..{n}")
    size = 1 << n
    a = rng.randrange(size)
    b = rng.randrange(size)
    c = rng.randrange(size)
    return _members(n, m, a, b, row_masks(n, m, a, b), (c,))[0]


def family(n: int) -> Iterable[tuple[int, int, int]]:
    """All (a, b, c) coefficient triples of the width-n family."""
    size = 1 << n
    return itertools.product(range(size), repeat=3)


@dataclass(frozen=True)
class KwiseReport:
    n: int
    m: int
    k: int
    expected_count: int
    ok: bool
    falsified: tuple


def verify_kwise_exhaustive(n: int, m: int, k: int = 3) -> KwiseReport:
    """Check k-wise independence by exhausting the whole family.

    For every k distinct inputs x_1 < ... < x_k and every assignment of k
    target outputs, packed into one code y with x_1's output highest, the
    number of family members realizing the assignment must be exactly
    family_size / 2**(k*m). Returns the first four falsifying codes of each
    failing tuple, at most 16 in all.

    Member (a, b, c) sends x to v(x) xor c_low, where v(x) is the low m bits
    of a*x^2 + b*x and each c_low stands for 2**(n-m) values of c. So the
    targets y_i are hit only through c_low = v(x_1) xor y_1, and only when
    v(x_i) xor v(x_1) = y_i xor y_1 for every i:

        count(y) = 2**(n-m) * #{(a, b) : v(x_i) xor v(x_1) = y_i xor y_1}.

    A tuple passes when each of the 2**((k-1)*m) difference keys is met by
    exactly expected / 2**(n-m) pairs (a, b). One check at k = 3 takes
    0.05-0.1 s at n = 4 and 1.2 s at n = 5, m = 1 (2-vCPU Xeon, Python 3.11).
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2, or 3")
    size, low = 1 << n, (1 << m) - 1
    expected, rem = divmod(size**3, 1 << (k * m))
    assert rem == 0
    # Column x holds v(x) for every pair (a, b), in family order.
    cols = []
    for x in range(size):
        xsq = gf2n_mul(x, x, n)
        sq = [gf2n_mul(a, xsq, n) for a in range(size)]
        lin = [gf2n_mul(b, x, n) for b in range(size)]
        cols.append([(s ^ t) & low for s in sq for t in lin])
    key_bits = (k - 1) * m
    uniform = Counter(dict.fromkeys(range(1 << key_bits), expected >> (n - m)))
    spread = sum(1 << (j * m) for j in range(k - 1))  # y_1 in every key slot
    falsified = []
    for combo in itertools.combinations(range(size), k):
        first = cols[combo[0]]
        keys = [0] * len(first)
        for x in combo[1:]:
            keys = [key << m | v ^ v1 for key, v, v1 in zip(keys, cols[x], first)]
        pairs = Counter(keys)
        if pairs == uniform:
            continue
        counts = (
            (y, pairs[(y & ((1 << key_bits) - 1)) ^ (y >> key_bits) * spread] << (n - m))
            for y in range(1 << (k * m))
        )
        falsified.extend(itertools.islice(
            ((combo, y, count) for y, count in counts if count != expected), 4
        ))
    return KwiseReport(
        n=n, m=m, k=k, expected_count=expected, ok=not falsified,
        falsified=tuple(falsified[:16]),
    )


@dataclass(frozen=True)
class MixingReport:
    set_size: int
    m: int
    gamma: float
    trials: int
    deviations: int
    frequency: float
    bound: float
    pivot: Optional[int]
    pivot_in_set: bool


def mixing_experiment(
    members: Sequence[int],
    n: int,
    m: int,
    gamma: float,
    trials: int,
    rng,
    pivot: Optional[int] = None,
) -> MixingReport:
    """Estimate how often |{y in B : h(y) = 0}| leaves its expected window.

    Without a pivot the window is (1 +- gamma) * |B| / 2**m and the family
    guarantees deviation probability at most 2**m / (gamma^2 |B|). With a
    pivot x the draw is conditioned on h(x) = 0 by rejection sampling; the
    same bound applies for x outside B, and for x inside B the window
    becomes 1 + (1 +- gamma)(|B| - 1)/2**m with bound
    2**m / (gamma^2 (|B| - 1)).

    Raises ``ValueError`` unless B is a nonempty subset of [0, 2**n),
    trials >= 1, 0 < gamma < inf and the pivot, if any, lies in [0, 2**n).
    """
    bset = sorted(set(int(y) for y in members))
    if not bset:
        raise ValueError("member set must be nonempty")
    if bset[0] < 0 or bset[-1] >> n:
        raise ValueError(f"members must lie in [0, 2**{n})")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if pivot is not None and not 0 <= int(pivot) < 1 << n:
        raise ValueError(f"pivot must lie in [0, 2**{n})")
    planes = BitPlanes.of(bset, n)
    pivot_in = pivot is not None and int(pivot) in set(bset)
    size = len(bset)
    if pivot_in:
        lo = 1 + (1 - gamma) * (size - 1) / 2**m
        hi = 1 + (1 + gamma) * (size - 1) / 2**m
        bound = 0.0 if size == 1 else min(1.0, 2**m / (gamma**2 * (size - 1)))
    else:
        lo = (1 - gamma) * size / 2**m
        hi = (1 + gamma) * size / 2**m
        bound = min(1.0, 2**m / (gamma**2 * size))
    deviations = 0
    for _ in range(trials):
        h = sample_hash(n, m, rng)
        if pivot is not None:
            while h.eval(int(pivot)) != 0:
                h = sample_hash(n, m, rng)
        count = h.eval_batch(planes).bit_count()
        if not lo <= count <= hi:
            deviations += 1
    return MixingReport(
        set_size=size, m=m, gamma=gamma, trials=trials,
        deviations=deviations, frequency=deviations / trials, bound=bound,
        pivot=pivot, pivot_in_set=pivot_in,
    )
