"""3-wise independent hashing over GF(2^n) with exhaustive self-checks.

The family maps an n-bit input x to the m low-order bits of
a*x^2 + b*x + c computed in GF(2^n), with (a, b, c) drawn uniformly.
Degree-2 polynomials over a field are 3-wise independent, and truncation
to m bits preserves that, so for any three distinct inputs the outputs are
independent and uniform over the family choice. The family is exactly
enumerable for tiny n, which the verification helpers below exploit.

Everything is pure Python. Evaluation goes one input at a time by parity
masks, or a batch held as bit planes (``BitPlanes``), so the whole batch
is hashed by xors of its planes. The exhaustive self-check counts members
through the field arithmetic; the tests hold a vectorized reference for it.

Field elements are Python ints holding polynomial bitmasks. Each width n
uses a fixed reduction polynomial (the smallest irreducible of degree n);
the table is versioned: changing any entry is a breaking format change for
recorded transcripts.
"""

from __future__ import annotations

import itertools
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


def row_masks(n: int, m: int, a: int, b: int) -> tuple[int, ...]:
    """The m row masks of x -> a*x^2 + b*x: output bit r is the parity of
    ``x & rows[r]``. They do not depend on c."""
    if not m:
        return ()
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
    return tuple(
        sum(((col >> r) & 1) << i for i, col in enumerate(cols))
        for r in range(m)
    )


@dataclass(frozen=True)
class BitPlanes:
    """A sequence of ``count`` n-bit inputs stored bit-sliced: bit j of
    ``planes[i]`` is bit i of input j."""

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

    def __len__(self) -> int:
        return self.count


def output_planes(rows: Sequence[int], planes: BitPlanes) -> list[int]:
    """Plane r of the images of a batch under x -> a*x^2 + b*x given by its
    ``row_masks``: the xor of the input planes of the set bits of rows[r]."""
    out = []
    for row in rows:
        ones = 0
        while row:
            low = row & -row
            ones ^= planes.planes[low.bit_length() - 1]
            row ^= low
        out.append(ones)
    return out


def set_bits(bits: int) -> list[int]:
    """The indices of the set bits of ``bits``, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


@dataclass(frozen=True)
class HashFunction:
    """One member of the family: x -> low m bits of a*x^2 + b*x + c.

    m == 0 yields the empty-string output, represented as the integer 0,
    so every input hashes to the all-zero target.

    Squaring is the Frobenius map, so x -> a*x^2 + b*x is linear over GF(2)
    and output bit r is the parity of ``x & rows[r]`` xor bit r of c. The
    row masks come from ``row_masks`` at construction; inputs must lie in
    [0, 2**n).
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

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "a": element_to_hex(self.a, self.n),
            "b": element_to_hex(self.b, self.n),
            "c": element_to_hex(self.c, self.n),
        }


def members_sharing_rows(n: int, m: int, a: int, b: int) -> list[HashFunction]:
    """The 2**n members (a, b, c), c = 0 .. 2**n - 1, of the width-n family
    at output width m, in family order. They share one ``row_masks`` tuple,
    so each is filled in directly instead of through the frozen dataclass
    constructor; each equals, hashes as, and has the same ``rows`` and
    ``c_low`` as ``HashFunction(n, m, a, b, c)``."""
    rows = row_masks(n, m, a, b)
    low = (1 << m) - 1
    new = object.__new__
    out = []
    for c in range(1 << n):
        f = new(HashFunction)
        f.__dict__.update(n=n, m=m, a=a, b=b, c=c, rows=rows, c_low=c & low)
        out.append(f)
    return out


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
    return HashFunction(n=n, m=m, a=a, b=b, c=c)


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
    """
    bset = sorted(set(int(y) for y in members))
    if not bset:
        raise ValueError("member set must be nonempty")
    if bset[0] < 0 or bset[-1] >> n:
        raise ValueError(f"members must lie in [0, 2**{n})")
    if trials < 1:
        raise ValueError("trials must be at least 1")
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
