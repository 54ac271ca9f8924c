"""3-wise independent hashing over GF(2^n) with exhaustive self-checks.

The family maps an n-bit input x to the m low-order bits of
a*x^2 + b*x + c computed in GF(2^n), with (a, b, c) drawn uniformly.
Degree-2 polynomials over a field are 3-wise independent, and truncation
to m bits preserves that, so for any three distinct inputs the outputs are
independent and uniform over the family choice. The family is exactly
enumerable for tiny n, which the verification helpers below exploit.

Field elements are Python ints holding polynomial bitmasks. Each width n
uses a fixed reduction polynomial (the smallest irreducible of degree n);
the table is versioned: changing any entry is a breaking format change for
recorded transcripts.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

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

MAX_BITS = 64


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


def gf2n_mul_vec(a: int, xs: np.ndarray, n: int) -> np.ndarray:
    """Multiply every element of ``xs`` by the constant a, vectorized.

    Only valid for n <= 32 so that intermediate carry-less products fit in
    uint64 lanes.
    """
    if n > 32:
        raise WidthError("vectorized multiply supports n <= 32")
    poly = np.uint64(IRREDUCIBLE_POLY[n])
    acc = np.zeros_like(xs, dtype=np.uint64)
    bit = 0
    aa = a
    while aa:
        if aa & 1:
            acc ^= xs << np.uint64(bit)
        aa >>= 1
        bit += 1
    for k in range(2 * n - 2, n - 1, -1):
        mask = (acc >> np.uint64(k)) & np.uint64(1)
        acc ^= mask * (poly << np.uint64(k - n))
    return acc


# Family order varies c innermost, so the members sharing (a, b), and with
# them the rows, come in runs of 2**n; random draws miss the cache and keep
# at most this many tuples alive.
ROW_CACHE_SIZE = 16


@functools.lru_cache(maxsize=ROW_CACHE_SIZE)
def row_masks(n: int, m: int, a: int, b: int) -> tuple[int, ...]:
    """The m row masks of x -> a*x^2 + b*x: output bit r is the parity of
    ``x & rows[r]``. They do not depend on c."""
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

    def __call__(self, x: int) -> int:
        return self.eval(x)

    def eval(self, x: int) -> int:
        v = self.c_low
        for r, row in enumerate(self.rows):
            v ^= ((x & row).bit_count() & 1) << r
        return v

    def eval_batch(self, xs: Sequence[int]) -> np.ndarray:
        """Evaluate on many inputs at once, as uint64 lanes (any n <= 64)."""
        arr = np.asarray(xs, dtype=np.uint64)
        v = np.empty(arr.shape, dtype=np.uint64)
        v.fill(self.c_low)  # np.full costs twice as much on short inputs
        for r, row in enumerate(self.rows):
            parity = np.bitwise_count(arr & np.uint64(row)) & np.uint8(1)
            v ^= parity.astype(np.uint64) << np.uint64(r)
        return v

    def to_json_obj(self) -> dict:
        width = (self.n + 3) // 4
        return {
            "n": self.n,
            "m": self.m,
            "a": format(self.a, f"0{width}x"),
            "b": format(self.b, f"0{width}x"),
            "c": format(self.c, f"0{width}x"),
        }


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

    For every set of k distinct inputs and every assignment of k target
    outputs, the number of family members realizing the assignment must be
    exactly family_size / 2**(k*m). Returns the falsifying tuples, if any.
    Feasible for n <= 4 at k = 3 (family size 2**(3n)).
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2, or 3")
    size = 1 << n
    coeffs = np.arange(size, dtype=np.uint64)
    a_col = np.repeat(coeffs, size * size)
    b_col = np.tile(np.repeat(coeffs, size), size)
    c_col = np.tile(coeffs, size * size)
    mask = np.uint64((1 << m) - 1)
    outs = np.empty((size**3, size), dtype=np.uint64)
    for x in range(size):
        xsq = gf2n_mul(x, x, n)
        col = gf2n_mul_vec(xsq, a_col, n) ^ gf2n_mul_vec(x, b_col, n) ^ c_col
        outs[:, x] = col & mask
    expected, rem = divmod(size**3, 1 << (k * m))
    assert rem == 0
    falsified = []
    for combo in itertools.combinations(range(size), k):
        code = np.zeros(size**3, dtype=np.uint64)
        for x in combo:
            code = (code << np.uint64(m)) | outs[:, x]
        counts = np.bincount(code.astype(np.int64), minlength=1 << (k * m))
        if not np.all(counts == expected):
            bad = np.nonzero(counts != expected)[0]
            for y in bad[:4]:
                falsified.append((combo, int(y), int(counts[y])))
    return KwiseReport(
        n=n, m=m, k=k, expected_count=expected, ok=not falsified,
        falsified=tuple(falsified[:16]),
    )


ZERO_SET_MAX_N = 6  # a zero set over 2**n inputs fits one uint64


def zero_set_masks(n: int, m: int) -> np.ndarray:
    """The zero set of every family member, one uint64 bitmask each.

    Entry i belongs to the i-th coefficient triple of ``family(n)``; its bit
    x is set when that member maps x to the all-zero m-bit target. Built one
    input column at a time from the field reference, never as the full
    table of outputs.
    """
    if not 1 <= n <= ZERO_SET_MAX_N:
        raise WidthError(f"zero-set masks need 1 <= n <= {ZERO_SET_MAX_N}, got {n}")
    size = 1 << n
    coeffs = np.arange(size, dtype=np.uint64)
    low = np.uint64((1 << m) - 1)
    masks = np.zeros((size, size, size), dtype=np.uint64)
    for x in range(size):
        sq_part = gf2n_mul_vec(gf2n_mul(x, x, n), coeffs, n)  # a * x^2 for every a
        lin_part = gf2n_mul_vec(x, coeffs, n)  # b * x for every b
        value = sq_part[:, None, None] ^ lin_part[None, :, None] ^ coeffs[None, None, :]
        masks |= ((value & low) == 0).astype(np.uint64) << np.uint64(x)
    return masks.ravel()


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
    if trials < 1:
        raise ValueError("trials must be at least 1")
    arr = np.asarray(bset, dtype=np.uint64)
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
        count = int(np.count_nonzero(h.eval_batch(arr) == 0))
        if not lo <= count <= hi:
            deviations += 1
    return MixingReport(
        set_size=size, m=m, gamma=gamma, trials=trials,
        deviations=deviations, frequency=deviations / trials, bound=bound,
        pivot=pivot, pivot_in_set=pivot_in,
    )
