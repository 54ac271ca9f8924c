"""numpy references for the hash family, and the tests that compare against them.

coinpress itself is pure Python. These vectorized versions build their
outputs by a different route (uint64 lanes and a full table of member
outputs), so they serve as independent references: ``zero_set_masks`` for
``oracle.HashFamily`` and ``verify_kwise_exhaustive_numpy`` for
``hashing.verify_kwise_exhaustive``.
"""

import itertools
import random

import numpy as np
import pytest

from coinpress import hashing
from coinpress.hashing import (
    IRREDUCIBLE_POLY,
    KwiseReport,
    WidthError,
    gf2n_mul,
    verify_kwise_exhaustive,
)
from coinpress.oracle import ZERO_SET_MAX_N


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


def zero_set_masks(n: int, m: int) -> np.ndarray:
    """The zero set of every family member, one uint64 bitmask each.

    Entry i belongs to the i-th coefficient triple of ``family(n)``; its bit
    x is set when that member maps x to the all-zero m-bit target. Built one
    input column at a time from the field reference, never as the full
    table of outputs. The tests' reference for ``oracle.HashFamily``.
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


def verify_kwise_exhaustive_numpy(n: int, m: int, k: int = 3) -> KwiseReport:
    """``hashing.verify_kwise_exhaustive`` over the full table of member
    outputs: every member's k outputs packed into one code, then counted."""
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


def test_vectorized_matches_scalar():
    rng = random.Random(0)
    for n in (3, 8, 16, 32):
        xs = [rng.randrange(1 << n) for _ in range(50)]
        a = rng.randrange(1 << n)
        vec = gf2n_mul_vec(a, np.array(xs, dtype=np.uint64), n)
        assert [int(v) for v in vec] == [gf2n_mul(a, x, n) for x in xs]


def assert_reports_equal(n):
    for m in range(n + 1):
        for k in (1, 2, 3):
            got = verify_kwise_exhaustive(n, m, k)
            want = verify_kwise_exhaustive_numpy(n, m, k)
            assert (got.ok, got.expected_count, got.falsified) == (
                want.ok, want.expected_count, want.falsified
            ), (n, m, k)


@pytest.mark.parametrize("n", range(1, 5))
def test_kwise_matches_numpy_reference(n):
    assert_reports_equal(n)


@pytest.mark.parametrize("poly", [0b1001, 0b1010])
def test_kwise_matches_numpy_reference_on_a_reducible_modulus(monkeypatch, poly):
    """x^3 + 1 = (x + 1)(x^2 + x + 1) and x^3 + x = x(x + 1)^2 make the
    family fail somewhere; both checks must list the same falsifying tuples,
    in the same order. Under x^3 + x, pairs at m = 1 miss only two of their
    four codes, so the listing reaches codes whose first target is 1."""
    monkeypatch.setitem(hashing.IRREDUCIBLE_POLY, 3, poly)
    assert_reports_equal(3)
    failing = [
        (m, k) for m in range(4) for k in (1, 2, 3)
        if verify_kwise_exhaustive(3, m, k).falsified
    ]
    assert failing
