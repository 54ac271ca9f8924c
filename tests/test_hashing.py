"""Field arithmetic, irreducibility table, independence, and mixing tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import struct

from coinpress.hashing import (
    IRREDUCIBLE_POLY,
    LANES,
    BitPlanes,
    HashFunction,
    WidthError,
    family,
    gf2n_mul,
    members_sharing_rows,
    mixing_experiment,
    output_planes,
    row_masks,
    sample_hash,
    select,
    verify_kwise_exhaustive,
)


# --- independent polynomial oracles (plain shift-and-xor, no reduction tricks)

def poly_mul(a, b):
    out = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            out ^= a << i
        i += 1
    return out


def poly_mod(a, m):
    mb = m.bit_length()
    while a.bit_length() >= mb:
        a ^= m << (a.bit_length() - mb)
    return a


def slow_gf_mul(a, b, n):
    return poly_mod(poly_mul(a, b), IRREDUCIBLE_POLY[n])


def has_small_factor(p, n):
    for deg in range(1, n // 2 + 1):
        for d in range(1 << deg, 1 << (deg + 1)):
            if poly_mod(p, d) == 0:
                return True
    return False


def rabin_irreducible(p, n):
    def powsq(x, times):
        for _ in range(times):
            x = poly_mod(poly_mul(x, x), p)
        return x

    def gcd(a, b):
        while b:
            a, b = b, poly_mod(a, b)
        return a

    x = poly_mod(0b10, p)
    if powsq(x, n) != x:
        return False
    factors = set()
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors.add(d)
            m //= d
        d += 1
    if m > 1:
        factors.add(m)
    return all(gcd(powsq(x, n // q) ^ x, p) == 1 for q in factors)


class TestIrreducibleTable:
    def test_covers_all_widths(self):
        assert sorted(IRREDUCIBLE_POLY) == list(range(1, 65))
        for n, p in IRREDUCIBLE_POLY.items():
            assert p.bit_length() == n + 1

    @pytest.mark.parametrize("n", range(2, 17))
    def test_no_small_factors(self, n):
        assert not has_small_factor(IRREDUCIBLE_POLY[n], n)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_rabin(self, n):
        assert rabin_irreducible(IRREDUCIBLE_POLY[n], n)


class TestFieldArithmetic:
    def test_identity_and_zero(self):
        for n in (3, 8, 64):
            for a in (1, 5, (1 << n) - 1):
                assert gf2n_mul(a, 1, n) == a
                assert gf2n_mul(a, 0, n) == 0

    def test_three_bit_product(self):
        # brute-force oracle: (x^2+x)(x+1) reduced by x^3+x+1 is 1
        assert slow_gf_mul(0b110, 0b011, 3) == 0b001
        assert gf2n_mul(0b110, 0b011, 3) == 0b001

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_matches_slow_oracle_exhaustive_small(self, n):
        size = 1 << n
        for a in range(size):
            for b in range(size):
                assert gf2n_mul(a, b, n) == slow_gf_mul(a, b, n)

    @given(st.sampled_from([8, 16, 32, 48, 64]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_field_axioms_random(self, n, data):
        size = 1 << n
        a = data.draw(st.integers(0, size - 1))
        b = data.draw(st.integers(0, size - 1))
        c = data.draw(st.integers(0, size - 1))
        assert gf2n_mul(a, b, n) == gf2n_mul(b, a, n)
        assert gf2n_mul(gf2n_mul(a, b, n), c, n) == gf2n_mul(a, gf2n_mul(b, c, n), n)
        assert gf2n_mul(a, b ^ c, n) == gf2n_mul(a, b, n) ^ gf2n_mul(a, c, n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_nonzero_multiples_permute_exhaustive(self, n):
        """x -> a*x permutes GF(2^n) for every nonzero a, so every nonzero
        element has an inverse."""
        size = 1 << n
        for a in range(1, size):
            assert sorted(gf2n_mul(a, x, n) for x in range(size)) == list(range(size))


class TestHashFunction:
    def test_zero_coefficients(self):
        h = HashFunction(n=4, m=2, a=0, b=0, c=0)
        assert all(h.eval(x) == 0 for x in range(16))

    def test_identity(self):
        h = HashFunction(n=4, m=4, a=0, b=1, c=0)
        assert all(h.eval(x) == x for x in range(16))

    def test_three_bit_eval(self):
        # a=1, b=0, c=0 squares its input; 0b110^2 = x^4+x^2 = x^2+x+1 ... frozen
        h = HashFunction(n=3, m=3, a=1, b=0, c=0)
        assert h.eval(0b110) == slow_gf_mul(0b110, 0b110, 3)

    def test_m_zero_constant(self):
        rng = random.Random(1)
        h = sample_hash(4, 0, rng)
        assert all(h.eval(x) == 0 for x in range(16))

    def test_sampling_deterministic(self):
        h1 = sample_hash(6, 3, random.Random(42))
        h2 = sample_hash(6, 3, random.Random(42))
        assert (h1.a, h1.b, h1.c) == (h2.a, h2.b, h2.c)

    def test_width_errors(self):
        with pytest.raises(WidthError):
            sample_hash(4, 5, random.Random(0))
        with pytest.raises(WidthError):
            sample_hash(65, 1, random.Random(0))

    def test_bit_planes_batch_matches_eval(self):
        rng = random.Random(9)
        for n in range(1, 65):
            xs = [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(40)]
            planes = BitPlanes.of(xs, n)
            assert len(planes) == len(xs)
            assert all(
                (planes.planes[i] >> j) & 1 == (x >> i) & 1
                for i in range(n) for j, x in enumerate(xs)
            )
            lo, hi = sorted(rng.sample(range(len(xs) + 1), 2))
            assert planes.slice(lo, hi) == BitPlanes.of(xs[lo:hi], n)
            empty = BitPlanes.of([], n)
            for m in {0, 1, rng.randint(0, n), n}:
                h = sample_hash(n, m, rng)
                zeros = [j for j, x in enumerate(xs) if h.eval(x) == 0]
                assert select(range(len(xs)), h.eval_batch(planes)) == zeros
                assert h.eval_batch(empty) == 0

    @given(st.integers(1, 64), st.data())
    @settings(max_examples=200, deadline=None)
    def test_eval_matches_field_reference(self, n, data):
        m = data.draw(st.integers(0, n))
        a, b, c, x = (data.draw(st.integers(0, (1 << n) - 1)) for _ in range(4))
        h = HashFunction(n=n, m=m, a=a, b=b, c=c)
        expected = gf2n_mul(a, gf2n_mul(x, x, n), n) ^ gf2n_mul(b, x, n) ^ c
        assert h.eval(x) == expected & ((1 << m) - 1)

    def test_derived_fields_ignored(self):
        h = HashFunction(n=12, m=3, a=0xABC, b=1, c=0x5)
        twin = HashFunction(n=12, m=3, a=0xABC, b=1, c=0x5)
        object.__setattr__(twin, "rows", ())
        object.__setattr__(twin, "c_low", 0)
        assert h == twin
        assert hash(h) == hash(twin)
        assert h.to_json_obj() == twin.to_json_obj()
        assert repr(h) == "HashFunction(n=12, m=3, a=2748, b=1, c=5)"
        assert len(h.rows) == 3 and h.c_low == 0x5

    def test_cached_rows_match_fresh_derivation(self):
        """Members built in shuffled (m, a, b, c) order carry the rows of
        their own coefficients."""
        n = 3
        members = [(m, a, b, c) for m in range(n + 1) for a, b, c in family(n)]
        random.Random(3).shuffle(members)
        for m, a, b, c in members:
            h = HashFunction(n=n, m=m, a=a, b=b, c=c)
            # bit i of row r is bit r of the image of x = t^i
            images = [
                gf2n_mul(a, gf2n_mul(1 << i, 1 << i, n), n) ^ gf2n_mul(b, 1 << i, n)
                for i in range(n)
            ]
            assert h.rows == tuple(
                sum(((image >> r) & 1) << i for i, image in enumerate(images)) for r in range(m)
            )
            assert h.c_low == c & ((1 << m) - 1)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_members_sharing_rows_equal_constructed_members(self, n):
        """The members built without the constructor are those of the family
        in order, and equal, hash and evaluate as constructed ones."""
        size = 1 << n
        for m in range(n + 1):
            built = [
                f for a in range(size) for b in range(size) for f in members_sharing_rows(n, m, a, b)
            ]
            for f, (a, b, c) in zip(built, family(n), strict=True):
                h = HashFunction(n=n, m=m, a=a, b=b, c=c)
                assert type(f) is HashFunction
                assert f == h and hash(f) == hash(h) and repr(f) == repr(h)
                assert f.rows == h.rows and f.c_low == h.c_low
                assert [f.eval(x) for x in range(size)] == [h.eval(x) for x in range(size)]
        with pytest.raises(AttributeError):
            built[0].c = 1  # still frozen

    @pytest.mark.parametrize("n", range(1, 65))
    def test_output_planes_match_per_bit_reference(self, n):
        """The nibble-table output planes equal the xor of the input planes
        of each row's set bits, taken one bit at a time, on a batch, on
        slices of it (the empty one included) and on an empty batch."""
        rng = random.Random(n)
        xs = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(30)]
        planes = BitPlanes.of(xs, n)
        top = (1 << n) - 1
        rows = [0, top, 1, 1 << (n - 1)] + [rng.getrandbits(n) for _ in range(6)]
        batches = [planes, planes.slice(3, 17), planes.slice(5, 5), BitPlanes.of([], n)]
        for batch in batches:
            assert output_planes(rows, batch) == output_planes_reference(rows, batch)
            assert output_planes([], batch) == []

    def test_cached_tables_leave_equality_and_hash(self):
        """Reading ``nibble_xors`` keeps a planes object equal to, hashing
        as and printing as a fresh one; the tables hold every subset xor."""
        xs = [5, 9, 0, 255, 17, 128]
        planes, fresh = BitPlanes.of(xs, 8), BitPlanes.of(xs, 8)
        tables = planes.nibble_xors
        assert planes.nibble_xors is tables
        assert planes == fresh and hash(planes) == hash(fresh) and repr(planes) == repr(fresh)
        assert len(tables) == 2 and all(len(table) == 16 for table in tables)
        for k, table in enumerate(tables):
            for bits, entry in enumerate(table):
                want = 0
                for i in range(4):
                    if bits >> i & 1:
                        want ^= planes.planes[4 * k + i]
                assert entry == want
        assert [len(t) for t in BitPlanes.of(xs, 9).nibble_xors] == [16, 16, 2]

    @pytest.mark.parametrize("n", range(1, 65))
    def test_row_masks_match_generator_transpose(self, n):
        """The lane-packed transpose equals a bit-by-bit transpose of the
        columns a*t^(2i) + b*t^i, worked out by field multiplication."""
        rng = random.Random(n)
        top = (1 << n) - 1
        pairs = [(0, 0), (top, top), (1, 0), (0, 1)] + [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(4)]
        for a, b in pairs:
            cols = [gf2n_mul(a, gf2n_mul(1 << i, 1 << i, n), n) ^ gf2n_mul(b, 1 << i, n) for i in range(n)]
            for m in sorted({0, 1, n}):
                want = tuple(sum(((col >> r) & 1) << i for i, col in enumerate(cols)) for r in range(m))
                assert row_masks(n, m, a, b) == want, (n, m, a, b)

    def test_json_shape(self):
        h = HashFunction(n=12, m=3, a=0xABC, b=1, c=0)
        obj = h.to_json_obj()
        assert obj == {"n": 12, "m": 3, "a": "abc", "b": "001", "c": "000"}


def output_planes_reference(rows, planes):
    """``output_planes`` one set bit of each row at a time."""
    out = []
    for row in rows:
        ones = 0
        while row:
            low = row & -row
            ones ^= planes.planes[low.bit_length() - 1]
            row ^= low
        out.append(ones)
    return out


# Lengths around the 64-bit word boundary and the estimate-wide block sizes.
SELECT_LENGTHS = [0, 1, 63, 64, 65, 2048, 4096]


def select_reference(xs, bits):
    """``select`` bit by bit."""
    return [xs[j] for j in range(len(xs)) if bits >> j & 1]


class TestSelect:
    @pytest.mark.parametrize("length", SELECT_LENGTHS)
    def test_edge_masks(self, length):
        """No bits, every bit and the top bit only, on a list and a range."""
        rng = random.Random(length)
        for xs in ([rng.getrandbits(16) for _ in range(length)], range(7, 7 + length)):
            for bits in (0, (1 << length) - 1, (1 << length) >> 1):
                got = select(xs, bits)
                assert type(got) is list and got == select_reference(xs, bits)

    @given(st.sampled_from(SELECT_LENGTHS), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_bit_reference(self, length, data):
        """Dense masks and sparse ones, whose runs of zeros are long."""
        if data.draw(st.booleans()):
            bits = data.draw(st.integers(0, (1 << length) - 1))
        else:
            ones = data.draw(st.sets(st.integers(0, max(length - 1, 0)), max_size=8)) if length else set()
            bits = sum(1 << j for j in ones)
        xs = [object() for _ in range(length)]
        got = select(xs, bits)
        want = select_reference(xs, bits)
        assert len(got) == len(want) and all(x is y for x, y in zip(got, want))
        assert select(range(length), bits) == select_reference(range(length), bits)


def zero_set_sample(f, count, rng):
    """count random elements of f's zero set, or [] when it is empty. The
    zero set is the solution set of the GF(2) system parity(x & rows[r]) =
    bit r of c_low; the rows are put in reduced echelon form, so each pivot
    bit occurs in its own row only and is set after the free bits."""
    pivots = []  # (pivot bit, row, right-hand side)
    for r, row in enumerate(f.rows):
        rhs = f.c_low >> r & 1
        for bit, prow, prhs in pivots:
            if row >> bit & 1:
                row, rhs = row ^ prow, rhs ^ prhs
        if not row:
            if rhs:
                return []
            continue
        bit = row.bit_length() - 1
        pivots = [
            (pb, prow ^ row, prhs ^ rhs) if prow >> bit & 1 else (pb, prow, prhs)
            for pb, prow, prhs in pivots
        ]
        pivots.append((bit, row, rhs))
    out = []
    for _ in range(count):
        x = rng.getrandbits(f.n)
        for bit, row, rhs in pivots:
            x &= ~(1 << bit)
            if (x & row).bit_count() & 1 != rhs:
                x |= 1 << bit
        out.append(x)
    return out


# Input widths at and around each lane boundary of ``LANES``.
LANE_EDGE_WIDTHS = [1, 3, 8, 9, 16, 17, 32, 33, 64]


class TestZeroOn:
    def test_lane_table(self):
        """Each width packs into the smallest lane of 8, 16, 32 or 64 bits
        that holds it, and the little-endian struct code has that lane's
        size, which the packing relies on."""
        for n in range(1, 65):
            w, code, folds = LANES[n]
            assert w in (8, 16, 32, 64) and n <= w and (w == 8 or n > w // 2)
            assert struct.calcsize("<" + code) * 8 == w
            assert folds == tuple(w >> k for k in range(1, w.bit_length())) and folds[-1] == 1

    @pytest.mark.parametrize("n", LANE_EDGE_WIDTHS)
    def test_matches_scalar_eval(self, n):
        """For every m, zero_on equals all(eval(x) == 0) on the empty list,
        single elements, the top element 2**n - 1, zero-set elements, and
        zero-set elements with one stranger among them."""
        rng = random.Random(n)
        top = (1 << n) - 1
        for m in range(n + 1):
            for _ in range(3):
                h = sample_hash(n, m, rng)
                zeros = zero_set_sample(h, 12, rng)
                assert all(h.eval(x) == 0 for x in zeros)
                stranger = rng.getrandbits(n)
                mixed = zeros[:]
                mixed.insert(rng.randrange(len(mixed) + 1), stranger)
                lists = [[], [top], [0], [stranger], zeros, zeros[:1], mixed, zeros + [top]]
                for xs in lists:
                    assert h.zero_on(xs) == all(h.eval(x) == 0 for x in xs), (m, xs)
                if zeros:
                    assert h.zero_on(zeros)

    @given(st.sampled_from(LANE_EDGE_WIDTHS), st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_lists(self, n, data):
        m = data.draw(st.integers(0, n))
        a, b, c = (data.draw(st.integers(0, (1 << n) - 1)) for _ in range(3))
        h = HashFunction(n=n, m=m, a=a, b=b, c=c)
        xs = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=20))
        xs += zero_set_sample(h, data.draw(st.integers(0, 20)), random.Random(a ^ b))
        assert h.zero_on(xs) == all(h.eval(x) == 0 for x in xs)


class TestKwiseIndependence:
    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_exhaustive_three_wise(self, n, m):
        report = verify_kwise_exhaustive(n, m, k=3)
        assert report.ok, report.falsified[:3]
        assert report.expected_count == 8**n // 8**m

    def test_three_bit_single_output_count(self):
        report = verify_kwise_exhaustive(3, 1, k=3)
        assert report.expected_count == 64

    def test_one_wise_uniformity(self):
        report = verify_kwise_exhaustive(3, 2, k=1)
        assert report.ok
        assert report.expected_count == 512 // 4

    def test_pairwise(self):
        report = verify_kwise_exhaustive(3, 2, k=2)
        assert report.ok

    def test_truncation_preserves_independence(self):
        for m in range(0, 4):
            assert verify_kwise_exhaustive(3, m, k=3).ok


class TestMixing:
    def test_m_zero_never_deviates(self):
        report = mixing_experiment(range(32), n=8, m=0, gamma=0.25, trials=50, rng=random.Random(0))
        assert report.deviations == 0

    @pytest.mark.parametrize("members", [range(257), [-1, 3]])
    def test_members_outside_the_domain_refused(self, members):
        with pytest.raises(ValueError, match="members must lie in"):
            mixing_experiment(members, n=8, m=2, gamma=0.25, trials=5, rng=random.Random(0))

    @pytest.mark.parametrize("gamma", [0.0, -0.25, float("nan"), float("inf"), float("-inf")])
    def test_gamma_outside_open_interval_refused(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            mixing_experiment(range(32), n=8, m=2, gamma=gamma, trials=5, rng=random.Random(0))

    @pytest.mark.parametrize("pivot", [-1, 256, 257, 1 << 64])
    def test_pivot_outside_the_domain_refused(self, pivot):
        with pytest.raises(ValueError, match="pivot must lie in"):
            mixing_experiment(
                range(32), n=8, m=2, gamma=0.25, trials=5, rng=random.Random(0), pivot=pivot
            )

    @pytest.mark.parametrize("pivot", [0, 255])
    def test_pivot_at_the_domain_ends_accepted(self, pivot):
        report = mixing_experiment(
            range(32), n=8, m=2, gamma=0.25, trials=5, rng=random.Random(0), pivot=pivot
        )
        assert report.pivot == pivot and report.pivot_in_set == (pivot < 32)

    def test_unconditioned_bound(self):
        rng = random.Random(7)
        report = mixing_experiment(range(256), n=12, m=4, gamma=0.5, trials=600, rng=rng)
        slack = 3 * (report.bound * (1 - report.bound) / report.trials) ** 0.5
        assert report.bound == pytest.approx(2**4 / (0.25 * 256))
        assert report.frequency <= report.bound + slack

    def test_conditioned_pivot_outside(self):
        rng = random.Random(8)
        members = list(range(1, 257))
        report = mixing_experiment(members, n=12, m=4, gamma=0.5, trials=400, rng=rng, pivot=0)
        assert not report.pivot_in_set
        slack = 3 * (report.bound * (1 - report.bound) / report.trials) ** 0.5
        assert report.frequency <= report.bound + slack

    def test_conditioned_pivot_inside(self):
        rng = random.Random(9)
        members = list(range(256))
        report = mixing_experiment(members, n=12, m=4, gamma=0.5, trials=400, rng=rng, pivot=3)
        assert report.pivot_in_set
        assert report.bound == pytest.approx(2**4 / (0.25 * 255))
        slack = 3 * (report.bound * (1 - report.bound) / report.trials) ** 0.5
        assert report.frequency <= report.bound + slack
