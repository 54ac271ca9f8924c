"""Field arithmetic, irreducibility table, independence, and mixing tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinpress.hashing import (
    IRREDUCIBLE_POLY,
    BitPlanes,
    HashFunction,
    WidthError,
    family,
    gf2n_inv,
    gf2n_mul,
    members_sharing_rows,
    mixing_experiment,
    sample_hash,
    set_bits,
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
    def test_inverses_exhaustive(self, n):
        for a in range(1, 1 << n):
            assert gf2n_mul(a, gf2n_inv(a, n), n) == 1


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
                assert set_bits(h.eval_batch(planes)) == zeros
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

    def test_json_shape(self):
        h = HashFunction(n=12, m=3, a=0xABC, b=1, c=0)
        obj = h.to_json_obj()
        assert obj == {"n": 12, "m": 3, "a": "abc", "b": "001", "c": "000"}


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
