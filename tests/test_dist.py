"""Distribution, histogram, and layout tests.

Derived expectations are computed by independent oracles written here
(boundary scans, brute-force tiling checks) and frozen as literals.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinpress.dist import (
    ExplicitDistribution,
    InvalidDistributionError,
    InvalidLayoutError,
    TAU,
    bucket_of,
    build_histogram,
    buckets,
    interval_layout,
    interval_weights,
    statistical_distance,
)


def scan_bucket(p, eps, t):
    """Independent banding oracle: scan every band in high precision."""
    if p <= 0 or p > 1:
        return None
    lg = math.log2(Fraction(p).numerator) - math.log2(Fraction(p).denominator)
    for i in range(t + 1):
        if -(i + 1) * eps + TAU < lg <= -i * eps + TAU:
            return i
    return None


@st.composite
def distributions(draw, max_n=6, max_support=8):
    n = draw(st.integers(1, max_n))
    size = 1 << n
    count = draw(st.integers(1, min(max_support, size)))
    xs = draw(st.lists(st.integers(0, size - 1), min_size=count, max_size=count, unique=True))
    ws = draw(st.lists(st.integers(1, 20), min_size=count, max_size=count))
    total = sum(ws)
    return ExplicitDistribution(n=n, mass={x: Fraction(w, total) for x, w in zip(xs, ws)})


class TestExplicitDistribution:
    def test_rejects_bad_total(self):
        with pytest.raises(InvalidDistributionError):
            ExplicitDistribution(n=2, mass={0: Fraction(1, 2), 1: Fraction(1, 3)})

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(InvalidDistributionError):
            ExplicitDistribution(n=2, mass={0: Fraction(0), 1: Fraction(1)})

    def test_rejects_oversized_element(self):
        with pytest.raises(InvalidDistributionError):
            ExplicitDistribution(n=2, mass={7: Fraction(1)})

    def test_rejects_bad_width(self):
        with pytest.raises(InvalidDistributionError):
            ExplicitDistribution(n=65, mass={0: Fraction(1)})

    def test_prob_outside_support_is_zero(self):
        d = ExplicitDistribution.point(4, 9)
        assert d.prob(9) == 1
        assert d.prob(3) == 0

    def test_json_round_trip(self, tmp_path):
        d = ExplicitDistribution(
            n=12, mass={0x0A3: Fraction(1, 2), 0xFFF: Fraction(1, 3), 0: Fraction(1, 6)}
        )
        obj = d.to_json_obj()
        assert obj["mass"]["0a3"] == "1/2"
        assert ExplicitDistribution.from_json_obj(obj) == d

    def test_loader_fails_loudly(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "mass": {"0": "1/2", "1": "1/3"}}))
        from coinpress.dist import load_distribution

        with pytest.raises(InvalidDistributionError):
            load_distribution(str(path))


class TestBucketOf:
    def test_one_lands_in_band_zero(self):
        assert bucket_of(Fraction(1), 1.0, 4) == 0
        assert bucket_of(Fraction(1), 0.37, 10) == 0

    def test_quarter_at_eps_one(self):
        assert bucket_of(Fraction(1, 4), 1.0, 4) == 2

    def test_point_three_at_half_eps(self):
        # scan oracle: 0.3 lies in (2^-2, 2^-1.5]
        assert scan_bucket(Fraction(3, 10), 0.5, 10) == 3
        assert bucket_of(Fraction(3, 10), 0.5, 10) == 3

    def test_boundaries_inclusive_above(self):
        # 1/2 is the inclusive top of band 1 at eps=1, not the open bottom of band 0
        assert bucket_of(Fraction(1, 2), 1.0, 4) == 1
        assert bucket_of(Fraction(1, 8), 1.0, 4) == 3

    def test_dropped_tail(self):
        assert bucket_of(Fraction(1, 64), 1.0, 4) is None  # exactly 2^-(t+1)*eps
        assert bucket_of(Fraction(1, 200), 1.0, 4) is None

    def test_out_of_range(self):
        assert bucket_of(Fraction(0), 1.0, 4) is None
        assert bucket_of(Fraction(3, 2), 1.0, 4) is None

    @given(distributions(), st.sampled_from([0.5, 1.0, 0.3]), st.integers(2, 20))
    @settings(max_examples=60, deadline=None)
    def test_matches_scan_oracle(self, dist, eps, t):
        for p in dist.mass.values():
            assert bucket_of(p, eps, t) == scan_bucket(p, eps, t)


class TestHistogram:
    def test_uniform_four(self):
        d = ExplicitDistribution.uniform(2, [0, 1, 2, 3])
        h = build_histogram(d, 1.0, 4)
        assert h.weights == (0, 0, Fraction(1), 0, 0)

    def test_point_mass(self):
        d = ExplicitDistribution.point(3, 0)
        h = build_histogram(d, 1.0, 4)
        assert h.weights == (Fraction(1), 0, 0, 0, 0)

    def test_three_element_bands(self):
        # 1/2 and 1/3 share band 1 at eps=1 (1/2 sits on its inclusive top);
        # 1/6 lands in band 2. Frozen from the scan oracle.
        d = ExplicitDistribution(
            n=2, mass={0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(1, 6)}
        )
        h = build_histogram(d, 1.0, 4)
        assert h.weights == (0, Fraction(5, 6), Fraction(1, 6), 0, 0)
        assert h.dropped_mass == 0

    def test_dropped_tail_accounted(self):
        d = ExplicitDistribution(
            n=4, mass={0: Fraction(1, 64), 1: Fraction(63, 64)}
        )
        h = build_histogram(d, 1.0, 4)  # 1/64 <= 2^-5 is dropped
        assert h.dropped_mass == Fraction(1, 64)
        assert h.total() + h.dropped_mass == 1

    @given(distributions(), st.sampled_from([0.5, 1.0]), st.integers(2, 16))
    @settings(max_examples=60, deadline=None)
    def test_mass_conservation(self, dist, eps, t):
        h = build_histogram(dist, eps, t)
        assert h.total() + h.dropped_mass == 1

    @given(distributions())
    @settings(max_examples=60, deadline=None)
    def test_full_capture_when_probs_large(self, dist):
        # every mass at least 2^-n and t = ceil(n/eps) captures everything
        eps = 1.0
        t = math.ceil(dist.n / eps)
        if all(p >= Fraction(1, 2**dist.n) for p in dist.mass.values()):
            h = build_histogram(dist, eps, t)
            assert h.total() == 1

    @given(distributions(), st.sampled_from([0.5, 1.0]), st.integers(2, 16))
    @settings(max_examples=60, deadline=None)
    def test_bucket_size_sandwich(self, dist, eps, t):
        h = build_histogram(dist, eps, t)
        for i, members in buckets(dist, eps, t).items():
            w = float(h.weights[i])
            assert w * 2 ** (i * eps) * (1 - TAU) <= len(members)
            assert len(members) <= w * 2 ** ((i + 1) * eps) * (1 + TAU)

    @given(distributions(), st.sampled_from([0.5, 1.0]), st.integers(2, 16))
    @settings(max_examples=40, deadline=None)
    def test_members_agree_with_banding(self, dist, eps, t):
        for x, p in dist.mass.items():
            i = bucket_of(p, eps, t)
            if i is not None:
                assert x in buckets(dist, eps, t)[i]


class TestBucketMembers:
    def test_uniform_all_in_band_two(self):
        d = ExplicitDistribution.uniform(2, [0, 1, 2, 3])
        assert buckets(d, 1.0, 4) == {2: {0, 1, 2, 3}}

    def test_three_element_band_one(self):
        d = ExplicitDistribution(
            n=2, mass={0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(1, 6)}
        )
        assert buckets(d, 1.0, 4) == {1: {0, 1}, 2: {2}}


class TestIntervalLayout:
    def test_rejects_invalid(self):
        with pytest.raises(InvalidLayoutError):
            interval_layout(10, 0, 2)
        with pytest.raises(InvalidLayoutError):
            interval_layout(10, 2, 1)
        with pytest.raises(InvalidLayoutError):
            interval_layout(10, 2, 3)

    def test_unit_gap_pair_intervals(self):
        # t=10, gap 1, interval 2: shifts -1, 0, 1; frozen expansion for s=-1
        layout = interval_layout(10, 1, 2)
        assert layout.shifts == (-1, 0, 1)
        assert layout.intervals[-1][0] == ()
        assert layout.intervals[-1][1] == (1, 2)
        assert layout.intervals[-1][2] == (4, 5)
        assert layout.intervals[-1][3] == (7, 8)
        assert layout.intervals[-1][4] == (10,)

    def test_equal_gap_interval(self):
        # t=10, gap 2, interval 2: shifts -1 and 1; frozen expansion for s=1
        layout = interval_layout(10, 2, 2)
        assert layout.shifts == (-1, 1)
        assert layout.intervals[1][0] == (0, 1)
        assert layout.intervals[1][1] == (4, 5)
        assert layout.intervals[1][2] == (8, 9)

    def test_intervals_match_element_filter(self):
        """Every interval equals the element-by-element filter of its
        unclipped range, over t <= 79, gap <= 6 and interval/gap <= 5."""
        for t in range(1, 80):
            for g in range(1, 7):
                for mult in range(1, 6):
                    iv = g * mult
                    layout = interval_layout(t, g, iv)
                    for s in layout.shifts:
                        for i in layout.index_range:
                            if i == 0:
                                expected = tuple(j for j in range(0, s + 1) if j <= t)
                            else:
                                lo = s + i * g + (i - 1) * iv + 1
                                hi = s + i * (g + iv)
                                expected = tuple(j for j in range(max(lo, 0), hi + 1) if j <= t)
                            assert layout.interval(s, i) == expected, (t, g, iv, s, i)

    def test_interval_index_of(self):
        layout = interval_layout(10, 1, 2)
        assert layout.interval_index_of(-1, 1) == 1
        assert layout.interval_index_of(-1, 0) is None  # gap
        assert layout.interval_index_of(0, 10) is None  # gap

    @pytest.mark.parametrize(
        "t,g,iv",
        [(10, 1, 2), (10, 2, 2), (6, 1, 2), (17, 2, 4), (30, 3, 6), (12, 4, 4), (25, 1, 5)],
    )
    def test_partition_property(self, t, g, iv):
        # every index is inside an interval for exactly len(shifts)-1 shifts
        layout = interval_layout(t, g, iv)
        for j in range(t + 1):
            hits = sum(
                1 for s in layout.shifts if layout.interval_index_of(s, j) is not None
            )
            assert hits == len(layout.shifts) - 1, (j, t, g, iv)

    @pytest.mark.parametrize("t,g,iv", [(10, 1, 2), (17, 2, 4), (30, 3, 6)])
    def test_gaps_have_exact_size(self, t, g, iv):
        layout = interval_layout(t, g, iv)
        for s in layout.shifts:
            in_interval = sorted(
                j for ivs in layout.intervals[s] for j in ivs
            )
            gaps = []
            run = 0
            for j in range(t + 1):
                if j in in_interval:
                    if run:
                        gaps.append(run)
                    run = 0
                else:
                    run += 1
            # interior gaps are exactly g; a trailing partial gap may be shorter
            for size in gaps:
                assert size == g

    @given(st.integers(2, 40), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_partition_property_random(self, t, g, mult):
        iv = g * mult
        layout = interval_layout(t, g, iv)
        for j in range(t + 1):
            hits = sum(
                1 for s in layout.shifts if layout.interval_index_of(s, j) is not None
            )
            assert hits == len(layout.shifts) - 1


    @given(st.integers(1, 40), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_interval_index_of_matches_intervals(self, t, g, mult):
        layout = interval_layout(t, g, g * mult)
        for s in layout.shifts:
            expected = {j: i for i, members in enumerate(layout.intervals[s]) for j in members}
            for j in range(-2, t + 3):
                assert layout.interval_index_of(s, j) == expected.get(j), (t, g, mult, s, j)


class TestIntervalWeights:
    def test_single_loaded_band(self):
        d = ExplicitDistribution.uniform(3, [0, 1, 2, 3])  # all mass in band 2
        h = build_histogram(d, 1.0, 10)
        layout = interval_layout(10, 1, 2)
        per, total = interval_weights(h, layout, -1)
        assert per[1] == 1  # band 2 sits in interval 1 of shift -1
        assert total == 1

    def test_band_zero_in_stub_interval(self):
        d = ExplicitDistribution.point(3, 5)
        h = build_histogram(d, 1.0, 10)
        layout = interval_layout(10, 1, 2)
        per, total = interval_weights(h, layout, 0)
        assert per[0] == 1 and total == 1

    def test_three_element_weights(self):
        # bands: 1 -> 5/6, 2 -> 1/6; shift -1 intervals hold both bands
        d = ExplicitDistribution(
            n=2, mass={0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(1, 6)}
        )
        h = build_histogram(d, 1.0, 10)
        layout = interval_layout(10, 1, 2)
        per, total = interval_weights(h, layout, -1)
        assert per[1] == Fraction(5, 6) + Fraction(1, 6)
        assert total == 1
        # shift 0 has band 1 in a gap
        per0, total0 = interval_weights(h, layout, 0)
        assert total0 == Fraction(1, 6)

    def test_shift_totals_sum_rule(self):
        # summing w(s) over shifts counts every band len(shifts)-1 times
        d = ExplicitDistribution(
            n=3,
            mass={0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 8), 3: Fraction(1, 8)},
        )
        h = build_histogram(d, 1.0, 12)
        layout = interval_layout(12, 2, 4)
        totals = [interval_weights(h, layout, s)[1] for s in layout.shifts]
        assert sum(totals) == (len(layout.shifts) - 1) * h.total()


class TestStatisticalDistance:
    def test_identical(self):
        d = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        assert statistical_distance(d, d) == 0

    def test_disjoint(self):
        assert statistical_distance({"a": 1}, {"b": 1}) == 1

    def test_half(self):
        assert statistical_distance(
            {"a": Fraction(1)}, {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        ) == Fraction(1, 2)
