"""Sample sizing, Monte Carlo estimation versus the oracle, reproducibility."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from coinpress.adversaries import MixtureProver
from coinpress.dist import ExplicitDistribution
from coinpress.harness import (
    default_soundness_floor,
    estimate_output_distribution,
    estimate_soundness_sum,
    hoeffding_half_width,
    report_to_bytes,
    required_samples,
    split_seed,
)
from coinpress.oracle import ExactConfig, exact_output_distribution
from coinpress.protocol import ProtocolParams, honest_prover, run_protocol


def tiny_setup(sampling_gap=4.0):
    params = ProtocolParams.raw(
        n=3, eps=1.0, delta=0.5, t=6, gap_size=1, interval_size=2,
        sampling_gap=sampling_gap,
    )
    dist = ExplicitDistribution(
        n=3, mass={0: Fraction(1, 2), 3: Fraction(1, 4), 5: Fraction(1, 4)}
    )
    shared = honest_prover(dist, params)
    return params, dist, (lambda seed: shared)


class TestRequiredSamples:
    def test_reference_value(self):
        # ln(40) / (2 * 1e-4) rounds up to 18445
        assert required_samples(0.01, 0.05, 1.0) == 18445

    def test_range_scaling_quadratic(self):
        # doubling the range quadruples the requirement (up to the ceiling)
        base = required_samples(0.01, 0.05, 1.0)
        scaled = required_samples(0.01, 0.05, 2.0)
        assert scaled == 73778
        assert abs(scaled - 4 * base) < 4

    def test_degenerate_alpha_clamps(self):
        assert required_samples(0.9, 1.0) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            required_samples(0.0, 0.05)
        with pytest.raises(ValueError):
            required_samples(0.1, 0.05, 0.0)

    def test_half_width_inverts_bound(self):
        n = required_samples(0.02, 1e-3)
        assert hoeffding_half_width(n, 1e-3) <= 0.02


class TestSeedSplitting:
    def test_frozen_values(self):
        # regression pin: the split rule is part of the recorded-trial format
        assert split_seed(0, 0) == 121090487258959012643824037719333880785
        assert split_seed(0, 1) != split_seed(0, 0)
        assert split_seed(1, 0) != split_seed(0, 0)

    def test_stable(self):
        assert split_seed(12345, 678) == split_seed(12345, 678)


class TestEstimateOutputDistribution:
    def test_matches_oracle_within_half_width(self):
        params, dist, factory = tiny_setup()
        exact = exact_output_distribution(ExactConfig(params=params, prover=factory(0)))
        report = estimate_output_distribution(params, factory, 20000, master_seed=7)
        for (x, p), mass in exact.by_element_probability().items():
            key = (format(x, "01x"), f"{p.numerator}/{p.denominator}")
            assert abs(report.frequency(*key) - float(mass)) <= report.half_width

    def test_mixture_marginal_near_three_quarters(self):
        params = ProtocolParams.raw(
            n=2, eps=1.0, delta=0.5, t=4, gap_size=1, interval_size=2, sampling_gap=4.0
        )
        d0 = ExplicitDistribution.uniform(2, [0, 3])
        d1 = ExplicitDistribution.point(2, 0)
        factory = MixtureProver([(Fraction(1, 2), d0), (Fraction(1, 2), d1)], 0, params).reseeded
        report = estimate_output_distribution(params, factory, 10000, master_seed=3)
        assert report.x_frequency("0") == pytest.approx(0.75, abs=0.02)

    def test_reject_rate_counted(self):
        params, dist, factory = tiny_setup(sampling_gap=0.5)
        report = estimate_output_distribution(params, factory, 4000, master_seed=1)
        exact = exact_output_distribution(ExactConfig(params=params, prover=factory(0)))
        assert report.reject_rate == pytest.approx(float(exact.reject_mass), abs=0.03)
        assert sum(report.bins.values()) + sum(report.rejects.values()) == 4000

    def test_zero_trials_rejected(self):
        params, dist, factory = tiny_setup()
        with pytest.raises(ValueError):
            estimate_output_distribution(params, factory, 0, master_seed=1)

    def test_byte_identical_reports(self):
        params, dist, factory = tiny_setup()
        a = estimate_output_distribution(params, factory, 500, master_seed=11)
        b = estimate_output_distribution(params, factory, 500, master_seed=11)
        assert report_to_bytes(a, "json") == report_to_bytes(b, "json")
        assert report_to_bytes(a, "csv") == report_to_bytes(b, "csv")

class TestPinnedHarnessBytes:
    """SHA-256 of harness output, recorded before the trial loop became one
    serial generator; any change to trial order, seeding or aggregation
    shows here."""

    DIGESTS = {
        "honest": {
            "json": "32ab73271e324a1c2cb799144b4739c54d23e4d6bacce1d4967f893acc72ac24",
            "csv": "be510015bfb61008f7d87f571fa3bd49a70c9fdbc083f74d3722be6fd45d3aff",
            "sum": "14dc42202e5b4d2dcc6bfa34e9d14e3c0fc4b313dbd3adbdca8cbe1616d30155",
            "jsonl": "8c5ee2c129e24f97788409d8327efbbc976a219d257f681f1cf070e9eb064153",
        },
        "mixture": {
            "json": "e05165bc772d606a889d20c735ec61877f3b3b23f387eeeff16a21a77099017e",
            "csv": "2723c6e94c2818ba8d0d5ea324193c9b17caf521df928b9aba4b5d9df0bf8fcd",
            "sum": "2641506c2dd45da1649a3399eb4438422965d4bb219f1ce965a9b91aee28c6e6",
            "jsonl": "5d404f959759e1342fc5067581149d282e58aefb337d6b26f0b79ef1e057c860",
        },
    }

    @pytest.mark.parametrize("prover", ["honest", "mixture"])
    def test_digests(self, prover):
        # sampling gap 0.5 makes some runs reject, so both outcome kinds count
        params, dist, honest = tiny_setup(sampling_gap=0.5)
        if prover == "honest":
            factory = honest
        else:
            components = [(Fraction(1, 2), dist), (Fraction(1, 4), ExplicitDistribution.point(3, 6))]
            factory = MixtureProver(components, 0, params).reseeded
        report = estimate_output_distribution(params, factory, 400, master_seed=17)
        soundness = estimate_soundness_sum(params, factory, 0, 400, 17, Fraction(1, 8))
        # the transcript of each of the first 40 seeded trials, one line each
        lines = []
        for idx in range(40):
            seed = split_seed(17, idx)
            lines.append(run_protocol(params, factory(seed), rng=random.Random(seed), trial=idx).to_json() + "\n")
        blobs = {
            "json": report_to_bytes(report, "json"),
            "csv": report_to_bytes(report, "csv"),
            "sum": report_to_bytes(soundness, "json"),
            "jsonl": "".join(lines).encode(),
        }
        digests = {k: hashlib.sha256(b).hexdigest() for k, b in blobs.items()}
        assert digests == self.DIGESTS[prover]


class TestSoundnessSumEstimate:
    def test_honest_sum_near_one(self):
        params, dist, factory = tiny_setup()
        floor = default_soundness_floor(dist, params)
        report = estimate_soundness_sum(params, factory, 0, 20000, 5, floor)
        assert report.estimate == pytest.approx(1.0, abs=0.05)
        assert report.below_floor_frequency == 0

    def test_mixture_remark_sum(self):
        params = ProtocolParams.raw(
            n=2, eps=1.0, delta=0.5, t=4, gap_size=1, interval_size=2, sampling_gap=4.0
        )
        d0 = ExplicitDistribution.uniform(2, [0, 3])
        d1 = ExplicitDistribution.point(2, 0)
        factory = MixtureProver([(Fraction(1, 2), d0), (Fraction(1, 2), d1)], 0, params).reseeded
        report = estimate_soundness_sum(params, factory, 0, 20000, 5, Fraction(1, 4))
        assert report.estimate == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("eps", [1.0, 0.75, 0.5, 0.25])
    def test_default_floor_scales_by_worst_band_factor(self, eps):
        _, dist, _ = tiny_setup()
        params = ProtocolParams.raw(n=3, eps=eps, delta=0.5)
        smallest = min(dist.mass.values())
        exponent = params.gap_size * eps
        floor = default_soundness_floor(dist, params)
        assert float(floor) == pytest.approx(float(smallest) / 2**exponent, rel=1e-12)
        if exponent == int(exponent):
            assert floor == smallest / 2 ** int(exponent)

    def test_absent_element_sums_to_zero(self):
        params, dist, factory = tiny_setup()
        report = estimate_soundness_sum(params, factory, 1, 2000, 5, Fraction(1, 8))
        assert report.estimate == 0.0

    def test_floor_must_be_positive(self):
        params, dist, factory = tiny_setup()
        with pytest.raises(ValueError):
            estimate_soundness_sum(params, factory, 0, 100, 5, Fraction(0))


class TestChernoffSanity:
    def test_empirical_exceedance_below_bound(self):
        # average of k coin flips exceeds p + eps less often than exp(-eps^2 k / 2)
        rng = random.Random(0)
        for p in (0.2, 0.5):
            for k in (60, 200):
                eps = 0.1
                bound = math.exp(-(eps**2) * k / 2)
                reps = 3000
                exceed = 0
                for _ in range(reps):
                    mean = sum(rng.random() < p for _ in range(k)) / k
                    exceed += mean >= p + eps
                slack = 3 * math.sqrt(bound * (1 - bound) / reps)
                assert exceed / reps <= bound + slack
