"""Exact-enumeration oracle: cross-validation, conservation, diagnostics."""

import json
import random
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coinpress.adversaries import (
    MixtureProver,
    ScriptedProver,
    inflating_prover,
    overlapping_sets_prover,
)
from coinpress.dist import ExplicitDistribution
from coinpress.hashing import HashFunction, family, zero_set_masks
from coinpress.oracle import (
    EnumerationBudgetError,
    ExactConfig,
    HashFamily,
    OracleRun,
    completeness_diagnostics,
    exact_output_distribution,
    exact_output_distribution_flat,
    pow2_bounds,
    soundness_diagnostics,
    verify_band_sandwich,
    verify_band_sums,
)
from coinpress.protocol import (
    HonestProver,
    Outcome,
    ProtocolParams,
    ProverStrategy,
    compute_live_bands,
    derive_params,
    honest_prover,
    replay,
    run_protocol,
    scale_weights,
    validate_histogram_message,
)


def raw_params(n=3, t=6, gap_size=1, interval_size=2, sampling_gap=4.0, eps=1.0):
    return ProtocolParams.raw(
        n=n, eps=eps, delta=0.5, t=t, gap_size=gap_size,
        interval_size=interval_size, sampling_gap=sampling_gap,
    )


def skewed_dist(n=3):
    return ExplicitDistribution(
        n=n, mass={0: Fraction(1, 2), 3: Fraction(1, 4), 5: Fraction(1, 4)}
    )


def provers_for(dist, params):
    mix = MixtureProver(
        [(Fraction(1, 2), dist), (Fraction(1, 4), ExplicitDistribution.point(params.n, 0))],
        seed=3, params=params,
    )
    return {
        "honest": honest_prover(dist, params),
        "mixture": mix,
        "inflating": inflating_prover(dist, 1, params),
        "scripted-overlap": overlapping_sets_prover(dist, params),
    }


CONFIGS = [
    dict(n=3, t=6, gap_size=1, interval_size=2, sampling_gap=4.0),
    dict(n=3, t=6, gap_size=1, interval_size=2, sampling_gap=0.5),
    dict(n=3, t=8, gap_size=2, interval_size=2, sampling_gap=1.0),
]


class TestEnumeratorsAgree:
    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_structured_vs_flat_all_provers(self, cfg):
        params = raw_params(**cfg)
        dist = skewed_dist()
        for name, prover in provers_for(dist, params).items():
            exact = exact_output_distribution(ExactConfig(params=params, prover=prover))
            flat_out, flat_rej = exact_output_distribution_flat(params, prover)
            assert exact.outputs == flat_out, name
            assert exact.reject_mass == flat_rej, name

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_total_mass_conserved(self, cfg):
        params = raw_params(**cfg)
        for name, prover in provers_for(skewed_dist(), params).items():
            exact = exact_output_distribution(ExactConfig(params=params, prover=prover))
            assert exact.total_mass() == 1, name


class TestExactDistribution:
    def test_honest_no_reject_exact_law(self):
        params = raw_params()
        dist = skewed_dist()
        exact = exact_output_distribution(ExactConfig(params=params, prover=honest_prover(dist, params)))
        assert exact.reject_mass == 0
        assert exact.by_element_probability() == {
            (0, Fraction(1, 2)): Fraction(1, 2),
            (3, Fraction(1, 4)): Fraction(1, 4),
            (5, Fraction(1, 4)): Fraction(1, 4),
        }

    def test_point_mass_single_output(self):
        params = raw_params()
        dist = ExplicitDistribution.point(3, 0)
        exact = exact_output_distribution(ExactConfig(params=params, prover=honest_prover(dist, params)))
        assert set(exact.by_element_probability()) <= {(0, Fraction(1))}
        assert exact.total_mass() == 1

    def test_trivial_fallback_equals_distribution(self):
        params = derive_params(8, 0.5, 0.5)
        for dist in (
            ExplicitDistribution(n=8, mass={0: Fraction(1, 2), 9: Fraction(1, 2)}),
            ExplicitDistribution.uniform(8, range(6)),
            ExplicitDistribution(n=8, mass={1: Fraction(2, 3), 2: Fraction(1, 3)}),
        ):
            exact = exact_output_distribution(
                ExactConfig(params=params, prover=honest_prover(dist, params))
            )
            assert exact.by_element_probability() == {
                (x, p): p for x, p in dist.mass.items()
            }

    def test_budget_guard(self):
        # 8001 intervals x 8^6 hash functions: about 2.1e9 branches
        params = ProtocolParams.raw(n=6, eps=1.0, delta=0.5, t=8000, gap_size=1, interval_size=1)
        with pytest.raises(EnumerationBudgetError, match="exceed the budget"):
            ExactConfig(params=params, prover=ScriptedProver({}))

    def test_frozen_reject_mass_at_positive_hash_width(self):
        # regression pin for the skewed distribution at sampling_gap 0.5:
        # the cardinality check fails for 5/16 of the hash draws
        params = raw_params(sampling_gap=0.5)
        exact = exact_output_distribution(
            ExactConfig(params=params, prover=honest_prover(skewed_dist(), params))
        )
        assert exact.reject_by_reason == {"check-b": Fraction(5, 16)}

    def test_output_law_close_to_distribution(self):
        # rejection-or-output law versus the held distribution, as a
        # statistical distance (exactly zero on an all-m=0 config)
        from coinpress.dist import statistical_distance

        params = raw_params()
        dist = skewed_dist()
        exact = exact_output_distribution(
            ExactConfig(params=params, prover=honest_prover(dist, params))
        )
        law = {x: v for x, v in exact.element_marginal().items()}
        if exact.reject_mass:
            law["reject"] = exact.reject_mass
        assert statistical_distance(law, dict(dist.mass)) == 0


class TestWiderInstance:
    def test_four_bit_instance_enumerates(self):
        # full 2^12-member hash family per challenge
        params = ProtocolParams.raw(
            n=4, eps=1.0, delta=0.5, t=8, gap_size=1, interval_size=2, sampling_gap=3.0
        )
        dist = ExplicitDistribution(
            n=4,
            mass={0: Fraction(1, 2), 7: Fraction(1, 4), 9: Fraction(1, 8), 15: Fraction(1, 8)},
        )
        run = OracleRun(ExactConfig(params=params, prover=honest_prover(dist, params)))
        exact = run.distribution
        assert exact.total_mass() == 1
        assert verify_band_sandwich(run).ok
        flat_out, flat_rej = exact_output_distribution_flat(params, honest_prover(dist, params))
        assert flat_out == exact.outputs and flat_rej == exact.reject_mass


class TestTrivialFallbackMixtures:
    def test_mixture_support_decomposes_in_fallback(self):
        params = derive_params(8, 0.5, 0.5)
        from coinpress.adversaries import MixtureProver

        d0 = ExplicitDistribution(n=8, mass={0: Fraction(1, 2), 1: Fraction(1, 2)})
        prover = MixtureProver([(Fraction(1, 2), d0)], seed=0, params=params)
        exact = exact_output_distribution(ExactConfig(params=params, prover=prover))
        # half the mass plays honestly for d0, half rejects outright
        assert exact.reject_mass == Fraction(1, 2)
        assert exact.by_element_probability() == {
            (0, Fraction(1, 2)): Fraction(1, 4),
            (1, Fraction(1, 2)): Fraction(1, 4),
        }


class TestChallengeDistribution:
    def test_single_band_enumerable(self):
        # all mass in band 2 of a t=6 layout: shifts -1 and 0 hold it in
        # interval 1, shift 1 has it in a gap, so (s,k) splits evenly
        params = raw_params()
        dist = ExplicitDistribution.uniform(3, [0, 1, 2, 3])  # band 2
        run = OracleRun(ExactConfig(params=params, prover=honest_prover(dist, params)))
        assert run.challenge_distribution() == {
            (-1, 1): Fraction(1, 2),
            (0, 1): Fraction(1, 2),
        }


class TestPlacementProbability:
    def test_honest_m_zero_is_one_on_live_bands(self):
        params = raw_params()
        dist = skewed_dist()
        run = OracleRun(ExactConfig(params=params, prover=honest_prover(dist, params)))
        comp = run.components[0]
        # band 1 holds element 0, live, shift -1 interval 1
        assert comp.placement_probability(-1, 0, 1) == 1
        assert comp.placement_probability(-1, 3, 2) == 1

    def test_gap_band_is_zero(self):
        params = raw_params()
        dist = skewed_dist()
        run = OracleRun(ExactConfig(params=params, prover=honest_prover(dist, params)))
        comp = run.components[0]
        # shift -1 has gaps at 0, 3, 6
        assert comp.placement_probability(-1, 0, 0) == 0
        assert comp.placement_probability(-1, 0, 3) == 0

    def test_element_outside_bucket_zero_for_honest(self):
        params = raw_params()
        dist = skewed_dist()
        run = OracleRun(ExactConfig(params=params, prover=honest_prover(dist, params)))
        comp = run.components[0]
        # element 1 is not in the support, so never placed anywhere
        assert comp.placement_probability(-1, 1, 1) == 0


class TestStructuralChecks:
    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_sandwich_and_sums_all_provers(self, cfg):
        params = raw_params(**cfg)
        for name, prover in provers_for(skewed_dist(), params).items():
            run = OracleRun(ExactConfig(params=params, prover=prover))
            sandwich = verify_band_sandwich(run)
            assert sandwich.ok, (name, sandwich.violations[:2])
            assert not sandwich.indeterminate, name
            sums = verify_band_sums(run)
            assert sums.ok, (name, sums.violations[:2])

    def test_fractional_eps_uses_enclosures(self):
        params = raw_params(n=2, t=8, gap_size=2, interval_size=2, sampling_gap=3.0, eps=0.5)
        dist = ExplicitDistribution(n=2, mass={0: Fraction(1, 2), 3: Fraction(1, 2)})
        run = OracleRun(ExactConfig(params=params, prover=honest_prover(dist, params)))
        report = verify_band_sandwich(run)
        assert report.ok and not report.indeterminate

    def test_pow2_bounds_enclose(self):
        # rigorous check via integer powers: lo^10 < 2^17 < hi^10
        lo, hi = pow2_bounds(1.7)
        assert lo**10 < 2**17 < hi**10
        exact_lo, exact_hi = pow2_bounds(3.0)
        assert exact_lo == exact_hi == 8
        neg_lo, neg_hi = pow2_bounds(-1.5)
        assert neg_lo**2 < Fraction(1, 8) < neg_hi**2


class TestSoundnessDiagnostics:
    def test_point_mass_never_undervalued(self):
        # gap_size 4 puts the cutoff at half the conditional mass, below the
        # claimed probability 1
        params = ProtocolParams.raw(
            n=3, eps=1.0, delta=0.25, t=8, gap_size=4, interval_size=4, sampling_gap=4.0
        )
        dist = ExplicitDistribution.point(3, 0)
        run = OracleRun(ExactConfig(params=params, prover=honest_prover(dist, params)))
        diag = soundness_diagnostics(run)
        assert diag.bad_probability == 0
        assert diag.conditional_sums[0] == 1

    def test_band_split_partitions_above_cutoff_sums(self):
        params = raw_params(sampling_gap=0.5)
        run = OracleRun(
            ExactConfig(params=params, prover=honest_prover(skewed_dist(), params))
        )
        diag = soundness_diagnostics(run)
        for sd in diag.per_shift.values():
            for x, total in sd.sums_above_cutoff.items():
                split = sd.sums_medium.get(x, Fraction(0)) + sd.sums_large.get(x, Fraction(0))
                assert split == total

    def test_band_edges_ordered_when_gap_wide(self):
        # the scaling factor 2^((gap/2 - 1) eps) exceeds 1 only for gaps > 2,
        # which is when the three bands are properly ordered
        params = ProtocolParams.raw(
            n=3, eps=1.0, delta=0.25, t=8, gap_size=4, interval_size=4, sampling_gap=4.0
        )
        run = OracleRun(
            ExactConfig(params=params, prover=honest_prover(skewed_dist(), params))
        )
        diag = soundness_diagnostics(run)
        assert diag.per_shift
        for sd in diag.per_shift.values():
            for x in sd.cutoff:
                assert sd.cutoff[x] <= sd.large_edge[x]

    def test_bad_event_mass_decomposes_over_shifts(self):
        params = raw_params(sampling_gap=0.5)
        run = OracleRun(
            ExactConfig(params=params, prover=honest_prover(skewed_dist(), params))
        )
        diag = soundness_diagnostics(run)
        comp = run.components[0]
        recomputed = sum(
            (comp.shift_prob(s) * sd.bad_probability for s, sd in diag.per_shift.items()),
            Fraction(0),
        )
        assert diag.bad_probability == recomputed


class TestCompletenessDiagnostics:
    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_partition_and_band(self, cfg):
        params = raw_params(**cfg)
        dist = skewed_dist()
        run = OracleRun(ExactConfig(params=params, prover=honest_prover(dist, params)))
        diag = completeness_diagnostics(run, dist)
        assert diag.partition_ok
        assert diag.covered == {0, 3, 5}
        assert diag.covered_mass == 1
        # honest prover never outputs a wrong probability
        assert diag.wrong_probability_mass == 0
        # at eps=1 the deviation window 1 +- 132*eps is generous
        assert diag.in_band

    def test_every_output_element_is_covered(self):
        params = raw_params()
        dist = skewed_dist()
        run = OracleRun(ExactConfig(params=params, prover=honest_prover(dist, params)))
        diag = completeness_diagnostics(run, dist)
        for (x, _band, _p) in run.distribution.outputs:
            assert x in diag.covered


# ---------------------------------------------------------------------------
# Enumeration by zero set


class FullEnumeration(ProverStrategy):
    """Delegates every message to ``inner`` but does not declare the
    zero-set contract, so the oracle asks it about every hash function."""

    def __init__(self, inner: ProverStrategy):
        self.inner = inner

    def begin_run(self):
        self.inner.begin_run()

    def produce_histogram(self):
        return self.inner.produce_histogram()

    def produce_sets(self, s, k, f, g, m):
        return self.inner.produce_sets(s, k, f, g, m)

    def produce_probability(self, j, x):
        return self.inner.produce_probability(j, x)

    def produce_table(self):
        return self.inner.produce_table()

    def randomness_support(self):
        return [(q, FullEnumeration(strat)) for q, strat in self.inner.randomness_support()]


# Masses of the four-prover n=4 instances: all above 2**-4, so the one-band
# inflation still fits under t=8 at eps=0.5.
N4_MASSES = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(1, 8), Fraction(1, 8))


def profile_provers(eps, n=4, sampling_gap=1.0):
    """The four provers of the oracle-n4 mass profile at width n, t=8."""
    params = ProtocolParams.raw(
        n=n, eps=eps, delta=0.5, t=8, gap_size=1, interval_size=2, sampling_gap=sampling_gap,
    )
    rng = random.Random(7)
    main, other = (
        ExplicitDistribution(n=n, mass=dict(zip(rng.sample(range(1 << n), 5), N4_MASSES)))
        for _ in range(2)
    )
    return params, {
        "honest": HonestProver(main, params),
        "mixture": MixtureProver(
            [(Fraction(1, 2), main), (Fraction(1, 4), other)], seed=11, params=params,
        ),
        "inflating": inflating_prover(main, 1, params),
        "overlapping": overlapping_sets_prover(main, params),
    }


def branches(run):
    return [
        len(ch[4])
        for comp in run.components
        for st in comp.shifts.values()
        for ch in st.challenges.values()
        if ch[4] is not None
    ]


class TestZeroSetPatterns:
    @pytest.mark.parametrize("n", [3, 4])
    def test_patterns_are_first_members_of_distinct_zero_sets(self, n):
        for m in range(n + 1):
            masks = zero_set_masks(n, m).tolist()
            first = {}
            for idx, mask in enumerate(masks):
                first.setdefault(mask, idx)
            rows = HashFamily(n).patterns(m)
            assert sum(count for _f, count in rows) == 8**n
            triples = list(family(n))
            assert [(f.a, f.b, f.c) for f, _ in rows] == [triples[i] for i in sorted(first.values())]
            for f, count in rows:
                assert count == masks.count(masks[triples.index((f.a, f.b, f.c))])

    def test_masks_match_hash_evaluation(self):
        for m in range(4):
            masks = zero_set_masks(3, m).tolist()
            for idx, (a, b, c) in enumerate(family(3)):
                f = HashFunction(n=3, m=m, a=a, b=b, c=c)
                assert masks[idx] == sum(1 << x for x in range(8) if f.eval(x) == 0)

    def test_opted_in_sets_depend_only_on_zero_set(self):
        # For every hash function f, each opted-in prover answers exactly as
        # it does for the first member of f's zero-set pattern.
        params = raw_params(sampling_gap=1.0)
        dist = skewed_dist()
        mix = provers_for(dist, params)["mixture"]
        provers = [
            honest_prover(dist, params),
            inflating_prover(dist, 0, params),
            inflating_prover(dist, 1, params),
            overlapping_sets_prover(dist, params),
        ] + [strat for _q, strat in mix.randomness_support() if isinstance(strat, HonestProver)]
        layout = params.layout
        triples = list(family(3))
        for prover in provers:
            assert prover.depends_on_hash_zero_set
            for m in range(4):
                masks = zero_set_masks(3, m).tolist()
                first = {}
                for idx, mask in enumerate(masks):
                    first.setdefault(mask, idx)
                for s in layout.shifts:
                    for k in layout.index_range:
                        expected = {}
                        for idx, (a, b, c) in enumerate(triples):
                            rep = first[masks[idx]]
                            if rep not in expected:
                                ra, rb, rc = triples[rep]
                                f_rep = HashFunction(n=3, m=m, a=ra, b=rb, c=rc)
                                expected[rep] = prover.produce_sets(s, k, f_rep, 1.5, m)
                            f = HashFunction(n=3, m=m, a=a, b=b, c=c)
                            assert prover.produce_sets(s, k, f, 1.5, m) == expected[rep]

    @pytest.mark.parametrize("eps", [1.0, 0.5])
    @pytest.mark.parametrize("name", ["honest", "mixture", "inflating", "overlapping"])
    def test_quotient_equals_full_enumeration_and_flat(self, eps, name):
        params, provers = profile_provers(eps)
        prover = provers[name]
        quotient = OracleRun(ExactConfig(params=params, prover=prover))
        full = OracleRun(ExactConfig(params=params, prover=FullEnumeration(prover)))
        assert all(rows == 8**4 for rows in branches(full))
        assert sum(branches(quotient)) < sum(branches(full))
        exact, exact_full = quotient.distribution, full.distribution
        assert exact.outputs == exact_full.outputs
        assert exact.reject_by_reason == exact_full.reject_by_reason
        flat_out, flat_rej = exact_output_distribution_flat(params, prover)
        assert exact.outputs == flat_out and exact.reject_mass == flat_rej
        assert exact.total_mass() == 1
        for comp, comp_full in zip(quotient.components, full.components):
            for s in params.layout.shifts:
                for x in range(16):
                    for j in range(params.t + 1):
                        assert comp.placement_probability(s, x, j) == comp_full.placement_probability(s, x, j)
        for check in (verify_band_sandwich, verify_band_sums):
            a, b = check(quotient), check(full)
            assert (a.checked, a.violations, a.indeterminate) == (b.checked, b.violations, b.indeterminate)
            assert not a.violations and not a.indeterminate

    def test_scripted_prover_enumerates_every_function(self):
        params = raw_params(sampling_gap=1.0)
        honest = honest_prover(skewed_dist(), params)
        scripted = ScriptedProver(
            {
                "histogram": honest.produce_histogram(),
                "sets": honest.produce_sets,
                "probability": honest.produce_probability,
            }
        )
        assert not scripted.depends_on_hash_zero_set
        run = OracleRun(ExactConfig(params=params, prover=scripted))
        assert branches(run) and all(rows == 8**3 for rows in branches(run))
        honest_run = OracleRun(ExactConfig(params=params, prover=honest))
        assert run.distribution.outputs == honest_run.distribution.outputs

    @pytest.mark.parametrize("n", [5, 6])
    def test_structural_checks_at_wider_instances(self, n):
        params = ProtocolParams.raw(
            n=n, eps=0.5, delta=0.5, t=2 * n, gap_size=1, interval_size=2, sampling_gap=1.0,
        )
        support = random.Random(n).sample(range(1 << n), len(N4_MASSES))
        dist = ExplicitDistribution(n=n, mass=dict(zip(support, N4_MASSES)))
        run = OracleRun(ExactConfig(params=params, prover=honest_prover(dist, params)))
        sandwich = verify_band_sandwich(run)
        sums = verify_band_sums(run)
        assert not sandwich.violations and not sandwich.indeterminate
        assert not sums.violations
        assert run.distribution.total_mass() == 1

    def test_width_beyond_masks_refused(self):
        params = ProtocolParams.raw(n=7, eps=1.0, delta=0.5, t=14, gap_size=1, interval_size=2)
        dist = ExplicitDistribution.point(7, 0)
        with pytest.raises(EnumerationBudgetError):
            ExactConfig(params=params, prover=honest_prover(dist, params))


# ---------------------------------------------------------------------------
# The flat enumerator


class CountingProver(FullEnumeration):
    """A deterministic prover that records every sets query it is asked, as
    (s, k, m, a, b, c), and does not declare the zero-set contract."""

    def __init__(self, inner: ProverStrategy):
        super().__init__(inner)
        self.calls = Counter()

    def produce_sets(self, s, k, f, g, m):
        assert f.m == m
        self.calls[(s, k, m, f.a, f.b, f.c)] += 1
        return super().produce_sets(s, k, f, g, m)

    def randomness_support(self):
        return [(Fraction(1), self)]


class TestFlatEnumerator:
    def assert_asks_every_function_once(self, params, honest):
        """The flat enumerator asks about every (challenge, hash function)
        pair with m <= n exactly once, and counting changes nothing.
        Returns the hash widths of the challenges the verifier can draw."""
        counting = CountingProver(honest)
        assert exact_output_distribution_flat(params, counting) == (
            exact_output_distribution_flat(params, honest)
        )
        tables, reason = validate_histogram_message(honest.produce_histogram(), params)
        assert reason is None
        expected = {
            (s, k, ctx.m, a, b, c)
            for (s, k), ctx in tables.challenges.items()
            if ctx.m <= params.n
            for a, b, c in family(params.n)
        }
        assert expected and set(counting.calls) == expected
        assert set(counting.calls.values()) == {1}
        return {ctx.m for ctx in tables.challenges.values()}

    def test_asks_every_function_once_at_n3(self):
        widths = set()
        for sampling_gap in (4.0, 0.5, -1.0, -2.0, -3.0):
            params = raw_params(sampling_gap=sampling_gap)
            widths |= self.assert_asks_every_function_once(
                params, honest_prover(skewed_dist(), params)
            )
        assert widths == {0, 1, 2, 3, 4}  # every width up to n, and one past it

    @pytest.mark.parametrize("sampling_gap", [1.0, -1.0])
    def test_asks_every_function_once_at_n4(self, sampling_gap):
        params, provers = profile_provers(1.0, sampling_gap=sampling_gap)
        self.assert_asks_every_function_once(params, provers["honest"])

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["honest", "mixture", "inflating", "overlapping"])
    def test_structured_equals_flat_at_n5(self, name):
        params, provers = profile_provers(1.0, n=5)
        prover = provers[name]
        run = OracleRun(ExactConfig(params=params, prover=prover))
        exact = run.distribution
        flat_out, flat_rej = exact_output_distribution_flat(params, prover)
        assert exact.outputs == flat_out and exact.reject_mass == flat_rej
        assert exact.total_mass() == 1
        sandwich = verify_band_sandwich(run)
        assert not sandwich.violations and not sandwich.indeterminate
        assert not verify_band_sums(run).violations


# ---------------------------------------------------------------------------
# Messages that used to crash the verifier or the oracles


def assert_oracles_agree(params, prover):
    exact = OracleRun(ExactConfig(params=params, prover=prover)).distribution
    flat_out, flat_rej = exact_output_distribution_flat(params, prover)
    assert exact.outputs == flat_out
    assert exact.reject_mass == flat_rej
    assert exact.total_mass() == 1
    return exact


def scripted_sets_prover(params, sets):
    honest = honest_prover(skewed_dist(), params)
    return ScriptedProver(
        {
            "histogram": honest.produce_histogram(),
            "sets": sets,
            "probability": honest.produce_probability,
        }
    )


class TestMalformedMessages:
    def check_run(self, params, prover, reason):
        tr = run_protocol(params, prover, rng=random.Random(0))
        assert tr.outcome.reason == reason
        assert replay(params, prover, tr).to_json() == tr.to_json()

    def test_list_shaped_sets(self):
        params = raw_params()
        prover = scripted_sets_prover(params, lambda s, k, f, g, m: [[0], [3, 5]])
        self.check_run(params, prover, "malformed-sets")
        exact = assert_oracles_agree(params, prover)
        assert exact.reject_by_reason == {"malformed-sets": Fraction(1)}

    @pytest.mark.parametrize("entry", [5, None, ["a"], [1.5]])
    def test_non_integer_set_entry(self, entry):
        params = raw_params()
        live = compute_live_bands(honest_prover(skewed_dist(), params).produce_histogram(), params)

        def sets(s, k, f, g, m):
            return {i: entry for i in params.layout.interval(s, k) if i in live}

        prover = scripted_sets_prover(params, sets)
        self.check_run(params, prover, "malformed-sets")
        exact = assert_oracles_agree(params, prover)
        assert exact.reject_by_reason == {"malformed-sets": Fraction(1)}

    def test_non_iterable_histogram(self):
        params = raw_params()
        prover = ScriptedProver({"histogram": 5})
        self.check_run(params, prover, "malformed-histogram")
        exact = assert_oracles_agree(params, prover)
        assert exact.reject_by_reason == {"malformed-histogram": Fraction(1)}

    @pytest.mark.parametrize("bad", ["1/2", 0.5, None, [1]])
    def test_rejected_weights_shown_as_malformed(self, bad):
        params = raw_params()
        weights = [0, Fraction(1, 2), bad, 0, 0, 0, 0]
        tr = run_protocol(params, ScriptedProver({"histogram": weights}), rng=random.Random(0))
        assert tr.outcome.reason == "malformed-histogram"
        shown = json.loads(tr.to_json())["messages"][0]["weights"]
        assert shown[:2] == ["0/1", "1/2"]
        assert shown[2] == {"malformed": type(bad).__name__}

    @pytest.mark.parametrize(
        "table",
        [
            [(0, "abc"), (1, Fraction(1, 2))],
            [(0, 0.5), (1, 0.5)],
            [(0, "1/2"), (1, "1/2")],
            [(0.0, Fraction(1, 2)), (1, Fraction(1, 2))],
            [0, 1],
            7,
        ],
    )
    def test_fallback_table_types(self, table):
        params = derive_params(8, 0.5, 0.5)
        prover = ScriptedProver({"table": table})
        self.check_run(params, prover, "malformed-table")
        exact = assert_oracles_agree(params, prover)
        assert exact.reject_by_reason == {"malformed-table": Fraction(1)}


class TestHashWidthUnderflow:
    # Band 6 holds 2**-1200, alone in its interval for shifts 0 and 1, so the
    # float band-mass sum of that interval underflows to 0.
    TINY = Fraction(1, 2**1200)
    WEIGHTS = [0, Fraction(1, 2), Fraction(1, 2) - TINY, 0, 0, 0, TINY]

    def prover(self, params):
        live = compute_live_bands(self.WEIGHTS, params)
        members = {1: [0], 2: [3, 5]}
        return ScriptedProver(
            {
                "histogram": self.WEIGHTS,
                "sets": lambda s, k, f, g, m: {
                    i: [x for x in members[i] if f.eval(x) == 0]
                    for i in params.layout.interval(s, k)
                    if i in live
                },
                "probability": lambda j, x: Fraction(1, 2) if x == 0 else Fraction(1, 4),
            }
        )

    @pytest.mark.parametrize("sampling_gap", [4.0, 0.5])
    def test_oracles_agree(self, sampling_gap):
        params = raw_params(sampling_gap=sampling_gap)
        exact = assert_oracles_agree(params, self.prover(params))
        assert exact.reject_by_reason["band-not-live"] > 0

    def test_replay_through_tiny_interval(self):
        params = raw_params()
        layout = params.layout
        w = self.WEIGHTS

        def offset(weights, index):
            scaled, _total = scale_weights(weights)
            return sum(scaled[:index])

        shift_totals = [sum((w[j] for iv in layout.intervals[s] for j in iv), Fraction(0)) for s in layout.shifts]
        interval_totals = [sum((w[j] for j in layout.interval(1, k)), Fraction(0)) for k in layout.index_range]
        assert layout.interval(1, 2) == (6,)
        coins = [
            offset(shift_totals, layout.shifts.index(1)),
            offset(interval_totals, 2),
            0, 0, 0,  # the hash coefficients a, b, c of an m=0 hash
            0,  # the only band of the interval
        ]
        prover = self.prover(params)
        tr = run_protocol(params, prover, replay_coins=coins)
        assert tr.outcome.reason == "band-not-live"
        assert tr.coins == coins
        assert replay(params, prover, tr).to_json() == tr.to_json()


# ---------------------------------------------------------------------------
# Histogram intake fuzzing: any value in the histogram slot ends in an Outcome


def histogram_values():
    """Arbitrary values for the ScriptedProver histogram slot of a t=6
    instance: junk scalars, entries of every type, wrong lengths, nested
    lists, negative and huge weights, and well-typed histograms (ints,
    bools and Fractions) whose sum may or may not pass round 1."""
    junk = st.one_of(
        st.none(), st.booleans(), st.floats(), st.text(max_size=4),
        st.integers(-3, 3), st.integers(2**64, 2**80), st.integers(-(2**80), -(2**64)),
        st.fractions(min_value=-1, max_value=1, max_denominator=50),
        st.lists(st.integers(0, 1), max_size=2),
    )
    exact = st.one_of(
        st.booleans(), st.integers(0, 2),
        st.fractions(min_value=0, max_value=1, max_denominator=16),
    )
    parts = st.lists(st.integers(0, 4), min_size=7, max_size=7).filter(any)
    return st.one_of(
        junk,
        st.lists(junk, max_size=9),
        st.lists(exact, min_size=6, max_size=8),
        st.lists(st.lists(exact, max_size=3), min_size=7, max_size=7),
        parts.map(lambda c: [Fraction(x, sum(c)) for x in c]),
        parts.map(lambda c: [Fraction(x, sum(c) + 1) for x in c]),
        parts.map(lambda c: [x == max(c) for x in c]),
    )


class TestHistogramIntakeFuzz:
    @given(histogram_values())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_histogram_ends_in_an_outcome(self, histogram):
        """The verifier and both oracles are total over the histogram slot.
        ``bool`` is an ``int``, so True/False entries are the weights 1/0."""
        params = raw_params()
        honest = honest_prover(skewed_dist(), params)
        prover = ScriptedProver(
            {"histogram": histogram, "sets": honest.produce_sets,
             "probability": honest.produce_probability}
        )
        tr = run_protocol(params, prover, rng=random.Random(0))
        assert tr.outcome.kind in ("output", "reject")
        assert replay(params, prover, tr).to_json() == tr.to_json()
        assert_oracles_agree(params, prover)

    def test_bool_weights_are_int_weights(self):
        params = raw_params()
        weights = [False, True, False, False, False, False, False]
        tr = run_protocol(params, ScriptedProver({"histogram": weights}), rng=random.Random(0))
        assert tr.outcome.reason == "malformed-sets"  # round 1 passed
        assert json.loads(tr.to_json())["messages"][0]["weights"][:2] == ["0/1", "1/1"]


# ---------------------------------------------------------------------------
# Sets intake fuzzing: any value in the sets slot ends in an Outcome


def set_elements():
    """Elements to smuggle into a set: in range (inside or outside the zero
    set), negative, huge, bool and float."""
    return st.one_of(
        st.integers(0, 7), st.integers(-(2**70), -1), st.integers(8, 2**70),
        st.booleans(), st.floats(),
    )


def sets_mutations():
    """Edits applied to the honest sets of one challenge; ``pos`` picks a
    band of the message by position."""
    pos = st.integers(0, 3)
    return st.lists(
        st.one_of(
            st.tuples(st.just("drop"), pos),
            st.tuples(st.just("extra"), st.integers(-1, 7)),
            st.tuples(st.just("bool-key"), pos),
            st.tuples(
                st.just("entry"), pos,
                st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=2)),
            ),
            st.tuples(st.just("add"), pos, set_elements()),
            st.tuples(st.just("repeat"), pos),  # another band's element
            st.tuples(st.just("outside"), pos),  # an element f does not zero
            st.tuples(st.just("dup"), pos),
        ),
        max_size=2,
    )


def apply_sets_mutations(honest_sets, mutations, f):
    out = {i: list(xs) for i, xs in honest_sets.items()}
    for op, *args in mutations:
        if op == "extra":
            out.setdefault(args[0], [])
            continue
        if not out:
            continue
        keys = list(out)
        band = keys[args[0] % len(keys)]
        if op == "drop":
            del out[band]
        elif op == "bool-key":
            if band in (0, 1):  # True == 1 and False == 0 as dict keys
                out[bool(band)] = out.pop(band)
        elif op == "entry":
            out[band] = args[1]
        elif not isinstance(out[band], list):
            continue
        elif op == "add":
            out[band].append(args[1])
        elif op == "repeat":
            donors = [x for i in keys if i != band and isinstance(out[i], list) for x in out[i]]
            out[band].extend(donors[:1])
        elif op == "outside":  # in place of the band's first element, if any
            out[band][:1] = [x for x in range(8) if f.eval(x) != 0][:1]
        elif op == "dup":
            out[band].extend(out[band][:1])
    return out


# At sampling gap 0.5 one interval hashes to m = 1, so some elements fall
# outside the zero set.
SETS_FUZZ_PARAMS = raw_params(sampling_gap=0.5)


def sets_values():
    """Arbitrary values for the ScriptedProver sets slot of the n=3
    instance: junk constants, and callables that edit the honest sets
    (missing, extra or bool keys, non-iterable entries, bad elements,
    overlaps, elements outside the zero set) and may hand the result over
    as a dict, a read-only mapping or a list."""
    junk = st.one_of(
        st.none(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
        st.lists(st.lists(st.integers(0, 7), max_size=3), max_size=3),
        st.dictionaries(st.integers(0, 6), st.lists(set_elements(), max_size=3), max_size=3),
    )
    wraps = st.sampled_from([dict, dict, MappingProxyType, lambda d: list(d.values())])
    honest = honest_prover(skewed_dist(), SETS_FUZZ_PARAMS)

    def recipe(mutations, wrap):
        def sets(s, k, f, g, m):
            return wrap(apply_sets_mutations(honest.produce_sets(s, k, f, g, m), mutations, f))
        return sets

    edited = st.builds(recipe, sets_mutations(), wraps)
    # one_of would flatten junk's branches and draw an edit one time in seven
    return st.booleans().flatmap(lambda edit: edited if edit else junk)


class TestSetsIntakeFuzz:
    @given(sets_values())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_sets_message_ends_in_an_outcome(self, sets):
        """The verifier and both oracles are total over the sets slot and
        agree exactly on what every message is worth."""
        params = SETS_FUZZ_PARAMS
        prover = scripted_sets_prover(params, sets)
        for seed in range(3):
            tr = run_protocol(params, prover, rng=random.Random(seed))
            assert isinstance(tr.outcome, Outcome)
            assert tr.outcome.kind in ("output", "reject")
            assert replay(params, prover, tr).to_json() == tr.to_json()
        assert_oracles_agree(params, prover)


# ---------------------------------------------------------------------------
# Probability intake fuzzing: any value in the probability slot ends in an
# output, the same one in the run, its replay and both oracles


def probability_claims():
    """Values for the ScriptedProver probability slot: ints (0 and negatives
    among them), floats, strings, None, bools, Fractions above 1, huge
    rationals, and ("edge", shift, factor) recipes that claim factor times
    the upper edge of band j + shift, for the band j the verifier drew.
    Factor 1 is on the edge, 3/4 inside the band, 1 +- 10**-d just inside
    or outside it."""
    constants = st.one_of(
        st.integers(-3, 3), st.integers(2**64, 2**80), st.just(10**400),
        st.floats(), st.text(max_size=4), st.just("1/2"), st.none(), st.booleans(),
        st.fractions(min_value=1, max_value=4, max_denominator=50),
        st.integers(60, 3000).map(lambda k: Fraction(2**k + 1, 2 ** (k + 1))),
        st.integers(60, 3000).map(lambda k: Fraction(1, 2**k)),
        st.integers(1, 200).map(lambda k: Fraction(3**k, 2 ** (2 * k))),
    )
    factors = st.one_of(
        st.sampled_from([Fraction(1), Fraction(3, 4), Fraction(1, 2)]),
        st.builds(
            lambda d, sign: 1 + sign * Fraction(1, 10**d), st.integers(1, 16), st.sampled_from([-1, 1]),
        ),
    )
    edges = st.tuples(st.just("edge"), st.integers(-1, 1), factors)
    return st.booleans().flatmap(lambda edge: edges if edge else constants)


def claim_slot(claim, params):
    """The probability slot a drawn claim stands for."""
    if not (isinstance(claim, tuple) and claim[0] == "edge"):
        return claim
    _, shift, factor = claim

    def probability(j, x):
        exponent = (j + shift) * params.eps
        if exponent == int(exponent):
            edge = Fraction(2) ** -int(exponent)
        else:
            edge = Fraction(2.0 ** -exponent)
        return edge * factor

    return probability


class TestProbabilityIntakeFuzz:
    @given(st.sampled_from([1.0, 0.5]), probability_claims())
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_probability_claim_ends_in_an_output(self, eps, claim):
        """The honest sets always pass, so each run ends in an output; the
        claim decides only p. Runs, replays and both oracles agree on it."""
        params = raw_params(eps=eps)
        honest = honest_prover(skewed_dist(), params)
        prover = ScriptedProver(
            {"histogram": honest.produce_histogram(), "sets": honest.produce_sets,
             "probability": claim_slot(claim, params)}
        )
        prover.depends_on_hash_zero_set = True  # the sets are the honest prover's
        exact = assert_oracles_agree(params, prover)
        assert exact.reject_mass == 0
        for seed in range(3):
            tr = run_protocol(params, prover, rng=random.Random(seed))
            assert tr.outcome.kind == "output"
            assert replay(params, prover, tr).to_json() == tr.to_json()
            assert exact.outputs.get((tr.outcome.x, tr.outcome.band, tr.outcome.p), 0) > 0

    @pytest.mark.parametrize(
        "claim", ["1/2", [1], 10**400, object()], ids=["str", "list", "huge-int", "object"],
    )
    def test_unshowable_claims_serialise_by_type(self, claim):
        params = raw_params()
        honest = honest_prover(skewed_dist(), params)
        prover = ScriptedProver(
            {"histogram": honest.produce_histogram(), "sets": honest.produce_sets,
             "probability": claim}
        )
        tr = run_protocol(params, prover, rng=random.Random(0))
        shown = json.loads(tr.to_json())["messages"][-1]
        assert shown == {"kind": "probability", "p": {"malformed": type(claim).__name__}}
