"""Cheating-prover behavior, checked against the exact oracle."""

import hashlib
import random
from fractions import Fraction

import pytest

from coinpress.adversaries import (
    MixtureProver,
    inflating_prover,
    mixture_realization_exists,
    nonrealizable_table,
    overlapping_sets_prover,
    rejecting_prover,
    soundness_sums_from_table,
    ScriptedProver,
)
from coinpress.dist import ExplicitDistribution
from coinpress.oracle import (
    ExactConfig,
    OracleRun,
    soundness_diagnostics,
    verify_band_sandwich,
    verify_band_sums,
)
from coinpress.hashing import HashFunction, family
from coinpress.protocol import (
    ProtocolParams,
    honest_prover,
    run_protocol,
    validate_histogram_message,
)


def params_n2():
    return ProtocolParams.raw(
        n=2, eps=1.0, delta=0.5, t=4, gap_size=1, interval_size=2, sampling_gap=4.0
    )


def params_n3(sampling_gap=4.0):
    return ProtocolParams.raw(
        n=3, eps=1.0, delta=0.5, t=6, gap_size=1, interval_size=2,
        sampling_gap=sampling_gap,
    )


def two_point_mixture(params, seed=1):
    d0 = ExplicitDistribution.uniform(params.n, [0, (1 << params.n) - 1])
    d1 = ExplicitDistribution.point(params.n, 0)
    return MixtureProver([(Fraction(1, 2), d0), (Fraction(1, 2), d1)], seed, params)


class TestMixtureProver:
    def test_exact_three_quarters_marginal(self):
        params = params_n2()
        run = OracleRun(ExactConfig(params=params, prover=two_point_mixture(params)))
        marginal = run.distribution.element_marginal()
        assert marginal[0b00] == Fraction(3, 4)
        assert marginal[0b11] == Fraction(1, 4)
        # both elements also appear with claimed probability 1/2 and mass 1/4
        by_xp = run.distribution.by_element_probability()
        assert by_xp[(0b00, Fraction(1, 2))] == Fraction(1, 4)
        assert by_xp[(0b11, Fraction(1, 2))] == Fraction(1, 4)

    def test_exact_soundness_sums(self):
        params = params_n2()
        run = OracleRun(ExactConfig(params=params, prover=two_point_mixture(params)))
        sums = run.distribution.soundness_sums()
        assert sums[0b00] == 1  # (1/4)/(1/2) + (1/2)/1
        assert sums[0b11] == Fraction(1, 2)

    def test_singleton_equals_honest(self):
        params = params_n3()
        dist = ExplicitDistribution(
            n=3, mass={0: Fraction(1, 2), 3: Fraction(1, 4), 5: Fraction(1, 4)}
        )
        single = MixtureProver([(Fraction(1), dist)], 7, params)
        mixture_dist = OracleRun(ExactConfig(params=params, prover=single)).distribution
        honest_dist = OracleRun(
            ExactConfig(params=params, prover=honest_prover(dist, params))
        ).distribution
        assert mixture_dist.outputs == honest_dist.outputs
        assert mixture_dist.reject_by_reason == honest_dist.reject_by_reason

    def test_weights_must_not_exceed_one(self):
        params = params_n2()
        d = ExplicitDistribution.point(2, 0)
        with pytest.raises(ValueError):
            MixtureProver([(Fraction(3, 4), d), (Fraction(1, 2), d)], 0, params)

    def test_deterministic_component_sequence(self):
        params = params_n2()
        a = two_point_mixture(params, seed=11)
        b = two_point_mixture(params, seed=11)
        for _ in range(20):
            a.begin_run()
            b.begin_run()
            assert a.produce_histogram() == b.produce_histogram()

    def test_reseeded_matches_fresh_prover(self):
        params = params_n2()
        base = two_point_mixture(params, seed=0)
        twin = base.reseeded(11)
        fresh = two_point_mixture(params, seed=11)
        assert twin.components is base.components
        for _ in range(20):
            twin.begin_run()
            fresh.begin_run()
            assert twin.produce_histogram() == fresh.produce_histogram()

    def test_mc_marginal_matches_oracle(self):
        params = params_n2()
        prover = two_point_mixture(params, seed=5)
        rng = random.Random(5)
        hits = 0
        trials = 4000
        for _ in range(trials):
            out = run_protocol(params, prover, rng=rng).outcome
            hits += out.kind == "output" and out.x == 0
        assert hits / trials == pytest.approx(0.75, abs=0.03)


class TestRejectingProver:
    def test_always_reject(self):
        params = params_n2()
        prover = rejecting_prover(ExplicitDistribution.point(2, 0), Fraction(1), 0, params)
        exact = OracleRun(ExactConfig(params=params, prover=prover)).distribution
        assert exact.reject_mass == 1

    def test_never_reject_is_honest(self):
        params = params_n2()
        dist = ExplicitDistribution.uniform(2, [0, 3])
        prover = rejecting_prover(dist, Fraction(0), 0, params)
        exact = OracleRun(ExactConfig(params=params, prover=prover)).distribution
        honest = OracleRun(
            ExactConfig(params=params, prover=honest_prover(dist, params))
        ).distribution
        assert exact.outputs == honest.outputs

    def test_half_rejection_halves_marginal(self):
        params = params_n2()
        dist = ExplicitDistribution.uniform(2, [0, 3])
        prover = rejecting_prover(dist, Fraction(1, 2), 0, params)
        exact = OracleRun(ExactConfig(params=params, prover=prover)).distribution
        assert exact.reject_mass == Fraction(1, 2)
        assert exact.element_marginal()[0] == Fraction(1, 4)
        assert exact.element_marginal()[3] == Fraction(1, 4)

    def test_rejects_out_of_range_probability(self):
        params = params_n2()
        with pytest.raises(ValueError):
            rejecting_prover(ExplicitDistribution.point(2, 0), Fraction(3, 2), 0, params)


class TestInflatingProver:
    def setup_method(self):
        self.dist = ExplicitDistribution(
            n=3, mass={0: Fraction(1, 2), 3: Fraction(1, 4), 5: Fraction(1, 4)}
        )

    def test_shift_zero_is_honest(self):
        params = params_n3(sampling_gap=0.5)
        infl = inflating_prover(self.dist, 0, params)
        a = OracleRun(ExactConfig(params=params, prover=infl)).distribution
        b = OracleRun(
            ExactConfig(params=params, prover=honest_prover(self.dist, params))
        ).distribution
        assert a.outputs == b.outputs and a.reject_by_reason == b.reject_by_reason

    @pytest.mark.parametrize("shift", [1, 2])
    @pytest.mark.parametrize("sampling_gap", [4.0, 0.5])
    def test_per_shift_sum_bound_holds(self, shift, sampling_gap):
        # the per-shift mass/p bound (1+6*eps)/w(s) holds on these configs
        params = params_n3(sampling_gap=sampling_gap)
        infl = inflating_prover(self.dist, shift, params)
        run = OracleRun(ExactConfig(params=params, prover=infl))
        diag = soundness_diagnostics(run)
        for s, shift_diag in diag.per_shift.items():
            assert shift_diag.sum_bound_ok, (s, shift_diag.sums_above_cutoff)

    @pytest.mark.parametrize("shift", [1, 2])
    def test_structural_checks_hold(self, shift):
        params = params_n3(sampling_gap=0.5)
        infl = inflating_prover(self.dist, shift, params)
        run = OracleRun(ExactConfig(params=params, prover=infl))
        assert verify_band_sandwich(run).ok
        assert verify_band_sums(run).ok

    def test_n4_sets_pinned(self):
        """Every answer over the whole n=4 family, at each challenge the
        verifier can draw; the digest was computed before the per-challenge
        plans and the lazy spare pool."""
        masses = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(1, 8), Fraction(1, 8))
        digest = hashlib.sha256()
        for eps in (1.0, 0.5):
            params = ProtocolParams.raw(
                n=4, eps=eps, delta=0.5, t=8, gap_size=1, interval_size=2, sampling_gap=1.0,
            )
            rng = random.Random(7)
            dist = ExplicitDistribution(n=4, mass=dict(zip(rng.sample(range(16), 5), masses)))
            infl = inflating_prover(dist, 1, params)
            tables, reason = validate_histogram_message(infl.produce_histogram(), params)
            assert reason is None
            for (s, k), ctx in sorted(tables.challenges.items()):
                if ctx.m > params.n:
                    continue
                for a, b, c in family(params.n):
                    f = HashFunction(n=params.n, m=ctx.m, a=a, b=b, c=c)
                    sets = infl.produce_sets(s, k, f, ctx.g, ctx.m)
                    digest.update(repr((s, k, a, b, c, list(sets.items()))).encode())
        assert digest.hexdigest() == "ca27eb0a8c035214a781c19e48aa6d42deca740b23ca33201e1fd3a8ee42ddd9"

    def test_large_shift_rejects_everything(self):
        # shifting past the top band drops all mass: round-1 sum check fires
        params = params_n3()
        infl = inflating_prover(self.dist, 6, params)
        exact = OracleRun(ExactConfig(params=params, prover=infl)).distribution
        assert exact.reject_mass == 1
        assert exact.reject_by_reason == {"histogram-sum": Fraction(1)}


class TestScriptedProver:
    def test_unscripted_rounds_are_garbage(self):
        params = params_n3()
        tr = run_protocol(params, ScriptedProver({}), rng=random.Random(0))
        assert tr.outcome.kind == "reject"
        assert tr.outcome.reason == "malformed-histogram"

    def test_overlapping_sets_caught(self):
        params = params_n3()
        dist = ExplicitDistribution(
            n=3, mass={0: Fraction(1, 2), 3: Fraction(1, 4), 5: Fraction(1, 4)}
        )
        prover = overlapping_sets_prover(dist, params)
        exact = OracleRun(ExactConfig(params=params, prover=prover)).distribution
        assert exact.reject_by_reason.get("check-c", 0) > 0
        assert verify_band_sums(OracleRun(ExactConfig(params=params, prover=prover))).ok

    def test_callable_and_constant_responses(self):
        params = params_n3()
        dist = ExplicitDistribution(
            n=3, mass={0: Fraction(1, 2), 3: Fraction(1, 4), 5: Fraction(1, 4)}
        )
        honest = honest_prover(dist, params)
        scripted = ScriptedProver(
            {
                "histogram": honest.produce_histogram(),
                "sets": lambda s, k, f, g, m: honest.produce_sets(s, k, f, g, m),
                "probability": lambda j, x: dist.prob(x),
            }
        )
        tr = run_protocol(params, scripted, rng=random.Random(1))
        assert tr.outcome.kind == "output"
        assert tr.outcome.p == dist.prob(tr.outcome.x)


class TestNonrealizableTable:
    def test_sums_are_exactly_one(self):
        sums = soundness_sums_from_table(nonrealizable_table())
        assert sums == {"x1": Fraction(1), "x2": Fraction(1)}

    def test_no_mixture_realization(self):
        assert not mixture_realization_exists(nonrealizable_table())

    def test_search_not_vacuous(self):
        # an actual honest-mixture table is recognized as realizable
        realizable = {
            ("x1", Fraction(1, 2)): Fraction(1, 2),
            ("x2", Fraction(1, 2)): Fraction(1, 2),
        }
        assert mixture_realization_exists(realizable)
        partial = {
            ("x1", Fraction(1, 4)): Fraction(1, 8),
            ("x2", Fraction(3, 4)): Fraction(3, 8),
        }
        # the (1/4, 3/4) component with weight 1/2: consistent and feasible
        assert mixture_realization_exists(partial)

    def test_detects_conflicting_cells(self):
        conflict = {
            ("x1", Fraction(1, 2)): Fraction(1, 4),
            ("x2", Fraction(1, 2)): Fraction(1, 2),  # forces a different weight
        }
        assert not mixture_realization_exists(conflict)
