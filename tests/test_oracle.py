"""Exact-enumeration oracle: cross-validation, conservation, diagnostics."""

import array
import dataclasses
import hashlib
import json
import marshal
import math
import random
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coinpress import oracle as oracle_module
from coinpress.adversaries import (
    MixtureProver,
    ScriptedProver,
    inflating_prover,
    overlapping_sets_prover,
)
from coinpress.dist import ExplicitDistribution, pow2
from coinpress.hashing import HashFunction, family
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
    MODE_TRIVIAL,
    HonestProver,
    Outcome,
    ProtocolParams,
    ProverStrategy,
    Transcript,
    check_sets,
    compute_live_bands,
    derive_params,
    finalize,
    honest_prover,
    parse_sets,
    replay,
    run_protocol,
    scale_weights,
    validate_histogram_message,
)
from test_numpy_reference import zero_set_masks
from test_protocol import LyingBand, LyingSetsProver, RekeyedSetsProver, TwinBand


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

    def test_structural_checks_on_a_fallback_run(self):
        """A fallback component places nothing, so both checks report
        nothing checked and no violation, and every placement reads 0,
        without a per-band table: at t = 1,440,000 the t + 1 bands are past
        ``MAX_BANDS``, so any read of the layout raises."""
        for n, eps, t in [(2, 0.9, 40000), (8, 0.1, 1_440_000)]:
            params = derive_params(n, eps, eps)
            assert params.mode == MODE_TRIVIAL and params.t == t
            dist = ExplicitDistribution(n=n, mass={0: Fraction(1, 2), 3: Fraction(1, 2)})
            run = OracleRun(ExactConfig(params=params, prover=honest_prover(dist, params)))
            for check in (verify_band_sandwich, verify_band_sums):
                report = check(run)
                assert report.ok and report_fields(report) == (0, [], [])
            for s, x, j in [(-1, 0, 0), (0, 3, 1), (1, 0, t)]:
                assert run.components[0].placement_probability(s, x, j) == 0

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
        comp = run.components[0]
        assert {s: comp.shift_prob(s) for s in params.layout.shifts} == {
            -1: Fraction(1, 2), 0: Fraction(1, 2), 1: 0,
        }
        for s in (-1, 0):
            assert {k: w for k, w in comp.tables.interval_weights[s].items() if w} == {1: 1}
        assert set(comp.shifts[-1].challenges) == set(comp.shifts[0].challenges) == {1}


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


FRACTIONAL_EPS_PARAMS = raw_params(n=2, t=8, gap_size=2, interval_size=2, sampling_gap=3.0, eps=0.5)
FRACTIONAL_EPS_HONEST = honest_prover(
    ExplicitDistribution(n=2, mass={0: Fraction(1, 2), 3: Fraction(1, 2)}), FRACTIONAL_EPS_PARAMS,
)


def sandwich_reference(run):
    """``verify_band_sandwich`` as the per-cell formula: every bound worked
    out afresh for each (x, band) cell."""
    params = run.params
    eps = params.eps
    lo_factor = pow2_bounds(-2 * eps)
    hi_factor = pow2_bounds(eps)
    violations = []
    indeterminate = []
    checked = 0
    for ci, comp in enumerate(run.components):
        for s, cond in comp.per_shift.items():
            w_s = comp.tables.shift_weights[s]
            mass_by_band = {}
            for (x, j, _p), massv in cond.items():
                mass_by_band[(x, j)] = mass_by_band.get((x, j), Fraction(0)) + massv
            for x in range(1 << params.n):
                for j in range(params.t + 1):
                    checked += 1
                    mass = mass_by_band.get((x, j), Fraction(0))
                    r = comp.placement_probability(s, x, j)
                    band_lo, band_hi = pow2_bounds(j * eps)
                    lower_lo = lo_factor[0] * r / (w_s * band_hi)
                    lower_hi = lo_factor[1] * r / (w_s * band_lo)
                    upper_lo = hi_factor[0] * r / (w_s * band_hi)
                    upper_hi = hi_factor[1] * r / (w_s * band_lo)
                    if mass < lower_lo or mass > upper_hi:
                        violations.append((ci, s, x, j, mass, lower_lo, upper_hi))
                    elif mass < lower_hi or mass > upper_lo:
                        indeterminate.append((ci, s, x, j, mass, lower_hi, upper_lo))
    return checked, violations, indeterminate


def sums_reference(run):
    """``verify_band_sums`` as a dense walk: for every shift, interval and
    x of each component that passes round 1, the placement probabilities
    of x summed over the interval."""
    params = run.params
    layout = params.layout
    violations = []
    checked = 0
    for ci, comp in enumerate(run.components):
        if comp.reject_reason is not None:
            continue
        for s in layout.shifts:
            for k in layout.index_range:
                for x in range(1 << params.n):
                    checked += 1
                    total = sum((comp.placement_probability(s, x, j) for j in layout.interval(s, k)), Fraction(0))
                    if total > 1:
                        violations.append((ci, s, k, x, total))
    return checked, violations, []


def report_fields(report):
    return report.checked, report.violations, report.indeterminate


def move_cell(cond, x, j, mass):
    """Give cell (x, j) of a shift's conditional output masses the total
    ``mass``, through an extra entry."""
    current = sum((v for (y, i, _p), v in cond.items() if (y, i) == (x, j)), Fraction(0))
    cond[(x, j, "moved")] = mass - current


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
        params = FRACTIONAL_EPS_PARAMS
        run = OracleRun(ExactConfig(params=params, prover=FRACTIONAL_EPS_HONEST))
        report = verify_band_sandwich(run)
        assert report.ok and not report.indeterminate

    @pytest.mark.parametrize("cfg", CONFIGS + ["fractional-eps"])
    def test_sandwich_equals_per_cell_formula(self, cfg):
        """The hoisted bounds give the per-cell formula's report, on the
        runs as built and after three cells of one shift are moved: one far
        above its upper bound, one to the middle of its upper bound's
        enclosure, and one that no hash function places."""
        if cfg == "fractional-eps":
            params, provers = FRACTIONAL_EPS_PARAMS, {"honest": FRACTIONAL_EPS_HONEST}
        else:
            params = raw_params(**cfg)
            provers = provers_for(skewed_dist(), params)
        eps = params.eps
        hi_factor = pow2_bounds(eps)
        for name, prover in provers.items():
            run = OracleRun(ExactConfig(params=params, prover=prover))
            assert report_fields(verify_band_sandwich(run)) == sandwich_reference(run), name
            cells = [(x, j) for x in range(1 << params.n) for j in range(params.t + 1)]
            comp, s, placed = next(
                (comp, s, placed)
                for comp in run.components
                for s in comp.per_shift
                if len(placed := [cell for cell in cells if comp.placement_probability(s, *cell) > 0]) > 1
            )
            cond, w_s = comp.per_shift[s], comp.tables.shift_weights[s]
            (x, j), (y, i) = placed[0], placed[-1]
            band_lo, _ = pow2_bounds(j * eps)
            move_cell(cond, x, j, 4 * hi_factor[1] * comp.placement_probability(s, x, j) / (w_s * band_lo))
            band_lo, band_hi = pow2_bounds(i * eps)
            r = comp.placement_probability(s, y, i)
            move_cell(cond, y, i, (hi_factor[0] * r / (w_s * band_hi) + hi_factor[1] * r / (w_s * band_lo)) / 2)
            move_cell(cond, *next(cell for cell in cells if cell not in placed), Fraction(1, 7))
            report = verify_band_sandwich(run)
            assert report_fields(report) == sandwich_reference(run), name
            assert len(report.violations) == 2, name
            # the enclosure of 2**eps has slack only when eps is fractional
            assert len(report.indeterminate) == (eps != int(eps)), name

    @pytest.mark.parametrize("cfg", CONFIGS + ["fractional-eps"])
    def test_sums_equal_dense_walk(self, cfg):
        """The sums over placed cells give the dense walk's report, on the
        runs as built and after one placed cell of one shift is set to 2."""
        if cfg == "fractional-eps":
            params, provers = FRACTIONAL_EPS_PARAMS, {"honest": FRACTIONAL_EPS_HONEST}
        else:
            params = raw_params(**cfg)
            provers = provers_for(skewed_dist(), params)
        for name, prover in provers.items():
            run = OracleRun(ExactConfig(params=params, prover=prover))
            assert report_fields(verify_band_sums(run)) == sums_reference(run), name
            placements = next(
                tables.placements for comp in run.components for tables in comp.shifts.values() if tables.placements
            )
            placements[max(placements)] = Fraction(2)
            report = verify_band_sums(run)
            assert report_fields(report) == sums_reference(run), name
            assert len(report.violations) == 1, name

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

    @pytest.mark.parametrize("n,eps,delta,t", [(2, 0.9, 0.9, 40000), (8, 0.1, 0.5, 1_440_000)])
    def test_fallback_run_refused(self, n, eps, delta, t):
        """A fallback run is refused before any histogram or layout is built:
        at n = 2 the report would be vacuous, and at n = 8 its t exceeds the
        band cap."""
        params = derive_params(n, eps, delta)
        assert params.mode == MODE_TRIVIAL and params.t == t
        dist = ExplicitDistribution(n=n, mass={0: Fraction(1, 2), 3: Fraction(1, 2)})
        run = OracleRun(ExactConfig(params=params, prover=honest_prover(dist, params)))
        with pytest.raises(ValueError, match="fallback"):
            completeness_diagnostics(run, dist)

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


def canonical(obj):
    """obj with every dict as its items sorted by key, every set sorted and
    every dataclass as its class name and fields, so its repr is stable."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            (f.name, canonical(getattr(obj, f.name))) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, dict):
        return [(k, canonical(v)) for k, v in sorted(obj.items())]
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return obj


def oracle_profile(eps, sampling_gap=1.0):
    """Everything the structured oracle reports about the four profile
    provers at width 4, in a fixed order."""
    params, provers = profile_provers(eps, sampling_gap=sampling_gap)
    out = []
    for name, prover in provers.items():
        run = OracleRun(ExactConfig(params=params, prover=prover))
        exact = run.distribution
        out.append((name, exact.outputs, exact.reject_by_reason, branches(run)))
        for comp in run.components:
            out.append((comp.reject_reason, comp.shift_total, comp.outputs, comp.rejects, comp.per_shift))
            out.append([
                comp.placement_probability(s, x, j)
                for s in params.layout.shifts
                for x in range(1 << params.n)
                for j in range(params.t + 1)
            ])
        for check in (verify_band_sandwich, verify_band_sums):
            report = check(run)
            out.append((report.checked, report.violations, report.indeterminate))
        out.append([soundness_diagnostics(run, ci) for ci in range(len(run.components))])
        if name == "honest":
            out.append(completeness_diagnostics(run, prover.dist))
    return out


class TestOraclePinned:
    # Per (eps, sampling gap). Gap 1 (every challenge at m = 0) was recorded
    # before the oracle built each component in one pass; gap 0 (m in
    # {0, 1, 2}, many pattern rows per challenge) before it counted pattern
    # weight first and weighed each count once.
    DIGESTS = {
        (1.0, 1.0): "22a1fda11e89aa6cdac50ed2f6d6d4e0765bedc699f9ab8a614f60270d359aa5",
        (0.5, 1.0): "993b6f10cac59045afcb03b6fb3ee8c6f59f06d740c95b4cf664113bb7adbc28",
        (1.0, 0.0): "b0c7880f37d2a95adbd9e82942b49f062aff692449988753f116d93c5fc275c8",
        (0.5, 0.0): "81418e0eb56ecbebbb5e72235d10c8de76d09e749062affc7344734d750fabe1",
    }

    @pytest.mark.parametrize(
        "eps, sampling_gap",
        [pytest.param(eps, gap, id=f"{eps}" + ("-gap0" if gap == 0 else "")) for eps, gap in sorted(DIGESTS)],
    )
    def test_profile_pinned(self, eps, sampling_gap):
        blob = repr(canonical(oracle_profile(eps, sampling_gap))).encode()
        assert hashlib.sha256(blob).hexdigest() == self.DIGESTS[eps, sampling_gap]


class ClaimCounting(FullEnumeration):
    """Delegates to ``inner``, keeps its zero-set flag, and counts the
    probability claims it is asked for per (band, element)."""

    def __init__(self, inner: ProverStrategy):
        super().__init__(inner)
        self.depends_on_hash_zero_set = inner.depends_on_hash_zero_set
        self.claims = Counter()
        self.parts = []

    def produce_probability(self, j, x):
        self.claims[j, x] += 1
        return super().produce_probability(j, x)

    def randomness_support(self):
        self.parts = [(q, ClaimCounting(strat)) for q, strat in self.inner.randomness_support()]
        return self.parts


@pytest.mark.parametrize("eps", [1.0, 0.5])
def test_each_claim_is_asked_once_per_component(eps):
    """Each component is asked for its claim on (band, element) at most
    once, however many pattern rows and shifts list the element; at
    sampling gap 0 challenges hash to m in {0, 1, 2}."""
    params, provers = profile_provers(eps, sampling_gap=0.0)
    for prover in provers.values():
        counting = ClaimCounting(prover)
        run = OracleRun(ExactConfig(params=params, prover=counting))
        reference = OracleRun(ExactConfig(params=params, prover=prover)).distribution
        assert run.distribution.outputs == reference.outputs
        assert run.distribution.reject_by_reason == reference.reject_by_reason
        claims = [part.claims for _q, part in counting.parts]
        assert any(claims) and all(set(c.values()) <= {1} for c in claims)


def patterns_digest(n, m):
    """SHA-256 of the (a, b, c, count) rows of ``HashFamily(n).patterns(m)``."""
    h = hashlib.sha256()
    for f, count in HashFamily(n).patterns(m):
        h.update(f"{f.a},{f.b},{f.c},{count};".encode())
    return h.hexdigest()


# ``patterns_digest`` at every m for n <= 6, recorded before the row masks
# and output planes were computed by nibble tables.
PATTERN_DIGESTS = {
    (1, 0): "ef17d5140354dceded596c2e9f07f108565ff5cc6cd8329824713d8841ee4fe2",
    (1, 1): "4b21e585a7711cd93ee61c18902f7dbe9d28b1762d60b3dc458102b3b937c8ad",
    (2, 0): "9b8f2ca17a2c7da94590efa68e722d51ea954f15e90fa600ab5f32132f089364",
    (2, 1): "1adcb12d7ee023906221608f1e11024ab4d7d39544eddaea6ef01b9990851c0c",
    (2, 2): "ea9534541ae6eaffc3a55c57d9be89d1cbc6dc6c5f44d5c8977692ea6695c563",
    (3, 0): "f7e904c7ded3a5057de60fba5f337a136a443a35ab259bf39e5aeeecd92a0a6f",
    (3, 1): "08ac2af7a34f1ac9d7483e72adbdc82ee25611b4880e2e0f40cce788d6757bed",
    (3, 2): "68781051577da2c2a3e5f826df227bce71b064bd60db7b74e3c3d7355f1c0856",
    (3, 3): "f55029c6436e056e8e56ab51ae9f0fc9d4adb0958211838423c902603f8fc88e",
    (4, 0): "1403b2d08ab8ee93a5b318b33e79cec4fec691a6614f3bdab3a38d569ca863e6",
    (4, 1): "dc08bc83f3bc40ce6580b275637ddf23c470b5a4a96046c39b37728a668246fa",
    (4, 2): "fa80487954957058ca13795553c94056344f8c2cfa96150a0b4be32c4b284cfd",
    (4, 3): "957c7709af0d1c6614b85a561d9c40019248ad9327275ebd0bea658667418f24",
    (4, 4): "49cfcd847532249f5ce6cad83eca9c6cc2e70ab6f5e00a273f1a6a846ac836c1",
    (5, 0): "36539e1d45e186c000b0a695afb671ff4de7d7af934c8720dd4c5fb2434665e4",
    (5, 1): "c401b49d55de533845149405dd1070f6bcaaab193b8964cb3bc6a3666a340e60",
    (5, 2): "e195aeb684bf144ba7aeb0bd551c72eb146c92ced2d772d55c635677699b07a4",
    (5, 3): "91126bffce237854b8383dd19c818dfe68fa52c7addd65040c02be0d6248ad57",
    (5, 4): "57828024d5d15cfb7f1ec3c0f1e4d3667e83ba08af5abaaaed2128b9368a16cb",
    (5, 5): "d40e5b74c9260d8275535eb061823af44d0719b2d800f73251de20ac3fbefcf9",
    (6, 0): "5a13ea0f2916eda00c2dde0bb7b84b6da1d9b5c3bccccea5d53f584557a63bab",
    (6, 1): "5e3c24c89790081121d50eec50a3be8609e830f3a1f7557d3f9b79e810411f05",
    (6, 2): "d28d624edf9ab5639f448145dbcb10b22283abc7f383f2e1c2039a8e98e5040b",
    (6, 3): "dad611f6cc0161422c08d2afa8ee935b1f3ddf5b3675d0b0a70d93e5c86f11c1",
    (6, 4): "92ed160e307fdade1981e241bd9bf81d8e2b86dbefc9d5c1d8d9669e3e8d3ba5",
    (6, 5): "6efb20fdf614028feed222cc6b9499e7dcc9aa969f9e271635ce6bb891fbbe1a",
    (6, 6): "f3b3859b57e073983db32bb74aded948f47baa29a73d00f46f5e57a9520723f9",
}


class TestZeroSetPatterns:
    @pytest.mark.parametrize("n, m", sorted(PATTERN_DIGESTS))
    def test_patterns_pinned(self, n, m):
        assert patterns_digest(n, m) == PATTERN_DIGESTS[n, m]

    @pytest.mark.slow
    def test_patterns_pinned_n8_m3(self):
        assert patterns_digest(8, 3) == "16bb58ad5c5258b146dc4d06b1aa1bf7a4139f8fe12f71e9e34c2865071abc66"

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_patterns_equal_unique_mask_reference(self, n):
        # The reference groups the uint64 zero-set masks of all 8**n members
        # with np.unique: first member in family order, and the group size.
        size = 1 << n
        for m in range(n + 1):
            _masks, first, counts = np.unique(
                zero_set_masks(n, m), return_index=True, return_counts=True
            )
            order = np.argsort(first)
            expected = [
                ((idx // (size * size), idx // size % size, idx % size), count)
                for idx, count in zip(first[order].tolist(), counts[order].tolist())
            ]
            rows = HashFamily(n).patterns(m)
            assert [((f.a, f.b, f.c), count) for f, count in rows] == expected
            assert all(f.m == m for f, _count in rows)

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
        """A callable sets answer may read all of f, so the oracle asks it
        about every function; a constant one reads nothing of f and is
        asked once per zero set."""
        params = raw_params(sampling_gap=1.0)
        honest = honest_prover(skewed_dist(), params)
        # the honest answer under one m = 0 hash: it passes wherever m = 0
        constant = honest.produce_sets(0, 1, HashFunction(n=3, m=0, a=0, b=0, c=0), 1.0, 0)
        for answer in (honest.produce_sets, constant):
            scripted = ScriptedProver(
                {
                    "histogram": honest.produce_histogram(),
                    "sets": answer,
                    "probability": honest.produce_probability,
                }
            )
            run = OracleRun(ExactConfig(params=params, prover=scripted))
            full = OracleRun(ExactConfig(params=params, prover=FullEnumeration(scripted)))
            assert branches(full) and all(rows == 8**3 for rows in branches(full))
            assert run.distribution.outputs == full.distribution.outputs
            assert run.distribution.reject_by_reason == full.distribution.reject_by_reason
            if answer is constant:
                assert scripted.depends_on_hash_zero_set
                assert sum(branches(run)) < sum(branches(full))
                assert run.distribution.outputs
                assert_oracles_agree(params, scripted)
            else:
                assert not scripted.depends_on_hash_zero_set
                assert branches(run) == branches(full)
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
    @pytest.mark.parametrize(
        "name, sampling_gap",
        [
            pytest.param(name, gap, id=name + ("-gap0" if gap == 0 else ""))
            for gap in (1.0, 0.0)
            for name in ("honest", "mixture", "inflating", "overlapping")
        ],
    )
    def test_structured_equals_flat_at_n5(self, name, sampling_gap):
        params, provers = profile_provers(1.0, n=5, sampling_gap=sampling_gap)
        prover = provers[name]
        run = OracleRun(ExactConfig(params=params, prover=prover))
        exact = run.distribution
        flat_out, flat_rej = exact_output_distribution_flat(params, prover)
        assert exact.outputs == flat_out and exact.reject_mass == flat_rej
        assert exact.total_mass() == 1
        sandwich = verify_band_sandwich(run)
        assert not sandwich.violations and not sandwich.indeterminate
        assert not verify_band_sums(run).violations

    @pytest.mark.parametrize(
        "params",
        [
            ProtocolParams.raw(n=7, eps=1.0, delta=0.5, t=14, gap_size=1, interval_size=2),
            # n = 6 is enumerable, but 3 shifts * 2001 intervals * 8**6 is past the budget
            ProtocolParams.raw(n=6, eps=1.0, delta=0.5, t=6000, gap_size=1, interval_size=2),
        ],
        ids=["width", "budget"],
    )
    def test_flat_refuses_what_the_config_refuses(self, params):
        """The flat enumerator applies ``ExactConfig``'s width and budget
        rule before it asks the prover anything, its support included."""
        dist = ExplicitDistribution.point(params.n, 0)
        asked = []
        prover = CallLog(honest_prover(dist, params), asked)
        with pytest.raises(EnumerationBudgetError):
            ExactConfig(params=params, prover=prover)
        with pytest.raises(EnumerationBudgetError):
            exact_output_distribution_flat(params, prover)
        assert asked == []

    def test_substituted_claim_is_a_tagged_real_in_both(self):
        """Band 3 at eps 1/2 has the upper end 2**-1.5, which no Fraction
        holds: a claim outside the band is replaced by that double, by the
        flat reference's own substitution as by ``finalize``."""
        dist = ExplicitDistribution(n=3, mass={0: Fraction(1, 2), 3: Fraction(3, 10), 5: Fraction(1, 5)})
        params = ProtocolParams.raw(n=3, eps=0.5, delta=0.5, t=12, gap_size=1, interval_size=2, sampling_gap=1.0)
        honest = honest_prover(dist, params)
        prover = ScriptedProver(
            {"histogram": honest.produce_histogram(), "sets": honest.produce_sets, "probability": Fraction(1)}
        )
        exact = assert_oracles_agree(params, prover)
        assert exact.outputs == {
            (0, 2, Fraction(1, 2)): Fraction(1, 2),
            (3, 3, 2.0**-1.5): Fraction(3, 10),
            (5, 4, Fraction(1, 4)): Fraction(1, 5),
        }

    def test_sets_past_the_cap_are_oversize_in_both(self):
        """With a set cap of 1, every challenge whose interval holds both
        bands 1 and 2 asks for three elements: oversize, by the flat
        reference's own size check as by the verifier's."""
        params = ProtocolParams.raw(
            n=3, eps=1.0, delta=0.5, t=6, gap_size=1, interval_size=2, sampling_gap=4.0, set_cap=1
        )
        exact = assert_oracles_agree(params, honest_prover(skewed_dist(), params))
        assert exact.reject_by_reason == {"oversize": Fraction(3, 4)}
        assert exact.reject_mass == Fraction(3, 4)

    def test_flat_refuses_a_support_that_does_not_sum_to_one(self):
        """A support of total weight 1/2 is refused by both enumerators."""
        params = raw_params()
        prover = HalfSupport(honest_prover(skewed_dist(), params))
        with pytest.raises(ValueError, match="sum to 1/2"):
            OracleRun(ExactConfig(params=params, prover=prover))
        with pytest.raises(ValueError, match="sum to 1/2"):
            exact_output_distribution_flat(params, prover)


class CallLog(FullEnumeration):
    """Delegates to ``inner`` and logs the name of every method called."""

    def __init__(self, inner: ProverStrategy, log: list):
        super().__init__(inner)
        self.log = log

    def __getattribute__(self, name):
        if name.startswith("produce_") or name == "randomness_support":
            object.__getattribute__(self, "log").append(name)
        return object.__getattribute__(self, name)


class HalfSupport(FullEnumeration):
    """Plays ``inner`` but declares itself with probability 1/2 only."""

    def randomness_support(self):
        return [(Fraction(1, 2), self)]


class IntLike(int):
    """An int subclass; every check reads it as the int it equals."""


def retyped(sets, kind):
    """The sets with the first element of the first non-empty band replaced
    by an equal value of another type: a float, or a bool where it is 0 or
    1 and else an ``IntLike``."""
    out = {i: list(xs) for i, xs in sets.items()}
    for xs in out.values():
        if xs:
            x = xs[0]
            xs[0] = float(x) if kind == "float" else bool(x) if x in (0, 1) else IntLike(x)
            break
    return out


class TestFlatAnswerMemo:
    """The flat enumerator checks each distinct answer once per challenge
    and zero set: equal answers of other element types, and one answer sent
    under different zero sets, must each still be checked on their own."""

    @pytest.mark.parametrize("sampling_gap", [0.5, -1.0])
    def test_memo_keys_by_type_and_zero_set(self, sampling_gap):
        params = raw_params(sampling_gap=sampling_gap)
        honest = honest_prover(skewed_dist(), params)

        def sets(s, k, f, g, m):
            variant = f.c % 4
            if variant == 1:  # the answer for c ^ 1, another zero set when m > 0
                f = HashFunction(n=f.n, m=f.m, a=f.a, b=f.b, c=f.c ^ 1)
            answer = honest.produce_sets(s, k, f, g, m)
            if variant == 2:  # same zero set as c - 2, whose answer it equals
                return retyped(answer, "float")
            if variant == 3:
                return retyped(answer, "int")
            return answer

        prover = ScriptedProver(
            {"histogram": honest.produce_histogram(), "sets": sets, "probability": honest.produce_probability}
        )
        assert not prover.depends_on_hash_zero_set
        exact = assert_oracles_agree(params, prover)
        assert exact.reject_by_reason["malformed-sets"] > 0  # the floats
        assert exact.reject_by_reason["check-a"] > 0  # the answers of another zero set

    def test_flat_ignores_the_zero_set_flag(self):
        """A prover that declares the zero-set contract but answers {} for
        members with c >= 2**m: the structured oracle asks only the first
        member of each zero set, c < 2**m, and sees the honest prover; the
        flat one asks every member and rejects the rest."""
        params = raw_params(sampling_gap=0.5)
        honest = honest_prover(skewed_dist(), params)
        prover = ScriptedProver(
            {
                "histogram": honest.produce_histogram(),
                "sets": lambda s, k, f, g, m: honest.produce_sets(s, k, f, g, m) if f.c < 2**m else {},
                "probability": honest.produce_probability,
            }
        )
        prover.depends_on_hash_zero_set = True
        exact = exact_output_distribution(ExactConfig(params=params, prover=prover))
        assert exact == exact_output_distribution(ExactConfig(params=params, prover=honest))
        flat_out, flat_rej = exact_output_distribution_flat(params, prover)
        assert (flat_out, flat_rej) != (exact.outputs, exact.reject_mass)
        assert flat_rej > exact.reject_mass

    def test_answers_are_snapshotted_when_returned(self):
        """A prover that returns one dict and rewrites it in place on every
        call: the flat enumerator must tally what each call returned, not
        what the dict holds later."""
        params = raw_params(sampling_gap=0.5)
        honest = honest_prover(skewed_dist(), params)
        shared = {}

        def sets(s, k, f, g, m):
            shared.clear()
            shared.update(honest.produce_sets(s, k, f, g, m))
            return shared

        prover = ScriptedProver(
            {"histogram": honest.produce_histogram(), "sets": sets, "probability": honest.produce_probability}
        )
        assert assert_oracles_agree(params, prover) == exact_output_distribution(
            ExactConfig(params=params, prover=honest)
        )

    @pytest.mark.parametrize("kind", ["int-like", "mapping", "generator", "self-referential", "array"])
    def test_unmarshallable_answers_are_checked_on_their_own(self, kind):
        """Answers marshal refuses (an int subclass, a non-dict mapping, a
        one-shot generator, a self-referential list) or would flatten to
        bytes (an array of machine ints) are read and checked when they are
        returned. Every other member gets the honest answer in a plain dict.
        The first three kinds and the array hold the honest sets, so the
        masses are the honest prover's; the self-referential list is
        malformed."""
        params = raw_params(sampling_gap=0.5)
        honest = honest_prover(skewed_dist(), params)
        shared = {}  # behind the read-only mapping, rewritten on every call

        def sets(s, k, f, g, m):
            answer = honest.produce_sets(s, k, f, g, m)
            if f.c % 2 == 0 or not answer:
                return answer
            band = next(iter(answer))
            if kind == "int-like":
                answer[band] = [IntLike(x) for x in answer[band]]
            elif kind == "mapping":
                shared.clear()
                shared.update(answer)
                return MappingProxyType(shared)
            elif kind == "generator":
                answer[band] = (x for x in answer[band])
            elif kind == "self-referential":
                answer[band].append(answer[band])
            else:
                answer[band] = array.array("q", answer[band])
            return answer

        prover = ScriptedProver(
            {"histogram": honest.produce_histogram(), "sets": sets, "probability": honest.produce_probability}
        )
        exact = assert_oracles_agree(params, prover)
        if kind == "self-referential":
            assert exact.reject_by_reason["malformed-sets"] > 0
        else:
            assert exact == exact_output_distribution(ExactConfig(params=params, prover=honest))


class RecordingProver(FullEnumeration):
    """A deterministic prover that records every sets query, in order, as
    (s, k, m, a, b, c)."""

    def __init__(self, inner: ProverStrategy):
        super().__init__(inner)
        self.calls = []

    def produce_sets(self, s, k, f, g, m):
        self.calls.append((s, k, m, f.a, f.b, f.c))
        return super().produce_sets(s, k, f, g, m)

    def randomness_support(self):
        return [(Fraction(1), self)]


def abc_sets_prover(honest, shared):
    """The honest prover, except that its sets depend on the member (a, b, c)
    asked about, by (a + 3b + 5c) % 4: the honest answer; a band's first
    element swapped for an element no set holds; every set emptied; or one
    band's first element copied into another band. With ``shared`` every
    answer is written into one dict, rewritten on every call."""
    n = honest.params.n
    out = {}

    def sets(s, k, f, g, m):
        answer = honest.produce_sets(s, k, f, g, m)
        held = {x for xs in answer.values() for x in xs}
        variant = (f.a + 3 * f.b + 5 * f.c) % 4
        full = [i for i, xs in answer.items() if xs]
        if variant == 1 and full:
            answer[full[-1]][0] = min(x for x in range(1 << n) if x not in held)
        elif variant == 2:
            answer = {i: [] for i in answer}
        elif variant == 3 and full and len(answer) > 1:
            donor = answer[full[0]][0]
            answer[next(i for i in answer if i != full[0])].append(donor)
        if not shared:
            return answer
        out.clear()
        out.update(answer)
        return out

    return ScriptedProver(
        {"histogram": honest.produce_histogram(), "sets": sets, "probability": honest.produce_probability}
    )


def per_ab_reference(params, prover):
    """Output masses and reject masses by reason of a deterministic prover,
    tallied per (a, b): each answer is read (``parse_sets``) when it is
    returned and checked by the engine's ``check_sets``, and the outcomes
    of one (a, b) are counted and turned into masses before the next."""
    tables, reason = validate_histogram_message(prover.produce_histogram(), params)
    assert reason is None
    n, size = params.n, 1 << params.n
    total = sum(tables.shift_weights.values(), Fraction(0))
    outputs, rejects = Counter(), Counter()
    for (s, k), ctx in tables.challenges.items():
        per_interval = tables.interval_weights[s][k]
        pr_k = per_interval / total
        if ctx.m > n:
            rejects["hash-width"] += pr_k
            continue
        for a in range(size):
            for b in range(size):
                tally = Counter()
                for c in range(size):
                    f = HashFunction(n=n, m=ctx.m, a=a, b=b, c=c)
                    record = parse_sets(prover.produce_sets(s, k, f, ctx.g, ctx.m))
                    sets, why = check_sets(record, f, ctx, params)
                    tally[why or tuple(sorted(sets.items()))] += 1
                for key, count in tally.items():
                    pr_f = pr_k * Fraction(count, size**3)
                    if isinstance(key, str):
                        rejects[key] += pr_f
                        continue
                    sets = dict(key)
                    for j in ctx.interval:
                        if tables.weights[j] == 0:
                            continue
                        pr_j = pr_f * tables.weights[j] / per_interval
                        if j not in ctx.active:
                            rejects["band-not-live"] += pr_j
                        elif not sets[j]:
                            rejects["empty-set"] += pr_j
                        else:
                            for x in sets[j]:
                                p = finalize(j, x, prover.produce_probability(j, x), params).p
                                outputs[(x, j, p)] += pr_j / len(sets[j])
    return dict(outputs), dict(rejects)


class TestFlatSweep:
    """The flat cross-check counts answers per (challenge, zero set) over
    one walk of the family per hash width, for every component at once. It
    still asks every pair once, in family order, and snapshots each answer
    when it is returned."""

    @pytest.mark.parametrize("sampling_gap", [1.0, 0.0], ids=["m-0", "m-0-and-1"])
    def test_asks_every_pair_once_in_family_order(self, sampling_gap):
        params, provers = profile_provers(1.0, sampling_gap=sampling_gap)
        honest = provers["honest"]
        recording = RecordingProver(honest)
        assert exact_output_distribution_flat(params, recording) == (
            exact_output_distribution_flat(params, honest)
        )
        tables, reason = validate_histogram_message(honest.produce_histogram(), params)
        assert reason is None
        by_width = {}  # in the layout order of each width's first challenge
        for (s, k), ctx in tables.challenges.items():
            if ctx.m <= params.n:
                by_width.setdefault(ctx.m, []).append((s, k))
        expected = [
            (s, k, m, a, b, c)
            for m, group in by_width.items()
            for a, b, c in family(params.n)
            for s, k in group
        ]
        assert recording.calls == expected
        assert len(expected) == sum(map(len, by_width.values())) * 8**params.n
        assert (0 in by_width) and (max(by_width) > 0) == (sampling_gap == 0.0)

    @pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared-dict"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_zero_width_answers_that_depend_on_the_member(self, n, shared):
        """At m = 0 a callable prover whose answer depends on (a, b, c), in
        fresh dicts or in one dict rewritten on every call: the structured
        oracle, which asks every member, equals the flat one, and both equal
        a per-(a, b) tally of the engine's own checks."""
        params, provers = profile_provers(1.0, n=n)
        honest = provers["honest"]
        tables, _ = validate_histogram_message(honest.produce_histogram(), params)
        assert {ctx.m for ctx in tables.challenges.values()} == {0}
        prover = abc_sets_prover(honest, shared)
        assert not prover.depends_on_hash_zero_set
        exact = assert_oracles_agree(params, prover)
        outputs, rejects = per_ab_reference(params, prover)
        assert exact.outputs == outputs
        assert exact.reject_by_reason == rejects
        # every variant shows: swapped-in elements, empty sets, overlaps
        assert {x for x, _, _ in outputs} - set(honest.dist.mass)
        assert rejects["check-b"] > 0 and rejects["check-c"] > 0

    @pytest.mark.parametrize("name", ["honest", "inflating"])
    def test_checks_each_distinct_answer_once(self, name, monkeypatch):
        """Each distinct (challenge, zero set, answer snapshot) is checked
        once over the whole walk, at every hash width: the checks run as
        often as a brute-force walk of the family finds such triples."""
        params, provers = profile_provers(1.0, sampling_gap=0.0)
        prover = provers[name]
        checks = Counter()
        check = oracle_module._flat_outcome

        def counted(*args):
            checks["calls"] += 1
            return check(*args)

        monkeypatch.setattr(oracle_module, "_flat_outcome", counted)
        assert_oracles_agree(params, prover)
        n, size = params.n, 1 << params.n
        tables, _ = validate_histogram_message(prover.produce_histogram(), params)
        zero_sets = {}
        triples = set()
        for (s, k), ctx in tables.challenges.items():
            if ctx.m > n:
                continue
            for a, b, c in family(n):
                f = HashFunction(n=n, m=ctx.m, a=a, b=b, c=c)
                if (ctx.m, a, b, c) not in zero_sets:
                    zero_sets[ctx.m, a, b, c] = frozenset(x for x in range(size) if f.eval(x) == 0)
                answer = prover.produce_sets(s, k, f, ctx.g, ctx.m)
                triples.add((s, k, zero_sets[ctx.m, a, b, c], marshal.dumps(answer, 2)))
        widths = {m for m, _, _, _ in zero_sets}
        assert 0 in widths and max(widths) > 0
        assert checks["calls"] == len(triples)

    def test_one_walk_per_width_for_every_component(self, monkeypatch):
        """A mixture of two honest components (and a rejecting one) whose
        challenges share hash widths: the family is walked once per width, each member
        is asked about every component's challenges of that width,
        components in support order, so each component sees each of its
        (s, k) asked 8**n times in family order; structured still equals
        flat."""
        params, provers = profile_provers(1.0, sampling_gap=0.0)
        n = params.n
        log = []
        prover = LoggedMixture(provers["mixture"], log)
        exact = OracleRun(ExactConfig(params=params, prover=prover)).distribution
        log.clear()
        walks = Counter()
        walk = oracle_module.members_sharing_rows

        def counted(n, m, a, b):
            walks[m] += 1
            return walk(n, m, a, b)

        monkeypatch.setattr(oracle_module, "members_sharing_rows", counted)
        flat_out, flat_rej = exact_output_distribution_flat(params, prover)
        assert exact.outputs == flat_out and exact.reject_mass == flat_rej
        by_width = {}  # width -> (component, s, k), in the flat's order
        widths_per_component = []
        for i, (_q, part) in enumerate(prover.randomness_support()):
            tables, reason = validate_histogram_message(part.produce_histogram(), params)
            if reason is not None:
                continue
            widths = set()
            for (s, k), ctx in tables.challenges.items():
                if ctx.m <= n:
                    by_width.setdefault(ctx.m, []).append((i, s, k))
                    widths.add(ctx.m)
            widths_per_component.append(widths)
        assert len(widths_per_component) == 2
        assert 0 in by_width and max(by_width) > 0
        assert sum(map(len, widths_per_component)) > len(by_width)  # a width is shared
        assert walks == {m: 4**n for m in by_width}
        assert log == [
            (i, s, k, m, a, b, c)
            for m, group in by_width.items()
            for a, b, c in family(n)
            for i, s, k in group
        ]
        for i, s, k in (row for group in by_width.values() for row in group):
            asked = [(a, b, c) for j, s2, k2, _m, a, b, c in log if (j, s2, k2) == (i, s, k)]
            assert asked == list(family(n))


class LoggedMixture(ProverStrategy):
    """The support of ``inner``, each strategy wrapped so that its sets
    queries land in one shared log as (component, s, k, m, a, b, c)."""

    def __init__(self, inner: ProverStrategy, log: list):
        self.parts = [
            (q, LoggedComponent(strat, log, i)) for i, (q, strat) in enumerate(inner.randomness_support())
        ]

    def randomness_support(self):
        return self.parts


class LoggedComponent(FullEnumeration):
    def __init__(self, inner: ProverStrategy, log: list, index: int):
        super().__init__(inner)
        self.log, self.index = log, index

    def produce_sets(self, s, k, f, g, m):
        self.log.append((self.index, s, k, m, f.a, f.b, f.c))
        return super().produce_sets(s, k, f, g, m)


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


class TestHashWidthOverflow:
    # Band 1100 has 2.0 ** 1100, past the largest double, so the float
    # band-mass sum of any interval holding it overflows.
    PARAMS = ProtocolParams.raw(n=3, eps=1.0, delta=0.5, t=1100)
    HISTOGRAMS = {
        "top-band": [0] * 1100 + [1],
        "split": [0, Fraction(1, 2)] + [0] * 1098 + [Fraction(1, 2)],
    }

    @pytest.mark.parametrize("name", sorted(HISTOGRAMS))
    def test_run_replay_and_oracles_reject_hash_width(self, name):
        params = self.PARAMS
        prover = ScriptedProver(
            {
                "histogram": self.HISTOGRAMS[name],
                "sets": lambda s, k, f, g, m: {1: [0]} if 1 in params.layout.interval(s, k) else {},
                "probability": Fraction(1, 2),
            }
        )
        reasons = set()
        for seed in range(8):
            tr = run_protocol(params, prover, rng=random.Random(seed))
            assert replay(params, prover, tr).to_json() == tr.to_json()
            reasons.add(tr.outcome.reason)
        assert "hash-width" in reasons
        exact = assert_oracles_agree(params, prover)
        if name == "top-band":
            assert exact.reject_by_reason == {"hash-width": Fraction(1)}
        else:
            assert 0 < exact.reject_by_reason["hash-width"] < 1

    def test_check_b_window_overflow_rejects_check_b(self):
        """At sampling gap 1100 the top band hashes to m = 0, and its check
        (b) window, 2.0 ** 1100 times the band mass, is past the largest
        double: the window is empty and every run rejects check-b."""
        params = ProtocolParams.raw(n=3, eps=1.0, delta=0.5, t=1100, sampling_gap=1100.0)
        prover = ScriptedProver(
            {
                "histogram": self.HISTOGRAMS["top-band"],
                "sets": lambda s, k, f, g, m: {1100: [0]} if 1100 in params.layout.interval(s, k) else {},
                "probability": Fraction(1, 2),
            }
        )
        for seed in range(4):
            tr = run_protocol(params, prover, rng=random.Random(seed))
            assert tr.outcome.reason == "check-b"
            assert replay(params, prover, tr).to_json() == tr.to_json()
        exact = assert_oracles_agree(params, prover)
        assert exact.reject_by_reason == {"check-b": Fraction(1)}

    def test_live_band_after_an_overflowed_sum_has_an_empty_window(self):
        """Band 1024 is below the live threshold (1/2060), but its 2**1024
        overflows the interval's band-mass sum to inf, so live band 1022's
        check (b) window is (0.0, 0.0): empty sets pass check (b) there and
        the run rejects empty-set when it draws that band."""
        params = ProtocolParams.raw(
            n=3, eps=1.0, delta=0.5, t=1030, gap_size=1, interval_size=4, sampling_gap=1019.0
        )
        weights = [Fraction(0)] * 1031
        weights[1022], weights[1024] = Fraction(1, 2), Fraction(1, 10000)
        weights[1] = 1 - weights[1022] - weights[1024]
        weights = tuple(weights)
        tables, reason = validate_histogram_message(weights, params)
        assert reason is None
        prover = ScriptedProver(
            {
                "histogram": weights,
                "sets": lambda s, k, f, g, m: {i: [] for i in tables.challenges[s, k].active},
                "probability": Fraction(1, 2),
            }
        )
        exact = assert_oracles_agree(params, prover)
        assert exact.reject_by_reason == {
            "check-b": Fraction(7499, 10000),
            "band-not-live": Fraction(1, 10000),
            "empty-set": Fraction(1, 4),
        }
        reasons = Counter(run_protocol(params, prover, rng=random.Random(seed)).outcome.reason for seed in range(200))
        assert reasons == {"check-b": 153, "empty-set": 47}

    @given(
        st.integers(1, 2048).flatmap(
            lambda t: st.tuples(
                st.just(t),
                st.dictionaries(st.integers(0, t), st.integers(1, 4), min_size=1, max_size=3),
            )
        ),
        st.floats(2**-30, 1),
        st.floats(-8, 2048),
        st.integers(0, 8),
    )
    @example((1100, {1100: 1}), 1.0, 1100.0, 1)
    @example((2048, {1030: 1, 1023: 2}), 1.0, 1020.0, 1)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_any_histogram_at_any_sampling_gap_ends_in_an_outcome(self, histogram, eps, sampling_gap, size):
        """Histograms of length t + 1 for t <= 2048 whose mass may sit in
        bands past 2**1024, at any eps and sampling gaps up to 2048: every
        run ends in an Outcome. The prover sends the first ``size`` inputs
        for each live band of the challenge. (eps stays above 2**-30: near
        the smallest doubles ``ProtocolParams.raw`` cannot size the gap from
        the user's eps, which is no prover message.)"""
        t, parts = histogram
        params = ProtocolParams.raw(n=3, eps=eps, delta=0.5, t=t, sampling_gap=sampling_gap)
        total = sum(parts.values())
        weights = [Fraction(parts.get(i, 0), total) for i in range(t + 1)]
        live = compute_live_bands(weights, params)
        prover = ScriptedProver(
            {
                "histogram": weights,
                "sets": lambda s, k, f, g, m: {
                    i: list(range(size)) for i in params.layout.interval(s, k) if i in live
                },
                "probability": Fraction(1, 2),
            }
        )
        for seed in range(3):
            tr = run_protocol(params, prover, rng=random.Random(seed))
            assert isinstance(tr.outcome, Outcome)
            assert tr.outcome.kind in ("output", "reject")


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
SETS_FUZZ_HONEST = honest_prover(skewed_dist(), SETS_FUZZ_PARAMS)


def one_shot_entries(sets):
    """The sets with each list entry handed over as its own one-shot iterator."""
    return {i: iter(xs) if isinstance(xs, list) else xs for i, xs in sets.items()}


def edited_sets(mutations, wrap):
    """A sets slot that edits the honest sets and hands them over through wrap."""
    def sets(s, k, f, g, m):
        return wrap(apply_sets_mutations(SETS_FUZZ_HONEST.produce_sets(s, k, f, g, m), mutations, f))
    return sets


def sets_values():
    """Arbitrary values for the ScriptedProver sets slot of the n=3
    instance: junk constants, and callables that edit the honest sets
    (missing, extra or bool keys, non-iterable entries, bad elements,
    overlaps, elements outside the zero set) and may hand the result over
    as a dict, a read-only mapping, a list, or a dict whose set entries are
    one-shot iterators."""
    junk = st.one_of(
        st.none(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
        st.lists(st.lists(st.integers(0, 7), max_size=3), max_size=3),
        st.dictionaries(st.integers(0, 6), st.lists(set_elements(), max_size=3), max_size=3),
    )
    wraps = st.sampled_from(
        [dict, dict, MappingProxyType, lambda d: list(d.values()), one_shot_entries]
    )
    edited = st.builds(edited_sets, sets_mutations(), wraps)
    # one_of would flatten junk's branches and draw an edit one time in seven
    return st.booleans().flatmap(lambda edit: edited if edit else junk)


class TestSetsIntakeFuzz:
    @given(sets_values())
    # One-shot entries holding an element outside [0, 8): the oracles give
    # malformed-sets all the mass, while a verifier that read the spent
    # iterators a second time would see empty sets and reject check-b.
    @example(edited_sets([("add", 0, 8)], one_shot_entries))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_sets_message_ends_in_an_outcome(self, sets):
        """The verifier and both oracles are total over the sets slot and
        agree exactly on what every message is worth, and every seeded run
        ends in an outcome the oracles give positive mass."""
        params = SETS_FUZZ_PARAMS
        prover = scripted_sets_prover(params, sets)
        exact = assert_oracles_agree(params, prover)
        for seed in range(3):
            tr = run_protocol(params, prover, rng=random.Random(seed))
            assert isinstance(tr.outcome, Outcome)
            assert tr.outcome.kind in ("output", "reject")
            assert replay(params, prover, tr).to_json() == tr.to_json()
            out = tr.outcome
            if out.kind == "output":
                assert exact.outputs.get((out.x, out.band, out.p), 0) > 0
            else:
                assert exact.reject_by_reason.get(out.reason, 0) > 0


def checked_edits():
    """Edits of the honest sets that keep the message well formed: ``pos``
    picks a band by position, and each band stays a list of distinct
    elements of [0, 8)."""
    ops = st.sampled_from(["reorder", "outside", "empty", "grow", "share"])
    return st.lists(st.tuples(ops, st.integers(0, 3)), max_size=2)


def apply_checked_edits(honest_sets, edits, f):
    out = {i: list(xs) for i, xs in honest_sets.items()}
    size = 1 << SETS_FUZZ_PARAMS.n
    for op, pos in edits:
        if not out:
            break
        keys = list(out)
        band = keys[pos % len(keys)]
        held = {x for xs in out.values() for x in xs}
        if op == "reorder":
            out[band].reverse()
        elif op == "outside":  # in place of the first element; none at m = 0
            out[band][:1] = [x for x in range(size) if f.eval(x) != 0][:1]
        elif op == "empty":
            out[band].clear()
        elif op == "grow":  # pos + 1 more zero-set elements that no set holds
            out[band].extend([x for x in range(size) if f.eval(x) == 0 and x not in held][: pos + 1])
        elif op == "share":  # an element another band holds
            out[band].extend([x for i in keys if i != band for x in out[i] if x not in out[band]][:1])
    return out


class TestSetsEditFuzz:
    def test_edited_honest_answers_reach_every_check(self):
        """Well-formed edits of the honest sets get past the shape checks, so
        seeded runs end in check (a), (b), (c) rejects and in outputs; the
        oracles agree on each message and give each run's outcome positive
        mass."""
        params = SETS_FUZZ_PARAMS
        reached = Counter()

        @given(checked_edits())
        @settings(
            max_examples=60, deadline=None, derandomize=True, database=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        def run(edits):
            def sets(s, k, f, g, m):
                return apply_checked_edits(SETS_FUZZ_HONEST.produce_sets(s, k, f, g, m), edits, f)

            prover = scripted_sets_prover(params, sets)
            exact = assert_oracles_agree(params, prover)
            for seed in range(4):
                tr = run_protocol(params, prover, rng=random.Random(seed))
                assert replay(params, prover, tr).to_json() == tr.to_json()
                out = tr.outcome
                if out.kind == "output":
                    assert exact.outputs.get((out.x, out.band, out.p), 0) > 0
                else:
                    assert exact.reject_by_reason.get(out.reason, 0) > 0
                reached[out.reason or out.kind] += 1

        run()
        assert {"output", "check-a", "check-b", "check-c"} <= reached.keys(), reached
        assert "malformed-sets" not in reached


class TestIntSubclassSets:
    @pytest.mark.parametrize("extra", [(), (8,), (-1,)])
    def test_oracles_read_exact_values(self, extra):
        """Set elements handed over as an int subclass whose operators lie or
        raise are worth exactly what their exact values are worth, in both
        oracles, and in range they are worth what the honest sets are."""
        params = SETS_FUZZ_PARAMS
        lying = LyingSetsProver(SETS_FUZZ_HONEST, extra)

        def exact_sets(s, k, f, g, m):
            sets = SETS_FUZZ_HONEST.produce_sets(s, k, f, g, m)
            return {i: xs + list(extra) if i == min(sets) else xs for i, xs in sets.items()}

        exact = assert_oracles_agree(params, scripted_sets_prover(params, lying.produce_sets))
        reference = assert_oracles_agree(params, scripted_sets_prover(params, exact_sets))
        assert exact.outputs == reference.outputs
        assert exact.reject_by_reason == reference.reject_by_reason
        if extra:
            assert exact.reject_by_reason["malformed-sets"] > 0
        else:
            assert exact.outputs == OracleRun(
                ExactConfig(params=params, prover=SETS_FUZZ_HONEST)
            ).distribution.outputs


    def test_oracles_read_exact_bands(self):
        """Band keys whose comparisons raise are worth what the exact bands
        are worth, in both oracles."""
        params = SETS_FUZZ_PARAMS
        lying = RekeyedSetsProver(SETS_FUZZ_HONEST, band=LyingBand)
        exact = assert_oracles_agree(params, scripted_sets_prover(params, lying.produce_sets))
        assert exact.outputs == OracleRun(
            ExactConfig(params=params, prover=SETS_FUZZ_HONEST)
        ).distribution.outputs

    def test_two_bands_of_one_value_are_malformed_in_both_oracles(self):
        def twins(s, k, f, g, m):
            sets = SETS_FUZZ_HONEST.produce_sets(s, k, f, g, m)
            return {**sets, TwinBand(min(sets)): sets[min(sets)]} if sets else sets

        exact = assert_oracles_agree(SETS_FUZZ_PARAMS, scripted_sets_prover(SETS_FUZZ_PARAMS, twins))
        assert exact.reject_by_reason["malformed-sets"] > 0


def _refuse(self, *args):
    raise AssertionError("the verifier ran a method of a prover's number")


# The methods a verifier could run on a number: comparisons, hashing,
# arithmetic, conversions, formatting and the rational parts.
_NUMBER_METHODS = (
    "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__", "__hash__", "__bool__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__neg__", "__abs__",
    "__rshift__", "__and__", "__index__", "__int__", "__float__", "__format__",
    "__repr__", "__str__",
)


def _hostile(base):
    body = {name: _refuse for name in _NUMBER_METHODS}
    body["numerator"] = body["denominator"] = body["real"] = property(_refuse)
    return type(f"Hostile{base.__name__.title()}", (base,), body)


HostileInt, HostileFraction, HostileFloat = _hostile(int), _hostile(Fraction), _hostile(float)


def hostile(p):
    """p handed over as a number whose every method raises: a Fraction as a
    ``HostileFraction``, an integral one as a ``HostileInt``."""
    p = Fraction(p)
    if p.denominator == 1:
        return HostileInt(p.numerator)
    return HostileFraction(p.numerator, p.denominator)


class NumbersProver(HonestProver):
    """Honest play, with the numbers of one message (``histogram``,
    ``probability`` or ``table``) passed through ``wrap``; a table's
    elements become ``HostileInt``s when wrap is ``hostile``."""

    def __init__(self, dist, params, message, wrap):
        super().__init__(dist, params)
        self.message, self.wrap = message, wrap

    def produce_histogram(self):
        weights = super().produce_histogram()
        return [self.wrap(w) for w in weights] if self.message == "histogram" else weights

    def produce_probability(self, j, x):
        p = super().produce_probability(j, x)
        return self.wrap(p) if self.message == "probability" else p

    def produce_table(self):
        table = super().produce_table()
        if self.message != "table":
            return table
        element = HostileInt if self.wrap is hostile else int
        return [(element(x), self.wrap(p)) for x, p in table]


def _identity(p):
    return p


class TestHostileNumbers:
    """A number a prover sends, an int or Fraction subclass whose every
    method raises, is read by its exact value: no prover code runs, the run
    and its transcript are those of the exact number, and both oracles
    agree."""

    def check(self, params, dist, message, wrap=hostile, plain=_identity):
        prover = NumbersProver(dist, params, message, wrap)
        reference = NumbersProver(dist, params, message, plain)
        for seed in range(4):
            tr = run_protocol(params, prover, rng=random.Random(seed))
            assert tr.to_json() == run_protocol(params, reference, rng=random.Random(seed)).to_json()
            assert replay(params, prover, tr).to_json() == tr.to_json()
        exact = assert_oracles_agree(params, prover)
        assert exact.outputs == OracleRun(ExactConfig(params=params, prover=reference)).distribution.outputs

    def test_histogram_entries(self):
        self.check(SETS_FUZZ_PARAMS, skewed_dist(), "histogram")

    @pytest.mark.parametrize("wrap, plain", [(hostile, _identity), (HostileFloat, float)])
    def test_probability_claims(self, wrap, plain):
        """A claim is worth its exact value; a float subclass claim, which is
        substituted, renders as the exact float does."""
        self.check(SETS_FUZZ_PARAMS, skewed_dist(), "probability", wrap, plain)

    def test_fallback_table(self):
        params = derive_params(2, 0.9, 0.9)
        assert params.mode == MODE_TRIVIAL
        dist = ExplicitDistribution(n=2, mass={0: Fraction(1, 2), 1: Fraction(1, 4), 3: Fraction(1, 4)})
        self.check(params, dist, "table")


# Hooks no reader of a prover's message may run. While armed (``_ARMED``
# non-empty) a hook counts its call and raises; otherwise it acts as the
# builtin it replaces, so a failure report can render the objects.
HOOK_CALLS = Counter()
_ARMED = []


def _hook(name, otherwise):
    def hook(*args):
        if not _ARMED:
            return otherwise(*args)
        HOOK_CALLS[name] += 1
        raise RuntimeError(f"the verifier ran {name} of a prover's value")
    return hook


def _raise(*args):
    raise RuntimeError("a prover's container raised")


class _HookedMeta(type):
    """A metaclass whose hashing, equality and name run hooks."""

    __hash__ = _hook("__hash__", type.__hash__)
    __eq__ = _hook("__eq__", type.__eq__)
    __name__ = property(_hook("__name__", type.__dict__["__name__"].__get__))


class MetaHookedInt(int, metaclass=_HookedMeta):
    """An int whose class cannot be hashed, compared or named."""


# A junk object; one of the same name whose __len__ and __iter__ raise; and
# one of the same name whose __class__ and metaclass run hooks.
Junk = type("Junk", (), {})
RaisingJunk = type("Junk", (), {"__len__": _raise, "__iter__": _raise})
HookedJunk = _HookedMeta("Junk", (), {"__class__": property(_hook("__class__", type))})
_CLASS_HOOKED = {}


def class_hooked(value):
    """value as an instance of a subclass of its type whose ``__class__``
    runs a hook."""
    base = type(value)
    if base not in _CLASS_HOOKED:
        hooked = {"__class__": property(_hook("__class__", type))}
        _CLASS_HOOKED[base] = type(f"ClassHooked{base.__name__}", (base,), hooked)
    return _CLASS_HOOKED[base](value)


def _int_or_zero(value):
    return value if type(value) is int else 0


# Hostile objects, each as (hostile, plain): the hostile one stands in for
# the value honest play sends, the plain one is the same message by exact
# values.
HOSTILE_OBJECTS = {
    "raising-len-iter": (lambda v: RaisingJunk(), lambda v: Junk()),
    "class-property": (class_hooked, _identity),
    "hooked-junk": (lambda v: HookedJunk(), lambda v: Junk()),
    "metaclass-hooks": (lambda v: MetaHookedInt(_int_or_zero(v)), _int_or_zero),
}

HOSTILE_POSITIONS = [
    "histogram container", "histogram entry", "sets mapping", "band key", "sets entry",
    "set element", "claim", "table container", "table pair",
]


class OnePositionProver(HonestProver):
    """Honest play, with the value at one position of one message passed
    through ``swap``."""

    def __init__(self, dist, params, position, swap):
        super().__init__(dist, params)
        self.position, self.swap = position, swap

    def produce_histogram(self):
        weights = list(super().produce_histogram())
        if self.position == "histogram container":
            return self.swap(weights)
        if self.position == "histogram entry":
            zero = weights.index(0)
            weights[zero] = self.swap(weights[zero])
        return weights

    def produce_sets(self, s, k, f, g, m):
        sets = super().produce_sets(s, k, f, g, m)
        if self.position == "sets mapping":
            return self.swap(sets)
        if not sets:
            return sets
        band = min(sets)
        if self.position == "band key":
            return {self.swap(i) if i == band else i: xs for i, xs in sets.items()}
        if self.position == "sets entry":
            sets[band] = self.swap(sets[band])
        if self.position == "set element":
            for xs in sets.values():
                if xs:
                    xs[0] = self.swap(xs[0])
                    break
        return sets

    def produce_probability(self, j, x):
        p = super().produce_probability(j, x)
        return self.swap(p) if self.position == "claim" else p

    def produce_table(self):
        table = super().produce_table()
        if self.position == "table container":
            return self.swap(table)
        if self.position == "table pair":
            table[0] = self.swap(table[0])
        return table


class TestHostileMessages:
    """Each position of each message, handed over as an object whose
    container methods raise, one whose ``__class__`` runs a hook, an int
    whose metaclass's hashing, equality and name run hooks, or junk with
    both kinds of hook: every run ends in the outcome, and renders the
    transcript, of the same message by exact values (a typed reject when it
    is malformed), both oracles agree, and no hook runs."""

    @pytest.mark.parametrize("kind", sorted(HOSTILE_OBJECTS))
    @pytest.mark.parametrize("position", HOSTILE_POSITIONS)
    def test_message_ends_in_an_outcome(self, position, kind):
        hostile, plain = HOSTILE_OBJECTS[kind]
        if position.startswith("table"):
            params = derive_params(2, 0.9, 0.9)
            dist = ExplicitDistribution(n=2, mass={0: Fraction(1, 2), 1: Fraction(1, 4), 3: Fraction(1, 4)})
        else:
            params, dist = SETS_FUZZ_PARAMS, skewed_dist()
        prover = OnePositionProver(dist, params, position, hostile)
        reference = OnePositionProver(dist, params, position, plain)
        HOOK_CALLS.clear()
        _ARMED.append(True)
        try:
            runs = [run_protocol(params, prover, rng=random.Random(seed)) for seed in range(4)]
            rendered = [tr.to_json() for tr in runs]
            replayed = [replay(params, prover, tr).to_json() for tr in runs]
            exact = OracleRun(ExactConfig(params=params, prover=prover)).distribution
            flat_outputs, flat_reject = exact_output_distribution_flat(params, prover)
        finally:
            _ARMED.clear()
        assert not HOOK_CALLS
        assert all(isinstance(tr.outcome, Outcome) for tr in runs)
        assert rendered == replayed == [
            run_protocol(params, reference, rng=random.Random(seed)).to_json() for seed in range(4)
        ]
        assert exact.outputs == flat_outputs
        assert exact.reject_mass == flat_reject
        assert exact.total_mass() == 1
        expected = OracleRun(ExactConfig(params=params, prover=reference)).distribution
        assert exact.outputs == expected.outputs
        assert exact.reject_by_reason == expected.reject_by_reason

    def test_transcript_renders_hooked_junk(self):
        """The renderers name a malformed value's type from its slot and
        read an element without ``isinstance``, so junk with hooks renders
        as plain junk, wherever a record can hold it."""
        def rendered(junk):
            messages = [
                ("histogram", (junk,)), ("sets", {0: (junk,)}, 3), ("probability", junk),
            ]
            return Transcript("digest", messages, [], Outcome.reject("malformed-sets")).to_json()

        HOOK_CALLS.clear()
        _ARMED.append(True)
        try:
            hooked = rendered(HookedJunk())
        finally:
            _ARMED.clear()
        assert not HOOK_CALLS
        assert hooked == rendered(Junk())
        assert hooked.count('{"malformed":"Junk"}') == 3


# Set sizes at the edges of check (b)'s window [lo, hi]: just outside it and
# on the first and last integer inside it, before TAU widening.
CHECK_B_EDGES = {
    "below-lo": lambda lo, hi: math.ceil(lo) - 1,
    "lo": lambda lo, hi: math.ceil(lo),
    "hi": lambda lo, hi: math.floor(hi),
    "above-hi": lambda lo, hi: math.floor(hi) + 1,
}


def resized_sets_prover(honest, params, size):
    """The honest prover, except that each set is cut or padded to
    size(lo, hi) elements of the zero set, for its band's window in the
    verifier's compiled tables, as far as the zero set allows. Padding takes
    the smallest zero-set elements that no set holds, so sets stay disjoint
    and inside the zero set."""
    challenges = validate_histogram_message(honest.produce_histogram(), params)[0].challenges

    def sets(s, k, f, g, m):
        out = honest.produce_sets(s, k, f, g, m)
        held = {x for xs in out.values() for x in xs}
        spare = [x for x in range(1 << params.n) if f.eval(x) == 0 and x not in held]
        ctx = challenges[(s, k)]
        for i, (lo, hi) in zip(ctx.active, ctx.windows):
            want = max(0, size(lo, hi))
            xs = out[i][:want]
            pad = spare[: want - len(xs)]
            del spare[: len(pad)]
            out[i] = xs + pad
        return out

    prover = ScriptedProver(
        {"histogram": honest.produce_histogram(), "sets": sets, "probability": honest.produce_probability}
    )
    # The sets read f only through its zero set.
    prover.depends_on_hash_zero_set = True
    return prover


# Band 2 holds 1/4 - 2**-50, so its window's upper edge 8 * (1/4 - 2**-50)
# lies a hair below 2, and a set of 2 passes check (b) only by TAU widening.
TAU_FRINGE_MASS = {0: Fraction(3, 4) + Fraction(1, 2**50), 9: Fraction(1, 4) - Fraction(1, 2**50)}


def check_b_edge_masses(params, honest):
    """Run every CHECK_B_EDGES answer through both oracles and a few seeded
    runs: the structured oracle, which reads the compiled windows, equals
    the flat one, which works them out again, and each run ends in an
    outcome of positive exact mass. Returns the exact distribution per
    edge and the count of run outcome kinds."""
    exact, kinds = {}, Counter()
    for name, size in CHECK_B_EDGES.items():
        prover = resized_sets_prover(honest, params, size)
        exact[name] = assert_oracles_agree(params, prover)
        for seed in range(12):
            out = run_protocol(params, prover, rng=random.Random(seed)).outcome
            kinds[out.reason or out.kind] += 1
            if out.kind == "output":
                assert exact[name].outputs.get((out.x, out.band, out.p), 0) > 0
            else:
                assert exact[name].reject_by_reason.get(out.reason, 0) > 0
    return exact, kinds


class TestCheckBEdges:
    @pytest.mark.parametrize("eps", [1.0, 0.5])
    def test_sizes_at_the_window_edges(self, eps):
        """At n = 4 with hash widths 0 to 2, sets sized just outside and
        just inside check (b)'s window: only check (b) rejects, and both
        check-b and outputs occur."""
        params, provers = profile_provers(eps, sampling_gap=-1.0)
        honest = provers["honest"]
        tables, _ = validate_histogram_message(honest.produce_histogram(), params)
        assert {ctx.m for ctx in tables.challenges.values()} >= {0, 2}
        exact, kinds = check_b_edge_masses(params, honest)
        for name in CHECK_B_EDGES:
            assert set(exact[name].reject_by_reason) == {"check-b"}, name
        assert sum(exact["lo"].outputs.values()) > 0
        assert sum(exact["hi"].outputs.values()) > 0
        assert set(kinds) == {"check-b", "output"}, kinds

    def test_tau_widening_admits_the_fringe(self):
        params = raw_params(n=4, t=8, sampling_gap=1.0)
        honest = honest_prover(ExplicitDistribution(n=4, mass=TAU_FRINGE_MASS), params)
        tables, _ = validate_histogram_message(honest.produce_histogram(), params)
        lo, hi = tables.challenges[(0, 1)].windows[0]
        assert lo < 1 and 2 * (1 - 1e-12) < hi < 2
        exact, kinds = check_b_edge_masses(params, honest)
        # two elements in band 2 pass only by TAU widening
        assert sum(exact["above-hi"].outputs.values()) > 0
        assert exact["above-hi"].reject_by_reason["check-b"] > 0
        assert exact["below-lo"].reject_by_reason == {"check-b": 1}
        assert set(kinds) == {"check-b", "output"}, kinds


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


# ---------------------------------------------------------------------------
# Table intake fuzzing: any value in the fallback table slot ends in an Outcome


TABLE_FUZZ_PARAMS = derive_params(3, 0.5, 0.5)


def valid_tables():
    """Tables of distinct 3-bit elements whose Fraction probabilities sum to 1."""
    counts = st.lists(st.integers(1, 4), min_size=1, max_size=8)
    return st.tuples(counts, st.permutations(range(8))).map(
        lambda cp: [(x, Fraction(c, sum(cp[0]))) for x, c in zip(cp[1], cp[0])]
    )


def table_edits():
    """Edits applied to a valid table; ``pos`` picks an entry by position."""
    pos = st.integers(0, 7)
    bad_x = st.one_of(
        st.integers(8, 2**70), st.integers(-(2**70), -1), st.booleans(), st.floats(),
        st.text(max_size=2),
    )
    bad_p = st.one_of(
        st.integers(-2, 2), st.floats(), st.text(max_size=3), st.just("1/2"),
        st.fractions(min_value=-1, max_value=2, max_denominator=8),
    )
    return st.lists(
        st.one_of(
            st.tuples(st.just("x"), pos, bad_x),
            st.tuples(st.just("p"), pos, bad_p),
            st.tuples(st.just("dup"), pos),  # another entry's element
            st.tuples(st.just("scale"), st.sampled_from([Fraction(1, 2), Fraction(3, 2)])),
            st.tuples(st.just("drop"), pos),
            st.tuples(st.just("extra"), st.lists(st.integers(0, 7), max_size=3)),
        ),
        max_size=2,
    )


def edit_table(table, edits, wrap):
    out = [list(pair) for pair in table]
    for op, *args in edits:
        if op == "scale":
            for entry in out:
                if len(entry) == 2 and isinstance(entry[1], Fraction):
                    entry[1] *= args[0]
            continue
        if op == "extra":
            out.append(args[0])
            continue
        entry = out[args[0] % len(out)] if out else None
        if entry is None or len(entry) != 2:
            continue
        if op == "x":
            entry[0] = args[1]
        elif op == "p":
            entry[1] = args[1]
        elif op == "dup" and out[(args[0] + 1) % len(out)]:
            entry[0] = out[(args[0] + 1) % len(out)][0]
        elif op == "drop":
            out.remove(entry)
    return [wrap(entry) for entry in out]


def table_values():
    """Arbitrary values for the ScriptedProver table slot of a fallback
    n=3 instance: junk constants and lists, and valid tables as pairs or
    lists, edited so that an element is a str, float, bool, negative, huge
    or out of range, a probability is an int, Fraction, float or str, zero
    or negative, an element repeats, an entry is missing or malformed, or
    the probabilities no longer sum to 1."""
    junk = st.one_of(
        st.none(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
        st.lists(
            st.one_of(st.none(), st.integers(), st.text(max_size=2), st.lists(st.integers(0, 7), max_size=3)),
            max_size=3,
        ),
    )
    edited = st.builds(edit_table, valid_tables(), table_edits(), st.sampled_from([tuple, list]))
    return st.booleans().flatmap(lambda edit: edited if edit else junk)


class TestTableIntakeFuzz:
    @given(table_values())
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_table_ends_in_an_outcome(self, table):
        """The fallback verifier and both oracles are total over the table
        slot and agree exactly on what every table is worth, and every
        seeded run ends in an outcome the oracles give positive mass."""
        params = TABLE_FUZZ_PARAMS
        prover = ScriptedProver({"table": table})
        exact = assert_oracles_agree(params, prover)
        for seed in range(3):
            tr = run_protocol(params, prover, rng=random.Random(seed))
            assert isinstance(tr.outcome, Outcome)
            assert replay(params, prover, tr).to_json() == tr.to_json()
            out = tr.outcome
            if out.kind == "output":
                assert exact.outputs.get((out.x, out.band, out.p), 0) > 0
            else:
                assert out.kind == "reject"
                assert exact.reject_by_reason.get(out.reason, 0) > 0


# ---------------------------------------------------------------------------
# A prover whose own produce_* call raises sends an unreadable message


def raises(*args):
    raise RuntimeError("the prover's own fault")


def sends_none(*args):
    return None


class Halt(BaseException):
    """Not an ``Exception``: the verifier lets it propagate."""


def halts(*args):
    raise Halt


# What a message of each round that cannot be read ends in; an unreadable
# claim is substituted instead.
UNREADABLE = {"histogram": "malformed-histogram", "sets": "malformed-sets", "table": "malformed-table"}
FAULT_PARAMS = {"raw": SETS_FUZZ_PARAMS, "fallback": TABLE_FUZZ_PARAMS}
# The rounds each mode asks a prover about.
ASKED = {"raw": ("histogram", "sets", "probability"), "fallback": ("table",)}


def faulty_prover(config, position, fault):
    """The honest prover's messages on the skewed n=3 distribution, as a
    ScriptedProver whose ``position`` slot is ``fault``."""
    params = FAULT_PARAMS[config]
    honest = honest_prover(skewed_dist(), params)
    if config == "raw":
        responses = {
            "histogram": honest.produce_histogram(),
            "sets": honest.produce_sets,
            "probability": honest.produce_probability,
        }
    else:
        responses = {"table": honest.produce_table()}
    responses[position] = fault
    return params, ScriptedProver(responses)


class TestProverFaults:
    @pytest.mark.parametrize("position", ["histogram", "sets", "probability", "table"])
    @pytest.mark.parametrize("config", sorted(FAULT_PARAMS))
    def test_a_raise_is_an_unreadable_message(self, config, position):
        """A ``produce_*`` call that raises RuntimeError is read as the
        message None: runs, replays and both oracles treat the prover
        exactly as one that sends None there (a zero claim, for the
        probability). A histogram, sets or table that raises is malformed;
        a claim that raises is substituted."""
        params, prover = faulty_prover(config, position, raises)
        _, silent = faulty_prover(config, position, sends_none)
        exact = assert_oracles_agree(params, prover)
        quiet = assert_oracles_agree(params, silent)
        assert exact.outputs == quiet.outputs
        assert exact.reject_by_reason == quiet.reject_by_reason
        for seed in range(6):
            tr = run_protocol(params, prover, rng=random.Random(seed))
            assert replay(params, prover, tr).to_json() == tr.to_json()
            twin = run_protocol(params, silent, rng=random.Random(seed))
            if position == "probability":
                # ScriptedProver sends a None claim as Fraction(0), also substituted
                assert (tr.coins, tr.outcome) == (twin.coins, twin.outcome)
            else:
                assert tr.to_json() == twin.to_json()
            out = tr.outcome
            if out.kind == "output":
                assert exact.outputs.get((out.x, out.band, out.p), 0) > 0
                if position == "probability" and config == "raw":
                    shown = json.loads(tr.to_json())["messages"][-1]
                    assert shown == {"kind": "probability", "p": {"malformed": "NoneType"}}
            else:
                assert exact.reject_by_reason.get(out.reason, 0) > 0
        if position not in ASKED[config]:
            honest = assert_oracles_agree(*faulty_prover(config, "unused", None))
            assert exact.outputs == honest.outputs and exact.reject_mass == honest.reject_mass
        elif position in UNREADABLE:
            assert exact.outputs == {}
            assert exact.reject_by_reason[UNREADABLE[position]] > 0
            assert set(exact.reject_by_reason) <= {UNREADABLE[position], "hash-width"}
        else:
            assert exact.outputs
            assert all(p == pow2(-j * params.eps) for _, j, p in exact.outputs)

    @pytest.mark.parametrize(
        "config, position", [(config, position) for config in sorted(ASKED) for position in ASKED[config]]
    )
    def test_a_base_exception_propagates(self, config, position):
        params, prover = faulty_prover(config, position, halts)
        with pytest.raises(Halt):
            for seed in range(40):
                run_protocol(params, prover, rng=random.Random(seed))
        with pytest.raises(Halt):
            OracleRun(ExactConfig(params=params, prover=prover))
        with pytest.raises(Halt):
            exact_output_distribution_flat(params, prover)
