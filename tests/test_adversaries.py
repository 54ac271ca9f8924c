"""Cheating-prover behavior, checked against the exact oracle."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from coinpress import adversaries, protocol
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
from coinpress.cli import make_prover_factory
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
    MODE_TRIVIAL,
    HonestProver,
    ProtocolParams,
    derive_params,
    honest_prover,
    replay,
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
        seen = set()
        for seed in range(11, 31):
            a = two_point_mixture(params, seed=seed)
            b = two_point_mixture(params, seed=seed)
            assert a.produce_histogram() == b.produce_histogram()
            seen.add(tuple(a.produce_histogram()))
        assert len(seen) == 2  # both components are drawn

    def test_reseeded_matches_fresh_prover(self):
        params = params_n2()
        base = two_point_mixture(params, seed=0)
        for seed in range(11, 31):
            twin = base.reseeded(seed)
            fresh = two_point_mixture(params, seed=seed)
            assert twin.components is base.components
            assert twin.produce_histogram() == fresh.produce_histogram()

    def test_mc_marginal_matches_oracle(self):
        params = params_n2()
        base = two_point_mixture(params, seed=5)
        rng = random.Random(5)
        hits = 0
        trials = 4000
        for trial in range(trials):
            out = run_protocol(params, base.reseeded(trial), rng=rng).outcome
            hits += out.kind == "output" and out.x == 0
        assert hits / trials == pytest.approx(0.75, abs=0.03)

    @pytest.mark.parametrize("kind", ["mixture", "rejecting"])
    def test_replay_with_the_producing_prover(self, kind):
        """A run is a pure function of the verifier's coins: replaying it
        with the very prover object that produced it gives the same bytes."""
        params = params_n3(sampling_gap=0.5)
        dist = ExplicitDistribution(
            n=3, mass={0: Fraction(1, 2), 3: Fraction(1, 4), 5: Fraction(1, 4)}
        )
        if kind == "mixture":
            other = ExplicitDistribution.uniform(3, [1, 6])
            base = MixtureProver([(Fraction(1, 2), dist), (Fraction(1, 4), other)], 0, params)
        else:
            base = rejecting_prover(dist, Fraction(1, 3), 0, params)
        outcomes = set()
        for seed in range(200):
            prover = base.reseeded(seed)
            tr = run_protocol(params, prover, rng=random.Random(seed))
            assert replay(params, prover, tr).to_json() == tr.to_json()
            outcomes.add(tr.outcome.kind)
        assert outcomes == {"output", "reject"}


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
        assert type(infl) is HonestProver
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

    def test_m_zero_sets_match_hashing_path(self):
        """At m = 0 the prover hashes nothing: each true bucket is taken as
        it is and the spare pool is every input. Its sets equal those of the
        hashing path, which a hash hiding its empty rows forces."""

        class HashingPath:
            rows = True  # looks like m > 0, so the buckets and pool are hashed

            def __init__(self, f):
                self.eval_batch = f.eval_batch

        masses = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(1, 8), Fraction(1, 8))
        challenges = padded = 0
        for eps in (1.0, 0.5):
            params = ProtocolParams.raw(
                n=4, eps=eps, delta=0.5, t=8, gap_size=1, interval_size=2, sampling_gap=1.0,
            )
            dist = ExplicitDistribution(n=4, mass=dict(zip(random.Random(7).sample(range(16), 5), masses)))
            infl = inflating_prover(dist, 1, params)
            tables, reason = validate_histogram_message(infl.produce_histogram(), params)
            assert reason is None
            for (s, k), ctx in sorted(tables.challenges.items()):
                if ctx.m != 0:
                    continue
                challenges += 1
                for a, b, c in ((0, 0, 0), (1, 2, 3), (9, 4, 15), (15, 15, 15)):
                    f = HashFunction(n=params.n, m=0, a=a, b=b, c=c)
                    sets = infl.produce_sets(s, k, f, ctx.g, 0)
                    assert sets == infl.produce_sets(s, k, HashingPath(f), ctx.g, 0)
                    padded += any(x not in dist.mass for xs in sets.values() for x in xs)
        assert challenges and padded  # the spare pool was used too

    def test_m_zero_answer_is_planned_once(self):
        """At m = 0 each challenge's answer is worked out once, on its first
        call, and every call returns fresh lists of it: editing one answer
        changes no later one."""
        params = ProtocolParams.raw(n=4, eps=1.0, delta=0.5, t=8, gap_size=1, interval_size=2, sampling_gap=1.0)
        dist = ExplicitDistribution(n=4, mass={3: Fraction(1, 2), 9: Fraction(1, 4), 12: Fraction(1, 4)})
        infl = inflating_prover(dist, 1, params)
        tables, reason = validate_histogram_message(infl.produce_histogram(), params)
        assert reason is None
        zero_width = [(s, k, ctx) for (s, k), ctx in sorted(tables.challenges.items()) if ctx.m == 0]
        assert zero_width
        for s, k, ctx in zero_width:
            first = infl.produce_sets(s, k, HashFunction(n=4, m=0, a=1, b=2, c=3), ctx.g, 0)
            expected = {i: list(xs) for i, xs in first.items()}
            for xs in first.values():
                xs.append(99)
            for a, b, c in ((0, 0, 0), (9, 4, 15)):
                again = infl.produce_sets(s, k, HashFunction(n=4, m=0, a=a, b=b, c=c), ctx.g, 0)
                assert again == expected
                assert all(again[i] is not first[i] for i in again)

    def test_large_shift_rejects_everything(self):
        # shifting past the top band drops all mass: round-1 sum check fires
        params = params_n3()
        infl = inflating_prover(self.dist, 6, params)
        exact = OracleRun(ExactConfig(params=params, prover=infl)).distribution
        assert exact.reject_mass == 1
        assert exact.reject_by_reason == {"histogram-sum": Fraction(1)}


class Unmemoized(HashFunction):
    """A HashFunction subclass: ``HonestProver.produce_sets`` answers it
    directly, so a prover answers it as it would without the memo."""


def unmemoized(f):
    return Unmemoized(n=f.n, m=f.m, a=f.a, b=f.b, c=f.c)


MEMO_MASSES = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(1, 8), Fraction(1, 8))
MEMO_PROVERS = ["honest", "mixture", "inflating:1", "inflating:2", "overlapping", "rejecting:1/3"]


def memo_provers(n, eps):
    """The oracle-n4 mass profile at width n, t = 8, sampling gap 0, where
    challenges hash to m = 0 and m > 0: the params and each bundled prover
    that keeps its answers in ``HonestProver.produce_sets``' memo."""
    params = ProtocolParams.raw(
        n=n, eps=eps, delta=0.5, t=8, gap_size=1, interval_size=2, sampling_gap=0.0,
    )
    rng = random.Random(7)
    main, other = (
        ExplicitDistribution(n=n, mass=dict(zip(rng.sample(range(1 << n), 5), MEMO_MASSES)))
        for _ in range(2)
    )
    return params, {
        "honest": HonestProver(main, params),
        "mixture": MixtureProver([(Fraction(1, 2), main), (Fraction(1, 4), other)], 11, params),
        "inflating:1": inflating_prover(main, 1, params),
        "inflating:2": inflating_prover(main, 2, params),
        "overlapping": overlapping_sets_prover(main, params),
        "rejecting:1/3": rejecting_prover(main, Fraction(1, 3), 5, params),
    }


def drawable_challenges(strat, params):
    """(s, k, g, m) of every challenge the verifier can ask ``strat``."""
    tables, _ = validate_histogram_message(strat.produce_histogram(), params)
    if tables is None:
        return []
    return [(s, k, ctx.g, ctx.m) for (s, k), ctx in tables.challenges.items() if ctx.m <= params.n]


N4_ANSWER_DIGESTS = {
    "honest": "08c4fc5b71fa72887cfa1db8b39ba12bc69cac49422ac0234ba065b67901b936",
    "overlapping": "af3d910736c10ecee89d7ec1e659eb9de2c0eff41bd1eda836a4090f5c9af079",
}


@pytest.mark.parametrize("label", sorted(N4_ANSWER_DIGESTS))
def test_n4_answers_pinned(label):
    """Every answer of the prover over the whole n=4 family, at each
    challenge the verifier can draw, on the oracle-n4 configs (sampling gap
    1, where every challenge hashes to m = 0) and at sampling gap 0 (which
    reaches m > 0); the digests were computed before these provers were
    built on ``HonestProver``'s plans."""
    make = {"honest": HonestProver, "overlapping": overlapping_sets_prover}[label]
    digest = hashlib.sha256()
    for eps, sampling_gap in itertools.product((1.0, 0.5), (1.0, 0.0)):
        params = ProtocolParams.raw(
            n=4, eps=eps, delta=0.5, t=8, gap_size=1, interval_size=2, sampling_gap=sampling_gap,
        )
        dist = ExplicitDistribution(n=4, mass=dict(zip(random.Random(7).sample(range(16), 5), MEMO_MASSES)))
        prover = make(dist, params)
        for s, k, g, m in sorted(drawable_challenges(prover, params)):
            for a, b, c in family(params.n):
                sets = prover.produce_sets(s, k, HashFunction(n=params.n, m=m, a=a, b=b, c=c), g, m)
                digest.update(repr((s, k, a, b, c, list(sets.items()))).encode())
    assert digest.hexdigest() == N4_ANSWER_DIGESTS[label]


class TestZeroSetMemo:
    """The bundled provers answer each zero set once per hash rows tuple;
    every answer must equal the one given without the memo."""

    @pytest.mark.parametrize("label", MEMO_PROVERS)
    @pytest.mark.parametrize("eps", [1.0, 0.5])
    @pytest.mark.parametrize("n", [3, 4])
    def test_memoized_answers_equal_direct_answers(self, n, eps, label):
        """Over every drawable challenge and every family member, asked as
        the flat cross-check asks (per member, every challenge of its
        width) and then in a shuffled order, of the prover and of each
        strategy in its support."""
        params, provers = memo_provers(n, eps)
        prover = provers[label]
        widths = set()
        for strat in [prover] + [strat for _, strat in prover.randomness_support()]:
            by_width = {}
            for s, k, g, m in drawable_challenges(strat, params):
                by_width.setdefault(m, []).append((s, k, g))
            widths |= set(by_width)
            asked = [
                (s, k, g, HashFunction(n=n, m=m, a=a, b=b, c=c))
                for m, group in by_width.items()
                for a, b, c in family(n)
                for s, k, g in group
            ]
            direct = [strat.produce_sets(s, k, unmemoized(f), g, f.m) for s, k, g, f in asked]
            for (s, k, g, f), want in zip(asked, direct):
                assert strat.produce_sets(s, k, f, g, f.m) == want, (s, k, f)
            order = list(range(len(asked)))
            random.Random(n).shuffle(order)
            for i in order:
                s, k, g, f = asked[i]
                assert strat.produce_sets(s, k, f, g, f.m) == direct[i], (s, k, f)
        # every case reaches m > 0; all but inflating:2 at eps 1.0 also m = 0
        assert max(widths) > 0 and (0 in widths or (label, eps) == ("inflating:2", 1.0))

    @pytest.mark.parametrize("label", MEMO_PROVERS)
    def test_editing_an_answer_changes_no_later_answer(self, label):
        """Lists and dict of a returned answer are the caller's: editing
        them changes neither the same member's next answer nor that of a
        member sharing its zero set, at m = 0 and at m > 0."""
        params, provers = memo_provers(4, 1.0)
        widths = set()
        for strat in [provers[label]] + [strat for _, strat in provers[label].randomness_support()]:
            for s, k, g, m in drawable_challenges(strat, params):
                widths.add(m)
                f = HashFunction(n=4, m=m, a=3, b=5, c=1)
                twin = HashFunction(n=4, m=m, a=3, b=5, c=1 + (1 << m))  # same rows and c_low
                want = strat.produce_sets(s, k, unmemoized(f), g, m)
                first = strat.produce_sets(s, k, f, g, m)
                assert first == want
                for xs in first.values():
                    xs.append(99)
                    xs.reverse()
                if first:
                    del first[next(iter(first))]
                first[99] = [1]
                assert strat.produce_sets(s, k, f, g, m) == want
                assert strat.produce_sets(s, k, twin, g, m) == want
        assert max(widths) > 0 and (0 in widths or label == "inflating:2")


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

    def test_constant_list_histogram_compiles_once(self, compiles):
        params = params_n3()
        weights = [0, 0, 1, 0, 0, 0, 0]
        scripted = ScriptedProver({"histogram": weights})
        for seed in range(5):
            tr = run_protocol(params, scripted, rng=random.Random(seed))
            assert tr.outcome.reason not in ("malformed-histogram", "histogram-sum")
        assert compiles == [tuple(map(Fraction, weights))]


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


class TestFallbackProvers:
    def test_fallback_runs_build_no_banding(self, tmp_path, monkeypatch):
        """A fallback run reads only the prover's table, so no prover builds
        its histogram or buckets over the t + 1 bands, here 1,440,000."""
        params = derive_params(8, 0.1, 0.5)
        assert params.mode == MODE_TRIVIAL and params.t == 1_440_000
        dist = {"n": 8, "mass": {"0": "1/2", "9": "1/4", "c8": "1/4"}}
        other = {"n": 8, "mass": {"1": "1/1"}}
        (tmp_path / "mix.json").write_text(json.dumps({"components": [
            {"weight": "1/2", "distribution": dist}, {"weight": "1/2", "distribution": other},
        ]}))

        def refuse(*args):
            raise AssertionError("a fallback run built band state")

        for module, name in ((protocol, "build_histogram"), (protocol, "buckets"), (adversaries, "buckets")):
            monkeypatch.setattr(module, name, refuse)
        held = ExplicitDistribution.from_json_obj(dist)
        specs = ("honest", "rejecting:1/4", "mixture:mix.json", "inflating:1")
        output_specs = set()
        for spec in specs:
            factory = make_prover_factory(spec, held, params, str(tmp_path))
            for seed in range(4):
                prover = factory(seed)
                tr = run_protocol(params, prover, rng=random.Random(seed))
                assert replay(params, prover, tr).to_json() == tr.to_json()
                if spec == "rejecting:1/4" and tr.outcome.kind == "reject":
                    assert tr.outcome.reason == "malformed-table"
                    continue
                assert tr.outcome.kind == "output", spec
                output_specs.add(spec)
        assert output_specs == set(specs)
