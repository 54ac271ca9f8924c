"""Private-to-public-coin compiler: conditionals, toy protocol, bounds."""

import hashlib
import math
import operator
import random
from fractions import Fraction

import pytest

from coinpress import ip2am
from coinpress.ip2am import (
    HonestTransformProver,
    PrivateCoinProtocolSpec,
    RandomAnswerTransformProver,
    ToyMultisetInstance,
    TransformProver,
    ZeroProbabilityPrefixError,
    accepts,
    bounds_calculator,
    conditional_message_distribution,
    conditional_randomness_distribution,
    constant_loss_parameters,
    estimate_acceptance,
    optimal_value,
    product_check,
    sampling_params_for,
    small_gap_parameters,
    toy_protocol,
    transform_run,
    value_with_prover,
)
from coinpress.harness import split_seed
from coinpress.protocol import ProverStrategy


MEMBER = ToyMultisetInstance(s0="aab", s1="abb")
NONMEMBER = ToyMultisetInstance(s0="aab", s1="aba")


def coin_bit_spec():
    """One-round protocol whose message is the first coin bit."""
    return PrivateCoinProtocolSpec(
        rounds=1, coin_bits=3, message_bits=1,
        next_message=lambda x, i, r, answers: r & 1,
        verdict=lambda x, r, messages, answers: True,
    )


class TestConditionalDistributions:
    def test_first_coin_bit_is_uniform(self):
        d = conditional_message_distribution(coin_bit_spec(), None, 0, [], [])
        assert d.mass == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    def test_toy_round0_law_matches_brute_force(self):
        toy = toy_protocol(NONMEMBER)
        d = conditional_message_distribution(toy.spec, None, 0, [], [])
        # brute-force oracle over all coins
        counts = {}
        for r in range(1 << toy.spec.coin_bits):
            m = toy.spec.next_message(None, 0, r, ())
            counts[m] = counts.get(m, 0) + 1
        total = sum(counts.values())
        assert d.mass == {m: Fraction(c, total) for m, c in counts.items()}

    def test_zero_probability_prefix_raises(self):
        spec = coin_bit_spec()
        with pytest.raises(ZeroProbabilityPrefixError):
            conditional_message_distribution(spec, None, 1, [7], [0])

    def test_randomness_uniform_when_message_constant(self):
        spec = PrivateCoinProtocolSpec(
            rounds=1, coin_bits=4, message_bits=1,
            next_message=lambda x, i, r, answers: 0,
            verdict=lambda x, r, messages, answers: True,
        )
        d = conditional_randomness_distribution(spec, None, [0], [0])
        assert d.mass == {r: Fraction(1, 16) for r in range(16)}

    def test_randomness_restricted_to_consistent_coins(self):
        toy = toy_protocol(MEMBER)
        m0 = toy.spec.next_message(None, 0, 0, ())
        d = conditional_randomness_distribution(toy.spec, None, [m0], [0])
        for r in d.mass:
            assert toy.spec.next_message(None, 0, r, ()) == m0

    def test_inconsistent_transcript_raises(self):
        spec = PrivateCoinProtocolSpec(
            rounds=1, coin_bits=3, message_bits=2,
            next_message=lambda x, i, r, answers: 0,
            verdict=lambda x, r, messages, answers: True,
        )
        with pytest.raises(ZeroProbabilityPrefixError):
            conditional_randomness_distribution(spec, None, [3], [0])


class TestToyProtocol:
    def test_membership(self):
        assert MEMBER.in_language
        assert not NONMEMBER.in_language

    def test_completeness_exactly_one(self):
        toy = toy_protocol(MEMBER)
        assert value_with_prover(toy.spec, None, toy.honest_answer) == 1
        assert optimal_value(toy.spec, None) == 1

    def test_soundness_exactly_half(self):
        toy = toy_protocol(NONMEMBER)
        assert optimal_value(toy.spec, None) == Fraction(1, 2)

    def test_soundness_half_for_more_instances(self):
        for s in ("ab", "aabb", "abc"):
            inst = ToyMultisetInstance(s0=s, s1=s[::-1])
            assert not inst.in_language
            toy = toy_protocol(inst)
            assert optimal_value(toy.spec, None) == Fraction(1, 2)

    def test_consistency_enforced(self):
        toy = toy_protocol(MEMBER)
        spec = toy.spec
        r = 0
        m0 = spec.next_message(None, 0, r, ())
        good_answer = toy.honest_answer(None, 0, (m0,))
        assert accepts(spec, None, r, [m0], [good_answer])
        # tamper with the recorded message: rejected regardless of verdict
        wrong = (m0 + 1) % (1 << spec.message_bits)
        assert not accepts(spec, None, r, [wrong], [good_answer])

    def test_honest_answer_is_total(self):
        """Every 6-bit message gets an answer, also one whose symbol index
        is past the 3-symbol alphabet: 0 exactly for the arrangements of
        side 0, 1 for every other code."""
        toy = toy_protocol(ToyMultisetInstance(s0="aab", s1="abc"))
        assert toy.spec.message_bits == 6
        for code in range(64):
            symbols = [(code >> shift) & 3 for shift in (4, 2, 0)]
            side0 = sorted(symbols) == [0, 0, 1]  # "a", "a", "b"
            assert toy.honest_answer(None, 0, (code,)) == (0 if side0 else 1), code


class TestTransformRun:
    def test_honest_member_always_accepts(self):
        toy = toy_protocol(MEMBER)
        mp, cp = sampling_params_for(toy.spec, eps=0.02, delta=0.25)
        prover = HonestTransformProver(toy.spec, None, toy.honest_answer)
        rng = random.Random(5)
        for _ in range(40):
            tr = transform_run(toy.spec, None, prover, mp, cp, rng)
            assert tr.accept and tr.check_verdict and tr.check_product

    def test_product_telescopes_exactly(self):
        toy = toy_protocol(MEMBER)
        mp, cp = sampling_params_for(toy.spec, eps=0.02, delta=0.25)
        prover = HonestTransformProver(toy.spec, None, toy.honest_answer)
        rng = random.Random(6)
        target = Fraction(1, 1 << toy.spec.coin_bits)
        for _ in range(25):
            tr = transform_run(toy.spec, None, prover, mp, cp, rng)
            assert tr.sampling_reject_round is None
            product = Fraction(1)
            for record in tr.rounds:
                product *= record.probability
            product *= tr.final_probability
            assert product == target

    def test_run_deterministic_under_fixed_seed(self):
        toy = toy_protocol(MEMBER)
        mp, cp = sampling_params_for(toy.spec, eps=0.02, delta=0.25)
        prover = HonestTransformProver(toy.spec, None, toy.honest_answer)
        runs = []
        for _ in range(2):
            tr = transform_run(toy.spec, None, prover, mp, cp, random.Random(123))
            runs.append(
                (tr.coin_string, tr.final_probability,
                 [(r.message, r.probability, r.answer) for r in tr.rounds], tr.accept)
            )
        assert runs[0] == runs[1]

    def test_nonmember_accept_rate_near_half(self):
        toy = toy_protocol(NONMEMBER)
        prover = HonestTransformProver(toy.spec, None, toy.honest_answer)
        rate = estimate_acceptance(
            toy.spec, None, lambda seed: prover, 600, 7, eps=0.02, delta=0.25
        )
        assert rate == pytest.approx(0.5, abs=0.07)

    def test_random_answers_no_better_than_soundness(self):
        toy = toy_protocol(NONMEMBER)
        rate = estimate_acceptance(
            toy.spec, None,
            RandomAnswerTransformProver(toy.spec, None, 0).reseeded,
            600, 8, eps=0.02, delta=0.25,
        )
        c_bound, s_bound = bounds_calculator(1.0, 0.5, 1, 0.02, 0.25)
        assert rate <= s_bound + 0.07

    def test_reseeded_random_answers_match_fresh_prover(self):
        toy = toy_protocol(NONMEMBER)
        mp, cp = sampling_params_for(toy.spec, eps=0.02, delta=0.25)
        base = RandomAnswerTransformProver(toy.spec, None, 0)
        for seed in range(40):
            fresh = RandomAnswerTransformProver(toy.spec, None, seed)
            runs = [
                transform_run(toy.spec, None, prover, mp, cp, random.Random(seed))
                for prover in (fresh, base.reseeded(seed))
            ]
            assert runs[0] == runs[1]

    def test_estimate_reseeds_each_trial_as_a_fresh_generator(self, monkeypatch):
        """Each trial of ``estimate_acceptance`` runs on one reused
        generator whose state, under ``getstate()``, equals that of
        ``random.Random(split_seed(master_seed, idx))``, and the accept
        frequency is that of fresh generators."""
        toy = toy_protocol(MEMBER)
        prover = HonestTransformProver(toy.spec, None, toy.honest_answer)
        mp, cp = sampling_params_for(toy.spec, eps=0.02, delta=0.25)
        states, accepts = [], []

        def recording_run(spec, x, prover, message_params, coin_params, rng):
            states.append(rng.getstate())
            return transform_run(spec, x, prover, message_params, coin_params, rng)

        monkeypatch.setattr(ip2am, "transform_run", recording_run)
        rate = estimate_acceptance(toy.spec, None, lambda seed: prover, 40, 9, eps=0.02, delta=0.25)
        for idx, state in enumerate(states):
            fresh = random.Random(split_seed(9, idx))
            assert state == fresh.getstate(), idx
            accepts.append(transform_run(toy.spec, None, prover, mp, cp, fresh).accept)
        assert len(states) == 40 and rate == sum(accepts) / 40

    def test_equal_laws_compile_once(self, compiles):
        # Random answers reach many transcripts whose conditional laws are
        # equal; each law is one honest prover, so one verifier compile.
        toy = toy_protocol(NONMEMBER)
        base = RandomAnswerTransformProver(toy.spec, None, 0)
        estimate_acceptance(toy.spec, None, base.reseeded, 200, 8, eps=0.02, delta=0.25)
        assert len(compiles) == len(base._by_law) < len(base._cache)

    def test_one_params_pair_per_parameter_set(self, compiles):
        """Equal arguments give the identical params pair, and an eps of
        another type its own pair; a second estimate compiles no law."""
        toy = toy_protocol(NONMEMBER)
        pair = sampling_params_for(toy.spec, eps=0.02, delta=0.25)
        assert all(map(operator.is_, pair, sampling_params_for(toy_protocol(NONMEMBER).spec, 0.02, 0.25)))
        assert [type(sampling_params_for(toy.spec, eps, 0.25)[0].eps) for eps in (1, 1.0)] == [int, float]
        base = RandomAnswerTransformProver(toy.spec, None, 0)
        estimate_acceptance(toy.spec, None, base.reseeded, 100, 8, eps=0.02, delta=0.25)
        first = len(compiles)
        estimate_acceptance(toy.spec, None, base.reseeded, 100, 8, eps=0.02, delta=0.25)
        assert len(compiles) == first == len(base._by_law)

    def test_product_check_matches_the_fraction_product(self):
        """``product_check`` agrees with the exact product of the claims on
        exact lists, lists one off in a numerator or a denominator, and
        lists holding a tagged real."""
        bits = 3
        exact = [
            [Fraction(1, 8)],
            [Fraction(1, 2), Fraction(1, 4)],
            [Fraction(2, 3), Fraction(3, 16)],
            [Fraction(3, 7), Fraction(7, 12), Fraction(1, 2)],
            [Fraction(1), Fraction(1, 8), Fraction(1)],
            [Fraction(5, 2**300), Fraction(2**297, 5)],
        ]
        cases = []
        for probs in exact:
            cases.append(probs)
            for pos in range(len(probs)):
                p = probs[pos]
                for q in (Fraction(p.numerator + 1, p.denominator), Fraction(p.numerator, p.denominator + 1),
                          Fraction(p.numerator - 1, p.denominator)):
                    cases.append(probs[:pos] + [q] + probs[pos + 1:])
                cases.append(probs[:pos] + [float(p)] + probs[pos + 1:])
        cases += [[], [0.125], [Fraction(0)], [Fraction(1, 16), 2.0]]
        for probs in cases:
            want = all(isinstance(p, Fraction) for p in probs) and math.prod(probs) == Fraction(1, 2**bits)
            assert product_check(probs, bits) == want, probs
        assert sum(product_check(probs, bits) for probs in cases) == len(exact)

    def test_sampling_reject_propagates(self):
        toy = toy_protocol(MEMBER)
        mp, cp = sampling_params_for(toy.spec, eps=0.02, delta=0.25)

        class NoHistogram(ProverStrategy):
            def produce_histogram(self):
                return None

        class Saboteur(TransformProver):
            def sampling_strategy(self, round_index, messages, probs, answers, params):
                return NoHistogram()

            def answer(self, round_index, messages, probs, answers):
                return 0

        tr = transform_run(toy.spec, None, Saboteur(), mp, cp, random.Random(0))
        assert not tr.accept
        assert tr.sampling_reject_round == 0

    def test_seeded_runs_pinned(self):
        # 200 seeded runs each on the member and the non-member at eps=0.02
        # (t=300), with the state of each run's coin stream after the run.
        runs = []
        for instance in (MEMBER, NONMEMBER):
            toy = toy_protocol(instance)
            prover = HonestTransformProver(toy.spec, None, toy.honest_answer)
            message_params, coin_params = sampling_params_for(toy.spec, 0.02, 0.25)
            for seed in range(200):
                rng = random.Random(seed)
                am = transform_run(toy.spec, None, prover, message_params, coin_params, rng)
                runs.append((am, rng.getrandbits(32)))
        digest = hashlib.sha256(repr(runs).encode()).hexdigest()
        assert digest == "d3f823da797343a165ac999a714d553520af9360d71a7df4930178fd3628ef53"

    def test_width_mismatch_raises(self):
        # three-symbol alphabet: message width 6, coin width 4
        toy = toy_protocol(ToyMultisetInstance(s0="abc", s1="cba"))
        assert toy.spec.message_bits != toy.spec.coin_bits
        mp, cp = sampling_params_for(toy.spec, eps=0.02, delta=0.25)
        with pytest.raises(ValueError):
            transform_run(toy.spec, None, HonestTransformProver(toy.spec, None, toy.honest_answer), cp, mp, random.Random(0))


class TestBoundsCalculator:
    def test_zero_loss_identity(self):
        assert bounds_calculator(1.0, 0.5, 3, 0.0, 0.0) == (1.0, 0.5)

    def test_reference_point(self):
        c_out, s_out = bounds_calculator(1.0, 0.5, 1, 0.01, 0.1)
        exact_c, exact_s = bounds_calculator(
            Fraction(1), Fraction(1, 2), 1, Fraction(1, 100), Fraction(1, 10)
        )
        assert c_out == pytest.approx(0.96, abs=1e-12)
        assert exact_s == Fraction(111, 100) ** 2 * Fraction(1, 2) + Fraction(2, 100)
        assert s_out == pytest.approx(float(exact_s), rel=1e-12)

    def test_matches_exact_on_grid(self):
        for k in (1, 2, 5):
            for eps_num in (1, 3):
                for delta_num in (1, 7):
                    eps = Fraction(eps_num, 100)
                    delta = Fraction(delta_num, 20)
                    c, s = bounds_calculator(0.9, 0.25, k, float(eps), float(delta))
                    ce, se = bounds_calculator(
                        Fraction(9, 10), Fraction(1, 4), k, eps, delta
                    )
                    assert c == pytest.approx(float(ce), rel=1e-12)
                    assert s == pytest.approx(float(se), rel=1e-12)

    def test_constant_loss_parameterization(self):
        # eps = gamma/(2(k+1)), delta = 1/2 turns compl 2/3+gamma into >= 2/3
        for k in (1, 2, 4):
            for gamma in (0.01, 0.1, 0.19):
                eps, delta = constant_loss_parameters(gamma, k)
                assert delta == 0.5
                c_out, s_out = bounds_calculator(2 / 3 + gamma, 2.0 ** -(k + 5), k, eps, delta)
                assert c_out >= 2 / 3 - 1e-12
                assert s_out <= 1 / 3 + 1e-12

    def test_small_gap_parameterization(self):
        # eps = gamma/(4(k+1)), delta = nu/(4(k+1)) preserves 2/3 vs 1/3
        for k in (1, 3):
            for gamma, nu in ((0.05, 0.1), (0.02, 0.02)):
                eps, delta = small_gap_parameters(gamma, nu, k)
                c_out, s_out = bounds_calculator(2 / 3 + gamma, 1 / 3 - nu, k, eps, delta)
                assert c_out >= 2 / 3 - 1e-12
                assert s_out <= 1 / 3 + 1e-12
