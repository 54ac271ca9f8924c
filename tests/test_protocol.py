"""Parameter derivation, verifier rounds, full runs, replay, and fallback."""

import hashlib
import math
import random
from array import array
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinpress import protocol
from coinpress.dist import TAU, ExplicitDistribution, buckets, build_histogram
from coinpress.hashing import HashFunction, members_sharing_rows, sample_hash
from coinpress.protocol import (
    MODE_RAW,
    MODE_TRIVIAL,
    CoinSource,
    DegenerateChoiceError,
    HonestProver,
    ProtocolParams,
    ProverStrategy,
    band_mass_sum,
    challenge_width,
    check_sets,
    choose_challenge,
    choose_element,
    compute_live_bands,
    cumulative_weights,
    derive_params,
    finalize,
    honest_prover,
    parse_sets,
    pick_by_offset,
    replay,
    run_protocol,
    scale_weights,
    trivial_protocol,
    validate_histogram_message,
    verifier_tables,
)


def tiny_params(**overrides):
    base = dict(n=3, eps=1.0, delta=0.5, t=6, gap_size=1, interval_size=2, sampling_gap=4.0)
    base.update(overrides)
    return ProtocolParams.raw(**base)


def tables_for(weights, params):
    tables, reason = validate_histogram_message(weights, params)
    assert reason is None
    return tables


def tiny_dist():
    return ExplicitDistribution(
        n=3, mass={0: Fraction(1, 2), 3: Fraction(1, 4), 5: Fraction(1, 4)}
    )


class TestDeriveParams:
    def test_desk_widths_always_fall_back(self):
        params = derive_params(64, 0.9, 0.9)
        # (9000/0.9)^(16/0.9) vastly exceeds 2^(64/50)
        assert params.mode == MODE_TRIVIAL
        assert params.eps == pytest.approx(0.9 / 9000)
        assert params.delta == pytest.approx(0.9 / 16)

    def test_raw_formula_defaults(self):
        params = ProtocolParams.raw(n=8, eps=0.25, delta=0.5)
        assert params.t == 64
        assert params.gap_size_raw == pytest.approx(16.0)
        assert params.gap_size == 16
        assert params.interval_size_raw == pytest.approx(32.0)
        assert params.interval_size == 32
        assert params.mode == MODE_RAW

    def test_sampling_gap_matches_log_form(self):
        params = ProtocolParams.raw(n=8, eps=0.25, delta=0.5)
        t, i_raw, eps = params.t, params.interval_size_raw, params.eps
        direct = math.log2(t * i_raw * 2 ** (2 * i_raw * eps) / eps**4)
        assert params.sampling_gap == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 32, 64])
    @pytest.mark.parametrize("eps_prime", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("delta_prime", [0.1, 0.5, 0.9])
    def test_structural_invariants(self, n, eps_prime, delta_prime):
        params = derive_params(n, eps_prime, delta_prime)
        g, iv, i_raw = params.gap_size, params.interval_size, params.interval_size_raw
        assert iv % g == 0 and g >= 1
        assert i_raw <= iv <= 2 * i_raw
        assert params.t >= 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            derive_params(64, 0.0, 0.5)
        with pytest.raises(ValueError):
            ProtocolParams.raw(n=3, eps=1.0, delta=0.5, gap_size=2, interval_size=3)

    def test_digest_stable(self):
        assert tiny_params().digest() == tiny_params().digest()
        assert tiny_params().digest() != tiny_params(t=8).digest()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eps=5e-324, delta=0.5),
            dict(eps=5e-324, delta=0.5, t=6, gap_size=1, interval_size=2, sampling_gap=1.0),
            dict(eps=1e-300, delta=1e-20),
            dict(eps=1.0, delta=5e-324),
        ],
        ids=["eps", "eps-all-given", "eps-and-delta", "delta"],
    )
    def test_constants_past_a_double_are_a_value_error(self, kwargs):
        """Below about eps = 1e-308, or delta that small, the raw gap and
        interval sizes overflow a double; that is a ValueError, not an
        OverflowError from taking the ceiling of infinity."""
        with pytest.raises(ValueError, match="overflows a double"):
            ProtocolParams.raw(n=3, **kwargs)

    def test_tiny_eps_whose_constants_fit_still_builds(self):
        params = ProtocolParams.raw(n=3, eps=1e-300, delta=0.5)
        assert math.isfinite(params.interval_size_raw)
        assert params.t == math.ceil(6 / 1e-300)


class TestWeightedChoice:
    def test_exact_proportions_by_offset(self):
        scaled, total = scale_weights([Fraction(2), Fraction(1), Fraction(1)])
        assert total == 4
        picks = [pick_by_offset(scaled, u) for u in range(total)]
        assert picks.count(0) == 2 and picks.count(1) == 1 and picks.count(2) == 1

    def test_rational_scaling(self):
        scaled, total = scale_weights([Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)])
        assert scaled == [2, 1, 3] and total == 6

    def test_single_item(self):
        assert CoinSource(rng=random.Random(0)).weighted_index([Fraction(1)]) == 0

    def test_degenerate_rejects(self):
        with pytest.raises(DegenerateChoiceError):
            CoinSource(rng=random.Random(0)).weighted_index([Fraction(0), 0])

    def test_distribution_matches(self):
        coins = CoinSource(rng=random.Random(5))
        counts = [0, 0, 0]
        for _ in range(4000):
            counts[coins.weighted_index([2, 1, 1])] += 1
        assert counts[0] / 4000 == pytest.approx(0.5, abs=0.05)

    def test_replay_consistency(self):
        live = CoinSource(rng=random.Random(3))
        picks = [live.weighted_index([Fraction(1), Fraction(3)]) for _ in range(10)]
        replayed = CoinSource(replay=live.record)
        assert [replayed.weighted_index([Fraction(1), Fraction(3)]) for _ in range(10)] == picks


class TestVerifierTables:
    @given(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=6), min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_bisect_pick_equals_pick_by_offset(self, weights):
        scaled, total = scale_weights(weights)
        cumulative = cumulative_weights(weights)
        if total == 0:
            with pytest.raises(DegenerateChoiceError):
                CoinSource(replay=[0]).pick(cumulative)
            return
        assert cumulative[-1] == total
        for u in range(total):
            assert CoinSource(replay=[u]).pick(cumulative) == pick_by_offset(scaled, u)

    @given(
        st.sampled_from([(1, 1), (1, 2), (2, 2), (1, 3), (2, 4)]),
        st.integers(1, 10),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_one_pass_makes_shift_draw_nondegenerate(self, layout, t, data):
        """A histogram that passes round 1 has positive mass, and every band
        lies in an interval for all but one of at least two shifts, so the
        shift draw always has positive total."""
        gap_size, interval_size = layout
        params = tiny_params(t=t, gap_size=gap_size, interval_size=interval_size)
        counts = data.draw(st.lists(st.integers(0, 3), min_size=t + 1, max_size=t + 1).filter(any))
        scale = data.draw(st.sampled_from([1, 1 - Fraction(1, 2**params.n)]))
        weights = [scale * Fraction(c, sum(counts)) for c in counts]
        tables, reason = validate_histogram_message(weights, params)
        assert reason is None
        assert tables.shift_draw[-1] > 0

    def test_tables_built_once_per_histogram(self, compiles):
        params = tiny_params()
        prover = honest_prover(tiny_dist(), params)
        for seed in range(10):
            run_protocol(params, prover, rng=random.Random(seed))
        # nine later runs hit the cache, and so does the prover's one lookup for its plans
        assert len(compiles) == 1

    def test_equal_values_give_equal_tables(self, compiles):
        # int and Fraction entries of equal value compile to equal tables;
        # each record compiles once, so they are not one object
        params = tiny_params()
        as_ints = [0, 0, 1, 0, 0, 0, 0]
        as_fractions = [Fraction(w) for w in as_ints]
        assert tables_for(as_ints, params) == tables_for(as_fractions, params)
        assert compiles == [tuple(map(Fraction, as_ints))] * 2

    def test_sum_and_sign_verdicts(self):
        params = tiny_params()
        assert validate_histogram_message([Fraction(1, 2)] * 7, params) == (None, "histogram-sum")
        negative = [Fraction(-1, 2), Fraction(3, 2), 0, 0, 0, 0, 0]
        assert validate_histogram_message(negative, params) == (None, "malformed-histogram")


class CountingFraction(Fraction):
    """A Fraction subclass whose numerator counts how often it is read."""

    reads = 0

    @property
    def numerator(self):
        type(self).reads += 1
        return super().numerator


class TestHistogramKeyMemo:
    """Round 1 compiles a tuple of exact int and Fraction entries once per
    params, keyed by the tuple's identity."""

    def test_repeated_tuple_matches_fresh_list(self, compiles):
        params = tiny_params()
        honest = build_histogram(tiny_dist(), params.eps, params.t).weights
        too_heavy = (Fraction(1, 2),) * 7
        for message in (honest, too_heavy):
            del compiles[:]
            first = validate_histogram_message(message, params)
            again = validate_histogram_message(message, params)
            assert len(compiles) == 1
            fresh = validate_histogram_message(list(message), params)
            assert len(compiles) == 2
            assert first == again == fresh
            assert first[0] is again[0]
        assert validate_histogram_message(honest, params)[1] is None
        assert validate_histogram_message(too_heavy, params) == (None, "histogram-sum")

    def test_subclass_entries_are_read_every_run(self, compiles):
        params = tiny_params()
        message = (0, 0, CountingFraction(1), 0, 0, 0, 0)
        reads = []
        for _ in range(3):
            assert validate_histogram_message(message, params)[1] is None
            reads.append(CountingFraction.reads)
        assert reads[0] < reads[1] < reads[2]
        assert len(compiles) == 3

    def test_bool_entry_validates_as_before(self, compiles):
        params = tiny_params()
        message = (0, 0, True, 0, 0, 0, 0)
        for _ in range(2):
            assert tables_for(message, params) == tables_for([0, 0, 1, 0, 0, 0, 0], params)
        assert len(compiles) == 4
        assert validate_histogram_message((True,) * 7, params) == (None, "histogram-sum")

    def test_memoized_tuple_under_other_t_is_malformed(self, compiles):
        params = tiny_params()
        message = build_histogram(tiny_dist(), params.eps, params.t).weights
        assert validate_histogram_message(message, params)[1] is None
        for t in (5, 7):
            assert validate_histogram_message(message, tiny_params(t=t)) == (None, "malformed-histogram")
        assert validate_histogram_message(message, params)[1] is None
        assert len(compiles) == 1

    def test_other_sampling_gap_gets_its_own_tables(self, compiles):
        wide, narrow = tiny_params(), tiny_params(sampling_gap=2.0)
        message = build_histogram(tiny_dist(), wide.eps, wide.t).weights
        expected = {
            params: verifier_tables(params, tuple(map(Fraction, message)))
            for params in (wide, narrow)
        }
        assert expected[wide] != expected[narrow]
        for params in (wide, narrow, wide, narrow):
            assert tables_for(message, params) == expected[params]
        assert len(compiles) == 4

    def test_equal_params_hit(self, compiles):
        params, equal = tiny_params(), tiny_params()
        assert params is not equal and params == equal
        message = build_histogram(tiny_dist(), params.eps, params.t).weights
        assert tables_for(message, params) is tables_for(message, equal)
        assert len(compiles) == 1

    def test_memo_is_bounded(self, compiles):
        params = tiny_params()
        messages = [tuple([0, 0, 1, 0, 0, 0, 0]) for _ in range(100)]
        for message in messages:
            assert validate_histogram_message(message, params)[1] is None
        assert protocol.TABLES_CACHE_SIZE == 64
        del compiles[:]
        # the newest 64 are kept; the one before them was evicted
        assert validate_histogram_message(messages[-64], params)[1] is None
        assert not compiles
        assert validate_histogram_message(messages[-65], params)[1] is None
        assert len(compiles) == 1


class TestVerifierRound1:
    def test_honest_histogram_continues(self):
        params = tiny_params()
        h = build_histogram(tiny_dist(), params.eps, params.t)
        tables, reason = validate_histogram_message(h.weights, params)
        assert reason is None
        assert {i for ctx in tables.challenges.values() for i in ctx.active} == {1, 2}

    def test_all_zero_rejects(self):
        params = tiny_params()
        assert validate_histogram_message([Fraction(0)] * 7, params) == (None, "histogram-sum")

    def test_boundary_sum_inclusive(self):
        params = tiny_params()
        w = [Fraction(0)] * 7
        w[1] = 1 - Fraction(1, 2**params.n)  # exactly the lower edge
        tables, reason = validate_histogram_message(w, params)
        assert reason is None
        assert {i for ctx in tables.challenges.values() for i in ctx.active} == {1}

    def test_malformed_shapes(self):
        params = tiny_params()
        bad = [Fraction(1, 2)] * 2 + [Fraction(-1, 2)] + [Fraction(1, 2)] * 4
        floats = [0.5, 0, 0, 0, 0, 0, 0.5]
        for weights in ([Fraction(1)] * 3, bad, floats):
            assert validate_histogram_message(weights, params) == (None, "malformed-histogram")

    def test_liveness_threshold(self):
        params = tiny_params()
        thresh = params.live_threshold
        w = [Fraction(0)] * 7
        w[2] = 1 - thresh
        w[4] = thresh  # exactly at threshold: live
        assert compute_live_bands(w, params) == {2, 4}


class TestChooseChallenge:
    def test_concentrated_histogram_forces_interval(self):
        # all mass in band 2: shift -1 holds it in interval 1, shift 0 in
        # interval 1, shift 1 has it in a gap
        params = tiny_params()
        w = [Fraction(0)] * 7
        w[2] = Fraction(1)
        seen = set()
        for seed in range(40):
            ctx, _f, reason = choose_challenge(tables_for(w, params), params, CoinSource(rng=random.Random(seed)))
            assert reason is None
            seen.add((ctx.s, ctx.k))
            assert 2 in ctx.interval
        assert seen == {(-1, 1), (0, 1)}

    def test_m_zero_when_gap_large(self):
        params = tiny_params(sampling_gap=10.0)
        w = build_histogram(tiny_dist(), params.eps, params.t).weights
        ctx, _f, _ = choose_challenge(tables_for(w, params), params, CoinSource(rng=random.Random(0)))
        assert ctx.m == 0
        assert params.sampling_gap <= ctx.g < params.sampling_gap + 1

    def test_m_positive_when_gap_small(self):
        params = tiny_params(sampling_gap=0.25)
        w = [Fraction(0)] * 7
        w[2] = Fraction(1)
        ctx, _f, _ = choose_challenge(tables_for(w, params), params, CoinSource(rng=random.Random(0)))
        # band-mass sum is 2^2 = 4, level 2: m = floor(2 - 0.25) = 1 and
        # g = 0.25 + frac(1.75) = 1.0, so level - g = m exactly
        assert ctx.m == 1
        assert ctx.g == pytest.approx(1.0)
        assert math.log2(ctx.band_mass_sum) - ctx.g == pytest.approx(ctx.m)

    def test_width_and_offset_invariants(self):
        # across many histograms: the hash width is a nonnegative integer,
        # the offset lies in [sampling_gap, sampling_gap + 1), and the two
        # recover the band-mass level exactly
        rng = random.Random(12)
        for gap in (0.0, 0.5, 2.25, 6.0):
            params = tiny_params(sampling_gap=gap)
            for trial in range(25):
                parts = [rng.randrange(1, 8) for _ in range(3)]
                total = sum(parts)
                w = [Fraction(0)] * 7
                positions = rng.sample(range(7), 3)
                for pos, part in zip(positions, parts):
                    w[pos] = Fraction(part, total)
                ctx, _f, reason = choose_challenge(tables_for(w, params), params, CoinSource(rng=random.Random(trial)))
                if reason is not None:
                    continue
                assert isinstance(ctx.m, int) and ctx.m >= 0
                assert gap <= ctx.g < gap + 1
                level = math.log2(ctx.band_mass_sum)
                if ctx.m > 0:
                    assert level - ctx.g == pytest.approx(ctx.m)

    def test_hash_width_guard(self):
        # adversarial histogram with huge band-mass sum forces m > n
        params = tiny_params(t=40, sampling_gap=0.0, eps=1.0)
        w = [Fraction(0)] * 41
        w[40] = Fraction(1)  # band-mass sum 2^40, m = 40 > n = 3
        ctx, _f, reason = choose_challenge(tables_for(w, params), params, CoinSource(rng=random.Random(0)))
        assert reason == "hash-width"

    def test_hash_width_reject_compiles_no_window(self):
        # At t * eps = 1023 the band-mass sum still fits a float, but the
        # upper window edge 2**((t + 1) * eps) of band t does not; a challenge
        # with m > n is rejected before check (b), so it has no windows.
        params = tiny_params(t=1023)
        w = [Fraction(0)] * 1024
        w[1023] = Fraction(1)
        tables = tables_for(w, params)
        assert all(ctx.m > params.n and ctx.windows == () for ctx in tables.challenges.values())

        class AllInBandT(ProverStrategy):
            def produce_histogram(self):
                return w

        tr = run_protocol(params, AllInBandT(), rng=random.Random(0))
        assert tr.outcome.reason == "hash-width"


def compiled_context(weights, params, s, k):
    """The verifier's compiled context of challenge (s, k) for a histogram."""
    return tables_for(weights, params).challenges[(s, k)]


M0_HASH = HashFunction(n=3, m=0, a=0, b=0, c=0)


class TestCheckSets:
    def setup_method(self):
        self.params = tiny_params()
        w = build_histogram(tiny_dist(), 1.0, 6).weights
        # shift -1, interval 1 covers bands {1, 2}, both live, at m = 0
        self.ctx = compiled_context(w, self.params, -1, 1)
        assert self.ctx.active == (1, 2) and self.ctx.m == 0

    def test_honest_buckets_pass(self):
        sets = {1: [0], 2: [3, 5]}
        normalized, reason = check_sets(sets, M0_HASH, self.ctx, self.params)
        assert reason is None
        assert normalized == {1: (0,), 2: (3, 5)}

    def test_duplicate_across_sets_fails_disjointness(self):
        sets = {1: [0, 3], 2: [3, 5]}
        _, reason = check_sets(sets, M0_HASH, self.ctx, self.params)
        assert reason == "check-c"

    def test_bad_hash_fails_a(self):
        ctx = replace(self.ctx, g=1.0, m=1)
        f = HashFunction(n=3, m=1, a=0, b=0, c=1)  # h(x)=1 for all x
        _, reason = check_sets({1: [0], 2: [3]}, f, ctx, self.params)
        assert reason == "check-a"

    def test_cardinality_window_fails_b(self):
        sets = {1: [0], 2: []}  # band 2 holds mass 1/2: needs 2^2*h=2 elements
        _, reason = check_sets(sets, M0_HASH, self.ctx, self.params)
        assert reason == "check-b"

    def test_wrong_keys_malformed(self):
        _, reason = check_sets({1: [0]}, M0_HASH, self.ctx, self.params)
        assert reason == "malformed-sets"
        _, reason = check_sets({1: [0], 2: [3, 5], 4: []}, M0_HASH, self.ctx, self.params)
        assert reason == "malformed-sets"

    def test_duplicate_within_set_malformed(self):
        _, reason = check_sets({1: [0, 0], 2: [3, 5]}, M0_HASH, self.ctx, self.params)
        assert reason == "malformed-sets"

    def test_oversize_guard_before_hashing(self):
        params = tiny_params(set_cap=2)
        _, reason = check_sets({1: [0], 2: [3, 5]}, M0_HASH, self.ctx, params)
        assert reason == "oversize"

    def test_duplicate_with_overlap_malformed(self):
        """A duplicate inside one set is malformed even when the sets also
        overlap, which alone would fail check (c)."""
        _, reason = check_sets({1: [0, 3], 2: [3, 5, 5]}, M0_HASH, self.ctx, self.params)
        assert reason == "malformed-sets"

    def test_overlap_with_check_a_miss_fails_a(self):
        ctx = replace(self.ctx, g=1.0, m=1)
        f = HashFunction(n=3, m=1, a=0, b=0, c=1)  # h(x)=1 for all x
        _, reason = check_sets({1: [0, 3], 2: [3, 5]}, f, ctx, self.params)
        assert reason == "check-a"

    def test_overlap_with_window_miss_fails_b(self):
        # band 2 needs at least 2 elements
        _, reason = check_sets({1: [0, 3], 2: [3]}, M0_HASH, self.ctx, self.params)
        assert reason == "check-b"

    def test_duplicate_in_oversize_answer_malformed(self):
        params = tiny_params(set_cap=2)
        _, reason = check_sets({1: [0, 0], 2: [3, 5]}, M0_HASH, self.ctx, params)
        assert reason == "malformed-sets"


def scalar_check_sets(sets, f, ctx, params):
    """Reference for ``check_sets`` on elements that are exact ints or
    bools: the same checks in the same order, with check (a) as one scalar
    ``eval`` per listed element."""
    if sets is None or sets.keys() != set(ctx.active):
        return None, "malformed-sets"
    normalized = {}
    total = 0
    for i in ctx.active:
        xs = sets[i]
        if any((not isinstance(x, int)) or x < 0 or (x >> params.n) for x in xs):
            return None, "malformed-sets"
        if len(set(xs)) != len(xs):
            return None, "malformed-sets"
        normalized[i] = tuple(sorted(xs))
        total += len(xs)
    if total > params.set_cap:
        return None, "oversize"
    for i in ctx.active:
        for x in normalized[i]:
            if f.eval(x) != 0:
                return None, "check-a"
    for i, (lo, hi) in zip(ctx.active, ctx.windows):
        if not (lo * (1.0 - TAU) <= len(normalized[i]) <= hi * (1.0 + TAU)):
            return None, "check-b"
    seen = set()
    for i in ctx.active:
        for x in normalized[i]:
            if x in seen:
                return None, "check-c"
            seen.add(x)
    return normalized, None


def two_level_instance(n, size, t, sampling_gap):
    """An honest prover over ``size`` random n-bit elements at two mass
    levels (1:3), as in the estimate-wide benchmark, with its params."""
    rng = random.Random(0)
    support = rng.sample(range(1 << n), size)
    mass = {x: Fraction(3 if i % 2 else 1, 2 * size) for i, x in enumerate(support)}
    params = ProtocolParams.raw(n=n, eps=0.5, delta=0.5, t=t, sampling_gap=sampling_gap)
    return honest_prover(ExplicitDistribution(n=n, mass=mass), params), params


# The estimate-wide instance (n = 16, 4096 elements, hash widths 4 and 5,
# about 120 listed elements per run) and one at n = 9, past the 8-bit lane.
WIDE_INSTANCES = {
    16: two_level_instance(16, 4096, 64, 6.0),
    9: two_level_instance(9, 256, 40, 3.0),
}

SETS_EDITS = [
    "reorder", "outside", "empty", "grow", "share", "dup", "bool", "top", "over", "neg", "float",
]


def edit_sets(sets, edits, f, rng):
    """The honest sets with each (op, pos) edit applied to the band at
    position pos: well-formed edits that reach checks (a) to (c), and
    elements that are bools, the top element, out of range or not ints."""
    out = {i: list(xs) for i, xs in sets.items()}
    n = f.n

    def draw(zero):
        # a random element inside (zero) or outside the zero set, if found
        for _ in range(512):
            x = rng.getrandbits(n)
            if (f.eval(x) == 0) == zero:
                return [x]
        return []

    for op, pos in edits:
        if not out:
            break
        keys = list(out)
        band = keys[pos % len(keys)]
        xs = out[band]
        if op == "reorder":
            xs.reverse()
        elif op == "outside":
            xs[:1] = draw(False)
        elif op == "empty":
            xs.clear()
        elif op == "grow":
            held = {x for ys in out.values() for x in ys}
            xs.extend(x for x in draw(True) * (pos + 1) if x not in held)
        elif op == "share":
            xs.extend([x for i in keys if i != band for x in out[i] if x not in xs][:1])
        elif op == "dup":
            xs.extend(xs[:1])
        elif op == "bool":
            xs.append(bool(pos & 1))
        elif op == "top":
            xs.append((1 << n) - 1)
        elif op == "over":
            xs.append(1 << n)
        elif op == "neg":
            xs.append(-1 - pos)
        elif op == "float":
            xs.append(float(pos))
    return out


class TestCheckSetsAgainstScalarReference:
    @given(
        st.sampled_from(sorted(WIDE_INSTANCES)),
        st.integers(0, 2**32),
        st.lists(st.tuples(st.sampled_from(SETS_EDITS), st.integers(0, 3)), max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_verdict_as_scalar_eval(self, n, seed, edits):
        """On honest answers and edits of them, check_sets returns exactly
        the reference's normalized sets (element types included) and reject
        reason."""
        honest, params = WIDE_INSTANCES[n]
        tables, _ = validate_histogram_message(honest.produce_histogram(), params)
        ctx, f, _ = choose_challenge(tables, params, CoinSource(rng=random.Random(seed)))
        sets = edit_sets(honest.produce_sets(ctx.s, ctx.k, f, ctx.g, ctx.m), edits, f, random.Random(seed))
        record = parse_sets(sets)
        got = check_sets(record, f, ctx, params)
        want = scalar_check_sets(record, f, ctx, params)
        assert repr(got) == repr(want)

    def test_reference_sees_every_verdict(self):
        """The edits reach every verdict of check_sets on the wide instances."""
        verdicts = set()
        rng = random.Random(5)
        for seed in range(300):
            honest, params = WIDE_INSTANCES[(9, 16)[seed % 2]]
            tables, _ = validate_histogram_message(honest.produce_histogram(), params)
            ctx, f, _ = choose_challenge(tables, params, CoinSource(rng=random.Random(seed)))
            edits = [(rng.choice(SETS_EDITS), rng.randrange(4)) for _ in range(rng.randrange(3))]
            sets = edit_sets(honest.produce_sets(ctx.s, ctx.k, f, ctx.g, ctx.m), edits, f, rng)
            record = parse_sets(sets)
            got = check_sets(record, f, ctx, params)
            assert repr(got) == repr(scalar_check_sets(record, f, ctx, params))
            verdicts.add(got[1])
        assert verdicts >= {None, "malformed-sets", "check-a", "check-b", "check-c"}


class LyingInt(int):
    """An int subclass whose bit operations lie (``&`` gives a str, ``>>``
    gives 0) and whose comparisons, hashing and conversions raise, so a
    verifier that runs any of them fails."""

    def __and__(self, other):
        return "lie"

    __rand__ = __and__

    def __rshift__(self, other):
        return 0

    def _refuse(self, *args):
        raise AssertionError("the verifier ran a method of a prover's int subclass")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = __hash__ = _refuse
    __index__ = __int__ = __bool__ = _refuse


class LyingSetsProver(ProverStrategy):
    """An inner prover whose set elements are handed over as ``LyingInt``s,
    plus the elements of ``extra`` in the first band."""

    def __init__(self, inner, extra=()):
        self.inner = inner
        self.extra = extra

    def produce_histogram(self):
        return self.inner.produce_histogram()

    def produce_sets(self, s, k, f, g, m):
        sets = {i: [LyingInt(x) for x in xs] for i, xs in self.inner.produce_sets(s, k, f, g, m).items()}
        if sets and self.extra:
            sets[min(sets)] += [LyingInt(x) for x in self.extra]
        return sets

    def produce_probability(self, j, x):
        return self.inner.produce_probability(j, x)


class TestIntSubclassElements:
    @pytest.mark.parametrize("seed", range(5))
    def test_runs_read_exact_values(self, seed):
        """On the estimate-wide instance the verifier reads each element's
        exact value: the run ends as the honest run does, and replays to
        the same bytes."""
        honest, params = WIDE_INSTANCES[16]
        prover = LyingSetsProver(honest)
        tr = run_protocol(params, prover, rng=random.Random(seed))
        assert tr.outcome == run_protocol(params, honest, rng=random.Random(seed)).outcome
        assert type(tr.outcome.x) is int
        assert replay(params, prover, tr).to_json() == tr.to_json()

    @pytest.mark.parametrize("extra", [(1 << 16,), (-1,), (2**70,)])
    def test_exact_value_out_of_range_is_malformed(self, extra):
        honest, params = WIDE_INSTANCES[16]
        prover = LyingSetsProver(honest, extra)
        for seed in range(3):
            tr = run_protocol(params, prover, rng=random.Random(seed))
            assert tr.outcome.reason == "malformed-sets"
            assert replay(params, prover, tr).to_json() == tr.to_json()

    def test_check_sets_normalizes_to_exact_ints(self):
        params = tiny_params()
        w = build_histogram(tiny_dist(), 1.0, 6).weights
        ctx = compiled_context(w, params, -1, 1)
        sets = {1: [LyingInt(0)], 2: [LyingInt(5), True]}
        normalized, reason = check_sets(sets, M0_HASH, ctx, params)
        assert reason is None
        assert repr(normalized) == repr({1: (0,), 2: (True, 5)})


class LyingBand(LyingInt):
    """A ``LyingInt`` that hashes as its value, so a prover can key a dict
    by it; comparing it still raises."""

    __hash__ = int.__hash__


class TwinBand(int):
    """An int subclass equal only to itself, so a dict can hold it beside
    the exact int of the same value."""

    __hash__ = int.__hash__

    def __eq__(self, other):
        return self is other


class RefusingFormat(int):
    """An int subclass whose ``format`` raises."""

    def __format__(self, spec):
        raise AssertionError("the transcript ran a method of a prover's int subclass")


class RekeyedSetsProver(LyingSetsProver):
    """An inner prover whose sets are handed over with each band key and
    each element passed through ``band`` and ``element``."""

    def __init__(self, inner, band=int, element=int):
        super().__init__(inner)
        self.band, self.element = band, element

    def produce_sets(self, s, k, f, g, m):
        sets = self.inner.produce_sets(s, k, f, g, m)
        return {self.band(i): [self.element(x) for x in xs] for i, xs in sets.items()}


class TestIntSubclassBands:
    @pytest.mark.parametrize("seed", range(3))
    def test_runs_read_exact_bands(self, seed):
        """Band keys whose comparisons raise are read by their exact values:
        the run and its replay give the honest run's transcript bytes."""
        params = tiny_params()
        honest = honest_prover(tiny_dist(), params)
        prover = RekeyedSetsProver(honest, band=LyingBand)
        tr = run_protocol(params, prover, rng=random.Random(seed))
        assert tr.to_json() == run_protocol(params, honest, rng=random.Random(seed)).to_json()
        assert replay(params, prover, tr).to_json() == tr.to_json()

    def test_two_bands_of_one_value_are_malformed(self):
        params = tiny_params()
        honest = honest_prover(tiny_dist(), params)

        class Twins(LyingSetsProver):
            def produce_sets(self, s, k, f, g, m):
                sets = self.inner.produce_sets(s, k, f, g, m)
                return {**sets, TwinBand(min(sets)): []}

        prover = Twins(honest)
        assert parse_sets({TwinBand(1): [0], 1: [3]}) is None
        for seed in range(3):
            tr = run_protocol(params, prover, rng=random.Random(seed))
            assert tr.outcome.reason == "malformed-sets"
            assert replay(params, prover, tr).to_json() == tr.to_json()

    @pytest.mark.parametrize("seed", range(3))
    def test_transcript_renders_exact_elements(self, seed):
        """Elements whose ``format`` raises are rendered by their exact
        values, as the honest run's are."""
        params = tiny_params()
        honest = honest_prover(tiny_dist(), params)
        prover = RekeyedSetsProver(honest, element=RefusingFormat)
        tr = run_protocol(params, prover, rng=random.Random(seed))
        assert tr.to_json() == run_protocol(params, honest, rng=random.Random(seed)).to_json()


class TestChooseElement:
    def test_certain_pick(self):
        params = tiny_params()
        w = [Fraction(0)] * 7
        w[2] = Fraction(1)
        ctx = compiled_context(w, params, -1, 1)
        sets = {2: (6,)}
        picked, reason = choose_element(ctx, sets, CoinSource(rng=random.Random(0)))
        assert reason is None and picked == (2, 6)

    def test_band_below_threshold_rejects(self):
        params = tiny_params()
        w = [Fraction(0)] * 7
        tiny = params.live_threshold / 2
        w[1] = tiny
        w[2] = 1 - tiny
        ctx = compiled_context(w, params, -1, 1)
        sets = {2: (3, 5)}  # band 1 is not live, so no set for it
        rejected = False
        for seed in range(60):
            picked, reason = choose_element(ctx, sets, CoinSource(rng=random.Random(seed)))
            if reason is not None:
                assert reason == "band-not-live"
                rejected = True
        assert rejected

    def test_empty_set_rejects(self):
        params = tiny_params()
        w = [Fraction(0)] * 7
        w[2] = Fraction(1)
        ctx = compiled_context(w, params, -1, 1)
        picked, reason = choose_element(ctx, {2: ()}, CoinSource(rng=random.Random(0)))
        assert reason == "empty-set"


class TestFinalize:
    def test_honest_probability_kept_verbatim(self):
        params = tiny_params()
        out = finalize(2, 5, Fraction(1, 4), params)
        assert out.p == Fraction(1, 4) and isinstance(out.p, Fraction)

    def test_out_of_band_substituted(self):
        params = tiny_params()
        out = finalize(2, 5, Fraction(1), params)  # 1 is in band 0, not band 2
        assert out.p == Fraction(1, 4)

    def test_zero_substituted(self):
        params = tiny_params()
        assert finalize(2, 5, Fraction(0), params).p == Fraction(1, 4)

    def test_irrational_substitute_tagged_real(self):
        params = ProtocolParams.raw(n=3, eps=0.5, delta=0.5, t=6, sampling_gap=4.0,
                                    gap_size=1, interval_size=2)
        out = finalize(3, 5, Fraction(0), params)
        assert isinstance(out.p, float)
        assert out.p == pytest.approx(2 ** -1.5)


class TestRunProtocol:
    def test_honest_outputs_exact_probability(self):
        params = tiny_params()
        dist = tiny_dist()
        prover = honest_prover(dist, params)
        rng = random.Random(17)
        outcomes = [run_protocol(params, prover, rng=rng).outcome for _ in range(300)]
        for out in outcomes:
            if out.kind == "output":
                assert out.p == dist.prob(out.x)

    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=5, unique=False),
        st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_honest_outcomes_fuzz(self, parts, seed):
        # random rational distribution: every honest output is exact
        total = sum(parts)
        dist = ExplicitDistribution(
            n=3, mass={x: Fraction(w, total) for x, w in enumerate(parts)}
        )
        params = tiny_params(sampling_gap=1.0)
        prover = honest_prover(dist, params)
        out = run_protocol(params, prover, rng=random.Random(seed)).outcome
        if out.kind == "output":
            assert out.p == dist.prob(out.x)
        else:
            assert out.reason in ("check-b", "band-not-live", "empty-set")

    def test_malformed_histogram_rejects_round1(self):
        params = tiny_params()

        class NoHistogram(ProverStrategy):
            def produce_histogram(self):
                return None

        tr = run_protocol(params, NoHistogram(), rng=random.Random(0))
        assert tr.outcome.kind == "reject"
        assert tr.outcome.reason == "malformed-histogram"
        assert len(tr.messages) == 1

    def test_seeded_runs_identical(self):
        params = tiny_params()
        prover = honest_prover(tiny_dist(), params)
        t1 = run_protocol(params, prover, rng=random.Random(99))
        t2 = run_protocol(params, prover, rng=random.Random(99))
        assert t1.to_json() == t2.to_json()

    def test_replay_reproduces_messages(self):
        params = tiny_params(sampling_gap=0.5)
        prover = honest_prover(tiny_dist(), params)
        for seed in range(20):
            tr = run_protocol(params, prover, rng=random.Random(seed))
            again = replay(params, prover, tr)
            assert again.to_json() == tr.to_json()

    def test_conservation_over_trials(self):
        params = tiny_params(sampling_gap=0.5)
        prover = honest_prover(tiny_dist(), params)
        rng = random.Random(4)
        outputs = rejects = 0
        for _ in range(500):
            out = run_protocol(params, prover, rng=rng).outcome
            outputs += out.kind == "output"
            rejects += out.kind == "reject"
        assert outputs + rejects == 500


def with_rows(f, rows):
    """A HashFunction equal to f but holding the tuple ``rows``, built as
    ``members_sharing_rows`` builds members, so its type is exactly
    HashFunction."""
    g = object.__new__(HashFunction)
    g.__dict__.update(vars(f), rows=rows)
    return g


class PlannerProver(HonestProver):
    """An n = 4 ``HonestProver`` whose ``_choose_sets`` is a sets answer
    reading f only through its zero set over [0, 16); ``planned`` lists
    the (s, k, c) it was worked out for."""

    def __init__(self):
        params = ProtocolParams.raw(n=4, eps=1.0, delta=0.5, t=8, gap_size=1, interval_size=2)
        super().__init__(ExplicitDistribution.point(4, 0), params)
        self.planned = []

    def _choose_sets(self, s, k, f, g, m):
        self.planned.append((s, k, f.c))
        return {k: [x for x in range(16) if f.eval(x) == 0]}


class TestZeroSetMemo:
    """``HonestProver.produce_sets`` keeps each answer once per zero set of
    the current hash rows."""

    def test_answers_once_per_zero_set_of_the_current_rows(self):
        prover = PlannerProver()
        planned = prover.planned
        members = members_sharing_rows(4, 2, 3, 5)
        for f in members:
            for k in (0, 1):
                assert prover.produce_sets(0, k, f, 1.0, 2) == prover._choose_sets(0, k, f, 1.0, 2)
        del planned[:]
        # c = 0 .. 3 hold the four zero sets; c >= 4 repeats them
        for f in members:
            prover.produce_sets(0, 1, f, 1.0, 2)
        assert planned == []

    def test_a_new_rows_tuple_clears_the_memo(self):
        """Rows are compared by identity: an equal tuple that is another
        object is planned afresh, and so is the first tuple after it."""
        prover = PlannerProver()
        f = HashFunction(n=4, m=2, a=3, b=5, c=1)
        twin = with_rows(f, tuple(list(f.rows)))
        assert twin.rows == f.rows and twin.rows is not f.rows
        for h in (f, f, twin, twin, f):
            prover.produce_sets(0, 1, h, 1.0, 2)
        assert prover.planned == [(0, 1, 1)] * 3

    def test_a_freed_rows_tuple_cannot_alias_the_next(self):
        """The memo holds the rows tuple it keys by, so a tuple freed by
        everyone else cannot hand its id to the next one."""
        prover = PlannerProver()
        f = HashFunction(n=4, m=2, a=3, b=5, c=1)
        other = HashFunction(n=4, m=2, a=9, b=2, c=1)
        assert other.rows != f.rows
        for _ in range(20):
            # a fresh copy of f's rows, referenced only by the memo once
            # the loop drops it, then a fresh copy of other's rows
            prover.produce_sets(0, 1, with_rows(f, tuple(list(f.rows))), 1.0, 2)
            h = with_rows(other, tuple(list(other.rows)))
            assert prover.produce_sets(0, 1, h, 1.0, 2) == prover._choose_sets(0, 1, h, 1.0, 2)

    def test_every_call_returns_fresh_lists(self):
        prover = PlannerProver()
        f = HashFunction(n=4, m=0, a=0, b=0, c=0)
        first = prover.produce_sets(0, 1, f, 1.0, 0)
        first[1].append(99)
        first[7] = [1]
        assert prover.produce_sets(0, 1, f, 1.0, 0) == {1: list(range(16))}
        assert len(prover.planned) == 1

    def test_other_hash_types_are_answered_directly(self):
        class Subclass(HashFunction):
            pass

        prover = PlannerProver()
        f = Subclass(n=4, m=2, a=3, b=5, c=1)
        for _ in range(3):
            assert prover.produce_sets(0, 1, f, 1.0, 2) == prover._choose_sets(0, 1, f, 1.0, 2)
        assert len(prover.planned) == 6

    def test_memo_answers_keep_exact_types(self):
        """A kept answer loads back with the worked-out answer's container
        and element types: bools stay bools, tuples stay tuples."""

        class Mixed(PlannerProver):
            def _choose_sets(self, s, k, f, g, m):
                out = super()._choose_sets(s, k, f, g, m)
                return {k: out[k][:2] + [True, False], k + 1: tuple(out[k][2:4])}

        prover = Mixed()
        f = HashFunction(n=4, m=0, a=0, b=0, c=0)
        want = prover._choose_sets(0, 1, f, 1.0, 0)
        answers = [prover.produce_sets(0, 1, f, 1.0, 0) for _ in range(3)]
        assert len(prover.planned) == 2  # the direct answer and the first call
        for got in answers:
            assert repr(got) == repr(want)
            assert [type(xs) for xs in got.values()] == [list, tuple]
            assert [type(x) for x in got[1]] == [int, int, bool, bool]

    @pytest.mark.parametrize("kind", ["int-subclass", "array"])
    def test_answers_marshal_cannot_keep_are_answered_directly(self, kind):
        """An honest support of int-subclass elements (which marshal
        refuses), or an answer listing an array (which marshal would write
        as bytes), is worked out on every call, equal to the direct answer,
        and fresh."""

        class Element(int):
            pass

        class Counting(HonestProver):
            calls = 0

            def _choose_sets(self, s, k, f, g, m):
                self.calls += 1
                out = super()._choose_sets(s, k, f, g, m)
                if kind == "array":
                    out = {i: array("q", xs) for i, xs in out.items()}
                return out

        params = tiny_params()
        dist = tiny_dist()
        if kind == "int-subclass":
            # ExplicitDistribution reads its keys with int(); put the
            # subclass back, as a support built elsewhere could hold it
            object.__setattr__(dist, "mass", {Element(x): p for x, p in dist.mass.items()})
        prover = Counting(dist, params)
        f = HashFunction(n=3, m=0, a=0, b=0, c=0)
        want = prover._choose_sets(-1, 1, f, params.sampling_gap, 0)
        assert {i: list(xs) for i, xs in want.items()} == {1: [0], 2: [3, 5]}
        answers = [prover.produce_sets(-1, 1, f, params.sampling_gap, 0) for _ in range(3)]
        assert prover.calls == 4
        for got in answers:
            assert got == want and repr(got) == repr(want)
        element_type = Element if kind == "int-subclass" else int
        assert {type(x) for xs in answers[0].values() for x in xs} == {element_type}
        ids = [id(xs) for got in answers for xs in got.values()]
        assert len(set(ids)) == len(ids)

    def test_memo_answers_equal_direct_answers_on_the_wide_instance(self):
        """On the estimate-wide instance (n = 16, m > 0), a hash's answer
        and those of its siblings sharing its rows equal the direct answers,
        whether worked out or loaded from the memo."""
        honest, params = WIDE_INSTANCES[16]
        prover = HonestProver(honest.dist, params)
        tables, _ = validate_histogram_message(prover.produce_histogram(), params)
        rng = random.Random(3)
        for seed in range(4):
            ctx, f, _ = choose_challenge(tables, params, CoinSource(rng=random.Random(seed)))
            assert ctx.m > 0
            siblings = [f] + [with_rows(replace(f, c=rng.getrandbits(16)), f.rows) for _ in range(3)]
            for h in siblings * 2:
                want = prover._choose_sets(ctx.s, ctx.k, h, ctx.g, ctx.m)
                got = prover.produce_sets(ctx.s, ctx.k, h, ctx.g, ctx.m)
                assert repr(got) == repr(want)
            assert len(prover._answers) <= len(siblings)


class TestHonestProver:
    def test_m_zero_sends_whole_buckets(self):
        params = tiny_params()
        dist = tiny_dist()
        prover = honest_prover(dist, params)
        f = HashFunction(n=3, m=0, a=0, b=0, c=0)
        sets = prover.produce_sets(-1, 1, f, params.sampling_gap, 0)
        assert sets == {1: [0], 2: [3, 5]}

    def test_filtered_elements_hash_to_zero(self):
        params = tiny_params(sampling_gap=0.5)
        dist = tiny_dist()
        prover = honest_prover(dist, params)
        rng = random.Random(2)
        for _ in range(30):
            f = sample_hash(3, 1, rng)
            sets = prover.produce_sets(-1, 1, f, 1.0, 1)
            for xs in sets.values():
                assert all(f.eval(x) == 0 for x in xs)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            honest_prover(ExplicitDistribution.point(4, 0), tiny_params())

    @staticmethod
    def n16_instance(rng):
        # Three mass levels land in bands 18, 21 and 22. With intervals of
        # two bands, many intervals hold no members, one holds bands 21 and
        # 22, and every member band ends some interval.
        support = rng.sample(range(1 << 16), 1152)
        mass = {x: Fraction(1, 512) for x in support[:256]}
        mass.update({x: Fraction(1, 1536) for x in support[256:640]})
        mass.update({x: Fraction(1, 2048) for x in support[640:]})
        dist = ExplicitDistribution(n=16, mass=mass)
        return dist, ProtocolParams.raw(n=16, eps=0.5, delta=0.5, t=64, gap_size=1, interval_size=2)

    def test_sets_match_scalar_filter_at_n16(self):
        rng = random.Random(3)
        dist, params = self.n16_instance(rng)
        prover = honest_prover(dist, params)
        members = buckets(dist, params.eps, params.t)
        live = compute_live_bands(prover.histogram.weights, params)
        layout = params.layout
        for trial in range(40):
            f = sample_hash(16, trial % 7, rng)
            for s in layout.shifts:
                for k in layout.index_range:
                    interval = layout.interval(s, k)
                    sets = prover.produce_sets(s, k, f, params.sampling_gap, f.m)
                    expected = {
                        i: [x for x in sorted(members.get(i, ())) if f.eval(x) == 0]
                        for i in interval if i in live
                    }
                    assert sets == expected
                    assert all(type(x) is int for xs in sets.values() for x in xs)

    @pytest.mark.parametrize("n", [4, 16])
    def test_m_zero_sets_match_scalar_filter(self, n):
        """At m = 0 the hash has no rows, so its batch keeps every input;
        the sets equal the scalar filter, and editing one answer leaves the
        next one whole."""
        rng = random.Random(n)
        if n == 16:
            dist, params = self.n16_instance(rng)
        else:
            masses = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(1, 8), Fraction(1, 8))
            dist = ExplicitDistribution(n=4, mass=dict(zip(rng.sample(range(16), 5), masses)))
            params = ProtocolParams.raw(
                n=4, eps=1.0, delta=0.5, t=8, gap_size=1, interval_size=2, sampling_gap=1.0,
            )
        prover = honest_prover(dist, params)
        members = buckets(dist, params.eps, params.t)
        live = compute_live_bands(prover.histogram.weights, params)
        layout = params.layout
        nonempty = 0
        for s in layout.shifts:
            for k in layout.index_range:
                f = sample_hash(n, 0, rng)
                expected = {
                    i: [x for x in sorted(members.get(i, ())) if f.eval(x) == 0]
                    for i in layout.interval(s, k) if i in live
                }
                sets = prover.produce_sets(s, k, f, params.sampling_gap, 0)
                assert sets == expected
                assert all(type(x) is int for xs in sets.values() for x in xs)
                for xs in sets.values():
                    nonempty += bool(xs)
                    xs.append(-1)
                assert prover.produce_sets(s, k, f, params.sampling_gap, 0) == expected
        assert nonempty

    def test_seeded_n16_transcript_pinned(self):
        rng = random.Random(5)
        support = rng.sample(range(1 << 16), 512)
        mass = {x: Fraction(3, 1024) if i % 2 else Fraction(1, 1024) for i, x in enumerate(support)}
        dist = ExplicitDistribution(n=16, mass=mass)
        params = ProtocolParams.raw(n=16, eps=0.5, delta=0.5, t=64, sampling_gap=4.0)
        tr = run_protocol(params, honest_prover(dist, params), rng=random.Random(1))
        assert tr.outcome.kind == "output"
        digest = hashlib.sha256(tr.to_json().encode()).hexdigest()
        assert digest == "ef4147b74aa32fa6c7fc3b0ca41082827f13cbf1929e0f22bb9e64a096f2f848"


class TestChallengeWidth:
    def test_matches_float_formula_without_underflow(self):
        rng = random.Random(4)
        for _ in range(200):
            params = tiny_params(
                eps=rng.choice([1.0, 0.5, 0.3]), sampling_gap=rng.choice([0.5, 1.0, 2.7, 4.0])
            )
            weights = [Fraction(rng.randrange(50), rng.randrange(1, 400)) for _ in range(params.t + 1)]
            for s in params.layout.shifts:
                for k in params.layout.index_range:
                    interval = params.layout.interval(s, k)
                    z = band_mass_sum(weights, interval, params.eps)
                    if z == 0:
                        continue
                    level = math.log2(z)
                    m = max(0, math.floor(level - params.sampling_gap))
                    frac_part = (level - params.sampling_gap) - math.floor(level - params.sampling_gap)
                    assert challenge_width(weights, interval, z, params) == (
                        m, params.sampling_gap + frac_part
                    )

    def test_underflow_uses_exact_logs(self):
        params = tiny_params()
        weights = [Fraction(0)] * 7
        weights[5] = Fraction(1, 2**1201)
        weights[6] = Fraction(1, 2**1201)
        z = band_mass_sum(weights, (5, 6), params.eps)
        assert z == 0
        # level = log2(2**5 / 2**1201 + 2**6 / 2**1201) = log2(3) - 1196
        m, g = challenge_width(weights, (5, 6), z, params)
        assert m == 0
        assert g == pytest.approx(params.sampling_gap + (math.log2(3) - 1196 - params.sampling_gap) % 1)


class TestTrivialProtocol:
    def test_exact_output_distribution(self):
        params = derive_params(8, 0.5, 0.5)
        assert params.mode == MODE_TRIVIAL
        dist = ExplicitDistribution(n=8, mass={0: Fraction(1, 2), 255: Fraction(1, 2)})
        prover = honest_prover(dist, params)
        rng = random.Random(0)
        counts = {}
        for _ in range(2000):
            out = run_protocol(params, prover, rng=rng).outcome
            assert out.kind == "output"
            assert out.p == dist.prob(out.x)
            counts[out.x] = counts.get(out.x, 0) + 1
        assert counts[0] / 2000 == pytest.approx(0.5, abs=0.05)

    def test_invalid_table_rejects(self):
        params = derive_params(8, 0.5, 0.5)

        class ShortTable(ProverStrategy):
            def produce_table(self):
                return [(0, Fraction(9, 10))]

        tr = trivial_protocol(params, ShortTable(), rng=random.Random(0))
        assert tr.outcome.reason == "malformed-table"

    def test_duplicate_element_rejects(self):
        params = derive_params(8, 0.5, 0.5)

        class DupTable(ProverStrategy):
            def produce_table(self):
                return [(0, Fraction(1, 2)), (0, Fraction(1, 2))]

        tr = trivial_protocol(params, DupTable(), rng=random.Random(0))
        assert tr.outcome.reason == "malformed-table"
