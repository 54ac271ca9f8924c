"""Compiling private-coin interactive proofs into public-coin ones.

The compiler replaces each hidden-coin verifier message with an execution
of the sampling protocol on the message's conditional distribution given
the transcript so far, and finally samples a full coin string consistent
with the whole conversation. The wrapped verifier accepts when the
original verifier accepts on the sampled coins and the product of the
sampled probabilities telescopes to exactly 2**-coin_bits.

Conditional distributions are computed exactly by enumerating all coin
strings (budgeted at 24 coin bits), which doubles as the honest unbounded
prover. A toy one-round protocol for multiset distinctness provides a
concrete private-coin verifier with completeness exactly 1 and soundness
exactly 1/2.
"""

from __future__ import annotations

import copy
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from coinpress.dist import ExplicitDistribution
from coinpress.harness import split_seed
from coinpress.protocol import (
    HonestProver,
    ProtocolParams,
    ProverStrategy,
    run_protocol,
)

MAX_COIN_BITS = 24


class ZeroProbabilityPrefixError(ValueError):
    """No coin string is consistent with the given transcript prefix."""


@dataclass(frozen=True)
class PrivateCoinProtocolSpec:
    """A k-round private-coin protocol with explicit verifier functions.

    ``next_message(x, i, r, answers)`` must be a pure function returning the
    verifier's round-i message on coins r after the given prover answers;
    ``verdict(x, r, messages, answers)`` returns the bare accept decision.
    The engine enforces transcript consistency on top of ``verdict``: any
    transcript whose recorded messages disagree with a replay of
    ``next_message`` is rejected outright.
    """

    rounds: int
    coin_bits: int
    message_bits: int
    next_message: Callable[[object, int, int, tuple], int]
    verdict: Callable[[object, int, tuple, tuple], bool]

    def __post_init__(self):
        if self.coin_bits > MAX_COIN_BITS:
            raise ValueError(f"coin_bits > {MAX_COIN_BITS} is not enumerable")
        if self.rounds < 1:
            raise ValueError("at least one round")


def is_consistent(spec: PrivateCoinProtocolSpec, x, r: int, messages: Sequence[int], answers: Sequence[int]) -> bool:
    for i, m in enumerate(messages):
        if spec.next_message(x, i, r, tuple(answers[:i])) != m:
            return False
    return True


def accepts(spec: PrivateCoinProtocolSpec, x, r: int, messages: Sequence[int], answers: Sequence[int]) -> bool:
    """Verdict with consistency enforcement."""
    if len(messages) != spec.rounds or len(answers) != spec.rounds:
        return False
    if not is_consistent(spec, x, r, messages, answers):
        return False
    return bool(spec.verdict(x, r, tuple(messages), tuple(answers)))


def _consistent_coins(spec, x, messages, answers) -> list[int]:
    return [
        r for r in range(1 << spec.coin_bits)
        if is_consistent(spec, x, r, messages, answers)
    ]


def conditional_message_distribution(
    spec: PrivateCoinProtocolSpec, x, i: int, messages: Sequence[int], answers: Sequence[int]
) -> ExplicitDistribution:
    """Exact law of the round-i message given the transcript so far."""
    if len(messages) != i or len(answers) != i:
        raise ValueError("prefix must contain exactly i messages and answers")
    coins = _consistent_coins(spec, x, messages, answers)
    if not coins:
        raise ZeroProbabilityPrefixError("prefix has probability zero")
    prior = tuple(answers)
    counts = Counter(spec.next_message(x, i, r, prior) for r in coins)
    return ExplicitDistribution(
        n=spec.message_bits,
        mass={m: Fraction(c, len(coins)) for m, c in counts.items()},
    )


def conditional_randomness_distribution(
    spec: PrivateCoinProtocolSpec, x, messages: Sequence[int], answers: Sequence[int]
) -> ExplicitDistribution:
    """Uniform law over the coin strings consistent with a full transcript."""
    coins = _consistent_coins(spec, x, messages, answers)
    if not coins:
        raise ZeroProbabilityPrefixError("transcript has probability zero")
    share = Fraction(1, len(coins))
    return ExplicitDistribution(n=spec.coin_bits, mass={r: share for r in coins})


# ---------------------------------------------------------------------------
# Exact values of the private-coin protocol itself


def value_with_prover(spec: PrivateCoinProtocolSpec, x, prover_fn) -> Fraction:
    """Exact acceptance probability against a fixed deterministic prover.

    ``prover_fn(x, i, messages)`` returns the round-i answer.
    """
    hits = 0
    size = 1 << spec.coin_bits
    for r in range(size):
        messages: list[int] = []
        answers: list[int] = []
        for i in range(spec.rounds):
            messages.append(spec.next_message(x, i, r, tuple(answers)))
            answers.append(prover_fn(x, i, tuple(messages)))
        if accepts(spec, x, r, messages, answers):
            hits += 1
    return Fraction(hits, size)


def optimal_value(spec: PrivateCoinProtocolSpec, x) -> Fraction:
    """Exact acceptance probability of the best prover (sum-max recursion)."""
    size = 1 << spec.coin_bits

    def best(coins: list[int], messages: tuple, answers: tuple) -> int:
        i = len(messages)
        if i == spec.rounds:
            return sum(
                1 for r in coins if bool(spec.verdict(x, r, messages, answers))
            )
        groups: dict[int, list[int]] = {}
        for r in coins:
            m = spec.next_message(x, i, r, answers)
            groups.setdefault(m, []).append(r)
        total = 0
        for m, sub in groups.items():
            total += max(
                best(sub, messages + (m,), answers + (a,))
                for a in range(1 << spec.message_bits)
            )
        return total

    return Fraction(best(list(range(size)), (), ()), size)


# ---------------------------------------------------------------------------
# Toy private-coin protocol: multiset distinctness


def _distinct_arrangements(symbols: str) -> list[str]:
    out: set[str] = set()

    def rec(prefix: str, remaining: str):
        if not remaining:
            out.add(prefix)
            return
        for ch in sorted(set(remaining)):
            rec(prefix + ch, remaining.replace(ch, "", 1))

    rec("", symbols)
    return sorted(out)


@dataclass(frozen=True)
class ToyMultisetInstance:
    """Instance (s0, s1): in the language when their multisets differ."""

    s0: str
    s1: str

    def __post_init__(self):
        if not isinstance(self.s0, str) or not isinstance(self.s1, str):
            raise ValueError("s0 and s1 must be strings")
        if len(self.s0) != len(self.s1) or not self.s0:
            raise ValueError("strings must be nonempty and of equal length")

    @property
    def in_language(self) -> bool:
        return sorted(self.s0) != sorted(self.s1)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ToyMultisetInstance":
        if not isinstance(obj, dict) or not {"s0", "s1"} <= obj.keys():
            raise ValueError('an instance must be an object with keys "s0" and "s1"')
        return cls(s0=obj["s0"], s1=obj["s1"])


@dataclass(frozen=True)
class ToyMultisetIP:
    """One-round protocol: the verifier shuffles a secretly chosen side.

    Coins are (b, u): bit b picks the side, u indexes into the sorted list
    of distinct arrangements of that side (reduced modulo the list length).
    u has ``index_bits`` bits, the fewest (at least one) that index the
    longer of the two lists.
    The prover answers with its guess of b, and the verifier accepts when
    the guess is right. For distinct multisets the arrangement reveals the
    side, so an unbounded prover always wins (completeness 1); for equal
    multisets both sides induce the same message law, making the guess a
    coin flip (soundness exactly 1/2).
    """

    instance: ToyMultisetInstance
    index_bits: int = field(init=False)
    spec: PrivateCoinProtocolSpec = field(init=False)
    alphabet: str = field(init=False)
    symbol_bits: int = field(init=False)

    def __post_init__(self):
        alphabet = "".join(sorted(set(self.instance.s0 + self.instance.s1)))
        symbol_bits = max(1, (len(alphabet) - 1).bit_length())
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "symbol_bits", symbol_bits)
        arrangements = (
            _distinct_arrangements(self.instance.s0),
            _distinct_arrangements(self.instance.s1),
        )
        encode = self.encode
        arr_codes = (
            [encode(a) for a in arrangements[0]],
            [encode(a) for a in arrangements[1]],
        )
        message_bits = symbol_bits * len(self.instance.s0)
        count = max(len(arr_codes[0]), len(arr_codes[1]))
        object.__setattr__(self, "index_bits", max(1, (count - 1).bit_length()))
        coin_bits = 1 + self.index_bits

        def next_message(x, i, r, answers):
            b = r & 1
            u = r >> 1
            codes = arr_codes[b]
            return codes[u % len(codes)]

        def verdict(x, r, messages, answers):
            return (answers[0] & 1) == (r & 1)

        object.__setattr__(
            self,
            "spec",
            PrivateCoinProtocolSpec(
                rounds=1, coin_bits=coin_bits, message_bits=message_bits,
                next_message=next_message, verdict=verdict,
            ),
        )

    def encode(self, arrangement: str) -> int:
        code = 0
        for ch in arrangement:
            code = (code << self.symbol_bits) | self.alphabet.index(ch)
        return code

    def decode(self, code: int) -> str:
        length = len(self.instance.s0)
        out = []
        for _ in range(length):
            out.append(self.alphabet[code & ((1 << self.symbol_bits) - 1)])
            code >>= self.symbol_bits
        return "".join(reversed(out))

    def honest_answer(self, x, i, messages) -> int:
        seen = sorted(self.decode(messages[-1]))
        if seen == sorted(self.instance.s0):
            return 0
        return 1


def toy_protocol(instance: ToyMultisetInstance) -> ToyMultisetIP:
    return ToyMultisetIP(instance=instance)


def load_instance(path: str) -> ToyMultisetInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return ToyMultisetInstance.from_json_obj(json.load(fh))


# ---------------------------------------------------------------------------
# The transformation


class TransformProver:
    """Prover side of the compiled protocol.

    Supplies a sampling-protocol strategy for each message round (round
    index ``rounds`` is the final coin-string round) and the answers in
    between. The full history of sampled messages, probabilities, and own
    answers is visible, so correlated strategies are expressible.
    """

    def sampling_strategy(self, round_index, messages, probs, answers, params) -> ProverStrategy:
        raise NotImplementedError

    def answer(self, round_index, messages, probs, answers) -> int:
        raise NotImplementedError


class HonestTransformProver(TransformProver):
    """Runs the honest sampling prover on the exact conditional law each round."""

    def __init__(self, spec: PrivateCoinProtocolSpec, x, private_prover_fn=None):
        self.spec = spec
        self.x = x
        self.private_prover_fn = private_prover_fn
        self._cache: dict[tuple, HonestProver] = {}
        # One prover per conditional law: transcripts with equal laws share
        # it, so the verifier compiles its histogram once.
        self._by_law: dict[tuple, HonestProver] = {}

    def sampling_strategy(self, round_index, messages, probs, answers, params):
        key = (round_index, tuple(messages), tuple(answers), params.digest())
        if key not in self._cache:
            if round_index < self.spec.rounds:
                dist = conditional_message_distribution(
                    self.spec, self.x, round_index, messages, answers
                )
            else:
                dist = conditional_randomness_distribution(
                    self.spec, self.x, messages, answers
                )
            law = (dist.n, frozenset(dist.mass.items()), params.digest())
            if law not in self._by_law:
                self._by_law[law] = HonestProver(dist, params)
            self._cache[key] = self._by_law[law]
        return self._cache[key]

    def answer(self, round_index, messages, probs, answers):
        return self.private_prover_fn(self.x, round_index, tuple(messages))


class RandomAnswerTransformProver(HonestTransformProver):
    """Honest sampling behavior, but answers drawn at random."""

    def __init__(self, spec, x, seed: int):
        super().__init__(spec, x)
        self._rng = random.Random(seed)

    def reseeded(self, seed: int) -> "RandomAnswerTransformProver":
        """``RandomAnswerTransformProver(spec, x, seed)``, sharing these
        honest provers so that the verifier compiles each histogram once."""
        twin = copy.copy(self)
        twin._rng = random.Random(seed)
        return twin

    def answer(self, round_index, messages, probs, answers):
        return self._rng.randrange(1 << self.spec.message_bits)


@dataclass
class RoundRecord:
    message: int
    probability: object  # Fraction, or float for a substituted value
    answer: Optional[int]


@dataclass
class AmTranscript:
    """One run of the compiled protocol."""

    rounds: list[RoundRecord]
    coin_string: Optional[int]
    final_probability: Optional[object]
    sampling_reject_round: Optional[int]
    check_verdict: Optional[bool]
    check_product: Optional[bool]
    accept: bool


def transform_run(
    spec: PrivateCoinProtocolSpec,
    x,
    prover: TransformProver,
    message_params: ProtocolParams,
    coin_params: ProtocolParams,
    rng,
) -> AmTranscript:
    """Execute the compiled protocol once.

    Any rejection inside a sampling execution rejects the whole run. The
    final product check demands exact rational equality with
    2**-coin_bits, so substituted (tagged real) probabilities fail it.
    Successive sampling executions consume disjoint segments of ``rng``,
    which simulates their independent per-execution coins.
    """
    if message_params.n != spec.message_bits or coin_params.n != spec.coin_bits:
        raise ValueError("sampling parameter widths must match the protocol spec")
    messages: list[int] = []
    probs: list = []
    answers: list[int] = []
    records: list[RoundRecord] = []
    # Stages 0..rounds-1 sample the messages; stage ``rounds`` the coins.
    for i in range(spec.rounds + 1):
        params = message_params if i < spec.rounds else coin_params
        strategy = prover.sampling_strategy(i, messages, probs, answers, params)
        outcome = run_protocol(params, strategy, rng=rng).outcome
        if outcome.kind == "reject":
            return AmTranscript(
                rounds=records, coin_string=None, final_probability=None,
                sampling_reject_round=i, check_verdict=None, check_product=None,
                accept=False,
            )
        probs.append(outcome.p)
        if i < spec.rounds:
            messages.append(outcome.x)
            answers.append(prover.answer(i, messages, probs, answers))
            records.append(RoundRecord(message=outcome.x, probability=outcome.p, answer=answers[-1]))
    r_star, p_final = outcome.x, outcome.p
    check_verdict = accepts(spec, x, r_star, messages, answers)
    check_product = (
        all(isinstance(p, Fraction) for p in probs)
        and math.prod(probs) == Fraction(1, 1 << spec.coin_bits)
    )
    return AmTranscript(
        rounds=records, coin_string=r_star, final_probability=p_final,
        sampling_reject_round=None, check_verdict=check_verdict,
        check_product=check_product, accept=check_verdict and check_product,
    )


def sampling_params_for(spec: PrivateCoinProtocolSpec, eps: float, delta: float) -> tuple[ProtocolParams, ProtocolParams]:
    """Raw-mode sampling parameters sized to the message and coin widths."""
    return (
        ProtocolParams.raw(n=spec.message_bits, eps=eps, delta=delta),
        ProtocolParams.raw(n=spec.coin_bits, eps=eps, delta=delta),
    )


def estimate_acceptance(
    spec: PrivateCoinProtocolSpec,
    x,
    prover_factory: Callable[[int], TransformProver],
    n_trials: int,
    master_seed: int,
    eps: float,
    delta: float,
) -> float:
    """Accept frequency of the compiled protocol over seeded trials."""
    message_params, coin_params = sampling_params_for(spec, eps, delta)
    hits = 0
    for idx in range(n_trials):
        seed = split_seed(master_seed, idx)
        prover = prover_factory(seed)
        rng = random.Random(seed)
        tr = transform_run(spec, x, prover, message_params, coin_params, rng)
        hits += tr.accept
    return hits / n_trials


# ---------------------------------------------------------------------------
# Bound calculators


def bounds_calculator(c: float, s: float, k: int, eps: float, delta: float) -> tuple[float, float]:
    """Completeness and soundness of the compiled protocol.

    Completeness drops by 2*(k+1)*eps; soundness becomes
    (1+eps+delta)**(k+1) * s + (k+1)*eps. Given Fractions, the result is
    exact.
    """
    c_out = c - 2 * (k + 1) * eps
    s_out = (1 + eps + delta) ** (k + 1) * s + (k + 1) * eps
    return c_out, s_out


def constant_loss_parameters(gamma: float, k: int) -> tuple[float, float]:
    """(eps, delta) turning completeness 2/3+gamma, soundness 2**-(k+5)
    into a standard 2/3 vs 1/3 public-coin proof."""
    return gamma / (2 * (k + 1)), 0.5


def small_gap_parameters(gamma: float, nu: float, k: int) -> tuple[float, float]:
    """(eps, delta) for completeness 2/3+gamma versus soundness 1/3-nu."""
    return gamma / (4 * (k + 1)), nu / (4 * (k + 1))
