"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live). Calibrated-regime executions are astronomically large, so
acceptance is property-based on raw-mode and exactly-enumerable
configurations plus the protocol's small worked numbers.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from coinpress.adversaries import (
    MixtureProver,
    inflating_prover,
    mixture_realization_exists,
    nonrealizable_table,
    overlapping_sets_prover,
    soundness_sums_from_table,
)
from coinpress.cli import main as cli_main
from coinpress.dist import ExplicitDistribution
from coinpress.harness import (
    estimate_output_distribution,
    estimate_soundness_sum,
    hoeffding_half_width,
)
from coinpress.hashing import mixing_experiment, verify_kwise_exhaustive
from coinpress.ip2am import (
    HonestTransformProver,
    ToyMultisetInstance,
    bounds_calculator,
    estimate_acceptance,
    toy_protocol,
)
from coinpress.oracle import (
    ExactConfig,
    OracleRun,
    exact_output_distribution,
    verify_band_sandwich,
    verify_band_sums,
)
from coinpress.protocol import (
    ProtocolParams,
    derive_params,
    honest_prover,
    run_protocol,
)


def report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f": {detail}"
    print(line, flush=True)
    assert ok, line


def tiny_raw(n=3, t=6, gap_size=1, interval_size=2, sampling_gap=4.0, eps=1.0):
    return ProtocolParams.raw(
        n=n, eps=eps, delta=0.5, t=t, gap_size=gap_size,
        interval_size=interval_size, sampling_gap=sampling_gap,
    )


SKEWED = ExplicitDistribution(
    n=3, mass={0: Fraction(1, 2), 3: Fraction(1, 4), 5: Fraction(1, 4)}
)


def test_exhaustive_three_wise_independence():
    """Every input triple / output triple is hit by exactly |family| / 2^(3m)."""
    start = time.time()
    checked = []
    for n in (2, 3, 4):
        for m in (1, 2):
            rep = verify_kwise_exhaustive(n, m, k=3)
            checked.append(((n, m), rep.ok))
            assert rep.expected_count * 8**m == 8**n
    elapsed = time.time() - start
    ok = all(flag for _, flag in checked) and elapsed < 60
    report(
        "exhaustive-3wise-independence", ok,
        f"n in 2..4, m in 1..2 exact counts, {elapsed:.1f}s",
    )


def test_hash_mixing_bound():
    """Deviation frequency stays below 2^m/(gamma^2 |B|) plus binomial slack."""
    start = time.time()
    trials = 10**4
    rep = mixing_experiment(
        members=range(1 << 12), n=16, m=6, gamma=0.5, trials=trials,
        rng=random.Random(2024),
    )
    bound = 2**6 / (0.25 * 2**12)  # 1/16
    slack = 3 * math.sqrt(bound * (1 - bound) / trials)
    elapsed = time.time() - start
    ok = rep.frequency <= bound + slack and elapsed < 60
    report(
        "hash-mixing-bound", ok,
        f"freq={rep.frequency:.5f} <= {bound:.5f}+{slack:.5f}, {elapsed:.1f}s",
    )


STRUCTURAL_CONFIGS = [
    dict(n=3, t=6, gap_size=1, interval_size=2, sampling_gap=4.0),
    dict(n=3, t=6, gap_size=1, interval_size=2, sampling_gap=0.5),
    dict(n=3, t=8, gap_size=2, interval_size=2, sampling_gap=1.0),
]


def test_oracle_structural_properties():
    """Band-mass sandwich and interval placement sums hold with zero violations."""
    start = time.time()
    violations = 0
    indeterminate = 0
    cases = 0
    for cfg in STRUCTURAL_CONFIGS:
        params = tiny_raw(**cfg)
        provers = {
            "honest": honest_prover(SKEWED, params),
            "mixture": MixtureProver(
                [(Fraction(1, 2), SKEWED),
                 (Fraction(1, 4), ExplicitDistribution.point(3, 0))],
                seed=9, params=params,
            ),
            "inflating": inflating_prover(SKEWED, 1, params),
            "scripted-overlap": overlapping_sets_prover(SKEWED, params),
        }
        for prover in provers.values():
            run = OracleRun(ExactConfig(params=params, prover=prover))
            sandwich = verify_band_sandwich(run)
            sums = verify_band_sums(run)
            violations += len(sandwich.violations) + len(sums.violations)
            indeterminate += len(sandwich.indeterminate)
            cases += 1
    elapsed = time.time() - start
    ok = violations == 0 and indeterminate == 0 and elapsed < 600
    report(
        "oracle-structural-properties", ok,
        f"{cases} config x prover cases, 0 violations, {elapsed:.1f}s",
    )


def test_honest_prover_probability_exactness():
    """Every non-reject output carries exactly the element's true probability."""
    dists = [
        SKEWED,
        ExplicitDistribution(
            n=3, mass={1: Fraction(1, 2), 2: Fraction(1, 3), 7: Fraction(1, 6)}
        ),
        ExplicitDistribution.uniform(3, range(5)),
    ]
    gaps = [0.5, 4.0, 4.0]  # first config exercises nonzero hash widths
    trials_each = 33400
    exceptions = 0
    outputs = 0
    for dist, gap in zip(dists, gaps):
        params = tiny_raw(sampling_gap=gap)
        prover = honest_prover(dist, params)
        rng = random.Random(515)
        for _ in range(trials_each):
            out = run_protocol(params, prover, rng=rng).outcome
            if out.kind == "output":
                outputs += 1
                if not (isinstance(out.p, Fraction) and out.p == dist.prob(out.x)):
                    exceptions += 1
    ok = exceptions == 0 and outputs > 0
    report(
        "honest-prover-exactness", ok,
        f"{3 * trials_each} trials, {outputs} outputs, {exceptions} exceptions",
    )


@pytest.mark.slow
def test_oracle_vs_monte_carlo():
    """Estimates agree with exact masses within the Hoeffding half-width."""
    alpha = 1e-3
    for cfg in STRUCTURAL_CONFIGS:
        params = tiny_raw(**cfg)
        shared = honest_prover(SKEWED, params)
        factory = lambda seed: shared
        exact = exact_output_distribution(ExactConfig(params=params, prover=shared))
        est = estimate_output_distribution(params, factory, 20000, master_seed=42, alpha=alpha)
        for (x, p), mass in exact.by_element_probability().items():
            key = (format(x, "01x"), f"{p.numerator}/{p.denominator}")
            assert abs(est.frequency(*key) - float(mass)) <= est.half_width
        assert abs(est.reject_rate - float(exact.reject_mass)) <= est.half_width
    # meta-test: repeated small-sample runs stay within the band
    params = tiny_raw(**STRUCTURAL_CONFIGS[0])
    shared = honest_prover(SKEWED, params)
    exact_cells = exact_output_distribution(
        ExactConfig(params=params, prover=shared)
    ).by_element_probability()
    n_small = 1500
    width = hoeffding_half_width(n_small, alpha)
    passes = 0
    reps = 100
    for rep_idx in range(reps):
        est = estimate_output_distribution(
            params, lambda seed: shared, n_small, master_seed=1000 + rep_idx, alpha=alpha
        )
        within = all(
            abs(est.frequency(format(x, "01x"), f"{p.numerator}/{p.denominator}") - float(mass)) <= width
            for (x, p), mass in exact_cells.items()
        )
        passes += within
    ok = passes >= 99
    report("oracle-vs-monte-carlo", ok, f"meta-test {passes}/100 within half-width")


@pytest.mark.slow
def test_two_component_mixture_numbers():
    """The uniform-pair/point mixture lands at marginal 3/4 and mass/p sum 1."""
    params = ProtocolParams.raw(
        n=2, eps=1.0, delta=0.5, t=4, gap_size=1, interval_size=2, sampling_gap=4.0
    )
    d0 = ExplicitDistribution.uniform(2, [0, 3])
    d1 = ExplicitDistribution.point(2, 0)
    # One prover whose reseeded twins equal fresh MixtureProvers
    # (test_reseeded_matches_fresh_prover), so the components are built once.
    factory = MixtureProver([(Fraction(1, 2), d0), (Fraction(1, 2), d1)], 0, params).reseeded
    trials = 10**5
    est = estimate_output_distribution(params, factory, trials, master_seed=77)
    marginal = est.x_frequency("0")
    sum_rep = estimate_soundness_sum(
        params, factory, 0, trials, master_seed=78, p_min=Fraction(1, 4)
    )
    ok = abs(marginal - 0.75) <= 0.02 and abs(sum_rep.estimate - 1.0) <= 0.05
    report(
        "mixture-marginal-and-sum", ok,
        f"marginal={marginal:.4f} (3/4 +- 0.02), sum={sum_rep.estimate:.4f} (1 +- 0.05)",
    )


def test_nonrealizable_output_table():
    """The explicit four-cell table sums to exactly 1 per element, yet admits
    no honest-mixture realization."""
    table = nonrealizable_table()
    sums = soundness_sums_from_table(table)
    exact_one = sums == {"x1": Fraction(1), "x2": Fraction(1)}
    unrealizable = not mixture_realization_exists(table)
    ok = exact_one and unrealizable
    report(
        "nonrealizable-table", ok,
        f"sums exactly 1: {exact_one}, no mixture realization: {unrealizable}",
    )


def test_trivial_fallback_exactness():
    """Fallback mode reproduces the distribution exactly (rational equality)."""
    params = derive_params(8, 0.5, 0.5)
    assert params.mode == "trivial-fallback"
    dists = [
        ExplicitDistribution(n=8, mass={0: Fraction(1, 2), 9: Fraction(1, 2)}),
        ExplicitDistribution.uniform(8, range(7)),
        ExplicitDistribution(
            n=8, mass={10: Fraction(2, 3), 20: Fraction(1, 4), 30: Fraction(1, 12)}
        ),
    ]
    ok = True
    for dist in dists:
        exact = exact_output_distribution(
            ExactConfig(params=params, prover=honest_prover(dist, params))
        )
        ok &= exact.by_element_probability() == {(x, p): p for x, p in dist.mass.items()}
        ok &= exact.reject_mass == 0
    report("trivial-fallback-exactness", ok, "3 distributions reproduced exactly")


def test_transformation_end_to_end():
    """Compiled one-round proof respects the completeness/soundness bounds."""
    start = time.time()
    eps, delta = 0.02, 0.25
    trials = 10**4
    band = 3 * math.sqrt(0.25 / trials)
    member = toy_protocol(ToyMultisetInstance(s0="aab", s1="abb"))
    nonmember = toy_protocol(ToyMultisetInstance(s0="aab", s1="aba"))
    assert member.spec.coin_bits <= 16
    honest_m = HonestTransformProver(member.spec, None, member.honest_answer)
    rate_member = estimate_acceptance(
        member.spec, None, lambda seed: honest_m, trials, 21, eps, delta
    )
    honest_n = HonestTransformProver(nonmember.spec, None, nonmember.honest_answer)
    rate_nonmember = estimate_acceptance(
        nonmember.spec, None, lambda seed: honest_n, trials, 22, eps, delta
    )
    compl_bound, sound_bound = bounds_calculator(1.0, 0.5, 1, eps, delta)
    elapsed = time.time() - start
    ok = (
        rate_member >= compl_bound - band
        and rate_nonmember <= sound_bound + band
        and elapsed < 900
    )
    report(
        "transformation-end-to-end", ok,
        f"member {rate_member:.4f} >= {compl_bound - band:.4f}, "
        f"nonmember {rate_nonmember:.4f} <= {sound_bound + band:.4f}, {elapsed:.0f}s",
    )


def test_bound_calculator_precision():
    """Float bound formulas match exact rational recomputation to 12 digits."""
    grid = []
    for k in (0, 1, 2, 3, 5):
        for eps_frac, delta_frac in (
            (Fraction(1, 100), Fraction(1, 10)),
            (Fraction(1, 50), Fraction(1, 4)),
            (Fraction(3, 100), Fraction(1, 2)),
            (Fraction(1, 1000), Fraction(1, 16)),
        ):
            grid.append((k, eps_frac, delta_frac))
    assert len(grid) == 20
    worst = 0.0
    for k, eps_frac, delta_frac in grid:
        c, s = bounds_calculator(Fraction(9, 10), Fraction(1, 3), k, float(eps_frac), float(delta_frac))
        ce, se = bounds_calculator(
            Fraction(9, 10), Fraction(1, 3), k, eps_frac, delta_frac
        )
        worst = max(worst, abs(c - float(ce)), abs(s - float(se)) / float(se))
    ok = worst <= 1e-12
    report("bound-calculator-precision", ok, f"20-point grid, worst rel err {worst:.2e}")


def test_cli_determinism(tmp_path):
    """Identical seeded invocations write byte-identical report files."""
    import json as _json

    (tmp_path / "dist.json").write_text(
        _json.dumps({"n": 3, "mass": {"0": "1/2", "3": "1/4", "5": "1/4"}})
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        _json.dumps(
            {
                "distribution": "dist.json",
                "params": {
                    "mode": "raw", "n": 3, "eps": 1.0, "delta": 0.5, "t": 6,
                    "gap_size": 1, "interval_size": 2, "sampling_gap": 0.5,
                },
                "prover": "honest",
            }
        )
    )
    pairs = []
    for sub, extra in (
        ("estimate", ["--trials", "500", "--format", "json"]),
        ("estimate", ["--trials", "500", "--format", "csv"]),
        ("soundness-sum", ["--x", "0", "--trials", "500"]),
        ("sample", []),
    ):
        outs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{sub}-{extra[-1] if extra else 'run'}-{tag}.out"
            rc = cli_main(
                [sub, "--config", str(cfg), "--seed", "31", "--out", str(path)] + extra
            )
            assert rc == 0
            outs.append(path.read_bytes())
        pairs.append(outs[0] == outs[1])
    ok = all(pairs)
    report("cli-determinism", ok, f"{len(pairs)} invocation pairs byte-identical")
