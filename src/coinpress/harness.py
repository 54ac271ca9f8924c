"""Seeded Monte Carlo estimation of output distributions and mass/p sums.

Trials are independent protocol runs with per-trial seeds split from a
master seed, so identical (config, master seed) pairs produce identical
reports byte for byte. Sample sizes come from Hoeffding's bound: N trials
of a range-width-R average miss by more than eps_stat with probability at
most 2*exp(-2*eps_stat^2*N/R^2).

The mass/p estimator truncates at a configurable floor p_min because 1/p
is unbounded; the frequency of outputs below the floor is reported
separately rather than silently folded in.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from coinpress.dist import element_to_hex, fraction_to_str, pow2
from coinpress.protocol import (
    ProtocolParams,
    ProverStrategy,
    Transcript,
    probability_bin_key,
    run_protocol,
)

ProverFactory = Callable[[int], ProverStrategy]


def required_samples(eps_stat: float, alpha: float, range_width: float = 1.0) -> int:
    """Smallest N with 2*exp(-2*eps_stat^2*N/range_width^2) <= alpha.

    Clamped to at least 1 (degenerate alphas near or above 1 can make the
    bound vacuous at a single sample).
    """
    if not 0 < eps_stat < 1 or not 0 < alpha < 2:
        raise ValueError("eps_stat must lie in (0, 1) and alpha in (0, 2)")
    if range_width <= 0:
        raise ValueError("range_width must be positive")
    n = math.log(2.0 / alpha) * range_width**2 / (2.0 * eps_stat**2)
    return max(1, math.ceil(n))


def hoeffding_half_width(n_trials: int, alpha: float, range_width: float = 1.0) -> float:
    """Deviation eps with 2*exp(-2*eps^2*N/R^2) = alpha."""
    return range_width * math.sqrt(math.log(2.0 / alpha) / (2.0 * n_trials))


def split_seed(master_seed: int, index: int) -> int:
    """Per-trial stream seed: 128 bits of SHA-256 over (master seed, index).

    This is the package's fixed seed-splitting rule; changing it changes
    every recorded trial stream.
    """
    blob = f"coinpress-stream:{master_seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:16], "big")


@dataclass
class EstimateReport:
    """Empirical view of the output distribution over N trials."""

    n_trials: int
    master_seed: int
    params_digest: str
    alpha: float
    half_width: float
    bins: dict[tuple[str, str], int]  # (x hex, p key) -> count
    per_x: dict[str, int]
    rejects: dict[str, int]

    @property
    def reject_rate(self) -> float:
        return sum(self.rejects.values()) / self.n_trials

    def frequency(self, x_hex: str, p_key: str) -> float:
        return self.bins.get((x_hex, p_key), 0) / self.n_trials

    def x_frequency(self, x_hex: str) -> float:
        return self.per_x.get(x_hex, 0) / self.n_trials

    def to_json_obj(self) -> dict:
        return {
            "n_trials": self.n_trials,
            "master_seed": self.master_seed,
            "params_digest": self.params_digest,
            "alpha": self.alpha,
            "half_width": self.half_width,
            "bins": {
                f"{x}|{p}": count for (x, p), count in sorted(self.bins.items())
            },
            "per_x": dict(sorted(self.per_x.items())),
            "rejects": dict(sorted(self.rejects.items())),
            "reject_rate": self.reject_rate,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", "p", "count", "frequency"])
        for (x, p), count in sorted(self.bins.items()):
            writer.writerow([x, p, count, repr(count / self.n_trials)])
        for reason, count in sorted(self.rejects.items()):
            writer.writerow(["REJECT", reason, count, repr(count / self.n_trials)])
        return buf.getvalue()


def _transcripts(
    params: ProtocolParams,
    prover_factory: ProverFactory,
    n_trials: int,
    master_seed: int,
) -> Iterator[Transcript]:
    """Run the seeded trials one after another, in index order."""
    for idx in range(n_trials):
        seed = split_seed(master_seed, idx)
        yield run_protocol(params, prover_factory(seed), rng=random.Random(seed), trial=idx)


def estimate_output_distribution(
    params: ProtocolParams,
    prover_factory: ProverFactory,
    n_trials: int,
    master_seed: int,
    alpha: float = 1e-3,
) -> EstimateReport:
    """Frequencies of every observed (x, p) bin over seeded trials."""
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    bins: dict[tuple[str, str], int] = {}
    per_x: dict[str, int] = {}
    rejects: dict[str, int] = {}
    for tr in _transcripts(params, prover_factory, n_trials, master_seed):
        out = tr.outcome
        if out.kind == "reject":
            rejects[out.reason] = rejects.get(out.reason, 0) + 1
            continue
        xh = element_to_hex(out.x, params.n)
        key = (xh, probability_bin_key(out.p))
        bins[key] = bins.get(key, 0) + 1
        per_x[xh] = per_x.get(xh, 0) + 1
    return EstimateReport(
        n_trials=n_trials, master_seed=master_seed, params_digest=params.digest(),
        alpha=alpha, half_width=hoeffding_half_width(n_trials, alpha),
        bins=bins, per_x=per_x, rejects=rejects,
    )


@dataclass
class SoundnessSumReport:
    """Truncated estimate of sum over outputs of [X=x] / p."""

    x: int
    n_trials: int
    master_seed: int
    p_min: Fraction
    estimate: float
    below_floor_frequency: float  # outputs of x with p < p_min
    reject_rate: float
    alpha: float
    half_width: float  # for the averaged quantity with range 1/p_min

    def to_json_obj(self) -> dict:
        return {
            "x": self.x,
            "n_trials": self.n_trials,
            "master_seed": self.master_seed,
            "p_min": fraction_to_str(Fraction(self.p_min)),
            "estimate": self.estimate,
            "below_floor_frequency": self.below_floor_frequency,
            "reject_rate": self.reject_rate,
            "alpha": self.alpha,
            "half_width": self.half_width,
        }


def estimate_soundness_sum(
    params: ProtocolParams,
    prover_factory: ProverFactory,
    x: int,
    n_trials: int,
    master_seed: int,
    p_min: Fraction,
    alpha: float = 1e-3,
) -> SoundnessSumReport:
    """Average of [X=x and p >= p_min] / p over seeded trials.

    Outputs of x with p below the floor are counted separately: the
    estimator cannot identify which executions a conditioned soundness
    analysis would exclude, so the truncated sum plus the floor frequency is
    an approximation, not the exact conditioned quantity.
    """
    p_min = Fraction(p_min)
    if p_min <= 0:
        raise ValueError("p_min must be positive")
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    total = Fraction(0)
    below = 0
    reject = 0
    for tr in _transcripts(params, prover_factory, n_trials, master_seed):
        out = tr.outcome
        if out.kind == "reject":
            reject += 1
        elif out.x == x:
            p = Fraction(out.p)
            if p < p_min:
                below += 1
            else:
                total += 1 / p
    return SoundnessSumReport(
        x=x, n_trials=n_trials, master_seed=master_seed, p_min=p_min,
        estimate=float(total / n_trials), below_floor_frequency=below / n_trials,
        reject_rate=reject / n_trials, alpha=alpha,
        half_width=hoeffding_half_width(n_trials, alpha, range_width=float(1 / p_min)),
    )


def default_soundness_floor(dist, params: ProtocolParams) -> Fraction:
    """Floor used when the true distribution is known: its smallest mass
    scaled down by the worst band substitution factor."""
    return min(dist.mass.values()) / Fraction(pow2(params.gap_size * params.eps))


def report_to_bytes(report, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps(report.to_json_obj(), sort_keys=True, indent=2) + "\n").encode()
    if fmt == "csv":
        if not hasattr(report, "to_csv"):
            raise ValueError("this report has no CSV form")
        return report.to_csv().encode()
    raise ValueError(f"unknown format {fmt!r}")
