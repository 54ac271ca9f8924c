"""Command-line interface.

Subcommands: ``params`` (derive constants and the fallback decision),
``sample`` (one protocol run), ``estimate`` (Monte Carlo distribution
report), ``soundness-sum`` (truncated mass/p estimate), ``oracle`` (exact
enumeration report), ``hash-check`` (independence and mixing checks), and
``transform`` (the compiled public-coin proof on a toy instance).

Runs are reproducible: the same invocation with the same --seed writes
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from coinpress import adversaries, harness, hashing, ip2am, oracle
from coinpress.dist import (
    ExplicitDistribution,
    element_to_hex,
    fraction_from_str,
    fraction_to_str,
    load_distribution,
)
from coinpress.protocol import (
    MODE_TRIVIAL,
    ProtocolParams,
    derive_params,
    honest_prover,
    probability_bin_key,
    run_protocol,
)


class ConfigError(ValueError):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}")


def _dist_from_obj(obj, base_dir: str) -> ExplicitDistribution:
    if isinstance(obj, str):
        return load_distribution(os.path.join(base_dir, obj))
    return ExplicitDistribution.from_json_obj(obj)


def _params_from_obj(obj: dict) -> ProtocolParams:
    mode = obj.get("mode", "raw")
    if mode in ("calibrated", "paper"):
        return derive_params(int(obj["n"]), float(obj["eps_prime"]), float(obj["delta_prime"]))
    if mode == "raw":
        kwargs = {}
        for key in ("t", "gap_size", "interval_size", "set_cap"):
            if key in obj:
                kwargs[key] = int(obj[key])
        if "sampling_gap" in obj:
            kwargs["sampling_gap"] = float(obj["sampling_gap"])
        return ProtocolParams.raw(
            n=int(obj["n"]), eps=float(obj["eps"]), delta=float(obj["delta"]), **kwargs
        )
    raise ConfigError(f"unknown params mode {mode!r}")


class RunConfig:
    def __init__(self, path: str):
        obj = _load_json(path)
        base_dir = os.path.dirname(os.path.abspath(path))
        try:
            self.params = _params_from_obj(obj["params"])
            self.dist = _dist_from_obj(obj["distribution"], base_dir) if "distribution" in obj else None
            self.prover_spec = obj.get("prover", "honest")
            self.trials = int(obj.get("trials", 1000))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config {path}: {exc}")
        self.base_dir = base_dir

    def prover_factory(self):
        return make_prover_factory(self.prover_spec, self.dist, self.params, self.base_dir)


def _scripted_from_obj(obj: dict) -> adversaries.ScriptedProver:
    responses = {}
    if "histogram" in obj:
        h = obj["histogram"]
        responses["histogram"] = None if h is None else tuple(map(fraction_from_str, h))
    if "sets" in obj:
        responses["sets"] = {
            int(i): [int(x, 16) for x in xs] for i, xs in obj["sets"].items()
        }
    if "probability" in obj:
        responses["probability"] = fraction_from_str(obj["probability"])
    if "table" in obj:
        responses["table"] = [(int(x, 16), fraction_from_str(p)) for x, p in obj["table"]]
    return adversaries.ScriptedProver(responses)


def make_prover_factory(spec: str, dist, params: ProtocolParams, base_dir: str):
    """--prover=honest|mixture:<file>|rejecting:<p>|inflating:<k>|scripted:<file>"""
    kind, _, arg = spec.partition(":")
    if kind == "honest":
        if dist is None:
            raise ConfigError("honest prover needs a distribution")
        shared = honest_prover(dist, params)
        return lambda seed: shared
    if kind == "mixture":
        obj = _load_json(os.path.join(base_dir, arg))
        try:
            components = [
                (fraction_from_str(c["weight"]), _dist_from_obj(c["distribution"], base_dir))
                for c in obj["components"]
            ]
        except (AttributeError, KeyError, TypeError) as exc:
            raise ConfigError(f"invalid mixture file {arg}: {exc!r}")
        return adversaries.MixtureProver(components, 0, params).reseeded
    if kind == "rejecting":
        if dist is None:
            raise ConfigError("rejecting prover needs a distribution")
        prob = fraction_from_str(arg) if "/" in arg else Fraction(arg)
        return adversaries.rejecting_prover(dist, prob, 0, params).reseeded
    if kind == "inflating":
        if dist is None:
            raise ConfigError("inflating prover needs a distribution")
        shared = adversaries.inflating_prover(dist, int(arg), params)
        return lambda seed: shared
    if kind == "scripted":
        try:
            shared = _scripted_from_obj(_load_json(os.path.join(base_dir, arg)))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ConfigError(f"invalid scripted file {arg}: {exc!r}")
        return lambda seed: shared
    raise ConfigError(f"unknown prover spec {spec!r}")


def _emit(payload: bytes, out_path: str | None):
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode())


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


# ---------------------------------------------------------------------------
# Subcommands


def cmd_params(args) -> int:
    if args.raw:
        params = ProtocolParams.raw(n=args.n, eps=args.eps, delta=args.delta)
    else:
        params = derive_params(args.n, args.eps, args.delta)
    _emit(_json_bytes(params.describe()), args.out)
    if params.mode == MODE_TRIVIAL:
        print("mode: trivial-fallback (calibrated assumption fails at this width)")
    else:
        print(f"mode: {params.mode}")
    return 0


def cmd_sample(args) -> int:
    cfg = RunConfig(args.config)
    factory = cfg.prover_factory()
    seed = harness.split_seed(args.seed, 0)
    tr = run_protocol(cfg.params, factory(seed), rng=random.Random(seed), trial=0)
    _emit((tr.to_json() + "\n").encode(), args.out)
    if tr.outcome.kind == "output":
        p = probability_bin_key(tr.outcome.p)
        print(f"output x={element_to_hex(tr.outcome.x, cfg.params.n)} p={p}")
    else:
        print(f"reject reason={tr.outcome.reason}")
    return 0


def cmd_estimate(args) -> int:
    cfg = RunConfig(args.config)
    trials = args.trials or cfg.trials
    report = harness.estimate_output_distribution(
        cfg.params, cfg.prover_factory(), trials, args.seed
    )
    _emit(harness.report_to_bytes(report, args.format), args.out)
    return 0


def cmd_soundness_sum(args) -> int:
    cfg = RunConfig(args.config)
    trials = args.trials or cfg.trials
    x = int(args.x, 16)
    if args.p_min is not None:
        p_min = fraction_from_str(args.p_min) if "/" in args.p_min else Fraction(args.p_min)
    elif cfg.dist is not None:
        p_min = harness.default_soundness_floor(cfg.dist, cfg.params)
    else:
        raise ConfigError("--p-min is required when the config has no distribution")
    report = harness.estimate_soundness_sum(
        cfg.params, cfg.prover_factory(), x, trials, args.seed, p_min
    )
    _emit(_json_bytes(report.to_json_obj()), args.out)
    return 0


def cmd_oracle(args) -> int:
    cfg = RunConfig(args.config)
    factory = cfg.prover_factory()
    run = oracle.OracleRun(oracle.ExactConfig(params=cfg.params, prover=factory(0)))
    exact = run.distribution
    payload = oracle.distribution_report(exact)
    payload["element_marginal"] = {
        format(x, "x"): fraction_to_str(v)
        for x, v in sorted(exact.element_marginal().items())
    }
    payload["soundness_sums"] = {
        format(x, "x"): fraction_to_str(v)
        for x, v in sorted(exact.soundness_sums().items())
    }
    if cfg.params.mode != MODE_TRIVIAL:
        payload["band_sandwich_ok"] = oracle.verify_band_sandwich(run).ok
        payload["band_sums_ok"] = oracle.verify_band_sums(run).ok
    _emit(_json_bytes(payload), args.out)
    return 0


def cmd_hash_check(args) -> int:
    # The mixing run goes first so that its argument checks refuse before
    # any exhaustive enumeration; its line still prints last.
    mix = hashing.mixing_experiment(
        members=range(args.set_size), n=args.mix_n, m=args.mix_m,
        gamma=args.gamma, trials=args.trials, rng=random.Random(args.seed),
    )
    results = []
    ok = True
    for n in args.n:
        for m in args.m:
            if m > n:
                continue
            report = hashing.verify_kwise_exhaustive(n, m, k=3)
            results.append(
                {"check": "3wise", "n": n, "m": m, "ok": report.ok,
                 "expected_count": report.expected_count}
            )
            ok &= report.ok
            print(f"{'PASS' if report.ok else 'FAIL'} 3wise n={n} m={m} "
                  f"count={report.expected_count}")
    mix_ok = mix.frequency <= mix.bound + 3 * (mix.bound * (1 - mix.bound) / args.trials) ** 0.5
    ok &= mix_ok
    print(f"{'PASS' if mix_ok else 'FAIL'} mixing |B|={mix.set_size} m={mix.m} "
          f"gamma={mix.gamma} freq={mix.frequency:.5f} bound={mix.bound:.5f}")
    results.append(
        {"check": "mixing", "set_size": mix.set_size, "m": mix.m,
         "gamma": mix.gamma, "frequency": mix.frequency, "bound": mix.bound,
         "ok": mix_ok}
    )
    if args.out:
        _emit(_json_bytes(results), args.out)
    return 0 if ok else 1


def cmd_transform(args) -> int:
    instance = ip2am.load_instance(args.instance)
    toy = ip2am.toy_protocol(instance)
    spec = toy.spec
    if args.prover == "honest":
        shared = ip2am.HonestTransformProver(spec, None, toy.honest_answer)
        factory = lambda seed: shared
    elif args.prover == "random-answers":
        factory = ip2am.RandomAnswerTransformProver(spec, None, 0).reseeded
    else:
        raise ConfigError(f"unknown transform prover {args.prover!r}")
    rate = ip2am.estimate_acceptance(
        spec, None, factory, args.rounds_trials, args.seed,
        args.sampling_eps, args.sampling_delta,
    )
    compl, sound = ip2am.bounds_calculator(
        1.0, 0.5, spec.rounds, args.sampling_eps, args.sampling_delta
    )
    payload = {
        "instance": {"s0": instance.s0, "s1": instance.s1},
        "in_language": instance.in_language,
        "prover": args.prover,
        "trials": args.rounds_trials,
        "accept_rate": rate,
        "completeness_bound_if_member": compl,
        "soundness_bound_if_nonmember": sound,
    }
    _emit(_json_bytes(payload), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinpress",
        description="Sampling-protocol simulator: verifier, provers, oracle, harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", help="write the report to this path")

    p = sub.add_parser("params", help="derive protocol constants")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--raw", action="store_true", help="use eps/delta without calibration")
    p.add_argument("--out")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("sample", help="one protocol run")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="Monte Carlo output-distribution report")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("soundness-sum", help="truncated mass/p estimate at one element")
    p.add_argument("--config", required=True)
    p.add_argument("--x", required=True, help="element, hex")
    p.add_argument("--trials", type=int)
    p.add_argument("--p-min", dest="p_min", help="truncation floor, num/den")
    common(p)
    p.set_defaults(func=cmd_soundness_sum)

    p = sub.add_parser("oracle", help="exact enumeration report")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("hash-check", help="independence and mixing checks")
    p.add_argument("--n", type=int, nargs="+", default=[2, 3])
    p.add_argument("--m", type=int, nargs="+", default=[1, 2])
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--set-size", dest="set_size", type=int, default=1 << 10)
    p.add_argument("--mix-n", dest="mix_n", type=int, default=16)
    p.add_argument("--mix-m", dest="mix_m", type=int, default=5)
    p.add_argument("--gamma", type=float, default=0.5)
    common(p)
    p.set_defaults(func=cmd_hash_check)

    p = sub.add_parser("transform", help="compiled public-coin proof on a toy instance")
    p.add_argument("--instance", required=True, help='JSON file {"s0": ..., "s1": ...}')
    p.add_argument("--rounds-trials", dest="rounds_trials", type=int, default=1000)
    p.add_argument("--sampling-eps", dest="sampling_eps", type=float, default=0.02)
    p.add_argument("--sampling-delta", dest="sampling_delta", type=float, default=0.25)
    p.add_argument("--prover", choices=("honest", "random-answers"), default="honest")
    common(p)
    p.set_defaults(func=cmd_transform)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
