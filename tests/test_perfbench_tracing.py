"""The benchmark's span tracer still finds every name it wraps."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from coinpress import oracle, protocol
from coinpress.dist import ExplicitDistribution

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_install_wraps_and_uninstall_restores_every_name():
    tracer = load_tracing().Tracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_check_sets_spans_record_set_sizes():
    """The tracer's check_sets note reads the sets and the challenge context
    from check_sets' positional arguments; a run and an oracle pass both
    record the sizes of the sets they check."""
    tracing = load_tracing()
    params = protocol.ProtocolParams.raw(
        n=3, eps=1.0, delta=0.5, t=6, gap_size=1, interval_size=2, sampling_gap=4.0,
    )
    dist = ExplicitDistribution(n=3, mass={0: Fraction(1, 2), 3: Fraction(1, 4), 5: Fraction(1, 4)})
    prover = protocol.HonestProver(dist, params)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tr = protocol.run_protocol(params, prover, rng=random.Random(0))
        oracle.OracleRun(oracle.ExactConfig(params=params, prover=prover))
    finally:
        tracer.uninstall()
    assert tr.outcome.kind == "output"
    spans = tracing.SpanTable(tracer)
    sizes = spans.values("protocol.check_sets")
    in_oracle = spans.values("protocol.check_sets", parent="oracle.build")
    # one span from the run, the rest from the oracle pass
    assert len(in_oracle) > 0 and len(sizes) == len(in_oracle) + 1
    assert (sizes > 0).all()
