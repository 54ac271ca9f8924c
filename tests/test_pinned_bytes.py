"""SHA-256 pins of CLI bytes and derived constants where band edges are floats.

At eps = 0.5 every odd band edge 2**(-j/2) is irrational, so these pins
cover the float branch of the band-edge rule (exact 2**e for an integer e,
else the double) in `finalize`, the inflating prover's claims, the
default soundness floor and the oracle's enclosures, as well as
`derive_params` and the `params`, `sample`, `estimate`, `soundness-sum`,
`oracle` and `transform` subcommands. The digests were recorded before
these rules got one shared owner.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from coinpress.adversaries import InflatingProver
from coinpress.cli import main
from coinpress.dist import ExplicitDistribution
from coinpress.harness import default_soundness_floor
from coinpress.oracle import pow2_bounds
from coinpress.protocol import ProtocolParams, derive_params, finalize

# n = 3 at eps = 0.5 with gap 1, so gap_size * eps = 0.5; sampling gap 0.0
# gives hash widths m = 1 on some intervals, so some runs reject.
HALF_EPS_PARAMS = {
    "mode": "raw", "n": 3, "eps": 0.5, "delta": 0.5, "t": 12,
    "gap_size": 1, "interval_size": 2, "sampling_gap": 0.0,
}
DIST = {"n": 3, "mass": {"0": "1/2", "3": "1/4", "5": "1/4"}}
# Accuracy targets: the fallback mode, whose transcript carries params
# digest 4ae28941dc229239; the digest hashes the mode.
CALIBRATED_PARAMS = {"mode": "calibrated", "n": 3, "eps_prime": 0.1, "delta_prime": 0.1}


def sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture
def half_eps(tmp_path):
    (tmp_path / "dist.json").write_text(json.dumps(DIST))
    for prover in ("honest", "inflating:1"):
        cfg = {"distribution": "dist.json", "params": HALF_EPS_PARAMS, "prover": prover}
        (tmp_path / f"{prover.replace(':', '-')}.json").write_text(json.dumps(cfg))
    cfg = {"distribution": "dist.json", "params": CALIBRATED_PARAMS, "prover": "honest"}
    (tmp_path / "calibrated.json").write_text(json.dumps(cfg))
    (tmp_path / "member.json").write_text(json.dumps({"s0": "aab", "s1": "abb"}))
    (tmp_path / "nonmember.json").write_text(json.dumps({"s0": "aab", "s1": "aba"}))
    return tmp_path


def run_cli(capsys, argv, out=None):
    """(stdout, --out file bytes or None) of one CLI call."""
    assert main(argv + (["--out", str(out)] if out else [])) == 0
    return capsys.readouterr().out.encode(), (out.read_bytes() if out else None)


PARAMS_DIGESTS = {
    "fallback": {
        "stdout": "80881299b212c97d9bd0a1eb3b822bb88f15e85e1fa7627f56f22b80d58410e6",
        "out": "621a94b09c68ea524cc0c4f130ede41de3cab4939fd8bfb51f1b1fb488769918",
        "stdout_with_out": "4207a48f58606854993f0bb5124d705053f1e1c0babde83e7c1e46ce14c7ab40",
    },
    "raw": {
        "stdout": "aee277258864af6ac78353a6a0f44cf8958aeb8810adc8340bd5894684e49f5c",
        "out": "701d0bc40be54c7967f7dc411b558ddcc64a11c8149a7ac9fc1cda0fc8233865",
        "stdout_with_out": "7f6d8fa557a8130d2968ad3a2d04f3275ac86a0311c05216da5e080823129e79",
    },
}


@pytest.mark.parametrize(
    "name, argv",
    [
        ("fallback", ["params", "-n", "64", "--eps", "0.9", "--delta", "0.9"]),
        ("raw", ["params", "-n", "8", "--eps", "0.25", "--delta", "0.5", "--raw"]),
    ],
)
def test_params_bytes(capsys, tmp_path, name, argv):
    stdout, _ = run_cli(capsys, argv)
    stdout_with_out, out = run_cli(capsys, argv, tmp_path / "params.json")
    got = {"stdout": sha(stdout), "out": sha(out), "stdout_with_out": sha(stdout_with_out)}
    assert got == PARAMS_DIGESTS[name]


def test_derive_params_grid():
    digest = hashlib.sha256()
    for n in (1, 8, 50, 64):
        for eps_prime in (0.001, 0.1, 0.5, 0.9, 0.999):
            for delta_prime in (0.01, 0.5, 0.99):
                params = derive_params(n, eps_prime, delta_prime)
                blob = json.dumps(params.describe(), sort_keys=True) + params.digest()
                digest.update(blob.encode())
    assert digest.hexdigest() == "5dd499180d868ac0c2eabfe7d25afd43ae699ab9ff8b6b6975d75c8a07a8e4bc"


def test_band_edge_rule_values():
    """Every owner of the band-edge rule, on integer and fractional
    exponents alike."""
    rows = []
    for eps in (1.0, 0.5, 0.3):
        params = ProtocolParams.raw(n=3, eps=eps, delta=0.5, t=12)
        dist = ExplicitDistribution(
            n=3, mass={0: Fraction(1, 2), 3: Fraction(1, 4), 5: Fraction(1, 4)}
        )
        inflating = InflatingProver(dist, 1, params)
        for j in range(params.t + 1):
            claim = inflating.produce_probability(j, 1)
            rows.append((eps, j, finalize(j, 1, Fraction(1, 3), params), claim))
        rows.append((eps, default_soundness_floor(dist, params)))
    for exponent in (3.0, -4.0, 0.5, -1.5, 1.7, -0.3, 6.5):
        rows.append((exponent, pow2_bounds(exponent)))
    assert sha(repr(rows).encode()) == "198d7dcaab4a9790ba37f49f5afc837ff448e7cd4b2ba8086cff5caa2eb55d16"


CLI_DIGESTS = {
    "sample": {
        "stdout": "21f11b55ab86ab27d76b5cc07cace6ec40ada3e2ed63c5d98260a3162233ac05",
        "out": "32c07c622b4294ffb3f1563ae7d4563d46b495f0c2e398167dd0d0a67c1857d9",
    },
    "soundness-sum": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "d5dc0a2cf1a97b72a80b9db7f43df1d2b8f2f375d5aacf680c13aa48f138d0e3",
    },
    "oracle-honest": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "e002b01d871fba5a6caee22533abdbdaa50a83379db2af4a21aeed43a39f913f",
    },
    "oracle-inflating": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "be47920ed95febc49a192ef117b04e5602b3d8604649db442a27540be90e1b69",
    },
    "sample-calibrated": {
        "stdout": "21f11b55ab86ab27d76b5cc07cace6ec40ada3e2ed63c5d98260a3162233ac05",
        "out": "ac0536b8bdf11f6768390c7ac33d1110512ec41b0aab04498f352d1e460bd5b8",
    },
    "oracle-calibrated": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "0e1e2c359d71973e513a2900fea565f814927a6e73bddb098ee4d42862f3dd29",
    },
    "transform-member": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "70a6f764058120c23a97c8887f942b65c25aa4e4c03999898354e7c444b4a734",
    },
    "transform-nonmember": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "d1a6a53d674a6076364de101e763284666c229c9476de05544b9f9ba063bdd86",
    },
}


@pytest.mark.parametrize(
    "name, argv",
    [
        ("sample", ["sample", "--config", "honest.json", "--seed", "7"]),
        ("soundness-sum", ["soundness-sum", "--config", "honest.json", "--x", "0",
                           "--trials", "500", "--seed", "3"]),
        ("oracle-honest", ["oracle", "--config", "honest.json"]),
        ("oracle-inflating", ["oracle", "--config", "inflating-1.json"]),
        ("transform-member", ["transform", "--instance", "member.json",
                              "--rounds-trials", "200", "--seed", "2"]),
        ("transform-nonmember", ["transform", "--instance", "nonmember.json",
                                 "--rounds-trials", "200", "--seed", "2"]),
        ("sample-calibrated", ["sample", "--config", "calibrated.json", "--seed", "3"]),
        ("oracle-calibrated", ["oracle", "--config", "calibrated.json"]),
    ],
)
def test_cli_bytes(capsys, half_eps, name, argv):
    argv = [str(half_eps / a) if a.endswith(".json") else a for a in argv]
    stdout, out = run_cli(capsys, argv, half_eps / "report.out")
    assert {"stdout": sha(stdout), "out": sha(out)} == CLI_DIGESTS[name]


def test_estimate_inflating_n16_bytes(capsys, tmp_path):
    """``estimate`` with ``inflating:1`` at n = 16: 300 elements in two
    bands; every trial hashes at width 5, and 27 of the 50 trials pad a
    set from the spare pool; the digests were recorded before the
    inflating prover's sets were built on the honest plan."""
    support = random.Random(16).sample(range(1 << 16), 300)
    mass = {format(x, "04x"): "1/200" if pos % 3 == 0 else "1/400" for pos, x in enumerate(support)}
    (tmp_path / "dist.json").write_text(json.dumps({"n": 16, "mass": mass}))
    params = {"mode": "raw", "n": 16, "eps": 0.5, "delta": 0.5, "t": 32, "sampling_gap": 3.0}
    cfg = {"distribution": "dist.json", "params": params, "prover": "inflating:1"}
    (tmp_path / "inflating.json").write_text(json.dumps(cfg))
    argv = ["estimate", "--config", str(tmp_path / "inflating.json"), "--trials", "50", "--seed", "5"]
    stdout, out = run_cli(capsys, argv, tmp_path / "report.out")
    assert {"stdout": sha(stdout), "out": sha(out)} == {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "9f81d3e2fbdd5ec10aad3a197ceda3bad416df7811037bcc890f412bc206486c",
    }
