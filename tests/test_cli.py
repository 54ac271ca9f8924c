"""CLI subcommands: outputs, file formats, determinism, error handling."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coinpress.cli import main


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "dist.json").write_text(
        json.dumps({"n": 3, "mass": {"0": "1/2", "3": "1/4", "5": "1/4"}})
    )
    (tmp_path / "tiny.json").write_text(
        json.dumps(
            {
                "distribution": "dist.json",
                "params": {
                    "mode": "raw", "n": 3, "eps": 1.0, "delta": 0.5, "t": 6,
                    "gap_size": 1, "interval_size": 2, "sampling_gap": 4.0,
                },
                "prover": "honest",
                "trials": 400,
            }
        )
    )
    (tmp_path / "mix.json").write_text(
        json.dumps(
            {
                "components": [
                    {"weight": "1/2", "distribution": {"n": 3, "mass": {"0": "1/2", "7": "1/2"}}},
                    {"weight": "1/2", "distribution": {"n": 3, "mass": {"0": "1/1"}}},
                ]
            }
        )
    )
    (tmp_path / "mixcfg.json").write_text(
        json.dumps(
            {
                "distribution": "dist.json",
                "params": {
                    "mode": "raw", "n": 3, "eps": 1.0, "delta": 0.5, "t": 6,
                    "gap_size": 1, "interval_size": 2, "sampling_gap": 4.0,
                },
                "prover": "mixture:mix.json",
            }
        )
    )
    (tmp_path / "inst.json").write_text(json.dumps({"s0": "aab", "s1": "abb"}))
    return tmp_path


def test_params_reports_fallback(capsys):
    assert main(["params", "-n", "64", "--eps", "0.9", "--delta", "0.9"]) == 0
    out = capsys.readouterr().out
    assert "trivial-fallback" in out


def test_params_raw_mode(capsys):
    assert main(["params", "-n", "8", "--eps", "0.25", "--delta", "0.5", "--raw"]) == 0
    payload = json.loads(capsys.readouterr().out.rsplit("mode:", 1)[0])
    assert payload["t"] == 64 and payload["gap_size"] == 16


def test_sample_deterministic(workspace, capsys):
    cfg = str(workspace / "tiny.json")
    assert main(["sample", "--config", cfg, "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", "--config", cfg, "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert "output x=" in first


def test_estimate_writes_identical_files(workspace):
    cfg = str(workspace / "tiny.json")
    out1 = workspace / "r1.json"
    out2 = workspace / "r2.json"
    for out in (out1, out2):
        assert main([
            "estimate", "--config", cfg, "--trials", "300", "--seed", "5",
            "--out", str(out),
        ]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["n_trials"] == 300


def test_estimate_csv_format(workspace, capsys):
    cfg = str(workspace / "tiny.json")
    assert main(["estimate", "--config", cfg, "--trials", "200", "--seed", "1",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "x,p,count,frequency"


def test_oracle_reports_exact_values(workspace, capsys):
    cfg = str(workspace / "tiny.json")
    assert main(["oracle", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["element_marginal"] == {"0": "1/2", "3": "1/4", "5": "1/4"}
    assert payload["band_sandwich_ok"] and payload["band_sums_ok"]


def test_oracle_with_mixture_prover(workspace, capsys):
    cfg = str(workspace / "mixcfg.json")
    assert main(["oracle", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["element_marginal"]["0"] == "3/4"
    assert payload["soundness_sums"]["0"] == "1/1"


def test_oracle_and_estimate_agree(workspace, capsys):
    # the exact report and a 20000-trial estimate agree within the
    # estimate's own confidence half-width
    import math

    cfg = str(workspace / "tiny.json")
    assert main(["oracle", "--config", cfg]) == 0
    exact = json.loads(capsys.readouterr().out)
    assert main(["estimate", "--config", cfg, "--trials", "20000", "--seed", "9"]) == 0
    est = json.loads(capsys.readouterr().out)
    width = est["half_width"]
    for key, value in exact["outputs"].items():
        x, _band, p = key.split("|")
        num, den = p.split("/")
        freq = est["bins"].get(f"{x}|{p}", 0) / est["n_trials"]
        assert abs(freq - int(num) / int(den)) <= width


def test_soundness_sum(workspace, capsys):
    cfg = str(workspace / "tiny.json")
    assert main(["soundness-sum", "--config", cfg, "--x", "0", "--trials", "2000",
                 "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["estimate"] - 1.0) < 0.1


def test_hash_check(capsys):
    assert main(["hash-check", "--n", "2", "--m", "1", "--trials", "200",
                 "--set-size", "128", "--mix-n", "10", "--mix-m", "3",
                 "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS 3wise n=2 m=1" in out
    assert "mixing" in out


@pytest.mark.parametrize("gamma", ["0", "-0.5", "nan", "inf"])
def test_hash_check_refuses_gamma(gamma, capsys):
    """A gamma outside (0, inf) is a usage error, not a traceback (0) or a
    vacuous PASS (nan)."""
    assert main(["hash-check", "--n", "2", "--m", "1", "--trials", "20",
                 "--set-size", "16", "--mix-n", "6", "--mix-m", "2",
                 "--gamma", gamma]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "gamma" in captured.err
    assert "mixing" not in captured.out
    assert "3wise" not in captured.out


def test_import_path_loads_no_numpy():
    """Only the exhaustive self-checks behind ``hash-check`` import numpy,
    inside the functions that use it; every command starts without it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys\n"
        "from coinpress import adversaries, cli, harness, ip2am, oracle\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"


def test_runs_without_numpy():
    """coinpress has no runtime dependency: with numpy made unimportable,
    every module loads and ``hash-check`` prints the bytes it always has."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['numpy'] = None\n"
        "import coinpress\n"
        "for mod in pkgutil.iter_modules(coinpress.__path__):\n"
        "    importlib.import_module('coinpress.' + mod.name)\n"
        "from coinpress.cli import main\n"
        "sys.exit(main(['hash-check', '--n', '2', '3', '--m', '1', '2', '--trials', '200']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "PASS 3wise n=2 m=1 count=8\n"
        "PASS 3wise n=2 m=2 count=1\n"
        "PASS 3wise n=3 m=1 count=64\n"
        "PASS 3wise n=3 m=2 count=8\n"
        "PASS mixing |B|=1024 m=5 gamma=0.5 freq=0.04500 bound=0.12500\n"
    )


def test_transform(workspace, capsys):
    inst = str(workspace / "inst.json")
    assert main(["transform", "--instance", inst, "--rounds-trials", "40",
                 "--seed", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["in_language"] is True
    assert payload["accept_rate"] == 1.0


def test_prover_flag_variants(workspace, capsys):
    base = json.loads((workspace / "tiny.json").read_text())
    (workspace / "script.json").write_text(
        json.dumps({"histogram": None})  # guaranteed round-1 reject
    )
    for prover, expect in (
        ("rejecting:1/1", "reject"),
        ("rejecting:0/1", "output"),
        ("inflating:0", "output"),
        ("scripted:script.json", "reject reason=malformed-histogram"),
    ):
        cfg = dict(base, prover=prover)
        path = workspace / "variant.json"
        path.write_text(json.dumps(cfg))
        assert main(["sample", "--config", str(path), "--seed", "3"]) == 0
        assert expect in capsys.readouterr().out


def test_scripted_histogram_compiles_once(workspace, capsys, compiles):
    """A scripted prover sends its histogram as one tuple, so the verifier
    compiles it once across an estimate's trials; the transcript that
    records it keeps its bytes."""
    (workspace / "script.json").write_text(json.dumps({
        "histogram": ["0/1", "1/2", "1/2", "0/1", "0/1", "0/1", "0/1"],
        "sets": {"1": ["0"], "2": ["3", "5"]},
        "probability": "1/4",
    }))
    cfg = dict(json.loads((workspace / "tiny.json").read_text()), prover="scripted:script.json")
    (workspace / "scripted.json").write_text(json.dumps(cfg))
    config = str(workspace / "scripted.json")
    assert main(["estimate", "--config", config, "--trials", "40", "--seed", "1"]) == 0
    assert len(compiles) == 1
    out = workspace / "transcript.json"
    assert main(["sample", "--config", config, "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9cee726a9344f2d8ad9d51ab2eb2134c7d79e59dfbf30788c7fcc3d1642195c9"
    )


def test_invalid_config_exits_nonzero(workspace, capsys):
    missing = str(workspace / "nope.json")
    assert main(["estimate", "--config", missing, "--seed", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_distribution_exits_nonzero(workspace, capsys):
    (workspace / "bad.json").write_text(
        json.dumps(
            {
                "distribution": {"n": 2, "mass": {"0": "1/2", "1": "1/3"}},
                "params": {"mode": "raw", "n": 2, "eps": 1.0, "delta": 0.5},
            }
        )
    )
    assert main(["sample", "--config", str(workspace / "bad.json")]) == 2


@pytest.mark.parametrize(
    "edit",
    [
        {"distribution": {"n": 3, "mass": [["0", "1/1"]]}},
        {"distribution": {"n": 3, "mass": {"0": 1}}},
        {"params": [1, 2]},
        {"prover": "mixture:no-distribution.json"},
        {"prover": "scripted:list-sets.json"},
    ],
    ids=["mass-list", "mass-number", "params-list", "component-without-distribution",
         "scripted-list-sets"],
)
def test_malformed_config_is_an_error(workspace, capsys, edit):
    (workspace / "no-distribution.json").write_text(
        json.dumps({"components": [{"weight": "1/1"}]})
    )
    (workspace / "list-sets.json").write_text(json.dumps({"sets": [["0"]]}))
    cfg = dict(json.loads((workspace / "tiny.json").read_text()), **edit)
    path = workspace / "malformed.json"
    path.write_text(json.dumps(cfg))
    assert main(["estimate", "--config", str(path), "--trials", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "instance",
    [["aab", "abb"], {"s0": 5, "s1": "ab"}, {"s0": "ab"}],
    ids=["list", "number-side", "missing-side"],
)
def test_malformed_instance_is_an_error(workspace, capsys, instance):
    path = workspace / "bad-instance.json"
    path.write_text(json.dumps(instance))
    assert main(["transform", "--instance", str(path), "--rounds-trials", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "params",
    [
        {"mode": "raw", "n": 7, "eps": 1.0, "delta": 0.5, "t": 14, "gap_size": 1, "interval_size": 2},
        {"mode": "raw", "n": 6, "eps": 1.0, "delta": 0.5, "t": 8000, "gap_size": 1, "interval_size": 1},
    ],
    ids=["width-7", "over-budget"],
)
def test_oracle_refusal_is_an_error(workspace, capsys, params):
    path = workspace / "wide.json"
    path.write_text(json.dumps({"distribution": {"n": params["n"], "mass": {"0": "1/1"}},
                                "params": params}))
    assert main(["oracle", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("given", [False, True], ids=["derived", "all-given"])
def test_eps_past_a_double_is_a_config_error(workspace, capsys, given):
    """An eps whose raw constants overflow a double is a config error, not a
    traceback from ``ProtocolParams.raw``."""
    params = {"mode": "raw", "n": 3, "eps": 5e-324, "delta": 0.5}
    if given:
        params.update(t=6, gap_size=1, interval_size=2, sampling_gap=1.0)
    path = workspace / "tiny-eps.json"
    path.write_text(json.dumps({"distribution": "dist.json", "params": params}))
    assert main(["oracle", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows a double" in err


@pytest.mark.parametrize("command", ["sample", "oracle"])
def test_t_past_an_index_is_a_config_error(workspace, capsys, command):
    """An eps whose raw constants fit a double can still derive a t with
    more bands than a list can index (here t = ceil(6 / 1e-300)). Building
    the histogram or the layout is a config error, not a traceback."""
    path = workspace / "tiny-eps.json"
    path.write_text(json.dumps({
        "distribution": "dist.json", "params": {"mode": "raw", "n": 3, "eps": 1e-300, "delta": 0.5},
    }))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cannot be indexed" in err


@pytest.mark.parametrize("command", ["sample", "oracle"])
def test_t_past_the_band_cap_is_a_config_error(workspace, capsys, command):
    """eps = 1e-9 at n = 3 derives t = 6e9: indexable, but its bands would
    take GBs. It is refused at the band cap, before anything is built."""
    path = workspace / "small-eps.json"
    path.write_text(json.dumps({
        "distribution": "dist.json", "params": {"mode": "raw", "n": 3, "eps": 1e-9, "delta": 0.5},
    }))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MAX_BANDS" in err


def test_unknown_params_mode_is_a_config_error(workspace, capsys):
    path = workspace / "odd-mode.json"
    path.write_text(json.dumps({"distribution": "dist.json", "params": {"mode": "exact", "n": 3}}))
    assert main(["sample", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown params mode" in err


@pytest.mark.parametrize("raw", [[], ["--raw"]], ids=["calibrated", "raw"])
def test_width_past_a_double_is_an_error(capsys, raw):
    """n = 10**400 is outside 1..64, and 2 * n / eps overflows before the
    params check n: an error either way, not a traceback."""
    assert main(["params", "-n", str(10**400), "--eps", "0.5", "--delta", "0.5", *raw]) == 2
    assert capsys.readouterr().err.startswith("error: ")
