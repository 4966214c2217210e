import json
import subprocess
import sys

import numpy as np
import pytest

from maxstable_pv import cli, mc_harness, pv_stats
from maxstable_pv.path_sim import (
    Grid,
    VolatilitySpec,
    replicate_rng,
    sample_brown_resnick,
    sample_max_two_bm,
)


def run_cli(*argv):
    return cli.main(list(argv))


def test_missing_required_flag_exits_2(capsys):
    assert run_cli("powervar", "--t", "1.0") == 2


def test_unknown_flag_rejected(capsys):
    assert run_cli("simulate", "--model", "br", "--n", "64", "--frobnicate", "1") == 2


def test_bad_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    for field, bad in (("n", 100), ("n", 256.0), ("reps", 2.5), ("p", 1.5)):
        cfg.write_text(json.dumps({"experiment": "lln", "model": "br", "n": 256,
                                   "reps": 4, "sigma": 1.0, field: bad}))
        assert run_cli("verify", "--config", str(cfg)) == 2
        assert field in capsys.readouterr().err


def test_unknown_config_field_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": "lln", "model": "br", "n": 256,
                               "reps": 4, "sigma": 1.0, "frobnicate": True}))
    assert run_cli("verify", "--config", str(cfg)) == 2


def test_unreachable_tolerance_exits_3(capsys):
    assert run_cli("tabulate-kernels", "--p", "2", "--abs-tol", "1e-30",
                   "--rel-tol", "1e-30") == 3


def test_constant_overflow_exits_3(capsys):
    # J_400 is about Gamma(200), past the largest float
    assert run_cli("verify", "--experiment", "moment_bias", "--p", "400") == 3
    assert "numerical failure" in capsys.readouterr().err


def test_tabulate_kernels_roundtrip(tmp_path):
    out = tmp_path / "k.csv"
    assert run_cli("tabulate-kernels", "--p", "2", "--sigma", "1.0",
                   "--points", "21", "--out", str(out)) == 0
    with open(out, encoding="utf-8") as fh:
        meta = dict(item.split("=", 1) for item in fh.readline()[1:].split())
    w_grid = np.loadtxt(out, delimiter=",", skiprows=2)[:, 0]
    assert int(meta["p"]) == 2 and float(meta["sigma"]) == 1.0
    assert len(w_grid) == 21


def test_tabulate_increment_law(tmp_path):
    out = tmp_path / "law.csv"
    assert run_cli("tabulate-increment-law", "--sigma", "1.0", "--n", "256",
                   "--points", "11", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "u,marginal_cdf,cond_cdf_eta1"
    assert len(lines) == 13


def test_simulate_deterministic_and_powervar_roundtrip(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--model", "br", "--n", "128", "--reps", "3",
            "--seed", "5", "--sigma", "1.0", "--epsilon", "1e-3"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()

    pv_out = tmp_path / "pv.csv"
    assert run_cli("powervar", "--in", str(out1), "--p", "2", "--t", "1.0",
                   "--out", str(pv_out)) == 0
    rows = pv_out.read_text().strip().splitlines()[1:]
    got = {int(r.split(",")[0]): float(r.split(",")[2]) for r in rows}

    vol = VolatilitySpec.constant(1.0)
    for rep in range(3):
        ms = sample_brown_resnick(vol, Grid(128), replicate_rng(5, rep), 1e-3)
        expected = pv_stats.power_variation(ms.log_eta, 2, 1.0)
        assert got[rep] == expected      # bit-exact through the CSV boundary


def test_simulate_max2bm(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    n, reps, seed = 32, 3, 4
    args = ["simulate", "--model", "max2bm", "--n", str(n), "--reps", str(reps),
            "--seed", str(seed)]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "replicate,i,t,value"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == reps * (n + 1)
    for r in range(reps):
        mx, _ = sample_max_two_bm(Grid(n), replicate_rng(seed, r))
        mine = rows[r * (n + 1):(r + 1) * (n + 1)]
        assert [(int(row[0]), int(row[1])) for row in mine] == [(r, i) for i in range(n + 1)]
        # repr round-trips, so the values come back bit for bit
        assert np.array_equal([float(row[3]) for row in mine], mx.values)


def test_simulate_h_table_file(tmp_path):
    spec = tmp_path / "h.csv"
    spec.write_text("s,H\n0.0,1.0\n0.5,2.0\n1.0,1.0\n")
    out = tmp_path / "paths.csv"
    assert run_cli("simulate", "--model", "br", "--n", "64", "--reps", "2",
                   "--seed", "1", "--h-spec", str(spec), "--epsilon", "1e-3",
                   "--out", str(out)) == 0
    assert out.read_text().count("\n") == 2 * 65 + 1


def test_estimate_h_command(tmp_path):
    paths = tmp_path / "paths.csv"
    assert run_cli("simulate", "--model", "br", "--n", "4096", "--reps", "1",
                   "--seed", "2", "--sigma", "1.5", "--epsilon", "1e-3",
                   "--out", str(paths)) == 0
    out = tmp_path / "h.csv"
    assert run_cli("estimate-h", "--in", str(paths), "--p", "2",
                   "--window", "256", "--out", str(out)) == 0
    rows = out.read_text().strip().splitlines()[1:]
    vals = np.array([float(r.split(",")[2]) for r in rows])
    assert abs(np.median(vals) - 1.5) < 0.3


def test_verify_pass_and_report(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "moment_bias", "model": "br", "p": 1, "n": 256,
        "reps": 2, "sigma": 1.0}))
    out = tmp_path / "report.json"
    assert run_cli("verify", "--config", str(cfg), "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["verdicts"][0]["passed"] is True
    assert "wall_time" in report


@pytest.mark.parametrize("experiment", ["lln", "clt"])
def test_verify_with_tabulated_h(experiment, tmp_path, monkeypatch, capsys):
    # the report of a tabulated-H run must serialize like any other
    monkeypatch.setenv("MAXSTABLE_PV_THREADS", "1")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": experiment, "model": "br", "p": 2, "n": 64, "reps": 8,
        "sigma": None, "h_spec": {"form": "table", "s": [0.0, 0.5, 1.0],
                                  "h": [1.0, 1.5, 1.0]}}))
    out = tmp_path / "report.json"
    assert run_cli("verify", "--config", str(cfg), "--out", str(out)) != 2
    report = json.loads(out.read_text())
    assert report["config"]["h_spec"]["form"] == "table"


def test_verify_sigma_flag_is_a_float(tmp_path, monkeypatch):
    # sigma defaults to None in ExperimentConfig, yet its flag takes a float
    monkeypatch.setenv("MAXSTABLE_PV_THREADS", "1")
    out = tmp_path / "report.json"
    assert run_cli("verify", "--experiment", "lln", "--sigma", "1.5", "--n", "64",
                   "--reps", "4", "--out", str(out)) in (0, 1)
    assert json.loads(out.read_text())["config"]["sigma"] == 1.5


def test_verify_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "moment_bias", "model": "br", "p": 1, "n": 256,
        "reps": 2, "sigma": 1.0}))
    out = tmp_path / "report.json"
    assert run_cli("verify", "--config", str(cfg), "--p", "2",
                   "--out", str(out)) == 0
    assert json.loads(out.read_text())["config"]["p"] == 2


def test_verify_failing_verdict_exits_1(tmp_path):
    # 8 replicates cannot pin the CLT regression slope to 15%; this seed
    # fails deterministically
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "clt", "model": "br", "p": 2, "n": 64, "reps": 8,
        "sigma": 1.0, "epsilon": 1e-3, "master_seed": 0}))
    assert run_cli("verify", "--config", str(cfg)) == 1


def test_verify_requires_experiment(capsys):
    assert run_cli("verify") == 2


_POWER_LAW = {"form": "power_law", "a": 1.0, "b": 1.0, "gamma": 1.0}


@pytest.mark.parametrize("argv, file_cfg, message", [
    (["--experiment", "marginal_increment", "--model", "max2bm"], None,
     "marginal_increment requires model 'br'"),
    (["--experiment", "frechet", "--model", "max2bm"], None,
     "frechet requires model 'br'"),
    (["--experiment", "estimate_h"], None, "requires a window"),
    (["--experiment", "lln", "--model", "max2bm", "--sigma", "2"], None,
     "model 'max2bm' has unit volatility"),
    ([], {"experiment": "lln", "model": "max2bm", "sigma": None,
          "h_spec": {"form": "constant", "sigma": 1.0}},
     "model 'max2bm' has unit volatility"),
    ([], {"experiment": "lln", "sigma": None, "h_spec": {"form": "power_law", "a": 1.0}},
     "malformed h_spec"),
    ([], {"experiment": "moment_bias", "sigma": None, "h_spec": _POWER_LAW},
     "moment_bias requires a constant volatility"),
    ([], {"experiment": "marginal_increment", "sigma": None, "h_spec": _POWER_LAW},
     "marginal_increment requires a constant volatility"),
    # json.load reads NaN, which the spec must refuse before the pool starts
    ([], {"experiment": "lln", "n": 64, "reps": 16, "sigma": None,
          "h_spec": {"form": "power_law", "a": float("nan"), "b": 1.0}},
     "power-law parameters must be finite"),
    # the library's own range checks (sampler epsilon, kernel halfwidth,
    # estimate_h window) run when the config is built
    (["--experiment", "lln", "--epsilon", "0"], None, "epsilon must lie in (0, 0.01]"),
    (["--experiment", "clt", "--halfwidth", "0"], None, "halfwidth must be positive"),
    (["--experiment", "clt", "--n", "256", "--halfwidth", "100"], None,
     "reaches the retain margin"),
    # halfwidth/sqrt(n) = 4/64 is the retain margin 4/sqrt(n) at n = 4096
    (["--experiment", "clt", "--n", "4096", "--halfwidth", "4"], None,
     "reaches the retain margin"),
    # a band h/sqrt(n) below 1e-12 holds only exact ties, and at a subnormal
    # h the step weights overflow; refused for either model
    (["--experiment", "clt", "--model", "br", "--halfwidth", "5e-324", "--n", "64",
      "--reps", "4"], None, "the band h/sqrt(n) must be at least 1e-12"),
    (["--experiment", "clt", "--model", "max2bm", "--halfwidth", "5e-324", "--n", "64",
      "--reps", "4"], None, "the band h/sqrt(n) must be at least 1e-12"),
    (["--experiment", "estimate_h", "--window", "4"], None, "requires a window"),
    (["--experiment", "lln", "--p", "0"], None, "order p must be a positive integer"),
    (["--experiment", "clt", "--p", "-1"], None, "order p must be a positive integer"),
    # the sampler's block-memory cap, n = 2^20
    (["--experiment", "lln", "--n", "1048576", "--reps", "8"], None, "above the cap"),
], ids=("marginal-max2bm", "frechet-max2bm", "estimate_h-no-window", "max2bm-sigma2",
        "max2bm-h_spec", "malformed-h_spec", "moment_bias-power", "marginal-power",
        "power-law-nan", "epsilon-0", "halfwidth-0", "halfwidth-100", "halfwidth-4-n4096",
        "halfwidth-subnormal-br", "halfwidth-subnormal-max2bm", "window-4", "lln-p0",
        "clt-p-1", "n-over-cap"))
def test_verify_runner_preconditions_exit_2(argv, file_cfg, message, tmp_path,
                                            monkeypatch, capsys):
    # each config breaks a precondition of its experiment or model; building
    # the config refuses it, before any replicate is drawn or report written
    monkeypatch.setattr(mc_harness, "_map_replicates",
                        lambda *a: pytest.fail("a replicate was drawn"))
    if file_cfg is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        argv = ["--config", str(cfg), *argv]
    out = tmp_path / "report.json"
    assert run_cli("verify", *argv, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["powervar", "--in", "missing.csv", "--p", "2"],
    ["powervar", "--in", "empty.csv", "--p", "2"],
    ["estimate-h", "--in", "missing.csv", "--p", "2", "--window", "4"],
    ["simulate", "--model", "br", "--n", "8", "--h-spec", "missing.csv"],
    ["simulate", "--model", "br", "--n", "8", "--epsilon", "0"],
    # the max of two standard Brownian motions has unit volatility
    ["simulate", "--model", "max2bm", "--n", "8", "--sigma", "2"],
    ["simulate", "--model", "max2bm", "--n", "8", "--h-spec", "empty.csv"],
    ["simulate", "--model", "br", "--n", "8", "--h-spec", "nan.csv"],
    # model br takes sigma or an H table, not both, as verify does
    ["simulate", "--model", "br", "--n", "8", "--h-spec", "h.csv", "--sigma", "5"],
    # the sampler's block-memory cap, n = 2^20
    ["simulate", "--model", "br", "--n", "1048576"],
    # at least one replicate, from a non-negative seed
    ["simulate", "--model", "br", "--n", "8", "--reps", "-3"],
    ["simulate", "--model", "br", "--n", "8", "--seed", "-1"],
], ids=("powervar", "powervar-empty", "estimate-h", "simulate", "simulate-epsilon",
        "simulate-max2bm-sigma2", "simulate-max2bm-h-spec", "simulate-h-spec-nan",
        "simulate-sigma-and-h-spec", "simulate-n-over-cap", "simulate-reps-negative",
        "simulate-seed-negative"))
def test_bad_input_leaves_existing_out_untouched(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "nan.csv").write_text("s,H\n0.0,1.0\n0.5,nan\n1.0,1.0\n")
    (tmp_path / "h.csv").write_text("s,H\n0.0,1.0\n1.0,2.0\n")
    keep = tmp_path / "keep.csv"
    keep.write_text("old\n")
    assert run_cli(*argv, "--out", str(keep)) == 2
    assert keep.read_text() == "old\n"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "maxstable_pv.cli",
                           "tabulate-increment-law", "--sigma", "1.0",
                           "--n", "64", "--points", "5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "u,marginal_cdf,cond_cdf_eta1" in proc.stdout
