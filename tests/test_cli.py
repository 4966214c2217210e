import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_mc_harness import _EDGE_VALUES, _reject_constant

from maxstable_pv import cli, gauss_kernels, increment_law, mc_harness, pv_stats
from maxstable_pv.path_sim import (
    Grid,
    VolatilitySpec,
    replicate_rng,
    sample_brown_resnick,
    sample_max_two_bm,
)
from maxstable_pv.quadrature import QuadratureError


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


@pytest.mark.parametrize("module", [gauss_kernels, increment_law],
                         ids=("tabulate-kernels", "tabulate-increment-law"))
@pytest.mark.parametrize("error", [QuadratureError("tolerance missed", None),
                                   OverflowError("past the float range")],
                         ids=("quadrature", "overflow"))
def test_numerical_failure_exits_3(module, error, monkeypatch, capsys):
    # a missed quadrature tolerance or an overflow in either tabulation is a
    # numerical failure, reported on stderr
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(module, "adaptive_gauss_kronrod", fail)
    argv = (["tabulate-kernels", "--p", "2"] if module is gauss_kernels
            else ["tabulate-increment-law", "--sigma", "1.0", "--n", "64"])
    assert run_cli(*argv) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_constant_overflow_exits_2(capsys):
    # J_400 is about Gamma(200), past the largest float; the config refuses it
    # before any quadrature runs
    assert run_cli("verify", "--experiment", "moment_bias", "--p", "400") == 2
    assert "p = 400 is too large for moment_bias" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["tabulate-kernels", "--p", "10"], "only up to order p = 9"),
    (["tabulate-kernels", "--p", "400"], "only up to order p = 9"),
    (["tabulate-increment-law", "--sigma", "1.0", "--n", "64", "--p", "221"], "p <= 220"),
    (["verify", "--experiment", "marginal_increment", "--p", "221"], "p <= 220"),
    (["verify", "--experiment", "moment_bias", "--p", "221"], "p <= 220"),
], ids=("kernels-p10", "kernels-p400", "increment-law-p221", "marginal-p221",
        "moment_bias-p221"))
def test_orders_past_the_quadratures_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    # refused with no warning, before any quadrature runs, replicate is
    # drawn or output is written
    def fail(*args, **kwargs):
        pytest.fail("a quadrature ran or a replicate was drawn")
    for module in (gauss_kernels, increment_law):
        monkeypatch.setattr(module, "adaptive_gauss_kronrod", fail)
    monkeypatch.setattr(mc_harness, "_map_replicates", fail)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(*argv, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("p", (1, 2))
def test_moment_bias_below_its_resolution_exits_2(p, tmp_path, monkeypatch, capsys):
    # at sigma = 1e-8 the limit sigma * J_p is within 100x of the error
    # MOMENT_TOL allows the scaled gap at n = 1e8, so the verdict would judge
    # round-off: refused before any quadrature, while sigma = 1e-4 passes
    real = increment_law.adaptive_gauss_kronrod

    def fail(*args, **kwargs):
        pytest.fail("a quadrature ran")
    monkeypatch.setattr(increment_law, "adaptive_gauss_kronrod", fail)
    out = tmp_path / "report.json"
    argv = ["verify", "--experiment", "moment_bias", "--p", str(p), "--out", str(out)]
    assert run_cli(*argv, "--sigma", "1e-8") == 2
    assert "moment_bias cannot resolve sigma = 1e-08" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setattr(increment_law, "adaptive_gauss_kronrod", real)
    assert run_cli(*argv, "--sigma", "1e-4") == 0
    assert json.loads(out.read_text())["aggregate"]["rel_gap_at_1e8"] < 0.01


def test_tabulate_kernels_roundtrip(tmp_path):
    out = tmp_path / "k.csv"
    assert run_cli("tabulate-kernels", "--p", "2", "--sigma", "1.0",
                   "--points", "21", "--out", str(out)) == 0
    with open(out, encoding="utf-8") as fh:
        meta = dict(item.split("=", 1) for item in fh.readline()[1:].split())
    w, phi, phi2 = np.loadtxt(out, delimiter=",", skiprows=2).T
    assert int(meta["p"]) == 2 and float(meta["sigma"]) == 1.0
    assert len(w) == 21
    # repr round-trips, so the CSV carries the table bit for bit
    want = gauss_kernels.tabulate_kernels(2, 1.0, points=21)
    for got, values in zip((w, phi, phi2), want[:3]):
        assert np.array_equal(got, values)
    assert float(meta["lambda_phi"]) == want[3]
    assert float(meta["lambda_phi2"]) == want[4]
    assert float(meta["abs_tol"]) == gauss_kernels.KERNEL_TOL.abs_tol
    assert float(meta["rel_tol"]) == gauss_kernels.KERNEL_TOL.rel_tol


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
    # the same columns as model br: argmax_atom is the Brownian motion on top
    assert lines[0] == "replicate,i,t,value,argmax_atom"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == reps * (n + 1)
    for r in range(reps):
        path = sample_max_two_bm(Grid(n), replicate_rng(seed, r))
        w1, w2 = path.z
        mine = rows[r * (n + 1):(r + 1) * (n + 1)]
        assert [(int(row[0]), int(row[1])) for row in mine] == [(r, i) for i in range(n + 1)]
        # repr round-trips, so the values come back bit for bit
        assert np.array_equal([float(row[3]) for row in mine], np.maximum(w1, w2))
        assert [int(row[4]) for row in mine] == (w2 > w1).astype(int).tolist()


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
    # B sums floor(n t_eval) - 1 increments, none at n = 64, t_eval = 0.01
    (["--experiment", "clt", "--n", "64", "--t-eval", "0.01"], None,
     "floor(n t_eval) must be at least 2"),
    # sigma^2 / n underflows to 0: the sampler's steps would divide by it
    (["--experiment", "frechet", "--sigma", "5e-324"], None, "underflows to 0 or overflows"),
    # the br stop rule cannot fire: epsilon / 2 rounds to 0, so q_eps is
    # infinite; q_eps = 37 at epsilon 1e-300 and 3e150 at sigma 1e150 need
    # about e^q_eps atoms, far past the budget
    (["--experiment", "lln", "--epsilon", "5e-324"], None, "the stop rule cannot fire"),
    (["--experiment", "lln", "--epsilon", "1e-300"], None, "the stop rule cannot fire"),
    (["--experiment", "lln", "--sigma", "1e150"], None, "the stop rule cannot fire"),
    (["--experiment", "lln", "--p", "0"], None, "order p must be a positive integer"),
    (["--experiment", "clt", "--p", "-1"], None, "order p must be a positive integer"),
    # the sampler's block-memory cap, n = 2^20, for either model
    (["--experiment", "lln", "--n", "1048576", "--reps", "8"], None, "above the cap"),
    (["--experiment", "lln", "--model", "max2bm", "--n", "1048576", "--reps", "8"], None,
     "above the cap"),
    (["--experiment", "clt", "--model", "max2bm", "--n", "1048576", "--reps", "8"], None,
     "above the cap"),
    # m_p and J_p overflow past p ~ 300, clt's m_2p past p ~ 150, and the
    # power-variation scale n^{p/2-1} past p ~ 188 at n = 2048
    (["--experiment", "lln", "--model", "br", "--p", "339", "--n", "64", "--reps", "4"],
     None, "p = 339 is too large for lln"),
    (["--experiment", "clt", "--model", "max2bm", "--p", "200", "--n", "64", "--reps", "4"],
     None, "m_p at p = 400 is past the float range"),
    (["--experiment", "lln", "--model", "max2bm", "--p", "200", "--n", "2048", "--reps", "4"],
     None, "p = 200 is too large for lln"),
    (["--experiment", "estimate_h", "--p", "302", "--n", "64", "--window", "16"], None,
     "p = 302 is too large for estimate_h"),
    # at sigma = 2 the LLN target m_241 sigma^241 (about 2.5e307) is finite,
    # while the allowance's |J_241| sigma^242 is not (a sigma past about 10.7,
    # such as 193, is refused first: its stop rule cannot fire)
    (["--experiment", "lln", "--model", "br", "--p", "241", "--sigma", "2", "--n", "64",
      "--reps", "4"], None, "p = 241 is too large for lln"),
], ids=("marginal-max2bm", "frechet-max2bm", "estimate_h-no-window", "max2bm-sigma2",
        "max2bm-h_spec", "malformed-h_spec", "moment_bias-power", "marginal-power",
        "power-law-nan", "epsilon-0", "halfwidth-0", "halfwidth-100", "halfwidth-4-n4096",
        "halfwidth-subnormal-br", "halfwidth-subnormal-max2bm", "window-4",
        "clt-no-increment", "sigma-subnormal", "epsilon-subnormal", "epsilon-1e-300",
        "sigma-1e150", "lln-p0", "clt-p-1", "n-over-cap",
        "n-over-cap-max2bm-lln", "n-over-cap-max2bm-clt", "lln-p339", "clt-m2p-overflow",
        "lln-scale-overflow",
        "estimate_h-overflow", "lln-allowance-overflow"))
def test_verify_runner_preconditions_exit_2(argv, file_cfg, message, tmp_path,
                                            monkeypatch, capsys):
    # each config breaks a precondition of its experiment or model; building
    # the config refuses it, before any replicate is drawn or report written
    monkeypatch.setattr(mc_harness, "_map_replicates",
                        lambda *a: pytest.fail("a replicate was drawn"))
    for sampler in ("sample_brown_resnick", "sample_max_two_bm"):
        monkeypatch.setattr(mc_harness, sampler,
                            lambda *a, **k: pytest.fail("a sampler was called"))
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
    ["simulate", "--model", "br", "--n", "8", "--sigma", "5e-324"],
    # a stop rule that cannot fire within the atom budget
    ["simulate", "--model", "br", "--n", "8", "--epsilon", "5e-324"],
    ["simulate", "--model", "br", "--n", "8", "--epsilon", "1e-300"],
    ["simulate", "--model", "br", "--n", "8", "--sigma", "1e150"],
    # model br takes sigma or an H table, not both, as verify does
    ["simulate", "--model", "br", "--n", "8", "--h-spec", "h.csv", "--sigma", "5"],
    # the samplers' block-memory cap, n = 2^20, for either model
    ["simulate", "--model", "br", "--n", "1048576"],
    ["simulate", "--model", "max2bm", "--n", "1048576"],
    ["simulate", "--model", "max2bm", "--n", "8", "--epsilon", "0"],
    # at least one replicate, from a non-negative seed
    ["simulate", "--model", "br", "--n", "8", "--reps", "-3"],
    ["simulate", "--model", "br", "--n", "8", "--seed", "-1"],
], ids=("powervar", "powervar-empty", "estimate-h", "simulate", "simulate-epsilon",
        "simulate-max2bm-sigma2", "simulate-max2bm-h-spec", "simulate-h-spec-nan",
        "simulate-sigma-subnormal", "simulate-epsilon-subnormal", "simulate-epsilon-1e-300",
        "simulate-sigma-1e150",
        "simulate-sigma-and-h-spec", "simulate-n-over-cap", "simulate-n-over-cap-max2bm",
        "simulate-epsilon-max2bm", "simulate-reps-negative",
        "simulate-seed-negative"))
def test_bad_input_leaves_existing_out_untouched(argv, tmp_path, monkeypatch, capsys):
    # refused before any path is drawn
    for sampler in ("sample_brown_resnick", "sample_max_two_bm"):
        monkeypatch.setattr(mc_harness, sampler,
                            lambda *a, **k: pytest.fail("a sampler was called"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "nan.csv").write_text("s,H\n0.0,1.0\n0.5,nan\n1.0,1.0\n")
    (tmp_path / "h.csv").write_text("s,H\n0.0,1.0\n1.0,2.0\n")
    keep = tmp_path / "keep.csv"
    keep.write_text("old\n")
    assert run_cli(*argv, "--out", str(keep)) == 2
    assert keep.read_text() == "old\n"


@pytest.mark.parametrize("argv", [
    # B near 1e155: its variance overflows
    ["--experiment", "lln", "--p", "153", "--n", "64", "--reps", "2", "--sigma", "3",
     "--epsilon", "0.0078125", "--master-seed", "163"],
    # B is far below the ulp of the target m_31, so S rounds to one value and
    # the regression's r_squared is 0/0
    ["--experiment", "clt", "--p", "31", "--n", "2", "--reps", "2"],
], ids=("lln-variance", "clt-constant-S"))
def test_statistic_past_the_float_range_exits_3(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_text("old\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("verify", *argv, "--out", str(out)) == 3
    assert "a statistic of the run is past the float range" in capsys.readouterr().err
    assert out.read_text() == "old\n"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "maxstable_pv.cli",
                           "tabulate-increment-law", "--sigma", "1.0",
                           "--n", "64", "--points", "5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "u,marginal_cdf,cond_cdf_eta1" in proc.stdout


# valid values of the verify fields (each given by flag or in --config) and
# of the simulate flags, both models included, at n <= 64 and reps <= 4
_VERIFY_VALUES = {
    "experiment": st.sampled_from(sorted(mc_harness.EXPERIMENTS)),
    "model": st.sampled_from(["br", "max2bm"]),
    # half the orders small, where every experiment runs; the rest up to
    # where the constants leave the float range
    "p": st.one_of(st.integers(1, 10), st.integers(1, 400)),
    "n": st.sampled_from([2, 8, 64]),
    "reps": st.integers(2, 4),
    "sigma": st.one_of(st.none(), st.floats(0.1, 4.0)),
    "epsilon": st.floats(1e-6, 1e-2),
    "halfwidth": st.floats(0.01, 3.9),
    "master_seed": st.integers(0, 2 ** 64),
    "t_eval": st.floats(0.01, 1.0),
    "window": st.sampled_from([0, 16]),
}
_SIMULATE_VALUES = {
    "model": st.sampled_from(["br", "max2bm"]),
    "n": st.sampled_from([2, 8, 64]),
    "reps": st.integers(1, 4),
    "seed": st.integers(0, 2 ** 64),
    "sigma": st.one_of(st.none(), st.floats(0.1, 4.0)),
    "epsilon": st.floats(1e-6, 1e-2),
}


def _edges(keys):
    # an edge value replaces a valid one; a large integer for reps would be
    # a valid run past the size this property runs
    return st.dictionaries(st.sampled_from(sorted(keys)), _EDGE_VALUES, max_size=2).filter(
        lambda d: not (type(d.get("reps")) is int and d["reps"] > 4))


_VERIFY_BASE = dict(experiment="clt", model="br", p=2, n=64, reps=2, sigma=None,
                    epsilon=1e-3, halfwidth=1.0, master_seed=0, t_eval=1.0, window=0)
_SIMULATE_BASE = dict(model="br", n=8, reps=1, seed=0, sigma=None, epsilon=1e-3)


@settings(max_examples=300, deadline=None)
# a subnormal halfwidth, once accepted, overflowed the pair functional's
# step weights inside every replicate
@example("verify", _VERIFY_BASE, {"halfwidth": 5e-324}, set(), _SIMULATE_BASE, {})
@example("verify", {**_VERIFY_BASE, "model": "max2bm"}, {"halfwidth": 5e-324}, {"halfwidth"},
         _SIMULATE_BASE, {})
@given(st.sampled_from(["verify", "simulate"]),
       st.fixed_dictionaries(_VERIFY_VALUES), _edges(_VERIFY_VALUES),
       st.sets(st.sampled_from(sorted(_VERIFY_VALUES))),
       st.fixed_dictionaries(_SIMULATE_VALUES), _edges(_SIMULATE_VALUES))
def test_cli_refuses_before_drawing_or_runs_clean(command, verify, verify_edges, as_flags,
                                                   simulate, simulate_edges):
    # either the input is refused (exit 2) before any path is drawn, leaving
    # an existing --out as it was, or the run exits 0, 1 or 3 with no
    # RuntimeWarning, and a report it writes is strict JSON
    real = mc_harness.sample_brown_resnick
    draws = []

    def counted_br(*args, **kwargs):
        draws.append(1)
        # a stop rule that rarely fires (sigma 4 at epsilon 1e-6 needs about
        # 3e8 atoms) exhausts any budget; a small one gets to that exit 3 sooner
        return real(*args, **{**kwargs, "atom_budget": 2 ** 14})

    def counted_max2bm(*args, **kwargs):
        draws.append(1)
        return sample_max_two_bm(*args, **kwargs)

    if command == "verify":
        fields = {**verify, **verify_edges}
        flags = {k: v for k, v in fields.items() if k in as_flags and v is not None}
        file_cfg = {k: v for k, v in fields.items() if k not in flags}
    else:
        flags = {k: v for k, v in {**simulate, **simulate_edges}.items() if v is not None}
        file_cfg = None
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(mc_harness, "sample_brown_resnick", counted_br), \
            mock.patch.object(mc_harness, "sample_max_two_bm", counted_max2bm), \
            mock.patch.dict("os.environ", {"MAXSTABLE_PV_THREADS": "1"}), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = Path(tmp) / "out"
        out.write_text("old\n")
        argv = [command, "--out", str(out)]
        if file_cfg is not None:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(file_cfg))
            argv += ["--config", str(cfg)]
        for key, value in flags.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        code = run_cli(*argv)
        if code == 2:
            assert not draws
            assert out.read_text() == "old\n"
            return
        assert code in (0, 1, 3)
        written = out.read_text()
        if command == "verify" and written != "old\n":
            json.loads(written, parse_constant=_reject_constant)
