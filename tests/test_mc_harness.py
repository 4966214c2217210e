import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

from maxstable_pv import cli
from maxstable_pv import mc_harness as mh
from maxstable_pv.mc_harness import ExperimentConfig, ks_statistic, ks_statistic_two_sample
from maxstable_pv.path_sim import TruncationError


def test_ks_statistic_quantile_samples():
    # samples placed at the quantiles k/(m+1): empirical CDF gap is exactly 1/10
    m = 9
    samples = [(k + 1) / (m + 1) for k in range(m)]
    assert ks_statistic(samples, lambda x: np.asarray(x)) == pytest.approx(0.1, abs=1e-15)


def test_ks_statistic_uniform_draws():
    rng = np.random.default_rng(0)
    u = rng.uniform(size=100_000)
    d = ks_statistic(u, lambda x: np.asarray(x))
    assert d < 0.0136 * 1.5


def test_ks_statistic_constant_sample():
    assert ks_statistic([0.5] * 100, lambda x: np.asarray(x)) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        ks_statistic([], lambda x: np.asarray(x))


def test_ks_two_sample():
    rng = np.random.default_rng(1)
    a = rng.normal(size=50_000)
    b = rng.normal(size=50_000)
    assert ks_statistic_two_sample(a, b) < 1.36 * math.sqrt(2 / 50_000) * 1.5
    assert ks_statistic_two_sample([0.0], [1.0]) == 1.0


def test_config_validation():
    good = dict(experiment="lln", model="br", n=256, reps=4, sigma=1.0)
    ExperimentConfig(**good)
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "experiment": "nope"})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "reps": 1})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "n": 100})        # not a power of two
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "t_eval": 0.0})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "h_spec": {"form": "constant", "sigma": 1.0}})
    for field, bad in (("n", 256.0), ("reps", 2.5), ("p", 1.5), ("window", 1.5),
                       ("master_seed", True), ("p", "2")):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ExperimentConfig(**{**good, field: bad})
    cfg = ExperimentConfig(**{**good, "sigma": None,
                              "h_spec": {"form": "power_law", "a": 1.0, "b": 1.0,
                                         "gamma": 1.0}})
    assert cfg.volatility.kind == "power_law"
    # sigma null without an h_spec is the unit volatility, as for max2bm
    assert ExperimentConfig(**{**good, "sigma": None}).volatility.sigma == 1.0


def test_config_roundtrip_and_hash():
    cfg = ExperimentConfig(experiment="clt", model="max2bm", n=1024, reps=8,
                           master_seed=5)
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()
    other = ExperimentConfig(experiment="clt", model="max2bm", n=1024, reps=8,
                             master_seed=6)
    assert other.config_hash() != cfg.config_hash()


def test_worker_resolution(monkeypatch, capsys):
    monkeypatch.setenv("MAXSTABLE_PV_THREADS", "3")
    assert mh._resolve_workers() == 3
    monkeypatch.setenv("MAXSTABLE_PV_THREADS", "0")
    assert mh._resolve_workers() == (os.cpu_count() or 1)
    monkeypatch.delenv("MAXSTABLE_PV_THREADS")
    assert mh._resolve_workers() == (os.cpu_count() or 1)
    for bad in ("abc", "-3", "1.5"):
        monkeypatch.setenv("MAXSTABLE_PV_THREADS", bad)
        with pytest.raises(ValueError, match=f"MAXSTABLE_PV_THREADS.*'{re.escape(bad)}'"):
            mh._resolve_workers()
    # the CLI reports the bad value as a usage error
    for argv in (["--experiment", "lln", "--model", "max2bm", "--n", "64", "--reps", "8"],
                 # never maps replicates, so the value is checked at entry
                 ["--experiment", "moment_bias", "--model", "br", "--p", "1",
                  "--n", "256", "--reps", "2"]):
        assert cli.main(["verify", *argv]) == cli.EXIT_USAGE
        assert "MAXSTABLE_PV_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, p", [("clt", 2), ("marginal_increment", 2),
                                           ("moment_bias", 1)])
def test_constant_h_spec_runs_as_sigma(monkeypatch, experiment, p):
    # a constant h_spec and sigma name one volatility, so every experiment
    # produces the same numbers and the same verdicts from either
    monkeypatch.setenv("MAXSTABLE_PV_THREADS", "1")
    base = dict(experiment=experiment, p=p, n=256, reps=8, master_seed=3)
    by_sigma = mh.run_experiment(ExperimentConfig(**base, sigma=2.0))
    by_spec = mh.run_experiment(ExperimentConfig(
        **base, sigma=None, h_spec={"form": "constant", "sigma": 2.0}))
    assert by_spec.per_replicate == by_sigma.per_replicate
    assert by_spec.aggregate == by_sigma.aggregate
    assert [v.name for v in by_spec.verdicts] == [v.name for v in by_sigma.verdicts]
    if experiment == "moment_bias":
        # sigma * J_1 at sigma = 2; J_1 matches -1/(2 pi) to 1e-14
        assert by_spec.aggregate["bias_integral_limit"] == pytest.approx(-1.0 / math.pi,
                                                                         abs=1e-5)


def test_run_lln_max2bm_small():
    cfg = ExperimentConfig(experiment="lln", model="max2bm", p=2, n=1024,
                           reps=64, master_seed=2024)
    report = mh.run_experiment(cfg)
    assert report.passed, report.aggregate
    assert report.aggregate["target"] == pytest.approx(1.0, abs=1e-12)
    assert report.aggregate["truncated"] == 0


def test_run_lln_br_general_h_small():
    cfg = ExperimentConfig(
        experiment="lln", model="br", p=2, n=1024, reps=64, sigma=None,
        h_spec={"form": "power_law", "a": 1.0, "b": 1.0, "gamma": 1.0},
        epsilon=1e-3, master_seed=2025)
    report = mh.run_experiment(cfg)
    assert report.aggregate["target"] == pytest.approx(7.0 / 3.0, abs=1e-12)
    assert report.passed, report.aggregate


def test_run_clt_max2bm_small():
    cfg = ExperimentConfig(experiment="clt", model="max2bm", p=2, n=1024,
                           reps=256, master_seed=7)
    report = mh.run_experiment(cfg)
    agg = report.aggregate
    # small-sample run: only coarse agreement expected
    assert abs(agg["resid_var"] - 2.0) < 0.5
    assert abs(agg["slope"] - agg["slope_target"]) < 0.25


def test_run_clt_br_small():
    cfg = ExperimentConfig(experiment="clt", model="br", p=2, n=1024,
                           reps=200, sigma=1.0, epsilon=1e-3, master_seed=11)
    report = mh.run_experiment(cfg)
    agg = report.aggregate
    assert abs(agg["resid_var"] - 2.0) < 0.5
    assert abs(agg["mean_S"] - agg["mean_bhat"]) < 0.5


def test_run_marginal_increment_small():
    cfg = ExperimentConfig(experiment="marginal_increment", model="br", p=2,
                           n=256, reps=400, sigma=1.0, epsilon=1e-3,
                           master_seed=3)
    report = mh.run_experiment(cfg)
    assert report.passed, report.aggregate


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("experiment, extra, calls_made", [
    ("lln", {}, 16), ("clt", {}, 16), ("marginal_increment", {}, 16),
    # a facts row draws its path and five k-max paths: the third call is
    # replicate 0's second k-max path, after which that row stops
    ("frechet", {}, 3 + 15 * 6), ("estimate_h", {"window": 16}, 16),
], ids=("lln", "clt", "marginal_increment", "frechet", "estimate_h"))
def test_truncated_replicates_are_counted(monkeypatch, experiment, extra, calls_made):
    # one worker maps the replicates in index order, so the stub's third
    # call falls in replicate 2 (replicate 0 for frechet)
    real = mh.sample_brown_resnick
    calls = []

    def truncate_replicate_2(*args, **kwargs):
        path = real(*args, **kwargs)
        calls.append(path)
        if len(calls) == 3:
            raise TruncationError("atom budget exhausted", path)
        return path

    monkeypatch.setattr(mh, "sample_brown_resnick", truncate_replicate_2)
    monkeypatch.setenv("MAXSTABLE_PV_THREADS", "1")
    cfg = ExperimentConfig(experiment=experiment, model="br", p=2,
                           n=64, reps=16, sigma=1.0, master_seed=3, **extra)
    report = mh.run_experiment(cfg)
    assert len(calls) == calls_made
    assert report.aggregate["truncated"] == 1
    assert report.per_replicate
    for column in report.per_replicate.values():
        assert len(column) == 15
    json.loads(report.to_json(), parse_constant=_reject_constant)


@pytest.mark.parametrize("experiment, extra", [
    ("lln", []), ("clt", []), ("marginal_increment", []), ("frechet", []),
    ("estimate_h", ["--window", "16"]),
], ids=("lln", "clt", "marginal_increment", "frechet", "estimate_h"))
def test_all_truncated_exits_3(monkeypatch, tmp_path, capsys, experiment, extra):
    real = mh.sample_brown_resnick

    def always_truncate(*args, **kwargs):
        raise TruncationError("atom budget exhausted", real(*args, **kwargs))

    monkeypatch.setattr(mh, "sample_brown_resnick", always_truncate)
    monkeypatch.setenv("MAXSTABLE_PV_THREADS", "1")
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--experiment", experiment, "--model", "br",
                     "--n", "64", "--reps", "4", "--sigma", "1.0", *extra,
                     "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_run_distributional_facts_small():
    cfg = ExperimentConfig(experiment="frechet", model="br", n=64, reps=400,
                           sigma=1.0, epsilon=1e-3, master_seed=4)
    report = mh.run_experiment(cfg)
    assert len(report.verdicts) == 5
    assert report.passed, report.aggregate


def test_run_moment_bias():
    cfg = ExperimentConfig(experiment="moment_bias", model="br", p=1, n=256,
                           reps=2, sigma=1.0)
    report = mh.run_experiment(cfg)
    assert report.passed
    assert report.aggregate["rel_gap_at_1e8"] < 0.01


def test_run_h_recovery_small():
    cfg = ExperimentConfig(
        experiment="estimate_h", model="br", p=2, n=4096, reps=4, sigma=None,
        h_spec={"form": "power_law", "a": 1.0, "b": 1.0, "gamma": 1.0},
        epsilon=1e-3, master_seed=6, window=256)
    report = mh.run_experiment(cfg)
    assert report.aggregate["mean_interior_mae"] < 0.3


def test_report_bit_reproducible_across_worker_counts(monkeypatch):
    cfg = ExperimentConfig(experiment="lln", model="br", p=1, n=256, reps=16,
                           sigma=1.0, epsilon=1e-3, master_seed=99)
    monkeypatch.setenv("MAXSTABLE_PV_THREADS", "1")
    serial = mh.run_experiment(cfg).canonical_json()
    monkeypatch.setenv("MAXSTABLE_PV_THREADS", "2")
    pooled = mh.run_experiment(cfg).canonical_json()
    assert serial == pooled
    parsed = json.loads(serial)
    assert "wall_time" not in parsed
    assert parsed["verdicts"][0]["threshold"] > 0


def test_verdict_passes_strictly_below_threshold():
    # a plain bool even for numpy inputs, so the report serializes
    assert mh.Verdict("v", np.float64(0.5), np.float64(1.0)).passed is True
    assert mh.Verdict("v", 1.0, 1.0).passed is False


def test_run_experiment_dispatch():
    cfg = ExperimentConfig(experiment="moment_bias", model="br", p=2, n=256,
                           reps=2, sigma=1.0)
    report = mh.run_experiment(cfg)
    assert report.config_hash == cfg.config_hash()


@pytest.mark.parametrize("case, workers, digest", [
    (dict(experiment="clt", sigma=1.0), "1",
     "5dc10fa5827a57109f111e135e35b3b195fa97b095e14c3b17b06680143be656"),
    (dict(experiment="clt", sigma=2.0), "1",
     "80cbe06aff35500a93fdc344cc112ddf1435afdccad86459ebee35afd1bae2b1"),
    (dict(experiment="clt", sigma=None,
          h_spec={"form": "power_law", "a": 1.0, "b": 1.0, "gamma": 1.0}), "1",
     "d9df21a279de9765c3f9d0443a4b2d38b6999e79b470b34f41144efc3f5198ff"),
    (dict(experiment="frechet", sigma=1.0, n=256), "2",
     "1d3f928f87d0c469793079d0d31c2e60b865d301da88e04c6664bb962e83bff4"),
    (dict(experiment="clt", model="max2bm"), "1",
     "10d8cc365fe567c0a8a666d7e64267ff85aa8c6f0582bfd0d08c604797a102ee"),
], ids=("clt-sigma1", "clt-sigma2", "clt-power", "frechet-pooled", "clt-max2bm"))
def test_report_golden_digests(monkeypatch, case, workers, digest):
    # SHA-256 of the canonical report; any change to a drawn number, a
    # statistic or its summation order shows up here
    cfg = ExperimentConfig(**{"model": "br", "p": 2, "n": 1024, "reps": 64,
                              "epsilon": 1e-3, "master_seed": 1, **case})
    monkeypatch.setenv("MAXSTABLE_PV_THREADS", workers)
    report = mh.run_experiment(cfg)
    assert hashlib.sha256(report.canonical_json().encode()).hexdigest() == digest
