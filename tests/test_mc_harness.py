import hashlib
import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # a negative seed is refused here, not by SeedSequence inside the workers
    with pytest.raises(ValueError, match="master_seed must be a non-negative integer"):
        ExperimentConfig(**{**good, "master_seed": -1})
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
    # sigma defaults to None, so an h_spec alone is enough
    cfg = ExperimentConfig(experiment="lln", h_spec={"form": "power_law", "a": 1.0, "b": 1.0})
    assert cfg.sigma is None and cfg.volatility.kind == "power_law"
    assert ExperimentConfig(experiment="lln").volatility.sigma == 1.0
    # the sampler's epsilon and grid cap bound either model
    for model in ("br", "max2bm"):
        with pytest.raises(ValueError, match="epsilon must lie in"):
            ExperimentConfig(experiment="lln", model=model, epsilon=0.0)
        with pytest.raises(ValueError, match="above the cap"):
            ExperimentConfig(experiment="lln", model=model, n=2 ** 20)
    # a band h/sqrt(n) below 1e-12 is refused for either model
    for model in ("br", "max2bm"):
        with pytest.raises(ValueError, match="band h/sqrt\\(n\\) must be at least 1e-12"):
            ExperimentConfig(experiment="clt", model=model, n=64, reps=4, halfwidth=5e-324)
        with pytest.raises(ValueError, match="band h/sqrt\\(n\\) must be at least 1e-12"):
            ExperimentConfig(experiment="clt", model=model, n=64, reps=4, halfwidth=7e-12)
        ExperimentConfig(experiment="clt", model=model, n=64, reps=4, halfwidth=8e-12)


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


@pytest.mark.parametrize("experiment", ["clt", "lln"])
def test_clt_and_lln_run_no_quadrature(monkeypatch, experiment):
    # J_p and lambda(phi_{p,1}) = 2 J_p are closed forms, so neither a br
    # clt nor a br lln run integrates anything
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature ran")
    monkeypatch.setattr(mh.gauss_kernels, "adaptive_gauss_kronrod", refuse)
    monkeypatch.setattr(mh.increment_law, "adaptive_gauss_kronrod", refuse)
    monkeypatch.setenv("MAXSTABLE_PV_THREADS", "1")
    report = mh.run_experiment(ExperimentConfig(experiment=experiment, n=256, reps=4,
                                                master_seed=2))
    assert report.aggregate["truncated"] == 0


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
     "90f50f84707faba7803a5ad4200d9761b4387341a9d997d7371a2208221db108"),
    (dict(experiment="clt", sigma=2.0), "1",
     "9aef86ae47f62800a774c45c7b7e85edceccf4efef9497d8a4148fb1a8c0e17a"),
    (dict(experiment="clt", sigma=None,
          h_spec={"form": "power_law", "a": 1.0, "b": 1.0, "gamma": 1.0}), "1",
     "cc2689bb7eddb7ce08e1a98eb3000c051fe0ee2c7d3c5642c7ed22c868bf60cb"),
    (dict(experiment="frechet", sigma=1.0, n=256), "2",
     "1d3f928f87d0c469793079d0d31c2e60b865d301da88e04c6664bb962e83bff4"),
    (dict(experiment="clt", model="max2bm"), "1",
     "653107010b9c8219ec62a58f724b33ab12f28cebe0d67bee2b20870f8ca11435"),
], ids=("clt-sigma1", "clt-sigma2", "clt-power", "frechet-pooled", "clt-max2bm"))
def test_report_golden_digests(monkeypatch, case, workers, digest):
    # SHA-256 of the canonical report; any change to a drawn number, a
    # statistic or its summation order shows up here
    cfg = ExperimentConfig(**{"model": "br", "p": 2, "n": 1024, "reps": 64,
                              "epsilon": 1e-3, "master_seed": 1, **case})
    monkeypatch.setenv("MAXSTABLE_PV_THREADS", workers)
    report = mh.run_experiment(cfg)
    assert hashlib.sha256(report.canonical_json().encode()).hexdigest() == digest


def test_br_lln_evaluates_each_constant_once(monkeypatch):
    # the prepare step derives J_p and m_p when the config is built, and the
    # run reads them from config.constants
    calls = {"bias_integral": 0, "abs_moment": 0}
    for name in calls:
        real = getattr(mh.gauss_kernels, name)

        def counted(p, _real=real, _name=name):
            calls[_name] += 1
            return _real(p)
        monkeypatch.setattr(mh.gauss_kernels, name, counted)
    monkeypatch.setenv("MAXSTABLE_PV_THREADS", "1")
    cfg = ExperimentConfig(experiment="lln", model="br", n=64, reps=4, master_seed=1)
    mh.run_experiment(cfg)
    assert calls == {"bias_integral": 1, "abs_moment": 1}


# valid values of every ExperimentConfig field, and the edge values a
# config file or flag may carry instead
_FIELD_VALUES = {
    "experiment": st.sampled_from(sorted(mh.EXPERIMENTS)),
    "model": st.sampled_from(["br", "max2bm"]),
    "p": st.integers(1, 400),
    "n": st.sampled_from([2, 64, 256, 4096, 2 ** 20]),
    "reps": st.integers(2, 64),
    "sigma": st.one_of(st.none(), st.floats(0.1, 200.0)),
    "h_spec": st.one_of(st.none(), st.sampled_from([
        {"form": "constant", "sigma": 2.0},
        {"form": "power_law", "a": 1.0, "b": 1.0, "gamma": 1.0},
        {"form": "table", "s": [0.0, 0.5, 1.0], "h": [1.0, 1.5, 1.0]},
        {"form": "power_law", "a": math.nan, "b": 1.0},
        {"form": "table", "s": [0.0, 1.0], "h": [1.0]},
        {"form": "constant"},
    ])),
    "epsilon": st.floats(1e-6, 1e-2),
    "halfwidth": st.floats(0.01, 3.9),
    "master_seed": st.integers(0, 2 ** 64),
    "t_eval": st.floats(0.01, 1.0),
    "window": st.integers(0, 1024),
}
_EDGE_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -1, 0, True, False,
                                2.0, 0.5, 10 ** 30, 2 ** 62, 10 ** 400, "2", None, [], {}])


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries(_FIELD_VALUES),
       st.dictionaries(st.sampled_from(sorted(_FIELD_VALUES)), _EDGE_VALUES, max_size=2))
def test_config_build_refuses_or_round_trips(valid, edges):
    # a build either refuses the config with ValueError or TypeError, or
    # returns one whose constants are finite and nonzero (a judge divides by
    # some), whose dict is strict JSON and which round-trips; it never warns
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            cfg = ExperimentConfig(**{**valid, **edges})
        except (ValueError, TypeError):
            return
    assert all(math.isfinite(v) and v != 0.0 for v in cfg.constants.values())
    json.dumps(cfg.to_dict(), allow_nan=False)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
