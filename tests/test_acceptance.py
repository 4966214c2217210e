"""Acceptance suite: one test per criterion, each printing PASS/FAIL lines.

Every randomized criterion runs at its stated scale under the fixed master
seed below; reports are bit-reproducible, so green runs stay green.

Criterion 7's disagreement clause is asserted as written and is expected
red: the mean absolute gap between the kernel and Tanaka local-time
estimators at n = 2^16 has an empirical floor near 0.074 (both estimators
carry the canonical n^{-1/4} error, 1/16 here), minimized over the kernel
halfwidth; the 0.05 bound sits 1.5x below that floor.  CHANGES.md
records the criterion-7 numbers of that sweep.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from maxstable_pv import gauss_kernels as gk
from maxstable_pv import mc_harness as mh
from maxstable_pv import pv_stats
from maxstable_pv.increment_law import IncrementLawParams, exact_abs_moment, marginal_cdf
from maxstable_pv.path_sim import (
    Grid,
    VolatilitySpec,
    replicate_rng,
    sample_brown_resnick,
    sample_max_two_bm,
)
from maxstable_pv.quadrature import QuadratureConfig

MASTER_SEED = 1
LINEAR_H = {"form": "power_law", "a": 1.0, "b": 1.0, "gamma": 1.0}

# The experiment configs of the randomized criteria that run whole reports:
# criterion -> [(tag, ExperimentConfig fields without master_seed)].  The
# tests below run them at MASTER_SEED; tools/seed_sweep.py imports this
# table and runs the same configs over a range of seeds.
CRITERIA = {
    3: [("frechet n=256", dict(experiment="frechet", model="br", n=256, reps=10_000,
                               sigma=1.0, epsilon=1e-3))],
    4: [("marginal n=256", dict(experiment="marginal_increment", model="br", p=2, n=256,
                                reps=10_000, sigma=1.0, epsilon=1e-3))],
    5: [(f"lln {model} p={p} {tag}", dict(experiment="lln", model=model, p=p, n=2 ** 14,
                                           reps=200, epsilon=1e-3, **vol))
        for model, p, tag, vol in (
            ("max2bm", 2, "sigma=1", dict(sigma=1.0)),
            ("br", 1, "sigma=1", dict(sigma=1.0)),
            ("br", 2, "sigma=1", dict(sigma=1.0)),
            ("br", 1, "sigma=2", dict(sigma=2.0)),
            ("br", 2, "sigma=2", dict(sigma=2.0)),
            ("br", 2, "power_law", dict(sigma=None, h_spec=LINEAR_H)))],
    # 4000 replicates, so that the fixed slope band of 1 +- 0.15 spans about
    # 3 standard errors of the br slope (its SD over seeds is about 0.064 at
    # 2000 replicates); at 1000 it spans fewer than 2
    6: [(f"clt {tag}", dict(experiment="clt", p=2, n=4096, reps=4000, epsilon=1e-3, **kw))
        for tag, kw in (
            ("max2bm p=2", dict(model="max2bm", sigma=1.0)),
            ("br sigma=1 p=2", dict(model="br", sigma=1.0)),
            ("br H(s)=1+s p=2", dict(model="br", sigma=None, h_spec=LINEAR_H)))],
    9: [("estimate_h n=2^16", dict(experiment="estimate_h", model="br", p=2, n=2 ** 16,
                                   reps=20, sigma=None, h_spec=LINEAR_H, epsilon=1e-3,
                                   window=1024))],
}


def _config(fields: dict) -> mh.ExperimentConfig:
    return mh.ExperimentConfig(**fields, master_seed=MASTER_SEED)


def _line(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_01_exact_identity_suite():
    started = time.perf_counter()
    checks = []
    params = IncrementLawParams(1.0, 256)
    sym = max(abs(marginal_cdf(u, params) + marginal_cdf(-u, params) - 1.0)
              for u in (0.1, 1.0, 3.0))
    checks.append(_line("marginal symmetry", sym < 1e-12, f"max |F(u)+F(-u)-1| = {sym:.2e}"))
    half = abs(marginal_cdf(0.0, params) - 0.5)
    checks.append(_line("marginal at zero", half < 1e-12, f"|F(0)-1/2| = {half:.2e}"))

    rec = max(abs(gk.abs_moment(p + 2) / ((p + 1) * gk.abs_moment(p)) - 1.0)
              for p in range(1, 7))
    checks.append(_line("moment recurrence", rec < 1e-12,
                        f"max rel err m_(p+2)=(p+1)m_p = {rec:.2e}"))

    cfg = QuadratureConfig()
    worst = 0.0
    for p in (1, 2, 3):
        base = gk.lambda_integral(p, 1.0, cfg)
        for sigma in (0.5, 1.0, 2.0):
            val = gk.lambda_integral(p, sigma, cfg)
            worst = max(worst, abs(val / (sigma ** (p + 1) * base) - 1.0))
    checks.append(_line("lambda scaling law", worst < 1e-6,
                        f"max rel err sigma^(p+1) = {worst:.2e}"))

    b0 = abs(float(gk.bias_integrand_bracket(0.0)))
    b30 = float(gk.bias_integrand_bracket(30.0))
    checks.append(_line("bias bracket", b0 < 1e-12 and -0.51 < b30 < -0.49,
                        f"bracket(0) = {b0:.2e}, bracket(30) = {b30:.5f}"))
    elapsed = time.perf_counter() - started
    checks.append(_line("identity-suite runtime", elapsed < 1.0, f"{elapsed:.2f}s (< 1s)"))
    assert all(checks)


def test_criterion_02_moment_bias_convergence():
    started = time.perf_counter()
    q = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12)
    checks = []
    for p in (1, 2):
        limit = gk.bias_integral(p)
        gap = math.sqrt(1e8) * (exact_abs_moment(p, IncrementLawParams(1.0, 10 ** 8), q)
                                - gk.abs_moment(p))
        rel = abs(gap - limit) / abs(limit)
        checks.append(_line(f"moment bias p={p}", rel < 0.01,
                            f"scaled gap {gap:.8f} vs J_p {limit:.8f}, rel {rel:.2e}"))
    elapsed = time.perf_counter() - started
    checks.append(_line("moment-bias runtime", elapsed < 10.0, f"{elapsed:.2f}s (< 10s)"))
    assert all(checks)


def test_criterion_03_distributional_facts():
    [(_, fields)] = CRITERIA[3]
    report = mh.run_experiment(_config(fields))
    checks = [_line(v.name, v.passed, f"measured {v.measured:.5f} < {v.threshold:.5f}")
              for v in report.verdicts]
    # stationarity invariant: both time points individually Gumbel
    gumbel = lambda x: np.exp(-np.exp(-np.asarray(x)))
    for tag in ("log_eta_02", "log_eta_08"):
        ks = mh.ks_statistic(report.per_replicate[tag], gumbel)
        checks.append(_line(f"gumbel at {tag}", ks < 0.025, f"KS {ks:.5f} < 0.025"))
    assert all(checks)


def test_criterion_04_marginal_increment_law():
    [(_, fields)] = CRITERIA[4]
    report = mh.run_experiment(_config(fields))
    checks = [_line(v.name, v.passed, f"measured {v.measured:.5f} < {v.threshold:.5f}")
              for v in report.verdicts]
    assert all(checks)


def test_criterion_05_lln_suite():
    checks = []
    for tag, fields in CRITERIA[5]:
        report = mh.run_experiment(_config(fields))
        v = report.verdicts[0]
        checks.append(_line(
            tag, v.passed,
            f"mean {report.aggregate['mean_B']:.5f} vs target "
            f"{report.aggregate['target']:.5f}, gap {v.measured:.5f} < {v.threshold:.5f}"))
    assert all(checks)


def test_criterion_06_clt_suite():
    checks = []
    for tag, fields in CRITERIA[6]:
        report = mh.run_experiment(_config(fields))
        agg = report.aggregate
        detail = (f"slope {agg['slope']:.4f} (target {agg['slope_target']:.4f}), "
                  f"resid var {agg['resid_var']:.4f} (target {agg['resid_var_target']:.4f}), "
                  f"KS {agg['ks_std_resid']:.4f}")
        for v in report.verdicts:
            checks.append(_line(f"{tag} {v.name}", v.passed, detail))
        if fields["model"] == "br" and fields["sigma"] == 1.0:
            # the replicate-mean of the bias functional must match the
            # replicate-mean of S within 4 SE of their difference
            s = np.asarray(report.per_replicate["S"])
            bhat = np.asarray(report.per_replicate["bhat"])
            diff_se = (s - bhat).std(ddof=1) / math.sqrt(len(s))
            gap = abs(s.mean() - bhat.mean())
            checks.append(_line(f"{tag} bias-functional mean", gap < 4 * diff_se,
                                f"|mean S - mean bhat| = {gap:.4f} < 4SE {4 * diff_se:.4f}"))
    assert all(checks)


def _criterion_07_row(cfg, r):
    _, diff = sample_max_two_bm(Grid(cfg.n), replicate_rng(cfg.master_seed, r))
    return {"kernel": pv_stats.local_time_kernel(diff, 1.0, 2.0),
            "tanaka": pv_stats.local_time_tanaka(diff, 1.0)}


@pytest.fixture(scope="module")
def local_time_estimates():
    # replicate r draws from its own stream, so the pool changes no number
    cfg = mh.ExperimentConfig(experiment="lln", model="max2bm", n=2 ** 16,
                              reps=10_000, master_seed=MASTER_SEED)
    cols, _ = mh._map_replicates(cfg, _criterion_07_row)
    return cols["kernel"], cols["tanaka"]


def test_criterion_07_local_time_means(local_time_estimates):
    kern, tank = local_time_estimates
    target = 2.0 / math.sqrt(math.pi)
    checks = []
    for name, est in (("kernel", kern), ("tanaka", tank)):
        se = est.std(ddof=1) / math.sqrt(len(est))
        gap = abs(est.mean() - target)
        checks.append(_line(f"local-time {name} mean", gap < 4 * se,
                            f"mean {est.mean():.5f} vs {target:.5f}, gap {gap:.5f} < 4SE {4 * se:.5f}"))
    assert all(checks)


def test_criterion_07_local_time_disagreement(local_time_estimates):
    # asserted as stated; expected red, see module docstring
    kern, tank = local_time_estimates
    mad = float(np.mean(np.abs(kern - tank)))
    ok = _line("local-time disagreement", mad < 0.05,
               f"mean |kernel - tanaka| = {mad:.5f} (bound 0.05; empirical floor ~0.074)")
    assert ok


def test_criterion_08_truncation_audit():
    vol = VolatilitySpec.constant(1.0)
    grid = Grid(1024)
    worst = 0.0
    for r in range(100):
        base = sample_brown_resnick(vol, grid, replicate_rng(MASTER_SEED, r),
                                    1e-4, atom_budget=10 ** 6)
        audit = sample_brown_resnick(vol, grid, replicate_rng(MASTER_SEED, r),
                                     1e-6, atom_budget=10 ** 7)
        worst = max(worst, float(np.max(np.abs(base.log_eta.values
                                               - audit.log_eta.values))))
    assert _line("truncation audit", worst < 1e-8,
                 f"sup-norm change over 100 paths = {worst:.3e} (< 1e-8)")


def test_criterion_09_h_recovery():
    [(_, fields)] = CRITERIA[9]
    report = mh.run_experiment(_config(fields))
    v = report.verdicts[0]
    assert _line("H recovery", v.passed,
                 f"mean interior MAE {v.measured:.4f} < {v.threshold}")


def test_criterion_10_reproducibility():
    cfg = mh.ExperimentConfig(experiment="marginal_increment", model="br", p=2,
                              n=256, reps=200, sigma=1.0, epsilon=1e-3,
                              master_seed=MASTER_SEED)
    saved = os.environ.get("MAXSTABLE_PV_THREADS")
    try:
        os.environ["MAXSTABLE_PV_THREADS"] = "1"
        first = mh.run_experiment(cfg).canonical_json()
        second = mh.run_experiment(cfg).canonical_json()
        os.environ["MAXSTABLE_PV_THREADS"] = "2"
        pooled = mh.run_experiment(cfg).canonical_json()
    finally:
        if saved is None:
            os.environ.pop("MAXSTABLE_PV_THREADS", None)
        else:
            os.environ["MAXSTABLE_PV_THREADS"] = saved
    same = first == second == pooled
    assert _line("bit reproducibility", same,
                 f"serial rerun identical: {first == second}; "
                 f"2-worker pool identical: {first == pooled}; "
                 f"{len(first)} bytes compared (wall time excluded)")
    json.loads(first)   # well-formed report
