"""Monte Carlo experiment orchestration and statistical verification.

``run_experiment(config)`` is the one entry point: it looks the experiment
up in ``EXPERIMENTS``, times the run and builds the ExperimentReport.  Each
experiment simulates a batch of independent replicates, folds the
per-replicate statistics into aggregates in replicate-index order, and
returns them with verdicts that each carry the measured value and the
threshold it was judged against.

Replicate r draws from the private stream (master_seed, r), so reports are
bit-reproducible for a fixed config and shuffling the execution order (or
running under a process pool) cannot change any aggregate.  The worker
count is capped by the MAXSTABLE_PV_THREADS environment variable
(0 or unset = machine default).

An ExperimentConfig resolves H once, into ``config.volatility``: ``sigma``
and a constant ``h_spec`` give the same spec, and max2bm is the constant-1
case.  It checks every precondition of its experiment as well (frechet,
marginal_increment and estimate_h need model br; marginal_increment and
moment_bias need constant H), and runs the library's own range checks on
the order p, epsilon, halfwidth and the estimate_h window, so a bad config
raises ValueError (CLI exit 2) before any replicate is drawn.

A replicate whose atom budget runs out (TruncationError) is dropped by
``_map_replicates`` alone, and every sampling experiment judges the rest and
counts the dropped ones in its aggregate's ``truncated``; a run left with
fewer than two completed replicates raises the first failure, which the CLI
reports as a numerical failure (exit 3).

Stable convergence in law cannot be tested directly; its measurable
consequences are: the conditional mean of the CLT limit is checked by
regressing the scaled power-variation discrepancy on the per-path bias
estimate, the conditional variance by the residual variance, and the
conditional Gaussianity by a KS test on standardized residuals.  LLN
verdicts allow an explicit O(1/sqrt(n)) mean shift because the CLTs show
the mean of B sits off its limit at exactly that order.

KS thresholds follow the 5% critical value 1.36/sqrt(N), widened by 1.5x
for tests whose samples carry simulation truncation bias.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import ndtr

from . import gauss_kernels, increment_law, pv_stats
from .path_sim import (
    Grid,
    MaxStablePath,
    TruncationError,
    VolatilitySpec,
    check_epsilon,
    check_grid_size,
    replicate_rng,
    sample_brown_resnick,
    sample_max_two_bm,
)
from .quadrature import QuadratureConfig

__all__ = [
    "ExperimentConfig",
    "Verdict",
    "ExperimentReport",
    "ks_statistic",
    "ks_statistic_two_sample",
    "run_experiment",
    "resolve_volatility",
    "EXPERIMENTS",
]


def resolve_volatility(model: str, sigma: float | None,
                       h_spec: VolatilitySpec | None) -> VolatilitySpec:
    """max2bm has unit volatility: no H spec, and sigma 1 or None.  br takes
    sigma or an H spec, not both; sigma None without a spec means 1."""
    if model == "max2bm" and (h_spec is not None or sigma not in (None, 1.0)):
        raise ValueError("model 'max2bm' has unit volatility: give no h_spec and "
                         f"sigma 1 or null, got sigma={sigma!r}")
    if h_spec is None:
        return VolatilitySpec.constant(1.0 if sigma is None else sigma)
    if sigma is not None:
        raise ValueError("model 'br' takes one of sigma / h_spec, not both")
    return h_spec


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: str = "br"
    p: int = 2
    n: int = 256
    reps: int = 2
    sigma: float | None = None     # None: the h_spec, or unit volatility
    h_spec: dict | None = None
    epsilon: float = 1e-3
    halfwidth: float = 1.0
    master_seed: int = 0
    t_eval: float = 1.0
    window: int = 0                 # estimate_h only

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose from {tuple(EXPERIMENTS)}")
        if self.model not in ("max2bm", "br"):
            raise ValueError(f"model must be 'max2bm' or 'br', got {self.model!r}")
        for name in ("p", "n", "reps", "window", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        gauss_kernels._check_order(self.p)
        if self.reps < 2:
            raise ValueError("reps must be >= 2")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be a non-negative integer, "
                             f"got {self.master_seed}")
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 2, got {self.n}")
        if not 0.0 < self.t_eval <= 1.0:
            raise ValueError(f"t_eval must lie in (0, 1], got {self.t_eval}")
        spec = None if self.h_spec is None else VolatilitySpec.from_dict(self.h_spec)
        vol = resolve_volatility(self.model, self.sigma, spec)
        # an attribute, not a field: the report's config and hash stay as given
        object.__setattr__(self, "volatility", vol)
        if self.model != "br" and self.experiment in ("frechet", "marginal_increment",
                                                      "estimate_h"):
            raise ValueError(f"{self.experiment} requires model 'br'")
        if vol.kind != "constant" and self.experiment in ("marginal_increment", "moment_bias"):
            raise ValueError(f"{self.experiment} requires a constant volatility")
        # the library's own range checks, so that they fail before the pool
        if self.model == "br":
            check_epsilon(self.epsilon)
            check_grid_size(self.n)
        if self.experiment == "clt":
            pv_stats.check_halfwidth(self.halfwidth, self.n, kept_atoms=self.model == "br")
        if self.experiment == "estimate_h":
            pv_stats.check_window(self.window, self.n)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return cls(**d)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Verdict:
    """A measured value judged against its threshold; passes iff measured < threshold."""

    name: str
    measured: float
    threshold: float
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.measured < self.threshold))


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    config_hash: str
    per_replicate: dict
    aggregate: dict
    verdicts: list
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "config": self.config,
            "config_hash": self.config_hash,
            "per_replicate": self.per_replicate,
            "aggregate": self.aggregate,
            "verdicts": [asdict(v) for v in self.verdicts],
        }
        if include_wall_time:
            out["wall_time"] = self.wall_time
        return out

    def to_json(self, include_wall_time: bool = True) -> str:
        return json.dumps(self.to_dict(include_wall_time), sort_keys=True,
                          separators=(",", ": "), indent=1)

    def canonical_json(self) -> str:
        """Serialization used for bit-reproducibility checks (no wall time)."""
        return self.to_json(include_wall_time=False)


# ---------------------------------------------------------------------------
# goodness-of-fit statistics
# ---------------------------------------------------------------------------

def ks_statistic(samples, cdf) -> float:
    """sup |empirical CDF - cdf| over the sample points (both one-sided gaps)."""
    x = np.sort(np.asarray(samples, dtype=float))
    m = len(x)
    if m == 0:
        raise ValueError("ks_statistic needs a nonempty sample")
    f = np.asarray(cdf(x), dtype=float)
    upper = np.max(np.arange(1, m + 1) / m - f)
    lower = np.max(f - np.arange(0, m) / m)
    return float(max(upper, lower))


def ks_statistic_two_sample(a, b) -> float:
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("two-sample KS needs nonempty samples")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / len(a)
    fb = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


# ---------------------------------------------------------------------------
# replicate execution (work pool)
# ---------------------------------------------------------------------------

def _resolve_workers() -> int:
    raw = os.environ.get("MAXSTABLE_PV_THREADS", "").strip()
    try:
        workers = int(raw or 0)
    except ValueError:
        workers = -1
    if workers < 0:
        raise ValueError("MAXSTABLE_PV_THREADS must be a non-negative integer "
                         f"(0 or unset = machine default), got {raw!r}")
    return workers or os.cpu_count() or 1


def _simulate_br(cfg: ExperimentConfig, index: int) -> MaxStablePath:
    rng = replicate_rng(cfg.master_seed, index)
    return sample_brown_resnick(cfg.volatility, Grid(cfg.n), rng, cfg.epsilon)


def _row_lln(cfg: ExperimentConfig, index: int) -> dict:
    if cfg.model == "max2bm":
        path, _ = sample_max_two_bm(Grid(cfg.n), replicate_rng(cfg.master_seed, index))
    else:
        path = _simulate_br(cfg, index).log_eta
    return {"B": pv_stats.power_variation(path, cfg.p, cfg.t_eval)}


def _row_clt(cfg: ExperimentConfig, index: int) -> dict:
    """B and the bias regressor x: for max2bm the kernel local time of
    W2 - W1, for br the pair bias functional."""
    if cfg.model == "max2bm":
        path, diff = sample_max_two_bm(Grid(cfg.n), replicate_rng(cfg.master_seed, index))
        x = pv_stats.local_time_kernel(diff, cfg.t_eval, cfg.halfwidth)
    else:
        ms = _simulate_br(cfg, index)
        path = ms.log_eta
        x = pv_stats.clt_bias_functional(ms, cfg.p, cfg.t_eval, cfg.halfwidth)
    return {"B": pv_stats.power_variation(path, cfg.p, cfg.t_eval), "x": x}


def _row_marginal(cfg: ExperimentConfig, index: int) -> dict:
    ms = _simulate_br(cfg, index)
    i0 = cfg.n // 2
    du = ms.log_eta.values[i0] - ms.log_eta.values[i0 - 1]
    return {"U": math.sqrt(cfg.n) / cfg.volatility.sigma * du}


def _row_facts(cfg: ExperimentConfig, index: int) -> dict:
    """Path ``index``'s marginal picks, plus the k=5 group maximum over the
    fresh paths reps + 5 * index + j, j = 0..4."""
    ms = _simulate_br(cfg, index)
    g = ms.grid
    vals = ms.log_eta.values
    picks = {f"log_eta_{tag}": float(vals[g.last_increment(t)])
             for tag, t in (("02", 0.2), ("03", 0.3), ("05", 0.5), ("08", 0.8))}
    i7 = g.last_increment(0.7)
    picks["eta_07"] = float(math.exp(vals[i7]))
    best = -math.inf
    for j in range(5):
        best = max(best, _simulate_br(cfg, cfg.reps + 5 * index + j).log_eta.values[i7])
    picks["eta_07_kmax"] = math.exp(best) / 5.0
    return picks


def _row_h_recovery(cfg: ExperimentConfig, index: int) -> dict:
    ms = _simulate_br(cfg, index)
    h_hat = pv_stats.estimate_h(ms.log_eta, cfg.p, cfg.window)
    interior = pv_stats.full_window_slice(cfg.n, cfg.window)
    truth = cfg.volatility.value(ms.grid.times[interior])
    mae = float(np.mean(np.abs(h_hat.values[interior] - truth)))
    return {"mae": mae}


def _row_or_truncation(fn, cfg: ExperimentConfig, index: int):
    """``fn(cfg, index)``, or its TruncationError, caught in the worker."""
    try:
        return fn(cfg, index)
    except TruncationError as exc:
        return exc


def _map_replicates(cfg: ExperimentConfig, fn) -> tuple:
    """Run the row function ``fn(cfg, index)`` for every replicate index:
    ``(columns, truncated)``, where ``columns`` maps each row key to a float
    array over the completed replicates in index order, and ``truncated``
    counts the replicates whose atom budget ran out.  Raises the first
    failure if fewer than two replicates complete."""
    workers = _resolve_workers()
    if workers <= 1 or cfg.reps < 8:
        results = [_row_or_truncation(fn, cfg, i) for i in range(cfg.reps)]
    else:
        chunk = max(1, cfg.reps // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(functools.partial(_row_or_truncation, fn, cfg),
                                    range(cfg.reps), chunksize=chunk))
    rows = [r for r in results if not isinstance(r, TruncationError)]
    failures = [r for r in results if isinstance(r, TruncationError)]
    if len(rows) < 2:
        raise failures[0]
    columns = {key: np.array([r[key] for r in rows], dtype=float) for key in rows[0]}
    return columns, len(failures)


# ---------------------------------------------------------------------------
# experiment runners: each returns (per_replicate, aggregate, verdicts)
# ---------------------------------------------------------------------------

def _lln_target(cfg: ExperimentConfig) -> float:
    """m_p * int_0^t H^p, the law-of-large-numbers limit of B(p)_t."""
    return gauss_kernels.abs_moment(cfg.p) * cfg.volatility.integrated_power(cfg.p, cfg.t_eval)


def _lln_target_and_allowance(cfg: ExperimentConfig):
    p, t, n = cfg.p, cfg.t_eval, cfg.n
    vol = cfg.volatility
    target = _lln_target(cfg)
    if cfg.model == "max2bm":
        bias = abs(pv_stats.lambda_phi_unit(p)) * math.sqrt(t / math.pi)
    else:
        # each increment carries a moment bias J_p * H / sqrt(n) on the
        # normalized scale, so the B-level shift integrates H^{p+1}
        bias = abs(gauss_kernels.bias_integral(p)) * vol.integrated_power(p + 1, t)
    m = Grid(n).last_increment(t)
    floor_deficit = target * (n * t - (m - 1)) / (n * t)
    return target, bias / math.sqrt(n) + floor_deficit


def _lln(config: ExperimentConfig) -> tuple:
    """Replicate-mean of B(p)_t against its law-of-large-numbers target,
    with a 3-sigma band plus the predicted O(1/sqrt(n)) mean shift."""
    cols, truncated = _map_replicates(config, _row_lln)
    b = cols["B"]
    mean = float(b.mean())
    stderr = float(b.std(ddof=1) / math.sqrt(len(b)))
    target, allowance = _lln_target_and_allowance(config)
    gap = abs(mean - target)
    threshold = 3.0 * stderr + allowance
    aggregate = {
        "mean_B": mean, "stderr_B": stderr, "target": target,
        "bias_allowance": allowance, "gap": gap, "truncated": truncated,
    }
    verdicts = [Verdict(f"lln_{config.model}_p{config.p}", gap, threshold)]
    return {"B": b.tolist()}, aggregate, verdicts


def _clt(config: ExperimentConfig) -> tuple:
    """Central-limit diagnostics: regression of S = sqrt(n)(B - target) on the
    per-path bias estimate, residual variance, and Gaussianity of the
    standardized residuals."""
    cols, truncated = _map_replicates(config, _row_clt)
    p, t = config.p, config.t_eval
    s = math.sqrt(config.n) * (cols["B"] - _lln_target(config))
    x = cols["x"]
    # the bias estimate is (lambda(phi_{p,1}) / 2) * local time for max2bm,
    # and the pair functional itself for br
    slope_target = 0.5 * pv_stats.lambda_phi_unit(p) if config.model == "max2bm" else 1.0
    bhat = slope_target * x

    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, s, rcond=None)
    fit_resid = s - slope * x - intercept
    r_squared = float(1.0 - np.var(fit_resid) / np.var(s))
    resid = s - bhat
    resid_var = float(np.var(resid, ddof=1))

    m2p = gauss_kernels.abs_moment(2 * p)
    mp = gauss_kernels.abs_moment(p)
    cond_var = (m2p - mp ** 2) * config.volatility.integrated_power(2 * p, t)
    ks = ks_statistic(resid / math.sqrt(cond_var), ndtr)

    aggregate = {
        "slope": float(slope), "intercept": float(intercept),
        "slope_target": float(slope_target), "r_squared": r_squared,
        "resid_var": resid_var, "resid_var_target": float(cond_var),
        "ks_std_resid": ks, "mean_S": float(s.mean()), "mean_bhat": float(bhat.mean()),
        "truncated": truncated,
    }
    # the regression slope is pinned under constant volatility (max2bm
    # included), Gaussianity of residuals for max2bm only; the remaining
    # diagnostics stay in the aggregate
    slope_tol = 0.10 if config.model == "max2bm" else 0.15
    verdicts = [
        Verdict(f"clt_{config.model}_resid_var", abs(resid_var - cond_var), 0.10 * cond_var),
    ]
    if config.volatility.kind == "constant":
        verdicts.insert(0, Verdict(f"clt_{config.model}_slope", abs(float(slope) - slope_target),
                                   slope_tol * abs(slope_target)))
    if config.model == "max2bm":
        verdicts.append(Verdict(f"clt_{config.model}_ks", ks, 1.36 / math.sqrt(len(s))))
    per_rep = {"S": s.tolist(), "x": x.tolist(), "bhat": bhat.tolist()}
    return per_rep, aggregate, verdicts


def _marginal(config: ExperimentConfig) -> tuple:
    """Pooled mid-path normalized increments against the exact marginal law."""
    cols, truncated = _map_replicates(config, _row_marginal)
    u = cols["U"]
    params = increment_law.IncrementLawParams(config.volatility.sigma, config.n)
    ks = ks_statistic(u, lambda q: increment_law.marginal_cdf(q, params))
    ks_threshold = 2.0 / math.sqrt(len(u))       # 1.5x the 5% critical value

    pow_u = np.abs(u) ** config.p
    pooled = float(pow_u.mean())
    pooled_se = float(pow_u.std(ddof=1) / math.sqrt(len(u)))
    exact = increment_law.exact_abs_moment(config.p, params)
    frac_neg = float((u <= 0).mean())
    frac_se = 0.5 / math.sqrt(len(u))

    aggregate = {
        "ks": ks, "pooled_abs_moment": pooled, "exact_abs_moment": exact,
        "pooled_se": pooled_se, "frac_nonpositive": frac_neg, "truncated": truncated,
    }
    verdicts = [
        Verdict("marginal_ks", ks, ks_threshold),
        Verdict("marginal_moment", abs(pooled - exact), 4 * pooled_se),
        Verdict("marginal_sign_symmetry", abs(frac_neg - 0.5), 4 * frac_se),
    ]
    return {"U": u.tolist()}, aggregate, verdicts


def _facts(config: ExperimentConfig) -> tuple:
    """Frechet marginal, Gumbel log-marginal, k=5 max-stability, and two-time
    stationarity, each with its own verdict."""
    cols, truncated = _map_replicates(config, _row_facts)
    log_eta_03 = cols["log_eta_03"]
    m = len(log_eta_03)                          # completed replicates
    eta_03 = np.exp(log_eta_03)
    eta_05 = np.exp(cols["log_eta_05"])
    eta_07 = cols["eta_07"]
    kmax = cols["eta_07_kmax"]

    frechet_cdf = lambda z: np.exp(-1.0 / np.maximum(z, 1e-300))
    gumbel_cdf = lambda x: np.exp(-np.exp(-x))
    one_sample = 2.0 / math.sqrt(m)              # 1.5x critical value, truncation slack
    two_sample = 2.5 / math.sqrt(m)

    ks_frechet = ks_statistic(eta_03, frechet_cdf)
    ks_gumbel = ks_statistic(log_eta_03, gumbel_cdf)
    ks_maxstab = ks_statistic_two_sample(kmax, eta_07)
    ks_station = ks_statistic_two_sample(cols["log_eta_02"], cols["log_eta_08"])
    p_below = float((eta_05 < 1.0).mean())
    p_target = math.exp(-1.0)
    p_se = math.sqrt(p_target * (1 - p_target) / m)

    aggregate = {
        "ks_frechet": ks_frechet, "ks_gumbel": ks_gumbel,
        "ks_maxstability": ks_maxstab, "ks_stationarity": ks_station,
        "p_eta_below_1": p_below, "truncated": truncated,
    }
    verdicts = [
        Verdict("frechet_marginal", ks_frechet, one_sample),
        Verdict("gumbel_log_marginal", ks_gumbel, one_sample),
        Verdict("max_stability_k5", ks_maxstab, two_sample),
        Verdict("stationarity", ks_station, two_sample),
        Verdict("frechet_at_one", abs(p_below - p_target), 4 * p_se),
    ]
    per_rep = {"eta_03": eta_03.tolist(), "log_eta_02": cols["log_eta_02"].tolist(),
               "log_eta_08": cols["log_eta_08"].tolist(), "eta_07_kmax": kmax.tolist()}
    return per_rep, aggregate, verdicts


def _moment_bias(config: ExperimentConfig) -> tuple:
    """Exact moments by quadrature: the scaled moment gap sqrt(n)(E|U|^p - m_p)
    along a ladder of n against its closed-form limit sigma * J_p.

    The marginal law depends on (sigma, n) only through sigma/sqrt(n), so
    the first-order coefficient carries one factor of sigma (visible in the
    expansion of the tail ratio, where every 1/sqrt(n) enters as
    sigma/sqrt(n)).
    """
    p = config.p
    sigma = config.volatility.sigma
    cfg_q = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12)
    limit = sigma * gauss_kernels.bias_integral(p)
    mp = gauss_kernels.abs_moment(p)
    ladder = [10 ** k for k in range(2, 9)]
    gaps = []
    for n in ladder:
        params = increment_law.IncrementLawParams(sigma, n)
        moment = increment_law.exact_abs_moment(p, params, cfg_q)
        gaps.append(math.sqrt(n) * (moment - mp))
    rel_gap = abs(gaps[-1] - limit) / abs(limit)
    aggregate = {
        "n_ladder": ladder, "scaled_gaps": gaps, "bias_integral_limit": limit,
        "rel_gap_at_1e8": rel_gap,
    }
    verdicts = [Verdict(f"moment_bias_p{p}", rel_gap, 0.01)]
    return {}, aggregate, verdicts


def _h_recovery(config: ExperimentConfig) -> tuple:
    """Localized volatility recovery through the power-variation LLN."""
    cols, truncated = _map_replicates(config, _row_h_recovery)
    mae = cols["mae"]
    mean_mae = float(mae.mean())
    aggregate = {"mean_interior_mae": mean_mae, "truncated": truncated}
    verdicts = [Verdict("h_recovery_mae", mean_mae, 0.1)]
    return {"mae": mae.tolist()}, aggregate, verdicts


EXPERIMENTS = {
    "frechet": _facts,
    "marginal_increment": _marginal,
    "moment_bias": _moment_bias,
    "lln": _lln,
    "clt": _clt,
    "estimate_h": _h_recovery,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the named experiment, timed, and build its report."""
    started = time.perf_counter()
    _resolve_workers()      # a bad MAXSTABLE_PV_THREADS fails every experiment alike
    per_replicate, aggregate, verdicts = EXPERIMENTS[config.experiment](config)
    return ExperimentReport(
        config=config.to_dict(),
        config_hash=config.config_hash(),
        per_replicate=per_replicate,
        aggregate=aggregate,
        verdicts=verdicts,
        wall_time=time.perf_counter() - started,
    )
