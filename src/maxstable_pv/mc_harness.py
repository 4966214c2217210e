"""Monte Carlo experiment orchestration and statistical verification.

``EXPERIMENTS`` is the one table keyed by experiment name.  An entry holds
a prepare step (the experiment's own preconditions, and the dict of
closed-form constants its judge reads, plus any that only the config
check reads), a row function (one replicate's statistics; None for
moment_bias, which draws nothing) and a judge (the columns, in
replicate-index order, to per_replicate, aggregate and verdicts, each
verdict with its measured value and threshold).

An ExperimentConfig runs the checks all experiments share, resolves H once
into ``config.volatility`` (max2bm is the constant-1 case) and runs the
prepare step once into ``config.constants``; neither is a field, so the
report's config and hash stay as given.  ``resolve_volatility`` is also the
boundary check simulate shares: epsilon and the grid cap, for either model,
and for br a stop rule that can fire within the atom budget.  A bad config,
or a p that takes a constant past the float range, raises ValueError (CLI
exit 2) before any replicate is drawn.

``run_experiment(config)``, the one entry point, maps the row function over
the replicates, judges the columns and times the run.  ``_simulate`` draws
either model as a MaxStablePath (max2bm: two atoms).  Replicate r draws
from the private stream (master_seed, r), so reports are bit-reproducible
for a fixed config at any worker count (MAXSTABLE_PV_THREADS, 0 or unset =
machine default).  A replicate whose atom budget runs out (TruncationError)
is dropped by ``_map_replicates`` and counted in the aggregate's
``truncated``; a run left with fewer than two completed replicates raises
the first failure (CLI exit 3).

Stable convergence in law cannot be tested directly; its measurable
consequences are: the conditional mean of the CLT limit is checked by
regressing the scaled power-variation discrepancy on the pair bias
functional, the conditional variance by the residual variance, and the
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
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

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
    check_stop_rule,
    replicate_rng,
    sample_brown_resnick,
    sample_max_two_bm,
)

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


def resolve_volatility(model: str, sigma: float | None, h_spec: VolatilitySpec | None,
                       n: int, epsilon: float) -> VolatilitySpec:
    """Epsilon in (0, 0.01] and n under the grid cap, for either model; then
    H.  max2bm has unit volatility: no H spec, and sigma 1 or None.  br takes
    sigma or an H spec, not both; sigma None without a spec means 1.  Every
    grid step's variance int H^2 must be a positive finite float, or the
    sampler's steps and bridges divide by 0 or inf; and br's stop rule must
    be able to fire within the atom budget (``check_stop_rule``)."""
    check_epsilon(epsilon)
    check_grid_size(n)
    if model == "max2bm" and (h_spec is not None or sigma not in (None, 1.0)):
        raise ValueError("model 'max2bm' has unit volatility: give no h_spec and "
                         f"sigma 1 or null, got sigma={sigma!r}")
    if sigma is not None and h_spec is not None:
        raise ValueError("model 'br' takes one of sigma / h_spec, not both")
    vol = h_spec if h_spec is not None else VolatilitySpec.constant(
        1.0 if sigma is None else sigma)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            var = vol.integrated_power(2, Grid(n).times)
            step_var = np.diff(var)
    except OverflowError:       # sigma ** 2 of a Python float
        step_var = np.array([math.inf])
    if not np.all((step_var > 0.0) & (step_var < math.inf)):
        raise ValueError(f"the volatility's variance int H^2 over a grid step of 1/{n} "
                         f"underflows to 0 or overflows; H must stay in the float range")
    if model == "br":
        check_stop_rule(float(var[-1]), epsilon)
    return vol


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
        for name in ("sigma", "epsilon", "halfwidth", "t_eval"):
            value = getattr(self, name)
            finite = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                      and -math.inf < value < math.inf)
            if not (finite or name == "sigma" and value is None):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
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
        # attributes, not fields: the report's config and hash stay as given
        object.__setattr__(self, "volatility", resolve_volatility(
            self.model, self.sigma, spec, self.n, self.epsilon))
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                constants = EXPERIMENTS[self.experiment].prepare(self)
        except OverflowError as exc:
            raise ValueError(f"p = {self.p} is too large for {self.experiment}: {exc}") from exc
        if not all(math.isfinite(v) for v in constants.values()):
            raise ValueError(f"p = {self.p} is too large for {self.experiment}: a constant "
                             f"it reads at this volatility is past the float range")
        if 0.0 in constants.values():
            raise ValueError(f"{self.experiment} at p = {self.p} reads a constant that "
                             f"underflows to 0 at this volatility")
        object.__setattr__(self, "constants", constants)

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


def _simulate(cfg, index: int) -> MaxStablePath:
    """Path ``index`` of ``cfg.model`` from the stream (master_seed, index);
    ``cfg`` needs only model, volatility, n, epsilon and master_seed."""
    rng = replicate_rng(cfg.master_seed, index)
    if cfg.model == "max2bm":
        return sample_max_two_bm(Grid(cfg.n), rng)
    return sample_brown_resnick(cfg.volatility, Grid(cfg.n), rng, cfg.epsilon)


def _row_lln(cfg: ExperimentConfig, index: int) -> dict:
    return {"B": pv_stats.power_variation(_simulate(cfg, index).log_eta, cfg.p, cfg.t_eval)}


def _row_clt(cfg: ExperimentConfig, index: int) -> dict:
    """B and the bias regressor x, the pair bias functional."""
    ms = _simulate(cfg, index)
    return {"B": pv_stats.power_variation(ms.log_eta, cfg.p, cfg.t_eval),
            "x": pv_stats.clt_bias_functional(ms, cfg.p, cfg.t_eval, cfg.halfwidth)}


def _row_marginal(cfg: ExperimentConfig, index: int) -> dict:
    ms = _simulate(cfg, index)
    i0 = cfg.n // 2
    du = ms.log_eta.values[i0] - ms.log_eta.values[i0 - 1]
    return {"U": math.sqrt(cfg.n) / cfg.volatility.sigma * du}


def _row_facts(cfg: ExperimentConfig, index: int) -> dict:
    """Path ``index``'s marginal picks, plus the k=5 group maximum over the
    fresh paths reps + 5 * index + j, j = 0..4."""
    ms = _simulate(cfg, index)
    g = ms.grid
    vals = ms.log_eta.values
    picks = {f"log_eta_{tag}": float(vals[g.last_increment(t)])
             for tag, t in (("02", 0.2), ("03", 0.3), ("05", 0.5), ("08", 0.8))}
    i7 = g.last_increment(0.7)
    picks["eta_07"] = float(math.exp(vals[i7]))
    best = -math.inf
    for j in range(5):
        best = max(best, _simulate(cfg, cfg.reps + 5 * index + j).log_eta.values[i7])
    picks["eta_07_kmax"] = math.exp(best) / 5.0
    return picks


def _row_h_recovery(cfg: ExperimentConfig, index: int) -> dict:
    ms = _simulate(cfg, index)
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
# experiments: a prepare step and a judge each (the row functions are above)
# ---------------------------------------------------------------------------

def _require(cfg: ExperimentConfig, br: bool = False, constant_h: bool = False) -> None:
    if br and cfg.model != "br":
        raise ValueError(f"{cfg.experiment} requires model 'br'")
    if constant_h and cfg.volatility.kind != "constant":
        raise ValueError(f"{cfg.experiment} requires a constant volatility")


def _prepare_lln(cfg: ExperimentConfig) -> dict:
    """The target m_p * int_0^t H^p and its allowance: the predicted
    O(1/sqrt(n)) mean shift plus the deficit of the floor(nt) - 1 increments.
    No judge reads pv_scale = n^{p/2 - 1}: the finite-and-nonzero check does,
    to refuse a p that takes the power-variation scale past the float range."""
    p, t, n = cfg.p, cfg.t_eval, cfg.n
    vol = cfg.volatility
    target = gauss_kernels.abs_moment(p) * vol.integrated_power(p, t)
    if cfg.model == "max2bm":
        bias = abs(pv_stats.lambda_phi_unit(p)) * math.sqrt(t / math.pi)
    else:
        # each increment carries a moment bias J_p * H / sqrt(n) on the
        # normalized scale, so the B-level shift integrates H^{p+1}
        bias = abs(gauss_kernels.bias_integral(p)) * vol.integrated_power(p + 1, t)
    m = Grid(n).last_increment(t)
    floor_deficit = target * (n * t - (m - 1)) / (n * t)
    return {"target": target, "allowance": bias / math.sqrt(n) + floor_deficit,
            "pv_scale": float(n) ** (p / 2.0 - 1.0)}


def _lln(config: ExperimentConfig, cols: dict) -> tuple:
    """Replicate-mean of B(p)_t against its law-of-large-numbers target,
    with a 3-sigma band plus the allowance."""
    b = cols["B"]
    mean = float(b.mean())
    stderr = float(b.std(ddof=1) / math.sqrt(len(b)))
    target, allowance = config.constants["target"], config.constants["allowance"]
    gap = abs(mean - target)
    threshold = 3.0 * stderr + allowance
    aggregate = {
        "mean_B": mean, "stderr_B": stderr, "target": target,
        "bias_allowance": allowance, "gap": gap,
    }
    verdicts = [Verdict(f"lln_{config.model}_p{config.p}", gap, threshold)]
    return {"B": b.tolist()}, aggregate, verdicts


def _prepare_clt(cfg: ExperimentConfig) -> dict:
    """The LLN target and the conditional variance (m_2p - m_p^2) int H^{2p};
    the pair functional's halfwidth stays below 4 for either model.  As in
    lln, pv_scale is read by no judge, only by the finite-and-nonzero check."""
    pv_stats.check_halfwidth(cfg.halfwidth, cfg.n)
    p, t, vol = cfg.p, cfg.t_eval, cfg.volatility
    if Grid(cfg.n).last_increment(t) < 2:
        # B sums floor(nt) - 1 increments: none leaves S constant, and the
        # regression nothing to explain
        raise ValueError(f"clt needs an increment before t_eval: floor(n t_eval) must be "
                         f"at least 2, got n = {cfg.n}, t_eval = {t}")
    mp = gauss_kernels.abs_moment(p)
    cond_var = (gauss_kernels.abs_moment(2 * p) - mp ** 2) * vol.integrated_power(2 * p, t)
    return {"target": mp * vol.integrated_power(p, t), "cond_var": cond_var,
            "pv_scale": float(cfg.n) ** (p / 2.0 - 1.0)}


# per model: the clt slope band about 1, and whether residuals get a KS verdict
_CLT_VERDICT_POLICY = {"max2bm": (0.10, True), "br": (0.15, False)}


def _clt(config: ExperimentConfig, cols: dict) -> tuple:
    """Central-limit diagnostics: regression of S = sqrt(n)(B - target) on the
    per-path bias estimate (the pair functional x, slope 1), residual
    variance, and Gaussianity of the standardized residuals."""
    cond_var = config.constants["cond_var"]
    s = math.sqrt(config.n) * (cols["B"] - config.constants["target"])
    x = bhat = cols["x"]

    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, s, rcond=None)
    fit_resid = s - slope * x - intercept
    r_squared = float(1.0 - np.var(fit_resid) / np.var(s))
    resid = s - bhat
    resid_var = float(np.var(resid, ddof=1))

    ks = ks_statistic(resid / math.sqrt(cond_var), ndtr)

    aggregate = {
        "slope": float(slope), "intercept": float(intercept),
        "slope_target": 1.0, "r_squared": r_squared,
        "resid_var": resid_var, "resid_var_target": float(cond_var),
        "ks_std_resid": ks, "mean_S": float(s.mean()), "mean_bhat": float(bhat.mean()),
    }
    # the regression slope is pinned under constant volatility (max2bm
    # included), Gaussianity of residuals for max2bm only; the remaining
    # diagnostics stay in the aggregate
    slope_tol, judge_ks = _CLT_VERDICT_POLICY[config.model]
    verdicts = [
        Verdict(f"clt_{config.model}_resid_var", abs(resid_var - cond_var), 0.10 * cond_var),
    ]
    if config.volatility.kind == "constant":
        verdicts.insert(0, Verdict(f"clt_{config.model}_slope", abs(float(slope) - 1.0),
                                   slope_tol))
    if judge_ks:
        verdicts.append(Verdict(f"clt_{config.model}_ks", ks, 1.36 / math.sqrt(len(s))))
    per_rep = {"S": s.tolist(), "x": x.tolist(), "bhat": bhat.tolist()}
    return per_rep, aggregate, verdicts


def _prepare_marginal(cfg: ExperimentConfig) -> dict:
    _require(cfg, br=True, constant_h=True)
    increment_law.check_moment_order(cfg.p)
    return {}


def _marginal(config: ExperimentConfig, cols: dict) -> tuple:
    """Pooled mid-path normalized increments against the exact marginal law."""
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
        "pooled_se": pooled_se, "frac_nonpositive": frac_neg,
    }
    verdicts = [
        Verdict("marginal_ks", ks, ks_threshold),
        Verdict("marginal_moment", abs(pooled - exact), 4 * pooled_se),
        Verdict("marginal_sign_symmetry", abs(frac_neg - 0.5), 4 * frac_se),
    ]
    return {"U": u.tolist()}, aggregate, verdicts


def _prepare_facts(cfg: ExperimentConfig) -> dict:
    _require(cfg, br=True)
    return {}


def _facts(config: ExperimentConfig, cols: dict) -> tuple:
    """Frechet marginal, Gumbel log-marginal, k=5 max-stability, and two-time
    stationarity, each with its own verdict."""
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
        "p_eta_below_1": p_below,
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


# the grid sizes n at which moment_bias takes the scaled moment gap; the
# verdict reads the last
_MOMENT_BIAS_LADDER = tuple(10 ** k for k in range(2, 9))


def _prepare_moment_bias(cfg: ExperimentConfig) -> dict:
    """The limit sigma * J_p of the scaled moment gap, and m_p.  Refuses a
    sigma so small that the error MOMENT_TOL allows E|U|^p, scaled by
    sqrt(n) at the top of the ladder, reaches the verdict's 1% band of the
    limit: below that the verdict would judge round-off."""
    _require(cfg, constant_h=True)
    limit = cfg.volatility.sigma * gauss_kernels.bias_integral(cfg.p)
    mp = gauss_kernels.abs_moment(cfg.p)
    increment_law.check_moment_order(cfg.p)     # after J_p, so its overflow reports first
    resolution = math.sqrt(_MOMENT_BIAS_LADDER[-1]) * increment_law.MOMENT_TOL.tolerance(mp)
    if not resolution < 0.01 * abs(limit):
        raise ValueError(f"moment_bias cannot resolve sigma = {cfg.volatility.sigma!r} at "
                         f"p = {cfg.p}: the limit sigma * J_p = {limit:.3g} lies within 100 x "
                         f"the quadrature's scaled error bound {resolution:.3g}")
    return {"limit": limit, "m_p": mp}


def _moment_bias(config: ExperimentConfig, cols=None) -> tuple:
    """Exact moments by quadrature: the scaled moment gap sqrt(n)(E|U|^p - m_p)
    along a ladder of n against its closed-form limit sigma * J_p.

    The marginal law depends on (sigma, n) only through sigma/sqrt(n), so
    the first-order coefficient carries one factor of sigma (visible in the
    expansion of the tail ratio, where every 1/sqrt(n) enters as
    sigma/sqrt(n)).
    """
    p = config.p
    sigma = config.volatility.sigma
    limit, mp = config.constants["limit"], config.constants["m_p"]
    gaps = []
    for n in _MOMENT_BIAS_LADDER:
        params = increment_law.IncrementLawParams(sigma, n)
        moment = increment_law.exact_abs_moment(p, params)
        gaps.append(math.sqrt(n) * (moment - mp))
    rel_gap = abs(gaps[-1] - limit) / abs(limit)
    aggregate = {
        "n_ladder": list(_MOMENT_BIAS_LADDER), "scaled_gaps": gaps,
        "bias_integral_limit": limit, "rel_gap_at_1e8": rel_gap,
    }
    verdicts = [Verdict(f"moment_bias_p{p}", rel_gap, 0.01)]
    return {}, aggregate, verdicts


def _prepare_h_recovery(cfg: ExperimentConfig) -> dict:
    """m_p and the scale n^{p/2} that estimate_h applies to every path, read by
    no judge: the finite-and-nonzero check refuses a p that takes either past
    the float range."""
    _require(cfg, br=True)
    pv_stats.check_window(cfg.window, cfg.n)
    return {"m_p": gauss_kernels.abs_moment(cfg.p), "pv_scale": float(cfg.n) ** (cfg.p / 2.0)}


def _h_recovery(config: ExperimentConfig, cols: dict) -> tuple:
    """Localized volatility recovery through the power-variation LLN."""
    mae = cols["mae"]
    mean_mae = float(mae.mean())
    aggregate = {"mean_interior_mae": mean_mae}
    verdicts = [Verdict("h_recovery_mae", mean_mae, 0.1)]
    return {"mae": mae.tolist()}, aggregate, verdicts


class Experiment(NamedTuple):
    prepare: Callable       # config -> the dict of closed-form constants it checks
    row: Callable | None    # (config, index) -> that replicate's statistics
    judge: Callable         # (config, columns) -> (per_replicate, aggregate, verdicts)


EXPERIMENTS = {
    "frechet": Experiment(_prepare_facts, _row_facts, _facts),
    "marginal_increment": Experiment(_prepare_marginal, _row_marginal, _marginal),
    "moment_bias": Experiment(_prepare_moment_bias, None, _moment_bias),
    "lln": Experiment(_prepare_lln, _row_lln, _lln),
    "clt": Experiment(_prepare_clt, _row_clt, _clt),
    "estimate_h": Experiment(_prepare_h_recovery, _row_h_recovery, _h_recovery),
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the named experiment, timed, and build its report.  A statistic
    past the float range (inf or NaN) is a numerical failure, OverflowError
    (CLI exit 3), never a report that is not strict JSON."""
    started = time.perf_counter()
    _resolve_workers()      # a bad MAXSTABLE_PV_THREADS fails every experiment alike
    experiment = EXPERIMENTS[config.experiment]
    columns, truncated = (None, None) if experiment.row is None else _map_replicates(
        config, experiment.row)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        per_replicate, aggregate, verdicts = experiment.judge(config, columns)
    if truncated is not None:
        aggregate["truncated"] = truncated
    report = ExperimentReport(
        config=config.to_dict(),
        config_hash=config.config_hash(),
        per_replicate=per_replicate,
        aggregate=aggregate,
        verdicts=verdicts,
        wall_time=time.perf_counter() - started,
    )
    try:
        json.dumps(report.to_dict(), allow_nan=False)
    except ValueError as exc:
        raise OverflowError(f"{config.experiment}: a statistic of the run is past the float "
                            f"range") from exc
    return report
