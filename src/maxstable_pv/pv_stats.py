"""Path statistics: power variations, local times, and the CLT pair bias functional.

The normalized power variation of order p of a grid path X is

    B(p, X)^n_t = n^{p/2 - 1} * sum_{i=1}^{floor(nt) - 1} |X_{i/n} - X_{(i-1)/n}|^p,

with the upper limit floor(nt) - 1 (one increment short of the horizon).

Local time at level 0 is estimated two independent ways: a kernel count
(1/(h sqrt(n))) sum 1{|sqrt(n) X_{(i-1)/n}| <= h}, whose window function has
exact integral 2h, and the discrete Tanaka residual
|X| - |X_0| - sum sign(X) dX.  Both converge to L^0 for continuous
martingales; their per-path disagreement is itself a diagnostic.

The pair bias functional accumulates, over every retained atom pair (j, k),
the kernel local-time increments of Z_k - Z_j weighted by
lambda(phi_{p, H_s}) / (2 H_s^2) and restricted to the steps where the pair
tops every other atom.  lambda(phi_{p,sigma}) = sigma^{p+1} lambda(phi_{p,1})
exactly (change of variables in the defining double integral), so a single
unit-sigma constant serves every step weight, and lambda(phi_{p,1}) = 2 J_p,
twice the moment-bias constant, so that constant is exact.

At most one pair can lie strictly above every other atom at a step: the
top two, when the second value v2 exceeds the third v3.  So with the step's
values v1 >= v2 >= v3 (v3 = -inf for two atoms) the pair restriction is
v2 > v3, and the near-tie test is v1 - v2 <= h/sqrt(n), because
|Z_j - Z_k| equals max - min exactly in floating point.  The functional is
then one weighted sum of the step weights over the firing steps, read from
the top three values alone.
"""

from __future__ import annotations

import math

import numpy as np

from . import gauss_kernels
from .gauss_kernels import _check_order
from .path_sim import MAX_HALFWIDTH, GridPath, MaxStablePath, retain_margin

__all__ = [
    "power_variation",
    "local_time_kernel",
    "local_time_tanaka",
    "clt_bias_functional",
    "estimate_h",
    "full_window_slice",
    "lambda_phi_unit",
    "check_halfwidth",
    "check_window",
]


# narrowest band h/sqrt(n) a local-time estimate accepts
_MIN_BAND = 1e-12


def check_halfwidth(halfwidth: float, n: int, kept_atoms: bool = False) -> None:
    """h > 0 with a band h/sqrt(n) of at least 1e-12: the n grid values fall
    in a narrower band about n * 1e-12 times in expectation, so the estimate
    reads little but exact ties, and near the subnormal range its weight
    1/(h sqrt(n)) overflows to inf.  And for the pair functional on a sampled
    path's kept atoms, h/sqrt(n) below the retain margin MAX_HALFWIDTH/sqrt(n),
    that is h below 4, or atoms that near the top may have been discarded.
    The test compares the floats the sampler's keep filter uses, so the
    second atom of every firing step is kept."""
    if not halfwidth > 0:
        raise ValueError(f"halfwidth must be positive, got {halfwidth}")
    if halfwidth / math.sqrt(n) < _MIN_BAND:
        raise ValueError(f"halfwidth {halfwidth} is too small: the band h/sqrt(n) must be "
                         f"at least {_MIN_BAND:g}, or it holds only exact ties")
    if kept_atoms and halfwidth / math.sqrt(n) >= retain_margin(n):
        raise ValueError(f"halfwidth {halfwidth} reaches the retain margin: h/sqrt(n) must "
                         f"stay below {MAX_HALFWIDTH:g}/sqrt(n), or near-top atoms may be "
                         f"missing")


def check_window(window: int, n: int) -> None:
    """The estimate_h window must be an integer in [16, n/4]."""
    if not (isinstance(window, (int, np.integer)) and 16 <= window <= n // 4):
        raise ValueError(f"estimate_h requires a window in [16, n/4], got {window!r}")


def power_variation(path: GridPath, p: int, t: float) -> float:
    """Normalized power variation at time t; 0 whenever floor(nt) <= 1."""
    p = _check_order(p)
    n = path.grid.n
    m = path.grid.last_increment(t)
    if m <= 1:
        return 0.0
    d = np.diff(path.values[:m])            # increments i = 1 .. m-1
    return float(n ** (p / 2.0 - 1.0) * np.sum(np.abs(d) ** p))


def local_time_kernel(path: GridPath, t: float, halfwidth: float) -> float:
    """Kernel-count estimate of L^0_t using g = 1_{[-h, h]} (lambda(g) = 2h)."""
    n = path.grid.n
    check_halfwidth(halfwidth, n)
    m = path.grid.last_increment(t)
    if m <= 1:
        return 0.0
    left = path.values[: m - 1]
    hits = np.abs(math.sqrt(n) * left) <= halfwidth
    return float(hits.sum() / (halfwidth * math.sqrt(n)))


def _sign_plus(x: np.ndarray) -> np.ndarray:
    """sign with sign(0) = +1; fixed convention for reproducibility."""
    return np.where(x >= 0.0, 1.0, -1.0)


def local_time_tanaka(path: GridPath, t: float) -> float:
    """Discrete Tanaka residual |X_{m/n}| - |X_0| - sum sign(X) dX, m = floor(nt)."""
    m = path.grid.last_increment(t)
    if m < 1:
        return 0.0
    v = path.values
    signed = _sign_plus(v[:m]) * np.diff(v[: m + 1])
    return float(abs(v[m]) - abs(v[0]) - signed.sum())


def lambda_phi_unit(p: int) -> float:
    """lambda(phi_{p,1}) = 2 J_p, from the closed-form moment-bias constant;
    every sigma follows by the exact sigma^{p+1} scaling law."""
    return 2.0 * gauss_kernels.bias_integral(p)


def clt_bias_functional(ms_path: MaxStablePath, p: int, t: float,
                        halfwidth: float) -> float:
    """Pair local-time bias functional with per-step volatility weights.

    The target is  sum_{j<k} int_0^t lambda(phi_{p,H_s}) / (2 H_s^2)
    1{pair on top} dL0 of Z_k - Z_j.  The difference path has quadratic
    variation 2 H^2 ds, so its local-time increment is estimated by
    H^2 / (h sqrt(n)) * 1{|sqrt(n) dZ| <= h}: the band count of a
    variance-2H^2 path picks up dL0 / H^2 (occupation times scale with the
    quadratic variation).  With lambda(phi_{p,sigma}) =
    sigma^{p+1} lambda(phi_{p,1}) the net per-step weight is
    lambda(phi_{p,1}) H^{p+1} / (2 h sqrt(n)).
    """
    p = _check_order(p)
    grid = ms_path.grid
    n = grid.n
    check_halfwidth(halfwidth, n, kept_atoms=True)
    if ms_path.z.shape[0] < 2:
        # a lone retained atom forms no pair, so the pair sum is empty
        return 0.0
    thr = halfwidth / math.sqrt(n)
    lam1 = lambda_phi_unit(p)
    h_left = ms_path.vol.value(grid.times[:n])
    weights = lam1 * h_left ** (p + 1) / (2.0 * halfwidth * math.sqrt(n))
    m = grid.last_increment(t)
    if m <= 1:
        return 0.0

    Z = ms_path.z[:, : m - 1]
    K = Z.shape[0]
    v = np.partition(Z, range(max(K - 3, 0), K), axis=0)[-3:]  # v[-1] >= v[-2] >= v[-3]
    v3 = v[-3] if K >= 3 else -np.inf
    fire = (v[-1] - v[-2] <= thr) & (v[-2] > v3)
    return float(weights[: m - 1] @ fire)


def estimate_h(path: GridPath, p: int, window: int) -> GridPath:
    """Localized volatility estimate from the power-variation law of large
    numbers: on a window of increments around each grid point,

        Hhat^p = n^{p/2} / (count * m_p) * sum |dX|^p,

    returned as Hhat.  Edge windows are truncated to the available
    increments (see full_window_slice for the untruncated interior).
    """
    p = _check_order(p)
    n = path.grid.n
    check_window(window, n)
    powers = np.abs(np.diff(path.values)) ** p
    prefix = np.concatenate([[0.0], np.cumsum(powers)])
    half = window // 2
    j = np.arange(n + 1)
    lo = np.clip(j - half, 0, n)         # increments lo+1 .. hi (1-based)
    hi = np.clip(j + half, 0, n)
    count = hi - lo
    mp = gauss_kernels.abs_moment(p)
    mean_power = (prefix[hi] - prefix[lo]) / count
    h_hat = (n ** (p / 2.0) * mean_power / mp) ** (1.0 / p)
    return GridPath(path.grid, h_hat)


def full_window_slice(n: int, window: int) -> slice:
    """Grid indices whose estimate_h window was not truncated at an edge."""
    half = window // 2
    return slice(half, n - half + 1)
