"""Exact finite-n law of the normalized increments of the stationary log-process.

For the constant-volatility process observed on the mesh-1/n grid, the
normalized increment U = sqrt(n) sigma^{-1} (log eta_{i/n} - log eta_{(i-1)/n})
has, with a = sigma / (2 sqrt(n)),

    conditional CDF given eta_{(i-1)/n} = eta:
        exp(-(1/eta) [e^{-sigma u / sqrt(n)} Phi(-u+a) - Phi(-u-a)]) * Phi(u+a)

    marginal CDF:
        F(u) = Phi(u+a) / (Phi(u+a) + e^{-sigma u / sqrt(n)} (1 - Phi(u-a)))

    exact absolute moments:
        E|U|^p = 2p int_0^inf u^{p-1} * g(u) / (Phi(u+a) + g(u)) du,
        g(u) = e^{-sigma u / sqrt(n)} (1 - Phi(u-a)).

F satisfies F(u) + F(-u) = 1 exactly, and E|U|^p -> m_p at rate 1/sqrt(n)
with limiting constant J_p (see gauss_kernels.bias_integral).  The law does
not depend on the grid index i: the log-process is stationary.

For u - a > 8 the tail product g(u) is evaluated through the scaled
complementary error function so that the Gaussian tail and the exponential
tilt share one exponent; the naive product loses all relative accuracy once
1 - Phi underflows.  At large sigma/sqrt(n) the tilt e^{-sigma u / sqrt(n)}
overflows to inf for u < 0, which gives both CDFs their limit 0 there.
The exact moments use the one tolerance MOMENT_TOL, which moment_bias needs
for sqrt(n) (E|U|^p - m_p) at n = 1e8.  Their integrand u^{p-1} g peaks near
sqrt(p), so the quadrature runs to U(p) = max(16, sqrt(p) + 10), and p is
refused where the bound 2p u^{p-1} on it leaves the float range on [0, U(p)]:
above p = 220 for integers (check_moment_order).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, ndtr

from .quadrature import QuadratureConfig, adaptive_gauss_kronrod

__all__ = [
    "IncrementLawParams",
    "cond_cdf",
    "marginal_cdf",
    "exact_abs_moment",
    "check_moment_order",
    "MOMENT_TOL",
]

_SQRT2 = math.sqrt(2.0)
MOMENT_TOL = QuadratureConfig(1e-13, 1e-12)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class IncrementLawParams:
    sigma: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")

    @property
    def half_step(self) -> float:
        """a = sigma / (2 sqrt(n))."""
        return self.sigma / (2.0 * math.sqrt(self.n))


def _tail_product(u, params: IncrementLawParams):
    """e^{-sigma u / sqrt(n)} * (1 - Phi(u - a)), accurate on the far right tail."""
    u = np.asarray(u, dtype=float)
    a = params.half_step
    rate = params.sigma / math.sqrt(params.n)
    with np.errstate(over="ignore"):
        naive = np.exp(-rate * u) * ndtr(-(u - a))
    # the stable form is read only where u - a > 8; elsewhere erfcx of a
    # large negative argument overflows, and times an underflowed exp is nan
    with np.errstate(over="ignore", invalid="ignore"):
        stable = 0.5 * np.exp(-rate * u - 0.5 * (u - a) ** 2) * erfcx((u - a) / _SQRT2)
    return np.where(u - a > 8.0, stable, naive)


def cond_cdf(u, eta: float, params: IncrementLawParams):
    """P(U <= u | previous marginal value eta); eta must be positive."""
    if not (np.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be positive, got {eta}")
    u = np.asarray(u, dtype=float)
    a = params.half_step
    rate = params.sigma / math.sqrt(params.n)
    with np.errstate(over="ignore"):
        bracket = np.exp(-rate * u) * ndtr(-u + a) - ndtr(-u - a)
    out = np.exp(-bracket / eta) * ndtr(u + a)
    return float(out) if out.ndim == 0 else out


def marginal_cdf(u, params: IncrementLawParams):
    """Marginal CDF of U; symmetric, F(u) + F(-u) = 1."""
    u = np.asarray(u, dtype=float)
    a = params.half_step
    num = ndtr(u + a)
    out = num / (num + _tail_product(u, params))
    return float(out) if out.ndim == 0 else out


def _upper_limit(p: float) -> float:
    """U(p): past sqrt(p) + 10 the Gaussian tail of g leaves the integrand
    below rounding; 16 up to p = 36."""
    return max(16.0, math.sqrt(p) + 10.0)


def check_moment_order(p) -> None:
    """The orders exact_abs_moment accepts: finite p >= 1 with
    log(2p) + (p - 1) log U(p) below log(float max), so that 2p u^{p-1}
    stays finite on [0, U(p)]; for integers that is p <= 220."""
    if not (1 <= p <= sys.float_info.max
            and math.log(2.0 * p) + (p - 1.0) * math.log(_upper_limit(p)) < _LOG_FLOAT_MAX):
        raise ValueError(f"exact_abs_moment requires a finite p >= 1 whose integrand "
                         f"2p u^(p-1) stays in the float range on [0, U(p)] (p <= 220 "
                         f"for integers), got {p!r}")


def exact_abs_moment(p: float, params: IncrementLawParams) -> float:
    """E|U|^p by adaptive quadrature of the exact tail integral over [0, U(p)],
    at MOMENT_TOL."""
    check_moment_order(p)
    a = params.half_step

    def integrand(u):
        u = np.asarray(u, float)
        g = _tail_product(u, params)
        return 2.0 * p * u ** (p - 1.0) * g / (ndtr(u + a) + g)

    res = adaptive_gauss_kronrod(integrand, 0.0, _upper_limit(p), MOMENT_TOL)
    return float(res.value)
