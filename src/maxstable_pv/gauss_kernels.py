"""Gaussian analytic objects behind the power-variation limit theorems.

Everything here is deterministic, no simulation: quadrature at the one
tolerance KERNEL_TOL, met by the kernels up to order p = 9 (higher orders
are refused), and the closed form of J_p.  The central object is
the two-sided kernel

    psi_p(x, y, w) = (|y+w|^p - |x|^p) 1{x-y <= w <= 0}
                   + (|x-w|^p - |y|^p) 1{0 <= w <= x-y}

and its Gaussian averages

    phi_{p,sigma}(w)     = E[ psi_p(sigma X, sigma Y, w) ],   X, Y iid N(0,1)
    phi2_{p,sigma}(w)    = E[ psi_p(sigma X, sigma Y, w)^2 ]
    lambda(phi_{p,sigma}) = integral of phi_{p,sigma} over w.

The bivariate averages are reduced to one adaptive quadrature each by
rotating to the independent coordinates u = (x-y)/sqrt(2), v = (x+y)/sqrt(2):
the indicator becomes a half-line in u, and the inner v-expectation is a
Gaussian absolute-moment of the form E|sV + mu|^p (and, for the squared
kernel, E|sV + mu1|^p |sV + mu2|^p), both of which reduce to incomplete
Gaussian moments in closed form for integer p.  The remaining u-integral is
smooth, so the Gauss-Kronrod machinery converges at spectral rate.

The moment-bias constant J_p (bias_integral) is exact for integer p.  The
bracket of its defining integral, which only the tests read as its oracle,
lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .quadrature import QuadratureConfig, adaptive_gauss_kronrod

__all__ = [
    "abs_moment",
    "phi_kernel",
    "phi2_kernel",
    "lambda_integral",
    "bias_integral",
    "tabulate_kernels",
    "KERNEL_TOL",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
# Gaussian-weighted integrands are cut at 8 standard deviations, which leaves
# mass below 1e-15 outside the window
_TAIL_CUTOFF = 8.0
# the tolerance of every kernel quadrature: phi, phi2 and their lambda integrals
KERNEL_TOL = QuadratureConfig()
# the largest order whose kernels meet KERNEL_TOL within the tail cutoff: the
# mass phi2 loses there at w = 0 is 0.99 of the tolerance at p = 9 and 2.8
# times it at p = 10, at sigma = 0.5, 1 and 2 alike (against a cutoff of 14)
_MAX_KERNEL_ORDER = 9


def _npdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT2PI


def abs_moment(p: float) -> float:
    """p-th absolute moment of a standard Gaussian, m_p = 2^{p/2} Gamma((p+1)/2) / sqrt(pi).

    OverflowError from p = 302, where the product leaves the float range.
    """
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"abs_moment requires finite p >= 1, got {p}")
    try:
        mp = 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
    except OverflowError:           # math.gamma itself, from p = 343
        mp = math.inf
    if not math.isfinite(mp):
        raise OverflowError(f"m_p at p = {p} is past the float range")
    return mp


def _check_order(p) -> int:
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise ValueError(f"order p must be a positive integer, got {p!r}")
    return int(p)


def _check_sigma(sigma: float) -> float:
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    return float(sigma)


def _check_kernel_args(p, sigma) -> tuple:
    """(p, sigma) for the phi kernels: an order up to _MAX_KERNEL_ORDER, so
    that every value meets KERNEL_TOL, and a positive sigma."""
    p = _check_order(p)
    if p > _MAX_KERNEL_ORDER:
        raise ValueError(f"the phi kernels meet their tolerance only up to order "
                         f"p = {_MAX_KERNEL_ORDER}, got {p}")
    return p, _check_sigma(sigma)


# ---------------------------------------------------------------------------
# incomplete Gaussian moments and noncentral absolute moments
# ---------------------------------------------------------------------------

def _upper_moments(a: np.ndarray, kmax: int) -> np.ndarray:
    """J_k(a) = int_a^inf v^k phi(v) dv for k = 0..kmax, stacked on axis 0.

    Recursion J_k = a^{k-1} phi(a) + (k-1) J_{k-2}; stable for all a since
    every term is nonnegative for a <= 0 and Gaussian-small for a large.
    """
    a = np.asarray(a, dtype=float)
    out = np.empty((kmax + 1,) + a.shape)
    pa = _npdf(a)
    out[0] = ndtr(-a)
    if kmax >= 1:
        out[1] = pa
    for k in range(2, kmax + 1):
        out[k] = a ** (k - 1) * pa + (k - 1) * out[k - 2]
    return out


def _segment_moments(lo: np.ndarray, hi: np.ndarray, kmax: int) -> np.ndarray:
    """int_lo^hi v^k phi(v) dv for k = 0..kmax."""
    return _upper_moments(lo, kmax) - _upper_moments(hi, kmax)


def _abs_noncentral_moment(theta: np.ndarray, p: int) -> np.ndarray:
    """E|V + theta|^p for V ~ N(0,1), integer p >= 1, vectorized in theta."""
    theta = np.asarray(theta, dtype=float)
    upper = _upper_moments(-theta, p)          # int_{-theta}^inf v^k phi
    lower = _upper_moments(theta, p)           # (-1)^k * int_{-inf}^{-theta} v^k phi
    acc = np.zeros_like(theta)
    sgn = (-1.0) ** p
    for k in range(p + 1):
        below = ((-1.0) ** k) * lower[k]
        acc += math.comb(p, k) * theta ** (p - k) * (upper[k] + sgn * below)
    return acc


def _abs_pair_moment(theta1: np.ndarray, theta2: np.ndarray, p: int) -> np.ndarray:
    """E[|V + theta1|^p |V + theta2|^p] for V ~ N(0,1), integer p >= 1.

    The product is |Q(v)|^p with Q(v) = (v+theta1)(v+theta2), a quadratic
    that is negative exactly between its roots, so the expectation is three
    polynomial segments against the Gaussian.
    """
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    root_lo = np.minimum(-theta1, -theta2)
    root_hi = np.maximum(-theta1, -theta2)
    # coefficients of Q^p in v, by convolving the two binomial expansions
    c1 = [math.comb(p, k) * theta1 ** (p - k) for k in range(p + 1)]
    c2 = [math.comb(p, k) * theta2 ** (p - k) for k in range(p + 1)]
    coeffs = [np.zeros_like(theta1) for _ in range(2 * p + 1)]
    for k in range(p + 1):
        for m in range(p + 1):
            coeffs[k + m] = coeffs[k + m] + c1[k] * c2[m]
    mid = _segment_moments(root_lo, root_hi, 2 * p)
    outer_lo = _upper_moments(-root_lo, 2 * p)     # tail below root_lo, signed
    outer_hi = _upper_moments(root_hi, 2 * p)
    acc = np.zeros_like(theta1)
    sgn_mid = (-1.0) ** p
    for k in range(2 * p + 1):
        below = ((-1.0) ** k) * outer_lo[k]
        acc += coeffs[k] * (below + sgn_mid * mid[k] + outer_hi[k])
    return acc


# ---------------------------------------------------------------------------
# the kernels phi_{p,sigma}, phi2_{p,sigma} and their w-integrals
# ---------------------------------------------------------------------------

def _branch_params(sigma: float, w, u):
    """Inner-expectation means for both indicator branches at difference coordinate u.

    With s = sigma/sqrt(2) and v the Gaussian coordinate orthogonal to u:
    branch w<=0 compares |s v + (w - s u)|^p against |s v + s u|^p on u <= w/(2s);
    branch w>=0 compares |s v + (s u - w)|^p against |s v - s u|^p on u >= w/(2s).
    """
    s = sigma / _SQRT2
    w = np.asarray(w, float)
    neg = w <= 0
    mu1 = np.where(neg, w - s * u, s * u - w)
    mu2 = np.where(neg, s * u, -s * u)
    return mu1, mu2


def _phi_pointwise(p: int, sigma: float, w: np.ndarray, squared: bool) -> np.ndarray:
    """Vector of kernel values at the abscissae ``w`` with a shared error budget."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    s = sigma / _SQRT2
    ustar = w / (2.0 * s)
    span = _TAIL_CUTOFF
    # map u = ustar -/+ span * xi, xi in [0, 1]; sign follows the active branch
    direction = np.where(w <= 0, -1.0, 1.0)

    def integrand(xi):
        xi = np.asarray(xi, float)
        u = ustar[None, :] + direction[None, :] * span * xi[:, None]
        mu1, mu2 = _branch_params(sigma, w[None, :], u)
        t1, t2 = mu1 / s, mu2 / s
        if squared:
            inner = (_abs_noncentral_moment(t1, 2 * p)
                     - 2.0 * _abs_pair_moment(t1, t2, p)
                     + _abs_noncentral_moment(t2, 2 * p))
        else:
            inner = _abs_noncentral_moment(t1, p) - _abs_noncentral_moment(t2, p)
        return _npdf(u) * (s ** (2 * p if squared else p)) * inner * span

    value = np.atleast_1d(adaptive_gauss_kronrod(integrand, 0.0, 1.0, KERNEL_TOL).value)
    # at w = 0 both branches contribute; the two half-plane integrals coincide
    return np.where(w == 0.0, 2.0 * value, value)


def phi_kernel(p: int, sigma: float, w: float) -> float:
    """phi_{p,sigma}(w): Gaussian average of the rescaled two-sided kernel."""
    p, sigma = _check_kernel_args(p, sigma)
    return float(_phi_pointwise(p, sigma, np.asarray([w]), squared=False)[0])


def phi2_kernel(p: int, sigma: float, w: float) -> float:
    """phi2_{p,sigma}(w): Gaussian average of the squared kernel; nonnegative."""
    p, sigma = _check_kernel_args(p, sigma)
    return float(_phi_pointwise(p, sigma, np.asarray([w]), squared=True)[0])


def _support_halfwidth(p: int, sigma: float, squared: bool) -> float:
    """Smallest W (on a sigma grid) with |kernel(w)| provably below abs_tol for |w| > W.

    Cauchy-Schwarz against the indicator: |phi(w)| <= sqrt(E psi^2) *
    sqrt(Phi(-|w| / (sigma sqrt(2)))), and E psi^2 is bounded by moments of
    the two branch arguments.
    """
    target = 0.1 * KERNEL_TOL.abs_tol
    for k in range(6, 121):
        w = k * sigma / 2.0
        theta = w / sigma
        order = 4 * p if squared else 2 * p
        m_big = float(_abs_noncentral_moment(np.asarray(theta), order))
        bound = math.sqrt(2.0 * (sigma ** order) * (m_big + abs_moment(order)))
        bound *= math.sqrt(float(ndtr(-w / (sigma * _SQRT2))))
        if bound < target:
            return w
    return 60.0 * sigma


def lambda_integral(p: int, sigma: float, which: str = "phi") -> float:
    """lambda(phi_{p,sigma}) or lambda(phi2_{p,sigma}): the kernel's integral over w.

    The w-domain is truncated where the kernel is provably below abs_tol;
    the integrand has a corner at w = 0 (branch switch), so 0 is a panel edge.
    """
    p, sigma = _check_kernel_args(p, sigma)
    if which not in ("phi", "phi2"):
        raise ValueError(f"which must be 'phi' or 'phi2', got {which!r}")
    squared = which == "phi2"
    half = _support_halfwidth(p, sigma, squared)

    def integrand(w):
        return _phi_pointwise(p, sigma, w, squared=squared)

    res = adaptive_gauss_kronrod(integrand, -half, half, KERNEL_TOL, breakpoints=(0.0,))
    return float(res.value)


# ---------------------------------------------------------------------------
# moment-bias constant J_p
# ---------------------------------------------------------------------------

def bias_integral(p: int) -> float:
    """J_p = 2p int_0^inf u^{p-1} phi(u) * bracket(u) du, with
    bracket(u) = 1/2 - Phibar(u) - u Phibar(u) Phi(u) / phi(u), the n -> infinity
    limit of sqrt(n) (E|U^n|^p - m_p) for the normalized increments of the
    stationary log-process; its sign is reported, not asserted.

    Exact for integer p: with I_k = int_0^inf u^k phi(u) (2 Phi(u) - 1) du,
    J_p = p I_{p-1} - 2p/(p+1) I_{p+1}, since phi * bracket is
    phi (Phi - 1/2) - u Phi Phibar, and integrating u^p Phi Phibar by parts
    with (Phi Phibar)' = phi (1 - 2 Phi) gives I_{p+1}/(p+1).  Integrating
    u^{k-1} * u phi by parts, with int_0^inf u^m phi^2 du = Gamma((m+1)/2)/(4 pi),
    gives I_k = (k-1) I_{k-2} + Gamma(k/2)/(2 pi) from I_0 = 1/4 and
    I_1 = 1/(2 sqrt(pi)).  So J_1 = -1/(2 pi).  OverflowError past p ~ 300.
    """
    p = _check_order(p)
    i = [0.25, 0.5 / math.sqrt(math.pi)]
    for k in range(2, p + 2):
        i.append((k - 1) * i[k - 2] + math.gamma(k / 2.0) / (2.0 * math.pi))
    jp = p * i[p - 1] - 2.0 * p / (p + 1) * i[p + 1]
    if not math.isfinite(jp):
        raise OverflowError(f"J_p at p = {p} is past the float range")
    return jp


# ---------------------------------------------------------------------------
# tabulated kernels
# ---------------------------------------------------------------------------

def tabulate_kernels(p: int, sigma: float, points: int = 81) -> tuple:
    """(w, phi, phi2, lambda_phi, lambda_phi2): phi_{p,sigma} and
    phi2_{p,sigma} on ``points`` equispaced abscissae over the support of
    phi, and the two kernels' integrals over w."""
    p, sigma = _check_kernel_args(p, sigma)
    if points < 2:
        raise ValueError(f"points must be at least 2, got {points}")
    half = _support_halfwidth(p, sigma, squared=False)
    w = np.linspace(-half, half, points)
    return (w, _phi_pointwise(p, sigma, w, squared=False),
            _phi_pointwise(p, sigma, w, squared=True),
            lambda_integral(p, sigma, "phi"), lambda_integral(p, sigma, "phi2"))
