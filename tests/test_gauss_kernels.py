import math

import mpmath
import numpy as np
import pytest

import oracles
from maxstable_pv import gauss_kernels as gk
from maxstable_pv.increment_law import IncrementLawParams, exact_abs_moment
from maxstable_pv.quadrature import QuadratureConfig, adaptive_gauss_kronrod

TOL = gk.KERNEL_TOL

# Frozen Monte Carlo oracles: mean and standard error over 10^7 standard
# Gaussian pairs (x, y) of psi (or psi^2), seed 20240817; regenerate with
# mc_phi / mc_lambda below.
ORACLE_PHI = {
    (2, 1.0, 0.0): (-0.00034953867224389427, 0.0006326214574285773),
    (1, 1.0, -0.5): (-0.07916899621238097, 0.0001506903900985883),
    (2, 2.0, -1.0): (-0.6972235181513501, 0.001388393968493015),
}
ORACLE_PHI2 = {
    (1, 1.0, -0.5): (0.2333436666419232, 0.00022106740111399743),
    (2, 1.0, 0.0): (4.002099206167856, 0.0035801120610824163),
}
# MC over (x, y, w) with w uniform on [-12, 12], estimate of the w-integral
ORACLE_LAMBDA_11 = (-0.31656633757482094, 0.0012974709778836835)


def psi_sample_values(p, sigma, w, x, y):
    """Direct indicator-form evaluation used by the MC oracles."""
    sx, sy = sigma * x, sigma * y
    d = sx - sy
    b1 = np.where((d <= w) & (w <= 0), np.abs(sy + w) ** p - np.abs(sx) ** p, 0.0)
    b2 = np.where((0 <= w) & (w <= d), np.abs(sx - w) ** p - np.abs(sy) ** p, 0.0)
    return b1 + b2


def mc_phi(p, sigma, w, squared=False, n=10_000_000, seed=20240817):
    rng = np.random.default_rng(seed)
    tot = totsq = 0.0
    done = 0
    while done < n:
        m = min(1_000_000, n - done)
        v = psi_sample_values(p, sigma, w, rng.standard_normal(m), rng.standard_normal(m))
        if squared:
            v = v * v
        tot += v.sum()
        totsq += (v * v).sum()
        done += m
    mean = tot / n
    return mean, math.sqrt(max(totsq / n - mean * mean, 0.0) / n)


def mc_lambda(p, sigma, wmax=12.0, n=10_000_000, seed=20240817):
    rng = np.random.default_rng(seed)
    tot = totsq = 0.0
    done = 0
    while done < n:
        m = min(1_000_000, n - done)
        w = rng.uniform(-wmax, wmax, m)
        v = psi_sample_values(p, sigma, w, rng.standard_normal(m),
                              rng.standard_normal(m)) * (2 * wmax)
        tot += v.sum()
        totsq += (v * v).sum()
        done += m
    mean = tot / n
    return mean, math.sqrt(max(totsq / n - mean * mean, 0.0) / n)


# ---------------------------------------------------------------------------
# absolute moments
# ---------------------------------------------------------------------------

def test_abs_moment_closed_forms():
    assert abs(gk.abs_moment(2) - 1.0) < 1e-12
    assert abs(gk.abs_moment(1) - math.sqrt(2 / math.pi)) < 1e-12
    assert abs(gk.abs_moment(4) - 3.0) < 1e-12


def test_abs_moment_recurrence():
    for p in range(1, 7):
        lhs = gk.abs_moment(p + 2)
        rhs = (p + 1) * gk.abs_moment(p)
        assert abs(lhs / rhs - 1.0) < 1e-12


def test_abs_moment_domain():
    with pytest.raises(ValueError):
        gk.abs_moment(0.5)
    with pytest.raises(ValueError):
        gk.abs_moment(float("nan"))
    # the product 2^{p/2} Gamma((p+1)/2) leaves the float range from p = 302,
    # before math.gamma itself raises at p = 343; both are refused alike
    assert math.isfinite(gk.abs_moment(301))
    for big in (302, 339, 342, 343, 400):
        with pytest.raises(OverflowError, match="past the float range"):
            gk.abs_moment(big)


# ---------------------------------------------------------------------------
# phi and phi2 against the frozen oracles
# ---------------------------------------------------------------------------

def test_phi_zero_at_origin_for_even_power():
    mean, se = ORACLE_PHI[(2, 1.0, 0.0)]
    val = gk.phi_kernel(2, 1.0, 0.0)
    assert abs(val) < 1e-9
    assert abs(val - mean) < 3 * se


def test_phi_matches_mc_oracle():
    for (p, sigma, w), (mean, se) in ORACLE_PHI.items():
        val = gk.phi_kernel(p, sigma, w)
        assert abs(val - mean) < 4 * se, (p, sigma, w, val, mean)


def test_phi_vanishes_in_far_tail():
    assert abs(gk.phi_kernel(2, 1.0, -12.0)) < TOL.abs_tol


def test_phi_swap_symmetry():
    # w < 0 runs the first indicator branch, w > 0 the second; exchanging the
    # Gaussian pair maps one onto the other at -w, so the two independent
    # code paths must agree
    for p in (1, 2, 3):
        for w in np.linspace(0.05, 4.0, 20):
            left = gk.phi_kernel(p, 1.0, -w)
            right = gk.phi_kernel(p, 1.0, w)
            assert abs(left - right) < 10 * TOL.abs_tol


def test_phi2_matches_mc_oracle():
    for (p, sigma, w), (mean, se) in ORACLE_PHI2.items():
        val = gk.phi2_kernel(p, sigma, w)
        assert abs(val - mean) < 4 * se, (p, sigma, w, val, mean)
    assert gk.phi2_kernel(2, 1.0, 0.0) > 0.0


def test_phi2_nonnegative_and_tail():
    for w in np.linspace(-6, 6, 13):
        assert gk.phi2_kernel(2, 1.0, float(w)) >= -TOL.abs_tol
    assert abs(gk.phi2_kernel(2, 1.0, -12.0)) < TOL.abs_tol


# ---------------------------------------------------------------------------
# lambda integrals
# ---------------------------------------------------------------------------

def test_lambda_scaling_law():
    for p in (1, 2, 3):
        base = gk.lambda_integral(p, 1.0)
        for sigma in (0.5, 2.0):
            scaled = gk.lambda_integral(p, sigma)
            assert abs(scaled / base - sigma ** (p + 1)) < 1e-6 * sigma ** (p + 1)


def test_lambda_matches_mc_oracle():
    mean, se = ORACLE_LAMBDA_11
    val = gk.lambda_integral(1, 1.0)
    assert abs(val - mean) < 4 * se


def test_lambda_phi2_positive():
    for p, sigma in ((1, 1.0), (2, 1.0), (2, 0.5)):
        assert gk.lambda_integral(p, sigma, which="phi2") > 0.0


def test_lambda_which_validation():
    with pytest.raises(ValueError):
        gk.lambda_integral(2, 1.0, which="psi")
    with pytest.raises(ValueError):
        gk.lambda_integral(2, 0.0)


# ---------------------------------------------------------------------------
# moment-bias constant
# ---------------------------------------------------------------------------

def test_bias_bracket_endpoints():
    assert abs(oracles.bias_integrand_bracket(0.0)) < 1e-12
    b30 = float(oracles.bias_integrand_bracket(30.0))
    assert -0.51 < b30 < -0.49


def test_bias_integral_vs_moment_extrapolation():
    # Richardson in 1/sqrt(n): g(n) = J + c/sqrt(n) + o(1/sqrt(n)), grid
    # ratio 10 per decade pair
    j1 = gk.bias_integral(1)
    m1 = gk.abs_moment(1)
    g = [math.sqrt(n) * (exact_abs_moment(1, IncrementLawParams(1.0, n)) - m1)
         for n in (10 ** 4, 10 ** 6, 10 ** 8)]
    richardson = g[2] + (g[2] - g[1]) / 9.0
    assert abs(richardson - j1) < 0.01 * abs(j1)


def test_bias_integral_equals_half_lambda():
    # two independent routes to the same constant: the kernel integral over
    # w by quadrature and the closed form of the Mills-ratio moment integral.
    # The ratio is pinned to 1e-12 so that lambda(phi_{p,1}) may be derived
    # as 2 J_p.
    for p in (1, 2, 3, 4):
        ratio = gk.lambda_integral(p, 1.0) / gk.bias_integral(p)
        assert abs(ratio - 2.0) <= 2.0 * 1e-12


def test_bias_integral_closed_form_vs_bracket_quadrature():
    # the bracket integral itself, by tight Gauss-Kronrod; phi(12) is below
    # 1e-31, so the tail past 12 is lost in rounding
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-14)
    for p in range(1, 9):
        def integrand(u):
            return 2.0 * p * u ** (p - 1) * gk._npdf(u) * oracles.bias_integrand_bracket(u)
        want = adaptive_gauss_kronrod(integrand, 0.0, 12.0, cfg).value
        assert abs(gk.bias_integral(p) - want) <= 1e-13 * abs(want), p
    assert gk.bias_integral(1) == pytest.approx(-1.0 / (2.0 * math.pi), rel=1e-15)


def test_bias_integral_closed_form_vs_mpmath():
    # the same integral at 30 digits, with phi times the bracket multiplied
    # out as phi (1/2 - Phibar) - u Phibar Phi, so no Mills ratio is needed
    with mpmath.workdps(30):
        for p in range(1, 9):
            def integrand(u):
                upper = mpmath.ncdf(-u)
                return 2 * p * u ** (p - 1) * (mpmath.npdf(u) * (mpmath.mpf(1) / 2 - upper)
                                               - u * upper * (1 - upper))
            want = mpmath.quad(integrand, [0, 12])
            assert abs(float((gk.bias_integral(p) - want) / want)) <= 1e-15, p


def test_bias_integral_domain():
    for bad in (0, 2.5):
        with pytest.raises(ValueError, match="order p must be a positive integer"):
            gk.bias_integral(bad)
    # the terms overflow to inf - inf = nan at p = 340 and math.gamma raises
    # past p = 342; both are refused alike
    assert math.isfinite(gk.bias_integral(300))
    for big in (340, 400):
        with pytest.raises(OverflowError):
            gk.bias_integral(big)


def test_max_kernel_order_is_where_phi2_leaves_its_tolerance(monkeypatch):
    # against a tail cutoff of 14, phi2 at w = 0, where the cutoff of 8 loses
    # the most, meets KERNEL_TOL at the largest accepted order and misses it
    # one order above
    cutoffs = (gk._TAIL_CUTOFF, 14.0)

    def loss(p):
        values = []
        for cutoff in cutoffs:
            monkeypatch.setattr(gk, "_TAIL_CUTOFF", cutoff)
            values.append(float(gk._phi_pointwise(p, 1.0, np.zeros(1), squared=True)[0]))
        return abs(values[0] - values[1]) / TOL.tolerance(values[1])
    assert loss(gk._MAX_KERNEL_ORDER) < 1.0 < loss(gk._MAX_KERNEL_ORDER + 1)


def test_kernels_refuse_orders_past_their_tolerance(monkeypatch):
    # every kernel entry point refuses the order before any quadrature runs
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature ran")
    monkeypatch.setattr(gk, "adaptive_gauss_kronrod", refuse)
    calls = (lambda p: gk.phi_kernel(p, 1.0, 0.5), lambda p: gk.phi2_kernel(p, 1.0, 0.5),
             lambda p: gk.lambda_integral(p, 1.0, "phi2"), lambda p: gk.tabulate_kernels(p, 1.0))
    for call in calls:
        for p in (gk._MAX_KERNEL_ORDER + 1, 400):
            with pytest.raises(ValueError, match="only up to order p = 9"):
                call(p)


# ---------------------------------------------------------------------------
# kernel table
# ---------------------------------------------------------------------------

def test_kernel_table_build_and_roundtrip():
    w, phi, phi2, lam, lam2 = gk.tabulate_kernels(2, 1.0, points=321)
    assert np.all(np.diff(w) > 0)
    assert abs(phi[0]) < 10 * TOL.abs_tol
    assert abs(phi[-1]) < 10 * TOL.abs_tol
    assert np.all(phi2 >= -TOL.abs_tol)
    # the tabulated curve must integrate back to lambda_phi; trapezoid error
    # is resolution-limited (O(h^2) at the w=0 corner), 2e-3 at 321 points
    trapz = np.trapezoid(phi, w)
    assert abs(trapz - lam) < 2e-3 * abs(lam)
    assert lam == gk.lambda_integral(2, 1.0)
    assert lam2 == gk.lambda_integral(2, 1.0, which="phi2")
    with pytest.raises(ValueError, match="points must be at least 2"):
        gk.tabulate_kernels(2, 1.0, points=1)
