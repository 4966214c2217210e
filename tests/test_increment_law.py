import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr

from maxstable_pv import gauss_kernels as gk
from maxstable_pv import increment_law
from maxstable_pv.increment_law import (
    IncrementLawParams,
    cond_cdf,
    exact_abs_moment,
    marginal_cdf,
)
from maxstable_pv.quadrature import QuadratureConfig, adaptive_gauss_kronrod


def test_params_validation():
    with pytest.raises(ValueError):
        IncrementLawParams(0.0, 10)
    with pytest.raises(ValueError):
        IncrementLawParams(1.0, 0)
    assert IncrementLawParams(1.0, 4).half_step == 0.25


def test_cond_cdf_saturation():
    for sigma, n in ((1.0, 4), (2.0, 256)):
        params = IncrementLawParams(sigma, n)
        for eta in (0.2, 1.0, 50.0):
            assert abs(cond_cdf(20.0, eta, params) - 1.0) < 1e-12
            assert abs(cond_cdf(-20.0, eta, params)) < 1e-12


def test_cond_cdf_large_eta_limit():
    params = IncrementLawParams(1.0, 64)
    a = params.half_step
    for u in (-1.0, 0.0, 2.0):
        assert abs(cond_cdf(u, 1e12, params) - ndtr(u + a)) < 1e-9


def test_cond_cdf_rejects_bad_eta():
    params = IncrementLawParams(1.0, 4)
    with pytest.raises(ValueError):
        cond_cdf(0.0, 0.0, params)
    with pytest.raises(ValueError):
        cond_cdf(0.0, -1.0, params)


def test_marginal_cdf_at_zero():
    for sigma, n in ((0.5, 4), (1.0, 256), (2.0, 4096)):
        assert marginal_cdf(0.0, IncrementLawParams(sigma, n)) == pytest.approx(0.5, abs=1e-12)


@given(sigma=st.floats(0.1, 4.0), n=st.integers(1, 2 ** 20), u=st.floats(-30.0, 30.0))
def test_marginal_symmetry(sigma, n, u):
    params = IncrementLawParams(sigma, n)
    s = marginal_cdf(u, params) + marginal_cdf(-u, params)
    assert abs(s - 1.0) < 1e-12


def test_marginal_gaussian_limit():
    params = IncrementLawParams(1.0, 10 ** 8)
    assert abs(marginal_cdf(1.0, params) - ndtr(1.0)) < 1e-4


def test_cdfs_nondecreasing():
    u = np.linspace(-10, 10, 1000)
    for sigma in (0.5, 1.0, 2.0):
        for n in (4, 64, 4096):
            params = IncrementLawParams(sigma, n)
            assert np.all(np.diff(marginal_cdf(u, params)) >= -1e-12)
            assert np.all(np.diff(cond_cdf(u, 1.0, params)) >= -1e-12)


def test_tower_property():
    # averaging the conditional CDF over eta = 1/E, E standard exponential,
    # must reproduce the marginal
    params = IncrementLawParams(1.0, 64)
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    for u in (-2.0, -0.3, 0.0, 1.2, 4.0):
        def integrand(e):
            e = np.asarray(e)
            return np.array([cond_cdf(u, 1.0 / ei, params) * math.exp(-ei)
                             for ei in e])
        avg = adaptive_gauss_kronrod(integrand, 1e-12, 60.0, cfg).value
        assert abs(avg - marginal_cdf(u, params)) < 1e-6


def test_exact_abs_moment_gaussian_limit():
    params = IncrementLawParams(1.0, 10 ** 8)
    assert abs(exact_abs_moment(2, params) - 1.0) < 1e-3


def test_exact_abs_moment_bias_rate():
    for p in (1, 2):
        jp = gk.bias_integral(p)
        mp = gk.abs_moment(p)
        for n in (10 ** 4, 10 ** 6):
            gap = math.sqrt(n) * (exact_abs_moment(p, IncrementLawParams(1.0, n)) - mp)
            assert abs(gap - jp) < 0.05 * abs(jp)


def test_exact_abs_moment_vs_cdf_differencing():
    # independent oracle: Stieltjes sum of |u|^p against the marginal CDF on
    # a 10^6-point grid of (-20, 20)
    params = IncrementLawParams(2.0, 400)
    u = np.linspace(-20.0, 20.0, 1_000_001)
    cdf = marginal_cdf(u, params)
    mid = 0.5 * (u[1:] + u[:-1])
    oracle = float(np.sum(np.abs(mid) * np.diff(cdf)))
    assert abs(exact_abs_moment(1, params) - oracle) < 1e-6


def test_exact_abs_moment_error_decreases():
    params = [IncrementLawParams(1.0, 10 ** k) for k in (2, 4, 6, 8)]
    errs = [abs(exact_abs_moment(2, pr) - 1.0) for pr in params]
    assert all(a > b for a, b in zip(errs, errs[1:]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 64])
def test_large_sigma_over_sqrt_n_is_quiet(n):
    # the tilt e^{-sigma u / sqrt(n)} overflows for u < 0 and the stable tail
    # form is nan off the far tail; neither may warn, and both CDFs read the
    # right limits
    u = np.linspace(-40.0, 40.0, 801)
    for sigma in (0.5, 10.0, 100.0, 1e4, 1e6):
        params = IncrementLawParams(sigma, n)
        for cdf in (marginal_cdf(u, params), cond_cdf(u, 1.0, params)):
            assert np.all((cdf >= 0.0) & (cdf <= 1.0))
            assert np.all(np.diff(cdf) >= -1e-12)
        for p in (1, 2):
            assert math.isfinite(exact_abs_moment(p, params))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [*range(1, 9), 100, 150, 200])
def test_exact_abs_moment_gap_meets_its_limit_at_large_p(p):
    # the integrand u^{p-1} g peaks near sqrt(p), past the limit 16 the
    # quadrature used to stop at; at n = 1e8 the scaled gap is J_p to about
    # 4e-4 up to p = 220
    gap = 1e4 * (exact_abs_moment(p, IncrementLawParams(1.0, 10 ** 8)) - gk.abs_moment(p))
    assert abs(gap / gk.bias_integral(p) - 1.0) < 1e-3


def test_exact_abs_moment_refuses_orders_past_the_float_range(monkeypatch):
    # 2p u^{p-1} leaves the float range on [0, sqrt(p) + 10] from p = 221;
    # the order is refused before any quadrature runs
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature ran")
    monkeypatch.setattr(increment_law, "adaptive_gauss_kronrod", refuse)
    params = IncrementLawParams(1.0, 64)
    for p in (221, 220.6, 400, 10 ** 400, 0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="p <= 220 for integers"):
            exact_abs_moment(p, params)
    increment_law.check_moment_order(220)
