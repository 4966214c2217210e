import math
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from maxstable_pv.quadrature import (
    QuadratureConfig,
    QuadratureError,
    adaptive_gauss_kronrod,
)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1.0)


def test_gaussian_mass():
    cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)
    f = lambda x: np.exp(-0.5 * x ** 2) / math.sqrt(2 * math.pi)
    res = adaptive_gauss_kronrod(f, -8.0, 8.0, cfg)
    assert abs(res.value - 1.0) < 1e-12
    assert res.error < 1e-12


def test_polynomial_exact():
    cfg = QuadratureConfig()
    res = adaptive_gauss_kronrod(lambda x: 3 * x ** 2, 0.0, 2.0, cfg)
    assert abs(res.value - 8.0) < 1e-12


def test_kink_with_breakpoint():
    cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)
    res = adaptive_gauss_kronrod(np.abs, -1.0, 2.0, cfg, breakpoints=(0.0,))
    assert abs(res.value - 2.5) < 1e-12


def test_vector_valued_integrand():
    cfg = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11)

    def f(x):
        return np.stack([x ** 2, np.cos(x)], axis=-1)

    res = adaptive_gauss_kronrod(f, 0.0, 1.0, cfg)
    assert np.allclose(res.value, [1.0 / 3.0, math.sin(1.0)], atol=1e-11)


def test_unreachable_tolerance_raises_with_best_estimate():
    cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30)
    with pytest.raises(QuadratureError) as exc:
        adaptive_gauss_kronrod(lambda x: np.exp(np.sin(5 * x)), 0.0, 3.0, cfg)
    best = exc.value.best
    assert np.isfinite(best.value)
    assert best.error > 0


def test_quadrature_error_pickles_with_its_best_estimate():
    cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30)
    with pytest.raises(QuadratureError) as exc:
        adaptive_gauss_kronrod(np.exp, 0.0, 3.0, cfg)
    copy = pickle.loads(pickle.dumps(exc.value))
    assert type(copy) is QuadratureError
    assert str(copy) == str(exc.value)
    assert copy.best == exc.value.best


def test_quadrature_error_crosses_a_process_pool():
    # a worker's quadrature failure must reach the parent as QuadratureError,
    # not as a BrokenProcessPool from a failed unpickle
    cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30)
    with pytest.raises(QuadratureError) as local:
        adaptive_gauss_kronrod(np.exp, 0.0, 3.0, cfg)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        fut = pool.submit(adaptive_gauss_kronrod, np.exp, 0.0, 3.0, cfg)
        with pytest.raises(QuadratureError) as remote:
            fut.result(timeout=120)
    assert remote.value.best == local.value.best


def test_degenerate_interval():
    res = adaptive_gauss_kronrod(lambda x: x, 1.0, 1.0, QuadratureConfig())
    assert res.value == 0.0
