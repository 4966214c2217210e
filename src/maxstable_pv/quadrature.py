"""Adaptive Gauss-Kronrod quadrature with vectorized panel evaluation.

All analytic kernels in this package are integrals of piecewise-smooth
functions against Gaussian weights.  They are evaluated with a (G7, K15)
Kronrod pair on a worklist of panels: every refinement round bisects all
panels whose error estimate exceeds their share of the budget, and the
integrand is called once per round on the full batch of new nodes.  The
integrand may be vector-valued (e.g. one kernel value per grid abscissa),
in which case the error criterion is enforced component-wise.

Known kinks (indicator boundaries, |.|^p corners) must be passed as
breakpoints so that panels never straddle them; adaptive bisection across
a discontinuity destroys the Kronrod error estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "QuadResult",
    "adaptive_gauss_kronrod",
]

# 15-point Kronrod abscissae on [0, 1] side of [-1, 1] (QUADPACK constants)
# and the matching Kronrod / 7-point Gauss weights.
_XGK_HALF = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK_HALF = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG_HALF = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# full symmetric node set, Kronrod weights, and Gauss weights padded with
# zeros at the Kronrod-only nodes
_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG = np.zeros_like(_WGK)
_WG[1:-1:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])

_MAX_SUBDIVISIONS = 1024    # panel budget of one adaptive_gauss_kronrod call


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances shared by every quadrature-backed operation."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not (self.abs_tol > 0 and np.isfinite(self.abs_tol)):
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if not (self.rel_tol > 0 and np.isfinite(self.rel_tol)):
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")

    def tolerance(self, value_scale: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value_scale))


@dataclass(frozen=True)
class QuadResult:
    """Integral value with its Kronrod error estimate."""

    value: float | np.ndarray
    error: float | np.ndarray
    panels: int


class QuadratureError(RuntimeError):
    """Tolerance not reached within the subdivision budget.

    Carries the best available estimate so callers can degrade gracefully
    or report it.
    """

    def __init__(self, message: str, best: QuadResult):
        super().__init__(message)
        self.best = best

    def __reduce__(self):
        # pickling must carry the best estimate, or a failure in a pool
        # worker cannot be rebuilt in the parent
        return type(self), (self.args[0], self.best)


def _eval_panels(f, a: np.ndarray, b: np.ndarray):
    """Gauss and Kronrod panel sums for a batch of intervals.

    Returns (kronrod, error) where each has shape (npanels, *value_shape).
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = center[:, None] + half[:, None] * _XGK[None, :]
    fv = np.asarray(f(nodes.ravel()), dtype=float)
    value_shape = fv.shape[1:]
    fv = fv.reshape(nodes.shape + value_shape)
    wshape = (1, _WGK.size) + (1,) * len(value_shape)
    kron = np.sum(fv * _WGK.reshape(wshape), axis=1) * half.reshape((-1,) + (1,) * len(value_shape))
    gauss = np.sum(fv * _WG.reshape(wshape), axis=1) * half.reshape((-1,) + (1,) * len(value_shape))
    return kron, np.abs(kron - gauss)


def adaptive_gauss_kronrod(f, a: float, b: float, cfg: QuadratureConfig,
                           breakpoints=()) -> QuadResult:
    """Integrate ``f`` over [a, b] to the tolerances in ``cfg``.

    ``f`` must accept a 1-D array of abscissae and return either a matching
    1-D array (scalar integrand) or an array of shape ``(npoints, k)``
    (vector integrand, integrated component-wise under a shared panel set).
    ``breakpoints`` are interior abscissae where the integrand is not
    smooth; they seed the initial panel edges.

    Raises QuadratureError (carrying the best estimate) if the budget of
    ``_MAX_SUBDIVISIONS`` panels is exhausted first.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if b <= a:
        return QuadResult(0.0, 0.0, 0)
    edges = [a, b] + [float(x) for x in breakpoints if a < x < b]
    edges = np.unique(np.asarray(edges, dtype=float))
    lo, hi = edges[:-1].copy(), edges[1:].copy()
    vals, errs = _eval_panels(f, lo, hi)

    while True:
        total = vals.sum(axis=0)
        total_err = errs.sum(axis=0)
        scale = np.max(np.abs(np.atleast_1d(total)))
        tol = cfg.tolerance(scale)
        best = QuadResult(total if total.ndim else float(total),
                          total_err if total_err.ndim else float(total_err), len(lo))
        if np.max(np.atleast_1d(total_err)) <= tol:
            return best
        if len(lo) >= _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"quadrature error {np.max(np.atleast_1d(total_err)):.3e} above "
                f"tolerance {tol:.3e} after {len(lo)} panels", best)
        # bisect every panel holding more than its per-panel error share
        panel_err = errs.reshape(len(lo), -1).max(axis=1)
        share = tol / (2.0 * len(lo))
        split = panel_err > share
        if not split.any():
            split[np.argmax(panel_err)] = True
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_vals, new_errs = _eval_panels(f, new_lo, new_hi)
        lo = np.concatenate([lo[~split], new_lo])
        hi = np.concatenate([hi[~split], new_hi])
        vals = np.concatenate([vals[~split], new_vals])
        errs = np.concatenate([errs[~split], new_errs])
