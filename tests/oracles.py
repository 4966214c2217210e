"""Statistics that only the tests read: the two local-time estimators of
criterion 7 and the bracket of the J_p integral.

Local time at level 0 is estimated two independent ways: a kernel count
(1/(h sqrt(n))) sum 1{|sqrt(n) X_{(i-1)/n}| <= h}, whose window function has
exact integral 2h, and the discrete Tanaka residual
|X| - |X_0| - sum sign(X) dX.  Both converge to L^0 for continuous
martingales; their per-path disagreement is criterion 7's diagnostic.  The
kernel count on W2 - W1 is also the reference of the max2bm pair bias
functional.

The bracket 1/2 - Phibar(u) - u Phibar(u) Phi(u) / phi(u) is the integrand
factor of J_p = 2p int_0^inf u^{p-1} phi(u) bracket(u) du, the oracle of the
closed form ``gauss_kernels.bias_integral``.  It uses the scaled
complementary error function for the Mills ratio Phibar(u)/phi(u), which is
finite and accurate for all u (the naive ratio is 0/0 in floating point past
u ~ 38).
"""

import math

import numpy as np
from scipy.special import erfcx, ndtr

from maxstable_pv.path_sim import GridPath
from maxstable_pv.pv_stats import check_halfwidth


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


def bias_integrand_bracket(u):
    """1/2 - Phibar(u) - u Phibar(u) Phi(u) / phi(u), via erfcx for the Mills ratio.

    Vanishes at u = 0 and tends to -1/2 as u -> inf.
    """
    u = np.asarray(u, dtype=float)
    mills = math.sqrt(math.pi / 2.0) * erfcx(u / math.sqrt(2.0))   # Phibar(u)/phi(u)
    return 0.5 - ndtr(-u) - u * mills * ndtr(u)
