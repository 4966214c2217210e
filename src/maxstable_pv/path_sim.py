"""Grid-based simulation of the process classes under study.

Everything lives on the equi-spaced grid {i/n : i = 0..n} of [0, 1].  The
spectral processes are exponential martingales

    V_t = exp( int_0^t H_s dW_s - 1/2 int_0^t H_s^2 ds )

with deterministic volatility H, so each grid increment of the stochastic
integral is exactly Gaussian with variance int H^2 over the step: paths are
sampled without any Euler discretization error.

The max-stable process is the pointwise maximum eta = max_i R_i V_i over a
Poisson point process (R_i) with mean measure dr/r^2, realized through the
standard transformation R_i = 1/Gamma_i with Gamma_i the running sums of
unit exponentials.  The series is truncated adaptively: once

    log(1/Gamma_i) + q_eps  <  min over the grid of the running maximum,

no later atom can alter the path anywhere except on an event of probability
at most eps per atom, where q_eps = sqrt(Sigma) * PhibarInv(eps/2) bounds
sup_t int H dW via the reflection inequality (Sigma = int_0^1 H^2 ds).

Atoms whose Z-path ever comes within ``retain_margin`` of the final maximum
are kept (they are the only ones that can enter the pair local-time
functionals); the rest are discarded after updating the running maximum.
The kept atoms are stored as two arrays, their log weights ``log_r`` and
their Z paths ``z``; the ``SpectralAtom`` objects and the argmax index are
built from them on first read, so statistics that only need the path pay
nothing for them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "Grid",
    "GridPath",
    "VolatilitySpec",
    "SpectralAtom",
    "MaxStablePath",
    "TruncationDiagnostics",
    "TruncationError",
    "sample_brownian",
    "sample_max_two_bm",
    "sample_brown_resnick",
    "replicate_rng",
]

_BLOCK_SIZE = 64        # atoms per block; fixes the draw order of sample_brown_resnick
_MAX_BLOCK_BYTES = 512 * 2 ** 20    # cap on the two block buffers; allows n up to 2^19 - 1


def replicate_rng(master_seed: int, replicate_index: int) -> np.random.Generator:
    """Private stream for one replicate; disjoint across indices by the
    SeedSequence spawn-key contract, so parallel callers never share state."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(replicate_index,))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class Grid:
    """Equi-spaced observation grid {i/n} of [0, 1] with mesh exactly 1/n."""

    n: int

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValueError(f"grid frequency n must be an integer >= 2, got {self.n!r}")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n

    def last_increment(self, t: float) -> int:
        """floor(n t), the index of the last observed increment before t."""
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {t}")
        return int(math.floor(self.n * t))


@dataclass(frozen=True)
class GridPath:
    """A path observed on the grid: values[i] is the value at time i/n."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n + 1,):
            raise ValueError(
                f"values must have length n+1 = {self.grid.n + 1}, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "values", v)

    def increments(self) -> np.ndarray:
        return np.diff(self.values)


class VolatilitySpec:
    """Deterministic volatility H on [0, 1] with exact integral formulas.

    Three forms: constant sigma, power law a + b s^gamma, and a tabulated
    function with linear interpolation.  The Holder exponent and the bounds
    (inf H, sup H) are derived at construction; inf H must be positive and
    the exponent must exceed 1/2.
    """

    def __init__(self, kind: str, *, sigma=None, a=None, b=None, gamma=None,
                 s_knots=None, h_knots=None):
        self.kind = kind
        if kind == "constant":
            if not (np.isfinite(sigma) and sigma > 0):
                raise ValueError(f"constant volatility must be positive, got {sigma}")
            self.sigma = float(sigma)
            self.holder_exponent = 1.0
            self.bounds = (self.sigma, self.sigma)
        elif kind == "power_law":
            a, b, gamma = float(a), float(b), float(gamma)
            if gamma <= 0.5:
                raise ValueError(f"power-law exponent gamma must exceed 1/2, got {gamma}")
            self.a, self.b, self.gamma = a, b, gamma
            lo, hi = sorted((a, a + b))
            if lo <= 0:
                raise ValueError(f"power-law volatility must stay positive on [0,1]; inf H = {lo}")
            self.holder_exponent = min(1.0, gamma)
            self.bounds = (lo, hi)
        elif kind == "table":
            s = np.asarray(s_knots, dtype=float)
            h = np.asarray(h_knots, dtype=float)
            if s.ndim != 1 or s.shape != h.shape or len(s) < 2:
                raise ValueError("table form needs matching 1-D knot arrays of length >= 2")
            if s[0] != 0.0 or s[-1] != 1.0 or np.any(np.diff(s) <= 0):
                raise ValueError("table abscissae must increase strictly from 0 to 1")
            if np.any(h <= 0):
                raise ValueError("tabulated volatility must be positive everywhere")
            self.s_knots, self.h_knots = s, h
            self.holder_exponent = 1.0          # piecewise linear is Lipschitz
            self.bounds = (float(h.min()), float(h.max()))
        else:
            raise ValueError(f"unknown volatility form {kind!r}")

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, sigma: float) -> "VolatilitySpec":
        return cls("constant", sigma=sigma)

    @classmethod
    def power_law(cls, a: float, b: float, gamma: float = 1.0) -> "VolatilitySpec":
        """H(s) = a + b s^gamma."""
        return cls("power_law", a=a, b=b, gamma=gamma)

    @classmethod
    def table(cls, s_knots, h_knots) -> "VolatilitySpec":
        return cls("table", s_knots=s_knots, h_knots=h_knots)

    def as_dict(self) -> dict:
        if self.kind == "constant":
            return {"form": "constant", "sigma": self.sigma}
        if self.kind == "power_law":
            return {"form": "power_law", "a": self.a, "b": self.b, "gamma": self.gamma}
        return {"form": "table", "s": self.s_knots.tolist(), "h": self.h_knots.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "VolatilitySpec":
        form = d["form"]
        if form == "constant":
            return cls.constant(d["sigma"])
        if form == "power_law":
            return cls.power_law(d["a"], d["b"], d.get("gamma", 1.0))
        if form == "table":
            return cls.table(d["s"], d["h"])
        raise ValueError(f"unknown volatility form {form!r}")

    # -- evaluation ---------------------------------------------------------
    def value(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "constant":
            out = np.full_like(s, self.sigma)
        elif self.kind == "power_law":
            out = self.a + self.b * s ** self.gamma
        else:
            out = np.interp(s, self.s_knots, self.h_knots)
        return float(out) if out.ndim == 0 else out

    def variance_antiderivative(self, t):
        """F(t) = int_0^t H_s^2 ds, exact for every form."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            out = self.sigma ** 2 * t
        elif self.kind == "power_law":
            a, b, g = self.a, self.b, self.gamma
            out = (a * a * t
                   + 2 * a * b * t ** (g + 1) / (g + 1)
                   + b * b * t ** (2 * g + 1) / (2 * g + 1))
        else:
            out = self._table_prefix(t)
        return float(out) if out.ndim == 0 else out

    def _table_prefix(self, t: np.ndarray) -> np.ndarray:
        s, h = self.s_knots, self.h_knots
        slopes = np.diff(h) / np.diff(s)
        # exact integral of (h_k + d (x - s_k))^2 over each full segment
        seg = (h[:-1] ** 2 * np.diff(s)
               + h[:-1] * slopes * np.diff(s) ** 2
               + slopes ** 2 * np.diff(s) ** 3 / 3.0)
        prefix = np.concatenate([[0.0], np.cumsum(seg)])
        idx = np.clip(np.searchsorted(s, t, side="right") - 1, 0, len(s) - 2)
        x = t - s[idx]
        out = (prefix[idx] + h[idx] ** 2 * x
               + h[idx] * slopes[idx] * x ** 2
               + slopes[idx] ** 2 * x ** 3 / 3.0)
        return out

    def integrated_power(self, p: int, a: float, b: float) -> float:
        """int_a^b H_s^p ds, exact for integer p >= 1."""
        if not (isinstance(p, (int, np.integer)) and p >= 1):
            raise ValueError(f"integrated_power needs integer p >= 1, got {p!r}")
        if not 0.0 <= a <= b <= 1.0:
            raise ValueError(f"need 0 <= a <= b <= 1, got ({a}, {b})")
        if self.kind == "constant":
            return self.sigma ** p * (b - a)
        if self.kind == "power_law":
            aa, bb, g = self.a, self.b, self.gamma
            tot = 0.0
            for k in range(p + 1):
                e = k * g + 1.0
                tot += math.comb(p, k) * aa ** (p - k) * bb ** k * (b ** e - a ** e) / e
            return tot
        # table: (c + d x)^p integrates in closed form per linear segment
        s, h = self.s_knots, self.h_knots
        slopes = np.diff(h) / np.diff(s)
        tot = 0.0
        for k in range(len(s) - 1):
            lo, hi = max(a, s[k]), min(b, s[k + 1])
            if hi <= lo:
                continue
            c = h[k] + slopes[k] * (lo - s[k])
            d = slopes[k]
            if d == 0.0:
                tot += c ** p * (hi - lo)
            else:
                tot += ((c + d * (hi - lo)) ** (p + 1) - c ** (p + 1)) / (d * (p + 1))
        return tot

    def step_standard_deviations(self, grid: Grid) -> np.ndarray:
        """Exact per-step std of int H dW over each grid step."""
        t = grid.times
        f = self.variance_antiderivative(t)
        return np.sqrt(np.diff(f))

    def cumulative_drift(self, grid: Grid) -> np.ndarray:
        """(1/2) int_0^{i/n} H_s^2 ds at each grid point."""
        return 0.5 * self.variance_antiderivative(grid.times)


# ---------------------------------------------------------------------------
# elementary samplers
# ---------------------------------------------------------------------------

def sample_brownian(grid: Grid, rng_stream) -> GridPath:
    """Standard Brownian motion on the grid: W_0 = 0, iid N(0, 1/n) increments."""
    incs = rng_stream.standard_normal(grid.n) / math.sqrt(grid.n)
    vals = np.empty(grid.n + 1)
    vals[0] = 0.0
    np.cumsum(incs, out=vals[1:])
    return GridPath(grid, vals)


def sample_max_two_bm(grid: Grid, rng_stream):
    """Pointwise maximum of two independent Brownian motions plus their
    difference W2 - W1 (the local-time coordinate for the bias term)."""
    w1 = sample_brownian(grid, rng_stream)
    w2 = sample_brownian(grid, rng_stream)
    mx = GridPath(grid, np.maximum(w1.values, w2.values))
    diff = GridPath(grid, w2.values - w1.values)
    return mx, diff


# ---------------------------------------------------------------------------
# max-stable simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralAtom:
    """One retained Poisson atom: its weight and spectral path bookkeeping.

    z_path holds Z_t = log R + int_0^t H dW (no drift); log_v_path holds
    log V_t = Z_t - log R - (1/2) int_0^t H^2 ds.
    """

    log_r: float
    log_v_path: GridPath
    z_path: GridPath


@dataclass(frozen=True)
class TruncationDiagnostics:
    atoms_generated: int
    stop_rule_margin: float
    epsilon: float


@dataclass(frozen=True)
class MaxStablePath:
    """A simulated max-stable path with enough atom bookkeeping for the
    pair local-time bias functionals.

    The retained atoms are stored as arrays: ``log_r`` of shape (K,) and
    ``z`` of shape (K, n+1), row k the Z path of the k-th kept atom in
    generation order.  ``atoms`` and ``argmax_index`` are built from them
    on first read.
    """

    log_eta: GridPath
    log_r: np.ndarray
    z: np.ndarray
    truncation_diag: TruncationDiagnostics
    vol: VolatilitySpec
    retain_margin: float

    def __post_init__(self):
        if self.z.shape != (len(self.log_r), self.grid.n + 1):
            raise ValueError(f"z must have shape (K, n+1) = ({len(self.log_r)}, "
                             f"{self.grid.n + 1}), got {self.z.shape}")

    @property
    def grid(self) -> Grid:
        return self.log_eta.grid

    @functools.cached_property
    def argmax_index(self) -> np.ndarray:
        """Per grid point, the row of ``z`` attaining the maximum (lowest on ties)."""
        return self.z.argmax(axis=0)

    @functools.cached_property
    def atoms(self) -> list:
        """The retained atoms as ``SpectralAtom`` objects, in generation order."""
        grid = self.grid
        drift = self.vol.cumulative_drift(grid)
        return [SpectralAtom(log_r=lr, log_v_path=GridPath(grid, z - lr - drift),
                             z_path=GridPath(grid, z))
                for lr, z in zip(self.log_r.tolist(), self.z)]


class TruncationError(RuntimeError):
    """Atom budget exhausted before the stop rule fired; carries the partial path."""

    def __init__(self, message: str, partial: MaxStablePath):
        super().__init__(message)
        self.partial = partial


def sample_brown_resnick(h: VolatilitySpec, grid: Grid, rng_stream,
                         epsilon: float, *, atom_budget: int = 1_000_000,
                         retain_margin: float = 1.0) -> MaxStablePath:
    """Truncated-series simulation of the max-stable path eta = max R_i V_i.

    Atoms are generated in blocks of 64 so that shrinking epsilon (or
    raising the budget) extends the same draw sequence: the common prefix of
    atoms is bit-identical, which is what the truncation audit relies on.
    The block size is fixed because it sets the draw order.  Two buffers of
    64 x (n+1) doubles are allocated once per call and reused per block;
    their size is capped at ``_MAX_BLOCK_BYTES``, and a larger n is rejected
    before any draw.
    """
    if not (np.isfinite(epsilon) and 0.0 < epsilon <= 0.01):
        raise ValueError(f"epsilon must lie in (0, 0.01], got {epsilon}")
    if not (np.isfinite(retain_margin) and retain_margin > 0):
        raise ValueError(f"retain_margin must be positive and finite, got {retain_margin}")
    if not (isinstance(atom_budget, (int, np.integer)) and atom_budget >= 1):
        raise ValueError(f"atom_budget must be an integer >= 1, got {atom_budget!r}")
    n = grid.n
    block_bytes = 2 * _BLOCK_SIZE * (n + 1) * 8
    if block_bytes > _MAX_BLOCK_BYTES:
        raise ValueError(f"n={n} needs {block_bytes} bytes of block buffers, above "
                         f"the cap of {_MAX_BLOCK_BYTES} bytes")
    step_sd = h.step_standard_deviations(grid)
    total_var = float(h.variance_antiderivative(1.0))
    q_eps = math.sqrt(total_var) * float(-ndtri(epsilon / 2.0))

    normals = np.empty((_BLOCK_SIZE, n))
    z_block = np.empty((_BLOCK_SIZE, n + 1))
    run_max = np.full(n + 1, -np.inf)
    kept_log_r, kept_z = [], []
    gamma_tail = 0.0
    generated = 0
    stop_margin = -np.inf
    stopped = False

    while not stopped and generated < atom_budget:
        gaps = rng_stream.standard_exponential(_BLOCK_SIZE)
        rng_stream.standard_normal(out=normals)
        gammas = gamma_tail + np.cumsum(gaps)
        gamma_tail = float(gammas[-1])
        log_r = -np.log(gammas)
        normals *= step_sd
        z_block[:, 0] = 0.0
        np.cumsum(normals, axis=1, out=z_block[:, 1:])
        z_block += log_r[:, None]

        block_best = z_block.max(axis=0)
        run_max = np.where(block_best > run_max, block_best, run_max)
        current_min = float(run_max.min())
        # run_max only grows, and rounding is monotone: the peak prefilter is sound
        cand = np.flatnonzero(z_block.max(axis=1) - current_min > -retain_margin)
        cand = cand[(z_block[cand] - run_max).max(axis=1) > -retain_margin]
        kept_log_r.append(log_r[cand])
        kept_z.append(z_block[cand])
        generated += _BLOCK_SIZE
        stop_margin = current_min - (float(log_r[-1]) + q_eps)
        stopped = stop_margin > 0.0

    # the first generated atom attaining the maximum is always kept, so the
    # arrays are never empty
    z = np.concatenate(kept_z)
    keep = (z - run_max).max(axis=1) > -retain_margin
    path = MaxStablePath(
        log_eta=GridPath(grid, run_max - h.cumulative_drift(grid)),
        log_r=np.concatenate(kept_log_r)[keep],
        z=z[keep],
        truncation_diag=TruncationDiagnostics(
            atoms_generated=generated,
            stop_rule_margin=float(stop_margin),
            epsilon=float(epsilon),
        ),
        vol=h,
        retain_margin=float(retain_margin),
    )
    if not stopped:
        raise TruncationError(
            f"atom budget {atom_budget} exhausted before the stop rule fired "
            f"(margin {stop_margin:.3g})", path)
    return path
