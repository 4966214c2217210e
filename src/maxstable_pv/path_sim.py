"""Grid-based simulation of the process classes under study.

Everything lives on the equi-spaced grid {i/n : i = 0..n} of [0, 1].  The
spectral processes are exponential martingales

    V_t = exp( int_0^t H_s dW_s - 1/2 int_0^t H_s^2 ds )

with deterministic volatility H, so each grid increment of the stochastic
integral is exactly Gaussian with variance int H^2 over the step: paths are
sampled without any Euler discretization error.  Every H-dependent number
is some int_0^t H_s^p ds, whose one route is VolatilitySpec.integrated_power;
the sampler takes its step variances, drift and Sigma from one such array.

The max-stable process is the pointwise maximum eta = max_i R_i V_i over a
Poisson point process (R_i) with mean measure dr/r^2, realized through the
standard transformation R_i = 1/Gamma_i with Gamma_i the running sums of
unit exponentials.  The series is truncated adaptively: once

    log(1/Gamma_i) + q_eps  <  min over the grid of the running maximum,

no later atom can alter the path anywhere except on an event of probability
at most eps per atom, where q_eps = sqrt(Sigma) * PhibarInv(eps/2) bounds
sup_t int H dW via the reflection inequality (Sigma = int_0^1 H^2 ds).

Most atoms never come near the maximum, so each one is first drawn coarse:
its Z path Z_t = log R + int_0^t H dW at S + 1 evenly spaced grid points,
S = 2^(bit_length(n) // 2), a power of two near sqrt(n).  Between two
coarse points the fine path is a Brownian bridge in int H^2 time, and the
bridge's chance of reaching a level c is known in closed form.  Only atoms
whose coarse path may bring them within the retain margin of the running
maximum are refined to the fine grid; the rest are dropped unseen.  The
screen drops an atom that would have mattered with probability at most
S x 1e-9, so a path differs from the series with every atom refined only
on an event of probability at most atoms x S x 1e-9 (see
``sample_brown_resnick``).  The refinement draws come from a counter-based
Philox stream (Salmon et al. 2011) addressed by the atom's index, so which
atoms get refined changes no fine path.

Refined atoms whose Z path ever comes within the retain margin of the final
maximum are kept; the rest are discarded after updating the running maximum.
The margin is ``retain_margin(n)`` = MAX_HALFWIDTH / sqrt(n): the pair
local-time functional reads only the steps where the top two atoms lie
within h / sqrt(n) of each other, and its halfwidth h stays below
MAX_HALFWIDTH = 4, so every atom it can read is kept, and log eta needs only
the atoms that reach the maximum.  The kept atoms are stored as two arrays,
their log weights ``log_r`` and their Z paths ``z``, the one form the pair
functional reads.
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
    "MaxStablePath",
    "TruncationDiagnostics",
    "TruncationError",
    "sample_brownian",
    "sample_max_two_bm",
    "sample_brown_resnick",
    "replicate_rng",
    "check_epsilon",
    "check_grid_size",
    "retain_margin",
    "MAX_HALFWIDTH",
]

_BLOCK_SIZE = 64        # atoms per block; fixes the draw order of sample_brown_resnick
# per coarse segment, the bound on the chance that a dropped atom would have
# come within the retain margin of the running maximum there
_SCREEN_TOL = 1e-9
# the first block in two tiles: atoms 0-3, refined unscreened since there is
# no running maximum yet, then the rest against theirs; later blocks whole
_FIRST_BLOCK_TILES = ((0, 4), (4, _BLOCK_SIZE))
_FILL_ELEMS = 2 ** 16   # fine values per refined chunk of rows; sets buffer sizes, never a number
# cap on the memory of one block whose 64 atoms are all refined: their fine
# rows plus as much again when the rows are concatenated; allows n up to 2^19 - 1
_MAX_BLOCK_BYTES = 512 * 2 ** 20
# the widest kernel halfwidth h the pair bias functional may use; it sets
# the retain margin on the h / sqrt(n) scale of the functional's band
MAX_HALFWIDTH = 4.0


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


class VolatilitySpec:
    """Deterministic volatility H on [0, 1] with one exact integral.

    Three forms: constant sigma, power law a + b s^gamma, and a tabulated
    function with linear interpolation.  Every parameter and knot must be
    finite, H must be positive on [0, 1], and the power-law exponent must
    exceed 1/2.  ``value`` evaluates H, and ``integrated_power(p, t)`` =
    int_0^t H^p ds is the only route to an integral of it.
    """

    def __init__(self, kind: str, *, sigma=None, a=None, b=None, gamma=None,
                 s_knots=None, h_knots=None):
        self.kind = kind
        if kind == "constant":
            if not (np.isfinite(sigma) and sigma > 0):
                raise ValueError(f"constant volatility must be positive, got {sigma}")
            self.sigma = float(sigma)
        elif kind == "power_law":
            a, b, gamma = float(a), float(b), float(gamma)
            if not all(map(math.isfinite, (a, b, gamma))):
                raise ValueError(f"power-law parameters must be finite, got a={a}, b={b}, "
                                 f"gamma={gamma}")
            if gamma <= 0.5:
                raise ValueError(f"power-law exponent gamma must exceed 1/2, got {gamma}")
            self.a, self.b, self.gamma = a, b, gamma
            lo = min(a, a + b)
            if lo <= 0:
                raise ValueError(f"power-law volatility must stay positive on [0,1]; inf H = {lo}")
        elif kind == "table":
            # copies, read-only: a spec's value never changes after it is made
            s = np.array(s_knots, dtype=float)
            h = np.array(h_knots, dtype=float)
            if s.ndim != 1 or s.shape != h.shape or len(s) < 2:
                raise ValueError("table form needs matching 1-D knot arrays of length >= 2")
            if not (np.all(np.isfinite(s)) and np.all(np.isfinite(h))):
                raise ValueError("table knots must be finite")
            if s[0] != 0.0 or s[-1] != 1.0 or np.any(np.diff(s) <= 0):
                raise ValueError("table abscissae must increase strictly from 0 to 1")
            if np.any(h <= 0):
                raise ValueError("tabulated volatility must be positive everywhere")
            s.flags.writeable = h.flags.writeable = False
            self.s_knots, self.h_knots = s, h
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

    @classmethod
    def from_dict(cls, d: dict) -> "VolatilitySpec":
        try:
            form = d["form"]
            if form == "constant":
                return cls.constant(d["sigma"])
            if form == "power_law":
                return cls.power_law(d["a"], d["b"], d.get("gamma", 1.0))
            if form == "table":
                return cls.table(d["s"], d["h"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed h_spec {d!r}: {exc!r}") from exc
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

    def integrated_power(self, p: int, t):
        """int_0^t H_s^p ds, exact for integer p >= 1: a float for a scalar t
        in [0, 1], an array for an array t.  The power law, and the table on
        each segment (full ones prefix-summed), are c + d x^gamma, expanded
        binomially by ``_binomial_integral``."""
        if not (isinstance(p, (int, np.integer)) and p >= 1):
            raise ValueError(f"integrated_power needs integer p >= 1, got {p!r}")
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0.0) & (t <= 1.0)):
            raise ValueError(f"t must lie in [0, 1], got {t}")
        if self.kind == "constant":
            out = self.sigma ** p * t
        elif self.kind == "power_law":
            # 0-d arrays: numpy squares them as a * a, where Python's a ** 2
            # may round differently
            out = _binomial_integral(np.asarray(self.a), np.asarray(self.b), t, p, self.gamma)
        else:
            s, h = self.s_knots, self.h_knots
            ds = np.diff(s)
            slopes = np.diff(h) / ds
            prefix = np.concatenate([[0.0], np.cumsum(_binomial_integral(h[:-1], slopes, ds, p))])
            idx = np.clip(np.searchsorted(s, t, side="right") - 1, 0, len(s) - 2)
            out = _binomial_integral(h[idx], slopes[idx], t - s[idx], p, total=prefix[idx])
        return float(out) if out.ndim == 0 else out


def _binomial_integral(c, d, x, p: int, gamma: float = 1.0, total=0.0):
    """total + int_0^x (c + d u^gamma)^p du, that is, total plus the terms
    C(p, k) c^(p-k) d^k x^(k gamma + 1) / (k gamma + 1) in order k = 0..p."""
    for k in range(p + 1):
        e = k * gamma + 1.0
        total = total + math.comb(p, k) * c ** (p - k) * d ** k * x ** e / e
    return total


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
class TruncationDiagnostics:
    atoms_generated: int
    stop_rule_margin: float
    epsilon: float
    atoms_refined: int      # atoms drawn on the fine grid; the rest stayed coarse


@dataclass(frozen=True)
class MaxStablePath:
    """A simulated max-stable path and the atoms kept for the pair
    local-time bias functional.

    The kept atoms are two arrays: ``log_r`` of shape (K,) and ``z`` of
    shape (K, n+1), row k the Z path Z_t = log R + int_0^t H dW of the k-th
    kept atom in generation order.
    """

    log_eta: GridPath
    log_r: np.ndarray
    z: np.ndarray
    truncation_diag: TruncationDiagnostics
    vol: VolatilitySpec

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

    @property
    def atoms(self) -> list:
        """(log R, Z path) pairs of the kept atoms, in generation order."""
        return list(zip(self.log_r.tolist(), self.z))


def retain_margin(n: int) -> float:
    """MAX_HALFWIDTH / sqrt(n): atoms that may come this close to the maximum
    are refined, those that do are kept, and the pair bias functional's
    h / sqrt(n) must stay below it (pv_stats.check_halfwidth)."""
    return MAX_HALFWIDTH / math.sqrt(n)


def check_epsilon(epsilon: float) -> None:
    """The stop rule's per-atom miss probability must lie in (0, 0.01]."""
    if not (np.isfinite(epsilon) and 0.0 < epsilon <= 0.01):
        raise ValueError(f"epsilon must lie in (0, 0.01], got {epsilon}")


def check_grid_size(n: int) -> None:
    """A block whose 64 atoms are all refined must fit in _MAX_BLOCK_BYTES."""
    block_bytes = 2 * _BLOCK_SIZE * (n + 1) * 8
    if block_bytes > _MAX_BLOCK_BYTES:
        raise ValueError(f"n={n} needs {block_bytes} bytes for one fully kept block, above "
                         f"the cap of {_MAX_BLOCK_BYTES} bytes")


class TruncationError(RuntimeError):
    """Atom budget exhausted before the stop rule fired; carries the partial path."""

    def __init__(self, message: str, partial: MaxStablePath):
        super().__init__(message)
        self.partial = partial

    def __reduce__(self):
        # pickling must carry the partial path, or a truncation in a pool
        # worker cannot be rebuilt in the parent
        return type(self), (self.args[0], self.partial)


class _CoarseLattice:
    """The coarse points idx[0..S] of a grid, the screen against the running
    maximum, and the bridge fill from coarse to fine paths, all in int H^2
    time.  It depends only on (H, n)."""

    def __init__(self, h: VolatilitySpec, n: int):
        # S coarse segments, a power of two near sqrt(n) and never above n:
        # 16 at n = 256, 64 at 4096, 128 at 2^14
        s = 1 << (int(n).bit_length() // 2)
        self.var = var = h.integrated_power(2, Grid(n).times)     # int_0^t H^2 ds
        self.n = n
        self.idx = idx = np.arange(s + 1) * n // s
        self.step_sd = np.sqrt(var[1:] - var[:-1])
        var_c = var[idx]
        tau = var_c[1:] - var_c[:-1]
        self.coarse_sd = np.sqrt(tau)
        # exp(-2 (c - a)(c - b) / tau) > tol  <=>  (c - a)(c - b) < screen_level
        self.screen_level = -0.5 * math.log(_SCREEN_TOL) * tau
        # segment j covers seg_len[j] fine points from idx[j], and fine point
        # i lies frac[i] of its segment's variance past idx[j]; coarse point
        # S closes the grid as a segment of one point with frac 0
        self.seg_len = np.empty(s + 1, dtype=np.intp)
        self.seg_len[:s] = idx[1:] - idx[:-1]
        self.seg_len[s] = 1
        self.frac = var - np.repeat(var_c, self.seg_len)
        self.frac[:n] /= np.repeat(tau, self.seg_len[:s])

    def coarse_paths(self, log_r: np.ndarray, rng_stream) -> np.ndarray:
        """Z at the coarse points, one row per atom: log R, then S Gaussian
        steps drawn row by row."""
        steps = rng_stream.standard_normal((len(log_r), len(self.coarse_sd)))
        steps *= self.coarse_sd
        zc = np.empty((len(log_r), len(self.idx)))
        zc[:, 0] = 0.0
        np.cumsum(steps, axis=1, out=zc[:, 1:])
        zc += log_r[:, None]
        return zc

    def may_reach(self, zc: np.ndarray, run_max: np.ndarray, margin: float) -> np.ndarray:
        """Rows of ``zc`` whose fine path may come within ``margin`` of
        ``run_max``.  With c the least running maximum on a segment minus
        the margin, and a, b the row's coarse values at its ends, a row is
        hot if c <= max(a, b) or exp(-2 (c - a)(c - b) / tau) > _SCREEN_TOL
        on some segment; the latter bounds the chance that the bridge
        between a and b reaches c."""
        if run_max[0] == -np.inf:       # nothing drawn yet: every row is hot
            return np.arange(len(zc))
        idx = self.idx
        c = np.minimum(np.minimum.reduceat(run_max, idx[:-1]), run_max[idx[1:]]) - margin
        da = c - zc[:, :-1]
        db = c - zc[:, 1:]
        # da <= 0 or db <= 0 is c <= max(a, b): db <= 0 < da makes da * db <= 0
        hot = (da <= 0.0) | (da * db < self.screen_level)
        return np.flatnonzero(hot.any(axis=1))

    def fill(self, zc: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Fine paths (k, n+1) through the coarse rows ``zc`` (k, S+1).

        The normals (k, n) make a free walk with the fine step deviations;
        on each segment the walk minus its chord is a Brownian bridge in
        int H^2 time, which is added to the chord of ``zc``.  That is the
        exact conditional law of the fine points given the coarse ones, and
        every coarse point comes out bit for bit."""
        z = np.empty((len(zc), self.n + 1))
        z[:, 0] = 0.0
        np.cumsum(normals * self.step_sd, axis=1, out=z[:, 1:])
        walk_c = z[:, self.idx]
        rise = np.zeros_like(zc)        # coarse rise minus walk rise; 0 past point S
        rise[:, :-1] = (zc[:, 1:] - zc[:, :-1]) - (walk_c[:, 1:] - walk_c[:, :-1])
        z -= np.repeat(walk_c, self.seg_len, axis=1)
        bridge_shift = np.repeat(rise, self.seg_len, axis=1)
        bridge_shift *= self.frac
        z += bridge_shift
        z += np.repeat(zc, self.seg_len, axis=1)
        return z


class _FineNormals:
    """Addressable normals for the bridge fill: one Philox generator per
    sampler call, keyed from its ``rng_stream``, and atom k reads its stream
    from counter k * 2^64 on, so an atom's fine path does not depend on which
    other atoms were refined."""

    def __init__(self, key: np.ndarray):
        self._key = key.tolist()
        self._bitgen = np.random.Philox(key=key)
        self._gen = np.random.Generator(self._bitgen)

    def draw(self, atoms: np.ndarray, n: int) -> np.ndarray:
        """n normals for each atom index in ``atoms``, one row each."""
        out = np.empty((len(atoms), n))
        for row, k in zip(out, atoms.tolist()):
            self._bitgen.state = {"bit_generator": "Philox",
                                  "state": {"counter": [0, k, 0, 0], "key": self._key},
                                  "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                                  "has_uint32": 0, "uinteger": 0}
            self._gen.standard_normal(out=row)
        return out


def sample_brown_resnick(h: VolatilitySpec, grid: Grid, rng_stream,
                         epsilon: float, *, atom_budget: int = 1_000_000) -> MaxStablePath:
    """Truncated-series simulation of the max-stable path eta = max R_i V_i.

    Draw order.  First a 128-bit Philox key from ``rng_stream``.  Then, per
    block of 64 atoms, the block's 64 exponential gaps and its 64 x S coarse
    normals (row-major), both from ``rng_stream``.  Fine normals come only
    from the Philox stream, addressed by atom index.  Shrinking epsilon (or
    raising the budget) therefore extends the same draw sequence: the common
    prefix of atoms is bit-identical, which is what the truncation audit
    relies on.  The block size is fixed because it sets the draw order.

    Screen.  Atoms 0-3 are refined unscreened, since there is no running
    maximum yet; atoms 4-63 are screened against the maximum they leave,
    and every later block whole against the running maximum at its start
    (see ``_CoarseLattice.may_reach``).  Hot atoms get their whole fine
    path and fold it into the running maximum.  Cold atoms are neither
    refined nor kept.  The stop rule reads the running maximum at the end
    of a block, and the refined atoms that come within ``retain_margin(n)``
    of the final running maximum are kept.  Any wider margin gives the same
    log eta, atom count, stop margin and pair functional at every halfwidth
    below 4, and refines more atoms: at master seed 1, a margin of 1 refines
    14.5 atoms per path at sigma = 1, n = 256, 10.8 at sigma = 1, n = 4096
    and 29.8 at sigma = 2, n = 2^14, where this one refines 7.9, 5.6 and
    13.4.

    Error.  The running maximum only grows, so a cold atom would have
    changed the output only if its bridge reached the screen level on some
    segment, which has probability at most S x _SCREEN_TOL.  Per path,
    atoms generated x S x _SCREEN_TOL therefore bounds the chance that the
    output differs from the exact truncated series (every atom refined);
    it adds to the stop rule's epsilon per atom.  At sigma = 2 and
    n = 2^14 about 1300 atoms are generated per path, so that is
    1300 x 128 x 1e-9 ~ 2e-4, below epsilon = 1e-3.  Off that event the law
    is exact for every volatility form.

    A block whose 64 atoms are all refined needs 2 x 64 x (n+1) doubles;
    that is capped at ``_MAX_BLOCK_BYTES``, and a larger n is rejected
    before any draw.
    """
    check_epsilon(epsilon)
    if not (isinstance(atom_budget, (int, np.integer)) and atom_budget >= 1):
        raise ValueError(f"atom_budget must be an integer >= 1, got {atom_budget!r}")
    n = grid.n
    check_grid_size(n)
    lattice = _CoarseLattice(h, n)
    q_eps = math.sqrt(float(lattice.var[-1])) * float(-ndtri(epsilon / 2.0))
    fine = _FineNormals(rng_stream.bit_generator.random_raw(2))
    margin = retain_margin(n)

    run_max = np.full(n + 1, -np.inf)
    chunk = max(1, _FILL_ELEMS // n)
    kept_log_r, kept_z = [], []
    gamma_tail = 0.0
    generated = refined = 0
    stop_margin = -np.inf
    stopped = False

    while not stopped and generated < atom_budget:
        gaps = rng_stream.standard_exponential(_BLOCK_SIZE)
        gammas = gamma_tail + np.cumsum(gaps)
        gamma_tail = float(gammas[-1])
        log_r = -np.log(gammas)
        zc = lattice.coarse_paths(log_r, rng_stream)
        for lo, hi in _FIRST_BLOCK_TILES if generated == 0 else ((0, _BLOCK_SIZE),):
            hot = lo + lattice.may_reach(zc[lo:hi], run_max, margin)
            for c in range(0, hot.size, chunk):
                rows = hot[c:c + chunk]
                z = lattice.fill(zc[rows], fine.draw(generated + rows, n))
                run_max = np.maximum(run_max, z.max(axis=0))
                # run_max only grows, and rounding is monotone: this keeps a
                # superset of what the final test keeps
                keep = (z - run_max).max(axis=1) > -margin
                kept_log_r.append(log_r[rows[keep]])
                kept_z.append(z[keep])
                refined += rows.size
        generated += _BLOCK_SIZE
        stop_margin = float(run_max.min()) - (float(log_r[-1]) + q_eps)
        stopped = stop_margin > 0.0

    # the first generated atom attaining the maximum is always kept, so the
    # arrays are never empty
    z = np.concatenate(kept_z)
    keep = (z - run_max).max(axis=1) > -margin
    path = MaxStablePath(
        log_eta=GridPath(grid, run_max - 0.5 * lattice.var),
        log_r=np.concatenate(kept_log_r)[keep],
        z=z[keep],
        truncation_diag=TruncationDiagnostics(
            atoms_generated=generated,
            stop_rule_margin=float(stop_margin),
            epsilon=float(epsilon),
            atoms_refined=refined,
        ),
        vol=h,
    )
    if not stopped:
        raise TruncationError(
            f"atom budget {atom_budget} exhausted before the stop rule fired "
            f"(margin {stop_margin:.3g})", path)
    return path
