import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxstable_pv import pv_stats
from maxstable_pv.path_sim import (
    Grid,
    GridPath,
    MaxStablePath,
    TruncationDiagnostics,
    VolatilitySpec,
    replicate_rng,
    sample_brown_resnick,
    sample_brownian,
    sample_max_two_bm,
)

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _linear_path(grid: Grid, c: float) -> GridPath:
    return GridPath(grid, c * grid.times)


def _two_atom_path(grid: Grid, z1: np.ndarray, z2: np.ndarray, vol=None) -> MaxStablePath:
    vol = vol or VolatilitySpec.constant(1.0)
    zmat = np.stack([z1, z2])
    return MaxStablePath(
        log_eta=GridPath(grid, zmat.max(axis=0) - 0.5 * vol.integrated_power(2, grid.times)),
        log_r=np.zeros(2),
        z=zmat,
        truncation_diag=TruncationDiagnostics(2, math.inf, 1e-3, 2),
        vol=vol,
    )


# ---------------------------------------------------------------------------
# power variation
# ---------------------------------------------------------------------------

def test_power_variation_linear_path():
    grid = Grid(100)
    b = pv_stats.power_variation(_linear_path(grid, 1.0), 2, 1.0)
    assert b == pytest.approx(0.0099, abs=1e-15)


def test_power_variation_zero_path():
    grid = Grid(64)
    assert pv_stats.power_variation(GridPath(grid, np.zeros(65)), 3, 1.0) == 0.0


@given(n=st.integers(2, 1024), seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 4),
       t=st.floats(0.0, 1.0), k=st.integers(-16, 16).filter(bool),
       shift=st.integers(-512, 512))
def test_power_variation_homogeneity_and_shift(n, seed, p, t, k, shift):
    grid = Grid(n)
    # dyadic lattice values, so scaling by k/4 and shifting by shift/8 are exact
    # in binary: increments scale exactly and only |.|^p rounds
    w = sample_brownian(grid, replicate_rng(seed, 0))
    path = GridPath(grid, np.round(w.values * 2 ** 20) / 2 ** 20)
    c = k / 4.0
    scaled = GridPath(grid, c * path.values)
    assert pv_stats.power_variation(scaled, p, t) == pytest.approx(
        abs(c) ** p * pv_stats.power_variation(path, p, t), rel=1e-14)
    shifted = GridPath(grid, path.values + shift / 8.0)
    assert pv_stats.power_variation(shifted, p, t) == pv_stats.power_variation(path, p, t)


def test_power_variation_early_times_zero():
    # t < 2/n leaves no increment before the horizon: every sum is empty
    grid = Grid(64)
    path = sample_brownian(grid, replicate_rng(1, 1))
    pair = _two_atom_path(grid, path.values, path.values)   # the pair fires at every step
    for t in (0.0, 1.0 / 64.0, 1.9 / 64.0):
        assert pv_stats.power_variation(path, 2, t) == 0.0
        assert pv_stats.local_time_kernel(path, t, 1.0) == 0.0
        assert pv_stats.clt_bias_functional(pair, 2, t, 1.0) == 0.0
    assert pv_stats.clt_bias_functional(pair, 2, 3.0 / 64.0, 1.0) != 0.0
    with pytest.raises(ValueError):
        pv_stats.power_variation(path, 0, 1.0)


# ---------------------------------------------------------------------------
# local time estimators
# ---------------------------------------------------------------------------

def test_kernel_zero_off_level():
    grid = Grid(256)
    w = sample_brownian(grid, replicate_rng(2, 0))
    lifted = GridPath(grid, 5.0 + np.abs(w.values))
    assert pv_stats.local_time_kernel(lifted, 1.0, 1.0) == 0.0


def test_tanaka_zero_for_monotone_positive_path():
    grid = Grid(32)
    path = GridPath(grid, 0.5 + grid.times ** 2)
    assert pv_stats.local_time_tanaka(path, 1.0) == 0.0


@given(n=st.integers(2, 2048), seed=st.integers(0, 2 ** 32 - 1),
       offset=st.floats(-3.0, 3.0), t=st.floats(0.0, 1.0))
def test_tanaka_reflection_symmetry(n, seed, offset, t):
    grid = Grid(n)
    w = sample_brownian(grid, replicate_rng(seed, 0))
    path = GridPath(grid, w.values + offset)
    # sign(0) = +1 breaks the symmetry at exact zeros; elsewhere negating
    # the path negates sign(X) and dX alike, so every term is unchanged
    assume(np.all(path.values != 0.0))
    flipped = GridPath(grid, -path.values)
    assert pv_stats.local_time_tanaka(flipped, t) == pv_stats.local_time_tanaka(path, t)


def test_local_time_estimators_hit_known_mean():
    # X = W2 - W1 has E L^0_1 = E|X_1| = 2/sqrt(pi)
    grid = Grid(4096)
    reps = 2000
    kern = np.empty(reps)
    tank = np.empty(reps)
    for r in range(reps):
        _, diff = sample_max_two_bm(grid, replicate_rng(5, r))
        kern[r] = pv_stats.local_time_kernel(diff, 1.0, 1.0)
        tank[r] = pv_stats.local_time_tanaka(diff, 1.0)
    for est in (kern, tank):
        se = est.std(ddof=1) / math.sqrt(reps)
        assert abs(est.mean() - TWO_OVER_SQRT_PI) < 4 * se


# ---------------------------------------------------------------------------
# bias functional
# ---------------------------------------------------------------------------

def test_bias_functional_needs_two_atoms():
    grid = Grid(64)
    path = _two_atom_path(grid, np.zeros(65), np.ones(65))
    lone = MaxStablePath(path.log_eta, path.log_r[:1], path.z[:1],
                         path.truncation_diag, path.vol)
    # a lone retained atom forms no pair: the functional is zero, not an error
    assert pv_stats.clt_bias_functional(lone, 2, 1.0, 1.0) == 0.0


def test_bias_functional_zero_when_one_atom_dominates():
    grid = Grid(64)
    z1 = np.zeros(65)
    z2 = z1 - 10.0        # separated by far more than h/sqrt(n)
    path = _two_atom_path(grid, z1, z2)
    assert pv_stats.clt_bias_functional(path, 2, 1.0, 1.0) == 0.0


@pytest.mark.parametrize("n", (1024, 4096))
@pytest.mark.parametrize("t", (0.5, 1.0))
@pytest.mark.parametrize("seed", (6, 11, 29))
@pytest.mark.parametrize("p", (1, 2, 3))
def test_bias_functional_reduces_to_kernel_local_time(p, seed, t, n):
    # the two routes to the max2bm CLT bias: the pair functional on the two
    # Brownian atoms W1, W2 is (lambda(phi_{p,1}) / 2) times the kernel local
    # time of W2 - W1, which is the route the clt experiment takes
    grid = Grid(n)
    mx, diff = sample_max_two_bm(grid, replicate_rng(seed, 0))
    w1 = mx.values - np.maximum(diff.values, 0.0)
    path = _two_atom_path(grid, w1, w1 + diff.values)
    local_time = pv_stats.local_time_kernel(diff, t, 1.0)
    assert local_time > 0.0         # the pair fires at some step
    expected = 0.5 * pv_stats.lambda_phi_unit(p) * local_time
    got = pv_stats.clt_bias_functional(path, p, t, 1.0)
    assert abs(got - expected) <= 1e-12


def _pair_loop_bias(ms_path: MaxStablePath, p: int, t: float, halfwidth: float) -> float:
    """Reference: the per-pair loop over atoms j < k, each pair firing where
    |Z_j - Z_k| <= h/sqrt(n) and both lie strictly above every other atom;
    no step fires for two pairs, so the pair masks join into one firing set
    whose steps are summed once."""
    lam1 = pv_stats.lambda_phi_unit(p)
    grid = ms_path.grid
    n = grid.n
    weights = lam1 * ms_path.vol.value(grid.times[:n]) ** (p + 1) / (
        2.0 * halfwidth * math.sqrt(n))
    m = grid.last_increment(t)
    if m <= 1:
        return 0.0
    Z = ms_path.z[:, : m - 1]
    K = Z.shape[0]
    thr = halfwidth / math.sqrt(n)
    fired = np.zeros(Z.shape[1], dtype=bool)
    for j in range(K):
        for k in range(j + 1, K):
            near = np.abs(Z[j] - Z[k]) <= thr
            if not near.any():
                continue
            rest = np.delete(Z, [j, k], axis=0)
            others = rest.max(axis=0) if len(rest) else np.full(Z.shape[1], -np.inf)
            fire = near & (np.minimum(Z[j], Z[k]) > others)
            assert not (fired & fire).any()
            fired |= fire
    return float(weights[: m - 1] @ fired)


_VOLS = (VolatilitySpec.constant(1.0), VolatilitySpec.constant(1.7),
         VolatilitySpec.power_law(1.0, 1.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(2, 7), t=st.sampled_from((0.5, 1.0)),
       vol=st.sampled_from(_VOLS))
def test_bias_functional_matches_pair_loop(data, k, t, vol):
    # values on the 1/8 lattice with h/sqrt(n) = 1/4: exact ties between
    # atoms and gaps exactly at the threshold both occur
    grid = Grid(16)
    levels = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=17, max_size=17),
                                min_size=k, max_size=k))
    zmat = np.asarray(levels, dtype=float) / 8.0
    ms = MaxStablePath(
        log_eta=GridPath(grid, zmat.max(axis=0) - 0.5 * vol.integrated_power(2, grid.times)),
        log_r=np.zeros(k),
        z=zmat,
        truncation_diag=TruncationDiagnostics(64, math.inf, 1e-3, 64),
        vol=vol,
    )
    got = pv_stats.clt_bias_functional(ms, 2, t, 1.0)
    assert got == _pair_loop_bias(ms, 2, t, 1.0)


@pytest.mark.parametrize("vol", _VOLS, ids=("sigma1", "sigma1.7", "power"))
def test_bias_functional_matches_pair_loop_on_sampled_paths(vol):
    grid = Grid(512)
    for rep in range(3):
        ms = sample_brown_resnick(vol, grid, replicate_rng(6, 10 + rep), 1e-3)
        if ms.z.shape[0] < 2:
            continue
        for t in (0.5, 1.0):
            assert pv_stats.clt_bias_functional(ms, 2, t, 1.0) == \
                _pair_loop_bias(ms, 2, t, 1.0)


def test_bias_functional_interval_additivity():
    grid = Grid(512)
    vol = VolatilitySpec.constant(1.0)
    ms = sample_brown_resnick(vol, grid, replicate_rng(6, 2), 1e-3)
    f = lambda t: pv_stats.clt_bias_functional(ms, 2, t, 1.0)
    quarters = f(0.25) + (f(0.5) - f(0.25)) + (f(1.0) - f(0.5))
    assert quarters == pytest.approx(f(1.0), abs=1e-12)


def test_bias_functional_halfwidth_guard():
    # h = 4 gives h/sqrt(n) = 4/8, the sampler's retain margin 4/sqrt(n) at
    # n = 64; a halfwidth just below it is accepted
    grid = Grid(64)
    path = _two_atom_path(grid, np.zeros(65), np.ones(65))
    with pytest.raises(ValueError, match="retain margin"):
        pv_stats.clt_bias_functional(path, 2, 1.0, 4.0)
    assert pv_stats.clt_bias_functional(path, 2, 1.0, 3.99) == 0.0


# ---------------------------------------------------------------------------
# volatility recovery
# ---------------------------------------------------------------------------

def test_estimate_h_window_validation():
    grid = Grid(256)
    path = sample_brownian(grid, replicate_rng(8, 0))
    for bad in (8, 128, 10_000):
        with pytest.raises(ValueError):
            pv_stats.estimate_h(path, 2, bad)


def test_estimate_h_on_brownian_path():
    # B(2, W)^n_t -> t means the implied volatility is 1
    medians = []
    for r in range(20):
        grid = Grid(2 ** 14)
        w = sample_brownian(grid, replicate_rng(8, 1 + r))
        h_hat = pv_stats.estimate_h(w, 2, 512)
        sl = pv_stats.full_window_slice(grid.n, 512)
        medians.append(float(np.median(h_hat.values[sl])))
    assert abs(np.median(medians) - 1.0) < 0.05


def test_estimate_h_recovers_constant_sigma():
    medians = []
    vol = VolatilitySpec.constant(1.5)
    for r in range(20):
        grid = Grid(2 ** 14)
        ms = sample_brown_resnick(vol, grid, replicate_rng(8, 100 + r), 1e-3)
        h_hat = pv_stats.estimate_h(ms.log_eta, 2, 512)
        sl = pv_stats.full_window_slice(grid.n, 512)
        medians.append(float(np.median(h_hat.values[sl])))
    assert abs(np.median(medians) - 1.5) < 0.075


def test_estimate_h_recovers_linear_profile_coarse():
    vol = VolatilitySpec.power_law(1.0, 1.0, 1.0)
    maes = []
    for r in range(5):
        grid = Grid(2 ** 14)
        ms = sample_brown_resnick(vol, grid, replicate_rng(8, 200 + r), 1e-3)
        h_hat = pv_stats.estimate_h(ms.log_eta, 2, 512)
        sl = pv_stats.full_window_slice(grid.n, 512)
        truth = vol.value(grid.times[sl])
        maes.append(float(np.mean(np.abs(h_hat.values[sl] - truth))))
    assert np.mean(maes) < 0.15
