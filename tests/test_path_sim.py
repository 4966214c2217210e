import hashlib
import math

import numpy as np
import pytest

from maxstable_pv.path_sim import (
    Grid,
    GridPath,
    MaxStablePath,
    TruncationDiagnostics,
    TruncationError,
    VolatilitySpec,
    replicate_rng,
    sample_brown_resnick,
    sample_brownian,
    sample_max_two_bm,
)


def test_grid_and_path_validation():
    with pytest.raises(ValueError):
        Grid(1)
    g = Grid(8)
    assert g.times[0] == 0.0 and g.times[-1] == 1.0
    assert g.last_increment(0.5) == 4
    with pytest.raises(ValueError):
        GridPath(g, np.zeros(5))
    with pytest.raises(ValueError):
        GridPath(g, np.full(9, np.inf))
    # retained-atom arrays must be (K,) and (K, n+1)
    diag = TruncationDiagnostics(64, 1.0, 1e-3)
    vol = VolatilitySpec.constant(1.0)
    for log_r, z in ((np.zeros(2), np.zeros((2, 8))), (np.zeros(1), np.zeros((2, 9)))):
        with pytest.raises(ValueError, match="z must have shape"):
            MaxStablePath(GridPath(g, np.zeros(9)), log_r, z, diag, vol, 1.0)


# ---------------------------------------------------------------------------
# volatility forms
# ---------------------------------------------------------------------------

def _integrated_variance(h: VolatilitySpec, a: float, b: float) -> float:
    return float(h.variance_antiderivative(b) - h.variance_antiderivative(a))


def test_integrated_variance_constant():
    h = VolatilitySpec.constant(2.0)
    assert _integrated_variance(h, 0.25, 0.75) == pytest.approx(2.0, abs=1e-14)


def test_integrated_variance_power_law():
    h = VolatilitySpec.power_law(0.0 + 1e-9, 1.0, 1.0)   # H(s) ~ s
    assert _integrated_variance(h, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-6)
    h2 = VolatilitySpec.power_law(1.0, 1.0, 1.0)          # H(s) = 1 + s
    assert _integrated_variance(h2, 0.0, 1.0) == pytest.approx(7.0 / 3.0, abs=1e-14)


def test_integrated_variance_table():
    h = VolatilitySpec.table([0.0, 1.0], [1.0, 1.0])
    assert _integrated_variance(h, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    # piecewise-linear hat: both halves integrate (1 + 2s)^2 over [0, 1/2]
    h2 = VolatilitySpec.table([0.0, 0.5, 1.0], [1.0, 2.0, 1.0])
    exact = 2 * (0.5 + 2 * 0.5 ** 2 + 4 * 0.5 ** 3 / 3)   # c^2 x + c d x^2 + d^2 x^3 / 3
    assert _integrated_variance(h2, 0.0, 1.0) == pytest.approx(exact, abs=1e-12)
    assert h2.integrated_power(2, 0.2, 0.9) == pytest.approx(
        _integrated_variance(h2, 0.2, 0.9), abs=1e-12)
    with pytest.raises(ValueError):
        h.integrated_power(2, 0.7, 0.3)


def test_volatility_validation():
    with pytest.raises(ValueError):
        VolatilitySpec.constant(0.0)
    with pytest.raises(ValueError):
        VolatilitySpec.power_law(1.0, 1.0, 0.4)           # Holder exponent too small
    with pytest.raises(ValueError):
        VolatilitySpec.power_law(0.0, 1.0, 1.0)           # inf H = 0
    with pytest.raises(ValueError):
        VolatilitySpec.table([0.0, 0.5], [1.0, 1.0])      # does not reach s = 1
    with pytest.raises(ValueError):
        VolatilitySpec.table([0.0, 1.0], [1.0, -1.0])


def test_integrated_power_closed_forms():
    h = VolatilitySpec.power_law(1.0, 1.0, 1.0)
    assert h.integrated_power(2, 0.0, 1.0) == pytest.approx(7.0 / 3.0, abs=1e-14)
    assert h.integrated_power(4, 0.0, 1.0) == pytest.approx(31.0 / 5.0, abs=1e-13)
    ht = VolatilitySpec.table([0.0, 1.0], [1.0, 2.0])
    assert ht.integrated_power(2, 0.0, 1.0) == pytest.approx(7.0 / 3.0, abs=1e-12)
    assert ht.integrated_power(2, 0.0, 1.0) == pytest.approx(
        h.integrated_power(2, 0.0, 1.0), abs=1e-12)


def test_volatility_dict_roundtrip():
    for h in (VolatilitySpec.constant(1.5),
              VolatilitySpec.power_law(1.0, 0.5, 0.75),
              VolatilitySpec.table([0.0, 0.3, 1.0], [1.0, 2.0, 1.5])):
        back = VolatilitySpec.from_dict(h.as_dict())
        s = np.linspace(0, 1, 11)
        assert np.allclose(back.value(s), h.value(s), atol=1e-15)


# ---------------------------------------------------------------------------
# elementary samplers
# ---------------------------------------------------------------------------

def test_brownian_moments():
    grid = Grid(64)
    reps = 10_000
    w1 = np.empty(reps)
    whalf = np.empty(reps)
    for r in range(reps):
        path = sample_brownian(grid, replicate_rng(11, r))
        assert path.values[0] == 0.0
        w1[r] = path.values[-1]
        whalf[r] = path.values[32]
    var = w1.var(ddof=1)
    se = math.sqrt(2.0 / (reps - 1))           # var of sample variance of N(0,1)
    assert abs(var - 1.0) < 4 * se
    inc = w1 - whalf
    cov = np.mean(whalf * inc)
    se_cov = np.std(whalf * inc, ddof=1) / math.sqrt(reps)
    assert abs(cov) < 4 * se_cov


def test_max_two_bm():
    grid = Grid(64)
    reps = 10_000
    at_one = np.empty(reps)
    for r in range(reps):
        mx, diff = sample_max_two_bm(grid, replicate_rng(13, r))
        assert mx.values[0] == 0.0
        w1 = mx.values - np.maximum(diff.values, 0.0)
        assert np.all(mx.values >= w1 - 1e-15)
        at_one[r] = mx.values[-1]
    target = 1.0 / math.sqrt(math.pi)          # E max of two iid N(0,1)
    se = at_one.std(ddof=1) / math.sqrt(reps)
    assert abs(at_one.mean() - target) < 4 * se


_VOLS = (VolatilitySpec.constant(1.5), VolatilitySpec.power_law(1.0, 1.0, 1.0),
         VolatilitySpec.table([0.0, 0.3, 1.0], [1.0, 2.0, 1.5]))


def test_spectral_log_is_mean_one_martingale():
    # log V_t = int_0^t H dW - (1/2) int_0^t H^2 ds is mean-one exactly when
    # the drift is half the variance of the Gaussian part
    grid = Grid(16)
    for vol in _VOLS:
        drift = vol.cumulative_drift(grid)
        assert drift[0] == 0.0
        var = np.concatenate([[0.0], np.cumsum(vol.step_standard_deviations(grid) ** 2)])
        assert np.allclose(drift, 0.5 * var, rtol=1e-13, atol=0.0)
        assert np.array_equal(drift, 0.5 * vol.variance_antiderivative(grid.times))


def test_spectral_log_variance():
    # the per-step variances add up to Var log V_1 = int_0^1 H^2 ds
    grid = Grid(16)
    for vol in _VOLS:
        total = float(np.sum(vol.step_standard_deviations(grid) ** 2))
        assert total == pytest.approx(vol.variance_antiderivative(1.0), rel=1e-14)
    assert float(np.sum(VolatilitySpec.constant(1.5).step_standard_deviations(grid) ** 2)) \
        == pytest.approx(1.5 ** 2, rel=1e-14)


# ---------------------------------------------------------------------------
# max-stable simulation
# ---------------------------------------------------------------------------

def test_br_epsilon_validation():
    grid = Grid(16)
    vol = VolatilitySpec.constant(1.0)
    rng = replicate_rng(0, 0)
    for eps in (0.0, 0.5, -1e-3, float("nan")):
        with pytest.raises(ValueError):
            sample_brown_resnick(vol, grid, rng, eps)


def test_br_atom_budget_validation():
    grid = Grid(16)
    vol = VolatilitySpec.constant(1.0)
    for budget in (0, -5, 2.5):
        with pytest.raises(ValueError, match="atom_budget"):
            sample_brown_resnick(vol, grid, replicate_rng(0, 0), 1e-3, atom_budget=budget)


def test_br_retain_margin_validation():
    grid = Grid(16)
    vol = VolatilitySpec.constant(1.0)
    for margin in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="retain_margin"):
            sample_brown_resnick(vol, grid, replicate_rng(0, 0), 1e-3, retain_margin=margin)


def test_br_block_memory_guard():
    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"rng.{name} touched before the memory check")

    vol = VolatilitySpec.constant(1.0)
    with pytest.raises(ValueError, match=r"n=524288 needs 536871936 bytes"):
        sample_brown_resnick(vol, Grid(2 ** 19), NoDraws(), 1e-3)


def test_br_frechet_marginal():
    grid = Grid(64)
    vol = VolatilitySpec.constant(1.0)
    reps = 2000
    vals = np.array([
        math.exp(sample_brown_resnick(vol, grid, replicate_rng(23, r), 1e-3)
                 .log_eta.values[32])
        for r in range(reps)
    ])
    p = np.mean(vals < 1.0)
    target = math.exp(-1.0)
    se = math.sqrt(target * (1 - target) / reps)
    assert abs(p - target) < 4 * se
    x = np.sort(vals)
    f = np.exp(-1.0 / x)
    ks = max(np.max(np.arange(1, reps + 1) / reps - f),
             np.max(f - np.arange(0, reps) / reps))
    assert ks < 1.36 / math.sqrt(reps) * 1.5


def test_br_bookkeeping_identity():
    grid = Grid(256)
    vol = VolatilitySpec.power_law(1.0, 1.0, 1.0)
    ms = sample_brown_resnick(vol, grid, replicate_rng(29, 0), 1e-3)
    drift = vol.cumulative_drift(grid)
    z = np.stack([a.z_path.values for a in ms.atoms])
    # the atoms are built from the retained arrays, row for row
    assert np.array_equal(z, ms.z)
    assert np.array_equal([a.log_r for a in ms.atoms], ms.log_r)
    recon = z.max(axis=0) - drift
    assert np.array_equal(recon, ms.log_eta.values)
    # argmax consistent with the max, ties broken by lowest index
    assert np.array_equal(z.argmax(axis=0), ms.argmax_index)
    # atom drift bookkeeping: z = log_r + log_v + drift, pointwise to 1e-12
    for atom in ms.atoms:
        lhs = atom.z_path.values
        rhs = atom.log_r + atom.log_v_path.values + drift
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_br_deterministic():
    grid = Grid(128)
    vol = VolatilitySpec.constant(1.0)
    a = sample_brown_resnick(vol, grid, replicate_rng(31, 5), 1e-3)
    b = sample_brown_resnick(vol, grid, replicate_rng(31, 5), 1e-3)
    assert np.array_equal(a.log_eta.values, b.log_eta.values)
    assert len(a.atoms) == len(b.atoms)
    for x, y in zip(a.atoms, b.atoms):
        assert np.array_equal(x.z_path.values, y.z_path.values)
    assert a.truncation_diag == b.truncation_diag


def test_br_truncation_audit_small():
    # shrinking epsilon 100x with a larger budget must leave the path
    # essentially unchanged: the stop rule was already conservative
    grid = Grid(256)
    vol = VolatilitySpec.constant(1.0)
    worst = 0.0
    for r in range(20):
        base = sample_brown_resnick(vol, grid, replicate_rng(37, r), 1e-3)
        audit = sample_brown_resnick(vol, grid, replicate_rng(37, r), 1e-5,
                                     atom_budget=10_000_000)
        worst = max(worst, float(np.max(np.abs(
            base.log_eta.values - audit.log_eta.values))))
    assert worst < 1e-8


def test_br_budget_exhaustion():
    grid = Grid(64)
    vol = VolatilitySpec.constant(1.0)
    # epsilon 1e-9 needs ~e^7 atoms before the stop rule can fire
    with pytest.raises(TruncationError) as exc:
        sample_brown_resnick(vol, grid, replicate_rng(41, 0), 1e-9, atom_budget=32)
    partial = exc.value.partial
    assert partial.truncation_diag.atoms_generated >= 32
    assert np.all(np.isfinite(partial.log_eta.values))


# SHA-256 of every output byte of sample_brown_resnick, pinned so that a
# rewrite of the sampler that must keep the draw order is checked to keep
# every number.  The digests hold for numpy 2.4 / scipy 1.17 on x86-64; a
# platform whose libm rounds log or pow differently needs them re-pinned
# from a commit whose sampler is trusted.
_GOLDEN_VOLS = {
    "sigma1": VolatilitySpec.constant(1.0),
    "sigma2": VolatilitySpec.constant(2.0),
    "power": VolatilitySpec.power_law(1.0, 1.0, 1.0),
    "table": VolatilitySpec.table([0.0, 0.3, 1.0], [1.0, 1.8, 0.7]),
}
_GOLDEN = [
    # (vol, n, master_seed, replicate, epsilon, atom_budget, truncated, digest)
    ("sigma1", 64, 1, 0, 1e-3, 10 ** 6, False,
     "7141cbe1e9759861aaeacf3eea9281ab088c5211fddc05645443f7395b9823e5"),
    ("sigma1", 256, 7, 3, 1e-3, 10 ** 6, False,
     "9f132f53fae5ceb37735b14e933255222884cfbb6795342cc07565850a87b091"),
    ("sigma1", 4096, 11, 5, 1e-3, 10 ** 6, False,
     "18b03c7f58d836663a62a86d8a465a2e77566ca40b933ab5a7ce4310a0aa2c7f"),
    ("sigma2", 64, 2, 1, 1e-3, 10 ** 6, False,
     "d6b9695180161cf2d4024e2b14e534db44f3d989df5ecb006fec79af968b3252"),
    ("sigma2", 256, 1, 0, 1e-3, 10 ** 6, False,
     "201dae643114d4a39f2f72a2c9ef087e05f63f400e1f366babe5063b06faff00"),
    ("sigma2", 4096, 3, 2, 1e-3, 10 ** 6, False,
     "9c4c841d2266ff6754d8458476b9be0a15135c710e8340897d717751895cfbd8"),
    ("sigma2", 4096, 1, 6, 1e-3, 10 ** 6, False,
     "0055efee462561ef13ee16cca606dd22027f455104b18c11a9bb58fc776090df"),
    ("power", 64, 4, 9, 1e-3, 10 ** 6, False,
     "0e662d9203e34277bd32efecdd5c8073d161f2ddc2da1d164c8917542cd1afe9"),
    ("power", 256, 5, 4, 1e-4, 10 ** 6, False,
     "ee89fa12f98cbd5e613a1e71f5000646142da09ad8ebf0bf45a2d1c202886c8a"),
    ("power", 4096, 6, 0, 1e-3, 10 ** 6, False,
     "fc498df32340e0ca5adfed5f1eeeab6bd0b25500d04ac03ad51c00927eeea90e"),
    ("table", 64, 8, 2, 1e-3, 10 ** 6, False,
     "20e299cc4a21712b67cd4f75f2db1ce734da5535e9177d71ffdede93632369da"),
    ("table", 256, 9, 7, 1e-3, 10 ** 6, False,
     "dbc8b4b142c113cb2b249f3795891968999cdd7a4766b800b651cf00edc89590"),
    ("table", 4096, 10, 1, 1e-3, 10 ** 6, False,
     "1db452473930dae8531b1fabb5413d0c6261a6600b280c14d112e8b333855357"),
    # budget exhausted: the digest covers TruncationError.partial
    ("sigma1", 64, 41, 0, 1e-9, 32, True,
     "bd5c92665206b6beb55f0b89a6c5aa5441e6f70adf32ef4e0b55a69dfead06d6"),
    ("sigma2", 256, 12, 3, 1e-6, 100, True,
     "ef7bc4581f3b076d6502b8a6e64af87422cdaf27769ace5c2409c9bb871d9d0b"),
]


def _path_digest(ms) -> str:
    h = hashlib.sha256()
    h.update(ms.log_eta.values.astype("<f8").tobytes())
    for atom in ms.atoms:
        h.update(np.float64(atom.log_r).astype("<f8").tobytes())
        h.update(atom.z_path.values.astype("<f8").tobytes())
        h.update(atom.log_v_path.values.astype("<f8").tobytes())
    h.update(ms.argmax_index.astype("<i8").tobytes())
    d = ms.truncation_diag
    h.update(f"{len(ms.atoms)}|{d.atoms_generated}|{d.stop_rule_margin.hex()}"
             f"|{d.epsilon.hex()}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("vol,n,seed,rep,eps,budget,truncated,digest", _GOLDEN)
def test_br_golden_outputs(vol, n, seed, rep, eps, budget, truncated, digest):
    try:
        ms = sample_brown_resnick(_GOLDEN_VOLS[vol], Grid(n), replicate_rng(seed, rep),
                                  eps, atom_budget=budget)
        was_truncated = False
    except TruncationError as exc:
        ms, was_truncated = exc.partial, True
    assert was_truncated == truncated
    assert _path_digest(ms) == digest


def test_replicate_streams_are_disjoint_and_stable():
    a = replicate_rng(99, 0).standard_normal(8)
    b = replicate_rng(99, 1).standard_normal(8)
    c = replicate_rng(99, 0).standard_normal(8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)
