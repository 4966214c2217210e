import hashlib
import math
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from maxstable_pv import path_sim, pv_stats
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
from maxstable_pv.quadrature import QuadratureConfig, adaptive_gauss_kronrod


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
    diag = TruncationDiagnostics(64, 1.0, 1e-3, 64)
    vol = VolatilitySpec.constant(1.0)
    for log_r, z in ((np.zeros(2), np.zeros((2, 8))), (np.zeros(1), np.zeros((2, 9)))):
        with pytest.raises(ValueError, match="z must have shape"):
            MaxStablePath(GridPath(g, np.zeros(9)), log_r, z, diag, vol)


# ---------------------------------------------------------------------------
# volatility forms
# ---------------------------------------------------------------------------

def _integrated_variance(h: VolatilitySpec, a: float, b: float) -> float:
    return h.integrated_power(2, b) - h.integrated_power(2, a)


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
    for bad in (-0.1, 1.5, float("nan"), [0.0, 1.5]):
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            h.integrated_power(2, bad)
    with pytest.raises(ValueError, match="integer p >= 1"):
        h.integrated_power(0, 1.0)


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
    # json.load parses NaN and Infinity, so non-finite parameters reach here
    nan, inf = float("nan"), float("inf")
    for a, b, gamma in ((nan, 1.0, 1.0), (1.0, inf, 1.0), (1.0, 1.0, nan), (inf, 1.0, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            VolatilitySpec.power_law(a, b, gamma)
    for s_knots, h_knots in (([0.0, 0.5, 1.0], [1.0, nan, 1.0]), ([0.0, 1.0], [1.0, inf]),
                             ([0.0, nan, 1.0], [1.0, 1.0, 1.0])):
        with pytest.raises(ValueError, match="must be finite"):
            VolatilitySpec.table(s_knots, h_knots)


def test_integrated_power_closed_forms():
    h = VolatilitySpec.power_law(1.0, 1.0, 1.0)
    assert h.integrated_power(2, 1.0) == pytest.approx(7.0 / 3.0, abs=1e-14)
    assert h.integrated_power(4, 1.0) == pytest.approx(31.0 / 5.0, abs=1e-13)
    ht = VolatilitySpec.table([0.0, 1.0], [1.0, 2.0])
    assert ht.integrated_power(2, 1.0) == pytest.approx(7.0 / 3.0, abs=1e-12)
    assert ht.integrated_power(2, 1.0) == pytest.approx(h.integrated_power(2, 1.0), abs=1e-12)
    # a scalar t gives a float, an array t an array of the same shape
    assert type(h.integrated_power(3, 0.5)) is float
    assert h.integrated_power(3, np.array([0.0, 0.5])).shape == (2,)


@st.composite
def _volatilities(draw):
    kind = draw(st.sampled_from(("constant", "power_law", "table")))
    if kind == "constant":
        return VolatilitySpec.constant(draw(st.floats(0.1, 10.0)))
    if kind == "power_law":
        a = draw(st.floats(0.1, 3.0))
        return VolatilitySpec.power_law(a, draw(st.floats(-0.9 * a, 3.0)),
                                        draw(st.floats(0.55, 4.0)))
    # slopes near 1e-9 make the segments nearly flat, where differencing
    # (c + d x)^(p+1) - c^(p+1) loses every digit the slope carries
    inner = draw(st.lists(st.floats(0.01, 0.99), max_size=4, unique=True))
    s = np.concatenate([[0.0], np.sort(inner), [1.0]])
    h = [draw(st.floats(0.1, 10.0))]
    for ds in np.diff(s):
        slope = draw(st.sampled_from((1e-9, -1e-9, 3e-9)) | st.floats(-5.0, 5.0))
        h.append(max(h[-1] + slope * ds, 0.1))
    return VolatilitySpec.table(s, h)


def _quadrature_oracle(vol: VolatilitySpec, p: int, t: float) -> float:
    knots = vol.s_knots if vol.kind == "table" else ()
    return adaptive_gauss_kronrod(lambda s: vol.value(s) ** p, 0.0, t,
                                  QuadratureConfig(abs_tol=1e-300, rel_tol=1e-14),
                                  breakpoints=knots).value


@settings(max_examples=300, deadline=None)
@given(vol=_volatilities(), p=st.integers(1, 8),
       t=st.sampled_from((0.0, 1.0)) | st.floats(1e-6, 1.0)
       | st.builds(lambda n: Grid(n).times, st.integers(2, 32)))
def test_integrated_power_matches_quadrature(vol, p, t):
    got = vol.integrated_power(p, t)
    assert type(got) is (float if np.ndim(t) == 0 else np.ndarray)
    want = np.array([_quadrature_oracle(vol, p, u) for u in np.atleast_1d(t)])
    assert np.all(np.abs(np.atleast_1d(got) - want) <= 1e-12 * np.abs(want))


def test_volatility_from_dict():
    for d, h in (({"form": "constant", "sigma": 1.5}, VolatilitySpec.constant(1.5)),
                 ({"form": "power_law", "a": 1.0, "b": 0.5, "gamma": 0.75},
                  VolatilitySpec.power_law(1.0, 0.5, 0.75)),
                 ({"form": "power_law", "a": 1.0, "b": 0.5}, VolatilitySpec.power_law(1.0, 0.5)),
                 ({"form": "table", "s": [0.0, 0.3, 1.0], "h": [1.0, 2.0, 1.5]},
                  VolatilitySpec.table([0.0, 0.3, 1.0], [1.0, 2.0, 1.5]))):
        back = VolatilitySpec.from_dict(d)
        s = np.linspace(0, 1, 11)
        assert back.kind == h.kind
        assert np.array_equal(back.value(s), h.value(s))
    with pytest.raises(ValueError):
        VolatilitySpec.from_dict({"form": "spline"})


def test_volatility_table_keeps_its_own_knots():
    # a table must neither follow later writes to the caller's knot arrays
    # nor take writes to its own
    s, hk = np.array([0.0, 0.3, 1.0]), np.array([1.0, 2.0, 1.5])
    table = VolatilitySpec.table(s, hk)
    before = table.integrated_power(2, 1.0)
    hk[1] = 9.0
    s[1] = 0.6
    assert table.value(0.3) == 2.0 and table.integrated_power(2, 1.0) == before
    for knots in (table.s_knots, table.h_knots):
        with pytest.raises(ValueError, match="read-only"):
            knots[1] = 5.0


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
        path = sample_max_two_bm(grid, replicate_rng(13, r))
        # two atoms of weight 1 and unit volatility; log eta is their
        # maximum with no drift, and the pair is the whole series
        assert np.array_equal(path.log_r, np.zeros(2))
        assert np.array_equal(path.log_eta.values, path.z.max(axis=0))
        assert path.log_eta.values[0] == 0.0
        assert path.vol.kind == "constant" and path.vol.sigma == 1.0
        assert path.truncation_diag == TruncationDiagnostics(2, math.inf, 0.0, 2)
        at_one[r] = path.log_eta.values[-1]
    target = 1.0 / math.sqrt(math.pi)          # E max of two iid N(0,1)
    se = at_one.std(ddof=1) / math.sqrt(reps)
    assert abs(at_one.mean() - target) < 4 * se


_VOLS = (VolatilitySpec.constant(1.5), VolatilitySpec.power_law(1.0, 1.0, 1.0),
         VolatilitySpec.table([0.0, 0.3, 1.0], [1.0, 2.0, 1.5]))


def test_spectral_log_is_mean_one_martingale():
    # log V_t = int_0^t H dW - (1/2) int_0^t H^2 ds is mean-one exactly when
    # the drift is half the variance of the Gaussian part: the sampler takes
    # both from one array F = int_0^{i/n} H^2, so F must start at 0, rise, and
    # agree with its pointwise (scalar) evaluation
    grid = Grid(16)
    for vol in _VOLS:
        var = vol.integrated_power(2, grid.times)
        assert var[0] == 0.0
        assert np.all(np.diff(var) > 0.0)
        pointwise = [vol.integrated_power(2, t) for t in grid.times]
        assert np.allclose(var, pointwise, rtol=1e-14, atol=0.0)


def test_spectral_log_variance():
    # the per-step variances add up to Var log V_1 = int_0^1 H^2 ds
    grid = Grid(16)
    for vol in _VOLS:
        total = float(np.sum(np.diff(vol.integrated_power(2, grid.times))))
        assert total == pytest.approx(vol.integrated_power(2, 1.0), rel=1e-14)
    assert float(np.sum(np.diff(VolatilitySpec.constant(1.5).integrated_power(2, grid.times)))) \
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
    drift = 0.5 * vol.integrated_power(2, grid.times)
    z = ms.z
    assert z.shape == (len(ms.log_r), grid.n + 1) and len(ms.atoms) == len(ms.log_r)
    recon = z.max(axis=0) - drift
    assert np.array_equal(recon, ms.log_eta.values)
    # argmax consistent with the max, ties broken by lowest index
    assert np.array_equal(z.argmax(axis=0), ms.argmax_index)
    # each kept atom's Z path starts at its log weight: Z_0 = log R
    assert np.array_equal(z[:, 0], ms.log_r)


def test_br_deterministic():
    grid = Grid(128)
    vol = VolatilitySpec.constant(1.0)
    a = sample_brown_resnick(vol, grid, replicate_rng(31, 5), 1e-3)
    b = sample_brown_resnick(vol, grid, replicate_rng(31, 5), 1e-3)
    assert np.array_equal(a.log_eta.values, b.log_eta.values)
    assert np.array_equal(a.log_r, b.log_r)
    assert np.array_equal(a.z, b.z)
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


def test_truncation_error_pickles_with_its_partial():
    with pytest.raises(TruncationError) as exc:
        sample_brown_resnick(VolatilitySpec.constant(1.0), Grid(64), replicate_rng(41, 0),
                             1e-9, atom_budget=32)
    copy = pickle.loads(pickle.dumps(exc.value))
    assert type(copy) is TruncationError
    assert str(copy) == str(exc.value)
    assert _path_digest(copy.partial) == _path_digest(exc.value.partial)


def test_truncation_error_crosses_a_process_pool():
    # a worker's truncation must reach the parent as TruncationError, not
    # as a BrokenProcessPool from a failed unpickle
    vol, grid = VolatilitySpec.constant(1.0), Grid(64)
    with pytest.raises(TruncationError) as local:
        sample_brown_resnick(vol, grid, replicate_rng(41, 0), 1e-9, atom_budget=32)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        fut = pool.submit(sample_brown_resnick, vol, grid, replicate_rng(41, 0), 1e-9,
                          atom_budget=32)
        with pytest.raises(TruncationError) as remote:
            fut.result(timeout=120)
    assert _path_digest(remote.value.partial) == _path_digest(local.value.partial)


# SHA-256 of every output byte of sample_brown_resnick, pinned so that a
# rewrite of the sampler that must keep the draw order is checked to keep
# every number.  atoms_refined is left out: it counts the screen's work,
# and a change of screening schedule changes no number.  The digests hold
# for numpy 2.4 / scipy 1.17 on x86-64; a platform whose libm rounds log or
# pow differently needs them re-pinned from a commit whose sampler is
# trusted.
_GOLDEN_VOLS = {
    "sigma1": VolatilitySpec.constant(1.0),
    "sigma2": VolatilitySpec.constant(2.0),
    "power": VolatilitySpec.power_law(1.0, 1.0, 1.0),
    "table": VolatilitySpec.table([0.0, 0.3, 1.0], [1.0, 1.8, 0.7]),
}
_GOLDEN = [
    # (vol, n, master_seed, replicate, epsilon, atom_budget, truncated, digest)
    ("sigma1", 64, 1, 0, 1e-3, 10 ** 6, False,
     "71409ca711d78593044d072992195f5c50047fdbbd7b350300a946e941a6e2f5"),
    ("sigma1", 256, 7, 3, 1e-3, 10 ** 6, False,
     "2ba208c8f077868b2e9b3e651ff9a671811a72cdac8043bc442e89fbc25ceb0a"),
    ("sigma1", 4096, 11, 5, 1e-3, 10 ** 6, False,
     "62413eb6c344629f1e1672d08e54f049b66b796a5e36997e58e6502e34eca2d7"),
    ("sigma2", 64, 2, 1, 1e-3, 10 ** 6, False,
     "37282949a51156a9481f3f4e8eed7a346cdfa38c142d25f4235b2a6f1af70e58"),
    ("sigma2", 256, 1, 0, 1e-3, 10 ** 6, False,
     "e92b1faa6c59f71bda437a5db7065ff98c9416fc7ea1472e5cae417548954765"),
    ("sigma2", 4096, 3, 2, 1e-3, 10 ** 6, False,
     "144543cdbdc9411735cd3dddbb3c800d7c64a054f09f556af70e17bb1fda9f1d"),
    ("sigma2", 4096, 1, 6, 1e-3, 10 ** 6, False,
     "4d30b8eff6af73bb61fc2b871dd39cfa008ad321a0ca951547959fbe7a11cef8"),
    ("power", 64, 4, 9, 1e-3, 10 ** 6, False,
     "f183929a85faca75aab90551a5a49347aedfd566cab574d1e8fed3957a303158"),
    ("power", 256, 5, 4, 1e-4, 10 ** 6, False,
     "ab1c224f7daed68d0331953d4e02cf9f3aa3182b7df3ca2e8b9506edc4415c82"),
    ("power", 4096, 6, 0, 1e-3, 10 ** 6, False,
     "a5d44921368743cc8b6747c046eec036eb8ee926130aef5f1035da483ac25d4c"),
    ("table", 64, 8, 2, 1e-3, 10 ** 6, False,
     "2cf25fb5217135e70f884ad99ce1bf78d6252ed56c2e08947e10033996fddb47"),
    ("table", 256, 9, 7, 1e-3, 10 ** 6, False,
     "c87dbf8b87374e560b8d8f4f701bfa87d49a909a981302069bf1ff93b1ec7340"),
    ("table", 4096, 10, 1, 1e-3, 10 ** 6, False,
     "1ba62aa320dedf4377c5d467936a7576ff7c500b7e9fe3ef9872af3a8ee32646"),
    # budget exhausted: the digest covers TruncationError.partial
    ("sigma1", 64, 41, 0, 1e-9, 32, True,
     "d5e51446f95cdc0c68bddba5d74622363b37258b1c7321af639121b483635041"),
    ("sigma2", 256, 12, 3, 1e-6, 100, True,
     "31a125675c73c685dc1811f006b1e6c31bcd74daeed65e3f6207bf0a4d27774b"),
    # large n: 128 coarse segments of 128 steps
    ("sigma2", 2 ** 14, 13, 2, 1e-3, 10 ** 6, False,
     "1c00b934f948d1d017df98b6400be86b21b4c5499e4ab88f7927a2408ecfc5a8"),
    # n not a power of two: coarse segments of 156 and 157 steps
    ("power", 20000, 14, 1, 1e-3, 10 ** 6, False,
     "c62de167e81e349e15a2f8d9813d499c9db6f637f1e685a4719d214557d813cf"),
    ("sigma1", 8192, 18, 4, 1e-9, 192, True,
     "350e35c7cbf288276cd0b4e27342632930979be91bb488194a679b55b2ab0836"),
]


_GOLDEN_IDS = ["-".join(map(str, case[:-1])) for case in _GOLDEN]


def _path_digest(ms) -> str:
    h = hashlib.sha256()
    h.update(ms.log_eta.values.astype("<f8").tobytes())
    drift = 0.5 * ms.vol.integrated_power(2, ms.grid.times)
    # per kept atom: log R as a Python float, its Z path, and its log V path
    # Z - log R - drift, in that order of operations
    for lr, z in zip(ms.log_r.tolist(), ms.z):
        h.update(np.float64(lr).astype("<f8").tobytes())
        h.update(z.astype("<f8").tobytes())
        h.update((z - lr - drift).astype("<f8").tobytes())
    h.update(ms.argmax_index.astype("<i8").tobytes())
    d = ms.truncation_diag
    h.update(f"{len(ms.log_r)}|{d.atoms_generated}|{d.stop_rule_margin.hex()}"
             f"|{d.epsilon.hex()}".encode())
    return h.hexdigest()


def _sample_or_partial(h, grid, rng_stream, epsilon, atom_budget=10 ** 6):
    try:
        return sample_brown_resnick(h, grid, rng_stream, epsilon, atom_budget=atom_budget), False
    except TruncationError as exc:
        return exc.partial, True


@pytest.mark.parametrize("vol,n,seed,rep,eps,budget,truncated,digest", _GOLDEN,
                         ids=_GOLDEN_IDS)
def test_br_golden_outputs(vol, n, seed, rep, eps, budget, truncated, digest):
    ms, was_truncated = _sample_or_partial(_GOLDEN_VOLS[vol], Grid(n), replicate_rng(seed, rep),
                                           eps, budget)
    assert was_truncated == truncated
    assert _path_digest(ms) == digest


def _refine_all_oracle(h, grid, rng_stream, epsilon, atom_budget, margin=None):
    """Reference for the coarse screen: the sampler's draws, with every atom
    refined through the same bridge fill by a fresh Philox generator, then
    the plain per-block loop that keeps the atoms within ``margin`` of the
    maximum (by default the sampler's retain margin).  Returns (path,
    truncated)."""
    n = grid.n
    if margin is None:
        margin = path_sim.retain_margin(n)
    lattice = path_sim._CoarseLattice(h, n)
    q_eps = math.sqrt(float(lattice.var[-1])) * float(-ndtri(epsilon / 2.0))
    fine = path_sim._FineNormals(rng_stream.integers(2 ** 64, size=2, dtype=np.uint64))

    run_max = np.full(n + 1, -np.inf)
    kept_log_r, kept_z = [], []
    gamma_tail = 0.0
    generated = 0
    stop_margin = -np.inf
    stopped = False

    while not stopped and generated < atom_budget:
        gaps = rng_stream.standard_exponential(64)
        steps = rng_stream.standard_normal((64, len(lattice.coarse_sd)))
        gammas = gamma_tail + np.cumsum(gaps)
        gamma_tail = float(gammas[-1])
        log_r = -np.log(gammas)
        steps *= lattice.coarse_sd
        zc = np.empty((64, len(lattice.idx)))
        zc[:, 0] = 0.0
        np.cumsum(steps, axis=1, out=zc[:, 1:])
        zc += log_r[:, None]
        z = lattice.fill(zc, fine.draw(generated + np.arange(64), n))

        run_max = np.maximum(run_max, z.max(axis=0))
        keep = (z - run_max).max(axis=1) > -margin
        kept_log_r.append(log_r[keep])
        kept_z.append(z[keep])
        generated += 64
        stop_margin = float(run_max.min()) - (float(log_r[-1]) + q_eps)
        stopped = stop_margin > 0.0

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
            atoms_refined=generated,
        ),
        vol=h,
    )
    return path, not stopped


def _assert_same_path(got, want):
    assert got.log_eta.values.tobytes() == want.log_eta.values.tobytes()
    assert got.log_r.tobytes() == want.log_r.tobytes()
    assert got.z.tobytes() == want.z.tobytes()
    assert got.truncation_diag.atoms_generated == want.truncation_diag.atoms_generated
    assert (got.truncation_diag.stop_rule_margin.hex()
            == want.truncation_diag.stop_rule_margin.hex())


# The screen drops an atom whose refined path would have mattered with
# probability at most S * 1e-9 per atom, so these comparisons are exact
# except on an event of probability about 1e-5 per path.
@settings(max_examples=200, deadline=None)
@given(vol=st.sampled_from(sorted(_GOLDEN_VOLS)), n=st.integers(2, 600),
       fill_log2=st.integers(6, 12), seed=st.integers(0, 2 ** 32 - 1),
       rep=st.integers(0, 1000),
       eps=st.sampled_from((1e-2, 1e-3, 1e-4, 1e-5)),
       budget=st.integers(1, 400) | st.just(10 ** 6))
def test_br_matches_refine_all_oracle(vol, n, fill_log2, seed, rep, eps, budget):
    # the screen, the Philox generator re-addressed per atom and the
    # chunk size of the fill (down to one row per chunk) must change no drawn
    # number, kept atom or diagnostic
    h, grid = _GOLDEN_VOLS[vol], Grid(n)
    want, want_truncated = _refine_all_oracle(h, grid, replicate_rng(seed, rep), eps, budget)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(path_sim, "_FILL_ELEMS", 2 ** fill_log2)
        got, got_truncated = _sample_or_partial(h, grid, replicate_rng(seed, rep), eps, budget)
    assert got_truncated == want_truncated
    _assert_same_path(got, want)
    assert 1 <= got.truncation_diag.atoms_refined <= got.truncation_diag.atoms_generated


@settings(max_examples=200, deadline=None)
@given(vol=st.sampled_from(sorted(_GOLDEN_VOLS)), n=st.integers(16, 600),
       seed=st.integers(0, 2 ** 32 - 1), rep=st.integers(0, 1000),
       eps=st.sampled_from((1e-2, 1e-3, 1e-4, 1e-5)),
       budget=st.integers(1, 400) | st.just(10 ** 6),
       halfwidth=st.floats(1e-3, path_sim.MAX_HALFWIDTH, exclude_max=True),
       t=st.sampled_from((0.5, 1.0)))
def test_br_retain_margin_moves_no_reported_number(vol, n, seed, rep, eps, budget,
                                                   halfwidth, t):
    # the sampler refines and keeps only the atoms within 4/sqrt(n) of the
    # maximum (at most 1 for n >= 16); every atom refined and kept at a
    # margin of 1 must give the same log eta, atom count, stop margin and
    # pair bias functional at halfwidths from 1e-3 up to the largest the
    # functional accepts
    h, grid = _GOLDEN_VOLS[vol], Grid(n)
    # h/sqrt(n) may round up to the margin just below h = 4; such an h is refused
    assume(halfwidth / math.sqrt(n) < path_sim.retain_margin(n))
    want, want_truncated = _refine_all_oracle(h, grid, replicate_rng(seed, rep), eps, budget,
                                              margin=1.0)
    got, got_truncated = _sample_or_partial(h, grid, replicate_rng(seed, rep), eps, budget)
    assert got_truncated == want_truncated
    assert got.log_eta.values.tobytes() == want.log_eta.values.tobytes()
    assert got.truncation_diag.atoms_generated == want.truncation_diag.atoms_generated
    assert (got.truncation_diag.stop_rule_margin.hex()
            == want.truncation_diag.stop_rule_margin.hex())
    assert len(got.log_r) <= len(want.log_r)
    assert (pv_stats.clt_bias_functional(got, 2, t, halfwidth)
            == pv_stats.clt_bias_functional(want, 2, t, halfwidth))


def test_br_screen_changes_no_path_at_sigma2():
    # at sigma = 2 about 900 atoms per path are drawn and about 2% refined
    h, grid = VolatilitySpec.constant(2.0), Grid(1024)
    generated = refined = 0
    for r in range(24):
        want, _ = _refine_all_oracle(h, grid, replicate_rng(43, r), 1e-3, 10 ** 6)
        got = sample_brown_resnick(h, grid, replicate_rng(43, r), 1e-3)
        _assert_same_path(got, want)
        generated += got.truncation_diag.atoms_generated
        refined += got.truncation_diag.atoms_refined
    assert refined < 0.1 * generated


# H rising from 0.3 to 3 and back every second step of a 50-step grid, so
# that step variances differ up to tenfold and a bridge must run in
# int H^2 time, not in clock time, to give each step its own
_ZIGZAG = VolatilitySpec.table(np.arange(0, 51, 2) / 50, np.where(np.arange(26) % 2, 3.0, 0.3))


@pytest.mark.parametrize("vol", [VolatilitySpec.constant(1.5), _ZIGZAG], ids=("sigma1.5", "zigzag"))
def test_bridge_fill_law(vol):
    # coarse points drawn from their law and filled: every fine increment over
    # its exact deviation is N(0, 1), uncorrelated with the next one (across
    # coarse points too), and the coarse points come back bit for bit
    grid = Grid(50)                     # 8 coarse segments of 6 or 7 steps
    lattice = path_sim._CoarseLattice(vol, grid.n)
    rng = np.random.default_rng(17)
    rows = 4000
    zc = lattice.coarse_paths(rng.standard_normal(rows), rng)
    z = lattice.fill(zc, rng.standard_normal((rows, grid.n)))
    assert np.array_equal(z[:, lattice.idx], zc)
    u = np.diff(z, axis=1) / lattice.step_sd
    pooled = np.sort(u.ravel())
    m = len(pooled)
    f = ndtr(pooled)
    ks = max(np.max(np.arange(1, m + 1) / m - f), np.max(f - np.arange(m) / m))
    assert ks < 1.95 / math.sqrt(m)     # the 0.1% critical value
    col_var = u.var(axis=0, ddof=1)
    assert np.max(np.abs(col_var - 1.0)) < 5 * math.sqrt(2.0 / rows)
    lag1 = np.mean(u[:, :-1] * u[:, 1:])
    assert abs(lag1) < 5 / math.sqrt(u[:, 1:].size)


# grid-index pairs at n = 256, whose coarse points are the multiples of 16:
# a step inside a coarse segment, a step ending at a coarse point, a step
# starting from one, one coarse segment, (1/4, 3/4) and (0, 1)
_HR_PAIRS = ((102, 103), (127, 128), (128, 129), (128, 144), (64, 192), (0, 256))


def _madogram_z(d, theta):
    """(theta_hat - theta) / SE from the per-path madogram terms ``d``: the
    F-madogram nu = mean(d) estimates theta as (1 + 2 nu) / (1 - 2 nu)
    (Cooley, Naveau & Poncet 2006), and the delta method gives the SE."""
    nu = d.mean()
    theta_hat = (1.0 + 2.0 * nu) / (1.0 - 2.0 * nu)
    se = 4.0 / (1.0 - 2.0 * nu) ** 2 * d.std(ddof=1) / math.sqrt(len(d))
    return float((theta_hat - theta) / se)


def _husler_reiss_z(vol, paths, seed):
    """(theta_hat - theta) / SE for each of _HR_PAIRS over ``paths`` sampled
    paths at n = 256, and at constant H for the 16 coarse segments of each
    path pooled.  (eta_s, eta_t) is Husler-Reiss with extremal coefficient
    theta = 2 Phi(a/2), a^2 = int_s^t H^2 (Husler & Reiss 1989; Kabluchko,
    Schlather & de Haan 2009), estimated by the F-madogram with
    F(z) = exp(-1/z)."""
    grid = Grid(256)
    log_eta = np.array([sample_brown_resnick(vol, grid, replicate_rng(seed, r), 1e-3)
                        .log_eta.values for r in range(paths)])
    f = np.exp(-np.exp(-log_eta))       # F(eta), uniform on (0, 1)
    var = vol.integrated_power(2, grid.times)
    z = [_madogram_z(0.5 * np.abs(f[:, i] - f[:, j]),
                     2.0 * ndtr(math.sqrt(var[j] - var[i]) / 2.0))
         for i, j in _HR_PAIRS]
    if vol.kind == "constant":
        # every coarse segment has a^2 = sigma^2 / 16: one madogram over all
        # 16 of a path, its SE from the per-path means, so the pairs'
        # correlation within a path is accounted for
        d = 0.5 * np.abs(np.diff(f[:, ::16], axis=1)).mean(axis=1)
        z.append(_madogram_z(d, 2.0 * ndtr(vol.sigma / 8.0)))
    return z


# the path counts keep the four cases near 2 s in all: sigma = 2 draws about
# five times the atoms of sigma = 1
@pytest.mark.parametrize("vol, paths", [(VolatilitySpec.constant(1.0), 1000),
                                        (VolatilitySpec.constant(2.0), 250),
                                        (VolatilitySpec.power_law(1.0, 1.0, 1.0), 500),
                                        (_ZIGZAG, 500)],
                         ids=("sigma1", "sigma2", "linear", "zigzag"))
def test_br_joint_law_is_husler_reiss(vol, paths):
    # the joint law of eta at two times, which a wrong coarse variance, a
    # fill in the wrong clock or a lost maximizing atom would break; the
    # refine-all oracle shares the lattice and fill, so it cannot
    z = _husler_reiss_z(vol, paths, seed=7)
    assert max(abs(x) for x in z) < 4.0, dict(zip((*_HR_PAIRS, "pooled"), z))


# margins of 1 (the ids without a suffix), of the sampler on this 50-point
# grid (0.57), and of the sampler at n = 4096 (0.0625)
_SCREEN_MARGINS = {"": 1.0, "-margin-n50": path_sim.retain_margin(50),
                   "-margin-n4096": path_sim.retain_margin(4096)}


@pytest.mark.parametrize("vol,margin", [(v, m) for m in _SCREEN_MARGINS.values()
                                        for v in (VolatilitySpec.constant(1.0), _ZIGZAG)],
                         ids=[v + tag for tag in _SCREEN_MARGINS for v in ("sigma1", "zigzag")])
def test_screen_keeps_every_atom_that_comes_near(vol, margin):
    # an atom the screen drops never comes within the margin of the running
    # maximum on the fine grid; 20,000 atoms started near that level, so
    # between a quarter and three fifths of them are dropped
    grid = Grid(50)
    lattice = path_sim._CoarseLattice(vol, grid.n)
    rng = np.random.default_rng(29)
    run_max = sample_brownian(grid, rng).values
    zc = lattice.coarse_paths(rng.uniform(-6.0, 0.0, 20_000), rng)
    z = lattice.fill(zc, rng.standard_normal((len(zc), grid.n)))
    near = (z - run_max).max(axis=1) > -margin
    dropped = np.ones(len(zc), dtype=bool)
    dropped[lattice.may_reach(zc, run_max, margin)] = False
    assert not np.any(near & dropped)
    assert 0.2 < dropped.mean() < 0.8


def test_br_per_process_state_changes_no_path():
    # a call leaves no state behind that a later one reads: replicates of
    # two configs (different H and n) drawn interleaved here must equal
    # those a fresh process draws for each config alone
    configs = ((_GOLDEN_VOLS["table"], Grid(256), 51), (_GOLDEN_VOLS["sigma2"], Grid(1024), 52))
    reps = range(4)

    def summary(ms):
        return _path_digest(ms), ms.truncation_diag.atoms_refined

    interleaved = {(c, r): summary(sample_brown_resnick(vol, grid, replicate_rng(seed, r), 1e-3))
                   for r in reps for c, (vol, grid, seed) in enumerate(configs)}
    ctx = multiprocessing.get_context("spawn")
    for c, (vol, grid, seed) in enumerate(configs):
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            futures = [pool.submit(sample_brown_resnick, vol, grid, replicate_rng(seed, r), 1e-3)
                       for r in reps]
            fresh = [summary(f.result(timeout=120)) for f in futures]
        assert fresh == [interleaved[c, r] for r in reps]


def test_br_concurrent_calls_draw_what_serial_calls_draw():
    # each call owns its Philox generator, so calls running in two threads
    # of one process give the bytes that the same calls give one by one
    h, grid = _GOLDEN_VOLS["sigma2"], Grid(4096)

    def digest(r):
        return _path_digest(sample_brown_resnick(h, grid, replicate_rng(54, r), 1e-3))

    serial = [digest(r) for r in range(8)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(digest, range(8))) == serial


def test_replicate_streams_are_disjoint_and_stable():
    a = replicate_rng(99, 0).standard_normal(8)
    b = replicate_rng(99, 1).standard_normal(8)
    c = replicate_rng(99, 0).standard_normal(8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)
