import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import voigtkit as vk
from voigtkit import DomainError, ReflectionOverflowError
from voigtkit import core

pytestmark = pytest.mark.bitwise

BLOCK = core._BLOCK
POOLED = 4 * core._THREAD_BLOCKS * BLOCK      # from here workers=2 runs on threads


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_batch_is_elementwise_map():
    zs = np.array([1 + 1j, 2 + 0.5j])
    out = vk.eval_batch(zs)
    expected = np.array([vk.eval_w(1 + 1j), vk.eval_w(2 + 0.5j)])
    assert bitwise_equal(out, expected)


def test_empty_input():
    out = vk.eval_batch(np.array([], dtype=complex))
    assert out.shape == (0,)


def test_shape_preserved():
    zs = (np.arange(6, dtype=float).reshape(2, 3) + 1j)
    out = vk.eval_batch(zs)
    assert out.shape == (2, 3)
    assert bitwise_equal(out.ravel(), vk.eval_batch(zs.ravel()))


def test_batch_matches_scalar_sweep_bitwise():
    rng = np.random.default_rng(99)
    zs = rng.uniform(-10, 10, 10_000) + 1j * rng.uniform(0.1, 10, 10_000)
    batch = vk.eval_batch(zs)
    scalar = np.array([vk.eval_w(z) for z in zs], dtype=np.complex128)
    assert bitwise_equal(batch, scalar)


def test_mixed_sign_batch_matches_scalars():
    rng = np.random.default_rng(5)
    zs = rng.uniform(-5, 5, 500) + 1j * rng.uniform(-3, 3, 500)
    batch = vk.eval_batch(zs)
    scalar = np.array([vk.eval_w(z) for z in zs], dtype=np.complex128)
    assert bitwise_equal(batch, scalar)


def _chunking_points():
    # enough points for at least two threads at either block size
    rng = np.random.default_rng(17)
    size = POOLED + 1
    return rng.uniform(-10, 10, size) + 1j * rng.uniform(0.01, 20, size)


def _check_chunking_and_workers(zs):
    whole = vk.eval_batch(zs)
    for workers in (2, 3, 7):
        assert bitwise_equal(vk.eval_batch(zs, workers=workers), whole)
    parts = np.concatenate([vk.eval_batch(zs[:11_111]), vk.eval_batch(zs[11_111:])])
    assert bitwise_equal(parts, whole)
    return whole


def test_chunking_and_workers_do_not_change_bits():
    _check_chunking_and_workers(_chunking_points())


def test_block_size_does_not_change_bits(monkeypatch):
    # the block size is a speed choice only: blocks of 8192 points give
    # the bits of the default size, threaded and inline, for all three
    # batch evaluators and the Weideman comparator (eq1 on a prefix that
    # spans several blocks)
    zs = _chunking_points()
    eq1_points = zs[:2 * BLOCK + 3]
    default = (vk.eval_batch(zs), vk.eval_eq3_batch(zs), vk.eval_eq1_batch(eq1_points),
               vk.weideman_batch(zs))
    monkeypatch.setattr(core, "_BLOCK", 8192)
    assert core._BLOCK != BLOCK
    assert bitwise_equal(_check_chunking_and_workers(zs), default[0])
    assert bitwise_equal(vk.eval_eq3_batch(zs), default[1])
    assert bitwise_equal(vk.eval_eq1_batch(eq1_points), default[2])
    assert bitwise_equal(vk.weideman_batch(zs), default[3])


def test_block_boundaries_same_bits():
    # mixed-sign points with lower-half, on-axis k*pi/tau, near-axis,
    # Gauss-Hermite (|z| >= 7) and far-field (|z| >= 1e8) points at the
    # edges of the single-thread blocks (BLOCK) and of the threaded ones
    # (2*BLOCK), one of them in the lower half-plane with both components
    # above sqrt(DBL_MAX); the longest input runs on threads
    rng = np.random.default_rng(31)
    size = POOLED + 7
    z = rng.uniform(-10, 10, size) + 1j * rng.uniform(-4, 10, size)
    step = math.pi / 12.0
    seven = np.nextafter(7.0, 0.0)
    special = {BLOCK - 1: 3 * step + 0j, BLOCK: -5 * step + 0j,
               2 * BLOCK - 1: 1 - 2j, 2 * BLOCK: 7 * step + 1e-9j,
               3 * BLOCK - 1: 0.1 + 0j, 3 * BLOCK: -2 * step - 1e-12j,
               4 * BLOCK - 1: seven + 0j, 4 * BLOCK: 7j,
               4 * BLOCK + 6: 1e-9 + 1e-9j, 5: 0j, 17: -7.3 + 0j,
               BLOCK + 1: -3e8 + 1e8j, 2 * BLOCK + 1: 1e300 - 0.5j,
               2 * BLOCK - 2: -7 - 1e-9j, 2 * BLOCK + 2: complex(0.0, seven),
               BLOCK - 2: 1e200 - 1e199j}
    for i, v in special.items():
        z[i] = v
    edges = tuple(range(BLOCK, size, BLOCK))
    checked = sorted(set(special).union(*(range(e - 32, min(e + 32, z.size))
                                          for e in edges)))
    scalar = np.array([vk.eval_w(z[i]) for i in checked])
    for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1,
              4 * BLOCK + 7, POOLED + 7):
        whole = vk.eval_batch(z[:n])
        idx = [i for i in checked if i < n]
        assert bitwise_equal(whole[idx], scalar[:len(idx)]), n
        for workers in (2, 3):
            assert bitwise_equal(vk.eval_batch(z[:n], workers=workers), whole), (n, workers)


def test_single_block_builds_no_pool(monkeypatch):
    # a pool starts only when every thread it runs gets _THREAD_BLOCKS of
    # the threaded blocks (2*BLOCK points each); otherwise the call runs
    # inline, with the bits of workers=1 either way
    pools = []
    real_pool = core.ThreadPoolExecutor

    def counted_pool(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return real_pool(*args, **kwargs)
    monkeypatch.setattr(core, "ThreadPoolExecutor", counted_pool)
    k, tb = core._THREAD_BLOCKS, 2 * BLOCK
    z = vk.generate_inputs(vk.InputSpec(size=3 * k * tb, seed=2))
    one = vk.eval_batch(z)
    for size, workers in ((BLOCK, 4), (2 * tb, 2), ((2 * k - 1) * tb, 2), (3 * tb, 3)):
        assert bitwise_equal(vk.eval_batch(z[:size], workers=workers), one[:size])
    assert pools == []        # fewer than _THREAD_BLOCKS blocks per worker
    for size, workers, threads in ((2 * k * tb, 2, 2), ((2 * k - 1) * tb + 1, 2, 2),
                                   (2 * k * tb, 3, 2), (3 * k * tb, 3, 3)):
        pools.clear()
        assert bitwise_equal(vk.eval_batch(z[:size], workers=workers), one[:size])
        assert pools == [threads], (size, workers)


def _untouched(func, z, *args, **kwargs):
    """Call ``func(z, ...)`` and check that z's bytes did not change.
    Returns the exception raised, or None."""
    before = z.tobytes()
    try:
        func(z, *args, **kwargs)
        raised = None
    except DomainError as exc:
        raised = exc
    assert z.tobytes() == before, func.__name__
    return raised


def test_no_batch_evaluator_writes_into_its_input():
    # the lower half-plane points are folded to -z inside each block; the
    # fold must work on copies, never through a view of the caller's array
    rng = np.random.default_rng(41)
    size = POOLED + 5                          # workers=2 runs on threads
    inside = rng.uniform(-4.5, 4.5, size) + 1j * rng.uniform(-4.5, 4.5, size)
    mixed = rng.uniform(-12, 12, size) + 1j * rng.uniform(-6, 12, size)
    line = vk.VoigtLine(center=0.0, strength=1.0, doppler_hwhm=1.0, lorentz_hwhm=0.5)
    for z in (inside, mixed, np.array([-1.5 - 0.5j])):
        assert z.dtype == np.complex128 and (z.imag < 0.0).any()
        for workers in (1, 2):
            assert _untouched(vk.eval_batch, z, workers=workers) is None
        up = z.copy()
        up.imag = np.abs(up.imag)
        for func in (vk.eval_eq3_batch, vk.eval_eq1_batch):
            assert isinstance(_untouched(func, z), DomainError)
            assert _untouched(func, up) is None
        assert _untouched(vk.voigt_profile, np.ascontiguousarray(z.real), line) is None


def test_first_error_across_blocks_is_lowest_index():
    # enough points that workers=2 runs on threads: lo and hi lie in the
    # first and second threaded block
    z = vk.generate_inputs(vk.InputSpec(size=POOLED + 7, seed=8))
    lo, hi = BLOCK + 5, 2 * BLOCK + 3
    for bad, err_type in ((complex(math.nan, 1.0), DomainError),
                          (-40j, ReflectionOverflowError)):
        zs = z.copy()
        zs[lo] = zs[hi] = bad
        with pytest.raises(err_type) as err:
            vk.eval_batch(zs, workers=2)
        assert err.value.index == lo, bad
    # eq1 rejects its singular points block by block, with the input's index
    zs = z.copy()
    zs[lo], zs[hi] = complex(4 * math.pi / 12, 0.0), 0j
    with pytest.raises(DomainError, match="denominator below guard radius") as err:
        vk.eval_eq1_batch(zs)
    assert err.value.index == lo
    assert f"at index {lo}:" in str(err.value) and str(err.value).endswith("k = 4")


@pytest.mark.parametrize("func,y_min", [(vk.eval_batch, 0.1), (vk.eval_batch, -5.0),
                                        (vk.eval_eq1_batch, 0.1), (vk.weideman_batch, 0.1)],
                         ids=["upper", "mixed", "eq1", "weideman"])
def test_peak_memory_is_output_plus_blocks(func, y_min):
    rng = np.random.default_rng(12)
    n = 1 << 20
    z = rng.uniform(-10, 10, n) + 1j * rng.uniform(y_min, 5.0, n)
    tracemalloc.start()
    try:
        out = func(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * out.nbytes, peak / out.nbytes


def test_guarded_elements_same_bits_in_any_company():
    # a near-axis element (on or near a removable singularity, or not)
    # evaluates identically alone, among unguarded points, among near-axis
    # ones and among the singular points of other terms and signs
    r = 0.5 * vk.GUARD_RADIUS
    singular = [complex(s * (k * math.pi + r) / 12, y)
                for k in (0, 1, 23) for s in (1, -1) for y in (0.0, r / 24)]
    points = singular + [complex(3 * math.pi / 12, 0.0), 0.1 + 0j, -7.3 + 0j,
                         complex((3 * math.pi + 1.01 * vk.GUARD_RADIUS) / 12, 0.0),
                         complex(24 * math.pi / 12, 0.0)]
    together = vk.eval_batch(np.array(points))
    for i, point in enumerate(points):
        alone = vk.eval_batch(np.array([point]))[:1]
        mixed = vk.eval_batch(np.array([1 + 1j, point, 2 + 3j]))[1:2]
        all_axis = vk.eval_batch(np.array([0.1 + 0j, point, 5.5 + 0j]))[1:2]
        assert bitwise_equal(mixed, alone), point
        assert bitwise_equal(all_axis, alone), point
        assert bitwise_equal(together[i:i + 1], alone), point


def test_domain_error_carries_index():
    zs = np.array([1 + 1j, np.nan + 1j, 2 + 2j])
    with pytest.raises(DomainError) as err:
        vk.eval_batch(zs)
    assert err.value.index == 1


@pytest.mark.parametrize("workers", [math.inf, math.nan, None, 0, -3, 2.5, "2", True])
def test_bad_workers_is_domain_error(workers):
    with pytest.raises(DomainError, match="workers must be an integer >= 1"):
        vk.eval_batch([1 + 1j], workers=workers)


def test_overflow_error_carries_index():
    zs = np.array([1 + 1j, 2 + 2j, -40j])
    with pytest.raises(ReflectionOverflowError) as err:
        vk.eval_batch(zs)
    assert err.value.index == 2


def test_reflected_overflow_in_second_block_carries_index():
    # exp(-z^2) is finite at -26.6364j, but 2*exp(-z^2) - w(-z) overflows
    z = vk.generate_inputs(vk.InputSpec(size=2 * BLOCK + 5, seed=4))
    i = BLOCK + 3
    z[i] = -26.6364j
    for workers in (1, 2):
        with pytest.raises(ReflectionOverflowError) as err:
            vk.eval_batch(z, workers=workers)
        assert err.value.index == i
        assert f"at index {i} " in str(err.value)


def test_eq3_batch_rejects_lower_half_with_index():
    zs = np.array([1 + 1j, 1 - 1j])
    with pytest.raises(DomainError) as err:
        vk.eval_eq3_batch(zs)
    assert err.value.index == 1


def test_eq1_batch_matches_scalars(high):
    rng = np.random.default_rng(3)
    zs = rng.uniform(-8, 8, 300) + 1j * rng.uniform(0.05, 30, 300)
    batch = vk.eval_eq1_batch(zs, high)
    scalar = np.array([vk.eval_eq1(z, high) for z in zs], dtype=np.complex128)
    assert bitwise_equal(batch, scalar)


def test_eq1_batch_in_gate_near_axis_at_large_x(high):
    # the raw terms lose all accuracy to cancellation far out near the axis
    # (2e-7 at |x| ~ 1e11, 1.0 at 1e16); the quadrature from |z| = 1e8 on
    # keeps eq1 in gate
    from scipy.special import wofz
    rng = np.random.default_rng(1116)
    for d in range(6, 16):
        x = 10.0 ** rng.uniform(d, d + 1, 2000) * rng.choice([-1.0, 1.0], 2000)
        y = np.where(rng.random(2000) < 0.25, 0.0, 10.0 ** rng.uniform(-6, 1, 2000))
        z = x + 1j * y
        ref = wofz(z)
        err = np.abs(vk.eval_eq1_batch(z, high) - ref) / np.abs(ref)
        assert err.max() <= 1e-10, (d, err.max())


def test_eq1_batch_reports_singular_index():
    zs = np.array([1 + 1j, complex(5 * math.pi / 12, 0.0)])
    with pytest.raises(DomainError) as err:
        vk.eval_eq1_batch(zs)
    assert err.value.index == 1


def test_eq1_singular_index_in_a_block_with_both_regions():
    # quadrature points (|z| >= 1e8) before the singular point in its block:
    # its place among the block's series points is not its input index
    bad = complex(5 * math.pi / 12, 0.0)
    z = np.random.default_rng(3).uniform(-5, 5, BLOCK + 9) + 2j
    z[[BLOCK + 1, BLOCK + 2]] = 2e8 + 1j
    z[BLOCK + 4] = bad
    for zs, i in ((np.array([1 + 1j, 2e8 + 1j, bad]), 2), (z, BLOCK + 4)):
        with pytest.raises(DomainError) as err:
            vk.eval_eq1_batch(zs)
        assert err.value.index == i
        assert f"at index {i}:" in str(err.value)


# (batch, scalar, a finite point outside the function's half-plane or None)
VALIDATED = {
    "eval_batch": (vk.eval_batch, vk.eval_w, None),
    "eval_eq3_batch": (vk.eval_eq3_batch, vk.eval_eq3, 1 - 1j),
    "voigt_function": (vk.eval_eq3_batch,
                       lambda z: vk.voigt_function(z.real, z.imag), 1 - 1j),
    "eval_eq1_batch": (vk.eval_eq1_batch, vk.eval_eq1, 1 - 0.5j),
    "weideman_batch": (vk.weideman_batch, vk.weideman_w, 2 + 0j),
}


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_validation_contract(name):
    batch, scalar, outside = VALIDATED[name]
    bads = [complex(math.nan, 1.0), complex(1.0, math.inf), complex(-math.inf, 0.5)]
    if outside is not None:
        bads.append(outside)
    for bad in bads:
        with pytest.raises(DomainError) as err:
            scalar(bad)
        assert err.value.index == 0, bad
        with pytest.raises(DomainError) as err:
            batch(np.array([1 + 1j, 2 + 0.5j, bad, bad]))
        assert err.value.index == 2, bad
    # a non-finite element is reported before an earlier out-of-half-plane one
    lower = 1 - 1j if outside is None else outside
    with pytest.raises(DomainError) as err:
        batch(np.array([1 + 1j, lower, complex(math.nan, 1.0)]))
    assert err.value.index == 2


@pytest.mark.parametrize("lo,hi,bound", [(1e-6, 1e-5, 1e-10), (1e-3, 1e-2, 1e-14)])
def test_guard_edge_band_near_zero(lo, hi, bound):
    # |tau*z| just outside the guard radius of 0, and just outside the
    # kernel's own patch radius, where a plain 1 - exp(i*tau*z) would lose
    # eps/|tau*z| (1e-13 there)
    from scipy.special import wofz
    rng = np.random.default_rng(2024)
    r = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), 20_000) / 12.0
    z = r * np.exp(1j * rng.uniform(0.0, math.pi, r.size))
    w = vk.eval_batch(z, vk.Preset.HIGH.params)
    assert (np.abs(w - wofz(z)) / np.abs(wofz(z)) <= bound).all()


def test_guard_edge_bands_near_k_pi_in_gate():
    # tau*z just outside the guard radius of +-k*pi, on and near the axis
    from scipy.special import wofz
    x = np.array([s * (k * math.pi + e * d) / 12.0 for k in range(1, 24)
                  for s in (1, -1) for e in (1, -1) for d in (1.0001e-6, 2e-6, 3e-6)])
    z = (x[:, None] + 1j * np.array([0.0, 1e-9, 1e-8, 5e-8])).ravel()
    w = vk.eval_batch(z, vk.Preset.HIGH.params)
    assert (np.abs(w - wofz(z)) / np.abs(wofz(z)) <= 1e-10).all()


@pytest.mark.parametrize("preset,gate", [(vk.Preset.HIGH, 1e-10), (vk.Preset.FAST, 1e-5)])
def test_tiny_z_in_gate_without_warnings(preset, gate):
    # at |tau*z| below 1/DBL_MAX, (1 - B)/A overflows before the patch near
    # 0 replaces it; no warning may escape
    from scipy.special import wofz
    z = np.array([0, 1e-300j, 5e-324, -5e-324j, 1e-160 * (1 + 1j), -1e-200 * (1 + 1j), 1e-17])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = vk.eval_batch(z, preset.params)
    ref = wofz(z)
    assert (np.abs(w - ref) / np.abs(ref) <= gate).all()


def _far_reference(z: complex) -> complex:
    """i/(sqrt(pi)*z)*(1 + 1/(2z^2)), w's expansion at |z| >= 1e8 to within
    1e-32 of each component, from 60 digits, each component correctly
    rounded (exact binary value of the mpf, then Fraction -> float)."""
    def rounded(v):
        sign, man, exp, _ = v._mpf_
        f = Fraction(man) * Fraction(2) ** exp
        return float(-f if sign else f)
    with mp.workdps(60):
        q = mp.mpc(z.real, z.imag)
        w = 1j / (mp.sqrt(mp.pi) * q) * (1 + 1 / (2 * q * q))
        return complex(rounded(w.real), rounded(w.imag))


def _ulps(w: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Componentwise distance in units of the spacing at the reference
    (5e-324 at a zero component)."""
    return np.maximum(np.abs(w.real - ref.real) / np.spacing(np.abs(ref.real)),
                      np.abs(w.imag - ref.imag) / np.spacing(np.abs(ref.imag)))


@pytest.mark.parametrize("tau_m,preset,gate", [(12.0, vk.Preset.HIGH, 1e-10),
                                               (9.0, vk.Preset.FAST, 1e-5)])
def test_domain_bound_at_large_z(tau_m, preset, gate):
    # every finite z gets a value up to DBL_MAX, with no RuntimeWarning: the
    # series below |z| = 1e8, in gate against wofz, and from there on the
    # Gauss-Hermite quadrature, whatever the preset, within 4 ulp of each
    # component of w even where wofz returns 0.  The points include those
    # on either side of the former range bound sqrt(DBL_MAX)/(2*tau_m) and
    # the lower half-plane points whose exp(-z^2) underflows, also where
    # both components exceed sqrt(DBL_MAX) = 1.34e154 and z*z would overflow
    from scipy.special import wofz
    bound = math.sqrt(sys.float_info.max) / (2.0 * tau_m)
    r = np.nextafter(bound, 0.0)
    big = sys.float_info.max
    below = np.nextafter(1e8, 0.0)
    series = np.concatenate([
        [below + 0j, below * 1j, -below + 0.5j, 3 + 4j, 1e-3j],
        (10.0 ** np.arange(0, 8) * np.array([[1], [1j], [1 + 1j], [-1 + 1e-3j]])).ravel()])
    decades = 10.0 ** np.arange(60, 151)
    wide = 10.0 ** np.arange(153, 309)
    far = np.concatenate([
        [r + 0j, r * 1j, r + r * 1j, -r + r * 1j, r + 1j, 1 + r * 1j,
         r - 1j, -r - 0.5j, 1e152 + 3e152j],
        [bound * 1j, complex(-bound, 1.0), 1e155j],
        [1e8 + 0j, 1e8j, 1e8 * (1 + 1j)],
        decades + 0j, decades * 1j, decades * (1 + 1j),
        wide + 0j, wide * 1j, wide * (1 + 1j), -wide + wide * 1j,
        [complex(sx * big, sy * big) for sx in (1, -1) for sy in (0, 1)],
        [big * 1j, complex(big, 1.0), complex(-big, 1.0), complex(1.0, big),
         complex(big, -1.0), complex(-big, -0.5)],
        [1e200 - 1e199j, -1e300 - 1e299j, 1.79e308 - 1e308j]])
    up = far[far.imag >= 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w_series = vk.eval_batch(series, preset.params)
        w_far = vk.eval_batch(far, preset.params)
        w_eq3 = vk.eval_eq3_batch(up, preset.params)
        w_eq1 = vk.eval_eq1_batch(up, preset.params)
    ref = wofz(series)
    assert np.isfinite(w_series).all() and np.isfinite(w_far).all()
    assert (np.abs(w_series - ref) / np.abs(ref) <= gate).all()
    ref = np.array([_far_reference(z) for z in far])
    err = _ulps(w_far, ref)
    assert err.max() <= 4.0, (err.max(), far[err.argmax()])
    # one quadrature: the three batch evaluators agree bit for bit
    assert w_eq3.tobytes() == w_far[far.imag >= 0.0].tobytes()
    assert w_eq1.tobytes() == w_eq3.tobytes()
    # beyond sqrt(DBL_MAX), exp(-z^2) still overflows where |Im z| > |Re z|
    with pytest.raises(ReflectionOverflowError) as err:
        vk.eval_batch(np.array([1 + 1j, 1e199 - 1e200j]), preset.params)
    assert err.value.index == 1


@pytest.mark.parametrize("batch,scalar", [(vk.eval_eq3_batch, vk.eval_eq3),
                                          (vk.eval_eq1_batch, vk.eval_eq1)])
@pytest.mark.parametrize("preset", [vk.Preset.HIGH, vk.Preset.FAST])
def test_series_forms_edge_at_far(batch, scalar, preset):
    # |z| = 1e8 is where the series forms hand over to the quadrature: on
    # both sides of it, in several directions, a scalar call has the bits of
    # the batch, the conjugation symmetry w(-conj z) = conj w(z) is exact
    # (up to the sign of a zero), and no warning escapes
    below = np.nextafter(1e8, 0.0)
    z = np.array([r * d / abs(d) for r in (below, 1e8)
                  for d in (1, 1j, -1, 1 + 1j, -1 + 1j, 1 + 1e-3j, -1 + 1e-3j)]
                 + [complex(below, 1e-300), complex(1e8, 5e-324), complex(-1e8, 1e-300)])
    p = preset.params
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = batch(z, p)
        one = np.array([scalar(q, p) for q in z])
        mirrored = batch(-z.conj(), p)
    assert np.isfinite(whole).all()
    assert whole.tobytes() == one.tobytes()
    assert (mirrored == whole.conj()).all()
