import math
import statistics
import warnings

import numpy as np
import pytest

import voigtkit as vk
from voigtkit import DomainError, WeidemanCoeffs, weideman_coefficients, weideman_w
from voigtkit.bench import ACCURACY_GATES, _timed_runs

from conftest import ulps_apart


def rel_err(z, coeffs, digits=30):
    ref = complex(vk.oracle_w(z, digits))
    return abs(weideman_w(z, coeffs) - ref) / abs(ref)


def test_l_param_formula():
    c = weideman_coefficients(16)
    ref = math.sqrt(16 / math.sqrt(2))
    assert c.l_param == ref
    assert c.l_param == pytest.approx(3.363585661014858, rel=0, abs=1e-15)


def test_poly_length_and_realness():
    for degree in (8, 16, 32):
        c = weideman_coefficients(degree)
        assert c.poly.shape == (degree,)
        assert c.poly.dtype == np.float64
        assert np.isfinite(c.poly).all()


def test_transform_imaginary_residue_small():
    # re-derive the transform and check the discarded imaginary part
    degree = 16
    m = 2 * degree
    m2 = 2 * m
    k = np.arange(-m + 1, m)
    L = math.sqrt(degree / math.sqrt(2))
    t = L * np.tan(0.5 * k * np.pi / m)
    f = np.concatenate([[0.0], np.exp(-t * t) * (L * L + t * t)])
    spectrum = np.fft.fft(np.fft.fftshift(f)) / m2
    assert np.abs(spectrum[1:degree + 1].imag).max() < 1e-13
    assert np.allclose(spectrum[1:degree + 1].real[::-1],
                       weideman_coefficients(degree).poly, rtol=0, atol=0)


def test_accuracy_at_i():
    assert rel_err(1j, weideman_coefficients(16)) <= 1e-6


def test_accuracy_improves_with_degree_at_1p1j():
    e16 = rel_err(1 + 1j, weideman_coefficients(16))
    e32 = rel_err(1 + 1j, weideman_coefficients(32))
    assert e32 < e16


def test_accuracy_monotone_on_fixed_grid():
    rng = np.random.default_rng(11)
    zs = rng.uniform(-8, 8, 100) + 1j * rng.uniform(0.1, 10, 100)
    ref = np.array([complex(vk.oracle_w(z, 30)) for z in zs])
    worst = {}
    for degree in (8, 16, 32):
        w = vk.weideman_batch(zs, weideman_coefficients(degree))
        worst[degree] = float((np.abs(w - ref) / np.abs(ref)).max())
    assert worst[32] < worst[16] < worst[8]


@pytest.mark.parametrize("degree", [8, 16, 32])
def test_accuracy_class_from_origin_to_far_field(degree):
    # |z| log-uniform in [1e-3, 1e300] over the open upper half-plane, and
    # the strip |x| <= 8 with y log-uniform in [1e-3, 10], against scipy's
    # wofz (the oracle takes minutes per point near the axis at large |x|)
    from scipy.special import wofz

    rng = np.random.default_rng(2601)
    r = 10.0 ** rng.uniform(-3, 300, 30000)
    theta = np.pi * (1.0 - rng.random(30000))        # in (0, pi]
    far = r * np.cos(theta) + 1j * (r * np.sin(theta))
    strip = rng.uniform(-8, 8, 10000) + 1j * 10.0 ** rng.uniform(-3, 1, 10000)
    zs = np.concatenate([far, strip])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w = vk.weideman_batch(zs, weideman_coefficients(degree))
    ref = wofz(zs)
    worst = float((np.abs(w - ref) / np.abs(ref)).max())
    assert worst <= ACCURACY_GATES[("weideman", degree)], worst


def test_near_conjugate_symmetry():
    c = weideman_coefficients(16)
    eps = 1e-7
    a = weideman_w(complex(eps, 1.0), c)
    b = weideman_w(complex(-eps, 1.0), c)
    assert ulps_apart(a, b.conjugate()) <= 2


def test_limit_toward_origin():
    c = weideman_coefficients(16)
    w = weideman_w(1e-12 + 1e-12j, c)
    assert abs(w - 1.0) <= 1e-5


def test_fixed_per_element_cost_is_documented_by_shape():
    # Horner length depends only on degree, never on z
    c = weideman_coefficients(16)
    assert c.degree == 16
    assert len(c.poly) == 16


def test_fixed_cost_baseline_throughput():
    # the per-element algorithm never adapts to z, so throughput is flat
    # across input distributions and sizes.  The batch runs in the core's
    # blocks, so every configuration works in cache-sized temporaries and
    # the input size moves only the streaming of input and output; numpy's
    # complex division takes value-dependent branches, and the kernel's one
    # division per point still spreads the rates by ~10% around their
    # geometric mean, hence the 25% band: an adaptive method would vary by
    # integer factors.
    # The four configurations run round-robin, so that a slow phase of the
    # machine falls on all of them alike, and each is scored by its median.
    inputs = [vk.generate_inputs(vk.InputSpec(size=1 << 21, seed=9, y_range=y_range))
              for y_range in ((0.1, 1.0), (5.0, 50.0))]
    inputs += [vk.generate_inputs(vk.InputSpec(size=1 << p, seed=9)) for p in (21, 22)]
    c = weideman_coefficients(16)
    times = _timed_runs([(lambda zs: vk.weideman_batch(zs, c), zs) for zs in inputs],
                        repeats=7)
    thr = [zs.size / statistics.median(t) for zs, t in zip(inputs, times)]
    center = float(np.prod(thr)) ** (1.0 / len(thr))
    ratios = [t / center for t in thr]
    assert all(0.75 <= r <= 1.25 for r in ratios), ratios


@pytest.mark.parametrize("degree", [3, 7, 2, 0, -4, 10.5, math.inf, math.nan])
def test_bad_degree_rejected(degree):
    with pytest.raises(DomainError):
        weideman_coefficients(degree)


@pytest.mark.parametrize("z", [1.0 + 0j, 2 - 1j, 0j])
def test_rejects_closed_lower_half_plane(z):
    with pytest.raises(DomainError):
        weideman_w(z, weideman_coefficients(16))


@pytest.mark.bitwise
def test_batch_matches_scalars():
    rng = np.random.default_rng(21)
    zs = rng.uniform(-5, 5, 200) + 1j * rng.uniform(0.05, 5, 200)
    c = weideman_coefficients(16)
    batch = vk.weideman_batch(zs, c)
    scalar = np.array([weideman_w(z, c) for z in zs], dtype=np.complex128)
    assert batch.tobytes() == scalar.tobytes()


def test_batch_rejects_with_index():
    zs = np.array([1 + 1j, 2 + 0j])
    with pytest.raises(DomainError) as err:
        vk.weideman_batch(zs)
    assert err.value.index == 1


@pytest.mark.parametrize("coeffs", [16, vk.Preset.HIGH])
def test_coeffs_of_another_type_is_type_error(monkeypatch, coeffs):
    # refused before the input is converted or the lock is taken
    def batch(*args, **kwargs):
        raise AssertionError("the batch entry path ran")

    monkeypatch.setattr(vk.weideman, "_batch", batch)
    with pytest.raises(TypeError, match="expected WeidemanCoeffs or None"):
        vk.weideman_batch([1 + 1j], coeffs)
    with pytest.raises(TypeError, match="expected WeidemanCoeffs or None"):
        weideman_w(1 + 1j, coeffs)


def test_coeffs_validation():
    # l_param and poly are computed from the degree, not passed
    good = weideman_coefficients(8)
    with pytest.raises(TypeError):
        WeidemanCoeffs(degree=8, l_param=good.l_param)
    with pytest.raises(TypeError):
        WeidemanCoeffs(degree=8, poly=good.poly)
    for degree in (2, 7, True):
        with pytest.raises(DomainError):
            WeidemanCoeffs(degree)
