"""The Gauss-Hermite region of eval_batch: from |z| = 7 (core._R_GH) up to
components of DBL_MAX w is the 12-point Gauss-Hermite quadrature, not the
series (the series forms take it from core._FAR = 1e8 on).  Its accuracy
against the oracle and mpmath, and the batch contracts at the edge of the
region and at 1e8."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

import voigtkit as vk
from voigtkit import core


def test_singular_points_inside_series_region():
    # the guard-band tests reach the series' patch through eval_batch, so
    # every singular point k*pi/tau of the presets must take the series
    for preset in vk.Preset:
        tau, n_terms = preset.value
        assert n_terms * math.pi / tau < core._R_GH


def test_gauss_hermite_in_gate_against_oracle():
    rng = np.random.default_rng(707)
    shell = rng.uniform(7.0, 7.7, 120) * np.exp(1j * rng.uniform(0.0, math.pi, 120))
    decades = []
    for d in range(1, 8):
        r = 10.0 ** rng.uniform(d, d + 1, 12)
        lo = np.arcsin(1.0 / r)            # Im z >= 1: the oracle's fraction route
        decades.append(r * np.exp(1j * rng.uniform(lo, math.pi - lo)))
    axis = rng.uniform(7.0, 40.0, 40) * rng.choice([-1.0, 1.0], 40)
    z = np.concatenate([shell, *decades, axis + 0j,
                        [7.0, -7.0, 7j, 7.7, -7.7j, np.nextafter(1e8, 0.0) * 1j]])
    # the lower half-plane goes through the reflection of the same values
    z = np.concatenate([z, -z[:60]])
    w = vk.eval_batch(z)
    ref = np.array([complex(vk.oracle_w(complex(q), 30)) for q in z])
    rel = np.abs(w - ref) / np.abs(ref)
    assert rel.max() <= 1e-14, (rel.max(), z[rel.argmax()])


def _mp_w(z: complex) -> complex:
    with mp.workdps(40):
        q = mp.mpc(z.real, z.imag)
        return complex(mp.exp(-q * q) * mp.erfc(-1j * q))


@pytest.mark.parametrize("y", [1e-8, 1e-4, 1e-2, 1.0])
def test_voigt_K_and_L_each_relative_near_axis(y):
    # K = Re w is O(y) beside |w| ~ 1/|x|; each term of the quadrature adds
    # a positive part to it, so K keeps its relative accuracy down to where
    # the Gaussian term exp(y^2 - x^2)*cos(2xy), which the quadrature lacks,
    # shows (4.5e-12 of K at x = 7, y = 1e-8)
    rng = np.random.default_rng(int(-math.log10(y)) + 1)
    x = np.concatenate([[7.0, 1e3], rng.uniform(7.0, 12.0, 40),
                        10.0 ** rng.uniform(math.log10(12.0), 3.0, 40)])
    x = np.concatenate([x, -x])
    z = x + 1j * y
    w = vk.eval_batch(z)
    ref = np.array([_mp_w(q) for q in z])
    re_rel = np.abs(w.real - ref.real) / np.abs(ref.real)
    im_rel = np.abs(w.imag - ref.imag) / np.abs(ref.imag)
    assert re_rel.max() <= 1e-11, (re_rel.max(), z[re_rel.argmax()])
    assert im_rel.max() <= 1e-11, (im_rel.max(), z[im_rel.argmax()])


def _edge_points():
    """|z| just below 7, at 7 and at 1e8, in several directions and both
    half-planes."""
    below = np.nextafter(7.0, 0.0)
    pts = []
    for r in (below, 7.0, 1e8):
        for d in (1, 1j, -1, 1 + 1j, -1 + 1j, 1 - 1e-3j, -1 - 1e-3j):
            pts.append(r * d / abs(d))
    return np.array(pts + [-1j * below, -7j, complex(below, 1e-300), complex(-7.0, 1e-300),
                           complex(7.0, 5e-324), complex(1e8, 1e-300)])


@pytest.mark.parametrize("preset", [vk.Preset.HIGH, vk.Preset.FAST])
def test_region_edges_contracts(preset):
    z = _edge_points()
    p = preset.params
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = vk.eval_batch(z, p)
        scalar = np.array([vk.eval_w(q, p) for q in z])
        # enough copies that workers=2 and workers=3 run on threads
        tiled = np.tile(z, 4 * core._THREAD_BLOCKS * core._BLOCK // z.size + 7)
        one = vk.eval_batch(tiled, p)
        two = vk.eval_batch(tiled, p, workers=2)
        three = vk.eval_batch(tiled, p, workers=3)
        up = z[z.imag >= 0.0]
        mirrored = vk.eval_batch(-up.conj(), p)
    assert np.isfinite(whole).all()
    assert whole.tobytes() == scalar.tobytes()
    assert one.tobytes() == np.tile(whole, tiled.size // z.size).tobytes()
    assert two.tobytes() == one.tobytes() and three.tobytes() == one.tobytes()
    assert (mirrored == whole[z.imag >= 0.0].conj()).all()


def test_voigt_function_is_batch_real_part():
    # both sides of |z| = 7: the series and the quadrature
    rng = np.random.default_rng(77)
    r = np.concatenate([rng.uniform(6.0, 8.0, 400), [np.nextafter(7.0, 0.0), 7.0]])
    th = np.concatenate([rng.uniform(0.0, math.pi, 400), [0.0, 0.0]])
    th[::9] = 0.0
    z = r * np.exp(1j * th)
    z.imag[th == 0.0] = 0.0
    k = np.array([vk.voigt_function(q.real, q.imag) for q in z])
    assert k.tobytes() == vk.eval_batch(z).real.tobytes()
    for x, y in ((math.nan, 1.0), (8.0, -1e-9)):
        with pytest.raises(vk.DomainError) as err:
            vk.voigt_function(x, y)
        assert err.value.index == 0
    with pytest.raises(vk.DomainError, match="voigt_function requires Im z >= 0"):
        vk.voigt_function(8.0, -1e-9)


def _quadrature_points(n, rng):
    """``n`` points with 7 <= |z| <= 1.7e308, half of them log-uniform and
    half uniform in [7, 30), where the Horner terms past the first still
    count; every eighth on the real axis, every other one moved below the
    axis where its reflection is representable (|Im z| <= |Re z|, 2xy
    finite), and the first ones at the edges: +-7, +-7i, +-1.7e308."""
    r = np.where(rng.random(n) < 0.5, rng.uniform(7.0, 30.0, n),
                 np.exp(rng.uniform(math.log(7.0), math.log(1.7e308), n)))
    th = rng.uniform(0.0, math.pi, n)
    x, y = r * np.cos(th), r * np.sin(th)
    x[::8] = np.where(x[::8] < 0.0, -r[::8], r[::8])
    y[::8] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):      # 2x overflows on the axis
        below = (np.arange(n) % 2 == 1) & (y <= np.abs(x)) & np.isfinite(2.0 * x * y)
    z = x + 1j * np.where(below, -y, y)
    edges = [7.0, -7.0, 7j, -7j, 1.7e308, -1.7e308]
    z[:len(edges)] = edges[:n]
    return z


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8193])
def test_quadrature_batch_is_scalar_sweep_across_buffer_edge(n):
    # numpy's iterator buffers ops of up to 8192 elements, so the flat
    # Horner loops must give the same bits on either side of 4096 points
    # (two rows) and of 8192 (one row) as on one point; a seeded sample of
    # scalar calls, the edge points and both ends of the batch included
    rng = np.random.default_rng(4096 + n)
    z = _quadrature_points(n, rng)
    assert (np.abs(z) >= core._R_GH).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = vk.eval_batch(z)
        at = np.unique(np.concatenate([np.arange(min(n, 6)), [n - 1],
                                       rng.choice(n, min(n, 64), replace=False)]))
        scalar = np.array([vk.eval_w(q) for q in z[at]])
    assert np.isfinite(w).all()
    assert w[at].tobytes() == scalar.tobytes()
