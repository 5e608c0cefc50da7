"""The series kernel's term loop (core._w_upper): its bits on either side of
numpy's copy-buffer edge and of the series region's radius, and the
caller's ufunc buffer size, which the loop changes for its own duration
only."""

import math

import numpy as np
import pytest

import voigtkit as vk
from voigtkit import ReflectionOverflowError, core

BLOCK = core._BLOCK
POOLED = 4 * core._THREAD_BLOCKS * BLOCK      # from here workers=2 runs on threads
PRESETS = (vk.Preset.HIGH, vk.Preset.FAST)


def _series_points(n, rng):
    """``n`` points with |z| < 7, all on the series path: half of them near
    the singular points k*pi/tau_m of both presets (offsets 0 and 1e-12 to
    1e-2 along the axis, up and down), every eighth of the rest on the real
    axis, and the rest spread over the disk, half below the axis."""
    r = 6.99 * np.sqrt(rng.random(n))
    z = r * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    z[::8] = z[::8].real + 0j
    near = rng.random(n) < 0.5
    m = int(near.sum())
    tau, n_terms = np.array([p.value for p in PRESETS])[rng.integers(0, len(PRESETS), m)].T
    k = np.rint(rng.uniform(-1.0, 1.0, m) * n_terms)
    d = np.where(rng.random(m) < 0.1, 0.0, 10.0 ** rng.uniform(-12.0, -2.0, m))
    d = d * np.exp(1j * rng.choice([0.0, 0.5, 1.0, 1.5], m) * math.pi)
    z[near] = (k * math.pi + d) / tau
    edges = [math.pi / 12.0, -23.0 * math.pi / 12.0 + 1e-3j / 12.0, 0j,
             12.0 * math.pi / 9.0 - 1e-4j / 9.0, 6.99j, -6.99j]
    z[:len(edges)] = edges[:n]
    return z


@pytest.mark.bitwise
@pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.name)
@pytest.mark.parametrize("n", [1, 2730, 2731, 4096, BLOCK + 5])
def test_series_batch_is_scalar_sweep_across_buffer_edge(n, preset):
    # under numpy's default buffer, the term table's broadcasts are copied
    # through the buffer up to 2730 series points and run unbuffered from
    # 2731 on; the loop runs unbuffered at every size, and the bits of a
    # batch equal those of scalar calls on either side of that edge and
    # across two blocks: a seeded sample, the edge points and both ends
    rng = np.random.default_rng(2730 + n)
    z = _series_points(n, rng)
    assert (np.abs(z) < core._R_GH).all()
    w = vk.eval_batch(z, preset)
    at = np.unique(np.concatenate([np.arange(min(n, 6)), [n - 1],
                                   rng.choice(n, min(n, 64), replace=False)]))
    scalar = np.array([vk.eval_w(q, preset) for q in z[at]])
    assert np.isfinite(w).all()
    assert w[at].tobytes() == scalar.tobytes()


def _ring(radius, lower):
    """Points within a few ulps of |z| = ``radius``: 101 angles over the
    upper half-plane (the whole plane if ``lower``), each at the radii
    radius*(1 + k*2^-52), k = -4..4."""
    theta = np.linspace(-math.pi if lower else 0.0, math.pi, 101)
    r = radius * (1.0 + np.arange(-4, 5) * 2.0 ** -52)
    return (r[:, None] * np.exp(1j * theta)).ravel()


RINGS = {
    "eval_batch": (vk.eval_batch, vk.eval_w, core._R_GH, True),
    "eval_eq3_batch": (vk.eval_eq3_batch, vk.eval_eq3, core._FAR, False),
    "eval_eq1_batch": (vk.eval_eq1_batch, vk.eval_eq1, core._FAR, False),
}


@pytest.mark.bitwise
@pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.name)
@pytest.mark.parametrize("name", RINGS)
def test_region_edge_ring_batch_is_scalar_sweep(name, preset):
    # the region split is numpy's |z| < radius, at 7 for eval_batch and at
    # 1e8 for the series forms: points within rounding of the radius fall
    # on either side, and on the same side in a batch as alone
    batch, scalar, radius, lower = RINGS[name]
    z = _ring(radius, lower)
    inner = np.abs(z) < radius
    assert inner.any() and not inner.all()
    w = batch(z, preset)
    assert np.isfinite(w).all()
    assert w.tobytes() == np.array([scalar(q, preset) for q in z]).tobytes()


def _overflowing_call():
    # one block: series points and the lower half-plane point 1 - 30i,
    # whose 2*exp(-z^2) overflows
    with pytest.raises(ReflectionOverflowError) as err:
        vk.eval_batch(np.array([1 + 1j, 2 - 0.5j, 1 - 30j, 0.5 + 0j]))
    assert err.value.index == 2


_LINE = vk.VoigtLine(center=0.0, strength=1.0, doppler_hwhm=0.1, lorentz_hwhm=0.05)
_POINTS = np.random.default_rng(8).uniform(-8.0, 8.0, POOLED) + 0.3j

CALLS = {
    "eval_batch": lambda: vk.eval_batch(_POINTS[:4096]),
    "eval_batch_pooled": lambda: vk.eval_batch(_POINTS, workers=2),
    "voigt_profile": lambda: vk.voigt_profile(np.linspace(-1.0, 1.0, 4096), _LINE),
    "eval_w": lambda: vk.eval_w(1.5 + 0.5j),
    "reflection_overflow": _overflowing_call,
}


@pytest.mark.parametrize("size", [None, 4096], ids=["default", "caller_set"])
@pytest.mark.parametrize("name", CALLS)
def test_caller_keeps_its_buffer_size(name, size):
    # the term loop runs under a small ufunc buffer; the caller reads its
    # own size, numpy's default or one it set itself, after every call
    with np.errstate():
        if size is not None:
            np.setbufsize(size)
        before = np.getbufsize()
        CALLS[name]()
        assert np.getbufsize() == before
