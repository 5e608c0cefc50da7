"""Pointwise invariants of the evaluators (the heavyweight sweeps live in
the acceptance suite)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voigtkit as vk

from conftest import ulps_apart

finite_x = st.floats(-12.0, 12.0)
upper_y = st.floats(0.0, 30.0)


@settings(max_examples=200, deadline=None)
@given(x=finite_x, y=upper_y)
def test_eq3_conjugation_symmetry(x, y):
    z = complex(x, y)
    assert ulps_apart(vk.eval_eq3(complex(-x, y)), vk.eval_eq3(z).conjugate()) <= 2


@settings(max_examples=100, deadline=None)
@given(x=finite_x, y=st.floats(1e-6, 30.0))
def test_eval_w_conjugation_symmetry(x, y):
    z = complex(x, y)
    assert ulps_apart(vk.eval_w(complex(-x, y)), vk.eval_w(z).conjugate()) <= 2


@settings(max_examples=100, deadline=None)
@given(x=st.floats(-3.0, 3.0), y=st.floats(1e-3, 3.0))
def test_reflection_identity(x, y):
    # restricted to where exp(-z^2) is large enough for binary64 to certify
    # the 1e-10 bound (the residual scales with |w|/|exp(-z^2)|)
    if y * y - x * x < -10.0:
        x = math.copysign(math.sqrt(y * y + 10.0) - 1e-3, x)
    z = complex(x, y)
    lhs = vk.eval_w(z) + vk.eval_w(-z)
    rhs = 2.0 * np.exp(-(np.complex128(z) ** 2))
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_real_axis_identity_including_guarded_points(high):
    xs = list(np.linspace(-6.0, 6.0, 241))
    xs += [n * math.pi / 12 for n in range(-22, 23)]
    for x in xs:
        w = vk.eval_eq3(complex(x, 0.0), high)
        assert abs(w.real - math.exp(-x * x)) <= 1e-8, f"at x = {x}"


@pytest.mark.bitwise
def test_batch_output_independent_of_partitioning():
    rng = np.random.default_rng(31)
    zs = rng.uniform(-10, 10, 9999) + 1j * rng.uniform(0.001, 10, 9999)
    whole = vk.eval_batch(zs)
    for cut in (1, 137, 5000, 9998):
        parts = np.concatenate([vk.eval_batch(zs[:cut]), vk.eval_batch(zs[cut:])])
        assert parts.tobytes() == whole.tobytes()
    assert vk.eval_batch(zs, workers=5).tobytes() == whole.tobytes()


def test_voigt_normalization_quadrature_quick():
    # integral of K(x, y) over the real line is sqrt(pi); quadrature to
    # |x| <= 200 plus the analytic Lorentzian tail 2*atan(y/200)/sqrt(pi)
    from scipy.integrate import quad
    y = 1.0
    val, err = quad(lambda x: vk.voigt_function(x, y), -200.0, 200.0,
                    limit=400, epsabs=1e-12, epsrel=1e-12)
    total = val + 2.0 * math.atan2(y, 200.0) / math.sqrt(math.pi)
    assert abs(total - math.sqrt(math.pi)) <= 1e-6 * math.sqrt(math.pi)
    assert err < 1e-9


@settings(max_examples=60, deadline=None)
@given(y=st.floats(1e-3, 60.0))
def test_imaginary_axis_is_real_valued(y):
    w = vk.eval_eq3(complex(0.0, y))
    assert w.imag == 0.0
    assert w.real > 0.0


def test_error_scan_monotone_when_adding_points(fast):
    ev = lambda zs: vk.eval_eq3_batch(zs, fast)
    base_x = [0.25, 1.0, 2.5]
    base_y = [0.01, 1.0]
    small = vk.error_scan(vk.GridSpec(x_values=base_x, y_values=base_y), ev)
    grown = vk.error_scan(vk.GridSpec(x_values=base_x + [4.75, 9.5],
                                      y_values=base_y + [0.001]), ev)
    assert grown.max_abs_err >= small.max_abs_err
    assert grown.max_rel_err >= small.max_rel_err
