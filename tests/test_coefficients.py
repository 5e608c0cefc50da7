import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voigtkit as vk
from voigtkit import DomainError, fourier_coefficients

# 2*sqrt(pi)/tau evaluated at 30 digits
A0_TAU12 = 0.2954089751509193378830279
A0_TAU9 = 0.3938786335345591171773706


def test_a0_high_preset():
    p = fourier_coefficients(12.0, 23)
    assert p.coefficients[0] == pytest.approx(A0_TAU12, rel=1e-15)


def test_a0_fast_preset():
    p = fourier_coefficients(9.0, 12)
    assert p.coefficients[0] == pytest.approx(A0_TAU9, rel=1e-15)


def test_table_shape_and_positivity():
    p = fourier_coefficients(12.0, 23)
    assert p.coefficients.shape == (24,)
    assert (p.coefficients > 0).all()


def test_strictly_decreasing():
    p = fourier_coefficients(7.3, 31)
    assert (np.diff(p.coefficients) < 0).all()


def test_a0_within_one_ulp():
    for tau in (12.0, 9.0, 3.7, 25.0):
        p = fourier_coefficients(tau, 5)
        ref = 2.0 * math.sqrt(math.pi) / tau
        assert abs(p.coefficients[0] - ref) <= np.spacing(ref)


@pytest.mark.parametrize("tau,n", [(12.0, 23), (9.0, 12)])
def test_decay_ratio_exact_within_2_ulps(tau, n):
    # the reference exponent must be the same binary64 expression the table
    # uses; any other association order perturbs it by an ulp, which exp()
    # amplifies by the exponent magnitude
    p = fourier_coefficients(tau, n)
    scale = (math.pi * math.pi) / (tau * tau)
    for k in range(n + 1):
        expected = float(np.exp(-(k * k) * scale))
        got = p.coefficients[k] / p.coefficients[0]
        assert abs(got - expected) <= 2 * np.spacing(expected)


@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf, 1e60, 1e9])
def test_bad_tau_rejected(tau):
    with pytest.raises(DomainError):
        fourier_coefficients(tau, 5)


@pytest.mark.parametrize("n", [0, -3, True, np.True_, "23"])
def test_bad_n_rejected(n):
    with pytest.raises(DomainError, match="n_terms must be an integer >= 1"):
        fourier_coefficients(12.0, n)


def test_non_integer_n_rejected():
    with pytest.raises(DomainError):
        fourier_coefficients(12.0, 2.5)


def test_underflowing_tail_rejected():
    # exp(-n^2 pi^2/tau^2) hits binary64 zero long before n = 500
    with pytest.raises(DomainError):
        fourier_coefficients(12.0, 500)


def test_preset_values_exact():
    assert vk.Preset.HIGH.value == (12.0, 23)
    assert vk.Preset.FAST.value == (9.0, 12)
    assert vk.Preset.HIGH.params.tau_m == 12.0
    assert vk.Preset.HIGH.params.n_terms == 23
    assert vk.Preset.FAST.params.tau_m == 9.0
    assert vk.Preset.FAST.params.n_terms == 12


def test_params_are_immutable():
    p = vk.Preset.HIGH.params
    with pytest.raises(ValueError):
        p.coefficients[0] = 1.0


def test_direct_construction_validates():
    # the tables are built, not passed: a third (table) argument is refused
    good = fourier_coefficients(12.0, 3)
    with pytest.raises(TypeError):
        vk.ApproxParams(12.0, 3, good.coefficients)
    # a tau_m that would take the series' terms out of binary64 range below
    # |z| = 1e8
    with pytest.raises(DomainError, match="tau_m must be > 0 and < "):
        vk.ApproxParams(1e60, 1)
    with pytest.raises(DomainError):
        vk.ApproxParams(12.0, 2.5)
    with pytest.raises(DomainError):
        vk.ApproxParams(12.0, 0)
    # a whole float is its integer: 23.0 builds HIGH's table
    whole = vk.ApproxParams(12.0, 23.0)
    assert whole == vk.Preset.HIGH.params and type(whole.n_terms) is int
    assert whole.coefficients.tobytes() == vk.Preset.HIGH.params.coefficients.tobytes()
    for tau, n in [(12.0, 23), (9.0, 12), (7.3, 31), (12, 3)]:
        p = vk.ApproxParams(tau, n)
        assert p.coefficients.tobytes() == fourier_coefficients(tau, n).coefficients.tobytes()
        # the kernel's per-parity columns: odd n, then even n
        for (npi2, an), first in zip(p.parity_terms, (1, 2)):
            k = np.arange(first, n + 1, 2)
            assert np.array_equal(npi2[:, 0], (k * math.pi) ** 2)
            assert an[:, 0].tobytes() == p.coefficients[first::2].tobytes()
            assert not (npi2.flags.writeable or an.flags.writeable)


def test_params_compare_and_hash_by_defining_values():
    high = vk.Preset.HIGH.params
    assert fourier_coefficients(12, 23) == high
    assert hash(fourier_coefficients(12, 23)) == hash(high)
    assert {high: "high"}[fourier_coefficients(12.0, 23)] == "high"
    assert fourier_coefficients(12.0, 23) != vk.Preset.FAST.params
    assert vk.weideman_coefficients(16) == vk.WeidemanCoeffs(16)
    assert hash(vk.weideman_coefficients(16)) == hash(vk.WeidemanCoeffs(16))


@settings(max_examples=60, deadline=None)
@given(tau=st.floats(0.5, 50.0), n=st.integers(1, 40))
def test_invariants_hold_generally(tau, n):
    try:
        p = fourier_coefficients(tau, n)
    except DomainError:
        # small tau with large n may underflow the tail; that rejection is
        # itself the contract
        assert math.exp(-(n * n) * math.pi**2 / (tau * tau)) == 0.0
        return
    a = p.coefficients
    assert a.shape == (n + 1,)
    assert (a > 0).all()
    assert (np.diff(a) < 0).all()
    ref = 2.0 * math.sqrt(math.pi) / tau
    assert abs(a[0] - ref) <= np.spacing(ref)
