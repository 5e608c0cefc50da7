import math
import warnings

import numpy as np
import pytest

import voigtkit as vk
from voigtkit import DomainError, VoigtLine, core

SQRT_LN2_OVER_PI = math.sqrt(math.log(2.0) / math.pi)


def test_pure_gaussian_shape_and_peak():
    line = VoigtLine(center=500.0, strength=1.0, doppler_hwhm=0.25, lorentz_hwhm=0.0)
    nu = np.linspace(499.0, 501.0, 801)
    prof = vk.voigt_profile(nu, line)
    peak = SQRT_LN2_OVER_PI / line.doppler_hwhm
    x = math.sqrt(math.log(2.0)) * (nu - line.center) / line.doppler_hwhm
    expected = peak * np.exp(-x * x)
    assert np.abs(prof - expected).max() <= 1e-12 * peak
    assert prof[400] == pytest.approx(peak, rel=1e-12)


def test_lorentzian_fallback():
    line = VoigtLine(center=0.0, strength=2.0, doppler_hwhm=1e-30, lorentz_hwhm=0.5)
    nu = np.linspace(-5.0, 5.0, 101)
    prof = vk.voigt_profile(nu, line)
    g = line.lorentz_hwhm
    expected = line.strength * g / (math.pi * ((nu - line.center) ** 2 + g * g))
    assert np.abs(prof - expected).max() == 0.0


def test_area_closes_to_strength():
    # small Lorentz fraction keeps the tail mass beyond +-50 HWHM below 1e-4
    alpha_d = 0.05
    line = VoigtLine(center=1000.0, strength=1.0, doppler_hwhm=alpha_d,
                     lorentz_hwhm=1e-3 * alpha_d)
    half = 50 * (0.5346 * line.lorentz_hwhm
                 + math.sqrt(0.2166 * line.lorentz_hwhm**2 + alpha_d**2))
    nu = np.linspace(line.center - half, line.center + half, 40_001)
    prof = vk.voigt_profile(nu, line)
    area = np.trapezoid(prof, nu)
    assert abs(area - 1.0) <= 1e-4


@pytest.mark.bitwise
def test_profile_delegates_to_batch(high):
    # the profile equals the eval_batch formula bit for bit, on a 57-point
    # grid and on a 2-D grid above the lock's point count; both reach |x| > 7,
    # so the series and the quadrature region both run
    line = VoigtLine(center=10.0, strength=3.0, doppler_hwhm=0.1, lorentz_hwhm=0.02)
    big = np.linspace(8.5, 11.5, 96 * 97).reshape(96, 97)
    assert big.size > core._SERIAL_POINTS
    rl2 = math.sqrt(math.log(2.0))
    for nu in (np.linspace(9.0, 11.0, 57), big):
        x = (rl2 / line.doppler_hwhm) * (nu - line.center)
        assert np.abs(x).max() > core._R_GH
        y = rl2 * line.lorentz_hwhm / line.doppler_hwhm
        k = vk.eval_batch(x + 1j * y, high).real
        expected = (line.strength * rl2 / (line.doppler_hwhm * math.sqrt(math.pi))) * k
        got = vk.voigt_profile(nu, line, high)
        assert got.shape == nu.shape
        assert got.tobytes() == expected.tobytes()


def test_rejects_non_finite_grid():
    # the index of the first bad ordinate, on the Voigt and the Lorentzian route
    for doppler in (1.0, 1e-30):
        line = VoigtLine(center=0.0, strength=1.0, doppler_hwhm=doppler, lorentz_hwhm=0.5)
        for grid, index in (([0.0, math.nan], 1), ([[1.0, 2.0], [math.inf, 0.0]], 2)):
            with pytest.raises(DomainError) as err:
                vk.voigt_profile(grid, line)
            assert err.value.index == index


def test_overflowing_ordinate_carries_index():
    # x = sqrt(ln2)*(nu - center)/doppler_hwhm overflows at a finite
    # ordinate: a typed error naming its index, with no warning first; the
    # Lorentzian route has no x and returns 0 there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            vk.voigt_profile([0.0, 1e300], VoigtLine(0.0, 1.0, 1e-10, 0.0))
        assert err.value.index == 1
        prof = vk.voigt_profile([0.0, 1e300], VoigtLine(0.0, 1.0, 1e-30, 0.5))
        assert prof[1] == 0.0 and prof[0] > 0.0


@pytest.mark.parametrize("kwargs", [
    dict(center=0.0, strength=-1.0, doppler_hwhm=1.0, lorentz_hwhm=0.0),
    dict(center=0.0, strength=1.0, doppler_hwhm=0.0, lorentz_hwhm=0.0),
    dict(center=0.0, strength=1.0, doppler_hwhm=-1.0, lorentz_hwhm=0.0),
    dict(center=0.0, strength=1.0, doppler_hwhm=1.0, lorentz_hwhm=-0.5),
    dict(center=math.inf, strength=1.0, doppler_hwhm=1.0, lorentz_hwhm=0.0),
])
def test_line_validation(kwargs):
    with pytest.raises(DomainError):
        VoigtLine(**kwargs)
