import math

import numpy as np
import pytest

import voigtkit as vk
from voigtkit import DomainError, ReflectionOverflowError

from conftest import ulps_apart

# oracle values frozen at 30 digits
W_AT_I = 0.4275835761558070044107503          # w(i) = e*erfc(1)
INV_100_SQRT_PI = 0.005641895835477562869480795


def _oracle(z, digits=30):
    return complex(vk.oracle_w(z, digits))


class TestEq3:
    def test_origin_is_one(self):
        assert abs(vk.eval_eq3(0.0) - 1.0) <= 1e-13

    def test_matches_oracle_at_2p1j(self, high):
        w = vk.eval_eq3(2 + 1j, high)
        ref = _oracle(2 + 1j)
        assert abs(w - ref) / abs(ref) <= 1e-12

    def test_matches_oracle_at_1p1j(self):
        w = vk.eval_eq3(1 + 1j)
        ref = _oracle(1 + 1j)
        assert abs(w - ref) / abs(ref) <= 1e-12

    def test_on_axis_singular_abscissa(self):
        # tau_m*x = 3*pi sits exactly on a removable singularity
        x = 3 * math.pi / 12
        w = vk.eval_eq3(complex(x, 0.0))
        assert abs(w.real - math.exp(-x * x)) <= 1e-8

    def test_guard_band_continuity(self):
        # both sides of the guard handoff stay on the oracle; just outside
        # the guard the raw denominator n^2 pi^2 - A^2 cancels to ~1e-4, so
        # a few extra ulps of term error are intrinsic there
        x0 = 5 * math.pi / 12
        for frac in (0.25, 4.0):
            x = x0 + frac * (vk.GUARD_RADIUS / 12)
            w = vk.eval_eq3(complex(x, 0.0))
            ref = complex(vk.oracle_w(complex(x, 0.0)))
            assert abs(w - ref) / abs(ref) <= 1e-11, f"at offset {frac} guard radii"

    def test_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            vk.eval_eq3(1 - 1j)

    @pytest.mark.parametrize("bad", [complex(math.nan, 1), complex(1, math.inf)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            vk.eval_eq3(bad)


class TestEq1:
    def test_matches_oracle_at_1p1j(self, high):
        w = vk.eval_eq1(1 + 1j, high)
        ref = _oracle(1 + 1j)
        assert abs(w - ref) / abs(ref) <= 1e-12

    def test_conjugate_pair(self):
        a = vk.eval_eq1(-1 + 1j)
        b = vk.eval_eq1(1 + 1j)
        assert ulps_apart(a, b.conjugate()) <= 2

    def test_rejects_origin(self):
        with pytest.raises(DomainError):
            vk.eval_eq1(0.0)

    def test_rejects_singular_abscissa(self):
        with pytest.raises(DomainError):
            vk.eval_eq1(complex(7 * math.pi / 12, 0.0))

    def test_rejects_near_singular_point(self):
        # within the guard radius but not exactly on it
        z = complex(2 * math.pi / 12 + 1e-9, 1e-9)
        with pytest.raises(DomainError):
            vk.eval_eq1(z)

    def test_accepts_points_clear_of_guards(self):
        w = vk.eval_eq1(complex(2 * math.pi / 12, 0.05))
        assert np.isfinite(w.real) and np.isfinite(w.imag)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            vk.eval_eq1(1 - 0.5j)


class TestEvalW:
    def test_lower_half_plane_reflection(self):
        z = 1 - 1j
        w = vk.eval_w(z)
        ref = _oracle(z)
        assert abs(w - ref) / abs(ref) <= 1e-10

    @pytest.mark.bitwise
    def test_reflection_is_exact_construction(self):
        # the kernel's own construction, bit for bit: 2*exp(-z^2) from the
        # folded coordinates, minus w(-z), in the series region (|z| < 7)
        # and the quadrature region alike
        rng = np.random.default_rng(20261019)
        r = np.concatenate([rng.uniform(0.0, 7.0, 2000), rng.uniform(7.0, 25.0, 2000)])
        phi = rng.uniform(-math.pi, 0.0, r.size)
        z = np.append(r * np.cos(phi) + 1j * np.minimum(r * np.sin(phi), -1e-3),
                      0.7 - 0.3j)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            expected = 2.0 * vk.core._exp_neg_square(-z.real, -z.imag) - vk.eval_batch(-z)
        assert vk.eval_batch(z).tobytes() == expected.tobytes()
        assert vk.eval_w(complex(z[-1])) == complex(expected[-1])

    def test_far_up_the_imaginary_axis(self):
        w = vk.eval_w(100j)
        assert abs(w.real - INV_100_SQRT_PI) / INV_100_SQRT_PI <= 1e-4
        assert abs(w.imag) <= 1e-18

    def test_conjugation_symmetry(self):
        for z in (0.3 + 2j, -4 + 0.01j, 9 + 9j):
            assert ulps_apart(vk.eval_w(complex(-z.real, z.imag)),
                              vk.eval_w(z).conjugate()) <= 2

    def test_overflow_signalled(self):
        # exp(-z^2) overflows at -30j; at -26.6364j it is finite (1.3e308)
        # but the reflected value 2*exp(-z^2) - w(-z) is not
        for z in (-30j, -26.6364j):
            with pytest.raises(ReflectionOverflowError) as err:
                vk.eval_w(z)
            assert err.value.index == 0, z

    @pytest.mark.bitwise
    def test_reflection_phase_near_the_diagonal(self):
        # near |Re z| = |Im z| below the axis, |exp(-z^2)| is about 1 and its
        # phase 2*Re z*Im z is far larger than 2*pi: a rounded product would
        # leave no correct digit of it
        points = []
        for r in 10.0 ** np.arange(3.0, 12.25, 0.25) + 0.37:
            for s in (1.0, -1.0):
                points.append(complex(s * r, -r))
                for c in (3.0, 30.0):
                    d = math.sqrt(r * r - c)
                    points += [complex(s * r, -d), complex(s * d, -r)]
        for r in (1e154, 1.3e154):     # xy is finite up to sqrt(DBL_MAX)
            points += [complex(r, -r), complex(-r, -r)]
        for z in points:
            ref = _oracle(z)
            assert abs(vk.eval_w(z) - ref) / abs(ref) <= 1e-13, z
        z = np.array(points)
        assert vk.eval_batch(z).tobytes() == np.array([vk.eval_w(p) for p in z]).tobytes()
        # from there on, xy overflows binary64 and the typed error stays
        with pytest.raises(ReflectionOverflowError) as err:
            vk.eval_batch(np.array([1 + 1j, 1.35e154 * (1 - 1j)]))
        assert err.value.index == 1

    def test_upper_half_equals_eq3(self):
        z = 2.5 + 0.25j
        assert vk.eval_w(z) == vk.eval_eq3(z)


class TestVoigtFunction:
    def test_origin(self):
        assert abs(vk.voigt_function(0.0, 0.0) - 1.0) <= 1e-13

    def test_gaussian_limit(self):
        assert abs(vk.voigt_function(1.0, 0.0) - math.exp(-1.0)) <= 1e-8

    def test_lorentz_direction(self):
        ref = float(vk.oracle_w(1j).real)
        assert abs(vk.voigt_function(0.0, 1.0) - ref) <= 1e-12
        assert abs(ref - W_AT_I) <= 1e-15

    def test_rejects_negative_y(self):
        with pytest.raises(DomainError):
            vk.voigt_function(0.0, -1.0)
