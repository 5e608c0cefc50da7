import math

import mpmath as mp
import numpy as np
import pytest

import voigtkit as vk
from voigtkit import DomainError, GridSpec, OracleConfig, OracleConvergenceError
from voigtkit import oracle as oracle_mod

CORPUS = [0.1 + 0.001j, 1 + 1j, 3 + 2j, -4 + 0.5j, 0.5 + 8j, 10 + 0.001j,
          4 + 1j, -3.5 + 1.5j, 0 + 100j, 7 - 2j, -1 - 0.5j]


def rel_mp(a, b):
    return float(abs(a - b) / abs(b))


def test_w_at_origin_is_exactly_one():
    w = vk.oracle_w(0.0)
    assert w.real == 1 and w.imag == 0


def test_w_at_i_matches_e_erfc_one():
    w = vk.oracle_w(1j, 30)
    with mp.workdps(40):
        ref = mp.e * mp.erfc(1)
        assert rel_mp(w, mp.mpc(ref, 0)) <= 1e-26


def test_against_mpmath_erfc_everywhere():
    # routes are hand-rolled; mpmath's own erfc is an outside reference
    for z in CORPUS:
        w = vk.oracle_w(z, 30)
        with mp.workdps(60):
            zz = mp.mpc(z)
            ref = mp.exp(-zz * zz) * mp.erfc(-1j * zz)
            assert rel_mp(w, ref) <= 1e-26, f"at z = {z}"


def test_against_scipy_wofz_at_double_precision():
    from scipy.special import wofz
    for z in CORPUS:
        w = complex(vk.oracle_w(z, 30))
        ref = complex(wofz(z))
        assert abs(w - ref) / abs(ref) <= 1e-12, f"at z = {z}"


def test_self_consistency_across_precisions():
    for z in CORPUS + [3 + 2j]:
        w30 = vk.oracle_w(z, 30)
        w40 = vk.oracle_w(z, 40)
        with mp.workdps(50):
            assert rel_mp(w30, w40) <= 1e-26, f"at z = {z}"


def test_conjugation_symmetry():
    for z in CORPUS:
        a = vk.oracle_w(complex(-z.real, z.imag), 30)
        b = vk.oracle_w(z, 30)
        with mp.workdps(40):
            assert rel_mp(a, mp.conj(b)) <= 1e-26, f"at z = {z}"


def test_real_axis_identity_componentwise():
    # Re w(x) = exp(-x^2) and Im w(x) = exp(-x^2)*erfi(x), each with full
    # relative precision, in the 3 < |x| < 5 recheck band and beyond |x| = 10
    for x in (0.0, 0.5, 1.0, 2.0, 3.0, math.pi, 4.0, -4.0, 5.0, 7.5, 10.0,
              -10.0, 26.6, -38.0):
        w = vk.oracle_w(complex(x, 0.0), 30)
        with mp.workdps(60):
            gauss = mp.exp(-mp.mpf(x) ** 2)
            assert float(abs(w.real - gauss) / gauss) <= 1e-26, f"at x = {x}"
            if x == 0.0:
                assert w.imag == 0
            else:
                ref = gauss * mp.erfi(x)
                assert float(abs(w.imag - ref) / abs(ref)) <= 1e-26, f"at x = {x}"


def test_lower_half_plane_reflection():
    z = 1 - 1j
    w = vk.oracle_w(z, 30)
    with mp.workdps(60):
        zz = mp.mpc(z)
        ref = mp.exp(-zz * zz) * mp.erfc(-1j * zz)
        assert rel_mp(w, ref) <= 1e-26


def test_lower_half_plane_far_from_origin():
    # the reflection pads its working precision by 2*log10|z| digits, so
    # these cold calls return at once; a 30-digit value agrees with a
    # 60-digit one and with mpmath's own erfc
    for z in (400 - 400j, (1e4 + 0.37) * (1 - 1j), (1.23e8 + 0.37) * (1 - 1j)):
        w30 = vk.oracle_w(z, 30)
        w60 = vk.oracle_w(z, 60)
        with mp.workdps(60):
            zz = mp.mpc(z)
            ref = mp.exp(-zz * zz) * mp.erfc(-1j * zz)
            assert rel_mp(w30, w60) <= 1e-26, f"at z = {z}"
            assert rel_mp(w60, ref) <= 1e-56, f"at z = {z}"


def test_rejects_non_finite():
    with pytest.raises(DomainError):
        vk.oracle_w(complex(math.inf, 0.0))


def test_config_floor():
    with pytest.raises(DomainError):
        OracleConfig(digits=19)
    for digits in (math.inf, math.nan):
        with pytest.raises(DomainError):
            OracleConfig(digits=digits)
    with pytest.raises(DomainError):
        vk.oracle_w(1j, 10)


def test_band_disagreement_raises(monkeypatch):
    # corrupt the continued-fraction route; the overlap band must notice
    def bad_cf(x, y, digits):
        return mp.mpc(1, 1)

    monkeypatch.setattr(oracle_mod, "_w_continued_fraction", bad_cf)
    oracle_mod._oracle_cached.cache_clear()
    with pytest.raises(OracleConvergenceError):
        vk.oracle_w(3 + 2j, 30)
    oracle_mod._oracle_cached.cache_clear()


class TestErrorScan:
    def test_single_point_eq3(self, high):
        grid = GridSpec(x_values=[2.0], y_values=[2.0])
        rep = vk.error_scan(grid, lambda zs: vk.eval_eq3_batch(zs, high))
        assert rep.points_scanned == 1
        assert rep.max_rel_err <= 1e-12
        assert rep.argmax_point == 2 + 2j

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            GridSpec(x_values=[], y_values=[1.0])

    def test_deterministic(self, high):
        grid = GridSpec(x_values=np.linspace(-2, 2, 7), y_values=[0.5, 2.0])
        ev = lambda zs: vk.eval_eq3_batch(zs, high)
        a = vk.error_scan(grid, ev)
        b = vk.error_scan(grid, ev)
        assert a == b

    def test_monotone_under_grid_refinement(self, fast):
        ev = lambda zs: vk.eval_eq3_batch(zs, fast)
        small = GridSpec(x_values=[0.5, 1.0], y_values=[0.1, 1.0])
        large = GridSpec(x_values=[0.5, 1.0, 1.5, 4.0], y_values=[0.01, 0.1, 1.0])
        rs = vk.error_scan(small, ev)
        rl = vk.error_scan(large, ev)
        assert rl.max_abs_err >= rs.max_abs_err
        assert rl.max_rel_err >= rs.max_rel_err

    def test_propagates_evaluator_error_with_point(self, high):
        singular = 5 * math.pi / 12
        grid = GridSpec(x_values=[1.0, singular], y_values=[0.0])
        with pytest.raises(DomainError) as err:
            vk.error_scan(grid, lambda zs: vk.eval_eq1_batch(zs, high))
        assert err.value.point == complex(singular, 0.0)

    def test_grid_of_another_type_is_type_error(self):
        def evaluator(zs):
            raise AssertionError("evaluator ran")
        with pytest.raises(TypeError, match="expected GridSpec"):
            vk.error_scan(([2.0], [2.0]), evaluator)

    def test_default_grid_shape(self):
        g = vk.default_grid()
        assert g.x_values.size == 401
        assert g.y_values.size == 11
        assert g.size == 4411
        assert g.x_values[0] == -10.0 and g.x_values[-1] == 10.0
        assert g.y_values[0] == pytest.approx(1e-3) and g.y_values[-1] == pytest.approx(1e2)
