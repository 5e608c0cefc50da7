"""Acceptance suite: one test per shipping criterion.

Each criterion prints a PASS/FAIL line (visible with ``pytest -s``, or in
the captured-output section on failure).  Gates on numerical results are
asserted; wall-clock expectations are printed for the record but not
asserted, since absolute timings belong to the machine, not the library.

Set ``VOIGTKIT_BENCH_LARGE=1`` to extend criterion 4 to 2^25 elements
(needs ~1.2 GB of free memory).
"""

import math
import os
import time
import warnings

import numpy as np
import pytest

import voigtkit as vk

ORACLE_DIGITS = 30
EQ3_HIGH_GATE = 1e-10
EQ3_FAST_GATE = 1e-5
EQUIVALENCE_GATE = 1e-13
SPEED_RATIO_GATE = 1.5
EXP_FRACTION_GATE = 0.20
WEIDEMAN_SOFT_GATE = 1.0
WEIDEMAN_ACCURACY_GATE = 1e-4

ORACLE_CORPUS = [0.1 + 0.001j, 1 + 1j, 3 + 2j, -4 + 0.5j, 0.5 + 8j,
                 10 + 0.001j, 4 + 1j, -3.5 + 1.5j, 0 + 100j, 2.5 + 0.05j]


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


@pytest.fixture(scope="module")
def bench_inputs():
    return vk.generate_inputs(vk.InputSpec(size=2**22, seed=42))


def test_c1_accuracy_high_preset(high):
    t0 = time.perf_counter()
    rep = vk.error_scan(vk.default_grid(),
                        lambda zs: vk.eval_eq3_batch(zs, high),
                        vk.OracleConfig(digits=ORACLE_DIGITS))
    dt = time.perf_counter() - t0
    ok = rep.max_rel_err <= EQ3_HIGH_GATE
    report("C1 accuracy high preset", ok,
           f"max_rel_err={rep.max_rel_err:.3e} gate={EQ3_HIGH_GATE:.0e} "
           f"argmax={rep.argmax_point} points={rep.points_scanned} "
           f"runtime={dt:.1f}s (expected < 60s)")
    assert rep.points_scanned == 4411
    assert ok, f"max relative error {rep.max_rel_err:.3e} exceeds {EQ3_HIGH_GATE}"


def test_c2_accuracy_fast_preset(fast):
    t0 = time.perf_counter()
    rep = vk.error_scan(vk.default_grid(),
                        lambda zs: vk.eval_eq3_batch(zs, fast),
                        vk.OracleConfig(digits=ORACLE_DIGITS))
    dt = time.perf_counter() - t0
    ok = rep.max_rel_err <= EQ3_FAST_GATE
    report("C2 accuracy fast preset", ok,
           f"max_rel_err={rep.max_rel_err:.3e} gate={EQ3_FAST_GATE:.0e} "
           f"argmax={rep.argmax_point} runtime={dt:.1f}s (expected < 60s)")
    assert ok, f"max relative error {rep.max_rel_err:.3e} exceeds {EQ3_FAST_GATE}"


def test_c3_algebraic_equivalence(high):
    t0 = time.perf_counter()
    zs = vk.generate_inputs(vk.InputSpec(size=100_000, seed=777,
                                         x_range=(-10.0, 10.0),
                                         y_range=(0.05, 50.0)))
    w1 = vk.eval_eq1_batch(zs, high)
    w3 = vk.eval_eq3_batch(zs, high)
    rel = float((np.abs(w1 - w3) / np.abs(w3)).max())
    dt = time.perf_counter() - t0
    ok = rel <= EQUIVALENCE_GATE
    report("C3 algebraic equivalence", ok,
           f"max_rel_diff={rel:.3e} gate={EQUIVALENCE_GATE:.0e} points=1e5 "
           f"runtime={dt:.1f}s (expected < 5s)")
    assert ok, f"eq1/eq3 relative difference {rel:.3e} exceeds {EQUIVALENCE_GATE}"


def _speed_ratio(zs, high):
    rec1 = vk.time_implementation("eq1", zs, repeats=5, params=high)
    rec3 = vk.time_implementation("eq3", zs, repeats=5, params=high)
    return rec1.median_seconds / rec3.median_seconds, rec1, rec3


def test_c4_relative_speed(bench_inputs, high):
    t0 = time.perf_counter()
    ratio, rec1, rec3 = _speed_ratio(bench_inputs, high)
    detail = (f"time(eq1)/time(eq3)={ratio:.2f} gate>={SPEED_RATIO_GATE} at 2^22 "
              f"(eq1 {rec1.median_seconds:.2f}s, eq3 {rec3.median_seconds:.2f}s)")
    if os.environ.get("VOIGTKIT_BENCH_LARGE") == "1":
        big = vk.generate_inputs(vk.InputSpec(size=2**25, seed=42))
        big_ratio, b1, b3 = _speed_ratio(big, high)
        detail += (f"; at 2^25 ratio={big_ratio:.2f} "
                   f"(eq1 {b1.median_seconds:.2f}s, eq3 {b3.median_seconds:.2f}s)")
        del big
    dt = time.perf_counter() - t0
    ok = ratio >= SPEED_RATIO_GATE
    report("C4 relative speed", ok, f"{detail}; runtime={dt:.0f}s (expected < 3min)")
    assert ok, f"speed ratio {ratio:.2f} below {SPEED_RATIO_GATE}"
    if os.environ.get("VOIGTKIT_BENCH_LARGE") == "1":
        assert big_ratio >= SPEED_RATIO_GATE


def test_c5_exponentiation_share(bench_inputs, high):
    t0 = time.perf_counter()
    frac = vk.exp_time_fraction(bench_inputs, high, repeats=5)
    rec3 = vk.time_implementation("eq3", bench_inputs, repeats=5, params=high)
    ratios = {}
    for degree in (8, 16, 32):
        rw = vk.time_implementation("weideman", bench_inputs, repeats=5,
                                    degree=degree)
        ratios[degree] = rec3.throughput / rw.throughput
    dt = time.perf_counter() - t0
    ok = frac < EXP_FRACTION_GATE
    soft_ok = ratios[16] >= WEIDEMAN_SOFT_GATE
    report("C5 exponentiation share", ok,
           f"exp_fraction={frac:.3f} gate<{EXP_FRACTION_GATE}; "
           f"eq3/weideman throughput ratios: "
           + ", ".join(f"degree {d}: {r:.2f}" for d, r in ratios.items())
           + f"; soft gate at degree 16 >= {WEIDEMAN_SOFT_GATE}: "
           + ("met" if soft_ok else "NOT met (reported, not asserted)")
           + f"; runtime={dt:.0f}s")
    assert ok, f"exponentiation fraction {frac:.3f} is not below {EXP_FRACTION_GATE}"
    if not soft_ok:
        warnings.warn(
            f"soft gate: eq3-vs-weideman(16) throughput ratio {ratios[16]:.2f} "
            f"< {WEIDEMAN_SOFT_GATE}; in this vectorized runtime the rational "
            "baseline's 16 complex multiply-adds outran the series' 23 terms "
            "of one real division and five other array operations each",
            stacklevel=1)


class TestC6PropertySuite:
    def test_conjugation_symmetry(self, high):
        rng = np.random.default_rng(606)
        xs = np.concatenate([rng.uniform(-12, 12, 1500),
                             np.arange(-23, 24) * (math.pi / 12)])
        ys = np.concatenate([rng.uniform(0, 30, 1500), np.zeros(47)])
        worst = 0.0
        for x, y in zip(xs, ys):
            a = vk.eval_eq3(complex(-x, y), high)
            b = vk.eval_eq3(complex(x, y), high).conjugate()
            scale = max(abs(a), abs(b), np.finfo(float).tiny)
            worst = max(worst, abs(a - b) / np.spacing(scale))
        ok = worst <= 2.0
        report("C6 conjugation symmetry", ok, f"worst={worst:.2f} ulps gate<=2")
        assert ok

    def test_reflection_identity(self):
        rng = np.random.default_rng(607)
        worst = 0.0
        for _ in range(2000):
            y = rng.uniform(1e-3, 3.0)
            xmax = math.sqrt(y * y + 10.0)
            x = rng.uniform(-xmax, xmax)
            z = np.complex128(complex(x, y))
            lhs = vk.eval_w(complex(z)) + vk.eval_w(complex(-z))
            rhs = 2.0 * complex(np.exp(-(z * z)))
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        ok = worst <= 1e-10
        report("C6 reflection identity", ok, f"worst_rel={worst:.3e} gate<=1e-10")
        assert ok

    def test_real_axis_identity(self, high):
        xs = np.concatenate([np.linspace(-6.0, 6.0, 1201),
                             np.arange(-22, 23) * (math.pi / 12)])
        worst = 0.0
        for x in xs:
            w = vk.eval_eq3(complex(float(x), 0.0), high)
            worst = max(worst, abs(w.real - math.exp(-float(x) * float(x))))
        ok = worst <= 1e-8
        report("C6 real-axis identity", ok, f"worst_abs={worst:.3e} gate<=1e-8")
        assert ok

    def test_coefficient_decay(self):
        worst = 0.0
        for preset in (vk.Preset.HIGH, vk.Preset.FAST):
            p = preset.params
            scale = (math.pi * math.pi) / (p.tau_m * p.tau_m)
            for k in range(p.n_terms + 1):
                expected = float(np.exp(-(k * k) * scale))
                got = p.coefficients[k] / p.coefficients[0]
                worst = max(worst, abs(got - expected) / np.spacing(expected))
        ok = worst <= 2.0
        report("C6 coefficient decay", ok, f"worst={worst:.2f} ulps gate<=2")
        assert ok

    def test_batch_bitwise_equals_scalar_sweep(self, high):
        t0 = time.perf_counter()
        zs = vk.generate_inputs(vk.InputSpec(size=10**6, seed=31415,
                                             y_range=(0.1, 10.0)))
        batch = vk.eval_batch(zs, high)
        scalar = np.empty_like(batch)
        for i in range(zs.size):
            scalar[i] = vk.eval_w(complex(zs[i]), high)
        identical = batch.tobytes() == scalar.tobytes()
        dt = time.perf_counter() - t0
        report("C6 batch vs scalar bitwise", identical,
               f"10^6 points, max bit difference = "
               f"{'0' if identical else 'NONZERO'}, runtime={dt:.0f}s")
        assert identical

    def test_voigt_normalization(self, high):
        from scipy.integrate import quad
        worst = 0.0
        for y in (0.5, 1.0, 5.0):
            val, quad_err = quad(lambda x: vk.voigt_function(x, y, high),
                                 -200.0, 200.0, limit=800,
                                 epsabs=1e-13, epsrel=1e-13)
            # Lorentzian tail beyond |x| = 200, integrated in closed form
            total = val + 2.0 * math.atan2(y, 200.0) / math.sqrt(math.pi)
            worst = max(worst, abs(total - math.sqrt(math.pi)) / math.sqrt(math.pi))
            assert quad_err < 1e-8
        ok = worst <= 1e-6
        report("C6 Voigt normalization", ok, f"worst_rel={worst:.3e} gate<=1e-6")
        assert ok

    def test_oracle_self_consistency(self):
        import mpmath as mp
        worst = 0.0
        for z in ORACLE_CORPUS:
            w30 = vk.oracle_w(z, 30)
            w40 = vk.oracle_w(z, 40)
            with mp.workdps(50):
                worst = max(worst, float(abs(w30 - w40) / abs(w40)))
        ok = worst <= 1e-26
        report("C6 oracle self-consistency", ok, f"worst_rel={worst:.3e} gate<=1e-26")
        assert ok


def test_c7_comparator_sanity(high):
    t0 = time.perf_counter()
    zs = vk.generate_inputs(vk.InputSpec(size=10**6, seed=2718))
    ref = vk.eval_eq3_batch(zs, high)   # 1e-10-class reference for a 1e-4 gate
    worst_full = {}
    for degree in (16, 32):
        w = vk.weideman_batch(zs, vk.weideman_coefficients(degree))
        worst_full[degree] = float((np.abs(w - ref) / np.abs(ref)).max())
    # direct oracle spot-check on a seeded subsample
    sub = zs[:: zs.size // 300][:300]
    worst_sub = {}
    for degree in (16, 32):
        w = vk.weideman_batch(sub, vk.weideman_coefficients(degree))
        rels = []
        for i, z in enumerate(sub):
            r = complex(vk.oracle_w(complex(z), ORACLE_DIGITS))
            rels.append(abs(w[i] - r) / abs(r))
        worst_sub[degree] = float(max(rels))
    dt = time.perf_counter() - t0
    ok = (worst_full[16] <= WEIDEMAN_ACCURACY_GATE
          and worst_sub[16] <= WEIDEMAN_ACCURACY_GATE
          and worst_full[32] < worst_full[16]
          and worst_sub[32] < worst_sub[16])
    report("C7 comparator sanity", ok,
           f"degree16 max_rel={worst_full[16]:.3e} (oracle subsample "
           f"{worst_sub[16]:.3e}) gate<={WEIDEMAN_ACCURACY_GATE:.0e}; "
           f"degree32 max_rel={worst_full[32]:.3e} strictly better; "
           f"runtime={dt:.0f}s (expected < 30s)")
    assert worst_full[16] <= WEIDEMAN_ACCURACY_GATE
    assert worst_sub[16] <= WEIDEMAN_ACCURACY_GATE
    assert worst_full[32] < worst_full[16]
    assert worst_sub[32] < worst_sub[16]
