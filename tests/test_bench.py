import math
import statistics

import numpy as np
import pytest

import voigtkit as vk
from voigtkit import (BenchmarkError, BenchRecord, DomainError, InputSpec,
                      generate_inputs, time_implementation)
from voigtkit import bench as bench_mod


def test_generation_is_seed_deterministic():
    spec = InputSpec(size=4096, seed=42)
    a = generate_inputs(spec)
    b = generate_inputs(spec)
    assert a.tobytes() == b.tobytes()
    c = generate_inputs(InputSpec(size=4096, seed=43))
    assert a.tobytes() != c.tobytes()


def test_generation_respects_ranges():
    spec = InputSpec(size=10_000, seed=1, x_range=(-2.0, 3.0), y_range=(0.5, 4.0))
    zs = generate_inputs(spec)
    assert zs.size == 10_000
    assert (zs.real >= -2.0).all() and (zs.real < 3.0).all()
    assert (zs.imag >= 0.5).all() and (zs.imag < 4.0).all()
    assert (zs.imag > 0).all()


def test_zero_size_gives_empty():
    assert generate_inputs(InputSpec(size=0)).size == 0


def test_float_size_is_stored_as_int():
    spec = InputSpec(size=4.0)
    assert spec.size == 4 and isinstance(spec.size, int)
    assert generate_inputs(spec).size == 4


@pytest.mark.parametrize("kwargs", [
    dict(size=-1),
    dict(size=8, x_range=(3.0, -3.0)),
    dict(size=8, y_range=(0.0, 1.0)),
    dict(size=8, y_range=(-1.0, 1.0)),
    dict(size=8, x_range=(0.0, np.inf)),
    dict(size=np.inf),
    dict(size=np.nan),
    dict(size=8, seed=1.5),
    dict(size=8, seed=-1),
])
def test_bad_input_spec_rejected(kwargs):
    with pytest.raises(DomainError):
        InputSpec(**kwargs)


def test_record_invariants():
    with pytest.raises(DomainError):
        BenchRecord(impl="eq3", size=10, repeats=2, median_seconds=1.0, throughput=10.0)
    with pytest.raises(DomainError):
        BenchRecord(impl="eq3", size=10, repeats=5, median_seconds=1.0, throughput=11.0)
    with pytest.raises(DomainError):
        BenchRecord(impl="eq3", size=10, repeats=5, median_seconds=0.0, throughput=0.0)
    with pytest.raises(DomainError):
        BenchRecord(impl="eq3", size=10, repeats=5, median_seconds=1.0,
                    throughput=10.0, exp_fraction=1.5)
    for size in (-10, 2.5, True):
        with pytest.raises(DomainError):
            BenchRecord(impl="eq3", size=size, repeats=5, median_seconds=1.0,
                        throughput=float(size))
    with pytest.raises(DomainError):
        bench_mod.parse_records_csv(bench_mod.BENCH_CSV_HEADER + "\neq3,-10,5,1.0,-10.0,\n")


def test_csv_round_trip():
    records = [
        BenchRecord(impl="eq3", size=1 << 20, repeats=5,
                    median_seconds=0.12345678901234567, throughput=(1 << 20) / 0.12345678901234567,
                    exp_fraction=0.08765432109876543),
        BenchRecord(impl="eq1", size=1 << 20, repeats=5,
                    median_seconds=1.7182818284590452, throughput=(1 << 20) / 1.7182818284590452),
        BenchRecord(impl="eq3-p4", size=256, repeats=3,
                    median_seconds=3.0303e-05, throughput=256 / 3.0303e-05),
    ]
    text = bench_mod.records_to_csv(records)
    assert text == ("impl,size,repeats,median_seconds,throughput,exp_fraction\n"
                    "eq3,1048576,5,0.12345678901234566,8493465.676441193,0.08765432109876543\n"
                    "eq1,1048576,5,1.718281828459045,610246.8073822109,\n"
                    "eq3-p4,256,3,3.0303e-05,8448008.448008448,\n")
    assert bench_mod.parse_records_csv(text) == records


def test_csv_header_enforced():
    with pytest.raises(ValueError):
        bench_mod.parse_records_csv("bogus,header\n1,2\n")


def test_time_implementation_basic():
    zs = generate_inputs(InputSpec(size=1 << 16, seed=42))
    rec = time_implementation("eq3", zs, repeats=3)
    assert rec.impl == "eq3"
    assert rec.size == 1 << 16
    assert rec.median_seconds > 0
    assert rec.throughput == rec.size / rec.median_seconds
    assert rec.exp_fraction is None


def test_parallel_variant_label():
    zs = generate_inputs(InputSpec(size=1 << 16, seed=42))
    rec = time_implementation("eq3", zs, repeats=3, workers=4)
    assert rec.impl == "eq3-p4"


def test_rejects_bad_protocol():
    zs = generate_inputs(InputSpec(size=1 << 10, seed=42))
    with pytest.raises(DomainError):
        time_implementation("eq3", zs, repeats=2)
    with pytest.raises(DomainError):
        time_implementation("eq3", np.array([], dtype=complex), repeats=5)
    with pytest.raises(ValueError):
        time_implementation("bogus", zs, repeats=3)


@pytest.mark.parametrize("impl", ["eq3", "eq1"])
@pytest.mark.parametrize("workers", [math.inf, math.nan, None, 0, -3, 2.5, "2", True])
def test_bad_workers_rejected_before_timing(impl, workers):
    zs = generate_inputs(InputSpec(size=1 << 10, seed=42))
    with pytest.raises(DomainError, match="workers must be an integer >= 1"):
        time_implementation(impl, zs, repeats=3, workers=workers)


@pytest.mark.parametrize("repeats", [3.5, math.nan, math.inf, None, "4"])
def test_bad_repeats_rejected_before_guard(monkeypatch, repeats):
    def guard(*args):
        raise AssertionError("the correctness guard ran")

    monkeypatch.setattr(bench_mod, "_correctness_guard", guard)
    zs = generate_inputs(InputSpec(size=1 << 10, seed=42))
    for run in (lambda: time_implementation("eq3", zs, repeats=repeats),
                lambda: vk.exp_time_fraction(zs, repeats=repeats)):
        with pytest.raises(DomainError, match="repeats must be an integer >= 3"):
            run()


def test_correctness_guard_aborts_on_garbage(monkeypatch):
    zs = generate_inputs(InputSpec(size=1 << 12, seed=42))
    monkeypatch.setattr(vk.core, "eval_eq1_batch",
                        lambda q, params: np.zeros_like(np.asarray(q)))
    with pytest.raises(BenchmarkError):
        time_implementation("eq1", zs, repeats=3)


@pytest.mark.parametrize("tau,n,bound", [(12.0, 23, 1e-10), (9.0, 12, 1e-5),
                                         (12.0, 22, 1e-9)])
def test_eq3_guard_bound_by_parameter_values(tau, n, bound):
    # a freshly built set equal to a preset gets that preset's gate
    assert bench_mod._eq3_guard_bound(vk.fourier_coefficients(tau, n)) == bound


def test_checksum_change_aborts_round_robin_run():
    # a computation whose result drifts between rounds is caught, whichever
    # case of the round-robin run it is
    calls = []

    def drifting(q):
        calls.append(None)
        return q * len(calls)

    zs = np.ones(8, dtype=complex)
    times = bench_mod._timed_runs([(np.conj, zs), (np.negative, zs)], 3)
    assert [len(t) for t in times] == [3, 3]
    with pytest.raises(BenchmarkError, match="checksum"):
        bench_mod._timed_runs([(np.conj, zs), (drifting, zs)], 3)


def test_timer_resolution_guard(monkeypatch):
    import time as time_module

    class FakeInfo:
        resolution = 1.0

    zs = generate_inputs(InputSpec(size=1 << 12, seed=42))
    monkeypatch.setattr(bench_mod.time, "get_clock_info", lambda name: FakeInfo())
    with pytest.raises(BenchmarkError):
        time_implementation("eq3", zs, repeats=3)


def test_median_stability_between_runs():
    # the run must be long enough that scheduler noise stays inside the
    # 20% gating bound; the two 7-repeat windows of the eq3 timing run
    # interleaved, round by round, so that a slow phase of the machine falls
    # on both alike
    zs = generate_inputs(InputSpec(size=1 << 20, seed=42))
    _, fn, _, _ = bench_mod._resolve_impl("eq3", None, bench_mod.weideman.DEFAULT_DEGREE, 1)
    a, b = map(statistics.median, bench_mod._timed_runs([(fn, zs), (fn, zs)], repeats=7))
    assert abs(a - b) <= 0.2 * max(a, b)


def test_exp_fraction_in_unit_interval():
    zs = generate_inputs(InputSpec(size=1 << 18, seed=42))
    frac = vk.exp_time_fraction(zs, repeats=3)
    assert 0.0 < frac < 1.0


def test_exp_fraction_fast_at_least_high():
    # fewer rational terms amortize the one exponentiation less
    zs = generate_inputs(InputSpec(size=1 << 19, seed=42))
    f_high = vk.exp_time_fraction(zs, vk.Preset.HIGH.params, repeats=5)
    f_fast = vk.exp_time_fraction(zs, vk.Preset.FAST.params, repeats=5)
    assert f_fast >= f_high


def test_throughput_no_memory_cliffs_at_scale():
    # no superlinear memory cliffs in blocked evaluation: throughput may
    # degrade gently from 2^20 to 2^24 but never collapses at a size step.
    # Smaller (cache-resident) sizes are excluded: they measure the memory
    # hierarchy, not the algorithm, and swing 2x run-to-run on this host.
    def step_ratios():
        thr = []
        for p in (20, 22, 24):
            zs = generate_inputs(InputSpec(size=1 << p, seed=42))
            thr.append(time_implementation("eq3", zs, repeats=3).throughput)
        return [b / a for a, b in zip(thr, thr[1:])]

    ratios = step_ratios()
    if not all(0.70 <= r <= 1.30 for r in ratios):
        ratios = step_ratios()   # one retry: medians still carry scheduler noise
    assert all(0.70 <= r <= 1.30 for r in ratios), ratios


_GUARDED_BATCH = {"eq1": (vk.core, "eval_eq1_batch"), "eq3": (vk.core, "eval_batch"),
                  "weideman": (vk.weideman, "weideman_batch")}


@pytest.mark.parametrize("impl,kwargs,bound", [
    ("eq3", dict(params=vk.Preset.HIGH.params), 1e-10),
    ("eq3", dict(params=vk.Preset.FAST.params), 1e-5),
    ("eq3", dict(params=vk.ApproxParams(12.0, 22)), 1e-9),
    ("eq1", {}, 1e-8),
    ("weideman", dict(degree=8), 1e-2),
    ("weideman", dict(degree=16), 1e-4),
    ("weideman", dict(degree=32), 1e-10),
    ("weideman", dict(degree=4), 0.1),
], ids=["eq3-high", "eq3-fast", "eq3-12-22", "eq1", "weideman-8", "weideman-16",
        "weideman-32", "weideman-4"])
@pytest.mark.parametrize("f", [0.5, 2.0])
def test_guard_policy(monkeypatch, impl, kwargs, bound, f):
    # each implementation is held to its own reference and bound: the oracle
    # on the first 24 sampled points for eq3, HIGH eval_eq3_batch otherwise
    if impl == "eq3":
        ref = lambda q: np.array([complex(vk.oracle_w(z)) for z in q])
    else:
        ref = lambda q: vk.eval_eq3_batch(q, vk.Preset.HIGH.params)
    monkeypatch.setattr(*_GUARDED_BATCH[impl],
                        lambda q, *args, **kw: ref(q) * (1.0 + f * bound))
    zs = generate_inputs(InputSpec(size=24, seed=42))
    if f < 1.0:
        assert time_implementation(impl, zs, repeats=3, **kwargs).impl == impl
    else:
        with pytest.raises(BenchmarkError):
            time_implementation(impl, zs, repeats=3, **kwargs)
