"""Deterministic input generation and wall-clock micro-benchmarks.

Protocol: one warm-up run (excluded), then ``repeats`` timed runs of the
batch evaluator over the same input, reporting the median.  Timed runs are
single-threaded unless a parallel worker count is requested, in which case
the record is labelled as a separate implementation variant.  Before any
timing, the implementation's output is spot-checked (a benchmark of wrong
results is invalid and aborts), and after every run the result array is
checksummed: the checksum must be identical across runs.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import astuple, dataclass

import numpy as np

from . import core, oracle, weideman
from .exceptions import BenchmarkError, DomainError

__all__ = [
    "InputSpec",
    "BenchRecord",
    "DEFAULT_INPUT_SPEC",
    "generate_inputs",
    "time_implementation",
    "exp_time_fraction",
    "records_to_csv",
    "parse_records_csv",
    "BENCH_CSV_HEADER",
]


@dataclass(frozen=True)
class InputSpec:
    """Seeded uniform rectangle of evaluation points.  The lower y bound must
    stay positive: benchmarks run in the approximation's native domain."""

    size: int
    seed: int = 42
    x_range: tuple[float, float] = (-10.0, 10.0)
    y_range: tuple[float, float] = (0.1, 10.0)

    def __post_init__(self):
        for name in ("size", "seed"):
            object.__setattr__(self, name, core._integer(getattr(self, name), name, 0))
        for name in ("x_range", "y_range"):
            lo, hi = getattr(self, name)
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise DomainError(f"{name} must be a finite ordered pair, got {(lo, hi)!r}")
        if self.y_range[0] <= 0.0:
            raise DomainError(f"y_range lower bound must be > 0, got {self.y_range!r}")


DEFAULT_INPUT_SPEC = InputSpec(size=2**22)


def generate_inputs(spec: InputSpec) -> np.ndarray:
    """Points drawn uniformly from the rectangle, fully determined by the
    seed.  Generator: numpy PCG64 (``default_rng``), x array drawn first and
    y second, so the same seed reproduces the byte-identical sequence on any
    platform with the same numpy bit-stream version."""
    rng = np.random.default_rng(spec.seed)
    x = rng.uniform(spec.x_range[0], spec.x_range[1], spec.size)
    y = rng.uniform(spec.y_range[0], spec.y_range[1], spec.size)
    return x + 1j * y


@dataclass(frozen=True)
class BenchRecord:
    """Timing result for one implementation on one input size.  ``impl`` is
    the canonical id (eq1/eq3/weideman), with a ``-p<N>`` suffix for the
    parallel batch variant."""

    impl: str
    size: int
    repeats: int
    median_seconds: float
    throughput: float
    exp_fraction: float | None = None

    def __post_init__(self):
        for name, least in (("size", 1), ("repeats", 3)):
            object.__setattr__(self, name, core._integer(getattr(self, name), name, least))
        if not self.median_seconds > 0.0:
            raise DomainError(f"median_seconds must be > 0, got {self.median_seconds!r}")
        expected = self.size / self.median_seconds
        if abs(self.throughput - expected) > 1e-9 * max(expected, 1.0):
            raise DomainError("throughput must equal size/median_seconds")
        if self.exp_fraction is not None and not 0.0 < self.exp_fraction < 1.0:
            raise DomainError(f"exp_fraction must lie in (0, 1), got {self.exp_fraction!r}")


#: Worst acceptable relative error of each implementation: eq1/eq3 per
#: preset, against the oracle; Weideman per degree (its accuracy class).
ACCURACY_GATES = {
    ("eq3", "high"): 1e-10, ("eq3", "fast"): 1e-5,
    ("eq1", "high"): 1e-10, ("eq1", "fast"): 1e-5,
    ("weideman", 8): 1e-2, ("weideman", 16): 1e-4, ("weideman", 32): 1e-10,
}


def _eq3_guard_bound(params: core.ApproxParams) -> float:
    """The accuracy gate of the preset equal to ``params``; 1e-9 for a
    custom parameter set."""
    for preset in core.Preset:
        if params == preset.params:
            return ACCURACY_GATES[("eq3", preset.name.lower())]
    return 1e-9


def _resolve_impl(impl, params, degree, workers):
    """The record label, the batch function, the correctness guard's
    reference (the values it compares against, on a prefix of the sample)
    and the guard's bound of implementation ``impl``: eq3 against the
    oracle on 24 points, eq1 and weideman against HIGH eval_eq3_batch."""
    params = core._resolve_params(params)

    def high(zs):
        return core.eval_eq3_batch(zs, core.Preset.HIGH.params)

    if impl == "eq1":
        return impl, lambda zs: core.eval_eq1_batch(zs, params), high, 1e-8
    if impl == "eq3":
        label = impl if workers <= 1 else f"{impl}-p{workers}"
        return (label, lambda zs: core.eval_batch(zs, params, workers=workers),
                lambda zs: np.array([complex(oracle.oracle_w(z)) for z in zs[:24]]),
                _eq3_guard_bound(params))
    if impl == "weideman":
        coeffs = weideman.WeidemanCoeffs(degree)
        return (impl, lambda zs: weideman.weideman_batch(zs, coeffs), high,
                ACCURACY_GATES.get(("weideman", degree), 0.1))
    raise ValueError(f"unknown implementation {impl!r}: expected eq1, eq3 or weideman")


def _correctness_guard(label: str, zs, fn, reference, bound: float) -> None:
    """Spot-check the implementation before timing it; abort on garbage."""
    sample = zs[::max(1, zs.size // 512)][:512]
    ref = reference(sample)
    rel = np.abs(fn(sample)[:ref.size] - ref) / np.abs(ref)
    worst = float(rel.max())
    if not worst <= bound:
        raise BenchmarkError(
            f"correctness guard failed for {label}: max relative deviation "
            f"{worst:.3e} exceeds {bound:.1e}; refusing to time wrong results")


def _timed_runs(cases, repeats: int) -> list[list[float]]:
    """Wall times of ``repeats`` rounds over ``cases``, (fn, zs) pairs run
    once each per round, so that the machine's speed drift falls on all of
    them alike.  Each gets one warm-up run (excluded) first, and its
    checksum must not change between rounds."""
    for fn, zs in cases:
        fn(zs[: min(zs.size, 2**18)])
    times = [[] for _ in cases]
    checksums = [set() for _ in cases]
    for _ in range(repeats):
        for (fn, zs), t, cs in zip(cases, times, checksums):
            t0 = time.perf_counter()
            out = fn(zs)
            t.append(time.perf_counter() - t0)
            cs.add(complex(np.sum(out)))
            del out
    if any(len(cs) > 1 for cs in checksums):
        raise BenchmarkError("checksum changed between repeats; "
                             "timed computation is not deterministic")
    return times


def _check_resolution(median: float) -> None:
    res = time.get_clock_info("perf_counter").resolution
    if median < 100.0 * res:
        raise BenchmarkError(
            f"median run time {median:.3e}s is within 100x of the timer "
            f"resolution {res:.1e}s; increase the input size")


def _checked(zs, repeats: int) -> tuple[np.ndarray, int]:
    """``zs`` as a flat complex128 array and ``repeats`` as an int;
    DomainError if repeats is not an integer >= 3 or zs is empty."""
    repeats = core._integer(repeats, "repeats", 3)
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    if zs.size == 0:
        raise DomainError("cannot benchmark an empty input")
    return zs, repeats


def time_implementation(impl, zs, repeats: int = 5, params=None,
                        degree: int = weideman.DEFAULT_DEGREE,
                        workers: int = 1) -> BenchRecord:
    """Median wall time of ``repeats`` runs of an implementation over ``zs``.

    Raises
    ------
    ValueError
        If impl is not one of eq1, eq3, weideman.
    DomainError
        If repeats is not an integer >= 3, zs is empty or workers is not an
        integer >= 1.
    BenchmarkError
        If the correctness guard fails, the timer resolution is unusable, or
        run-to-run checksums differ.
    """
    zs, repeats = _checked(zs, repeats)
    workers = core._integer(workers, "workers", 1)
    label, fn, reference, bound = _resolve_impl(impl, params, degree, workers)
    _correctness_guard(label, zs, fn, reference, bound)
    times, = _timed_runs([(fn, zs)], repeats)
    med = statistics.median(times)
    _check_resolution(med)
    return BenchRecord(impl=label, size=int(zs.size), repeats=repeats,
                       median_seconds=med, throughput=zs.size / med)


def exp_time_fraction(zs, params=None, repeats: int = 5) -> float:
    """Share of total batch-evaluation time spent on the single
    transcendental pass B = exp(i*A): the kernel's own exp pass, run over
    the kernel's blocks on the points where the kernel runs it, those with
    ``np.abs(z) < core._R_GH``.  The two sides run
    alternately on the same data, one of each per repeat, and the share is
    the median of the per-repeat ratios, so that the machine's speed drift
    cancels."""
    zs, repeats = _checked(zs, repeats)
    params = core._resolve_params(params)
    A = zs[np.abs(zs) < core._R_GH] * params.tau_m

    def exp_pass(a):
        return core._blocked(a, lambda lo, hi, B: core._exp_pass(a[lo:hi], out=B[lo:hi]))

    t_exp, t_total = _timed_runs(
        [(exp_pass, A), (lambda q: core.eval_batch(q, params), zs)], repeats)
    frac = statistics.median(e / t for e, t in zip(t_exp, t_total))
    if not 0.0 < frac < 1.0:
        raise BenchmarkError(
            f"measured exponentiation fraction {frac!r} is outside (0, 1); "
            "timing run is not trustworthy")
    return frac


# ---------------------------------------------------------------------------
# CSV serialization (schema shared with the command-line front end)
# ---------------------------------------------------------------------------

BENCH_CSV_HEADER = "impl,size,repeats,median_seconds,throughput,exp_fraction"


def _csv(header: str, rows) -> str:
    """The header line, then one comma-joined line per row: a string as it
    is, None as empty, a number by repr (shortest round-trip)."""
    lines = [header] + [",".join("" if v is None else v if isinstance(v, str) else repr(v)
                                 for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def records_to_csv(records) -> str:
    return _csv(BENCH_CSV_HEADER, map(astuple, records))


def parse_records_csv(text: str) -> list[BenchRecord]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != BENCH_CSV_HEADER:
        raise ValueError(f"bad bench CSV header: {lines[:1]!r}")
    records = []
    for ln in lines[1:]:
        impl, size, repeats, med, thr, frac = ln.split(",")
        records.append(BenchRecord(
            impl=impl, size=int(size), repeats=int(repeats),
            median_seconds=float(med), throughput=float(thr),
            exp_fraction=None if frac == "" else float(frac)))
    return records
