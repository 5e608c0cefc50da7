"""Spans around calls into voigtkit's public functions, and the per-layer
probes of a traced run.

Spans are recorded only from the benchmark's own files: ``public_api``
wraps each public function it hands to a workload or a probe.  An untraced
run gets the bare functions, so tracing costs it nothing.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

import numpy as np
from scipy.special import wofz

import voigtkit as vk
import workloads as wl

#: Public functions the workloads and probes call, by span name.
PUBLIC = {
    "core.eval_batch": vk.eval_batch,
    "core.eval_eq3_batch": vk.eval_eq3_batch,
    "core.eval_w": vk.eval_w,
    "core.voigt_function": vk.voigt_function,
    "core.voigt_profile": vk.voigt_profile,
    "weideman.weideman_batch": vk.weideman_batch,
    "ref.wofz": wofz,
}


class Tracer:
    """In-memory spans: name, start and end (ns), the id of the enclosing
    span on the same thread, and one trace id per run.  Safe to use from
    several threads (ids come from one counter, each thread keeps its own
    stack of open spans)."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        rec = {"id": next(self._ids), "name": name,
               "parent": stack[-1] if stack else None,
               "thread": threading.get_ident(), "start": perf_counter_ns()}
        stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter_ns()
            stack.pop()
            self.spans.append(rec)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def durations_ns(self, name: str, parent_name: str) -> list[int]:
        """Durations of spans ``name`` whose parent span is ``parent_name``."""
        parents = {s["id"] for s in self.spans if s["name"] == parent_name}
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["parent"] in parents]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"trace_id": self.trace_id, "spans": self.spans}))


def public_api(tracer: Tracer | None = None) -> SimpleNamespace:
    """The public functions under short names, wrapped in spans if traced."""
    return SimpleNamespace(**{
        name.split(".", 1)[1]: fn if tracer is None else tracer.wrap(name, fn)
        for name, fn in PUBLIC.items()})


def _median_ns(tracer, name, parent):
    return statistics.median(tracer.durations_ns(name, parent))


def _repeat(tracer, label, reps, *calls):
    """Run each call ``reps`` times inside a span per call kind, the kinds
    interleaved so that drift affects them alike."""
    for _ in range(reps):
        for i, call in enumerate(calls):
            with tracer.span(f"{label}/{i}"):
                call()


def probe_layers(tracer: Tracer, seed: int, scale: int = 1) -> tuple[dict, bool]:
    """Per-layer timings on fixed inputs; returns (metrics, all probes ok)."""
    api = public_api(tracer)
    high = wl.high_params()
    fast = vk.Preset.FAST.params
    big = 2 if scale == 1 else 1
    small = max(200 // scale, 5)
    m: dict[str, float] = {}
    ok = True

    # Term cost and fixed cost per point, HIGH against FAST on bulk points.
    z = wl.BulkUpper(seed, scale).z
    n = z.size
    _repeat(tracer, "term", big, lambda: api.eval_batch(z, high),
            lambda: api.eval_batch(z, fast))
    t_high = _median_ns(tracer, "core.eval_batch", "term/0")
    t_fast = _median_ns(tracer, "core.eval_batch", "term/1")
    extra_terms = vk.Preset.HIGH.value[1] - vk.Preset.FAST.value[1]
    m["core.term_ns"] = (t_high - t_fast) / (extra_terms * n)
    m["core.fixed_ns"] = t_high / n - vk.Preset.HIGH.value[1] * m["core.term_ns"]

    # Validation: a typed DomainError naming the last element.
    bad = z.copy()
    bad[-1] = complex(math.nan, 0.0)
    errors = []

    def rejected():
        try:
            api.eval_batch(bad, high)
        except vk.DomainError as e:
            errors.append(e.index)

    _repeat(tracer, "validate", 5, rejected)
    ok &= errors == [n - 1] * 5
    m["core.validate_ms"] = _median_ns(tracer, "core.eval_batch", "validate/0") / 1e6
    del bad

    coeffs = vk.weideman_coefficients(16)
    _repeat(tracer, "yardstick", big, lambda: api.weideman_batch(z, coeffs),
            lambda: api.wofz(z))
    m["weideman.deg16_mpts"] = n / _median_ns(tracer, "weideman.weideman_batch",
                                              "yardstick/0") * 1e3
    m["ref.wofz_mpts"] = n / _median_ns(tracer, "ref.wofz", "yardstick/1") * 1e3

    # Thread pool: workers=2 against workers=1 on 64 points.
    z64 = z[:64]
    _repeat(tracer, "pool", small, lambda: api.eval_batch(z64, high, workers=2),
            lambda: api.eval_batch(z64, high))
    m["core.pool_us"] = (_median_ns(tracer, "core.eval_batch", "pool/0")
                         - _median_ns(tracer, "core.eval_batch", "pool/1")) / 1e3
    del z

    # Reflection and guard fix-up on plasma-mixed points.
    parts = wl.plasma_parts(seed, wl.FULL // scale)
    q = wl.PlasmaMixed(seed, scale).z
    folded = np.where(q.imag < 0.0, -q, q)
    _repeat(tracer, "reflect", big, lambda: api.eval_batch(q, high),
            lambda: api.eval_eq3_batch(folded, high))
    m["core.reflect_ms"] = (_median_ns(tracer, "core.eval_batch", "reflect/0")
                            - _median_ns(tracer, "core.eval_eq3_batch", "reflect/1")) / 1e6
    del q, folded
    guard = parts["guard"]
    ordinary = parts["upper"][:guard.size]
    _repeat(tracer, "guard", 3, lambda: api.eval_eq3_batch(guard, high),
            lambda: api.eval_eq3_batch(ordinary, high))
    m["core.guard_ms"] = (_median_ns(tracer, "core.eval_eq3_batch", "guard/0")
                          - _median_ns(tracer, "core.eval_eq3_batch", "guard/1")) / 1e6
    del parts, guard, ordinary

    # One spectrum line: eval_batch on its 4096 points and voigt_profile.
    grid, lines, starts = wl.spectrum_lines(seed, 1)
    window = grid[starts[0]:starts[0] + wl.WINDOW]
    zl = wl.line_points(grid, lines[0], starts[0])
    _repeat(tracer, "line", small, lambda: api.eval_batch(zl, high),
            lambda: api.voigt_profile(window, lines[0], high))
    t_batch = _median_ns(tracer, "core.eval_batch", "line/0")
    m["core.batch_4096_us"] = t_batch / 1e3
    m["core.profile_overhead_us"] = (_median_ns(tracer, "core.voigt_profile", "line/1")
                                     - t_batch) / 1e3

    # Scalar wrappers against a 1-element eval_batch, per call.
    sc = wl.ScalarCalls(seed, scale)
    zs = sc.z_list[:2000 // scale]
    ones = [np.array([z1]) for z1 in zs]
    xk, yk = sc.xk_list[:len(zs)], sc.yk_list[:len(zs)]
    with tracer.span("scalar/0"):
        for z1 in zs:
            api.eval_w(z1, high)
    with tracer.span("scalar/1"):
        for x1, y1 in zip(xk, yk):
            api.voigt_function(x1, y1, high)
    with tracer.span("scalar/2"):
        for a1 in ones:
            api.eval_batch(a1, high)
    m["core.eval_w_us"] = _median_ns(tracer, "core.eval_w", "scalar/0") / 1e3
    m["core.voigt_function_us"] = _median_ns(tracer, "core.voigt_function", "scalar/1") / 1e3
    m["core.batch_1pt_us"] = _median_ns(tracer, "core.eval_batch", "scalar/2") / 1e3
    return m, ok


def span_cost_ns(reps: int = 20000) -> float:
    """Mean cost of one empty span, measured on a throw-away tracer."""
    t = Tracer("calibration")
    t0 = perf_counter_ns()
    for _ in range(reps):
        with t.span("empty"):
            pass
    return (perf_counter_ns() - t0) / reps


def src_lines(src: Path) -> int:
    """Line count of the package sources, the simplicity ledger."""
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
