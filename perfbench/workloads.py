"""The benchmark workloads: seeded inputs, one pass of public calls,
and the independent correctness check of a pass's output.

A workload object is built once per set-up (its constructor is what
``setup_s`` times).  ``run_pass`` makes one pass of public calls through the
``api`` namespace it is given (plain or traced, see ``layers.public_api``)
and returns the pass output as a 2-D array with one row per operation, so
that two passes can be compared bit for bit, operation by operation.
``check`` verifies a pass output against computations made apart from
voigtkit and returns one verdict per operation.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter_ns

import numpy as np

import checks
import voigtkit as vk

HIGH = vk.Preset.HIGH
TAU = HIGH.value[0]
N_TERMS = HIGH.value[1]
FULL = 1 << 22


def high_params() -> vk.ApproxParams:
    """The coefficient build every workload pays in its set-up."""
    return vk.fourier_coefficients(*HIGH.value)


def near_guard_edge(z: np.ndarray) -> np.ndarray:
    """Points with tau*z just outside the guard radius of a removable
    singularity (0 or +-k*pi, k <= N_TERMS), where the unguarded rational
    terms lose about eps/|tau*z - k*pi| of relative accuracy: within 3e-6
    of the singular point the HIGH result misses the 1e-10 gate.  Workloads
    whose inputs could fall there on some seeds draw them again (see the
    README); the band is kept over 30 times wider than the failing one."""
    A = np.asarray(z) * TAU
    out = np.zeros(A.shape, dtype=bool)
    cand = np.abs(A.imag) < checks.GUARD_EDGE
    if not cand.any():
        return out
    a = A[cand]
    k = np.minimum(np.rint(np.abs(a.real) / math.pi), N_TERMS)
    d = np.abs(np.abs(a.real) - k * math.pi) + 1j * a.imag
    r = np.abs(d)
    out[cand] = (r >= vk.GUARD_RADIUS) & (r < checks.GUARD_EDGE)
    return out


def _redraw(rng, draw, n, reject):
    """Draw n values with ``draw(rng, m)``, drawing again those ``reject``
    flags; deterministic for a given generator state."""
    v = draw(rng, n)
    bad = reject(v)
    while bad.any():
        v[bad] = draw(rng, int(bad.sum()))
        bad = reject(v)
    return v


def _loguniform(rng, lo, hi, n):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)


def _run_calls(call, n_ops, workers, latencies=None):
    """Make operations ``call(0..n_ops-1)``: in order on this thread, timing
    each one if ``latencies`` is given, or on two caller threads with the
    operations interleaved."""
    if workers == 1:
        for i in range(n_ops):
            t0 = perf_counter_ns()
            call(i)
            if latencies is not None:
                latencies.append(perf_counter_ns() - t0)
        return

    def share(first):
        for i in range(first, n_ops, 2):
            call(i)

    with ThreadPoolExecutor(max_workers=2) as ex:
        for f in [ex.submit(share, t) for t in range(2)]:
            f.result()


class Workload:
    """Defaults: the tracemalloc pass is a whole pass, and a round has no
    operations besides its two passes."""

    peak_limit = None

    def extra_ops(self, api) -> list[bool]:
        return []


# ---------------------------------------------------------------------------
# array workloads: one eval_batch call per pass
# ---------------------------------------------------------------------------

class _ArrayWorkload(Workload):
    """A pass is one ``eval_batch`` call over the whole input at HIGH."""

    n_ops = 1

    def warm(self, api):
        api.eval_batch(self.z[:4096], self.params)
        api.eval_batch(self.z[:4096], self.params, workers=2)

    @property
    def points(self) -> int:
        return int(self.z.size)

    def run_pass(self, api, workers, latencies=None, limit=None):
        t0 = perf_counter_ns()
        w = api.eval_batch(self.z, self.params, workers=workers)
        if latencies is not None:
            latencies.append(perf_counter_ns() - t0)
        return w.reshape(1, -1)

    def check(self, out, rng) -> checks.Verdict:
        v = checks.check_points(self.z, out[0], self.params, rng)
        return checks.Verdict(ops_ok=np.array([v.all_ok]), acc=v.acc)


class BulkUpper(_ArrayWorkload):
    """2^22 points of ``bench.DEFAULT_INPUT_SPEC`` (x in [-10, 10],
    y in [0.1, 10]) with the benchmark seed."""

    name = "bulk-upper"

    def __init__(self, seed, scale=1):
        self.params = high_params()
        spec = dataclasses.replace(vk.DEFAULT_INPUT_SPEC, seed=seed,
                                   size=vk.DEFAULT_INPUT_SPEC.size // scale)
        self.z = vk.generate_inputs(spec)


def plasma_parts(seed, n):
    """The three parts of the plasma-mixed input, unshuffled.

    lower: n/2 points, x in [-10, 10], y in [-5, -1e-6];
    guard: n/8 points with 0 <= Im(tau*z) < GUARD_RADIUS: the real-axis
      points k*pi/tau (k = -23..23), points inside the guard radius of those
      and of 0, and x uniform in [-10, 10] elsewhere;
    upper: the rest, x in [-10, 10], y log-uniform in [1e-6, 10].
    """
    rng = np.random.default_rng([seed, 2])
    n_low = n // 2
    n_guard = n // 8
    n_up = n - n_low - n_guard
    lower = rng.uniform(-10.0, 10.0, n_low) - 1j * rng.uniform(1e-6, 5.0, n_low)
    upper = rng.uniform(-10.0, 10.0, n_up) + 1j * _loguniform(rng, 1e-6, 10.0, n_up)

    ks = np.arange(-N_TERMS, N_TERMS + 1) * (math.pi / TAU)
    n_in = max(n_guard // 16, 1)
    r = 0.5 * vk.GUARD_RADIUS / TAU
    inside = (rng.choice(ks, n_in) + rng.uniform(-r, r, n_in)
              + 1j * rng.uniform(0.0, r, n_in))
    n_rest = max(n_guard - ks.size - n_in, 0)
    y_rest = rng.uniform(0.0, vk.GUARD_RADIUS / TAU, n_rest)
    y_rest[::4] = 0.0
    x_rest = _redraw(rng, lambda g, m: g.uniform(-10.0, 10.0, m), n_rest,
                     lambda x: near_guard_edge(x + 1j * y_rest))
    guard = np.concatenate([ks + 0j, inside, x_rest + 1j * y_rest])[:n_guard]
    return {"lower": lower, "guard": guard, "upper": upper}


class PlasmaMixed(_ArrayWorkload):
    """2^22 points over the whole plane, shuffled: half lower half-plane,
    an eighth in the guard band, the rest upper; plus one fixed large-|z|
    batch per round."""

    name = "plasma-mixed"

    def __init__(self, seed, scale=1):
        self.params = high_params()
        parts = plasma_parts(seed, FULL // scale)
        z = np.concatenate(list(parts.values()))
        self.z = z[np.random.default_rng([seed, 3]).permutation(z.size)]

    def extra_ops(self, api) -> list[bool]:
        return [checks.large_z_op(lambda z: api.eval_batch(z, self.params))]


# ---------------------------------------------------------------------------
# spectrum-lines: one voigt_profile call per line
# ---------------------------------------------------------------------------

GRID_POINTS = 1 << 20
GRID_STEP = 0.002
WINDOW = 4096


def spectrum_lines(seed, n_lines):
    """Seeded lines on the shared grid nu = 1000 + 0.002*i, i < 2^20.

    Each line gets a 4096-point window centred on it.  Doppler HWHM is
    uniform in [0.05, 0.2], so |x| reaches 17..68 at the window edges;
    y = sqrt(ln2)*lorentz/doppler is log-uniform in [1e-4, 10]; one line in
    64 has lorentz_hwhm = 0 (points on the real axis), and its centre is
    drawn again while a window point lies near a guard edge."""
    rng = np.random.default_rng([seed, 4])
    grid = 1000.0 + GRID_STEP * np.arange(GRID_POINTS)
    sl2 = math.sqrt(math.log(2.0))
    lines, starts = [], []
    for i in range(n_lines):
        doppler = rng.uniform(0.05, 0.2)
        y = 0.0 if i % 64 == 63 else float(_loguniform(rng, 1e-4, 10.0, 1)[0])
        strength = float(_loguniform(rng, 0.1, 10.0, 1)[0])
        while True:
            start = int(rng.integers(0, GRID_POINTS - WINDOW))
            center = grid[start + WINDOW // 2] + rng.uniform(0.0, GRID_STEP)
            x = sl2 * (grid[start:start + WINDOW] - center) / doppler
            if y > 0.0 or not near_guard_edge(x).any():
                break
        lines.append(vk.VoigtLine(center=center, strength=strength,
                                  doppler_hwhm=doppler,
                                  lorentz_hwhm=y * doppler / sl2))
        starts.append(start)
    return grid, lines, np.array(starts)


def line_points(grid, line, start):
    """x + iy of a line's window, computed apart from voigt_profile."""
    sl2 = math.sqrt(math.log(2.0))
    x = sl2 * (grid[start:start + WINDOW] - line.center) / line.doppler_hwhm
    return x + 1j * (sl2 * line.lorentz_hwhm / line.doppler_hwhm)


class SpectrumLines(Workload):
    """1024 lines, each a voigt_profile over its own 4096-point window of
    one shared grid, accumulated into the spectrum."""

    name = "spectrum-lines"

    def __init__(self, seed, scale=1):
        self.params = high_params()
        self.grid, self.lines, self.starts = spectrum_lines(seed, 1024 // scale)
        self.windows = [self.grid[s:s + WINDOW] for s in self.starts]
        self.n_ops = len(self.lines)

    @property
    def points(self) -> int:
        return self.n_ops * WINDOW

    def warm(self, api):
        api.voigt_profile(self.windows[0], self.lines[0], self.params)

    def run_pass(self, api, workers, latencies=None, limit=None):
        out = np.empty((self.n_ops, WINDOW))
        profile, lines, windows, params = (api.voigt_profile, self.lines,
                                           self.windows, self.params)

        def call(i):
            out[i] = profile(windows[i], lines[i], params)

        _run_calls(call, self.n_ops, workers, latencies)
        spectrum = np.zeros(GRID_POINTS)
        for s, p in zip(self.starts, out):
            spectrum[s:s + WINDOW] += p
        self.spectrum = spectrum
        return out

    def check(self, out, rng) -> checks.Verdict:
        ok = np.ones(self.n_ops, dtype=bool)
        k_rel = 0.0
        for i, (line, start) in enumerate(zip(self.lines, self.starts)):
            z = line_points(self.grid, line, start)
            scale = (line.strength * math.sqrt(math.log(2.0))
                     / (line.doppler_hwhm * math.sqrt(math.pi)))
            ok[i], rel = checks.check_real_part(z, out[i] / scale)
            k_rel = max(k_rel, rel)
        # Complex values, properties and the scalar contract on a seeded
        # subsample of lines, through eval_batch on the same points.
        pick = rng.choice(self.n_ops, min(8, self.n_ops), replace=False)
        zs = np.concatenate([line_points(self.grid, self.lines[i], self.starts[i])
                             for i in pick])
        v = checks.check_points(zs, vk.eval_batch(zs, self.params), self.params, rng)
        ok[pick] &= v.all_ok
        acc = dict(v.acc)
        acc["check.re_max_rel_err"] = max(acc["check.re_max_rel_err"], k_rel)
        return checks.Verdict(ops_ok=ok, acc=acc)


# ---------------------------------------------------------------------------
# scalar-calls: one eval_w or voigt_function call per operation
# ---------------------------------------------------------------------------

class ScalarCalls(Workload):
    """20 000 eval_w calls (half in each half-plane, |y| log-uniform in
    [1e-4, 10] above and [1e-4, 5] below) then 4 000 voigt_function calls
    (y log-uniform in [1e-4, 10]); x uniform in [-10, 10] throughout."""

    name = "scalar-calls"
    # The tracemalloc pass covers the first calls only: outputs are
    # preallocated, so the peak does not grow with the call count, and
    # tracemalloc slows 1-element numpy calls about 3.5 times.
    peak_limit = 2000

    def __init__(self, seed, scale=1):
        self.params = high_params()
        rng = np.random.default_rng([seed, 5])
        n_w, n_k = 20000 // scale, 4000 // scale
        half = n_w // 2
        y = np.concatenate([_loguniform(rng, 1e-4, 10.0, half),
                            -_loguniform(rng, 1e-4, 5.0, n_w - half)])
        self.z = (rng.uniform(-10.0, 10.0, n_w) + 1j * y)[rng.permutation(n_w)]
        self.xk = rng.uniform(-10.0, 10.0, n_k)
        self.yk = _loguniform(rng, 1e-4, 10.0, n_k)
        self.z_list = self.z.tolist()
        self.xk_list, self.yk_list = self.xk.tolist(), self.yk.tolist()
        self.n_ops = n_w + n_k

    @property
    def points(self) -> int:
        return self.n_ops

    def warm(self, api):
        for z in self.z_list[:16]:
            api.eval_w(z, self.params)
        api.voigt_function(self.xk_list[0], self.yk_list[0], self.params)

    def run_pass(self, api, workers, latencies=None, limit=None):
        n_w = len(self.z_list)
        out = np.zeros((self.n_ops, 2))
        ow = out[:n_w].view(np.complex128)[:, 0]
        k = out[n_w:, 0]
        eval_w, voigt_function, params = api.eval_w, api.voigt_function, self.params
        zl, xl, yl = self.z_list, self.xk_list, self.yk_list

        def call(i):
            if i < n_w:
                ow[i] = eval_w(zl[i], params)
            else:
                k[i - n_w] = voigt_function(xl[i - n_w], yl[i - n_w], params)

        stop = self.n_ops if limit is None else min(limit, self.n_ops)
        _run_calls(call, stop, workers, latencies)
        return out

    def check(self, out, rng) -> checks.Verdict:
        n_w = self.z.size
        w = out[:n_w].view(np.complex128)[:, 0]
        k = out[n_w:, 0]
        v = checks.check_points(self.z, w, self.params, rng)
        ok_w = v.ok & checks.same_bits(vk.eval_batch(self.z, self.params), w)
        zk = self.xk + 1j * self.yk
        ok_k, k_rel = checks.check_real_part(zk, k, per_point=True)
        ok_k &= checks.same_bits(vk.eval_batch(zk, self.params).real, k)
        acc = dict(v.acc)
        acc["check.re_max_rel_err"] = max(acc["check.re_max_rel_err"], k_rel)
        return checks.Verdict(ops_ok=np.concatenate([ok_w, ok_k]), acc=acc)


WORKLOADS = {w.name: w for w in (BulkUpper, PlasmaMixed, SpectrumLines, ScalarCalls)}
