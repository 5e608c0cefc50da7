"""Concurrent caller threads: their output bits, the scope of the lock that
runs small public calls one at a time, and that lock's release on errors
and in a forked child."""

import math
import multiprocessing
import threading

import numpy as np
import pytest

import voigtkit as vk
from voigtkit import DomainError, ReflectionOverflowError
from voigtkit import core

SERIAL = core._SERIAL_POINTS
TIMEOUT = 60.0
SQRT_LN2 = math.sqrt(math.log(2.0))
WINDOW = 4096


def spectrum_windows(n_lines, seed=19):
    """Lines on the grid nu = 1000 + 0.002*i, each with a 4096-point window
    centred on it: Doppler HWHM in [0.05, 0.2], y log-uniform in [1e-4, 10],
    the last line on the real axis."""
    rng = np.random.default_rng(seed)
    grid = 1000.0 + 0.002 * np.arange(1 << 16)
    out = []
    for i in range(n_lines):
        doppler = rng.uniform(0.05, 0.2)
        y = 0.0 if i == n_lines - 1 else 10.0 ** rng.uniform(-4.0, 1.0)
        start = int(rng.integers(0, grid.size - WINDOW))
        line = vk.VoigtLine(center=grid[start + WINDOW // 2], strength=1.0,
                            doppler_hwhm=doppler, lorentz_hwhm=y * doppler / SQRT_LN2)
        out.append((grid[start:start + WINDOW], line))
    return out


def mixed_points(n, seed):
    """Both half-planes, inside and outside the series radius."""
    rng = np.random.default_rng([seed, n])
    return rng.uniform(-12.0, 12.0, n) + 1j * rng.uniform(-5.0, 10.0, n)


def concurrent_tasks():
    tasks = [lambda g=g, line=line: vk.voigt_profile(g, line)
             for g, line in spectrum_windows(6)]
    for n in (1, 4095, SERIAL, SERIAL + 1, 40000):
        tasks.append(lambda z=mixed_points(n, 1): vk.eval_batch(z))
    zw = mixed_points(40, 2).tolist()
    tasks.append(lambda: np.array([vk.eval_w(z) for z in zw]))
    return tasks


def run_on_threads(fn, n_threads):
    """fn(t) on ``n_threads`` threads started together; their results."""
    start = threading.Barrier(n_threads)
    results = [None] * n_threads
    errors = []

    def body(t):
        try:
            start.wait(TIMEOUT)
            results[t] = fn(t)
        except BaseException as e:           # reported on the main thread
            errors.append(e)

    threads = [threading.Thread(target=body, args=(t,), daemon=True)
               for t in range(n_threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(TIMEOUT)
    assert not any(th.is_alive() for th in threads), "caller thread did not finish"
    if errors:
        raise errors[0]
    return results


@pytest.mark.bitwise
@pytest.mark.parametrize("n_threads", [2, 3])
def test_concurrent_calls_match_one_thread_bits(n_threads):
    tasks = concurrent_tasks()
    ref = [task().tobytes() for task in tasks]
    rounds = 3

    def sweep(t):
        # each thread starts at another task, so different calls overlap
        order = [(t + k) % len(tasks) for k in range(rounds * len(tasks))]
        return [(i, tasks[i]().tobytes()) for i in order]

    for per_thread in run_on_threads(sweep, n_threads):
        for i, got in per_thread:
            assert got == ref[i], f"task {i}"


@pytest.fixture
def lock_probes(monkeypatch):
    """Probe ``core._serial`` from a second thread at every call of the
    input checks, the parameter resolution and the quadrature; each probe
    appends True when it finds the lock held."""
    seen = []

    def probe():
        def other():
            got = core._serial.acquire(blocking=False)
            if got:
                core._serial.release()
            seen.append(not got)

        t = threading.Thread(target=other)
        t.start()
        t.join(TIMEOUT)

    def probed(fn):
        def call(*args, **kwargs):
            probe()
            return fn(*args, **kwargs)
        return call

    for name in ("_w_gauss_hermite", "_resolve_params", "_validated"):
        monkeypatch.setattr(core, name, probed(getattr(core, name)))
    return seen


def upper_points(n):
    # some beyond |z| = 1e8, where the series forms take the quadrature too
    z = mixed_points(n, 3)
    z = z.real + 1j * (np.abs(z.imag) + 0.5)
    z[::97] *= 1e9
    return z


def window(n):
    g, line = spectrum_windows(1)[0]
    return np.linspace(g[0], g[-1], n), line


#: Nested lists of SERIAL and SERIAL + 1 points: the lock goes by every
#: point, not by the number of rows.
ROWS = {SERIAL: (1152, 8), SERIAL + 1: (13, 709)}


def nested(a):
    return a.reshape(ROWS[a.size]).tolist()


PUBLIC_CALLS = {
    "eval_batch": lambda n: vk.eval_batch(mixed_points(n, 4)),
    "eval_batch_workers2": lambda n: vk.eval_batch(mixed_points(n, 4), workers=2),
    "eval_batch_nested": lambda n: vk.eval_batch(nested(mixed_points(n, 4))),
    "eval_eq3_batch": lambda n: vk.eval_eq3_batch(upper_points(n)),
    "eval_eq1_batch": lambda n: vk.eval_eq1_batch(upper_points(n)),
    "weideman_batch": lambda n: vk.weideman_batch(upper_points(n)),
    "voigt_profile": lambda n: vk.voigt_profile(*window(n)),
    "voigt_profile_list": lambda n: vk.voigt_profile(window(n)[0].tolist(), window(n)[1]),
    "voigt_profile_keywords": lambda n: vk.voigt_profile(line=window(n)[1], grid=window(n)[0]),
    "voigt_profile_nested": lambda n: vk.voigt_profile(nested(window(n)[0]), window(n)[1]),
}


@pytest.mark.parametrize("name", list(PUBLIC_CALLS))
def test_small_calls_hold_the_lock_throughout(name, lock_probes):
    PUBLIC_CALLS[name](SERIAL)
    assert lock_probes and all(lock_probes), lock_probes


@pytest.mark.parametrize("name", list(PUBLIC_CALLS))
def test_large_calls_never_take_the_lock(name, lock_probes):
    PUBLIC_CALLS[name](SERIAL + 1)
    assert lock_probes and not any(lock_probes), lock_probes


def test_scalar_entries_reach_the_lock(lock_probes):
    vk.eval_w(20.0 - 1.0j)
    vk.eval_eq3(1.0 + 1.0j)
    vk.weideman_w(1.0 + 1.0j)
    assert lock_probes and all(lock_probes), lock_probes


def another_thread_finishes_a_small_call():
    done = threading.Event()

    def call():
        vk.eval_batch(mixed_points(100, 5))
        done.set()

    threading.Thread(target=call, daemon=True).start()
    return done.wait(TIMEOUT)


LINE = vk.VoigtLine(center=0.0, strength=1.0, doppler_hwhm=0.1, lorentz_hwhm=0.05)


@pytest.mark.parametrize("call,error,index", [
    (lambda: vk.eval_batch(np.array([1j, complex("nan")])), DomainError, 1),
    (lambda: vk.eval_batch(np.array([1j, 2.0, -30j])), ReflectionOverflowError, 2),
    (lambda: vk.eval_w(-30j), ReflectionOverflowError, 0),
    (lambda: vk.eval_eq1_batch(np.array([1j, 0.0])), DomainError, 1),
    (lambda: vk.weideman_batch([1j, -1j]), DomainError, 1),
    (lambda: vk.voigt_profile([0.0, 1.0, math.inf], LINE), DomainError, 2),
], ids=["non-finite", "reflection-overflow", "eval_w-overflow", "eq1-guard",
        "weideman-half-plane", "profile-grid"])
def test_lock_released_after_error(call, error, index):
    with pytest.raises(error) as info:
        call()
    assert info.value.index == index
    assert another_thread_finishes_a_small_call()


def test_rejected_input_types_keep_their_errors():
    # inputs without a length or a regular shape reach the batch's own checks
    with pytest.raises(ValueError):
        vk.eval_batch([[1.0, 2.0], [3.0]])
    with pytest.raises(TypeError):
        vk.eval_batch(object())
    assert another_thread_finishes_a_small_call()


def _small_call_in_child():
    vk.eval_batch(mixed_points(100, 6))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
def test_forked_child_gets_a_free_lock():
    held, release = threading.Event(), threading.Event()

    def hold():
        with core._serial:
            held.set()
            release.wait(TIMEOUT)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    try:
        assert held.wait(TIMEOUT)
        child = multiprocessing.get_context("fork").Process(target=_small_call_in_child)
        child.start()
        child.join(TIMEOUT)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
    finally:
        release.set()
        holder.join(TIMEOUT)
    assert not hung, "forked child deadlocked on the lock"
    assert child.exitcode == 0
