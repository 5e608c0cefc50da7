"""Fourier-series evaluation of the Faddeeva function w(z) = exp(-z^2)*erfc(-iz).

The evaluator approximates the Gaussian kernel of w by a truncated Fourier
cosine series with period parameter ``tau_m`` and ``n_terms`` harmonics,
with coefficients

    a_n = (2*sqrt(pi)/tau_m) * exp(-n^2 pi^2 / tau_m^2).

Two algebraically equivalent forms are provided:

* :func:`eval_eq1` -- the raw two-sided series, one exponential per term.
  It is kept unguarded on purpose: it serves as the reference side of the
  equivalence property and as the slow baseline in benchmarks, and it
  refuses inputs within GUARD_RADIUS of its removable 0/0 singularities.
* :func:`eval_eq3` -- the production form.  Collapsing the +n/-n term pairs
  leaves a single exponential B = exp(i*tau_m*z) per point plus a short sum
  of rational terms: B from one tangent and one expm1 pass, a real term
  table with one real division per term for the shared denominator
  n^2 pi^2 - (tau_m*z)^2, and a complex closing that combines the two sums
  with B and tau_m*z, one complex ufunc per product.  Every point runs the
  same loop; term n is replaced by its truncated-series limit only at the
  points within _PATCH_RADIUS of the removable singularity
  tau_m*z = +-n*pi (likewise i*(1 - B)/A near 0).  One locator,
  ``_singular``, finds these points for both forms.

Outside the series radius every evaluator takes the 12-point Gauss-Hermite
quadrature w = (i/pi)*sum_k H_k/(z - t_k) (Humlicek's region I, JQSRT 27
(1982) 437, is its 2-point case), whose leading term is the asymptote
i/(sqrt(pi)*z), so every finite input in the closed upper half-plane
yields a finite value.  :func:`eval_batch` (so also eval_w, voigt_function
and voigt_profile) runs eq3's kernel only for |z| < _R_GH = 7, where the
quadrature is as accurate at a quarter of the cost; eval_eq3 and eval_eq1
stay the pure series forms up to |z| = _FAR = 1e8.

All batch evaluation runs through one block path, ``_evaluate``: each
block of ``_BLOCK`` consecutive points (``2*_BLOCK`` on threads) is split
by |z| into series and quadrature points, each part folded into the
upper half-plane in a gathered copy, where its lower half-plane points
then take the reflection, so peak memory is the output plus a few blocks.
Each block makes one transcendental pass for B over its series points,
and for exp(-z^2) at its lower half-plane points one real exp and one
tangent, the phase 2xy taken exactly where |xy| >= 64.  All evaluators
are elementwise, so batch output is bitwise identical to a scalar sweep
(a 1-element batch) and independent of blocks and threads.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce

import numpy as np

from .exceptions import DomainError, ReflectionOverflowError

__all__ = [
    "GUARD_RADIUS",
    "ApproxParams",
    "Preset",
    "VoigtLine",
    "fourier_coefficients",
    "eval_eq1",
    "eval_eq1_batch",
    "eval_eq3",
    "eval_eq3_batch",
    "eval_w",
    "eval_batch",
    "voigt_function",
    "voigt_profile",
]

_PI = math.pi
_PI2 = math.pi * math.pi
_SQRT_PI = math.sqrt(math.pi)
_SQRT_LN2 = math.sqrt(math.log(2.0))

#: Guard radius: eval_eq1 rejects tau_m*z with |tau_m*z| < GUARD_RADIUS or
#: |tau_m*z -+ n*pi| < GUARD_RADIUS, where a term of the raw series is 0/0;
#: the production form replaces the affected term there (and out to
#: _PATCH_RADIUS) by a 4th-order truncated series of the ratio about the
#: singular point.
GUARD_RADIUS = 1e-6

#: Radius of the production form's patch: the truncated series is exact to
#: |d|^5/720 <= 1.4e-18 inside it (d = tau_m*z -+ n*pi), while just outside
#: it the plain terms lose about eps/|d| to cancellation (6e-13 against
#: scipy.special.wofz at |d| = 1e-3).
_PATCH_RADIUS = 1e-3

#: Points per block of single-thread batch evaluation.  Each block pays
#: about 130-220 us of fixed cost (measured on 64-point blocks), and
#: eval_batch hands the series only its points with |z| < _R_GH (38% of
#: generate_inputs' upper-half sweep), so larger blocks pay: on 2^22 such
#: points (2-core Xeon, numpy 2.4, 11 alternating rounds) 8192 ran at 8.2
#: Mpt/s, 16384 at 9.0, 12288 and 24576 within noise of 16384, and 32768
#: at 8.6.  Short scratch lifetimes in _evaluate and _w_upper keep the
#: peak of a 2^20-point call within 1.22 of its output.  Threads take
#: blocks of 2*_BLOCK, as each numpy call hands over the interpreter lock.
_BLOCK = 16384

#: Thread blocks (2*_BLOCK points) that each worker must get before
#: _blocked starts a pool.  Two threads against one inline (2-core Xeon,
#: numpy 2.4; runs of 15-31 alternating rounds, upper-half and mixed-sign
#: points): at 2 and 3 blocks threads won 0-15 of 31 or 3-13 of 21
#: rounds, at 4 and 5 from 1 of 15 to 26 of 31 as the run went, and at 6
#: over half in 17 of 19 runs (medians +7% to +47%; both losses were a
#: process's first threaded calls).
_THREAD_BLOCKS = 3

#: Largest public batch call, in points of its converted input, that runs
#: under the process-wide lock ``_serial`` from there to its result, so concurrent
#: small calls run one at a time.  Each numpy call on 500 or more elements
#: hands the interpreter lock to the other caller, so two caller threads
#: making unlocked calls lose more to the hand-offs than the second core
#: gives them.  eval_batch on bulk-upper points, Mpt/s for 1 caller / 2
#: callers (CPU/wall) / 2 callers locked: 1024 points 3.93 / 1.79 (1.23) /
#: 3.74; 4096 7.09 / 4.56 (1.40) / 7.19; 8192 8.03 / 7.86 (1.48) / 9.08;
#: 9216 9.98 / 9.82 (1.54) / 10.24; 10240 11.41 / 11.11 (1.58) / 10.59;
#: 16384 12.32 / 13.29 (1.62) / 11.14 (2-core Xeon, numpy 2.4, 7 rounds;
#: locked CPU/wall 1.00).  Two more runs agreed: the lock won at 9216 by
#: 4-9% and lost or tied from 10240 on.  The library's own pool needs
#: 2*_THREAD_BLOCKS thread blocks, far more points, so it never runs locked.
_SERIAL_POINTS = 9216

#: Radius of the series forms, eval_eq3 and eval_eq1: from |z| >= _FAR on
#: they take the quadrature.  Below it, (tau_m*z)^4 and so every term of
#: the series stays in binary64 range for every accepted tau_m; beyond it
#: eq1's raw terms lose all accuracy to cancellation.
_FAR = 1e8

#: Range check on tau_m, with a message of its own.  The operative bound
#: is the table's: above tau_m ~ 4.68e8, a_1 rounds to a_0 and the
#: strictly-decreasing check rejects the table.
_TAU_MAX = 1e60

#: eval_batch's quadrature region |z| >= _R_GH: 2.3e-15 against mpmath on
#: 3000 points below 1e8; the presets' singular points k*pi/tau_m
#: (|z| <= 6.02) all lie below it.
_R_GH = 7.0
_GH_NODES = 12

#: Below doppler_hwhm < LORENTZ_FALLBACK_RATIO * lorentz_hwhm the profile is
#: the closed-form Lorentzian, finite as doppler_hwhm -> 0 where x overflows.
#: At the threshold (y = 8.3e7) the routes differ by at most 6.4e-16 relative
#: on 4096 ordinates within 100 Lorentz widths; the closed form took 11 us
#: there against 336 us (2-core Xeon, numpy 2.4).
LORENTZ_FALLBACK_RATIO = 1e-8


def _integer(value, name: str, least: int, even: bool = False) -> int:
    """``value`` as an int; DomainError unless whole, >= ``least`` (even if ``even``), no bool."""
    try:
        n = int(value)
        ok = (n == value and n >= least and not (even and n % 2)
              and not isinstance(value, (bool, np.bool_)))
    except (OverflowError, TypeError, ValueError):   # inf, nan, None, a non-numeric string
        ok = False
    if not ok:
        kind = "an even integer" if even else "an integer"
        raise DomainError(f"{name} must be {kind} >= {least}, got {value!r}")
    return n


@dataclass(frozen=True)
class ApproxParams:
    """Fourier-series parameters: period ``tau_m`` and term count
    ``n_terms``.  Construction validates both and builds every table the
    kernels use, once: ``coefficients`` a_0..a_N and ``parity_terms``, for
    the odd and then the even n of 1..N the columns n^2 pi^2 and a_n (a view
    of ``coefficients``).  The tables are read-only, so an instance is safe
    to share across threads; equality and hashing go by (tau_m, n_terms).

    Raises
    ------
    DomainError
        If ``n_terms`` is not an integer >= 1, ``tau_m`` is not in
        (0, 1e60), or the table does not stay positive and strictly
        decreasing in binary64: its tail underflows for large n_terms, and
        a_1 rounds to a_0 for tau_m above about 4.68e8.
    """

    tau_m: float
    n_terms: int
    coefficients: np.ndarray = field(init=False, repr=False, compare=False)
    parity_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nt = _integer(self.n_terms, "n_terms", 1)
        tau = float(self.tau_m)
        if not 0.0 < tau < _TAU_MAX:
            raise DomainError(f"tau_m must be > 0 and < {_TAU_MAX:g}, got {tau!r}")
        n = np.arange(nt + 1, dtype=np.float64)
        a = (2.0 * _SQRT_PI / tau) * np.exp(-(n * n) * (_PI2 / (tau * tau)))
        if not (a > 0.0).all():
            raise DomainError("all coefficients must be > 0 (n_terms too large "
                              "for tau_m at binary64 precision?)")
        if not (np.diff(a) < 0.0).all():
            raise DomainError("coefficients must decrease strictly with n")
        a.setflags(write=False)
        columns = tuple((((np.arange(first, nt + 1, 2) * _PI) ** 2)[:, None],
                         a[first::2, None]) for first in (1, 2))
        for npi2, _ in columns:
            npi2.setflags(write=False)
        for name, value in (("tau_m", tau), ("n_terms", nt), ("coefficients", a),
                            ("parity_terms", columns)):
            object.__setattr__(self, name, value)


#: The parameter set of (tau_m, n_terms), whose table is
#: a_n = (2*sqrt(pi)/tau_m)*exp(-n^2 pi^2/tau_m^2) for n = 0..n_terms.
fourier_coefficients = ApproxParams


class Preset(Enum):
    """Named (tau_m, n_terms) configurations, each with its parameter set
    ``params``, built once.

    HIGH (12, 23) preserves full binary64 accuracy and is the default
    everywhere a preset is optional; FAST (9, 12) trades accuracy for speed.
    """

    HIGH = (12.0, 23)
    FAST = (9.0, 12)

    def __init__(self, tau_m, n_terms):
        self.params = ApproxParams(tau_m, n_terms)


def _resolve_params(params) -> ApproxParams:
    if params is None:
        return Preset.HIGH.params
    if isinstance(params, Preset):
        return params.params
    if isinstance(params, ApproxParams):
        return params
    raise TypeError(f"expected ApproxParams, Preset or None, got {type(params)!r}")


@dataclass(frozen=True)
class VoigtLine:
    """Spectral line: center and integrated strength plus the Doppler
    (Gaussian) and Lorentz half-widths at half-maximum, all in the same
    wavenumber units."""

    center: float
    strength: float
    doppler_hwhm: float
    lorentz_hwhm: float

    def __post_init__(self):
        for name in ("center", "strength", "doppler_hwhm", "lorentz_hwhm"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
        if self.strength < 0.0:
            raise DomainError(f"strength must be >= 0, got {self.strength!r}")
        if self.doppler_hwhm <= 0.0:
            raise DomainError(
                f"doppler_hwhm must be > 0, got {self.doppler_hwhm!r} "
                "(pure Lorentzian lines are reached via the fallback, not y -> inf)"
            )
        if self.lorentz_hwhm < 0.0:
            raise DomainError(f"lorentz_hwhm must be >= 0, got {self.lorentz_hwhm!r}")


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------

def _validated(z: np.ndarray, caller: str | None = None, open_half: bool = False):
    """The complex128 array ``z``, flattened.  Raises DomainError with the
    index of the first non-finite element, else, when ``caller`` is given,
    of the first with Im z < 0 (Im z <= 0 if ``open_half``)."""
    flat = z.ravel()
    v = flat.view(np.float64)
    if flat.size and not (math.isfinite(v.min()) and math.isfinite(v.max())):
        i = int(np.argmax(~np.isfinite(flat)))
        raise DomainError(f"non-finite input at index {i}: {flat[i]!r}", index=i)
    if caller is not None:
        outside = flat.imag <= 0.0 if open_half else flat.imag < 0.0
        if outside.any():
            i = int(np.argmax(outside))
            rel = ">" if open_half else ">="
            raise DomainError(f"{caller} requires Im z {rel} 0; index {i} is {flat[i]!r}",
                              index=i)
    return flat


_serial = threading.RLock()


def _new_serial_lock():
    """A forked child gets a fresh lock: a thread that held it in the
    parent does not exist in the child to release it."""
    global _serial
    _serial = threading.RLock()


os.register_at_fork(after_in_child=_new_serial_lock)


def _lock(points: int):
    """``_serial`` for a call on at most _SERIAL_POINTS points, else no lock."""
    return _serial if points <= _SERIAL_POINTS else nullcontext()


def _batch(zs, run, caller: str | None = None, open_half: bool = False) -> np.ndarray:
    """The entry path of every public batch call: ``zs`` converted to
    complex128 once, then, under ``_lock`` of its size, ``_validated`` and
    ``run`` on the flat array (it resolves its parameters), in zs's shape."""
    z = np.asarray(zs, dtype=np.complex128)
    with _lock(z.size):
        return run(_validated(z, caller, open_half)).reshape(z.shape)


def _scalar_call(batch, z, *args) -> complex:
    """``batch`` on the 1-element array [z]: a scalar entry point shares the
    bits and the errors (with index 0) of its batch function."""
    return complex(batch(np.array([complex(z)]), *args)[0])


# ---------------------------------------------------------------------------
# production kernel (single-exponential form)
# ---------------------------------------------------------------------------

def _series_ratio_p4(w: np.ndarray) -> np.ndarray:
    """(exp(w) - 1)/w truncated at 4th order: the error is at most
    |w|^5/720, 1.4e-18 out to |w| = _PATCH_RADIUS."""
    return 1.0 + w * (0.5 + w * (1.0 / 6.0 + w * (1.0 / 24.0 + w * (1.0 / 120.0))))


# Aliased complex multiplies (x *= y, y complex) are avoided in all kernels:
# numpy routes the aliased size-1 case through a non-FMA scalar loop whose
# last bit can differ from the vector path, which would break the bitwise
# batch == scalar-sweep contract.  Non-aliased multiplies, divisions and
# additions are position-stable.
#
# Kernel ops do not broadcast one operand across the rows of another where
# a flat form measures faster: numpy (2.4) runs such an op through its
# iterator's copy buffer while a few of its whole rows fit in the buffer's
# 8192 elements, so adding a (2, 1) column to a (2, 4096) complex array
# took 9.5 us and to a (2, 4097) one 5.0 us.  _w_upper's term table keeps
# its broadcasts, as per-row calls measured slower; on its 12-row float64
# table they cost 0.7-1.1 ns a value up to m = 2730 points (three rows
# buffered) and 0.25-0.4 ns from m = 2731 on, and in the term-major layout
# the edge lies at 2048/2049.  So the term loop runs under a 16-element
# buffer, which leaves those ops unbuffered at every m: 0.25-0.5 ns a
# value from m = 1000 on (2-core Xeon, numpy 2.4.6).

def _rotation(t, e, out):
    """e*exp(i*theta) = e*((1 - t^2) + 2it)/(1 + t^2) for t = tan(theta/2),
    into ``out``; returns 2e*t^2/(1 + t^2)."""
    h = np.square(t)
    g = np.divide(e, h + 1.0)
    g += g                                       # 2e/(1 + t^2)
    np.multiply(g, t, out=out.imag)
    h *= g                                       # 2e*t^2/(1 + t^2)
    np.subtract(e, h, out=out.real)
    return h


def _exp_pass(A, out):
    """B = exp(i*A) for Im A >= 0, the one transcendental pass of the
    production form: with t = tan(Re A/2) and e = exp(-Im A),

        B = e*((1 - t^2) + 2it)/(1 + t^2),

    from one tangent and one expm1 pass, into ``out``.  Returns
    Re(1 - B) = 2e*t^2/(1 + t^2) - expm1(-Im A), a sum of two
    non-negative parts, so 1 - B keeps its relative accuracy near A = 0;
    Im(1 - B) = -Im B.  Re(1 - B) has an array of its own, so the pass's
    work rows are freed at return."""
    t = np.multiply(A.real, 0.5)
    np.tan(t, out=t)
    em1 = np.negative(A.imag)
    np.expm1(em1, out=em1)                       # e - 1
    np.add(em1, 1.0, out=out.real)               # e
    h = _rotation(t, out.real, out)
    h -= em1
    return h


def _singular(A, n_max, radius=GUARD_RADIUS):
    """Elements of A within ``radius`` of s*k*pi for 0 <= k <= n_max:
    their indices (ascending), k (as intp) and sign s = +-1.0."""
    idx = np.flatnonzero(np.abs(A.imag) < radius)         # |A - s*k*pi| >= |Im A|
    if not idx.size:
        return idx, idx, idx
    Ac = A[idx]
    k = np.rint(np.abs(Ac.real) / _PI)                    # nearest k*pi
    s = np.where(Ac.real >= 0.0, 1.0, -1.0)
    hit = (k <= n_max) & (np.abs(Ac - s * k * _PI) < radius)
    return idx[hit], k[hit].astype(np.intp), s[hit]


def _tree_sum(T, count):
    """Sum terms 0..count-1 of the term-major table T into T[0] by halving:
    each step adds one contiguous block of whole terms elementwise, so a
    point's sum has the same bits whatever the number of points."""
    while count > 1:
        h = count // 2
        T[:h] += T[count - h:count]
        count -= h


def _w_upper(z, params):
    """Single-exponential form over the closed upper half-plane (1-D input).
    With A = tau_m*z, C = A^2 and B = exp(iA),

        w = i*(1 - B)/A + i*(tau_m/sqrt(pi))*A*(B*S_alt - S_even),
        S_even = sum a_n/(n^2 pi^2 - C),  S_alt = sum (-1)^n a_n/(n^2 pi^2 - C).

    The term table is real: a_n/(n^2 pi^2 - C) = a_n*(d_n + i Im C)/(d_n^2 +
    (Im C)^2) with d_n = n^2 pi^2 - Re C, one real division per term.  The
    odd and the even terms each fill a term-major (terms x 2 x points)
    table, term n's Re and Im weights side by side, under a 16-element
    ufunc buffer (see the kernel comment above); for |z| < _FAR the squares
    stay in binary64 range.  The closing is complex:
    the two sums become S_alt and S_even, and the three products and the
    quotient above are one complex ufunc each.  A sparse patch: at the
    points ``_singular`` places within _PATCH_RADIUS of +-n*pi, term n gets
    zero weight in the sums and its series limit is added to
    B*S_alt - S_even; within _PATCH_RADIUS of 0, i*(1 - B)/A is replaced by
    its limit."""
    a = params.coefficients
    nt = params.n_terms
    m = z.size
    A, B = np.empty((2, m), np.complex128)
    np.multiply(z, params.tau_m, out=A)
    pr = _exp_pass(A, out=B)                       # pr = Re(1 - B)
    rows = np.empty((7, m))
    P = rows[0:4].reshape(2, 2, m)                 # (Re, Im/Im C) sums of odd, even n
    cr, ci, sq = rows[4:]
    T = np.empty(((nt + 1) // 2, 2, m))            # T[:, 0]: Re weights, T[:, 1]: Im weights
    hit, k, sign = _singular(A, nt, _PATCH_RADIUS)
    z0 = j = hit                                   # hits near 0, near +-kk*pi
    if hit.size:
        on = k >= 1
        z0, j, kk, sg = hit[~on], hit[on], k[on], sign[on]
    ar, ai = A.real, A.imag
    np.square(ar, out=cr)
    np.square(ai, out=sq)
    cr -= sq                                    # Re C
    np.multiply(ar, ai, out=ci)
    ci += ci                                    # Im C
    np.square(ci, out=sq)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        old = np.setbufsize(16)
        try:
            for p, (npi2, an) in enumerate(params.parity_terms):
                count = npi2.shape[0]
                Tp = T[:count]
                re, im = Tp[:, 0], Tp[:, 1]
                np.subtract(npi2, cr, out=re)               # d_n
                np.square(re, out=im)
                im += sq
                np.divide(an, im, out=im)                   # a_n/|.|^2
                re *= im
                if j.size:
                    mine = (kk & 1) != p
                    Tp[(kk[mine] - 1) // 2, :, j[mine]] = 0.0
                _tree_sum(Tp, count)
                P[p] = Tp[0] if count else 0.0
        finally:    # not left to errstate: the closing runs faster at the caller's size
            np.setbufsize(old)  # (0.90 of the buffered kernel's time, 0.96 with 16 throughout)
        del T, Tp, re, im                       # the closing's rows take its memory
        S_alt, S_even, U = np.empty((3, m), np.complex128)
        (ov, o_i), (ev, e_i) = P
        np.subtract(ev, ov, out=S_alt.real)
        np.subtract(e_i, o_i, out=S_alt.imag)
        S_alt.imag *= ci
        np.add(ev, ov, out=S_even.real)
        np.add(e_i, o_i, out=S_even.imag)
        S_even.imag *= ci
        np.multiply(B, S_alt, out=U)
        U -= S_even                             # B*S_alt - S_even
        if j.size:
            npi = kk * _PI
            d = A[j] - sg * npi
            # a_n*((-1)^n e^{iA} - 1)/(n^2 pi^2 - A^2)
            #   == -sg*a_n*(e^{id} - 1)/d / (2 n pi + sg d),  d = A - sg n pi
            U[j] += ((-sg * a[kk] * 1j) * _series_ratio_p4(1j * d)
                     / (2.0 * npi + sg * d))
        np.multiply(A, U, out=S_alt)            # S_alt's row is free from here
        out = np.multiply(S_alt, 1j * params.tau_m / _SQRT_PI)
        S_even.real, S_even.imag = B.imag, pr   # i*(1 - B)
        np.divide(S_even, A, out=U)             # overflows at |A| < 1/DBL_MAX: patched
        if z0.size:
            U[z0] = _series_ratio_p4(1j * A[z0])             # i*(1-e^{iA})/A limit
        out += U
    return out


def _blocked(z: np.ndarray, run, workers: int = 1) -> np.ndarray:
    """The output ``out = np.empty_like(z)`` of a blocked pass over the flat
    array ``z``, filled by ``run(lo, hi, out)`` on consecutive blocks: on
    threads, blocks of ``2*_BLOCK`` points taken in order by as many of the
    ``workers`` as get ``_THREAD_BLOCKS`` blocks each; inline, blocks of
    ``_BLOCK``.  With fewer than two such workers the call runs inline.
    The exception that propagates is that of the lowest block that
    raised."""
    n, out = z.size, np.empty_like(z)
    threads = min(workers, len(range(0, n, 2 * _BLOCK)) // _THREAD_BLOCKS)
    step = _BLOCK if threads < 2 else 2 * _BLOCK

    def one(lo):
        run(lo, min(lo + step, n), out)

    if threads < 2:
        for lo in range(0, n, step):
            one(lo)
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            for _ in ex.map(one, range(0, n, step)):     # results in block order
                pass
    return out


def _gh_table(n_nodes: int) -> tuple:
    """Numerator (row 0) and denominator (row 1) coefficients of the
    ``n_nodes``-point Gauss-Hermite quadrature of w, highest power first,
    as Python scalars, so the Horner loops broadcast no coefficient rows.
    N has one degree less than D, so row 0 is one entry shorter: a zero
    leading coefficient would cost a multiply and an add per point.

    The quadrature (i/pi)*sum_k H_k/(z - t_k), summed over the +-t pairs,
    is u*N(v)/D(v) with u = 1/z, v = u^2, D(v) = prod (1 - t_k^2 v) and
    N(v) = (2i/pi)*sum_k H_k*prod_{j != k} (1 - t_j^2 v), over the positive
    nodes; N(0) = i/sqrt(pi), the leading term of w at infinity."""
    t, h = np.polynomial.hermite.hermgauss(n_nodes)
    P = np.polynomial.polynomial
    factors = [np.array([1.0, -tk * tk]) for tk in t[t > 0.0]]
    table = np.zeros((2, len(factors) + 1), np.complex128)
    table[1] = reduce(P.polymul, factors)
    for k, hk in enumerate(h[t > 0.0]):
        rest = reduce(P.polymul, factors[:k] + factors[k + 1:], 1.0)
        table[0, :rest.size] += hk * rest
    table[0] *= 2j / _PI
    return tuple(table[0, -2::-1].tolist()), tuple(table[1, ::-1].tolist())


_GH_TABLE = _gh_table(_GH_NODES)


def _horner(coeffs, v, out, scratch):
    """The polynomial with ``coeffs`` (highest power first, at least two) at
    ``v``, into ``out``: a flat Horner recurrence started at c_0*v + c_1,
    through the ``scratch`` row, so no complex multiply is aliased."""
    c0, c1, *rest = coeffs
    np.multiply(v, c0, out=scratch)
    np.add(scratch, c1, out=out)
    for c in rest:
        np.multiply(out, v, out=scratch)
        np.add(scratch, c, out=out)


def _w_gauss_hermite(z: np.ndarray) -> np.ndarray:
    """w outside the series radius in the closed upper half-plane (1-D
    input): the Gauss-Hermite quadrature u*N(v)/D(v) of ``_GH_TABLE``, N and
    D each by ``_horner``.  u = 0.5/(0.5*z) is 1/z bit for bit where that is
    normal, and its divisor cannot overflow."""
    u = np.divide(0.5, 0.5 * z)
    v = np.multiply(u, u)
    N, D, S = np.empty((3, z.size), np.complex128)
    for P, c in zip((N, D), _GH_TABLE):
        _horner(c, v, P, S)
    np.multiply(u, N, out=S)
    return np.divide(S, D, out=N)


def _split(a):
    """a = hi + lo exactly, each half with at most 26 significant bits
    (Dekker's split, constant 2^27 + 1); finite for |a| below about 1e300."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _exp_neg_square(x, y):
    """exp(-z^2) for z = x + i*y, from -z^2 = (y - x)*(y + x) - 2i*x*y: no
    inf - inf.  m = exp((y - x)*(y + x)) scales a unit ``_rotation`` by
    tan(-xy): no step overflows before the value, which is 0 where m is.
    The rounded phase 2xy is off by up to ulp(2xy), so where |xy| >= 64 and
    xy, m are finite, m > 0 (|x|, |y| near or below sqrt(DBL_MAX), where the
    split cannot overflow), xy = p + q exactly by Dekker's TwoProduct (Numer.
    Math. 18 (1971) 224): the angle 2p from sin and cos of p, rotated by 2q.
    -z has the same bits.  Call under np.errstate with all three ignored."""
    E = np.empty(x.size, np.complex128)
    m = np.exp((y - x) * (y + x))
    t = np.multiply(x, -y)
    big = np.flatnonzero(np.abs(t) >= 64.0)
    _rotation(np.tan(t, out=t), 1.0, E)
    E.real *= m
    E.imag *= m
    if big.size:
        m, p = m[big], x[big] * y[big]
        E[big[m == 0.0]] = 0.0
        keep = (m > 0.0) & np.isfinite(m) & np.isfinite(p)
        big, m, p = big[keep], m[keep], p[keep]
        (xh, xl), (yh, yl) = _split(x[big]), _split(y[big])
        q = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
        s, c = np.sin(p), np.cos(p)
        s, c = 2.0 * s * c, (c - s) * (c + s)            # sin 2p, cos 2p
        sq, cq = np.sin(2.0 * q), np.cos(2.0 * q)
        E.real[big] = m * (c * cq - s * sq)              # m*exp(-2i(p + q))
        E.imag[big] = -m * (s * cq + c * sq)
    return E


def _evaluate(z: np.ndarray, series, radius: float, workers: int = 1) -> np.ndarray:
    """w over the validated flat array ``z``, block by block: the one block
    path of all three batch evaluators.  Each block is split by numpy's |z|
    (which folding leaves unchanged bit for bit) into two regions: the points
    with |z| < ``radius`` take ``series(zs, at)``, the rest the Gauss-Hermite
    quadrature.  Each region gathers its points, with input indices ``at``,
    into a copy ``zs`` folded into the closed upper half-plane (-z at the
    indices ``li`` where Im z < 0), its evaluator returns their values, and
    those at ``li`` take w(z) = 2*exp(-z^2) - w(-z) before the one scatter.
    ``eval_batch`` passes ``radius = _R_GH``, the series forms ``_FAR``."""

    def quadrature(zs, at):
        return _w_gauss_hermite(zs)

    def run(lo, hi, out):
        inner = np.abs(z[lo:hi]) < radius
        i = hi                                   # the block's first overflow
        for f, part in ((series, inner), (quadrature, ~inner)):
            at = lo + np.flatnonzero(part)
            if at.size:
                zs = z[at]                       # a copy: -z never writes into the input
                li = np.flatnonzero(b) if (b := zs.imag < 0.0).any() else None
                if li is not None:
                    zs[li] = -zs[li]
                v = f(zs, at)
                if li is not None:
                    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                        r = 2.0 * _exp_neg_square(zs.real[li], zs.imag[li]) - v[li]
                    ok = np.isfinite(r)
                    if not ok.all():
                        i = min(i, int(at[li[np.argmin(ok)]]))
                    v[li] = r
                out[at] = v
        if i < hi:
            raise ReflectionOverflowError(
                f"2*exp(-z^2) - w(-z) overflows binary64 at index {i} "
                f"(z = {z[i]!r}); lower half-plane value not representable", index=i)

    return _blocked(z, run, workers)


def _production(params):
    """The production form at ``params`` (resolved here) as _evaluate's series."""
    params = _resolve_params(params)
    return lambda z, at: _w_upper(z, params)


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------

def eval_eq3(z, params=None) -> complex:
    """Faddeeva function on the closed upper half-plane via the
    single-exponential production form.

    Removable singularities (tau_m*z near 0 or near +-n*pi) are evaluated by
    guarded series limits, and |z| >= 1e8 takes the Gauss-Hermite
    quadrature, so any finite z with Im z >= 0 yields a finite value.

    Raises
    ------
    DomainError
        If z is non-finite or has Im z < 0 (``index`` is 0).
    """
    return _scalar_call(eval_eq3_batch, z, params)


def eval_eq3_batch(zs, params=None) -> np.ndarray:
    """Vectorized :func:`eval_eq3`.  Output is bitwise identical to a scalar
    sweep and independent of block boundaries.  Calls on at most 9216
    converted points run one at a time across caller threads (``_SERIAL_POINTS``)."""
    return _batch(zs, lambda z: _evaluate(z, _production(params), _FAR), "eval_eq3")


def eval_eq1(z, params=None) -> complex:
    """Faddeeva function via the raw two-sided series, term by term as
    written, one exponential pair per term.

    This is the unguarded reference form: arguments with any denominator
    within :data:`GUARD_RADIUS` of zero (tau_m*z near 0 or near +-n*pi) are
    rejected rather than patched.  Like the production form, it takes the
    Gauss-Hermite quadrature from |z| >= 1e8 on, where the raw terms lose
    all accuracy to cancellation.

    Raises
    ------
    DomainError
        If z is non-finite, has Im z < 0, or tau_m*z is within the guard
        radius of a removable singularity (``index`` is 0).
    """
    return _scalar_call(eval_eq1_batch, z, params)


def eval_eq1_batch(zs, params=None) -> np.ndarray:
    """Vectorized :func:`eval_eq1`, evaluated block by block.  Calls on at
    most 9216 converted points run one at a time across caller threads
    (``_SERIAL_POINTS``)."""
    return _batch(zs, lambda z: _evaluate(z, _raw_series(params), _FAR), "eval_eq1")


def _raw_series(params):
    """The raw two-sided series at ``params`` (resolved here) as _evaluate's series."""
    params = _resolve_params(params)
    tau, a = params.tau_m, params.coefficients

    def series(z, at):
        A = z * tau
        hit, k, _ = _singular(A, params.n_terms)
        if hit.size:
            i = int(at[hit[0]])
            raise DomainError(
                f"eval_eq1 denominator below guard radius at index {i}: tau_m*z "
                f"within {GUARD_RADIUS} of k*pi, k = {int(k[0])}", index=i)
        S = np.zeros_like(A)
        for n in range(params.n_terms + 1):
            an_tau = a[n] * tau
            npi = n * _PI
            E_plus = np.exp(1j * (npi + A))
            E_minus = np.exp(1j * (A - npi))
            S += an_tau * ((1.0 - E_plus) / (npi + A) - (1.0 - E_minus) / (npi - A))
        S -= a[0] * (1.0 - np.exp(1j * A)) / z
        return S * (1j / (2.0 * _SQRT_PI))

    return series


def eval_w(z, params=None) -> complex:
    """Faddeeva function on the full complex plane.

    Im z >= 0 evaluates the production form directly for |z| < 7 and the
    12-point Gauss-Hermite quadrature from |z| >= 7 on, up to components of
    DBL_MAX; Im z < 0 uses the exact reflection w(z) = 2*exp(-z^2) - w(-z).

    Raises
    ------
    DomainError
        If z is non-finite (``index`` is 0).
    ReflectionOverflowError
        If 2*exp(-z^2) - w(-z) exceeds the binary64 range (large |Im z|
        below the axis): the lower half-plane value is not representable.
    """
    return _scalar_call(eval_batch, z, params)


def eval_batch(zs, params=None, workers: int = 1) -> np.ndarray:
    """Vectorized :func:`eval_w` over an ordered collection.

    Evaluates in blocks of a fixed number of points, each through the whole
    path (reflection included), so the temporaries stay cache-sized and
    peak memory is the output plus a few blocks; ``workers`` threads share
    the blocks.  Output order matches input order and is bitwise identical
    to a scalar :func:`eval_w` sweep (a 1-element batch each) regardless of
    ``workers`` or block boundaries.

    A call whose input converts to at most 9216 points (``_SERIAL_POINTS``)
    holds a process-wide lock from that conversion to return, so such calls
    from several caller threads run one at a time, without handing the
    interpreter lock back and forth; larger calls and the ``workers`` pool never take it.

    Raises
    ------
    DomainError
        Non-finite element (reported with its index), or ``workers`` not an
        integer >= 1.
    ReflectionOverflowError
        2*exp(-z^2) - w(-z) overflow for a lower half-plane element (the
        first such index).
    """
    workers = _integer(workers, "workers", 1)
    return _batch(zs, lambda z: _evaluate(z, _production(params), _R_GH, workers))


# ---------------------------------------------------------------------------
# Voigt function and line profile
# ---------------------------------------------------------------------------

def voigt_function(x: float, y: float, params=None) -> float:
    """Voigt function K(x, y) = Re w(x + i*y) for y >= 0, bit for bit
    Re :func:`eval_batch`; DomainError (``index`` 0) for non-finite x, y
    or y < 0."""
    w = _batch(np.array([complex(float(x), float(y))]),
               lambda z: _evaluate(z, _production(params), _R_GH), "voigt_function")
    return float(w[0].real)


def voigt_profile(grid, line: VoigtLine, params=None) -> np.ndarray:
    """Voigt profile of ``line`` sampled on ``grid`` (wavenumber ordinates).

    The profile is strength*sqrt(ln2/pi)/doppler_hwhm * K(x, y) with
    x = sqrt(ln2)*(nu - center)/doppler_hwhm and
    y = sqrt(ln2)*lorentz_hwhm/doppler_hwhm, integrating to ``strength``.
    Lines with doppler_hwhm below ``LORENTZ_FALLBACK_RATIO * lorentz_hwhm``
    use the closed-form Lorentzian instead.  A grid of at most 9216 points
    (its converted ``size``) holds the lock of :func:`eval_batch` for the
    rest of the call, so such calls run one at a time across caller threads.

    Raises
    ------
    DomainError
        At the first ordinate (``index``, into the flattened grid) that is
        not finite, or, off the Lorentzian route, whose x overflows.
    """
    if not isinstance(line, VoigtLine):
        raise TypeError(f"expected VoigtLine, got {type(line)!r}")
    nu = np.asarray(grid, dtype=np.float64)
    with _lock(nu.size):
        series = _production(params)
        g = line.lorentz_hwhm
        lorentz = line.doppler_hwhm < LORENTZ_FALLBACK_RATIO * g
        with np.errstate(over="ignore", invalid="ignore"):
            d = nu - line.center
            x = d if lorentz else (_SQRT_LN2 / line.doppler_hwhm) * d
            ok = np.isfinite(nu if lorentz else x).ravel()
            if not ok.all():
                i = int(np.argmin(ok))
                raise DomainError(f"profile grid ordinate {nu.ravel()[i]!r} at index {i} is not "
                                  "finite or overflows x = sqrt(ln2)*(nu - center)/doppler_hwhm",
                                  index=i)
            if lorentz:
                return line.strength * g / (_PI * (d * d + g * g))   # 0 where d*d overflows
        y = _SQRT_LN2 * g / line.doppler_hwhm        # finite, as is x: no _validated
        k = _evaluate((x + 1j * y).ravel(), series, _R_GH).real.reshape(nu.shape)
        return (line.strength * _SQRT_LN2 / (line.doppler_hwhm * _SQRT_PI)) * k
