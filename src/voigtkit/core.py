"""Fourier-series evaluation of the Faddeeva function w(z) = exp(-z^2)*erfc(-iz).

The evaluator approximates the Gaussian kernel of w by a truncated Fourier
cosine series with period parameter ``tau_m`` and ``n_terms`` harmonics,
with coefficients

    a_n = (2*sqrt(pi)/tau_m) * exp(-n^2 pi^2 / tau_m^2).

Two algebraically equivalent forms are provided:

* :func:`eval_eq1` -- the raw two-sided series, one exponential per term.
  It is kept unguarded on purpose: it serves as the reference side of the
  equivalence property and as the slow baseline in benchmarks, and it
  refuses inputs near its removable 0/0 singularities.
* :func:`eval_eq3` -- the production form.  Collapsing the +n/-n term pairs
  leaves a single complex exponential per point plus a short sum of rational
  terms.  Every point runs the same loop; term n is overwritten by its
  truncated-series limit only at the points within GUARD_RADIUS of the
  removable singularity tau_m*z = +-n*pi (likewise i*(1 - B)/A near 0), so
  every input in the closed upper half-plane with |Re z|, |Im z| <
  sqrt(DBL_MAX)/(2*tau_m) yields a finite value; inputs outside that box
  raise DomainError.  One locator, ``_singular``, finds these points for
  both forms.

Batch evaluation of the production form runs block by block: each block
of ``_BLOCK`` consecutive points goes through the whole per-point path
(reflection of lower half-plane points included), so the working arrays
stay cache-sized and peak memory is the output plus a few blocks.  Each
block makes one transcendental pass, B = exp(i*tau_m*z), plus exp(-z^2)
for its lower half-plane points.  All evaluators are elementwise, so batch
output is bitwise identical to a scalar sweep (a 1-element batch) and
independent of blocks and threads.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

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
_SQRT_DBL_MAX = math.sqrt(sys.float_info.max)

#: Guard radius: inside |tau_m*z| < GUARD_RADIUS or |tau_m*z -+ n*pi| < GUARD_RADIUS
#: the affected 0/0 term of the production form is replaced by a 4th-order
#: truncated series of the ratio about the singular point.
GUARD_RADIUS = 1e-6

#: Points per block of batch evaluation: a block's complex work arrays fit
#: in cache (blocks of 4096 to 16384 points measured equally fast).
_BLOCK = 16384

#: Below doppler_hwhm < LORENTZ_FALLBACK_RATIO * lorentz_hwhm the profile
#: degenerates to a closed-form Lorentzian (the dimensionless y would overflow).
LORENTZ_FALLBACK_RATIO = 1e-8


@dataclass(frozen=True)
class ApproxParams:
    """Fourier-series parameters: period ``tau_m``, term count ``n_terms``
    and the precomputed coefficient table ``a_0..a_N`` (immutable, safe to
    share across threads)."""

    tau_m: float
    n_terms: int
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        tau = self.tau_m
        if not (math.isfinite(tau) and tau > 0.0):
            raise DomainError(f"tau_m must be finite and > 0, got {tau!r}")
        if self.n_terms < 1:
            raise DomainError(f"n_terms must be >= 1, got {self.n_terms!r}")
        a = np.asarray(self.coefficients, dtype=np.float64)
        a.setflags(write=False)
        object.__setattr__(self, "coefficients", a)
        if a.shape != (self.n_terms + 1,):
            raise DomainError(
                f"coefficient table must have n_terms + 1 = {self.n_terms + 1} "
                f"entries, got {a.shape}"
            )
        if not (a > 0.0).all():
            raise DomainError("all coefficients must be > 0 (n_terms too large "
                              "for tau_m at binary64 precision?)")
        if not (np.diff(a) < 0.0).all():
            raise DomainError("coefficients must decrease strictly with n")
        a0_ref = 2.0 * _SQRT_PI / tau
        if abs(a[0] - a0_ref) > np.spacing(a0_ref):
            raise DomainError("a_0 must equal 2*sqrt(pi)/tau_m to within 1 ulp")


def fourier_coefficients(tau_m: float, n_terms: int) -> ApproxParams:
    """Build the coefficient table a_n = (2*sqrt(pi)/tau_m)*exp(-n^2 pi^2/tau_m^2)
    for n = 0..n_terms.

    Raises
    ------
    DomainError
        If ``tau_m <= 0``, ``n_terms < 1``, or the requested tail coefficients
        underflow to zero in binary64.
    """
    if not (isinstance(n_terms, (int, np.integer)) and not isinstance(n_terms, bool)):
        raise DomainError(f"n_terms must be an integer, got {n_terms!r}")
    tau_m = float(tau_m)
    if not (math.isfinite(tau_m) and tau_m > 0.0):
        raise DomainError(f"tau_m must be finite and > 0, got {tau_m!r}")
    n = np.arange(n_terms + 1, dtype=np.float64)
    a0 = 2.0 * _SQRT_PI / tau_m
    a = a0 * np.exp(-(n * n) * (_PI2 / (tau_m * tau_m)))
    return ApproxParams(tau_m=tau_m, n_terms=int(n_terms), coefficients=a)


class Preset(Enum):
    """Named (tau_m, n_terms) configurations.

    HIGH (12, 23) preserves full binary64 accuracy and is the default
    everywhere a preset is optional; FAST (9, 12) trades accuracy for speed.
    """

    HIGH = (12.0, 23)
    FAST = (9.0, 12)

    @property
    def params(self) -> ApproxParams:
        return _preset_params(self.name)


@lru_cache(maxsize=None)
def _preset_params(name: str) -> ApproxParams:
    tau_m, n_terms = Preset[name].value
    return fourier_coefficients(tau_m, n_terms)


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

def _validated(zs, params: ApproxParams, caller: str | None = None):
    """``zs`` as a flat complex128 array plus its shape.  Raises DomainError
    with the index of the first non-finite element, else of the first with a
    component of size >= sqrt(DBL_MAX)/(2*tau_m) (A*A and the loop's
    divisions would leave binary64 range), else, when ``caller`` is given,
    of the first with Im z < 0."""
    z = np.asarray(zs, dtype=np.complex128)
    flat = z.ravel()
    v = flat.view(np.float64)
    limit = _SQRT_DBL_MAX / (2.0 * params.tau_m)
    if flat.size and not (v.min() > -limit and v.max() < limit):
        bad = ~np.isfinite(flat)
        what = "non-finite input"
        if not bad.any():
            bad = (np.abs(flat.real) >= limit) | (np.abs(flat.imag) >= limit)
            what = f"component of size >= sqrt(DBL_MAX)/(2*tau_m) = {limit:.6g}"
        i = int(np.argmax(bad))
        raise DomainError(f"{what} at index {i}: {flat[i]!r}", index=i)
    if caller is not None:
        neg = flat.imag < 0.0
        if neg.any():
            i = int(np.argmax(neg))
            raise DomainError(f"{caller} requires Im z >= 0; index {i} is {flat[i]!r}",
                              index=i)
    return flat, z.shape


def _scalar_call(batch, z, *args) -> complex:
    """``batch`` on the 1-element array [z]: a scalar entry point shares the
    bits and the errors (with index 0) of its batch function."""
    return complex(batch(np.array([complex(z)]), *args)[0])


# ---------------------------------------------------------------------------
# production kernel (single-exponential form)
# ---------------------------------------------------------------------------

def _series_ratio_p4(w: np.ndarray) -> np.ndarray:
    """(exp(w) - 1)/w truncated at 4th order; |w| < 1e-6 keeps the
    truncation error below 1e-32."""
    return 1.0 + w * (0.5 + w * (1.0 / 6.0 + w * (1.0 / 24.0 + w * (1.0 / 120.0))))


# Aliased complex multiplies (x *= y, y complex) are avoided in all kernels:
# numpy routes the aliased size-1 case through a non-FMA scalar loop whose
# last bit can differ from the vector path, which would break the bitwise
# batch == scalar-sweep contract.  Non-aliased multiplies, divisions and
# additions are position-stable.

def _exp_pass(A, out=None):
    """B = exp(i*A), the one transcendental pass of the production form."""
    return np.exp(1j * A, out=out)


def _singular(A, n_max):
    """Elements of A within GUARD_RADIUS of s*k*pi for 0 <= k <= n_max:
    their indices (ascending), k and sign s = +-1.0."""
    idx = np.flatnonzero(np.abs(A.imag) < GUARD_RADIUS)   # |A - s*k*pi| >= |Im A|
    if not idx.size:
        return idx, idx, idx
    Ac = A[idx]
    k = np.rint(np.abs(Ac.real) / _PI)                    # nearest k*pi
    s = np.where(Ac.real >= 0.0, 1.0, -1.0)
    hit = (k <= n_max) & (np.abs(Ac - s * k * _PI) < GUARD_RADIUS)
    return idx[hit], k[hit], s[hit]


def _w_upper(z, params):
    """Single-exponential form over the closed upper half-plane (1-D input).
    A sparse per-term patch: term n is replaced by its series limit only at
    the points ``_singular`` places near +-n*pi, where its denominator may
    vanish, and i*(1 - B)/A only at those near 0."""
    a = params.coefficients
    A = z * params.tau_m
    B = _exp_pass(A)
    hit, k, sign = _singular(A, params.n_terms)
    D = A * A                      # becomes n^2 pi^2 - A^2, updated in place
    np.negative(D, out=D)
    D += _PI2
    acc = np.zeros_like(A)
    T = np.empty_like(A)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for n in range(1, params.n_terms + 1):
            if n > 1:
                D += (2 * n - 1) * _PI2
            an = a[n]
            np.multiply(B, -an if n & 1 else an, out=T)   # a_n * (-1)^n * B
            T -= an
            T /= D
            if hit.size:
                npi = n * _PI
                for s in (1.0, -1.0):
                    j = hit[(k == n) & (sign == s)]
                    if j.size:
                        u = A[j] - s * npi
                        # a_n*((-1)^n e^{iA} - 1)/(n^2 pi^2 - A^2)
                        #   == -s*a_n*(e^{iu} - 1)/u / (2 n pi + s u),  u = A - s n pi
                        T[j] = (-s * an * 1j) * _series_ratio_p4(1j * u) / (2.0 * npi + s * u)
            acc += T
        np.multiply(acc, A, out=T)                        # A * sum
        np.multiply(T, 1j * (params.tau_m / _SQRT_PI), out=acc)
        np.subtract(1.0, B, out=T)                        # i*(1 - B)/A
        T /= A
        np.multiply(T, 1j, out=D)
        if hit.size:
            j = hit[k == 0]
            D[j] = _series_ratio_p4(1j * A[j])            # i*(1-e^{iA})/A limit
        acc += D
    return acc


def _blocked(n: int, run, workers: int = 1) -> None:
    """Call ``run(lo, hi)`` on consecutive blocks of ``_BLOCK`` points
    covering range(n).  ``workers`` threads take the blocks in order; an
    input of one block, or ``workers <= 1``, runs inline.  The exception
    that propagates is that of the lowest block that raised."""
    starts = range(0, n, _BLOCK)

    def one(lo):
        run(lo, min(lo + _BLOCK, n))

    if workers <= 1 or len(starts) <= 1:
        for lo in starts:
            one(lo)
        return
    with ThreadPoolExecutor(max_workers=min(int(workers), len(starts))) as ex:
        for _ in ex.map(one, starts):     # results in block order
            pass


def _evaluate(z: np.ndarray, params: ApproxParams, workers: int) -> np.ndarray:
    """w over the validated flat array ``z``, block by block; lower
    half-plane points use w(z) = 2*exp(-z^2) - w(-z)."""
    out = np.empty_like(z)

    def run(lo, hi):
        zb = z[lo:hi]
        neg = zb.imag < 0.0
        w = _w_upper(np.where(neg, -zb, zb), params)
        idx = np.flatnonzero(neg)
        zn = zb[idx]
        with np.errstate(over="ignore", under="ignore"):
            E = np.exp(-(zn * zn))
        bad = ~np.isfinite(E)
        if bad.any():
            i = lo + int(idx[np.argmax(bad)])
            raise ReflectionOverflowError(
                f"exp(-z^2) overflows binary64 at index {i} (z = {z[i]!r}); "
                "lower half-plane value not representable", index=i)
        w[idx] = 2.0 * E - w[idx]
        out[lo:hi] = w

    _blocked(z.size, run, workers)
    return out


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------

def eval_eq3(z, params=None) -> complex:
    """Faddeeva function on the closed upper half-plane via the
    single-exponential production form.

    Removable singularities (tau_m*z near 0 or near +-n*pi) are evaluated by
    guarded series limits, so any valid z yields a finite value.

    Raises
    ------
    DomainError
        If z is non-finite, has a component of size >= sqrt(DBL_MAX)/(2*tau_m),
        or has Im z < 0 (``index`` is 0).
    """
    return _scalar_call(eval_eq3_batch, z, params)


def eval_eq3_batch(zs, params=None, workers: int = 1) -> np.ndarray:
    """Vectorized :func:`eval_eq3`.  Output is bitwise identical to a scalar
    sweep and independent of ``workers`` or block boundaries."""
    params = _resolve_params(params)
    flat, shape = _validated(zs, params, "eval_eq3")
    return _evaluate(flat, params, workers).reshape(shape)


def eval_eq1(z, params=None) -> complex:
    """Faddeeva function via the raw two-sided series, term by term as
    written, one exponential pair per term.

    This is the unguarded reference form: arguments with any denominator
    within :data:`GUARD_RADIUS` of zero (tau_m*z near 0 or near +-n*pi) are
    rejected rather than patched.

    Raises
    ------
    DomainError
        If z is non-finite, has a component of size >= sqrt(DBL_MAX)/(2*tau_m),
        has Im z < 0, or tau_m*z is within the guard radius of a removable
        singularity (``index`` is 0).
    """
    return _scalar_call(eval_eq1_batch, z, params)


def eval_eq1_batch(zs, params=None) -> np.ndarray:
    """Vectorized :func:`eval_eq1`, evaluated block by block."""
    params = _resolve_params(params)
    flat, shape = _validated(zs, params, "eval_eq1")
    tau, a = params.tau_m, params.coefficients
    out = np.empty_like(flat)

    def run(lo, hi):
        z = flat[lo:hi]
        A = z * tau
        hit, k, _ = _singular(A, params.n_terms)
        if hit.size:
            i = lo + int(hit[0])
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
        np.multiply(S, 1j / (2.0 * _SQRT_PI), out=out[lo:hi])

    _blocked(flat.size, run)
    return out.reshape(shape)


def eval_w(z, params=None) -> complex:
    """Faddeeva function on the full complex plane.

    Im z >= 0 evaluates the production form directly; Im z < 0 uses the
    exact reflection w(z) = 2*exp(-z^2) - w(-z).

    Raises
    ------
    DomainError
        If z is non-finite or has a component of size >= sqrt(DBL_MAX)/(2*tau_m)
        (``index`` is 0).
    ReflectionOverflowError
        If exp(-z^2) exceeds the binary64 range (large |Im z| below the axis):
        the lower half-plane value is not representable.
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

    Raises
    ------
    DomainError
        Non-finite element, or one with a component of size >=
        sqrt(DBL_MAX)/(2*tau_m) (reported with its index).
    ReflectionOverflowError
        exp(-z^2) overflow for a lower half-plane element (the first such
        index).
    """
    params = _resolve_params(params)
    flat, shape = _validated(zs, params)
    return _evaluate(flat, params, workers).reshape(shape)


# ---------------------------------------------------------------------------
# Voigt function and line profile
# ---------------------------------------------------------------------------

def voigt_function(x: float, y: float, params=None) -> float:
    """Voigt function K(x, y) = Re w(x + i*y) for y >= 0; errors as
    :func:`eval_eq3`."""
    return _scalar_call(eval_eq3_batch, complex(float(x), float(y)), params).real


def voigt_profile(grid, line: VoigtLine, params=None) -> np.ndarray:
    """Voigt profile of ``line`` sampled on ``grid`` (wavenumber ordinates).

    The profile is strength*sqrt(ln2/pi)/doppler_hwhm * K(x, y) with
    x = sqrt(ln2)*(nu - center)/doppler_hwhm and
    y = sqrt(ln2)*lorentz_hwhm/doppler_hwhm, integrating to ``strength``.
    Lines with doppler_hwhm below ``LORENTZ_FALLBACK_RATIO * lorentz_hwhm``
    use the closed-form Lorentzian instead.
    """
    if not isinstance(line, VoigtLine):
        raise TypeError(f"expected VoigtLine, got {type(line)!r}")
    nu = np.asarray(grid, dtype=np.float64)
    if not np.isfinite(nu).all():
        raise DomainError("profile grid must be finite")
    params = _resolve_params(params)
    if line.doppler_hwhm < LORENTZ_FALLBACK_RATIO * line.lorentz_hwhm:
        g = line.lorentz_hwhm
        d = nu - line.center
        return line.strength * g / (_PI * (d * d + g * g))
    x = (_SQRT_LN2 / line.doppler_hwhm) * (nu - line.center)
    y = _SQRT_LN2 * line.lorentz_hwhm / line.doppler_hwhm
    k = eval_batch(x + 1j * y, params).real
    return (line.strength * _SQRT_LN2 / (line.doppler_hwhm * _SQRT_PI)) * k
