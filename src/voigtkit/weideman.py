"""Rational approximation of w(z) after Weideman.

Implements the method of J.A.C. Weideman, "Computation of the complex error
function", SIAM J. Numer. Anal. 31 (1994) 1497-1518: sample
f(t) = exp(-t^2)*(L^2 + t^2) at t = L*tan(theta/2) on a uniform theta grid,
take the real discrete-Fourier cosine coefficients, and evaluate w as a
polynomial in the Moebius variable Z = (L + i*z)/(L - i*z).

Per-element cost is a fixed-length Horner recurrence, independent of z,
which makes this the standard fast baseline for speed/accuracy comparisons
against the Fourier-series evaluator.  Batch evaluation is not blocked:
the kernel holds five full-size complex temporaries, while the core
evaluator works in blocks of 16384 points, so once the input outgrows the
caches a timing comparison also measures this difference in memory traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _scalar_call, _serial_when_small, _validated
from .exceptions import DomainError

__all__ = ["WeidemanCoeffs", "weideman_coefficients", "weideman_w", "weideman_batch"]

_SQRT_PI = math.sqrt(math.pi)

#: Term count used when no degree is given; the customary configuration,
#: good to ~1e-6 relative over the upper half-plane.
DEFAULT_DEGREE = 16


@dataclass(frozen=True)
class WeidemanCoeffs:
    """Method parameters for term count ``degree``.  Construction validates
    it and computes, once, the scale ``l_param`` L = sqrt(degree/sqrt(2))
    and the ``degree`` polynomial coefficients ``poly``, highest degree
    first (read-only).  Equality and hashing go by ``degree``.

    Sampling grid, transform length and coefficient ordering follow the
    published code: theta_k = k*pi/m for k = -m+1..m-1 with m = 2*degree,
    a zero-padded endpoint, a length-2m FFT scaled by 1/(2m), and the
    ``degree`` coefficients reversed for Horner evaluation.  The transform of
    the real, even sample vector is real up to roundoff; the imaginary
    residue is discarded after a sanity bound.

    Raises
    ------
    DomainError
        If degree is not an even integer >= 4.
    """

    degree: int
    l_param: float = field(init=False, compare=False)
    poly: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        degree = self.degree
        if int(degree) != degree or degree < 4 or degree % 2:
            raise DomainError(f"degree must be an even integer >= 4, got {degree!r}")
        degree = int(degree)
        m = 2 * degree
        m2 = 2 * m
        k = np.arange(-m + 1, m)
        l_param = math.sqrt(degree / math.sqrt(2.0))
        theta = k * (np.pi / m)
        t = l_param * np.tan(0.5 * theta)
        f = np.empty(m2, dtype=np.float64)
        f[0] = 0.0
        f[1:] = np.exp(-t * t) * (l_param * l_param + t * t)
        spectrum = np.fft.fft(np.fft.fftshift(f)) / m2
        window = spectrum[1:degree + 1]
        residue = float(np.abs(window.imag).max())
        if residue > 1e-13:
            raise DomainError(
                f"transform imaginary residue {residue:.3e} exceeds 1e-13; "
                "sampling grid is corrupted")
        poly = window.real[::-1].copy()
        poly.setflags(write=False)
        for name, value in (("degree", degree), ("l_param", l_param), ("poly", poly)):
            object.__setattr__(self, name, value)


#: The parameter set of term count ``degree``.
weideman_coefficients = WeidemanCoeffs

_DEFAULT_COEFFS = WeidemanCoeffs(DEFAULT_DEGREE)


def weideman_w(z, coeffs: WeidemanCoeffs | None = None) -> complex:
    """w(z) on the open upper half-plane via the rational approximation:
    Z = (L + i*z)/(L - i*z), p = Horner(poly, Z),
    w = 2*p/(L - i*z)^2 + (1/sqrt(pi))/(L - i*z).

    Raises
    ------
    DomainError
        If z is non-finite or Im z <= 0 (the method is derived for the open
        upper half-plane); ``index`` is 0.
    """
    return _scalar_call(weideman_batch, z, coeffs)


@_serial_when_small
def weideman_batch(zs, coeffs: WeidemanCoeffs | None = None) -> np.ndarray:
    """Vectorized :func:`weideman_w`; bitwise identical to a scalar sweep.
    Calls on at most 9216 points run one at a time across caller threads,
    under the lock of :func:`voigtkit.core.eval_batch`."""
    coeffs = coeffs if coeffs is not None else _DEFAULT_COEFFS
    flat, shape = _validated(zs, "weideman_w", open_half=True)
    return _weideman_kernel(flat, coeffs).reshape(shape)


def _weideman_kernel(z: np.ndarray, coeffs: WeidemanCoeffs) -> np.ndarray:
    # aliased complex multiplies avoided (numpy's size-1 aliased path can
    # round differently); the Horner recurrence ping-pongs two buffers
    L = coeffs.l_param
    poly = coeffs.poly
    iz = 1j * z
    denom = L - iz                      # L - i*z, reused for both closing terms
    Z = L + iz
    Z /= denom
    p = np.full_like(z, poly[0])
    q = np.empty_like(z)
    for c in poly[1:]:
        np.multiply(p, Z, out=q)
        q += c
        p, q = q, p
    p *= 2.0
    p /= denom
    p /= denom
    np.divide(1.0 / _SQRT_PI, denom, out=q)
    p += q
    return p
