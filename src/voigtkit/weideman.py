"""Rational approximation of w(z) after Weideman.

Implements the method of J.A.C. Weideman, "Computation of the complex error
function", SIAM J. Numer. Anal. 31 (1994) 1497-1518: sample
f(t) = exp(-t^2)*(L^2 + t^2) at t = L*tan(theta/2) on a uniform theta grid,
take the real discrete-Fourier cosine coefficients, and evaluate w as a
polynomial in the Moebius variable Z = (L + i*z)/(L - i*z).

Per-element cost is a fixed-length Horner recurrence, independent of z,
which makes this the standard fast baseline for speed/accuracy comparisons
against the Fourier-series evaluator.  Batch evaluation runs on the core
evaluator's blocks (``core._blocked``) and Horner loop, so both sides of a
timing comparison work in cache-sized temporaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _SQRT_PI, _batch, _blocked, _horner, _integer, _scalar_call
from .exceptions import DomainError

__all__ = ["WeidemanCoeffs", "weideman_coefficients", "weideman_w", "weideman_batch"]

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
        degree = _integer(self.degree, "degree", 4, even=True)
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
    TypeError
        If ``coeffs`` is neither a WeidemanCoeffs nor None.
    """
    return _scalar_call(weideman_batch, z, coeffs)


def weideman_batch(zs, coeffs: WeidemanCoeffs | None = None) -> np.ndarray:
    """Vectorized :func:`weideman_w`, in blocks; bitwise identical to a scalar
    sweep.  Calls whose input converts to at most 9216 points run one at a
    time across caller threads, under the lock of :func:`voigtkit.core.eval_batch`."""
    coeffs = _DEFAULT_COEFFS if coeffs is None else coeffs
    if not isinstance(coeffs, WeidemanCoeffs):
        raise TypeError(f"expected WeidemanCoeffs or None, got {type(coeffs)!r}")
    return _batch(zs, lambda z: _blocked(
        z, lambda lo, hi, out: _weideman_kernel(z[lo:hi], coeffs, out[lo:hi])),
        "weideman_w", open_half=True)


def _weideman_kernel(z: np.ndarray, coeffs: WeidemanCoeffs, out: np.ndarray) -> None:
    """w at the points ``z`` into ``out``, as :func:`weideman_w` states it."""
    L = coeffs.l_param
    iz = 1j * z
    denom = L - iz                      # L - i*z, reused for both closing terms
    Z = L + iz
    Z /= denom
    _horner(coeffs.poly, Z, out, iz)    # iz's row is the scratch from here
    out *= 2.0
    out /= denom
    out /= denom
    np.divide(1.0 / _SQRT_PI, denom, out=Z)
    out += Z
