"""Extended-precision ground truth for w(z) and grid error scans.

w(z) = exp(-z^2)*erfc(-i*z) is evaluated in mpmath arbitrary-precision
arithmetic by two independently coded routes:

* a power-series route: the erf Taylor series (entire, always convergent),
  run with the working precision padded against the cancellation it incurs
  when Im z is large;
* a Laplace continued-fraction route: the J-fraction
  w(z) = (1/sqrt(pi)) / (zeta + (1/2)/(zeta + 1/(zeta + (3/2)/(zeta + ...))))
  with zeta = -i*z, fast for large |z| away from the real axis.

Route selection uses both |z| and Im z.  The continued fraction converges
to the principal-value limit on the real axis (it loses the exp(-z^2)
contribution as Im z -> 0), so near the axis the series route is used at
any radius.  In the overlap band 3 <= |z| <= 5 with Im z >= 1 both routes
run and must agree at the certified tolerance; near-axis band points are
certified by re-running the series at higher precision instead.

Real-axis points take the series route like any near-axis point, and it
is exact there componentwise: -zeta^2 = x^2 is real, so Re erf(zeta) stays
exactly zero and Re w = exp(-x^2) keeps full relative precision.

The oracle trades speed for certainty everywhere: it is never benchmarked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from .core import _integer
from .exceptions import DomainError, OracleConvergenceError

__all__ = [
    "OracleConfig",
    "GridSpec",
    "ErrorReport",
    "oracle_w",
    "error_scan",
    "default_grid",
]

_SERIES_MAX_RADIUS = 3.0     # below: series only
_CF_MIN_RADIUS = 5.0         # above (with Im z >= _CF_MIN_IM): continued fraction
_CF_MIN_IM = 1.0             # continued fraction unreliable below this height
_REL_ERR_FLOOR = 1e-300      # |oracle| below this is excluded from relative error


@dataclass(frozen=True)
class OracleConfig:
    """Decimal working precision of the oracle.  20 digits is the floor
    below which 1e-12 relative claims cannot be certified."""

    digits: int = 30

    def __post_init__(self):
        object.__setattr__(self, "digits", _integer(self.digits, "digits", 20))


@dataclass(frozen=True)
class GridSpec:
    """Cartesian scan grid: every (x, y) pair from the two ordinates."""

    x_values: np.ndarray
    y_values: np.ndarray

    def __post_init__(self):
        for name in ("x_values", "y_values"):
            v = np.atleast_1d(np.asarray(getattr(self, name), dtype=np.float64))
            v.setflags(write=False)
            object.__setattr__(self, name, v)
            if v.size == 0:
                raise DomainError(f"{name} must be non-empty")
            if not np.isfinite(v).all():
                raise DomainError(f"{name} must be finite")

    @property
    def size(self) -> int:
        return int(self.x_values.size * self.y_values.size)

    def points(self) -> np.ndarray:
        """All grid points, x fastest, as a flat complex array."""
        x, y = np.meshgrid(self.x_values, self.y_values)
        return (x + 1j * y).ravel()


@dataclass(frozen=True)
class ErrorReport:
    """Worst-case absolute and relative error of an approximation against
    the oracle over a grid, with the relative-error argmax location."""

    max_abs_err: float
    max_rel_err: float
    argmax_point: complex
    points_scanned: int


def default_grid() -> GridSpec:
    """Default validation grid: x in [-10, 10] step 0.05 and y on 11
    half-decade points from 1e-3 to 1e2 (401 x 11 = 4411 points)."""
    return GridSpec(
        x_values=np.linspace(-10.0, 10.0, 401),
        y_values=10.0 ** np.linspace(-3.0, 2.0, 11),
    )


# ---------------------------------------------------------------------------
# the two evaluation routes
# ---------------------------------------------------------------------------

def _w_series(x: float, y: float, digits: int):
    """w(z) = exp(-z^2)*(1 - erf(zeta)), zeta = -i*z, erf by Taylor series.

    The padding covers the worst cancellation, which grows like exp(2*y^2)
    when the result is dominated by the erf(zeta) ~ 1 regime.  At y = 0 the
    terms are purely imaginary with all-positive magnitudes (the erfi
    series), so Re w = exp(-x^2) and Im w = exp(-x^2)*erfi(x) each keep
    full relative precision.
    """
    pad = int(0.9 * y * y) + 12
    with mp.workdps(digits + pad):
        z = mp.mpc(x, y)
        zeta = mp.mpc(y, -x)
        term = zeta                     # zeta^(2k+1)/k!
        total = zeta                    # sum of term/(2k+1)
        neg_zeta2 = -zeta * zeta
        tol = mp.mpf(10) ** (-(digits + pad - 2))
        r2 = x * x + y * y
        cap = 100 * (digits + pad) + int(4 * r2) + 1000
        k = 0
        while True:
            k += 1
            term = term * neg_zeta2 / k
            inc = term / (2 * k + 1)
            total += inc
            if k > r2 and abs(inc) <= tol * abs(total):
                break
            if k > cap:
                raise OracleConvergenceError(
                    f"series route did not converge within {cap} terms at z = "
                    f"{complex(x, y)!r}")
        erf = total * 2 / mp.sqrt(mp.pi)
        return mp.exp(-z * z) * (1 - erf)


def _w_continued_fraction(x: float, y: float, digits: int):
    """Laplace J-fraction for w via modified Lentz; returns None if the
    iteration cap is hit (caller falls back to the series route)."""
    with mp.workdps(digits + 12):
        zeta = mp.mpc(y, -x)
        tiny = mp.mpf(10) ** (-(digits + 40))
        tol = mp.mpf(10) ** (-(digits + 8))
        f = zeta if zeta != 0 else tiny
        C = f
        D = mp.mpf(0)
        cap = 60 * digits + 4000
        j = 0
        while True:
            j += 1
            a = mp.mpf(j) / 2
            D = zeta + a * D
            if D == 0:
                D = tiny
            C = zeta + a / C
            if C == 0:
                C = tiny
            D = 1 / D
            delta = C * D
            f = f * delta
            if abs(delta - 1) < tol:
                break
            if j > cap:
                return None
        return 1 / (f * mp.sqrt(mp.pi))


def _agree(wa, wb, digits: int) -> bool:
    tol = mp.mpf(10) ** (-(digits - 4))
    scale = abs(wb)
    if scale == 0:
        return abs(wa) == 0
    return abs(wa - wb) / scale <= tol


def _w_upper_mp(x: float, y: float, digits: int):
    """Route dispatch for Im z >= 0."""
    r = math.hypot(x, y)
    if r <= _SERIES_MAX_RADIUS:
        return _w_series(x, y, digits)
    if r < _CF_MIN_RADIUS:
        ws = _w_series(x, y, digits)
        if y >= _CF_MIN_IM:
            wc = _w_continued_fraction(x, y, digits)
            if wc is None:
                raise OracleConvergenceError(
                    f"continued fraction stalled in the overlap band at z = "
                    f"{complex(x, y)!r}")
            if not _agree(wc, ws, digits):
                raise OracleConvergenceError(
                    f"series and continued-fraction routes disagree beyond "
                    f"1e-{digits - 4} at z = {complex(x, y)!r}")
        else:
            ws_hi = _w_series(x, y, digits + 10)
            if not _agree(ws, ws_hi, digits):
                raise OracleConvergenceError(
                    f"series route failed its higher-precision recheck at z = "
                    f"{complex(x, y)!r}")
        return ws
    if y >= _CF_MIN_IM:
        wc = _w_continued_fraction(x, y, digits)
        if wc is not None:
            return wc
    return _w_series(x, y, digits)


@lru_cache(maxsize=None)
def _oracle_cached(x: float, y: float, digits: int):
    if y >= 0.0:
        w = _w_upper_mp(x, y, digits)
    else:
        # exact reflection w(z) = 2*exp(-z^2) - w(-z); no overflow in mpmath.
        # 2*log10|z| extra digits keep -z^2, and so the phase of exp(-z^2),
        # exact to digits + 12
        pad = 2 * math.ceil(math.log10(max(1.0, math.hypot(x, y))))
        with mp.workdps(digits + 12 + pad):
            z = mp.mpc(x, y)
            w = 2 * mp.exp(-z * z) - _w_upper_mp(-x, -y, digits)
    with mp.workdps(digits):
        return +w


def oracle_w(z, config: OracleConfig | int | None = None):
    """Ground-truth w(z) with at least (digits - 4) correct decimal digits,
    returned as an mpmath complex number.

    Raises
    ------
    DomainError
        If z is non-finite.
    OracleConvergenceError
        If the independent routes fail to converge or to agree (a precision
        or configuration problem, not a property of z).
    """
    config = _resolve_config(config)
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"oracle argument must be finite, got {z!r}")
    return _oracle_cached(z.real, z.imag, config.digits)


def _resolve_config(config) -> OracleConfig:
    if config is None:
        return OracleConfig()
    if isinstance(config, OracleConfig):
        return config
    return OracleConfig(digits=config)


# ---------------------------------------------------------------------------
# error scanning
# ---------------------------------------------------------------------------

def error_scan(grid: GridSpec, evaluator, config: OracleConfig | int | None = None) -> ErrorReport:
    """Worst-case error of ``evaluator`` (a batch callable: complex array in,
    complex array out) against the oracle over ``grid``.

    Points where |oracle| < 1e-300 are excluded from the relative maximum
    (their absolute error is still recorded).  Deterministic for a fixed grid.

    Raises
    ------
    DomainError
        On an empty/invalid grid; evaluator domain errors are re-raised with
        the offending grid point attached.
    """
    if not isinstance(grid, GridSpec):
        raise TypeError(f"expected GridSpec, got {type(grid)!r}")
    config = _resolve_config(config)
    zs = grid.points()
    try:
        approx = np.asarray(evaluator(zs), dtype=np.complex128)
    except DomainError as e:
        if e.index is not None:
            point = complex(zs[e.index])
            raise DomainError(f"evaluator failed at grid point {point!r}: {e}",
                              index=e.index, point=point) from e
        raise
    if approx.shape != zs.shape:
        raise DomainError(
            f"evaluator returned shape {approx.shape}, expected {zs.shape}")

    max_abs = 0.0
    max_rel = -1.0
    argmax = complex(zs[0])
    with mp.workdps(config.digits):
        for i in range(zs.size):
            z = zs[i]
            ref = _oracle_cached(z.real, z.imag, config.digits)
            diff = abs(mp.mpc(approx[i].real, approx[i].imag) - ref)
            a = float(diff)
            if a > max_abs:
                max_abs = a
            scale = abs(ref)
            if scale >= _REL_ERR_FLOOR:
                rel = float(diff / scale)
                if rel > max_rel:
                    max_rel = rel
                    argmax = complex(z)
    return ErrorReport(
        max_abs_err=max_abs,
        max_rel_err=max(max_rel, 0.0),
        argmax_point=argmax,
        points_scanned=int(zs.size),
    )
