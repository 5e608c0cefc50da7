"""voigtkit: fast Fourier-series evaluation of the Voigt/Faddeeva function
w(z) = exp(-z^2)*erfc(-iz), with an extended-precision oracle, a rational-
approximation comparator and a micro-benchmark harness.

``import voigtkit`` loads the kernel (``core``) and ``exceptions`` only; the
oracle (with mpmath), the Weideman comparator and the benchmark harness load
on first use of one of their names, which then stays bound here."""

import importlib

from .core import (GUARD_RADIUS, ApproxParams, Preset, VoigtLine, eval_batch,
                   eval_eq1, eval_eq1_batch, eval_eq3, eval_eq3_batch, eval_w,
                   fourier_coefficients, voigt_function, voigt_profile)
from .exceptions import (BenchmarkError, DomainError, OracleConvergenceError,
                         ReflectionOverflowError)

__version__ = "0.1.0"

# The names of each submodule loaded on first use.
_DEFERRED = {
    "oracle": ("OracleConfig", "GridSpec", "ErrorReport", "oracle_w", "error_scan",
               "default_grid"),
    "weideman": ("WeidemanCoeffs", "weideman_coefficients", "weideman_w",
                 "weideman_batch"),
    "bench": ("InputSpec", "BenchRecord", "DEFAULT_INPUT_SPEC",
              "generate_inputs", "time_implementation", "exp_time_fraction",
              "records_to_csv", "parse_records_csv", "BENCH_CSV_HEADER"),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in names}

__all__ = [
    "__version__",
    # core
    "GUARD_RADIUS", "ApproxParams", "Preset", "VoigtLine",
    "fourier_coefficients", "eval_eq1", "eval_eq1_batch", "eval_eq3",
    "eval_eq3_batch", "eval_w", "eval_batch", "voigt_function", "voigt_profile",
    *_DEFERRED["oracle"], *_DEFERRED["weideman"], *_DEFERRED["bench"],
    # exceptions
    "DomainError", "ReflectionOverflowError", "OracleConvergenceError",
    "BenchmarkError",
]


def __getattr__(name):
    """A submodule of ``_DEFERRED`` or one of its names, imported and bound
    in this module's globals, so the next access does not come here."""
    if name in _DEFERRED:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_DEFERRED))
