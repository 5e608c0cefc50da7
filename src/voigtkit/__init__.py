"""voigtkit: fast Fourier-series evaluation of the Voigt/Faddeeva function
w(z) = exp(-z^2)*erfc(-iz), with an extended-precision oracle, a rational-
approximation comparator and a micro-benchmark harness."""

from .bench import (BENCH_CSV_HEADER, DEFAULT_INPUT_SPEC, BenchRecord,
                    InputSpec, exp_time_fraction, generate_inputs,
                    parse_records_csv, records_to_csv, time_implementation)
from .core import (GUARD_RADIUS, ApproxParams, Preset, VoigtLine, eval_batch,
                   eval_eq1, eval_eq1_batch, eval_eq3, eval_eq3_batch, eval_w,
                   fourier_coefficients, voigt_function, voigt_profile)
from .exceptions import (BenchmarkError, DomainError, OracleConvergenceError,
                         ReflectionOverflowError)
from .oracle import (ErrorReport, GridSpec, OracleConfig, default_grid,
                     error_scan, oracle_w)
from .weideman import (WeidemanCoeffs, weideman_batch, weideman_coefficients,
                       weideman_w)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "GUARD_RADIUS", "ApproxParams", "Preset", "VoigtLine",
    "fourier_coefficients", "eval_eq1", "eval_eq1_batch", "eval_eq3",
    "eval_eq3_batch", "eval_w", "eval_batch", "voigt_function", "voigt_profile",
    # oracle
    "OracleConfig", "GridSpec", "ErrorReport", "oracle_w", "error_scan",
    "default_grid",
    # weideman
    "WeidemanCoeffs", "weideman_coefficients", "weideman_w", "weideman_batch",
    # bench
    "InputSpec", "BenchRecord", "DEFAULT_INPUT_SPEC",
    "generate_inputs", "time_implementation", "exp_time_fraction",
    "records_to_csv", "parse_records_csv", "BENCH_CSV_HEADER",
    # exceptions
    "DomainError", "ReflectionOverflowError", "OracleConvergenceError",
    "BenchmarkError",
]
