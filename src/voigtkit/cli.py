"""Command-line front end.

Subcommands: ``eval`` (one point), ``grid`` (Cartesian scan to CSV/JSON/raw
doubles), ``validate`` (error scan against the oracle with pass/fail gate),
``bench`` (timing records as CSV), ``coeffs`` (coefficient table) and
``voigt`` (line profile).  Exit codes: 0 success, 1 gate/domain failure,
2 usage error.

Numbers are written with shortest round-trip (repr) formatting, which
preserves binary64 exactly; identical arguments and seeds therefore produce
byte-identical data files (benchmark records excepted: they hold measured
wall times).  Relative ``--output`` paths are resolved against
``$VOIGTKIT_OUTPUT_DIR`` when it is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import bench as bench_mod
from . import core, oracle, weideman
from .exceptions import (BenchmarkError, DomainError, OracleConvergenceError,
                         ReflectionOverflowError)

OUTPUT_DIR_ENV = "VOIGTKIT_OUTPUT_DIR"


def _preset(name: str) -> core.ApproxParams:
    return core.Preset[name.upper()].params


def _write(arg: str, data: str | bytes) -> None:
    """``data`` to stdout for '-', else to the file ``arg`` (resolved
    against $VOIGTKIT_OUTPUT_DIR when relative); bytes go to stdout's
    binary buffer."""
    binary = isinstance(data, bytes)
    if arg == "-":
        out = sys.stdout.buffer if binary else sys.stdout
        out.write(data)
        out.flush()
        return
    base = os.environ.get(OUTPUT_DIR_ENV)
    path = os.path.join(base, arg) if base and not os.path.isabs(arg) else arg
    with open(path, "wb" if binary else "w") as fh:
        fh.write(data)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    w = core.eval_w(complex(args.x, args.y), _preset(args.preset))
    print(f"{w.real!r} {w.imag!r}")
    return 0


def _grid_axis(lo: float, hi: float, step: float) -> np.ndarray:
    count = (hi - lo) / step + 0.5 if 0.0 < step < np.inf else np.nan
    if not (lo <= hi and np.isfinite(count)):     # so lo and hi are finite too
        raise DomainError(f"bad grid axis: [{lo}, {hi}] step {step}")
    return lo + step * np.arange(int(np.floor(count)) + 1)


def _cmd_grid(args) -> int:
    xs = _grid_axis(args.x_min, args.x_max, args.x_step)
    ys = np.array([float(t) for t in args.y_list.split(",")])
    pts = oracle.GridSpec(x_values=xs, y_values=ys).points()
    w = core.eval_batch(pts, _preset(args.preset))
    table = np.column_stack([pts.real, pts.imag, w.real, w.imag])
    if args.format == "csv":
        _write(args.output, bench_mod._csv("x,y,re_w,im_w", table.tolist()))
    elif args.format == "json":
        doc = {"columns": ["x", "y", "re_w", "im_w"], "rows": table.tolist()}
        _write(args.output, json.dumps(doc, sort_keys=True) + "\n")
    else:  # raw_f64: little-endian f8, interleaved (x, y, re_w, im_w)
        _write(args.output, table.astype("<f8").tobytes())
    return 0


def _load_grid(arg: str) -> oracle.GridSpec:
    if arg == "default":
        return oracle.default_grid()
    with open(arg) as fh:
        doc = json.load(fh)
    return oracle.GridSpec(x_values=np.asarray(doc["x_values"], dtype=float),
                           y_values=np.asarray(doc["y_values"], dtype=float))


def _cmd_validate(args) -> int:
    grid = _load_grid(args.grid)
    params = _preset(args.preset)
    if args.impl == "weideman":
        coeffs = weideman.WeidemanCoeffs(args.degree)
        evaluator = lambda zs: weideman.weideman_batch(zs, coeffs)
        # the comparator is held to its degree-16 class at every --degree
        gate = bench_mod.ACCURACY_GATES[("weideman", weideman.DEFAULT_DEGREE)]
    else:
        batch = core.eval_eq3_batch if args.impl == "eq3" else core.eval_eq1_batch
        evaluator = lambda zs: batch(zs, params)
        gate = bench_mod.ACCURACY_GATES[(args.impl, args.preset)]
    report = oracle.error_scan(grid, evaluator, oracle.OracleConfig(digits=args.digits))
    ok = report.max_rel_err <= gate
    print(f"impl={args.impl} preset={args.preset} digits={args.digits} "
          f"points_scanned={report.points_scanned}")
    print(f"max_abs_err={report.max_abs_err!r}")
    print(f"max_rel_err={report.max_rel_err!r}")
    print(f"argmax_x={report.argmax_point.real!r} argmax_y={report.argmax_point.imag!r}")
    print(f"gate={gate!r} result={'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    spec = bench_mod.InputSpec(size=args.size, seed=args.seed)
    zs = bench_mod.generate_inputs(spec)
    params = _preset(args.preset)
    records = []
    for name in args.impls.split(","):
        name = name.strip()
        rec = bench_mod.time_implementation(
            name, zs, repeats=args.repeats, params=params,
            degree=args.degree, workers=args.workers)
        if name == "eq3" and args.workers == 1 and not args.no_exp_fraction:
            frac = bench_mod.exp_time_fraction(zs, params, repeats=args.repeats)
            rec = dataclasses.replace(rec, exp_fraction=frac)
        records.append(rec)
    _write(args.output, bench_mod.records_to_csv(records))
    return 0


def _cmd_coeffs(args) -> int:
    params = core.ApproxParams(args.tau_m, args.n)
    _write(args.output, bench_mod._csv("n,a_n", enumerate(params.coefficients.tolist())))
    return 0


def _cmd_voigt(args) -> int:
    line = core.VoigtLine(center=args.center, strength=args.strength,
                          doppler_hwhm=args.doppler_hwhm,
                          lorentz_hwhm=args.lorentz_hwhm)
    nu = _grid_axis(args.nu_min, args.nu_max, args.nu_step)
    prof = core.voigt_profile(nu, line, _preset(args.preset))
    _write(args.output, bench_mod._csv("nu,value", zip(nu.tolist(), prof.tolist())))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voigtkit",
        description="Fast Fourier-series evaluation of the Voigt/Faddeeva "
                    "function w(z), with validation and benchmarking.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", default="-",
                       help="output file, '-' for stdout (relative paths are "
                            f"resolved against ${OUTPUT_DIR_ENV} when set)")

    def add_preset(p):
        default = core.Preset.HIGH.name.lower()
        p.add_argument("--preset", choices=[preset.name.lower() for preset in core.Preset],
                       default=default, help=f"parameter preset (default: {default})")

    p = sub.add_parser("eval", help="evaluate w at one point")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    add_preset(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("grid", help="evaluate w over a Cartesian grid")
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--x-step", type=float, required=True)
    p.add_argument("--y-list", required=True, help="comma-separated y values")
    p.add_argument("--format", choices=["csv", "json", "raw_f64"], default="csv")
    add_preset(p)
    add_output(p)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("validate", help="scan an implementation against the oracle")
    p.add_argument("--impl", choices=["eq1", "eq3", "weideman"], required=True)
    add_preset(p)
    p.add_argument("--digits", type=int, default=oracle.OracleConfig().digits,
                   help="oracle precision")
    p.add_argument("--grid", default="default",
                   help="'default' or a JSON file with x_values/y_values")
    p.add_argument("--degree", type=int, default=weideman.DEFAULT_DEGREE,
                   help="weideman term count; the gate is the degree-16 class "
                        "gate (1e-4) at every degree")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("bench", help="time implementations, emit CSV records")
    p.add_argument("--impls", default="eq1,eq3", help="comma list of eq1,eq3,weideman")
    p.add_argument("--size", type=int, default=bench_mod.DEFAULT_INPUT_SPEC.size)
    p.add_argument("--seed", type=int, default=bench_mod.DEFAULT_INPUT_SPEC.seed)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--degree", type=int, default=weideman.DEFAULT_DEGREE)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel batch variant for eq3 (labelled eq3-p<N>)")
    p.add_argument("--no-exp-fraction", action="store_true",
                   help="skip the exponentiation-share measurement for eq3")
    add_preset(p)
    add_output(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("coeffs", help="print the coefficient table")
    p.add_argument("--tau-m", type=float, required=True, dest="tau_m")
    p.add_argument("--n", type=int, required=True)
    add_output(p)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("voigt", help="sample a Voigt line profile")
    p.add_argument("--center", type=float, required=True)
    p.add_argument("--strength", type=float, required=True)
    p.add_argument("--doppler-hwhm", type=float, required=True, dest="doppler_hwhm")
    p.add_argument("--lorentz-hwhm", type=float, required=True, dest="lorentz_hwhm")
    p.add_argument("--nu-min", type=float, required=True)
    p.add_argument("--nu-max", type=float, required=True)
    p.add_argument("--nu-step", type=float, required=True)
    add_preset(p)
    add_output(p)
    p.set_defaults(func=_cmd_voigt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, MemoryError, ReflectionOverflowError, OracleConvergenceError,
            BenchmarkError, FileNotFoundError) as e:
        # ValueError covers DomainError and argument-parsing of values, MemoryError a huge axis
        print(f"voigtkit: error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
