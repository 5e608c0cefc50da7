"""voigtkit benchmark: one workload per run, or all four in turn.

    python3 perfbench/run.py --workload bulk-upper --seed 1 --seconds 30 --trace 0

Run from the repository root.  voigtkit is imported from ``src/`` next to
this directory and from nowhere else, so the run fails (exit 2, no result)
where the sources are missing.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Result and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("bulk-upper", "plasma-mixed", "spectrum-lines", "scalar-calls")


def import_voigtkit():
    """Import voigtkit from this checkout's ``src/``; exit 2 if absent."""
    if not (SRC / "voigtkit" / "__init__.py").is_file():
        print(f"voigtkit sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import voigtkit
    if Path(voigtkit.__file__).resolve().parent != SRC / "voigtkit":
        print(f"imported voigtkit from {voigtkit.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def import_seconds() -> float:
    """Median time of ``import voigtkit`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import voigtkit; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def run_rate(points, pass_seconds) -> float:
    """Mpt/s over all passes of the run.  The machine's speed drifts in
    phases of tens of seconds; the whole-run rate averages over them, where
    the median pass would jump with whichever phase held most passes."""
    return points * len(pass_seconds) / sum(pass_seconds) / 1e6


def percentile(samples, q) -> float:
    """Nearest-rank percentile."""
    s = sorted(samples)
    return s[max(math.ceil(q / 100.0 * len(s)) - 1, 0)]


class Tally:
    """Operations attempted and failed.  ``unexpected`` counts failures of
    operations other than the known-faulty large-|z| batch."""

    def __init__(self):
        self.attempted = self.failed = self.unexpected = 0

    def add(self, ok, known_fault=False):
        ok = list(map(bool, ok))
        bad = ok.count(False)
        self.attempted += len(ok)
        self.failed += bad
        if not known_fault:
            self.unexpected += bad


def timed_round(w, api, ref, ops_ok, tally, lat, pass_s):
    """One round: a single-threaded pass, a two-thread pass, extra ops."""
    import checks
    for workers in (1, 2):
        t0 = perf_counter()
        out = w.run_pass(api, workers, lat if workers == 1 else None)
        pass_s[workers].append(perf_counter() - t0)
        tally.add(ops_ok & checks.same_bits(out, ref))
        del out
    tally.add(w.extra_ops(api), known_fault=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: int = 1):
    """Run one workload; returns (correct, tally, metrics by name)."""
    import numpy as np

    import layers
    import workloads as wl

    import_s = import_seconds()
    plain = layers.public_api()
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        w = wl.WORKLOADS[name](seed, scale)
        w.warm(plain)
        setup.append(perf_counter() - t0)

    tracemalloc.start()
    ref = w.run_pass(plain, 1, limit=w.peak_limit)
    peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    if w.peak_limit is not None:
        ref = w.run_pass(plain, 1)
    verdict = w.check(ref, np.random.default_rng([seed, 1]))

    tally = Tally()
    lat: list[int] = []
    pass_s = {1: [], 2: []}
    if not trace:
        t0 = perf_counter()
        while True:
            timed_round(w, plain, ref, verdict.ops_ok, tally, lat, pass_s)
            if perf_counter() - t0 >= seconds:
                break
        metrics = {
            "setup_s": (import_s + statistics.median(setup), "s"),
            "mpts": (run_rate(w.points, pass_s[1]), "Mpt/s"),
            "mpts_2t": (run_rate(w.points, pass_s[2]), "Mpt/s"),
            "peak_mib": (peak_mib, "MiB"),
            "call_p50_us": (percentile(lat, 50) / 1e3, "us"),
            "call_p99_us": (percentile(lat, 99) / 1e3, "us"),
        }
        correct = tally.unexpected == 0
        return correct, tally, metrics

    tracer = layers.Tracer(f"{name}-seed{seed}")
    timed_round(w, plain, ref, verdict.ops_ok, tally, lat, pass_s)
    untraced_s = pass_s[1][0] + pass_s[2][0]
    with tracer.span("round.traced"):
        timed_round(w, layers.public_api(tracer), ref, verdict.ops_ok, tally, [], pass_s)
    traced_s = pass_s[1][1] + pass_s[2][1]
    del w, ref
    layer_m, probes_ok = layers.probe_layers(tracer, seed, scale)
    tracer.write(OUT / f"trace-{name}-seed{seed}.json")
    units = {"_ns": "ns", "_us": "us", "_ms": "ms", "mpts": "Mpt/s"}
    metrics = {k: (v, next(u for s, u in units.items() if k.endswith(s)))
               for k, v in layer_m.items()}
    metrics.update({k: (v, "rel") for k, v in verdict.acc.items()})
    metrics["src.lines"] = (layers.src_lines(SRC), "lines")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    metrics["trace.span_ns"] = (layers.span_cost_ns(), "ns")
    correct = tally.unexpected == 0 and probes_ok
    return correct, tally, metrics


def result_json(correct, tally, metrics) -> dict:
    return {"correct": bool(correct), "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def report(name, correct, tally, metrics) -> None:
    print(f"== {name}: correct={correct} attempted={tally.attempted} "
          f"failed={tally.failed}")
    for k, (v, u) in metrics.items():
        print(f"   {k:28s} {v:.6g} {u}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None, scale: int = 1) -> int:
    args = parse_args(argv)
    import_voigtkit()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        correct, tally, metrics = run_workload(name, args.seed, args.seconds,
                                               bool(args.trace), scale)
        report(name, correct, tally, metrics)
        results[name] = result_json(correct, tally, metrics)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
