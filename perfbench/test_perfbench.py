"""Tests of the benchmark's own checker and of its command.

    python3 -m pytest -q perfbench
"""

import io
import json
import math
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_voigtkit()

import checks  # noqa: E402
import voigtkit as vk  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = 256          # size divisor that keeps a whole run to a few seconds


@pytest.fixture(scope="module")
def bulk():
    return wl.BulkUpper(seed=5, scale=1024).z


def test_checker_accepts_high_output(bulk):
    v = checks.check_points(bulk, vk.eval_batch(bulk), vk.Preset.HIGH.params,
                            np.random.default_rng(0))
    assert v.all_ok
    assert v.acc["check.max_rel_err"] < 1e-12


def test_checker_rejects_fast_output_at_high_gate(bulk):
    fast = vk.Preset.FAST.params
    v = checks.check_points(bulk, vk.eval_batch(bulk, fast), fast,
                            np.random.default_rng(0))
    assert not v.all_ok
    assert v.acc["check.max_rel_err"] > checks.HIGH_GATE


def test_checker_rejects_one_element_perturbed(bulk):
    w = vk.eval_batch(bulk)
    w[17] *= 1.0 + 1e-9
    v = checks.check_points(bulk, w, vk.Preset.HIGH.params, np.random.default_rng(0))
    assert np.flatnonzero(~v.ok).tolist() == [17]


def test_real_part_check_rejects_perturbed_k():
    z = np.linspace(-8.0, 8.0, 257) + 0.5j
    k = vk.eval_batch(z).real
    assert checks.check_real_part(z, k)[0]
    k[100] *= 1.0 + 1e-9
    ok, _ = checks.check_real_part(z, k, per_point=True)
    assert np.flatnonzero(~ok).tolist() == [100]


def test_real_part_error_stays_finite_in_gaussian_wing():
    # On the real axis at x = 30, K = exp(-900) underflows to 0 while
    # |w| ~ 0.019; an error of 1e-17*|w| in K reads as a fraction of an ulp.
    z = np.array([30.0 + 0.0j, 2.0 + 0.5j])
    ref = checks.wofz(z)
    k = ref.real + 1e-17 * np.abs(ref) * np.array([1.0, 0.0])
    assert checks.check_real_part(z, k)[1] < 1.0


def test_large_z_operation_fails_on_wrong_value_or_error():
    exact = 1j / (math.sqrt(math.pi) * checks.LARGE_Z)
    assert checks.large_z_op(lambda z: exact)
    wrong = exact.copy()
    wrong[0] = 8.3e-157                 # what eval_w(1e155j) was seen to return
    assert not checks.large_z_op(lambda z: wrong)
    assert not checks.large_z_op(lambda z: np.full(z.shape, complex(math.nan, math.nan)))

    def typed_error(z):
        raise vk.DomainError("argument out of range", index=0)

    assert not checks.large_z_op(typed_error)


def test_large_z_operation_counted_failed_in_plasma_rounds():
    correct, tally, _ = run.run_workload("plasma-mixed", 7, 0.0, False, SMALL)
    rounds = tally.attempted // 3
    expected = 0 if checks.large_z_op(vk.eval_batch) else rounds
    assert tally.attempted == 3 * rounds
    assert tally.failed == expected
    assert correct


def test_same_bits_is_rowwise():
    a = np.arange(12.0).reshape(3, 4)
    b = a.copy()
    b[1, 2] = np.nextafter(b[1, 2], 99.0)
    assert checks.same_bits(a, b).tolist() == [True, False, True]
    assert checks.same_bits(np.array([0.0]), np.array([-0.0])).tolist() == [False]


def test_inputs_are_seeded_and_clear_of_guard_edge():
    a = wl.PlasmaMixed(3, SMALL).z
    assert a.tobytes() == wl.PlasmaMixed(3, SMALL).z.tobytes()
    assert a.tobytes() != wl.PlasmaMixed(4, SMALL).z.tobytes()
    assert (a.imag < 0).sum() == a.size // 2
    band = np.abs(a.imag * wl.TAU) < vk.GUARD_RADIUS
    assert band.sum() >= a.size // 8
    assert not wl.near_guard_edge(a).any()
    grid, lines, starts = wl.spectrum_lines(3, 128)
    on_axis = [i for i, ln in enumerate(lines) if ln.lorentz_hwhm == 0.0]
    assert len(on_axis) == 2
    for i in on_axis:
        assert not wl.near_guard_edge(wl.line_points(grid, lines[i], starts[i])).any()


def test_near_guard_edge_band():
    k = 5 * math.pi / wl.TAU
    d = np.array([0.5e-6, 2e-6, 5e-5, 2e-4]) / wl.TAU
    assert wl.near_guard_edge(k + d).tolist() == [False, True, True, False]
    assert wl.near_guard_edge(1j * d).tolist() == [False, True, True, False]


def test_benchmark_json_follows_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]
    # scalar-calls runs by hand only: its timings are not steady here.
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES[:3])
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert name.match(m["name"]) and unit.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_command_prints_every_named_metric(workload, trace):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(["--workload", workload, "--seed", "2", "--seconds", "0",
                         "--trace", str(trace)], scale=SMALL) == 0
    result = json.loads(buf.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(SPEC["command"] + ["--workload", "bulk-upper", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout
