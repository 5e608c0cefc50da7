import json
import math

import numpy as np
import pytest

import voigtkit as vk
from voigtkit import bench as bench_mod
from voigtkit.cli import build_parser, main

ALL_SUBCOMMANDS = ["eval", "grid", "validate", "bench", "coeffs", "voigt"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_prints_roundtrip_floats(capsys):
    code, out, _ = run(capsys, "eval", "--x", "1", "--y", "1")
    assert code == 0
    re_s, im_s = out.split()
    w = vk.eval_w(1 + 1j)
    assert float(re_s) == w.real
    assert float(im_s) == w.imag


def test_eval_fast_preset(capsys):
    code, out, _ = run(capsys, "eval", "--x", "0.5", "--y", "2", "--preset", "fast")
    assert code == 0
    re_s, im_s = out.split()
    w = vk.eval_w(0.5 + 2j, vk.Preset.FAST.params)
    assert complex(float(re_s), float(im_s)) == w


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--bogus"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("sub", ALL_SUBCOMMANDS)
def test_every_subcommand_has_help(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_grid_csv_schema_and_determinism(capsys):
    argv = ["grid", "--x-min", "-1", "--x-max", "1", "--x-step", "0.5",
            "--y-list", "0.5,2"]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "x,y,re_w,im_w"
    assert len(lines) == 1 + 5 * 2
    x, y, re_w, im_w = (float(t) for t in lines[1].split(","))
    assert complex(re_w, im_w) == vk.eval_w(complex(x, y))


def test_grid_json(capsys):
    code, out, _ = run(capsys, "grid", "--x-min", "0", "--x-max", "1",
                       "--x-step", "1", "--y-list", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["x", "y", "re_w", "im_w"]
    assert len(doc["rows"]) == 2
    row = doc["rows"][0]
    assert complex(row[2], row[3]) == vk.eval_w(complex(row[0], row[1]))


def test_grid_raw_f64(tmp_path):
    out_file = tmp_path / "grid.bin"
    code = main(["grid", "--x-min", "0", "--x-max", "1", "--x-step", "0.5",
                 "--y-list", "1,3", "--format", "raw_f64",
                 "--output", str(out_file)])
    assert code == 0
    data = np.frombuffer(out_file.read_bytes(), dtype="<f8").reshape(-1, 4)
    assert data.shape == (6, 4)
    for x, y, re_w, im_w in data:
        assert complex(re_w, im_w) == vk.eval_w(complex(x, y))


def test_output_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VOIGTKIT_OUTPUT_DIR", str(tmp_path))
    code = main(["coeffs", "--tau-m", "12", "--n", "3", "--output", "c.csv"])
    assert code == 0
    text = (tmp_path / "c.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "n,a_n"
    assert len(lines) == 5


def test_coeffs_values(capsys):
    code, out, _ = run(capsys, "coeffs", "--tau-m", "9", "--n", "12")
    assert code == 0
    lines = out.strip().splitlines()
    params = vk.fourier_coefficients(9.0, 12)
    got = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert got.tobytes() == params.coefficients.tobytes()


def test_voigt_profile_output(capsys):
    code, out, _ = run(capsys, "voigt", "--center", "100", "--strength", "2",
                       "--doppler-hwhm", "0.5", "--lorentz-hwhm", "0.1",
                       "--nu-min", "99", "--nu-max", "101", "--nu-step", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "nu,value"
    nu = np.array([float(ln.split(",")[0]) for ln in lines[1:]])
    vals = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    line = vk.VoigtLine(center=100.0, strength=2.0, doppler_hwhm=0.5,
                        lorentz_hwhm=0.1)
    assert vals.tobytes() == vk.voigt_profile(nu, line).tobytes()


def test_voigt_rejects_bad_line(capsys):
    code, _, err = run(capsys, "voigt", "--center", "100", "--strength", "-2",
                       "--doppler-hwhm", "0.5", "--lorentz-hwhm", "0.1",
                       "--nu-min", "99", "--nu-max", "101", "--nu-step", "0.5")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("grid", "--x-min", "0", "--x-max", "inf", "--x-step", "1", "--y-list", "1"),
    ("grid", "--x-min=-inf", "--x-max", "0", "--x-step", "1", "--y-list", "1"),
    ("grid", "--x-min", "0", "--x-max", "1", "--x-step", "inf", "--y-list", "1"),
    ("voigt", "--center", "0", "--strength", "1", "--doppler-hwhm", "0.5",
     "--lorentz-hwhm", "0.1", "--nu-min=-1e308", "--nu-max", "1e308", "--nu-step", "1"),
    ("voigt", "--center", "0", "--strength", "1", "--doppler-hwhm", "0.5",
     "--lorentz-hwhm", "0.1", "--nu-min", "0", "--nu-max", "1", "--nu-step", "1e-320"),
], ids=["grid-inf-max", "grid-inf-min", "grid-inf-step", "voigt-span-overflows",
        "voigt-count-overflows"])
def test_non_finite_axis_is_domain_error(capsys, argv):
    # a bound or step that is not finite, or a point count that overflows:
    # exit 1 with the usual message, no traceback
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("voigtkit: error: bad grid axis")


@pytest.mark.parametrize("argv", [
    ("grid", "--x-min", "0", "--x-max", "1", "--x-step", "1e-10", "--y-list", "1"),
    ("voigt", "--center", "0", "--strength", "1", "--doppler-hwhm", "0.5",
     "--lorentz-hwhm", "0.1", "--nu-min", "0", "--nu-max", "1", "--nu-step", "1e-10"),
], ids=["grid", "voigt"])
def test_axis_out_of_memory_is_error(capsys, monkeypatch, argv):
    # a finite axis too large to allocate (1e10 points here, 75 GiB):
    # exit 1 with the usual message, no traceback; the allocation is made
    # to fail rather than attempted
    def arange(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(10000000001,) and data type int64")

    monkeypatch.setattr(np, "arange", arange)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("voigtkit: error: Unable to allocate 74.5 GiB")


@pytest.fixture()
def small_grid_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({
        "x_values": list(np.linspace(-2, 2, 9)),
        "y_values": [0.1, 1.0],
    }))
    return str(path)


@pytest.mark.parametrize("impl", ["eq3", "eq1", "weideman"])
def test_validate_passes_on_small_grid(impl, small_grid_file, capsys):
    code, out, _ = run(capsys, "validate", "--impl", impl,
                       "--grid", small_grid_file)
    assert code == 0
    assert "result=PASS" in out
    assert "max_rel_err=" in out
    assert "points_scanned=18" in out


def test_validate_default_grid_eq3_high(capsys):
    # full default grid against the oracle; the oracle cache is shared
    # process-wide, so this mostly re-reads values the acceptance scan left
    code, out, _ = run(capsys, "validate", "--impl", "eq3", "--preset", "high")
    assert code == 0
    assert "result=PASS" in out
    assert "points_scanned=4411" in out


def test_validate_gate_failure_exits_1(small_grid_file, capsys):
    # degree 8 sits above the 1e-4 comparator gate
    code, out, _ = run(capsys, "validate", "--impl", "weideman", "--degree", "8",
                       "--grid", small_grid_file)
    assert code == 1
    assert "result=FAIL" in out


def test_validate_missing_grid_file(capsys):
    code, _, err = run(capsys, "validate", "--impl", "eq3", "--grid", "/no/such.json")
    assert code == 1
    assert "error" in err


def test_bench_cli_emits_parseable_csv(capsys):
    code, out, _ = run(capsys, "bench", "--impls", "eq3,weideman",
                       "--size", str(1 << 15), "--repeats", "3")
    assert code == 0
    records = bench_mod.parse_records_csv(out)
    assert [r.impl for r in records] == ["eq3", "weideman"]
    assert records[0].exp_fraction is not None
    assert 0 < records[0].exp_fraction < 1
    assert records[1].exp_fraction is None
    for r in records:
        assert r.size == 1 << 15
        assert r.throughput == r.size / r.median_seconds


def test_bench_cli_fast_preset_guard_uses_fast_gate(capsys):
    # FAST deviates from the oracle by ~2e-9, inside its 1e-5 gate
    code, out, _ = run(capsys, "bench", "--impls", "eq3", "--preset", "fast",
                       "--size", "65536", "--repeats", "3", "--no-exp-fraction",
                       "--output", "-")
    assert code == 0
    assert [r.impl for r in bench_mod.parse_records_csv(out)] == ["eq3"]


def test_bench_cli_bogus_impl(capsys):
    code, _, err = run(capsys, "bench", "--impls", "nope", "--size", "1024",
                       "--repeats", "3")
    assert code == 1
    assert "error" in err


def test_parser_prog_name():
    assert build_parser().prog == "voigtkit"
