"""``import voigtkit`` loads the kernel only.  The oracle (and mpmath), the
Weideman comparator and the benchmark harness load on first use of one of
their names, each of which is then the object its submodule holds."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import voigtkit as vk

SRC = str(Path(vk.__file__).resolve().parents[1])
DEFERRED = ("mpmath", "statistics", "voigtkit.bench", "voigtkit.oracle",
            "voigtkit.weideman")
# the submodule that holds each public name
HOME = {
    **dict.fromkeys(["__version__"], None),
    **dict.fromkeys(["GUARD_RADIUS", "ApproxParams", "Preset", "VoigtLine",
                     "fourier_coefficients", "eval_eq1", "eval_eq1_batch",
                     "eval_eq3", "eval_eq3_batch", "eval_w", "eval_batch",
                     "voigt_function", "voigt_profile"], "core"),
    **dict.fromkeys(["OracleConfig", "GridSpec", "ErrorReport", "oracle_w",
                     "error_scan", "default_grid"], "oracle"),
    **dict.fromkeys(["WeidemanCoeffs", "weideman_coefficients", "weideman_w",
                     "weideman_batch"], "weideman"),
    **dict.fromkeys(["InputSpec", "BenchRecord", "DEFAULT_INPUT_SPEC",
                     "generate_inputs", "time_implementation", "exp_time_fraction",
                     "records_to_csv", "parse_records_csv", "BENCH_CSV_HEADER"], "bench"),
    **dict.fromkeys(["DomainError", "ReflectionOverflowError",
                     "OracleConvergenceError", "BenchmarkError"], "exceptions"),
}


def fresh(code: str):
    """The JSON that ``code`` prints as its last line, run in a new
    interpreter that imports voigtkit from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_oracle_bench_or_weideman():
    loaded = fresh("""
        import json, sys
        import voigtkit
        print(json.dumps([m for m in %r if m in sys.modules]))
    """ % (DEFERRED,))
    assert loaded == []


def test_all_lists_every_public_name():
    assert sorted(vk.__all__) == sorted(HOME)


@pytest.mark.parametrize("name", [n for n in HOME if HOME[n]] + ["bench", "oracle",
                                                                  "weideman"])
def test_name_is_its_submodules_object_in_fresh_interpreter(name):
    # first touched on the package, then compared with the submodule's own
    same = fresh(f"""
        import importlib, json
        import voigtkit
        value = getattr(voigtkit, {name!r})
        home = {HOME.get(name)!r}
        held = (importlib.import_module("voigtkit." + home).__dict__[{name!r}] if home
                else importlib.import_module("voigtkit." + {name!r}))
        print(json.dumps([value is held, getattr(voigtkit, {name!r}) is held,
                          {name!r} in vars(voigtkit)]))
    """)
    assert same == [True, True, True]


def test_star_import_binds_all():
    bound = fresh("""
        import json
        from voigtkit import *
        import voigtkit
        print(json.dumps([n for n in voigtkit.__all__
                          if globals().get(n, voigtkit) is not getattr(voigtkit, n)]))
    """)
    assert bound == []


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        vk.no_such_name
    assert not hasattr(vk, "_no_such_private")
    with pytest.raises(ImportError):
        from voigtkit import no_such_name  # noqa: F401


def test_dir_lists_all_and_the_deferred_submodules():
    names = set(dir(vk))
    assert set(vk.__all__) <= names
    assert {"core", "exceptions", "bench", "oracle", "weideman"} <= names


def test_first_touch_from_two_threads_gives_one_object():
    same = fresh("""
        import json, threading
        import voigtkit
        gate = threading.Barrier(2)
        got = [None, None]

        def touch(i):
            gate.wait()
            got[i] = voigtkit.oracle_w

        threads = [threading.Thread(target=touch, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        import voigtkit.oracle
        print(json.dumps([g is voigtkit.oracle.oracle_w for g in got]))
    """)
    assert same == [True, True]
