"""The ``bitwise`` marker.  CI reruns every test it marks at numpy's baseline
dispatch (``pytest -m bitwise``), so a bit-identity test that loses its
marker silently loses that run."""

import os
import subprocess
import sys
from pathlib import Path

import voigtkit as vk

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(vk.__file__).resolve().parents[1])
# bit-identity tests that must stay marked; a new one needs only the marker
CONTRACT = [
    "tests/test_batch.py",
    "tests/test_reflection.py",
    "tests/test_gauss_hermite.py",
    "tests/test_weideman.py::test_batch_matches_scalars",
    "tests/test_acceptance.py::TestC6PropertySuite::test_batch_bitwise_equals_scalar_sweep",
    "tests/test_series_kernel.py::test_series_batch_is_scalar_sweep_across_buffer_edge",
    "tests/test_series_kernel.py::test_region_edge_ring_batch_is_scalar_sweep",
    "tests/test_core_scalar.py::TestEvalW::test_reflection_is_exact_construction",
    "tests/test_core_scalar.py::TestEvalW::test_reflection_phase_near_the_diagonal",
    "tests/test_equivalence.py::test_custom_tables_forms_agree_and_scalar_matches_batch",
    "tests/test_properties.py::test_batch_output_independent_of_partitioning",
    "tests/test_voigt_profile.py::test_profile_delegates_to_batch",
    "tests/test_threads.py::test_concurrent_calls_match_one_thread_bits",
]


def _collect(*args) -> set[str]:
    """Node IDs that ``pytest --collect-only -q`` lists for ``args``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True)
    return {line for line in done.stdout.splitlines() if "::" in line}


def test_bitwise_marker_selects_every_contract_test():
    assert _collect(*CONTRACT) <= _collect("-m", "bitwise", "tests")
