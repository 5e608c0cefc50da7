"""The raw two-sided series and the single-exponential form are exact
algebraic rearrangements of each other; away from the guard radius they may
differ only by rounding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voigtkit as vk


@pytest.mark.parametrize("preset", [vk.Preset.HIGH, vk.Preset.FAST])
def test_forms_agree_on_seeded_sweep(preset):
    rng = np.random.default_rng(2024)
    zs = rng.uniform(-10, 10, 10_000) + 1j * rng.uniform(0.05, 50, 10_000)
    w1 = vk.eval_eq1_batch(zs, preset.params)
    w3 = vk.eval_eq3_batch(zs, preset.params)
    rel = np.abs(w1 - w3) / np.abs(w3)
    assert rel.max() <= 1e-13


@pytest.mark.parametrize("n_terms", [1, 2, 3, 24, 31])
def test_custom_tables_forms_agree_and_scalar_matches_batch(n_terms):
    # n_terms = 1 leaves eq3's even-parity term table empty; the patch points
    # (tau*z within 1e-3 of k*pi, beyond n_terms too) index both parity tables
    params = vk.fourier_coefficients(12.0, n_terms)
    rng = np.random.default_rng(n_terms)
    zs = rng.uniform(-10, 10, 2000) + 1j * rng.uniform(0.05, 50, 2000)
    w1 = vk.eval_eq1_batch(zs, params)
    w3 = vk.eval_eq3_batch(zs, params)
    assert (np.abs(w1 - w3) / np.abs(w3)).max() <= 1e-13
    k = np.arange(-n_terms - 2, n_terms + 3)
    d = 10.0 ** rng.uniform(-7, -3, k.size) * np.exp(1j * rng.uniform(0, np.pi, k.size))
    near = np.concatenate([zs[:100], (k * np.pi + d) / 12.0, [0.0, 1e-5j]])
    batch = vk.eval_eq3_batch(near, params)
    sweep = np.array([vk.eval_eq3(z, params) for z in near])
    assert batch.tobytes() == sweep.tobytes()


@settings(max_examples=150, deadline=None)
@given(x=st.floats(-15.0, 15.0), y=st.floats(0.05, 50.0))
def test_forms_agree_pointwise(x, y):
    z = complex(x, y)
    w1 = vk.eval_eq1(z)
    w3 = vk.eval_eq3(z)
    assert abs(w1 - w3) / abs(w3) <= 1e-13
