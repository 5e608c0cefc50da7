"""Correctness checks made apart from the code under test.

Every value is compared with ``scipy.special.wofz``; a seeded subsample with
the mpmath oracle at 30 digits; the properties of w (exact conjugation
symmetry, the reflection identity) and the determinism contract (scalar and
two-worker results equal the batch result bit for bit) on seeded subsamples.
Nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import wofz

import voigtkit as vk

#: Relative-error gate of the HIGH preset (acceptance gate C1).
HIGH_GATE = 1e-10
#: Outer radius of the band around each removable singularity of tau*z in
#: which the workloads place no point (see ``workloads.near_guard_edge``).
GUARD_EDGE = 1e-4
ORACLE_DIGITS = 30
ORACLE_PER_CLASS = 8
PROPERTY_SAMPLE = 4096
SCALAR_SAMPLE = 32

#: Fixed large-|z| batch: 16 radii from 1e153 to 1e300 times 4 directions
#: in the closed upper half-plane.  There w(z) = i/(sqrt(pi) z) to every
#: binary64 digit (the next term is 1/(2 z^2) <= 5e-307 relative).
LARGE_Z = ((10.0 ** np.linspace(153.0, 300.0, 16))[:, None]
           * np.exp(1j * np.array([0.0, 0.25, 0.5, 0.75]) * math.pi)).ravel()


@dataclass
class Verdict:
    """Per-operation verdicts of a pass plus its accuracy figures."""

    ops_ok: np.ndarray
    acc: dict


@dataclass
class PointVerdict:
    ok: np.ndarray
    acc: dict

    @property
    def all_ok(self) -> bool:
        return bool(self.ok.all())


def same_bits(a, b) -> np.ndarray:
    """Row-wise (element-wise for 1-D input) bitwise equality."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    n = a.shape[0] if a.ndim else 1
    if a.shape != b.shape or a.dtype != b.dtype:
        return np.zeros(n, dtype=bool)
    return (a.view(np.uint8).reshape(n, -1) == b.view(np.uint8).reshape(n, -1)).all(axis=1)


def complex_rel_err(w, ref) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(w - ref) / np.abs(ref)


def _max(a) -> float:
    """Largest element, NaN if any element is NaN, 0 for an empty array."""
    return float(np.max(a)) if np.size(a) else 0.0


def _re_rel_err(z, k, ref) -> float:
    """Worst relative error of K = Re w where K is the Voigt function
    (Im z >= 0).  The denominator is floored at one ulp of |w|: below that,
    as in the Gaussian wing on the real axis where K = exp(-x^2) underflows,
    K is not resolved by a complex evaluation of w, and an unfloored ratio
    reaches 1e306 or overflows.  So the figure stays finite and reads an
    error in ulps of |w| there."""
    m = z.imag >= 0.0
    den = np.maximum(np.abs(ref.real[m]), np.finfo(float).eps * np.abs(ref[m]))
    return _max(np.abs(k[m] - ref.real[m]) / den)


def check_real_part(z, k, gate=HIGH_GATE, per_point=False):
    """K against Re wofz: |K - Re wofz| <= gate*|wofz|.  Returns the verdict
    (per point or overall) and the worst relative error of K itself."""
    ref = wofz(z)
    with np.errstate(invalid="ignore"):
        ok = np.abs(k - ref.real) <= gate * np.abs(ref)
    return (ok if per_point else bool(ok.all())), _re_rel_err(z, k, ref)


def oracle_sample(z, rng, per_class=ORACLE_PER_CLASS) -> np.ndarray:
    """Seeded indices: up to ``per_class`` points from each of the lower
    half-plane, the guard band (|Im tau*z| < GUARD_RADIUS) and the rest."""
    band = np.abs(z.imag * vk.Preset.HIGH.value[0]) < vk.GUARD_RADIUS
    classes = (z.imag < 0.0, band & (z.imag >= 0.0), ~band & (z.imag >= 0.0))
    picks = []
    for m in classes:
        idx = np.flatnonzero(m)
        if idx.size:
            picks.append(rng.choice(idx, min(per_class, idx.size), replace=False))
    return np.concatenate(picks)


def check_points(z, w, params, rng, gate=HIGH_GATE) -> PointVerdict:
    """Check complex outputs ``w`` of the HIGH evaluator at points ``z``."""
    ref = wofz(z)
    rel = complex_rel_err(w, ref)
    with np.errstate(invalid="ignore"):
        ok = (rel <= gate) & (np.abs(w.real - ref.real) <= gate * np.abs(ref))

    io = oracle_sample(z, rng)
    ora = np.array([complex(vk.oracle_w(complex(z[i]), ORACLE_DIGITS)) for i in io])
    ora_rel = complex_rel_err(w[io], ora)
    ok[io] &= ora_rel <= gate

    # w(-conj z) == conj w(z) exactly, w(z) + w(-z) == 2 exp(-z^2).  The
    # symmetry compares values, not bits: at z = 0, w = 1+0j and its
    # conjugate 1-0j differ only in the sign of zero.
    ip = rng.choice(z.size, min(PROPERTY_SAMPLE, z.size), replace=False)
    zp, wp = z[ip], w[ip]
    ok[ip] &= vk.eval_batch(-zp.conj(), params) == wp.conj()
    wm = vk.eval_batch(-zp, params)
    e2 = 2.0 * np.exp(-(zp * zp))
    with np.errstate(invalid="ignore"):
        ok[ip] &= np.abs(wp + wm - e2) <= gate * (np.abs(e2) + np.abs(wp) + np.abs(wm))

    # eval_w(z) == eval_batch([z]) == the batch element, bit for bit.
    for i in rng.choice(z.size, min(SCALAR_SAMPLE, z.size), replace=False):
        one = np.array([complex(vk.eval_w(complex(z[i]), params))])
        ok[i] &= bool(same_bits(one, vk.eval_batch(z[i:i + 1], params))[0]
                      and same_bits(one, w[i:i + 1])[0])

    acc = {"check.max_rel_err": _max(rel),
           "check.re_max_rel_err": _re_rel_err(z, w.real, ref),
           "check.oracle_max_rel_err": _max(ora_rel)}
    return PointVerdict(ok=ok, acc=acc)


def large_z_op(evaluate) -> bool:
    """One operation: ``evaluate`` on the fixed large-|z| batch, checked
    against the asymptote i/(sqrt(pi) z).  A typed error also fails it."""
    try:
        w = evaluate(LARGE_Z)
    except (ValueError, ArithmeticError):
        return False
    ref = 1j / (math.sqrt(math.pi) * LARGE_Z)
    with np.errstate(invalid="ignore"):
        return bool((complex_rel_err(np.asarray(w), ref) <= HIGH_GATE).all())
