"""The lower half-plane reflection w(z) = 2*exp(-z^2) - w(-z): its values and
verdicts at the edges of binary64, its bits at the vector loops' tails, and
exp(-z^2) itself against mpmath."""

import math

import mpmath as mp
import numpy as np
import pytest

import voigtkit as vk
from voigtkit import ReflectionOverflowError
from voigtkit import core

pytestmark = pytest.mark.bitwise

POOLED = 4 * core._THREAD_BLOCKS * core._BLOCK    # from here workers=2 runs on threads
DBL_MAX = np.finfo(np.float64).max

# eval_w's value, as the bits of its real and imaginary parts, where the
# modulus of exp(-z^2) underflows (also where its phase -2xy overflows), and
# where the phase is large and the modulus is near 1 or near 1e282; the
# verdicts at -26.6364j and -30j are test_core_scalar's test_overflow_signalled
PINNED = [
    (1e300 - 1e200j, (0, 114892838741810490)),
    (-1e300 - 1e200j, (0, 9338264875596586298)),
    (1e200 - 1e-300j, (0, 1611061151227180950)),
    (1e154 - 1e154j, (4601765033360354872, 4611455816358057528)),
    (5 - 26j, (18062457004909945008, 8838601009301817015)),
]


@pytest.mark.parametrize("z,bits", PINNED, ids=[repr(z) for z, _ in PINNED])
def test_reflection_values_pinned(z, bits):
    w = np.array([vk.eval_w(z)])
    assert tuple(w.view(np.uint64).tolist()) == bits
    assert vk.eval_batch(np.array([1 + 1j, z]))[1:].tobytes() == w.tobytes()


@pytest.mark.parametrize("z", [1.2861724091326655e154 - 1.2233225503304852e154j,
                               -1.7130310626110868e154 - 1.7058470342999997e154j])
def test_reflection_underflow_with_overflowing_phase(z):
    # |Im z| < |Re z| near sqrt(DBL_MAX): exp(-z^2) underflows to 0, while
    # the phase 2xy (first point) or xy itself (second) overflows, so the
    # value is -w(-z)
    assert np.array([vk.eval_w(z)]).tobytes() == np.array([-vk.eval_w(-z)]).tobytes()


@pytest.mark.parametrize("x", [0.0074, -0.0074])
def test_reflection_representable_within_a_factor_two_of_overflow(x):
    # |exp(-z^2)| = 0.53*DBL_MAX and the phase is 0.39: 2*exp(-z^2) is
    # representable, though 2*|exp(-z^2)| is not, so no step of exp(-z^2) may
    # double its modulus before rotating it
    y = -math.sqrt(math.log(0.53 * DBL_MAX) + x * x)
    w = vk.eval_w(complex(x, y))
    assert math.isfinite(w.real) and math.isfinite(w.imag)
    with mp.workdps(40):
        ref = 2 * mp.exp(-mp.mpc(x, y) ** 2) - mp.mpc(vk.oracle_w(complex(-x, -y)))
        assert abs(mp.mpc(w) - ref) <= 1e-12 * abs(ref)  # |w| itself exceeds DBL_MAX


def test_lowest_overflow_index_in_a_block():
    zs = np.array([1 + 1j, -26.6364j, 2 - 2j, -40j, 0.5 - 3j])
    for order in (slice(None), slice(None, None, -1)):
        with pytest.raises(ReflectionOverflowError) as err:
            vk.eval_batch(zs[order])
        assert err.value.index == 1


def _tail_points():
    """Seeded mixed-sign points, four in five below the axis: generic ones
    on both sides of |z| = 7, ones with |xy| >= 64, ones whose exp(-z^2) has
    a modulus near 1e300 or 1e-300, and ones near the diagonal |x| = |y|."""
    rng = np.random.default_rng(2024)
    n = 4097
    kind = rng.integers(0, 5, n)
    x = rng.uniform(-12.0, 12.0, n)
    y = rng.uniform(-12.0, 0.0, n)
    big = kind == 1                              # 64 <= |xy| <= 144
    x[big] = rng.choice([-1.0, 1.0], big.sum()) * rng.uniform(6.0, 12.0, big.sum())
    y[big] = -rng.uniform(64.0, 144.0, big.sum()) / np.abs(x[big])
    for k, s in ((2, 1.0), (3, -1.0)):           # y^2 - x^2 = c, about +-ln(1e300)
        sel = kind == k
        c = s * math.log(1e300) + rng.uniform(-5.0, 5.0, sel.sum())
        u = rng.uniform(-30.0, 30.0, sel.sum())
        if s > 0:
            x[sel], y[sel] = u, -np.sqrt(u * u + c)
        else:
            x[sel], y[sel] = np.sign(u) * np.sqrt(u * u - c), -np.abs(u)
    diag = kind == 4
    r = 10.0 ** rng.uniform(1.0, 8.0, diag.sum())
    x[diag] = r * rng.choice([-1.0, 1.0], diag.sum())
    y[diag] = -np.sqrt(np.maximum(r * r - rng.uniform(0.0, 30.0, diag.sum()), 0.0))
    y[::5] = -y[::5]                             # the upper half-plane too
    return x + 1j * y


@pytest.fixture(scope="module")
def tail_sweep():
    z = _tail_points()
    return z, np.array([vk.eval_w(p) for p in z])


def test_tail_points_cover_the_reflection_cases(tail_sweep):
    z, w = tail_sweep
    below = z.imag < 0.0
    with np.errstate(over="ignore", under="ignore"):
        modulus = np.exp((z.imag - z.real) * (z.imag + z.real))
    assert np.isfinite(w).all()
    assert (below & (np.abs(z.real * z.imag) >= 64.0)).sum() >= 500
    assert (below & (modulus > 1e295)).sum() >= 300
    assert (below & (modulus < 1e-295)).sum() >= 300
    assert (below & (np.abs(z) >= 7.0)).sum() >= 1000


@pytest.mark.parametrize("workers", [1, 2])
def test_mixed_sign_batch_is_scalar_sweep_at_vector_tails(tail_sweep, workers):
    # the reflection's exp and tan run in numpy's vector loops: every batch
    # length, so every tail length below the axis, has the scalar bits
    z, w = tail_sweep
    sizes = [*range(1, 41), 4095, 4096, 4097, core._BLOCK + 29, POOLED + 7]
    for n in sizes:
        reps = -(-n // z.size)
        got = vk.eval_batch(np.tile(z, reps)[:n], workers=workers)
        assert got.tobytes() == np.tile(w, reps)[:n].tobytes(), n


def test_exp_neg_square_against_mpmath():
    # on both sides of |xy| = 64, where the phase switches to the exact
    # TwoProduct.  The error is that of the rounded modulus argument
    # a = (y - x)*(y + x) (up to about 140 ulp at |a| near 144), not of the
    # rotation: at every point exp(-z^2) is within 4 ulp of exp(a + i*phase),
    # the phase being the rounded -2xy below |xy| = 64 and the exact one from
    # there on.  Below it, it is within 4 ulp of the error of complex128
    # exp of the same argument at every point; and its worst error is within
    # 4 ulp of that of np.exp(-(z*z)), whose own rounding of Re z^2 differs
    # point by point
    rng = np.random.default_rng(316)
    x = rng.uniform(-12.0, 12.0, 20000)
    y = rng.uniform(-12.0, 0.0, 20000)
    small = np.flatnonzero(np.abs(x * y) < 64.0)[:1500]
    large = np.flatnonzero(np.abs(x * y) >= 64.0)[:1500]
    assert small.size == large.size == 1500
    pick = np.concatenate([small, large])
    x, y = x[pick], y[pick]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        E = core._exp_neg_square(x, y)
    a, phase = (y - x) * (y + x), x * (-2.0 * y)
    z = x + 1j * y
    same_argument, plain = np.exp(a + 1j * phase), np.exp(-(z * z))
    with mp.workdps(40):
        exact = np.array([complex(mp.exp(-mp.mpc(u, v) ** 2)) for u, v in zip(x, y)])
        # the kernel's own arguments: the rounded a, and the rounded phase
        # below |xy| = 64, the exact one from there on
        rounded = np.array([
            complex(mp.exp(mp.mpc(ak, pk if k < small.size else -2 * mp.mpf(u) * float(v))))
            for k, (ak, pk, u, v) in enumerate(zip(a, phase, x, y))])
    ulp = np.spacing(np.abs(exact))
    err = np.abs(E - exact) / ulp
    assert (np.abs(E - rounded) / ulp <= 4.0).all()
    below = slice(0, small.size)
    assert (err[below] <= np.abs(same_argument - exact)[below] / ulp[below] + 4.0).all()
    assert err.max() <= (np.abs(plain - exact) / ulp).max() + 4.0
