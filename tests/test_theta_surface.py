"""Tests for theta evaluation and the archimedean invariant chain.

Oracles: a high-precision mpmath double sum (independent of the package's
truncation logic), an unfactored numpy lattice sum of the metric norm, the
closed form theta(0; iI) = (pi^(1/4)/Gamma(3/4))^2, and mpmath's genus-1
jtheta for diagonal period matrices.  The quadrature layer is validated on
integrands with known means before being trusted on the theta integrand.
"""

import itertools
import math
import random
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import PROPERTY_SETTINGS
from oracles import exact_siegel_reduce, exact_voronoi_moment, large_y_log_h

import g2inv.theta_surface
from g2inv.errors import (
    DegenerateThetaNullError,
    FormulaMismatchError,
    QuadratureUnstableError,
)
from g2inv.theta_surface import (
    _EVEN_A,
    _EVEN_B,
    DEFAULT_THETA_TOL,
    LOG_H_COEFFICIENTS,
    ArchReport,
    QuadratureConfig,
    SiegelMatrix,
    arch_invariants,
    log_delta2,
    log_h,
    _lattice_generator,
    _round_half_even,
    _theta_kernel,
    _theta_scaled,
    _truncation_radius,
    siegel_reduce,
)

LOG_2PI = math.log(2 * math.pi)


def brute_theta(a, b, tau: SiegelMatrix, box: int = 12) -> complex:
    """theta[a,b](0; tau) by a reference double sum at 40 digits, with no
    truncation logic; a and b are pairs of rationals or floats."""
    with mpmath.workdps(40):
        sa, sb = (
            tuple(mpmath.mpf(f.numerator) / f.denominator for f in map(Fraction, pair))
            for pair in (a, b)
        )
        t = [[mpmath.mpc(tau.matrix[i, j]) for j in range(2)] for i in range(2)]
        total = mpmath.mpc(0)
        for n1 in range(-box, box + 1):
            for n2 in range(-box, box + 1):
                m0 = n1 + sa[0]
                m1 = n2 + sa[1]
                quad = (
                    t[0][0] * m0 * m0
                    + 2 * t[0][1] * m0 * m1
                    + t[1][1] * m1 * m1
                )
                lin = m0 * sb[0] + m1 * sb[1]
                total += mpmath.e ** (mpmath.pi * 1j * (quad + 2 * lin))
        return complex(total)


def lattice_sum_norms(t: np.ndarray):
    """The batch function (u, v) -> ||theta||(t u + v) for (B, 2) arrays,
    from the plain lattice sum over n + u, unfactored and at t itself (no
    reduction), with a box well past where exp(-pi n'Yn) underflows."""
    lam = float(np.linalg.eigvalsh(t.imag)[0])
    box = math.ceil(math.sqrt(45 / (math.pi * lam))) + 2
    ns = np.arange(-box, box + 1, dtype=float)
    lattice = np.stack([g.ravel() for g in np.meshgrid(ns, ns, indexing="ij")], axis=1)
    quarter_det = float(np.linalg.det(t.imag)) ** 0.25
    n_xn = np.einsum("li,ij,lj->l", lattice, t.real, lattice)

    def norms(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        m = lattice[None, :, :] + u[:, None, :]
        real = -math.pi * np.einsum("pli,ij,plj->pl", m, t.imag, m)
        imag = math.pi * (n_xn[None, :] + 2 * (u @ t.real + v) @ lattice.T)
        return quarter_det * np.abs(np.exp(real + 1j * imag).sum(axis=1))

    return norms


# the 16 half-integer characteristics [a; b] as exact pairs, split by
# parity: [a; b] is even when 4 a'b is an even integer
ALL_CHARS = [
    (h[:2], h[2:]) for h in itertools.product((Fraction(0), Fraction(1, 2)), repeat=4)
]
EVEN_CHARS = [(a, b) for a, b in ALL_CHARS if 4 * (a[0] * b[0] + a[1] * b[1]) % 2 == 0]
ODD_CHARS = [c for c in ALL_CHARS if c not in EVEN_CHARS]


# the 256 quarter periods (a1, a2, b1, b2) as floats, in the order of
# itertools.product: the order of the kernel's translates; the 16 half
# periods among them, in the same order
QUARTERS = np.array(list(itertools.product((0.0, 0.25, 0.5, 0.75), repeat=4)))
HALF = np.all(QUARTERS % 0.5 == 0, axis=1)
HALVES = QUARTERS[HALF]


def char_name(char) -> str:
    """A characteristic as `log_delta2` prints it, such as [1/2 0; 0 1/2]."""
    (a1, a2), (b1, b2) = char
    return f"[{a1} {a2}; {b1} {b2}]"


def char_arrays(chars) -> tuple[np.ndarray, np.ndarray]:
    """Characteristics as the (k, 2) arrays a and b of a stacked sum."""
    return tuple(np.array([[float(x) for x in c[part]] for c in chars]) for part in (0, 1))


def stacked_nulls(a, b, tau: SiegelMatrix, tol: float = DEFAULT_THETA_TOL) -> np.ndarray:
    """theta[a,b](0; tau) for (k, 2) arrays of real characteristics, from
    the one stacked lattice sum that `log_delta2` runs, at tau as given."""
    radius = _truncation_radius(tau.min_eigenvalue, tol)
    return _theta_scaled((np.asarray(a, dtype=float), np.asarray(b, dtype=float)), tau, radius)


def shift_law_checks(rng: random.Random, count: int, bound: float) -> None:
    """theta[a+m; b+k](0) = exp(2 pi i a'k) theta[a; b](0) at `count` random
    real a, b in [-1, 1]^2, integers m, k in [-2, 2]^2 and random taus,
    each within `bound` relative; values below 1e-6 are skipped."""
    checked = 0
    while checked < count:
        tau = random_tau(rng)
        for _ in range(10):
            a, b = (np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)]) for _ in "ab")
            m, k = (np.array([rng.randint(-2, 2), rng.randint(-2, 2)], dtype=float) for _ in "mk")
            base, shifted = stacked_nulls([a, a + m], [b, b + k], tau)
            if abs(base) < 1e-6:
                continue
            assert abs(shifted / (np.exp(2j * math.pi * (a @ k)) * base) - 1) < bound
            checked += 1
            if checked == count:
                return


def reference_log_h(t: np.ndarray, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo mean of log||theta||(t u + v) and its standard error from
    `lattice_sum_norms`, in blocks of 500 points."""
    norms = lattice_sum_norms(t)
    points = np.random.default_rng(seed).random((samples, 4))
    blocks = np.array_split(points, max(1, samples // 500))
    vals = np.concatenate([np.log(norms(b[:, :2], b[:, 2:])) for b in blocks])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def act(word: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(A t + B)(C t + D)^-1 for word = [[A, B], [C, D]], symmetrized."""
    word = np.asarray(word, dtype=float)
    a, b, c, d = word[:2, :2], word[:2, 2:], word[2:, :2], word[2:, 2:]
    image = (a @ t + b) @ np.linalg.inv(c @ t + d)
    return (image + image.T) / 2


def random_word(rng: random.Random, length: int) -> np.ndarray:
    """A product of random Sp4(Z) generators: translations tau + B,
    conjugations U tau U' by integer shears, and the inversion -tau^-1."""
    eye, zero = np.eye(2, dtype=int), np.zeros((2, 2), dtype=int)
    word = np.eye(4, dtype=int)
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            b01 = rng.randint(-2, 2)
            b = np.array([[rng.randint(-2, 2), b01], [b01, rng.randint(-2, 2)]])
            step = np.block([[eye, b], [zero, eye]])
        elif kind == 1:
            u = np.array([[1, rng.choice((-2, -1, 1, 2))], [0, 1]])
            if rng.random() < 0.5:
                u = u.T
            step = np.block([[u, zero], [zero, np.round(np.linalg.inv(u)).astype(int).T]])
        else:
            step = np.block([[zero, -eye], [eye, zero]])
        word = step @ word
    return word


def assert_fundamental(tau: SiegelMatrix) -> None:
    """tau meets the conditions `siegel_reduce` promises, up to rounding:
    |2 Y12| <= Y11 <= Y22, |X_ij| <= 1/2, |tau11| >= 1, lambda_min >= sqrt(3)/4."""
    t = tau.matrix
    x, y = t.real, t.imag
    assert abs(2 * y[0, 1]) <= y[0, 0] * (1 + 1e-12)
    assert y[0, 0] <= y[1, 1] * (1 + 1e-12)
    assert np.all(np.abs(x) <= 0.5 + 1e-12)
    assert abs(t[0, 0]) >= 1 - 1e-12
    assert tau.min_eigenvalue >= math.sqrt(3) / 4 - 1e-12


def random_tau(rng: random.Random) -> SiegelMatrix:
    """A random period matrix with Im part comfortably positive definite."""
    x01 = rng.uniform(-0.5, 0.5)
    x = np.array([[rng.uniform(-0.5, 0.5), x01], [x01, rng.uniform(-0.5, 0.5)]])
    a = np.array([[rng.uniform(-0.8, 0.8) for _ in range(2)] for _ in range(2)])
    y = a @ a.T + 0.5 * np.eye(2)
    return SiegelMatrix(x + 1j * y)


# reduced, with Y22 = 300: log||theta|| reaches about -236, and its mean is about -77
TALL_TAU = SiegelMatrix(np.array([[0.1 + 1.2j, 0.3 + 0.4j], [0.3 + 0.4j, -0.2 + 300j]]))
IDENTITY_TAU = SiegelMatrix(1j * np.eye(2))
GENERIC_TAU = SiegelMatrix(
    np.array(
        [
            [0.12 + 1.30j, 0.21 + 0.33j],
            [0.21 + 0.33j, -0.17 + 1.10j],
        ]
    )
)


def test_characteristic_counts_and_parity():
    assert len(set(ALL_CHARS)) == 16
    assert len(EVEN_CHARS) == 10
    assert len(ODD_CHARS) == 6
    for a, b in ALL_CHARS:
        assert (4 * (a[0] * b[0] + a[1] * b[1])).denominator == 1
    # the runtime's arrays are exactly the ten even rows, in order
    want_a, want_b = char_arrays(EVEN_CHARS)
    for got, want in ((_EVEN_A, want_a), (_EVEN_B, want_b)):
        assert got.dtype == float and got.shape == (10, 2)
        assert np.array_equal(got, want)


def test_siegel_matrix_validation():
    with pytest.raises(ValueError):
        SiegelMatrix(np.array([[1j, 0.5], [0.2, 1j]]))
    with pytest.raises(ValueError, match="positive definite"):
        SiegelMatrix(np.array([[1j, 0], [0, -1j]]))
    with pytest.raises(ValueError, match="positive definite"):
        SiegelMatrix(np.array([[1j, 2j], [2j, 1j]]))
    # asymmetry below the 1e-12 gate is symmetrized away
    m = SiegelMatrix(np.array([[1j, 0.3 + 1e-13], [0.3, 1j]]))
    assert m.matrix[0, 1] == m.matrix[1, 0]


def test_siegel_matrix_keeps_a_symmetric_input_bit_for_bit():
    """A symmetric input comes back as it is, where averaging its halves
    rounded subnormal entries: Y11 = 3e-308 came back 3.0000000000000007e-308,
    an off-diagonal real part 5e-324 as 0.0 and an imaginary part 1e-310
    as 1.00000000000005e-310.  An asymmetry of 1e-13 is still averaged,
    into the float between the two entries, and the caller's array is
    never written."""
    for tau in (
        [[3e-308j, 0], [0, 1j]],
        [[1j, 5e-324], [5e-324, 1j]],
        [[1j, 1e-310j], [1e-310j, 1j]],
    ):
        entries = np.array(tau, dtype=complex)
        kept = np.array(entries)
        assert SiegelMatrix(entries).matrix.tobytes() == kept.tobytes()
        assert entries.tobytes() == kept.tobytes()
    asymmetric = np.array([[1j, 0.3 + 1e-13], [0.3, 1j]])
    kept = np.array(asymmetric)
    m = SiegelMatrix(asymmetric).matrix
    assert m[0, 1] == m[1, 0] == 0.3 / 2 + (0.3 + 1e-13) / 2
    assert 0.3 < m[0, 1].real < 0.3 + 1e-13
    assert asymmetric.tobytes() == kept.tobytes()


def test_theta_null_closed_form():
    (value,) = stacked_nulls([(0, 0)], [(0, 0)], IDENTITY_TAU)
    expected = float((mpmath.pi ** 0.25 / mpmath.gamma(0.75)) ** 2)
    assert abs(value.imag) < 1e-12
    assert abs(value.real - expected) < 1e-12
    with mpmath.workdps(30):
        jt = mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi)) ** 2
    assert abs(value - complex(jt)) < 1e-12


def test_theta_factorizes_on_diagonal_tau():
    tau = SiegelMatrix(np.diag([1.0j, 2.0j]))
    with mpmath.workdps(30):
        q1 = mpmath.exp(-mpmath.pi)
        q2 = mpmath.exp(-2 * mpmath.pi)
        # genus-1 nulls: [0;0] -> jtheta3, [0;1/2] -> jtheta4, [1/2;0] -> jtheta2
        expected = {
            ((0, 0), (0, 0)): mpmath.jtheta(3, 0, q1) * mpmath.jtheta(3, 0, q2),
            ((0, 0), (0.5, 0.5)): mpmath.jtheta(4, 0, q1) * mpmath.jtheta(4, 0, q2),
            ((0.5, 0.5), (0, 0)): mpmath.jtheta(2, 0, q1) * mpmath.jtheta(2, 0, q2),
        }
    a, b = zip(*expected)
    for got, want in zip(stacked_nulls(a, b, tau), expected.values()):
        assert abs(got - complex(want)) < 1e-12


def test_theta_matches_brute_force(rng):
    """The stacked sum at real characteristics, the values theta(z) takes
    at real z, against the mpmath double sum: the 16 half-integer ones
    and random ones in [-1, 1]^2, at GENERIC_TAU and three random taus."""
    for tau in (GENERIC_TAU, random_tau(rng), random_tau(rng), random_tau(rng)):
        a, b = char_arrays(ALL_CHARS)
        a = np.vstack([a, [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(4)]])
        b = np.vstack([b, [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(4)]])
        for got, ai, bi in zip(stacked_nulls(a, b, tau), a.tolist(), b.tolist()):
            want = brute_theta(ai, bi, tau)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_odd_nulls_vanish(rng):
    taus = [IDENTITY_TAU, GENERIC_TAU] + [random_tau(rng) for _ in range(3)]
    for tau in taus:
        assert np.all(np.abs(stacked_nulls(*char_arrays(ODD_CHARS), tau)) < 1e-10)


def test_quasi_periodicity(rng):
    """Quasi-periodicity in z, written for the nulls: shifting the
    characteristic by integers only turns the phase."""
    shift_law_checks(rng, 100, 1e-10)


def test_theta_norm_is_lattice_invariant(rng):
    # ||theta||(tau a + b) = (det Y)^(1/4) |theta[a,b](0)|: moving the point by
    # a lattice vector tau m + k leaves the modulus as it is
    for _ in range(5):
        tau = random_tau(rng)
        a, b = (np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)]) for _ in "ab")
        m, k = (np.array([rng.randint(-3, 3), rng.randint(-3, 3)], dtype=float) for _ in "mk")
        base, shifted = np.abs(stacked_nulls([a, a + m], [b, b + k], tau))
        assert abs(shifted - base) < 1e-10 * max(1.0, base)


def test_reduced_radius_stays_bounded(rng):
    """Without a cap on the truncation radius: every Sp4(Z) image, however
    squashed, reduces to a tau with lambda_min >= sqrt(3)/4, where the
    radius at DEFAULT_THETA_TOL, the one tolerance both sums use, is at
    most its value at sqrt(3)/4, which is 5."""
    bound = _truncation_radius(math.sqrt(3) / 4, DEFAULT_THETA_TOL)
    assert bound == 5
    for _ in range(200):
        image = act(random_word(rng, rng.randint(1, 8)), random_tau(rng).matrix)
        reduced = siegel_reduce(SiegelMatrix(image))
        assert reduced.min_eigenvalue >= math.sqrt(3) / 4 * (1 - 1e-12)
        assert _truncation_radius(reduced.min_eigenvalue, DEFAULT_THETA_TOL) <= bound
    # the radius as a function of lambda_min and tol, pinned; a huge
    # lambda_min ends at radius 1, where every term past the origin underflows
    assert _truncation_radius(1e300, DEFAULT_THETA_TOL) == 1
    lams = (0.001, 0.05, 0.3, math.sqrt(3) / 4, 1.0, 4.0, 100.0)
    want = {
        1e-8: [91, 13, 5, 5, 3, 2, 1],
        1e-12: [106, 15, 6, 5, 4, 2, 1],
        1e-14: [113, 16, 7, 6, 4, 2, 1],
    }
    for tol, radii in want.items():
        assert [_truncation_radius(lam, tol) for lam in lams] == radii


def test_truncation_radius_refuses_a_lambda_min_without_a_bound():
    """Below LAMBDA_FLOOR the radius loop has no useful end: at 1e-18,
    q = exp(-2 pi lambda_min) rounds to 1 and the tail bound would divide by
    0; at 1e-17 the loop needs over 1e9 steps, and a NaN never ends it.
    Each is a ValueError naming lambda_min, raised before the loop."""
    for lam, text in ((1e-18, "1e-18"), (1e-17, "1e-17"), (math.nan, "nan")):
        with pytest.raises(ValueError, match=rf"lambda_min {text} is too small"):
            _truncation_radius(lam, DEFAULT_THETA_TOL)


def test_truncation_tolerance_consistency():
    # loosening the tolerance must not move the value by more than it claims
    a, b = char_arrays(EVEN_CHARS)
    loose = stacked_nulls(a, b, GENERIC_TAU, tol=1e-8)
    tight = stacked_nulls(a, b, GENERIC_TAU, tol=1e-14)
    assert np.max(np.abs(loose - tight)) < 1e-8


def test_log_delta2_against_brute_force():
    tau = GENERIC_TAU
    with mpmath.workdps(40):
        total = -12 * mpmath.log(2) + 5 * mpmath.log(tau.det_y)
        for a, b in EVEN_CHARS:
            total += 2 * mpmath.log(abs(brute_theta(a, b, tau)))
    assert abs(log_delta2(tau) - float(total)) < 1e-9


def test_each_stacked_theta_null_matches_brute_force(rng):
    """The ten even theta-nulls from the one stacked lattice sum that
    `log_delta2` makes, each against its own mpmath double sum: a check on
    their product alone could miss compensating errors."""
    for tau in (GENERIC_TAU, siegel_reduce(random_tau(rng))):
        nulls = stacked_nulls(_EVEN_A, _EVEN_B, tau)
        assert len(nulls) == 10
        for (a, b), got in zip(EVEN_CHARS, nulls):
            assert abs(got - brute_theta(a, b, tau)) < 1e-12


def test_log_delta2_modular_invariance(rng):
    for _ in range(3):
        tau = random_tau(rng)
        base = log_delta2(tau)
        b01 = rng.randint(-2, 2)
        shift = np.array(
            [[rng.randint(-2, 2), b01], [b01, rng.randint(-2, 2)]], dtype=float
        )
        assert abs(log_delta2(SiegelMatrix(tau.matrix + shift)) - base) < 1e-9
        inverted = SiegelMatrix(-np.linalg.inv(tau.matrix))
        assert abs(log_delta2(inverted) - base) < 1e-9


def test_log_delta2_check_route_catches_a_truncated_sum(monkeypatch):
    """The check sums through the torus-average kernel, not the lattice sum
    of the theta-null route, so a fault in that sum cannot shift both."""
    right = g2inv.theta_surface._theta_scaled
    monkeypatch.setattr(
        g2inv.theta_surface, "_theta_scaled", lambda char, tau, radius: right(char, tau, 1)
    )
    with pytest.raises(FormulaMismatchError, match="discriminant routes disagree"):
        log_delta2(GENERIC_TAU)


def test_log_delta2_degenerate_null():
    with pytest.raises(DegenerateThetaNullError) as info:
        log_delta2(IDENTITY_TAU)
    assert info.value.characteristic == "[1/2 1/2; 1/2 1/2]"
    assert "even theta-null [1/2 1/2; 1/2 1/2] is below" in str(info.value)


@pytest.mark.parametrize("y", [12, 20, 40])
def test_log_delta2_accepts_large_y(y):
    """On tau = [[0.1 + Y i, 0.3 + 0.2i], [., -0.15 + (Y + 1) i]], reduced
    and far from the product locus, the nulls with a != 0 are tiny only
    because their largest term exp(-pi d_Y(a)^2) is: at Y = 12 |theta| of
    [1/2 1/2; 1/2 1/2] is 6.6e-9, at Y = 20 that of [1/2 1/2; 0 0] is
    3.9e-14.  Measured against that term they do not cancel, so
    `log_delta2` keeps them and matches the mpmath sums."""
    tau = SiegelMatrix([[0.1 + y * 1j, 0.3 + 0.2j], [0.3 + 0.2j, -0.15 + (y + 1) * 1j]])
    with mpmath.workdps(40):
        total = -12 * mpmath.log(2) + 5 * mpmath.log(tau.det_y)
        for a, b in EVEN_CHARS:
            total += 2 * mpmath.log(abs(brute_theta(a, b, tau)))
    assert abs(log_delta2(tau) - float(total)) < 1e-12 * abs(float(total))


def test_log_delta2_refuses_a_nan_distance(monkeypatch):
    """A NaN distance to the nearest lattice point (inf - inf, as for
    a = (1/2, 1/2) when both diagonal entries of Y are 1e308) leaves the
    size of a null unknown: refused as degenerate, though no null is 0."""
    right = g2inv.theta_surface._nearest_distance_sq
    monkeypatch.setattr(
        g2inv.theta_surface, "_nearest_distance_sq", lambda *args: right(*args) * math.nan
    )
    with pytest.raises(DegenerateThetaNullError):
        log_delta2(GENERIC_TAU)


def test_log_delta2_names_each_vanishing_null(monkeypatch):
    """Whichever even null vanishes, `log_delta2` names it as printed from
    the exact characteristic, such as [1/2 0; 0 1/2]."""
    right = g2inv.theta_surface._theta_scaled
    assert "[1/2 0; 0 1/2]" in map(char_name, EVEN_CHARS)
    for index, char in enumerate(EVEN_CHARS):

        def one_null_zeroed(chars, tau, radius):
            nulls = right(chars, tau, radius)
            nulls[index] = 0
            return nulls

        monkeypatch.setattr(g2inv.theta_surface, "_theta_scaled", one_null_zeroed)
        with pytest.raises(DegenerateThetaNullError) as info:
            log_delta2(GENERIC_TAU)
        assert info.value.characteristic == char_name(char)
        assert f"even theta-null {char_name(char)} is below" in str(info.value)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(n_samples=5000)
    with pytest.raises(ValueError):
        QuadratureConfig(method="sobol")
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            QuadratureConfig(target_stderr=bad)
    with pytest.raises(ValueError, match="seed"):
        QuadratureConfig(seed=-1)
    # a float count would fail inside `log_h`, after `arch_invariants` had
    # summed the discriminant, and seed=True would run as seed 1
    for field, bad in (("n_samples", 1e5), ("n_samples", 20000.0), ("seed", 2.0), ("seed", True)):
        with pytest.raises(ValueError, match="samples" if field == "n_samples" else "seed"):
            QuadratureConfig(**{field: bad})


def translates(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 256 points (u + a, v + b) of each base point in the kernel's
    order, (a, b) in QUARTERS order outermost, as (256 B, 2) arrays."""
    points = (np.hstack([u, v])[None] + QUARTERS[:, None]).reshape(-1, 4)
    return points[:, :2], points[:, 2:]


def kernel_translates(tau: SiegelMatrix, u: np.ndarray, v: np.ndarray):
    """The kernel's (256, B) values at the base points (u, v), and the
    (256 B, 2) arrays of their translates (u + a, v + b) in its order."""
    return (_theta_kernel(tau)(u, v),) + translates(u, v)


def use_integrand(monkeypatch, integrand) -> None:
    """Make `log_h` average integrand(u, v), a function of the (256 B, 2)
    arrays of `translates`, in place of log||theta||: the kernel is
    swapped for one that evaluates it at each chunk's translates and
    returns the kernel's (256, B) layout.  The control variate applies
    to its values too."""

    def kernel(tau):
        return lambda u, v: integrand(*translates(u, v)).reshape(len(QUARTERS), -1)

    monkeypatch.setattr(g2inv.theta_surface, "_theta_kernel", kernel)


def test_log_h_constant_integrand_self_test(monkeypatch):
    config = QuadratureConfig(n_samples=16000, seed=7)
    use_integrand(monkeypatch, lambda u, v: np.ones(len(u)))
    result = log_h(GENERIC_TAU, config)
    assert result.value == 1.0
    assert result.stderr == 0.0
    assert result.rejected == 0


def test_log_h_known_mean_integrand(monkeypatch):
    """u1 + v2 has mean 1.  A coset's mean of it is u1 + v2 + 3/4 at its
    base point, variance 2 (1/4)^2 / 12 = 1/96, so at 20 cosets per
    substream monte-carlo's standard error is about sqrt(1/96 / 160) = 8e-3
    whatever the seed: the target is set to that scale (the default 1e-3
    would refuse about one seed in eight at 10x)."""
    config = QuadratureConfig(n_samples=40000, seed=11, method="monte-carlo", target_stderr=1e-2)
    use_integrand(monkeypatch, lambda u, v: u[:, 0] + v[:, 1])
    result = log_h(GENERIC_TAU, config)
    assert result.stderr > 0
    assert abs(result.value - 1.0) < 6 * result.stderr + 1e-12
    lattice = log_h(GENERIC_TAU, QuadratureConfig(n_samples=40000, seed=11, method="lattice-rule"))
    assert abs(lattice.value - 1.0) < 1e-3


@pytest.mark.parametrize("n", [5, 20, 49, 98, 1000])
def test_lattice_generator_is_the_component_by_component_minimum(n):
    """z = (1, z2, z3, z4) with every z_j prime to n, so each coordinate of
    the lattice takes all n values k / n, and each z_j minimising P2 given
    the components before it over every c in [1, n) prime to n, where the
    search tries them all (up to the tie of c and n - c); at n = 1000 it
    tries 32, and z_j is at least no worse than c = 1."""
    z = _lattice_generator(n)
    assert z[0] == 1 and len(z) == 4
    assert all(math.gcd(c, n) == 1 for c in z)
    k = np.arange(n)

    def weight(c):
        x = k * c % n / n
        return 1 + 2 * math.pi**2 * (x * x - x + 1 / 6)

    product = weight(1)
    coprime = [c for c in range(1, n) if math.gcd(c, n) == 1]
    for chosen in z[1:]:
        score = {c: float(np.sum(product * weight(c))) for c in coprime}
        if len(coprime) <= 64:
            assert score[chosen] <= min(score.values()) * (1 + 1e-12)
        else:
            assert score[chosen] <= score[1]
        product = product * weight(chosen)


def whole_cosets(n_samples: int, method: str) -> list[int]:
    """Each substream's base point count, the same for all 8: n_samples
    over 8 x 256, rounded up, and for the lattice rule on to an odd count."""
    count = -(-n_samples // 2048)
    return [count | 1 if method == "lattice-rule" else count] * 8


def shared_chunks(total: int) -> list[int]:
    """The base point counts of the kernel calls for `total` base points, a
    multiple of 8: all substreams' points, one after another, in whole
    tiles of four, in the fewest calls of at most _CHUNK, cut at 4
    ceil(tiles k / calls), so their sizes differ by at most one tile, a
    larger one first."""
    tiles = total // 4
    calls = -(-tiles // (g2inv.theta_surface._CHUNK // 4))
    cuts = [-(-tiles * k // calls) * 4 for k in range(calls + 1)]
    return [stop - start for start, stop in zip(cuts, cuts[1:])]


@pytest.mark.parametrize("method", ["monte-carlo", "lattice-rule"])
@pytest.mark.parametrize("n_samples", [10000, 10007, 8 * 4096 + 5, 20480, 20481, 8 * 16384 + 5])
def test_log_h_sums_exactly_n_samples(monkeypatch, method, n_samples):
    """n_samples rounded up to 8 equal substreams of whole cosets of 256:
    10000 gives 8 x 5 x 256 = 10240.  20480 = 8 x 10 x 256 gives 10 cosets
    per substream for monte-carlo and 11 for the lattice rule (odd), and
    one sample more gives 11 for both, in every substream.  The substreams
    share equal kernel calls of at most _CHUNK base points, so 10^4
    samples take one call, not one per substream, 8 x 4096 + 5 (136 base
    points) one too, and 8 x 16384 + 5 (520, 130 tiles of four) one as
    well."""
    seen = []

    def count(u, v):
        seen.append(len(u))
        return np.ones(len(u))

    use_integrand(monkeypatch, count)
    log_h(GENERIC_TAU, QuadratureConfig(n_samples=n_samples, seed=2, method=method))
    assert sum(seen) == 256 * sum(whole_cosets(n_samples, method))
    assert seen == [256 * size for size in shared_chunks(sum(whole_cosets(n_samples, method)))]


@pytest.mark.parametrize("method", ["monte-carlo", "lattice-rule"])
@pytest.mark.parametrize("n_samples", [10007, 8 * 4096 + 5, 8 * 16384 + 5])
def test_log_h_points_match_whole_substream_formulas(monkeypatch, method, n_samples):
    """The (u, v) chunks `log_h` hands its integrand, bit for bit, against
    each substream's base points drawn from one default_rng(seed), built
    substream by substream and quartered: for monte-carlo one random((4, 8
    count)) call, whose columns j count .. (j + 1) count - 1 are substream
    j; for the lattice rule one random((4, 8)) call of offsets, column j
    substream j's, and the tent 1 - |2x - 1| of x = frac(offset + (k z mod
    count) / count), k = 0 .. count - 1, z its generating vector; count the
    substream's whole cosets.
    The substreams' points, one substream after another, are cut into
    the equal calls of `shared_chunks`, and each reaches
    the integrand as its 256 quarter-period translates (u + a, v + b),
    (a, b) in the order of itertools.product, so the summation order is
    fixed too."""
    seed = 5
    blocks = []

    def capture(u, v):
        blocks.append(np.hstack([u, v]))
        return np.zeros(len(u))

    config = QuadratureConfig(n_samples=n_samples, seed=seed, method=method)
    use_integrand(monkeypatch, capture)
    log_h(GENERIC_TAU, config)

    want = []
    counts = whole_cosets(n_samples, method)
    rng = np.random.default_rng(seed)
    draws = rng.random((4, sum(counts)) if method == "monte-carlo" else (4, 8))
    for j, count in enumerate(counts):
        if method == "monte-carlo":
            base = draws[:, j * count : (j + 1) * count].T
        else:
            lattice = np.outer(np.arange(count), _lattice_generator(count)) % count / count
            base = 1 - np.abs(2 * np.mod(draws[:, j] + lattice, 1.0) - 1)
        want.append(base / 4)
    want = np.concatenate(want)
    cuts = np.cumsum(shared_chunks(len(want)))[:-1]
    want = [(chunk[None] + QUARTERS[:, None]).reshape(-1, 4) for chunk in np.split(want, cuts)]
    assert [len(block) for block in blocks] == [len(block) for block in want]
    assert np.array_equal(np.concatenate(blocks), np.concatenate(want))


@pytest.mark.parametrize("method", ["monte-carlo", "lattice-rule"])
def test_log_h_averages_whole_cosets(monkeypatch, method):
    """The indicator of u in [0, 1/4)^2 holds at exactly 16 of the 256
    translates of every base point, so over whole cosets its mean is 1/16
    with no error at all; a partial coset would move it."""
    config = QuadratureConfig(n_samples=10007, seed=8, method=method)

    def corner(u, v):
        return np.all(u < 0.25, axis=1).astype(float)

    use_integrand(monkeypatch, corner)
    result = log_h(GENERIC_TAU, config)
    assert result.value == 1 / 16
    assert result.stderr == 0.0


def brute_distance_sq(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """min over n in [-2, 3]^2 of (x + n)'Y(x + n) for a (k, 2) array x."""
    ns = np.array(list(itertools.product(range(-2, 4), repeat=2)), dtype=float)
    shifted = x[:, None, :] + ns[None]
    return np.einsum("kni,ij,knj->kn", shifted, y, shifted).min(axis=1)


@pytest.mark.parametrize("method", ["monte-carlo", "lattice-rule"])
def test_log_h_integrates_its_control_variate_exactly(method):
    """An integrand equal to the control variate -pi d_Y(u)^2 fits it with
    slope 1, so `log_h` returns its exact mean -pi M2(Y) up to rounding,
    with no spread: this pins the control's mean against the exact
    Voronoi moment (the mean (Y11 + Y22) / 12 of the componentwise
    nearest integer is 0.012 and 0.083 above M2 here), its sign and the
    translates it is evaluated at, on both signs of Y12."""
    slanted = SiegelMatrix([[0.1 + 4j, -0.3 - 1.8j], [-0.3 - 1.8j, 0.2 + 6j]])
    for tau in (siegel_reduce(GENERIC_TAU), slanted):
        y = tau.matrix.imag
        with pytest.MonkeyPatch.context() as patch:
            use_integrand(patch, lambda u, v: -math.pi * brute_distance_sq(y, u))
            result = log_h(tau, QuadratureConfig(n_samples=10007, seed=3, method=method))
        assert abs(result.value + math.pi * float(exact_voronoi_moment(y))) < 1e-12
        assert result.stderr < 1e-12


@pytest.mark.parametrize("method", ["monte-carlo", "lattice-rule"])
@pytest.mark.parametrize("n_samples", [10007, 8 * 4096 + 5])
def test_log_h_estimator_matches_its_formulas(monkeypatch, method, n_samples):
    """On u1 + v2 + sin 2 pi u2, neither constant nor the control, `log_h`
    returns the estimate its docstring defines, recomputed here from the
    translates it evaluated: per coset F, the sum of the integrand over
    its 256 translates, and G, the sum of -pi d_Y^2 + pi M2(Y) over them
    (d_Y by brute force, M2 exact); beta, the least squares slope of F on
    G over all cosets, in centred form; each substream's mean (sum F -
    beta sum G) / its evaluations; their mean, and their spread over
    sqrt(8) as the standard error."""
    tau = siegel_reduce(GENERIC_TAU)
    y = tau.matrix.imag
    seen = []

    def integrand(u, v):
        return u[:, 0] + v[:, 1] + np.sin(2 * math.pi * u[:, 1])

    def capture(u, v):
        seen.append((u, v))
        return integrand(u, v)

    use_integrand(monkeypatch, capture)
    # monte-carlo's stderr on it at 1e4 is about 0.012, past 10x the default target
    config = QuadratureConfig(n_samples=n_samples, seed=6, method=method, target_stderr=1)
    result = log_h(tau, config)

    control_mean = -math.pi * float(exact_voronoi_moment(y))
    f = np.concatenate([integrand(u, v).reshape(256, -1).sum(axis=0) for u, v in seen])
    g = np.concatenate(
        [(-math.pi * brute_distance_sq(y, u) - control_mean).reshape(256, -1).sum(axis=0) for u, _ in seen]
    )
    beta = np.sum((f - f.mean()) * (g - g.mean())) / np.sum((g - g.mean()) ** 2)
    counts = whole_cosets(n_samples, method)
    assert len(f) == sum(counts)
    cuts = np.cumsum(counts)[:-1]
    means = [(fs.sum() - beta * gs.sum()) / (256 * len(fs)) for fs, gs in zip(np.split(f, cuts), np.split(g, cuts))]
    assert abs(result.value - np.mean(means)) < 1e-12
    assert abs(result.stderr - np.std(means, ddof=1) / math.sqrt(8)) < 1e-12
    assert result.stderr > 0


def test_log_h_refuses_a_value_out_of_range_in_the_last_call_only(monkeypatch):
    """At 8 x 16384 + 5 samples the 520 base points, 65 per substream, take
    three kernel calls of whole tiles of four (176, 172 and 172) at a cap
    of 200 base points.  A -inf at one translate of the last call alone
    still makes `log_h` refuse tau, naming it, with no numpy warning."""
    tau = siegel_reduce(GENERIC_TAU)
    monkeypatch.setattr(g2inv.theta_surface, "_CHUNK", 200)
    calls = []

    def integrand(u, v):
        calls.append(len(u))
        values = np.zeros(len(u))
        if len(calls) == 3:
            values[-1] = -np.inf
        return values

    use_integrand(monkeypatch, integrand)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureUnstableError, match=re.escape(repr(tau))):
            log_h(tau, QuadratureConfig(n_samples=8 * 16384 + 5, seed=4))
    assert calls == [256 * 176, 256 * 172, 256 * 172]


def test_log_h_refuses_opposite_infinities_in_one_coset_without_a_warning(monkeypatch):
    """`log_h` tests finiteness on each coset's sum F: inf and -inf among
    one base point's translates sum to NaN, which is refused like either
    alone, and the invalid operation raises no numpy warning."""
    tau = siegel_reduce(GENERIC_TAU)

    def integrand(u, v):
        values = np.zeros(len(u))
        width = len(u) // 256  # the (256, B) layout: translate a of base point b at a B + b
        values[[0, width]] = np.inf, -np.inf  # two translates of the first base point
        return values

    use_integrand(monkeypatch, integrand)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureUnstableError, match=re.escape(repr(tau))):
            log_h(tau, QuadratureConfig(n_samples=10000, seed=4))


def reduced_y(y11: float, ratio: float, slant: float) -> np.ndarray:
    """The reduced Y with Y22 = ratio Y11 (ratio >= 1) and Y12 = slant Y11 / 2
    (|slant| <= 1): |2 Y12| <= Y11 <= Y22."""
    return np.array([[y11, slant * y11 / 2], [slant * y11 / 2, ratio * y11]])


@PROPERTY_SETTINGS
@given(st.floats(0.5, 50), st.floats(1, 8), st.floats(-1, 1))
@example(1.0, 1.0, 0.0)
@example(1.0, 1.0, 1.0)
@example(1.0, 1.0, -1.0)
@example(3.0, 1.0, 1.0)
def test_nearest_corner_is_the_nearest_lattice_point(y11, ratio, slant):
    """For reduced Y the four-corner d_Y(x)^2 of the control variate is the
    minimum over all of n in [-2, 3]^2, at random points of [0, 1)^2 and on
    the edges and diagonals of the square, at both signs of Y12 and at the
    hexagonal corner |2 Y12| = Y11 = Y22."""
    y = reduced_y(y11, ratio, slant)
    x = np.random.default_rng(0).random((500, 2))
    edge = np.linspace(0, 1 - 1e-9, 41)
    x = np.vstack([x, np.stack([edge, edge], 1), np.stack([edge, 1 - edge], 1),
                   np.stack([edge, 0 * edge], 1), np.stack([0 * edge, edge], 1)])
    got = g2inv.theta_surface._nearest_distance_sq(y, x[:, 0], x[:, 1])
    assert np.allclose(got, brute_distance_sq(y, x), rtol=1e-13, atol=1e-13 * y11)


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(
    st.floats(math.sqrt(3) / 2, 2),
    st.floats(1, 3),
    st.floats(0.1, 1),
    st.sampled_from((-1, 1)),
)
@example(1.0, 1.0, 1.0, 1)
@example(1.0, 1.0, 1.0, -1)
def test_voronoi_moment_matches_a_midpoint_grid(y11, ratio, slant, sign):
    """M2(Y) against the mean of the four-corner d_Y^2 over a 2000^2
    midpoint grid of the torus (which the property above pins to the
    lattice minimum), within 1e-8, and against its exact value in
    Fractions, on both signs of Y12 and at the hexagonal corner.  M2 is
    homogeneous in Y, so a modest scale loses nothing; Y12 stays clear of
    0, since a kink of d^2 nearly along the grid's cell edges leaves the
    midpoint rule an error of about (Y11 + Y22) / (12 2000^2), 2e-8 at
    Y = I.  A diagonal Y has the unit square for its cell, with M2 =
    (Y11 + Y22) / 12, the mean of the componentwise control."""
    y = reduced_y(y11, ratio, sign * slant)
    got = g2inv.theta_surface._voronoi_moment(y)
    grid = (np.arange(2000) + 0.5) / 2000
    total = sum(
        float(g2inv.theta_surface._nearest_distance_sq(y, rows[:, None], grid).sum())
        for rows in np.split(grid, 8)
    )
    assert abs(got - total / 2000**2) < 1e-8
    assert abs(got - float(exact_voronoi_moment(y))) < 1e-15
    diagonal = np.diag(np.diag(y))
    assert abs(g2inv.theta_surface._voronoi_moment(diagonal) - (y[0, 0] + y[1, 1]) / 12) < 1e-15


@PROPERTY_SETTINGS
@given(st.floats(0.5, 1e3), st.floats(1, 1e3), st.floats(-1, 1))
@example(1.0, 1.0, 1.0)
@example(1.0, 1.0, -1.0)
@example(1e3, 1.0, 1.0)
@example(1e3, 1e3, -1.0)
@example(2.0, 3.0, 0.0)
@example(1e3, 1.0, -0.0)
@example(1.0, 2.5, -1.0)
def test_voronoi_moment_matches_its_exact_value(y11, ratio, slant):
    """The float M2(Y) against its exact value on the same float entries
    (`oracles.exact_voronoi_moment`, Fractions), on both signs of Y12, at
    Y12 = 0, at the hexagonal corner |2 Y12| = Y11 (Y22 = Y11 too, or not)
    and up to Y11 = 1e3.  M2 grows with Y, so only a relative bound can
    hold: 1e-14, where 2e4 random reduced Y up to Y11 = 1e3 gave at most
    2.9e-16.  The same Y as an object array of Fractions, and its
    diagonal, give M2 exactly: the closed form in the Selling parameters
    against the oracle's fan of the hexagon."""
    y = reduced_y(y11, ratio, slant)
    exact = exact_voronoi_moment(y)
    got = g2inv.theta_surface._voronoi_moment(y)
    assert abs(Fraction(got) - exact) <= Fraction(1e-14) * exact
    fractions = np.array([[Fraction(v) for v in row] for row in y.tolist()], dtype=object)
    assert g2inv.theta_surface._voronoi_moment(fractions) == exact
    diagonal = np.diag(np.diag(fractions))
    assert g2inv.theta_surface._voronoi_moment(diagonal) == exact_voronoi_moment(diagonal)


def test_control_variate_keeps_a_tall_reduced_tau_clear_of_the_refusal():
    """At the reduced image of the squashed tau of `test_arch_on_squashed_tau`
    (Y about diag(2.5, 3)) most of the spread of log||theta|| is the
    control -pi s'Ys: without it the monte-carlo standard error at 10^4
    samples is about 0.009, and a third of the seeds pass the refusal
    bound 10 x 1e-3.  With it the largest over seeds 0-59 is 0.0021."""
    tau = siegel_reduce(SiegelMatrix(np.array([[0.3 + 0.004j, 0.2 + 0.001j], [0.2 + 0.001j, 0.1 + 3j]])))
    for seed in range(10):
        assert log_h(tau, QuadratureConfig(n_samples=10000, seed=seed, method="monte-carlo")).stderr < 0.004


def test_voronoi_control_keeps_a_slanted_tall_tau_clear_of_the_refusal():
    """At Y = [[8, 2], [2, 20]], which `log_delta2` accepts (-138.11), the
    componentwise control -pi s'Ys missed the nearest lattice point, and
    the monte-carlo standard error at 10^4 samples passed the refusal
    bound 10 x 1e-3 on 13 of seeds 0-29 (exit 6 through `arch`); with
    the Voronoi control -pi d_Y(u)^2 every seed passes."""
    tau = SiegelMatrix([[0.1 + 8j, 0.3 + 2j], [0.3 + 2j, -0.2 + 20j]])
    assert abs(log_delta2(tau) + 138.11) < 0.01
    for seed in range(30):
        assert log_h(tau, QuadratureConfig(n_samples=10000, seed=seed, method="monte-carlo")).stderr < 10 * 1e-3


@settings(PROPERTY_SETTINGS, max_examples=24)
@given(
    st.floats(0.8, 2),
    st.floats(1, 3),
    st.floats(-1, 1),
    st.sampled_from((4, 8, 16)),
    st.tuples(*[st.floats(-0.5, 0.5)] * 3),
    st.integers(0, 10**6),
)
@example(1.0, 1.0, 1.0, 4, (0.1, 0.5, -0.3), 0)
@example(1.0, 1.0, -1.0, 4, (0.1, 0.5, -0.3), 0)
@example(0.8, 1.0, 0.0, 4, (0.1, 0.5, -0.3), 0)
def test_log_h_follows_the_large_y_law(y11, ratio, slant, scale, x, seed):
    """log||H|| at Y = s Q against 1/4 log det Y - pi M2(Y)
    (`oracles.large_y_log_h`, M2 from the oracle's own fan), for Q reduced
    with Y11 in [0.8, 2], Y22 / Y11 in [1, 3] and either sign of Y12, s in
    {4, 8, 16} and random X: |log_h - law| <= 10 stderr + c / det Y, the
    lattice rule at 4e5 samples.

    c: the remainder eps = log||H|| - law times det Y, measured with the
    lattice rule at 3.2e7 samples (1e8 at s = 16) over 90 random draws of
    this distribution and a scan of X12 at Y12 = 0 and at the hexagonal
    corners, lay in [0.003, 0.029] wherever its standard error was small
    (eps det Y at most 0.027 plus three standard errors).  At Y12 = 0 it
    rises with |X12| to 0.0267 at X12 = 1/2, close to 1/(12 pi); at the
    hexagonal corner it is 0.0153 whatever X.  So c = 0.05 holds it with a
    margin of 1.7.

    k = 10: a failure needs |log_h - log||H||| > 10 stderr, as |eps| <
    c / det Y.  With 7 degrees of freedom, P(|t| > 10) = 2.1e-5.  The
    tails are heavier than t_7: over 900 runs at 4e5 samples on six such
    Y, |z| > 5 came up at 0.0044, 2.8 times t_7's 0.0016, and the largest
    |z| was 7.2.  Allowing ten times t_7 at 10 gives at most 2e-4 per
    draw and 5e-3 for the 24 draws, which are fixed (derandomized), so a
    false failure can only follow a change of the draws or of the sample
    stream.  At s = 4 the remainder carries the bound: at Y12 = 0 and
    X12 = 1/2, |log_h - law| is 31 stderr and 0.47 of the bound, the
    largest share over the draws.  A wrong exponent on det Y in the
    kernel's scale (0.3 for 1/4), the square's (Y11 + Y22) / 12 for M2,
    or p = Y12 for |Y12| in M2 each fail it."""
    y = scale * reduced_y(y11, ratio, slant)
    x11, x12, x22 = x
    tau = SiegelMatrix(np.array([[x11, x12], [x12, x22]]) + 1j * y)
    result = log_h(tau, QuadratureConfig(n_samples=400_000, seed=seed, method="lattice-rule"))
    det = y[0, 0] * y[1, 1] - y[0, 1] * y[1, 0]
    assert abs(result.value - large_y_log_h(y)) <= 10 * result.stderr + 0.05 / det


@pytest.mark.parametrize("method", ["monte-carlo", "lattice-rule"])
def test_log_h_kernel_matches_lattice_sum_through_quadrature(method):
    """The factored kernel inside `log_h` against the unfactored lattice
    sum swapped in for the kernel (`use_integrand`), with substreams that span
    several chunks and end in a partial one: the point layout and
    chunking must give the same value, with every sample kept.  On the
    large-Y taus many moduli are far below machine epsilon (log||theta||
    down to about -236), and each counts as it is."""
    taus = (siegel_reduce(GENERIC_TAU), _stretched_tau(56), _stretched_tau(100), TALL_TAU)
    for tau in taus:
        norms = lattice_sum_norms(tau.matrix)
        config = QuadratureConfig(n_samples=40005, seed=4, method=method, target_stderr=10)
        got = log_h(tau, config)
        with pytest.MonkeyPatch.context() as patch:
            use_integrand(patch, lambda u, v: np.log(norms(u, v)))
            want = log_h(tau, config)
        assert abs(got.value - want.value) < 1e-10
        assert got.rejected == want.rejected == 0


HEXAGONAL_TAU = SiegelMatrix(0.5 * np.eye(2) + 1j * math.sqrt(3) / 2 * np.array([[1, 0.5], [0.5, 1]]))


def test_kernel_matches_pointwise_theta_norm(rng):
    """The torus-average kernel against `lattice_sum_norms`, whose plain
    lattice sum shares none of its factoring or recurrence, point by
    point at all 256 quarter-period translates of base points in
    [0, 1/4)^4, the edges of that box among them: an error
    of 1e-6 per point hides inside the Monte Carlo spread but not here.
    Wherever the reference modulus is a normal float, however small, the
    kernel's value is finite and matches in log."""
    taus = [siegel_reduce(random_tau(rng)) for _ in range(20)]
    taus.append(siegel_reduce(GENERIC_TAU))
    taus.append(TALL_TAU)
    taus.append(_stretched_tau(64))  # the moduli span a wide kept range
    taus.append(_stretched_tau(200))  # and near its far end, kept since the 2r-row box
    # the hexagonal corner of the fundamental domain: lambda_min = sqrt(3)/4,
    # the least of any reduced tau, where the radius is largest (5)
    taus.append(HEXAGONAL_TAU)
    # unreduced, so the row recurrences run over 16 and 20 rows (radius 8 and 10)
    taus.append(SiegelMatrix([[0.3 + 0.2j, 0.1 + 0.05j], [0.1 + 0.05j, 0.2 + 0.3j]]))
    taus.append(SiegelMatrix([[0.45 + 0.12j, -0.5 + 0.03j], [-0.5 + 0.03j, 0.1 + 0.5j]]))
    edges = (0.0, 0.125, 0.25 - 1e-9)
    for index, tau in enumerate(taus):
        points = np.random.default_rng(index).random((64, 4)) / 4
        points[:9, :2] = list(itertools.product(edges, edges))
        got, u, v = kernel_translates(tau, points[:, :2], points[:, 2:])
        norms = lattice_sum_norms(tau.matrix)(u, v)
        normal = norms > np.finfo(float).tiny
        got = got.ravel()[normal]
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - np.log(norms[normal]))) < 1e-10


def test_kernel_at_the_origin_gives_the_theta_nulls(rng):
    """The 16 half-period translates of the base point 0 are the points
    tau a + b, where ||theta|| = (det Y)^(1/4) |theta[a,b](0)|: the even ones match the
    stacked null sum.  The box sum of an odd null is minus the mass the
    box omits, so it stays within the tail bound DEFAULT_THETA_TOL at any
    tau, where Y is diagonal too (there it is tiny or exactly 0, log -inf)."""
    odd = 4 * (HALVES[:, 0] * HALVES[:, 2] + HALVES[:, 1] * HALVES[:, 3]) % 2 == 1
    assert odd.sum() == 6
    origin = np.zeros((1, 2))
    for tau in (siegel_reduce(GENERIC_TAU), HEXAGONAL_TAU):
        got = _theta_kernel(tau)(origin, origin)[HALF, 0]
        nulls = stacked_nulls(_EVEN_A, _EVEN_B, tau)
        assert np.allclose(got[~odd], np.log(tau.det_y**0.25 * np.abs(nulls)), rtol=0, atol=1e-12)
    taus = [siegel_reduce(GENERIC_TAU), HEXAGONAL_TAU, IDENTITY_TAU]
    for tau in taus + [siegel_reduce(random_tau(rng)) for _ in range(50)]:
        got = _theta_kernel(tau)(origin, origin)[HALF][odd, 0]
        assert np.all(np.exp(got) <= tau.det_y**0.25 * DEFAULT_THETA_TOL)


@PROPERTY_SETTINGS
@given(
    st.floats(math.sqrt(3) / 4, 5),
    st.floats(0, 1, exclude_max=True),
    st.floats(0, 1, exclude_max=True),
)
@example(math.sqrt(3) / 4, 0.0, 0.0)
@example(math.sqrt(3) / 4, 1 - 1e-9, 1 - 1e-9)
def test_kernel_box_omits_less_than_the_tail_bound(lam, u1, u2):
    """The mass the kernel's box n in [-R, R-1]^2 leaves out at a shift u,
    summed over a box 40 rows wider at Y = lam I (the largest terms of any
    Y whose smallest eigenvalue is lam), against the tail bound of
    `_truncation_radius` at R, retyped here, and against its tolerance."""
    radius = _truncation_radius(lam, DEFAULT_THETA_TOL)
    ns = np.arange(-radius - 40, radius + 40, dtype=float)
    terms = np.exp(-math.pi * lam * ((ns[:, None] + u1) ** 2 + (ns[None, :] + u2) ** 2))
    kept = (ns >= -radius) & (ns < radius)
    terms[np.ix_(kept, kept)] = 0
    omitted = float(terms.sum())
    q = math.exp(-2 * math.pi * lam * radius)
    tail = 8 * math.exp(-math.pi * lam * radius**2) * ((radius + 1) / (1 - q) + q / (1 - q) ** 2)
    assert omitted <= tail
    assert omitted <= DEFAULT_THETA_TOL


def _stretched_tau(scale: float) -> SiegelMatrix:
    return SiegelMatrix(0.05 + 1j * scale * np.array([[1, 0.48], [0.48, 1.1]]))


def test_log_h_float_range_is_kept_and_refused_cleanly():
    """`log_delta2` accepts a reduced tau this stretched, as it measures
    each null against its largest term (it returns about -2388 at s =
    240), so this range is also the one `arch` meets.
    A direct `log_h` keeps its range up to s of about 237.5 at this config
    (237 for monte-carlo), where the sum before its modulus factor
    exp(-2 pi Y12 (u1 + a1)(u2 + a2)), about exp(2 pi Y12) = exp(2 pi 0.48
    s) at the translates u + 3/4 of base points near 1/4, passes the float
    limit 709.78, and past it
    raises QuadratureUnstableError without a numpy warning, every sample
    kept below it.  The range ends at the least float too: at Y22 = 1000
    the largest lattice term of a point with u2 near 1/2 is about
    exp(-pi 1000 / 4) = 1e-341, so ||theta|| is 0 there, and `log_h`
    refuses tau, naming it, where dropping those points returned about -1."""
    underflow = SiegelMatrix(np.array([[0.1 + 1.2j, 0.3 + 0.4j], [0.3 + 0.4j, -0.2 + 1000j]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in ("monte-carlo", "lattice-rule"):
            config = QuadratureConfig(n_samples=20000, seed=0, method=method, target_stderr=10)
            kept = log_h(_stretched_tau(230), config)
            assert math.isfinite(kept.value)
            assert kept.rejected == 0
            with pytest.raises(QuadratureUnstableError):
                log_h(_stretched_tau(240), config)
            with pytest.raises(QuadratureUnstableError, match="1000j"):
                log_h(underflow, config)


@pytest.mark.parametrize("method", ["monte-carlo", "lattice-rule"])
@pytest.mark.parametrize("n_samples", [8 * 4096 + 5, 200_000])
def test_log_h_call_partition_moves_no_bit(monkeypatch, method, n_samples):
    """How `log_h` cuts its base points into kernel calls changes no bit:
    calls of at most 1, 7, 128 or _CHUNK base points give the same
    QuadratureResult, at 136 base points and at 784."""
    config = QuadratureConfig(n_samples=n_samples, seed=3, method=method)
    results = []
    for chunk in (1, 7, 128, g2inv.theta_surface._CHUNK):
        monkeypatch.setattr(g2inv.theta_surface, "_CHUNK", chunk)
        results.append(log_h(GENERIC_TAU, config))
    assert results[1:] == results[:-1]


@pytest.mark.parametrize(
    "method, n_samples, calls",
    [
        ("monte-carlo", 200_000, [784]),
        ("lattice-rule", 200_000, [792]),
        ("monte-carlo", 1_000_000, [784, 784, 780, 784, 780]),
        ("lattice-rule", 1_000_000, [784, 784, 780, 784, 780]),
    ],
)
def test_log_h_kernel_calls(monkeypatch, method, n_samples, calls):
    """The real kernel's calls, in base points: 2 x 10^5 samples take one
    call (784 base points, 792 for the lattice rule's odd count of 99 per
    substream), and 10^6 (3912) five, of whole tiles of four, a larger one
    first."""
    seen = []
    kernel = siegel_reduce(GENERIC_TAU)._kernel

    def counted(tau):
        def log_norms(u, v):
            seen.append(len(u))
            return kernel(u, v)

        return log_norms

    monkeypatch.setattr(g2inv.theta_surface, "_theta_kernel", counted)
    log_h(GENERIC_TAU, QuadratureConfig(n_samples=n_samples, seed=1, method=method))
    assert seen == calls


def test_kernel_columns_do_not_depend_on_the_call():
    """On whole tiles of four base points, the calls `log_h` makes, each
    column of the kernel's output depends on its base point alone: a
    300-point batch gives, bit for bit, the concatenation of the calls on
    its sub-batches of 4, 36 and 260 points, whether the kernel's buffer
    was grown by the whole batch first or is grown call by call."""
    slanted = SiegelMatrix([[0.1 + 8j, 0.3 + 2j], [0.3 + 2j, -0.2 + 20j]])
    points = np.random.default_rng(35)
    for tau in (siegel_reduce(GENERIC_TAU), siegel_reduce(slanted)):
        u, v = points.uniform(0, 0.25, (2, 300, 2))
        grown = _theta_kernel(tau)
        whole = grown(u, v).copy()
        for kernel in (grown, _theta_kernel(tau)):
            # copies: a result is a view of the kernel's buffer, valid until its next call
            parts = [kernel(u[a:b], v[a:b]).copy() for a, b in ((0, 4), (4, 40), (40, 300))]
            assert np.array_equal(np.concatenate(parts, axis=1), whole)


def test_kernel_writes_its_result_in_its_buffer():
    """A kernel call allocates no result: log||theta|| is written over the
    moduli in the kernel's kept buffer, so a second call of the same size
    returns a view of the same memory."""
    kernel = _theta_kernel(siegel_reduce(GENERIC_TAU))
    u, v = np.random.default_rng(40).uniform(0, 0.25, (2, 2, 8, 2))
    first = kernel(u[0], v[0])
    kept = first.copy()
    second = kernel(u[1], v[1])
    assert second.shape == (256, 8) and np.shares_memory(first, second)
    assert not np.array_equal(first, kept)  # overwritten by the second call


@pytest.mark.parametrize("method", ["monte-carlo", "lattice-rule"])
def test_log_h_is_deterministic(method):
    """10^5 samples make 392 base points, one kernel call; a second run
    reuses the kernel's buffer, as every call after the first does, and
    comes out bit for bit as the first."""
    config = QuadratureConfig(n_samples=100_000, seed=42, method=method)
    one = log_h(GENERIC_TAU, config)
    again = log_h(GENERIC_TAU, config)
    assert one == again


def test_log_h_refuses_a_stale_positional_third_argument():
    """A tolerance passed by position, written for an older signature,
    is refused instead of running."""
    config = QuadratureConfig(n_samples=10000)
    with pytest.raises(TypeError):
        log_h(GENERIC_TAU, config, 1e-12)
    with pytest.raises(TypeError):
        arch_invariants(GENERIC_TAU, config, 1e-12)


def test_log_h_methods_agree():
    mc = log_h(GENERIC_TAU, QuadratureConfig(n_samples=40000, seed=3, method="monte-carlo"))
    qmc = log_h(
        GENERIC_TAU,
        QuadratureConfig(n_samples=40000, seed=3, method="lattice-rule"),
    )
    assert abs(mc.value - qmc.value) < 6 * (mc.stderr + qmc.stderr) + 1e-3


# log||H|| at the CI tau: the mean of 10 lattice-rule runs at 4e6 samples
# (seeds 1000-1009), whose spread gives it a standard error of 5.0e-6
CI_TAU_LOG_H = -0.5143517865832993


@pytest.mark.parametrize("method", ["monte-carlo", "lattice-rule"])
def test_log_h_stderr_covers_its_error(method):
    """The standard error `log_h` prints is honest: over seeds 0-199 at 10^4
    samples on the CI tau, z = (log_h - CI_TAU_LOG_H) / stderr passes 3.5 in
    absolute value at most 14 times.

    With 7 degrees of freedom P(|t_7| > 3.5) = 0.010, but the measured
    tails are heavier: at 1000 seeds here 0.007 (monte-carlo) and 0.012
    (lattice rule), and 0.000-0.020 over 300 seeds on three tau (this one,
    the hexagonal corner Y = [[1, 1/2], [1/2, 1]] and Y = [[8, 2], [2,
    20]]) at 1e4 and 1e5 samples, by either method.  The bound is set for
    a rate of 0.025, above all of them: P(Binomial(200, 0.025) > 14) =
    1.8e-4, so at most 3.5e-4 for the two methods.  The seeds are fixed,
    so a false failure can only follow a change of the sample stream.  The
    reference's own error, 5e-6, is under 1 % of a 10^4-sample stderr
    (about 1e-3).  A stderr half its size makes |z| > 3.5 wherever |t| >
    1.75, 12 % of draws under t_7: 29 (monte-carlo) and 26 (lattice rule)
    of these 200 seeds, so it fails."""
    tau = SiegelMatrix([[0.1 + 1.1j, 0.2 + 0.3j], [0.2 + 0.3j, -0.15 + 1.3j]])
    outside = 0
    for seed in range(200):
        result = log_h(tau, QuadratureConfig(n_samples=10_000, seed=seed, method=method))
        outside += abs(result.value - CI_TAU_LOG_H) > 3.5 * result.stderr
    assert outside <= 14


def test_log_h_rejects_unreachable_target():
    config = QuadratureConfig(n_samples=10000, seed=1, target_stderr=1e-12)
    with pytest.raises(QuadratureUnstableError):
        log_h(GENERIC_TAU, config)


def test_arch_invariants_chain(rng):
    config = QuadratureConfig(n_samples=40000, seed=5)
    report = arch_invariants(GENERIC_TAU, config)
    assert isinstance(report, ArchReport)
    # the recombined lambda is algebraically the direct one, so the
    # residual is pure floating-point noise
    assert report.residual < 1e-10
    assert report.phi > 0
    assert report.phi_stderr == 10 * report.log_h_stderr
    # phi = 2 log S + 2 log||H||
    assert abs(report.phi - 2 * report.log_s - 2 * report.log_h) < 1e-9
    # delta_F and lambda from their defining formulas
    assert abs(
        report.delta_f - (-16 * LOG_2PI - report.log_delta2 - 4 * report.log_h)
    ) < 1e-12
    assert abs(report.lambda_ - (-20 * LOG_2PI - report.log_delta2) / 10) < 1e-15


def test_log_h_coefficients_match_the_chain(monkeypatch):
    """`LOG_H_COEFFICIENTS`, which the human output's errors read, holds
    each report field's slope in log||H||: moving log_h by 1 moves the
    field by its coefficient, and no other field of the chain moves."""
    reports = []
    for value in (-0.5, 0.5):
        monkeypatch.setattr(
            g2inv.theta_surface, "log_h", lambda tau, config, value=value: (value, 0.0, 0)
        )
        reports.append(arch_invariants(GENERIC_TAU))
    low, high = reports
    for name in ("log_delta2", "log_h", "delta_f", "log_s", "phi", "lambda_"):
        slope = getattr(high, name) - getattr(low, name)
        assert abs(slope - LOG_H_COEFFICIENTS.get(name, 0)) < 1e-12, name
    assert set(LOG_H_COEFFICIENTS) == {"log_h", "delta_f", "log_s", "phi", "lambda_"}


def test_log_h_modular_invariance():
    config = QuadratureConfig(n_samples=40000, seed=9, method="lattice-rule")
    base = log_h(GENERIC_TAU, config)
    shift = np.array([[1.0, -1.0], [-1.0, 2.0]])
    moved = log_h(SiegelMatrix(GENERIC_TAU.matrix + shift), config)
    assert abs(moved.value - base.value) < 10 * (base.stderr + moved.stderr) + 1e-3


def test_siegel_reduce_lands_in_fundamental_domain(rng):
    for _ in range(40):
        tau = random_tau(rng)
        image = act(random_word(rng, rng.randint(1, 6)), tau.matrix)
        assert_fundamental(siegel_reduce(SiegelMatrix(image)))


def test_siegel_reduce_stays_in_the_orbit(rng):
    """Sp4(Z) permutes the ten even null norms (det Y)^(1/4) |theta[c](0)|,
    so sorted they are the same at an image, summed where it stands, and
    at its reduction: a check that needs no symplectic word."""
    for _ in range(40):
        image = SiegelMatrix(act(random_word(rng, rng.randint(1, 6)), random_tau(rng).matrix))
        here, reduced = (
            np.sort(t.det_y**0.25 * np.abs(stacked_nulls(_EVEN_A, _EVEN_B, t)))
            for t in (image, siegel_reduce(image))
        )
        assert np.max(np.abs(here / reduced - 1)) < 1e-12


def test_siegel_reduce_keeps_a_reduced_tau():
    tau = SiegelMatrix(np.array([[0.12 + 1.1j, 0.21 + 0.33j], [0.21 + 0.33j, -0.17 + 1.3j]]))
    reduced = siegel_reduce(tau)
    assert np.array_equal(reduced.matrix, tau.matrix)
    # its own result comes back at once, as it is
    again = siegel_reduce(reduced)
    assert again is reduced


def test_arch_invariants_reduces_once(monkeypatch):
    """`arch_invariants` reduces tau once and hands the result to both
    `log_delta2` and `log_h`, which take it as it is: on a reduced tau the
    loop builds one reduced matrix, not one per invariant."""
    tau = SiegelMatrix(np.array([[0.12 + 1.1j, 0.21 + 0.33j], [0.21 + 0.33j, -0.17 + 1.3j]]))
    builds = []

    class Counted(SiegelMatrix):
        def __init__(self, matrix):
            builds.append(matrix)
            super().__init__(matrix)

    monkeypatch.setattr(g2inv.theta_surface, "SiegelMatrix", Counted)
    arch_invariants(tau, QuadratureConfig(n_samples=10000, seed=1))
    assert len(builds) == 1


def _counted_kernel_builds(monkeypatch) -> list:
    """The taus `_theta_kernel` is built for from here on, in order."""
    builds = []
    right = g2inv.theta_surface._theta_kernel

    def counted(tau):
        builds.append(tau)
        return right(tau)

    monkeypatch.setattr(g2inv.theta_surface, "_theta_kernel", counted)
    return builds


@pytest.mark.parametrize("where", ["reduced", "sheared"])
def test_arch_invariants_builds_one_kernel(monkeypatch, where):
    """`log_delta2`'s kernel-route check and `log_h` read one theta kernel,
    built once per call for the reduced tau both are handed."""
    tau = np.array([[0.12 + 1.1j, 0.21 + 0.33j], [0.21 + 0.33j, -0.17 + 1.3j]])
    if where == "sheared":
        u = np.array([[1.0, 1.0], [0.0, 1.0]])
        tau = u @ tau @ u.T
    builds = _counted_kernel_builds(monkeypatch)
    arch_invariants(SiegelMatrix(tau), QuadratureConfig(n_samples=10000, seed=1))
    assert len(builds) == 1
    assert np.array_equal(builds[0].matrix, siegel_reduce(SiegelMatrix(tau)).matrix)


def test_each_reduced_tau_builds_its_own_kernel(monkeypatch):
    """Two reduced taus give two builds, each kept on its own matrix, so
    no tau reads another's kernel: interleaved calls return what a fresh
    kernel of each tau returns."""
    builds = _counted_kernel_builds(monkeypatch)
    first, second = (
        siegel_reduce(SiegelMatrix(t))
        for t in ([[0.1 + 1.1j, 0.2 + 0.3j], [0.2 + 0.3j, -0.15 + 1.3j]],
                  [[0.3 + 1.4j, -0.1 - 0.4j], [-0.1 - 0.4j, 0.2 + 1.6j]])
    )
    config = QuadratureConfig(n_samples=10000, seed=3)
    results = [(log_delta2(t), log_h(t, config)) for t in (first, second, first, second)]
    assert builds == [first, second]
    assert results[:2] == results[2:] and results[0] != results[1]
    u = np.random.default_rng(0).random((5, 2)) / 4
    for tau in (first, second):
        assert np.array_equal(tau._kernel(u, u[::-1]), _theta_kernel(tau)(u, u[::-1]))
    assert first._kernel is not second._kernel


def _unreduced_images(rng, count):
    """(preimage, image) pairs under random words of length 3 to 5 whose
    image is cheap enough for the brute-force sums (lambda_min >= 0.1)."""
    pairs = []
    while len(pairs) < count:
        tau = random_tau(rng)
        image = SiegelMatrix(act(random_word(rng, rng.randint(3, 5)), tau.matrix))
        reduced = siegel_reduce(image)
        if image.min_eigenvalue >= 0.1 and not np.allclose(reduced.matrix, image.matrix):
            pairs.append((tau, image))
    return pairs


def test_log_delta2_invariant_under_random_words(rng):
    for _, image in _unreduced_images(rng, 3):
        lam = image.min_eigenvalue
        box = math.ceil(math.sqrt(35 / (math.pi * lam))) + 2
        with mpmath.workdps(40):
            total = -12 * mpmath.log(2) + 5 * mpmath.log(image.det_y)
            for a, b in EVEN_CHARS:
                total += 2 * mpmath.log(abs(brute_theta(a, b, image, box)))
        assert abs(log_delta2(image) - float(total)) < 1e-9


def test_log_h_and_phi_invariant_under_random_words(rng):
    config = QuadratureConfig(n_samples=40000, seed=17)
    for index, (tau, image) in enumerate(_unreduced_images(rng, 3)):
        report = arch_invariants(image, config)
        ref_h, ref_err = reference_log_h(image.matrix, 8000, seed=index)
        ref_phi = -0.5 * log_delta2(tau) + 10 * ref_h
        assert abs(report.log_h - ref_h) < 10 * math.hypot(report.log_h_stderr, ref_err)
        assert abs(report.phi - ref_phi) < 10 * math.hypot(report.phi_stderr, 10 * ref_err)


def test_siegel_reduce_keeps_the_digits_of_a_tiny_tau():
    """Scaling tau by s scales its reduction by 1/s down to s = 1e-300,
    without a numpy warning: the reduction is exact, and its entries are
    rounded to floats once."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = []
        for k in range(100, 301, 10):
            s = 10.0**-k
            reduced = siegel_reduce(SiegelMatrix(s * GENERIC_TAU.matrix))
            scaled.append(s * reduced.matrix)
    for image in scaled[1:]:
        assert np.max(np.abs(image - scaled[0])) < 1e-14 * np.max(np.abs(scaled[0]))


def test_siegel_reduce_lands_past_int64_without_a_warning():
    """A Lagrange step beyond the int64 range: the reduction still lands in
    the fundamental domain, without a numpy warning, and on the exact
    reduction (X12 = 0.27628294589104296, where floats landed on 0.2212)."""
    skewed = SiegelMatrix(np.array([[1e-20j, 0.099j], [0.099j, 1e20j]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reduced = siegel_reduce(skewed)
    assert_fundamental(reduced)
    assert reduced.matrix.tobytes() == exact_siegel_reduce(skewed.matrix).tobytes()
    assert reduced.matrix[0, 1].real == 0.27628294589104296


# a valid tau (lambda_min 1.5e-12) whose reduction in floats gave log_delta2
# -31.98863153336442; its exact reduction gives -34.43725110839023, as
# replays at 120 and 240 digits do
ILL_CONDITIONED_TAU = np.array(
    [
        [1.278175945681923 + 1.4259912760812774e-06j, -0.03994299224837316 - 8.925342033475608e-08j],
        [-0.03994299224837316 - 8.925342033475608e-08j, -7.566995918750763e-10 + 5.587935447692871e-09j],
    ]
)


@st.composite
def sp4_images(draw) -> SiegelMatrix:
    """A random tau moved by a random word of 1 to 40 generators and, for
    most draws, sheared by U = [[1, k], [0, 1]] with k = 10 to 10^12, so
    lambda_min reaches 1e-20 and below.  Only a tau that `SiegelMatrix`
    accepts and whose Y is positive definite in exact arithmetic on its
    floats is drawn."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    image = act(random_word(rng, rng.randint(1, 40)), random_tau(rng).matrix)
    k = draw(st.sampled_from([0] + [10**e for e in range(1, 13)]))
    u = np.array([[1.0, k], [0.0, 1.0]])
    image = u @ image @ u.T
    try:
        tau = SiegelMatrix((image + image.T) / 2)
    except ValueError:
        assume(False)
    (y11, y12), (_, y22) = (tuple(map(Fraction, row)) for row in tau.matrix.imag.tolist())
    assume(y11 * y22 > y12 * y12)
    return tau


@PROPERTY_SETTINGS
@given(sp4_images())
@example(SiegelMatrix(ILL_CONDITIONED_TAU))
def test_siegel_reduce_is_the_exact_reduction(tau):
    """`siegel_reduce` returns, bit for bit, the exact reduction of the
    oracle (`exact_siegel_reduce`, on pairs of Fractions), however
    ill-conditioned tau is."""
    assert siegel_reduce(tau).matrix.tobytes() == exact_siegel_reduce(tau.matrix).tobytes()


def test_log_delta2_of_an_ill_conditioned_tau():
    assert abs(log_delta2(SiegelMatrix(ILL_CONDITIONED_TAU)) - -34.43725110839023) < 1e-9


def test_siegel_reduce_refuses_a_y_positive_definite_only_in_floats():
    """eigvalsh finds this Y positive definite, but the determinant of its
    float entries is negative: bad input (ValueError) from the constructor,
    whose test is exact, so no reduction loop runs on an indefinite form."""
    y = np.array([[5821085912619817.0, 5821085.911888932], [5821085.911888932, 0.005821085911158047]])
    with pytest.raises(ValueError, match="exact arithmetic"):
        SiegelMatrix(1j * y)


def test_siegel_matrix_accepts_an_ill_conditioned_positive_definite_y():
    """The shear U tau U', U = [[1, 10^8], [0, 1]], of the CI tau rounds to
    floats whose Y is positive definite exactly, while eigvalsh rounds its
    smallest eigenvalue to 0: the constructor accepts it, and it reduces."""
    sheared = np.array(
        [
            [-1499999959999999.8 + 1.300000006e16j, -14999999.799999999 + 130000000.3j],
            [-14999999.799999999 + 130000000.3j, -0.15 + 1.3j],
        ]
    )
    assert np.linalg.eigvalsh(sheared.imag)[0] <= 0
    tau = SiegelMatrix(sheared)
    assert tau.min_eigenvalue <= 0
    assert abs(log_delta2(tau) - -11.76808806762008) < 1e-9


@PROPERTY_SETTINGS
@given(st.integers(-(10**40), 10**40), st.integers(1, 10**40))
@example(5, 2)
@example(7, 2)
@example(-5, 2)
@example(-7, 2)
@example(3, 6)
def test_round_half_even_is_round_of_the_fraction(n, d):
    """The integer rounding of `siegel_reduce` is round(Fraction(n, d)),
    ties to even, at exact ties of both signs too."""
    assert _round_half_even(n, d) == round(Fraction(n, d))
    assert _round_half_even(2 * n + d, 2 * d) == round(Fraction(2 * n + d, 2 * d))


def test_siegel_reduce_refuses_a_reduction_beyond_the_float_range():
    """An entry of the reduced tau past the float range is a ValueError.
    The constructor accepts this Y, positive definite with a finite
    inverse; its quasi-inversion sends Y22 to 1.75e308 + 0.25 / 3e-308."""
    tau = SiegelMatrix(np.array([[3e-308j, 0.5], [0.5, 1.75e308j]]))
    with pytest.raises(ValueError, match="float range"):
        siegel_reduce(tau)
