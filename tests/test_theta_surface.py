"""Tests for theta evaluation and the archimedean invariant chain.

Oracles: a high-precision mpmath double sum (independent of the package's
truncation and scaling logic), the closed form theta(0; iI) =
(pi^(1/4)/Gamma(3/4))^2, and mpmath's genus-1 jtheta for diagonal period
matrices.  The quadrature layer is validated on integrands with known
means before being trusted on the theta integrand.
"""

import itertools
import math
import random
import warnings

import mpmath
import numpy as np
import pytest

from g2inv.errors import (
    DegenerateThetaNullError,
    NotPositiveDefiniteError,
    QuadratureUnstableError,
    TruncationOverflowError,
)
from g2inv.theta_surface import (
    DEFAULT_THETA_TOL,
    ArchReport,
    QuadratureConfig,
    SiegelMatrix,
    ThetaChar,
    all_characteristics,
    arch_invariants,
    even_characteristics,
    log_delta2,
    log_h,
    _theta_kernel,
    odd_characteristics,
    siegel_reduce,
    theta,
    theta_norm,
)

LOG_2PI = math.log(2 * math.pi)


def brute_theta(char: ThetaChar, z, tau: SiegelMatrix, box: int = 12) -> complex:
    """Reference double sum at 40 digits, no scaling or truncation logic."""
    with mpmath.workdps(40):
        sa = tuple(mpmath.mpf(x.numerator) / x.denominator for x in char.a)
        sb = tuple(mpmath.mpf(x.numerator) / x.denominator for x in char.b)
        t = [[mpmath.mpc(tau.matrix[i, j]) for j in range(2)] for i in range(2)]
        zz = [mpmath.mpc(z[0]), mpmath.mpc(z[1])]
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
                lin = m0 * (zz[0] + sb[0]) + m1 * (zz[1] + sb[1])
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


def reference_log_h(t: np.ndarray, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo mean of log||theta||(t u + v) and its standard error from
    `lattice_sum_norms`, in blocks of 500 points."""
    norms = lattice_sum_norms(t)
    points = np.random.default_rng(seed).random((samples, 4))
    blocks = np.array_split(points, max(1, samples // 500))
    vals = np.concatenate([np.log(norms(b[:, :2], b[:, 2:])) for b in blocks])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


J4 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]).astype(int)


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


def random_tau(rng: random.Random) -> SiegelMatrix:
    """A random period matrix with Im part comfortably positive definite."""
    x01 = rng.uniform(-0.5, 0.5)
    x = np.array([[rng.uniform(-0.5, 0.5), x01], [x01, rng.uniform(-0.5, 0.5)]])
    a = np.array([[rng.uniform(-0.8, 0.8) for _ in range(2)] for _ in range(2)])
    y = a @ a.T + 0.5 * np.eye(2)
    return SiegelMatrix(x + 1j * y)


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
    chars = all_characteristics()
    assert len(chars) == 16
    assert len(even_characteristics()) == 10
    assert len(odd_characteristics()) == 6
    for c in chars:
        four_ab = 4 * (c.a[0] * c.b[0] + c.a[1] * c.b[1])
        assert four_ab.denominator == 1
        assert c.parity == (-1) ** int(four_ab)


def test_characteristic_validation():
    with pytest.raises(ValueError):
        ThetaChar((0, 1), (0, 0))
    with pytest.raises(ValueError):
        ThetaChar((0, 0), (0.25, 0))
    c = ThetaChar((0.5, 0), (0, 0.5))
    assert str(c) == "[1/2 0; 0 1/2]"


def test_siegel_matrix_validation():
    with pytest.raises(ValueError):
        SiegelMatrix(np.array([[1j, 0.5], [0.2, 1j]]))
    with pytest.raises(NotPositiveDefiniteError):
        SiegelMatrix(np.array([[1j, 0], [0, -1j]]))
    with pytest.raises(NotPositiveDefiniteError):
        SiegelMatrix(np.array([[1j, 2j], [2j, 1j]]))
    # asymmetry below the 1e-12 gate is symmetrized away
    m = SiegelMatrix(np.array([[1j, 0.3 + 1e-13], [0.3, 1j]]))
    assert m.matrix[0, 1] == m.matrix[1, 0]


def test_theta_null_closed_form():
    value = theta(ThetaChar((0, 0), (0, 0)), (0, 0), IDENTITY_TAU)
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
        for (a, b), want in expected.items():
            got = theta(ThetaChar(a, b), (0, 0), tau)
            assert abs(got - complex(want)) < 1e-12


def test_theta_matches_brute_force(rng):
    cases = [
        (ThetaChar((0, 0), (0, 0)), (0.3 + 0.2j, -0.1 + 0.4j), GENERIC_TAU),
        (ThetaChar((0.5, 0), (0, 0.5)), (0.1 - 0.3j, 0.25 + 0.1j), GENERIC_TAU),
        (ThetaChar((0.5, 0.5), (0.5, 0.5)), (-0.2 + 0.1j, 0.4 - 0.2j), GENERIC_TAU),
    ]
    for _ in range(3):
        tau = random_tau(rng)
        z = (
            complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
            complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
        )
        chars = all_characteristics()
        cases.append((chars[rng.randrange(16)], z, tau))
    for char, z, tau in cases:
        got = theta(char, z, tau)
        want = brute_theta(char, z, tau)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_odd_nulls_vanish(rng):
    taus = [IDENTITY_TAU, GENERIC_TAU] + [random_tau(rng) for _ in range(3)]
    for tau in taus:
        for char in odd_characteristics():
            assert abs(theta(char, (0, 0), tau)) < 1e-10


def test_quasi_periodicity(rng):
    # theta(z + tau m + k) = exp(-pi i m' tau m - 2 pi i m' z) theta(z)
    char = ThetaChar((0, 0), (0, 0))
    checked = 0
    while checked < 100:
        tau = random_tau(rng)
        t = tau.matrix
        for _ in range(10):
            z = np.array(
                [
                    complex(rng.uniform(-1, 1), rng.uniform(-0.6, 0.6)),
                    complex(rng.uniform(-1, 1), rng.uniform(-0.6, 0.6)),
                ]
            )
            m = np.array([rng.randint(-2, 2), rng.randint(-2, 2)], dtype=float)
            k = np.array([rng.randint(-2, 2), rng.randint(-2, 2)], dtype=float)
            base = theta(char, z, tau)
            if abs(base) < 1e-6:
                continue
            shifted = theta(char, z + t @ m + k, tau)
            factor = np.exp(-1j * math.pi * (m @ t @ m) - 2j * math.pi * (m @ z))
            assert abs(shifted / (factor * base) - 1) < 1e-10
            checked += 1


def test_theta_norm_is_lattice_invariant(rng):
    for _ in range(5):
        tau = random_tau(rng)
        t = tau.matrix
        z = np.array(
            [
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            ]
        )
        m = np.array([rng.randint(-3, 3), rng.randint(-3, 3)], dtype=float)
        k = np.array([rng.randint(-3, 3), rng.randint(-3, 3)], dtype=float)
        base = theta_norm(z, tau)
        shifted = theta_norm(z + t @ m + k, tau)
        assert abs(shifted - base) < 1e-10 * max(1.0, base)


def test_truncation_overflow_on_degenerate_imaginary_part():
    squashed = SiegelMatrix(np.array([[1e-6j, 0], [0, 1j]]))
    with pytest.raises(TruncationOverflowError):
        theta(ThetaChar((0, 0), (0, 0)), (0, 0), squashed)


def test_truncation_tolerance_consistency():
    # loosening the tolerance must not move the value by more than it claims
    char = ThetaChar((0.5, 0), (0, 0))
    loose = theta(char, (0.1, 0.2), GENERIC_TAU, tol=1e-8)
    tight = theta(char, (0.1, 0.2), GENERIC_TAU, tol=1e-14)
    assert abs(loose - tight) < 1e-8


def test_log_delta2_against_brute_force():
    tau = GENERIC_TAU
    with mpmath.workdps(40):
        total = -12 * mpmath.log(2) + 5 * mpmath.log(tau.det_y)
        for char in even_characteristics():
            total += 2 * mpmath.log(abs(brute_theta(char, (0, 0), tau)))
    assert abs(log_delta2(tau) - float(total)) < 1e-9


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


def test_log_delta2_degenerate_null():
    with pytest.raises(DegenerateThetaNullError) as info:
        log_delta2(IDENTITY_TAU)
    char = info.value.characteristic
    assert char == ThetaChar((0.5, 0.5), (0.5, 0.5))
    assert "1/2" in str(info.value)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(n_samples=5000)
    with pytest.raises(ValueError):
        QuadratureConfig(method="sobol")
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            QuadratureConfig(target_stderr=bad)


def test_log_h_constant_integrand_self_test():
    config = QuadratureConfig(n_samples=16000, seed=7)
    result = log_h(GENERIC_TAU, config, _integrand=lambda u, v: np.ones(len(u)))
    assert result.value == 1.0
    assert result.stderr == 0.0
    assert result.rejected == 0


def test_log_h_known_mean_integrand():
    config = QuadratureConfig(n_samples=40000, seed=11)
    result = log_h(
        GENERIC_TAU, config, _integrand=lambda u, v: u[:, 0] + v[:, 1]
    )
    assert result.stderr > 0
    assert abs(result.value - 1.0) < 6 * result.stderr + 1e-12
    lattice = log_h(
        GENERIC_TAU,
        QuadratureConfig(n_samples=40000, seed=11, method="lattice-rule"),
        _integrand=lambda u, v: u[:, 0] + v[:, 1],
    )
    assert abs(lattice.value - 1.0) < 1e-3


@pytest.mark.parametrize("method", ["monte-carlo", "lattice-rule"])
@pytest.mark.parametrize("n_samples", [10000, 10007, 8 * 4096 + 5])
def test_log_h_sums_exactly_n_samples(method, n_samples):
    seen = []

    def count(u, v):
        seen.append(len(u))
        return np.ones(len(u))

    log_h(GENERIC_TAU, QuadratureConfig(n_samples=n_samples, seed=2, method=method), _integrand=count)
    assert sum(seen) == n_samples


@pytest.mark.parametrize("method", ["monte-carlo", "lattice-rule"])
def test_log_h_kernel_matches_lattice_sum_through_quadrature(method):
    """The factored kernel inside `log_h` against the unfactored lattice
    sum passed through the `_integrand` hook, with substreams that span
    several chunks and end in a partial one: the point layout, chunking
    and NaN accounting must give the same value and the same rejections.
    The stretched tau loses about a quarter of its points to the eps
    floor."""
    eps = np.finfo(float).eps
    for tau in (siegel_reduce(GENERIC_TAU)[0], _stretched_tau(56)):
        norms = lattice_sum_norms(tau.matrix)

        def ref(u, v):
            values = norms(u, v)
            with np.errstate(divide="ignore"):
                return np.where(values < eps, np.nan, np.log(values))

        config = QuadratureConfig(n_samples=40005, seed=4, method=method, target_stderr=10)
        got = log_h(tau, config)
        want = log_h(tau, config, _integrand=ref)
        assert abs(got.value - want.value) < 1e-10
        assert got.rejected == want.rejected


def test_kernel_matches_pointwise_theta_norm(rng):
    """The torus-average kernel against `theta_norm`, whose meshgrid sum
    shares none of its factoring or recurrence, point by point: an error
    of 1e-6 per point hides inside the Monte Carlo spread but not here."""
    taus = [siegel_reduce(random_tau(rng))[0] for _ in range(20)]
    taus.append(SiegelMatrix(np.array([[0.1 + 1.2j, 0.3 + 0.4j], [0.3 + 0.4j, -0.2 + 300j]])))
    taus.append(_stretched_tau(64))  # the moduli span their widest kept range
    edges = (0.0, 0.5, 1 - 1e-9)
    for index, tau in enumerate(taus):
        points = np.random.default_rng(index).random((256, 4))
        points[:9, :2] = list(itertools.product(edges, edges))
        u, v = points[:, :2], points[:, 2:]
        got = _theta_kernel(tau, DEFAULT_THETA_TOL)(u, v)
        norms = np.array([theta_norm(tau.matrix @ a + b, tau) for a, b in zip(u, v)])
        with np.errstate(divide="ignore"):
            want = np.where(norms < np.finfo(float).eps, np.nan, np.log(norms))
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want)) < 1e-10


def _stretched_tau(scale: float) -> SiegelMatrix:
    return SiegelMatrix(0.05 + 1j * scale * np.array([[1, 0.48], [0.48, 1.1]]))


def test_log_h_float_range_is_kept_and_refused_cleanly():
    """A reduced tau this stretched is refused by `log_delta2` long before;
    a direct `log_h` keeps the range it had and past it raises
    QuadratureUnstableError without a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in ("monte-carlo", "lattice-rule"):
            config = QuadratureConfig(n_samples=20000, seed=0, method=method, target_stderr=10)
            assert math.isfinite(log_h(_stretched_tau(64), config).value)
            with pytest.raises(QuadratureUnstableError):
                log_h(_stretched_tau(100), config)


def test_log_h_reproducible_across_workers():
    config = QuadratureConfig(n_samples=20000, seed=42)
    one = log_h(GENERIC_TAU, config, workers=1)
    again = log_h(GENERIC_TAU, config, workers=1)
    threaded = log_h(GENERIC_TAU, config, workers=4)
    assert one == again
    assert one == threaded


def test_log_h_methods_agree():
    mc = log_h(GENERIC_TAU, QuadratureConfig(n_samples=40000, seed=3))
    qmc = log_h(
        GENERIC_TAU,
        QuadratureConfig(n_samples=40000, seed=3, method="lattice-rule"),
    )
    assert abs(mc.value - qmc.value) < 6 * (mc.stderr + qmc.stderr) + 1e-3


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
        reduced, word = siegel_reduce(SiegelMatrix(image))
        t = reduced.matrix
        x, y = t.real, t.imag
        assert abs(2 * y[0, 1]) <= y[0, 0] * (1 + 1e-12)
        assert y[0, 0] <= y[1, 1] * (1 + 1e-12)
        assert np.all(np.abs(x) <= 0.5 + 1e-12)
        assert abs(t[0, 0]) >= 1 - 1e-12
        assert reduced.min_eigenvalue >= math.sqrt(3) / 4 - 1e-12
        assert all(isinstance(x, int) for x in word.flat)
        assert np.array_equal(word.T @ J4 @ word, J4)
        assert np.max(np.abs(act(word, image) - t)) < 1e-9


def test_siegel_reduce_keeps_a_reduced_tau():
    tau = SiegelMatrix(np.array([[0.12 + 1.1j, 0.21 + 0.33j], [0.21 + 0.33j, -0.17 + 1.3j]]))
    reduced, word = siegel_reduce(tau)
    assert np.array_equal(word, np.eye(4))
    assert np.array_equal(reduced.matrix, tau.matrix)


def _unreduced_images(rng, count):
    """(preimage, image) pairs under random words of length 3 to 5 whose
    image is cheap enough for the brute-force sums (lambda_min >= 0.1)."""
    pairs = []
    while len(pairs) < count:
        tau = random_tau(rng)
        image = SiegelMatrix(act(random_word(rng, rng.randint(3, 5)), tau.matrix))
        reduced, _ = siegel_reduce(image)
        if image.min_eigenvalue >= 0.1 and not np.allclose(reduced.matrix, image.matrix):
            pairs.append((tau, image))
    return pairs


def test_log_delta2_invariant_under_random_words(rng):
    for _, image in _unreduced_images(rng, 3):
        lam = image.min_eigenvalue
        box = math.ceil(math.sqrt(35 / (math.pi * lam))) + 2
        with mpmath.workdps(40):
            total = -12 * mpmath.log(2) + 5 * mpmath.log(image.det_y)
            for char in even_characteristics():
                total += 2 * mpmath.log(abs(brute_theta(char, (0, 0), image, box)))
        assert abs(log_delta2(image) - float(total)) < 1e-9


def test_log_h_and_phi_invariant_under_random_words(rng):
    config = QuadratureConfig(n_samples=40000, seed=17)
    for index, (tau, image) in enumerate(_unreduced_images(rng, 3)):
        report = arch_invariants(image, config)
        ref_h, ref_err = reference_log_h(image.matrix, 8000, seed=index)
        ref_phi = -0.5 * log_delta2(tau) + 10 * ref_h
        assert abs(report.log_h - ref_h) < 10 * math.hypot(report.log_h_stderr, ref_err)
        assert abs(report.phi - ref_phi) < 10 * math.hypot(report.phi_stderr, 10 * ref_err)


def test_siegel_reduce_word_past_int64():
    """An integer step beyond the int64 range stays exact: the word holds
    Python integers."""
    skewed = SiegelMatrix(np.array([[1e-20j, 0.099j], [0.099j, 1e20j]]))
    reduced, word = siegel_reduce(skewed)
    assert max(abs(x) for x in word.flat) > 2**63
    assert np.array_equal(word.T @ J4 @ word, J4)
    y = reduced.y_part
    assert abs(2 * y[0, 1]) <= y[0, 0] <= y[1, 1]
