"""Archimedean invariants of a genus-2 surface from its period matrix.

Evaluates genus-2 theta functions with half-integer characteristics by
truncated lattice sums, the normalized discriminant log||Delta_2|| (two
algebraically equal routes, compared numerically), the torus average
log||H|| by seeded quadrature, and from these the invariant chain
delta_F, log S, phi, lambda.

Numerical conventions:

* theta[a,b](z; tau) = sum over n in Z^2 of
      exp(pi i (n+a)' tau (n+a) + 2 pi i (n+a)' (z+b)).
* Sums are computed in a scaled form S = theta * exp(-pi y' Y^-1 y)
  (Y = Im tau, y = Im z) whose terms all have magnitude <= 1; the metric
  norm is then ||theta||(z) = (det Y)^(1/4) |S| with no large exponentials.
* The truncation radius comes from a Gaussian tail bound driven by the
  smallest eigenvalue of Y and is capped at 64.
* log||Delta_2|| and log||H|| are Sp4(Z)-invariant, so both first move
  tau into the Siegel fundamental domain (`siegel_reduce`, the algorithm
  of Deconinck et al., Math. Comp. 2004).  There the smallest eigenvalue
  of Y is at least sqrt(3)/4, the radius stays small and the cap is never
  reached, so any valid period matrix is accepted.  `theta` and
  `theta_norm` are not invariant: they sum at the tau they are given and
  keep the cap.
* log||H|| reduces to the mean of log||theta||(tau u + v) over uniform
  (u, v) in [0,1)^4.  Per batch of points the lattice sum factors into
  two per-sample rows of 1-D Gaussian terms and one fixed matrix,
  A1 C A2'.  Each row is built from two anchor terms (n = 0 and n = -1)
  and their step ratios by the Gaussian second-difference recurrence.
  Only |sum| enters the norm, so each anchor is the real exponential of
  its real part (its modulus, so the float range is kept) times a phase
  derived from one unit phase per row: a sample costs 2 unit phases and
  9 real exponentials at any radius.  On a reduced tau every factor stays
  in floating-point range; a sum that leaves it is an error, never a
  rejected sample.  The spread of 8 substreams gives the standard error.
  Fixed (seed, N, method) give bit-identical results regardless of
  worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateThetaNullError,
    FormulaMismatchError,
    NotPositiveDefiniteError,
    QuadratureUnstableError,
    TruncationOverflowError,
)

DEFAULT_THETA_TOL = 1e-12
DEFAULT_PRODUCT_TOL = 1e-10
DEFAULT_TARGET_STDERR = 1e-3
TRUNCATION_CAP = 64
REDUCTION_CAP = 200
SUBSTREAMS = 8
_CHUNK = 4096  # points per kernel call: a (2r+2) x 4096 complex row block stays cache-sized
LOG_2PI = math.log(2 * math.pi)

HALF = Fraction(1, 2)

# Gottschling's quasi-inversion (A, B; C, D) = (diag(0,1), -diag(1,0);
# diag(1,0), diag(0,1)), which sends tau11 to -1/tau11
_QUASI_INVERSION = np.array(
    [[0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=object
)
_to_int = np.frompyfunc(int, 1, 1)
# a tau with |tau11| = 1 is its own image under the quasi-inversion up to
# rounding; the margin keeps rounding from bouncing it back and forth
_UNIT_MARGIN = 1e-12


class SiegelMatrix:
    """A 2x2 complex symmetric matrix with positive definite imaginary part.

    Input is symmetrized exactly when the asymmetry is below 1e-12 and
    rejected otherwise; non-finite entries are rejected (ValueError);
    NotPositiveDefiniteError if Im tau is not PD.
    """

    def __init__(self, tau):
        m = np.asarray(tau, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"period matrix must be 2x2, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"period matrix entries must be finite, got {m.tolist()}")
        if abs(m[0, 1] - m[1, 0]) > 1e-12:
            raise ValueError(
                f"period matrix is not symmetric: off-diagonals "
                f"{m[0, 1]} vs {m[1, 0]}"
            )
        m = m / 2 + m.T / 2  # halve first: entries near the float limit stay finite
        y = m.imag
        eigs = np.linalg.eigvalsh(y)
        if not eigs[0] > 0:  # NaN too
            raise NotPositiveDefiniteError(
                f"Im tau must be positive definite, eigenvalues {eigs}"
            )
        self._m = m
        self._m.setflags(write=False)
        self.min_eigenvalue = float(eigs[0])

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    @property
    def x_part(self) -> np.ndarray:
        return self._m.real

    @property
    def y_part(self) -> np.ndarray:
        return self._m.imag

    @property
    def det_y(self) -> float:
        y = self._m.imag
        return float(y[0, 0] * y[1, 1] - y[0, 1] * y[1, 0])

    @property
    def y_inverse(self) -> np.ndarray:
        return np.linalg.inv(self._m.imag)

    def __repr__(self) -> str:
        return f"SiegelMatrix({self._m.tolist()!r})"


def _half_pair(pair) -> tuple:
    vals = tuple(Fraction(x) for x in pair)
    if len(vals) != 2 or any(x not in (0, HALF) for x in vals):
        raise ValueError(f"characteristic entries must be 0 or 1/2, got {pair}")
    return vals


@dataclass(frozen=True)
class ThetaChar:
    """A half-integer theta characteristic [a; b], entries in {0, 1/2}."""

    a: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", _half_pair(self.a))
        object.__setattr__(self, "b", _half_pair(self.b))

    @property
    def parity(self) -> int:
        four_ab = 4 * (self.a[0] * self.b[0] + self.a[1] * self.b[1])
        return -1 if int(four_ab) % 2 else 1

    @property
    def is_even(self) -> bool:
        return self.parity == 1

    def __str__(self) -> str:
        def fmt(pair):
            return " ".join("1/2" if x else "0" for x in pair)

        return f"[{fmt(self.a)}; {fmt(self.b)}]"


def all_characteristics() -> tuple[ThetaChar, ...]:
    halves = (Fraction(0), HALF)
    return tuple(
        ThetaChar((a1, a2), (b1, b2))
        for a1 in halves
        for a2 in halves
        for b1 in halves
        for b2 in halves
    )


def even_characteristics() -> tuple[ThetaChar, ...]:
    return tuple(c for c in all_characteristics() if c.is_even)


def odd_characteristics() -> tuple[ThetaChar, ...]:
    return tuple(c for c in all_characteristics() if not c.is_even)


def _truncation_radius(lambda_min: float, tol: float) -> int:
    """Smallest integer radius whose Gaussian tail bound is below tol."""
    for radius in range(1, TRUNCATION_CAP + 1):
        decay = math.pi * lambda_min * radius
        if decay > 700:
            return radius
        q = math.exp(-2 * decay)
        if q >= 1.0:
            break
        tail = (
            8
            * math.exp(-decay * radius)
            * ((radius + 1) / (1 - q) + q / (1 - q) ** 2)
        )
        if tail < tol:
            return radius
    raise TruncationOverflowError(
        f"truncation radius exceeds {TRUNCATION_CAP}: Im tau is nearly "
        f"degenerate (smallest eigenvalue {lambda_min:.3e})"
    )


def _lagrange_basis(y: np.ndarray) -> np.ndarray:
    """U in GL2(Z) such that U y U' satisfies |2 y12| <= y11 <= y22."""
    u = np.eye(2, dtype=int).astype(object)
    for _ in range(REDUCTION_CAP):
        if y[0, 0] > y[1, 1]:
            step = np.array([[0, 1], [1, 0]], dtype=object)
        else:
            q = int(np.rint(y[0, 1] / y[0, 0]))
            if q == 0:
                return u
            step = np.array([[1, 0], [-q, 1]], dtype=object)
        as_float = step.astype(float)
        y = as_float @ y @ as_float.T
        u = step @ u
    raise FormulaMismatchError(
        f"Lagrange reduction of Im tau did not finish in {REDUCTION_CAP} steps"
    )


def _conjugation(u: np.ndarray) -> np.ndarray:
    """The symplectic matrix diag(U, U^-T), acting as tau -> U tau U'."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    inv_t = det * np.array([[u[1, 1], -u[1, 0]], [-u[0, 1], u[0, 0]]], dtype=object)
    return np.block([[u, 0 * u], [0 * u, inv_t]])


def _translation(b: np.ndarray) -> np.ndarray:
    """The symplectic matrix [[I, B], [0, I]], acting as tau -> tau + B."""
    eye = np.eye(2, dtype=int).astype(object)
    return np.block([[eye, _to_int(b)], [0 * eye, eye]])


def siegel_reduce(tau: SiegelMatrix) -> tuple[SiegelMatrix, np.ndarray]:
    """Move tau into the Siegel fundamental domain (Deconinck et al. 2004).

    Returns (tau_red, M): M = [[A, B], [C, D]] is a 4x4 matrix of Python
    integers (object dtype, so no word overflows) with M' J M = J and
    tau_red = (A tau + B)(C tau + D)^-1.  The loop Lagrange-reduces Y,
    subtracts the nearest integer matrix from X and, while |tau11| < 1,
    applies the quasi-inversion.  On return |2 Y12| <= Y11 <= Y22,
    |X_ij| <= 1/2 and |tau11| >= 1, so the smallest eigenvalue of Y is at
    least sqrt(3)/4.  A loop that does not finish within REDUCTION_CAP
    rounds is a bug: FormulaMismatchError.
    """
    t = tau.matrix
    word = np.eye(4, dtype=int).astype(object)
    for _ in range(REDUCTION_CAP):
        u = _lagrange_basis(t.imag)
        as_float = u.astype(float)
        t = as_float @ t @ as_float.T
        shift = np.rint(t.real)
        t = t / 2 + t.T / 2 - shift  # halve first: t + t.T can overflow
        word = _translation(-shift) @ _conjugation(u) @ word
        if abs(t[0, 0]) >= 1 - _UNIT_MARGIN:
            return SiegelMatrix(t), word
        (t11, t12), (_, t22) = t
        t = np.array([[-1, t12], [t12, t11 * t22 - t12 * t12]]) / t11
        word = _QUASI_INVERSION @ word
    raise FormulaMismatchError(
        f"Siegel reduction of {tau!r} did not finish in {REDUCTION_CAP} rounds"
    )


def _theta_scaled(char: ThetaChar, z, tau: SiegelMatrix, tol: float):
    """Return (S, shift) with theta = S * exp(shift), |terms of S| <= 1."""
    z = np.asarray(z, dtype=complex).reshape(2)
    y = z.imag
    yinv = tau.y_inverse
    shift = math.pi * float(y @ yinv @ y)

    radius = _truncation_radius(tau.min_eigenvalue, tol)
    a = np.array([float(char.a[0]), float(char.a[1])])
    b = np.array([float(char.b[0]), float(char.b[1])])
    center = -yinv @ y - a
    n1 = np.arange(math.floor(center[0] - radius), math.ceil(center[0] + radius) + 1)
    n2 = np.arange(math.floor(center[1] - radius), math.ceil(center[1] + radius) + 1)
    g1, g2 = np.meshgrid(n1, n2, indexing="ij")
    m1 = g1.ravel() + a[0]
    m2 = g2.ravel() + a[1]

    xm, ym = tau.x_part, tau.y_part
    w = z.real + b
    with np.errstate(over="ignore"):  # a huge Y entry: exp(-inf) = 0 is the limit
        re_exp = (
            -math.pi
            * (ym[0, 0] * m1 * m1 + 2 * ym[0, 1] * m1 * m2 + ym[1, 1] * m2 * m2)
            - 2 * math.pi * (m1 * y[0] + m2 * y[1])
            - shift
        )
        im_exp = math.pi * (
            xm[0, 0] * m1 * m1 + 2 * xm[0, 1] * m1 * m2 + xm[1, 1] * m2 * m2
        ) + 2 * math.pi * (m1 * w[0] + m2 * w[1])
        s = complex(np.sum(np.exp(re_exp + 1j * im_exp)))
    return s, shift


def theta(char: ThetaChar, z, tau: SiegelMatrix, tol: float = DEFAULT_THETA_TOL) -> complex:
    """theta[a,b](z; tau) by truncated lattice sum, absolute error < tol."""
    s, shift = _theta_scaled(char, z, tau, tol)
    return s * math.exp(shift)


_ZERO_CHAR = ThetaChar((0, 0), (0, 0))


def theta_norm(z, tau: SiegelMatrix, tol: float = DEFAULT_THETA_TOL) -> float:
    """The metric norm ||theta||(z) = (det Y)^(1/4) e^(-pi y'Y^-1 y) |theta(z)|.

    Invariant under translating z by the period lattice; computed from the
    scaled sum so no large exponentials appear.
    """
    s, _shift = _theta_scaled(_ZERO_CHAR, z, tau, tol)
    return tau.det_y**0.25 * abs(s)


def log_delta2(
    tau: SiegelMatrix,
    tol: float = DEFAULT_PRODUCT_TOL,
    null_floor: float = 1e-8,
) -> float:
    """log of the normalized discriminant 2^-12 (det Y)^5 prod |theta[c](0)|^2.

    Sp4(Z)-invariant, so evaluated at siegel_reduce(tau): over the 10 even
    characteristics, cross-checked against the equivalent product of
    ||theta||^2 at the points tau a + b; the two routes must agree within
    10 tol.
    """
    tau, _ = siegel_reduce(tau)
    theta_tol = min(DEFAULT_THETA_TOL, tol * 1e-2)
    log_nulls = 0.0
    for char in even_characteristics():
        s, _ = _theta_scaled(char, (0, 0), tau, theta_tol)
        if abs(s) < null_floor:
            raise DegenerateThetaNullError(
                f"even theta-null {char} vanishes (|theta| = {abs(s):.3e}): "
                f"the surface degenerates to a product of elliptic curves",
                characteristic=char,
            )
        log_nulls += 2 * math.log(abs(s))
    value = -12 * math.log(2) + 5 * math.log(tau.det_y) + log_nulls

    direct = -12 * math.log(2)
    for char in even_characteristics():
        a = np.array([float(char.a[0]), float(char.a[1])])
        b = np.array([float(char.b[0]), float(char.b[1])])
        point = tau.matrix @ a + b
        direct += 2 * math.log(theta_norm(point, tau, theta_tol))
    if abs(value - direct) > 10 * tol:
        raise FormulaMismatchError(
            f"discriminant routes disagree: theta-null product {value!r} vs "
            f"translated-norm product {direct!r}"
        )
    return value


@dataclass(frozen=True)
class QuadratureConfig:
    """Sampling plan for the torus average; deterministic given its fields."""

    n_samples: int = 100_000
    seed: int = 0
    method: str = "monte-carlo"
    target_stderr: float = DEFAULT_TARGET_STDERR

    def __post_init__(self):
        if self.n_samples < 10_000:
            raise ValueError(f"need at least 10^4 samples, got {self.n_samples}")
        if self.method not in ("monte-carlo", "lattice-rule"):
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if not (math.isfinite(self.target_stderr) and self.target_stderr > 0):
            raise ValueError(
                f"target standard error must be positive and finite, got {self.target_stderr!r}"
            )


class QuadratureResult(NamedTuple):
    value: float
    stderr: float
    rejected: int


# fractional parts of sqrt(2), sqrt(3), sqrt(5), sqrt(7): a Kronecker
# direction that equidistributes on the 4-torus
_KRONECKER = np.array([math.sqrt(2) - 1, math.sqrt(3) - 1, math.sqrt(5) - 2, math.sqrt(7) - 2])


def _gaussian_rows(radius: int, t: complex, t12: complex, w: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows exp(f(n) - i Im f(0)) for n = -radius-1 .. radius, one contiguous
    row per n, where per sample f(n) = pi i t (n+u)^2 + 2 pi i c n +
    2 pi i (n+u) v with c = t12 w.

    f has second difference 2 pi i t, so with q = exp(2 pi i t) the ratios
    G_n = exp(f(n+1) - f(n)) obey G_{n+1} = G_n q, and downward
    H_n = exp(f(n-1) - f(n)) obey H_{n-1} = H_n q.  Only the anchors
    exp(f(0)), exp(f(-1)), G_0 and H_{-1} are exponentials; the other
    rows are products, walking up from n = 0 and down from n = -1.  The
    column phase exp(i Im f(0)) drops out of |A1 C A2'|, so each anchor is
    exp(its real part) times a phase from g = exp(i Im(f(1) - f(0))):
    conj(g) e^(2 pi i Re t) for exp(f(-1)), conj(g) e^(4 pi i Re t) for
    H_{-1}.  With Y reduced every ratio has modulus at most one apart from
    the bounded c term; each row carries about 2(radius+1) roundings.
    """
    pi, x, y = math.pi, t.real, t.imag
    lift = 2 * pi * t12.imag * w  # 2 pi Im c
    phase = 2 * pi * (x * u + t12.real * w + v) + pi * x
    up = np.empty(len(u), dtype=complex)
    np.cos(phase, out=up.real)
    np.sin(phase, out=up.imag)
    rows = np.empty((2 * radius + 2, len(u)), dtype=complex)
    mid = radius + 1  # the row of n = 0
    down = np.conjugate(up)
    np.multiply(down, np.exp(2j * pi * x), out=rows[mid - 1])
    down *= np.exp(4j * pi * x)
    rows[mid] = np.exp(-pi * y * u * u)
    np.multiply(rows[mid - 1], np.exp(lift - pi * y * (u - 1) ** 2), out=rows[mid - 1])
    np.multiply(up, np.exp(-pi * y * (2 * u + 1) - lift), out=up)
    np.multiply(down, np.exp(pi * y * (2 * u - 3) + lift), out=down)
    q = np.exp(2j * pi * t)
    for k in range(mid + 1, 2 * radius + 2):
        np.multiply(rows[k - 1], up, out=rows[k])
        up *= q
    for k in range(mid - 2, -1, -1):
        np.multiply(rows[k + 1], down, out=rows[k])
        down *= q
    return rows


def _theta_kernel(tau: SiegelMatrix, tol: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The batch function (u, v) -> log||theta||(tau u + v) for (B, 2) arrays.

    Up to a factor of modulus one the scaled sum is the sum over m = n + u of
    exp(pi i m' tau m + 2 pi i m' v).  Splitting m1 m2 = n1 n2 + n1 u2 +
    u1 n2 + u1 u2 factors it as colsum(C A1 * A2) exp(2 pi i tau12 u1 u2)
    with per-sample columns
        A1[n1, b] = exp(pi i tau11 m1^2 + 2 pi i tau12 n1 u2 + 2 pi i m1 v1)
    (A2 likewise) and the symmetric C[n1, n2] = exp(2 pi i tau12 n1 n2),
    computed here once per tau.  Only |s| enters the norm, so per-sample
    unit factors are dropped: A1 and A2 come from `_gaussian_rows`, one unit
    phase and four real exponentials per sample each, whatever the radius,
    and the u1 u2 term is kept as its modulus exp(-2 pi Y12 u1 u2).  Each
    factor stays in floating-point range when Y is reduced; a sum that
    leaves it raises QuadratureUnstableError.  Returns NaN where ||theta||
    is below machine epsilon (points straddling the theta divisor);
    callers count those as rejected.
    """
    radius = _truncation_radius(tau.min_eigenvalue, tol)
    n = np.arange(-radius - 1, radius + 1, dtype=float)
    (t11, t12), (_, t22) = tau.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.exp(2j * math.pi * t12 * np.outer(n, n))

    def log_norms(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        (u1, u2), (v1, v2) = u.T, v.T  # contiguous rows when log_h passes its layout
        with np.errstate(over="ignore", invalid="ignore"):
            a1 = _gaussian_rows(radius, t11, t12, u2, u1, v1)
            a2 = _gaussian_rows(radius, t22, t12, u1, u2, v2)
            s = np.abs(((c @ a1) * a2).sum(axis=0)) * np.exp(-2 * math.pi * t12.imag * u1 * u2)
        if not np.all(np.isfinite(s)):
            raise QuadratureUnstableError(
                f"theta lattice sum overflowed at {tau!r} (radius {radius})"
            )
        norms = tau.det_y**0.25 * s
        with np.errstate(divide="ignore"):
            return np.where(norms < np.finfo(float).eps, np.nan, np.log(norms))

    return log_norms


def _substream_points(method: str, child_seed, count: int) -> np.ndarray:
    """One substream's points as contiguous rows (u1, u2, v1, v2)."""
    rng = np.random.default_rng(child_seed)
    if method == "monte-carlo":
        return np.ascontiguousarray(rng.random((count, 4)).T)
    steps = np.arange(1, count + 1, dtype=float)
    return np.mod(rng.random(4)[:, None] + _KRONECKER[:, None] * steps, 1.0)


def log_h(
    tau: SiegelMatrix,
    config: QuadratureConfig | None = None,
    tol: float = DEFAULT_THETA_TOL,
    workers: int = 1,
    _integrand: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> QuadratureResult:
    """The mean of log||theta||(tau u + v) over the unit 4-torus.

    Sp4(Z)-invariant, so evaluated at siegel_reduce(tau).  Splits the
    budget into 8 substreams, which differ by at most one point and
    together hold exactly n_samples; the estimate is the mean of substream
    means and the standard error their sample spread.  The _integrand hook
    substitutes a different function of (u, v) batches and exists for
    self-tests of the quadrature layer.
    """
    config = config or QuadratureConfig()
    tau, _ = siegel_reduce(tau)
    integrand = _integrand or _theta_kernel(tau, tol)
    per_stream, extra = divmod(config.n_samples, SUBSTREAMS)
    children = np.random.SeedSequence(config.seed).spawn(SUBSTREAMS)

    def run_substream(index: int) -> tuple[float, int, int]:
        count = per_stream + (index < extra)
        coords = _substream_points(config.method, children[index], count)
        total = 0.0
        kept = 0
        rejected = 0
        for start in range(0, count, _CHUNK):
            block = coords[:, start : start + _CHUNK]
            vals = integrand(block[:2].T, block[2:].T)
            bad = int(np.count_nonzero(np.isnan(vals)))
            rejected += bad
            kept += len(vals) - bad
            total += float(np.nansum(vals))
        mean = total / kept if kept else math.nan
        return mean, kept, rejected

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_substream, range(SUBSTREAMS)))
    else:
        results = [run_substream(j) for j in range(SUBSTREAMS)]

    means = np.array([r[0] for r in results])
    rejected = sum(r[2] for r in results)
    if not np.all(np.isfinite(means)):
        raise QuadratureUnstableError(
            "a quadrature substream lost every sample to the theta divisor"
        )
    value = float(np.mean(means))
    stderr = float(np.std(means, ddof=1) / math.sqrt(SUBSTREAMS))
    if stderr > 10 * config.target_stderr:
        raise QuadratureUnstableError(
            f"standard error {stderr:.3e} exceeds 10x target "
            f"{config.target_stderr:.3e} after {config.n_samples} samples"
        )
    return QuadratureResult(value, stderr, rejected)


@dataclass(frozen=True)
class ArchReport:
    """The archimedean invariant chain at one period matrix.

    `residual` compares two algebraically identical recombinations of
    lambda (see `arch_invariants`), so it measures floating-point rounding
    only; it is no margin on the accuracy of any field.
    """

    log_delta2: float
    log_h: float
    log_h_stderr: float
    delta_f: float
    log_s: float
    phi: float
    phi_stderr: float
    lambda_: float
    residual: float
    rejected: int


def arch_invariants(
    tau: SiegelMatrix,
    config: QuadratureConfig | None = None,
    tol: float = DEFAULT_PRODUCT_TOL,
    workers: int = 1,
) -> ArchReport:
    """Full archimedean chain: discriminant, torus average, and the
    derived invariants, with the internal consistency residual.

    lambda is reported through its direct discriminant formula; the
    residual compares it against the recombination through phi and
    delta_F, which is algebraically the same number, so the residual
    measures accumulated floating-point error only.
    """
    ld2 = log_delta2(tau, tol)
    lh, lh_stderr, rejected = log_h(tau, config, min(DEFAULT_THETA_TOL, tol), workers)

    phi = -0.5 * ld2 + 10 * lh
    delta_f = -16 * LOG_2PI - ld2 - 4 * lh
    log_s = -16 * LOG_2PI - 1.25 * ld2 - delta_f
    lam_direct = (-20 * LOG_2PI - ld2) / 10
    lam_recombined = phi / 30 + delta_f / 12 - (2 / 3) * LOG_2PI
    residual = abs(10 * lam_recombined - (-20 * LOG_2PI - ld2))

    return ArchReport(
        log_delta2=ld2,
        log_h=lh,
        log_h_stderr=lh_stderr,
        delta_f=delta_f,
        log_s=log_s,
        phi=phi,
        phi_stderr=10 * lh_stderr,
        lambda_=lam_direct,
        residual=residual,
        rejected=rejected,
    )
