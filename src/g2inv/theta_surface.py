"""Archimedean invariants of a genus-2 surface from its period matrix.

Sums genus-2 theta functions with half-integer characteristics by
truncated lattice sums where `arch` needs them: the ten even theta-nulls
of the normalized discriminant log||Delta_2|| (two algebraically equal
routes through two summation codes, the stacked null sum and the
torus-average kernel, compared numerically) and the torus average
log||H|| by seeded quadrature; from these the invariant chain delta_F,
log S, phi, lambda.

Numerical conventions:

* theta[a,b](0; tau) = sum over n in Z^2 of
      exp(pi i (n+a)' tau (n+a) + 2 pi i (n+a)' b),
  and the metric norm is ||theta||(z) = (det Y)^(1/4) e^(-pi y' Y^-1 y)
  |theta(z)| (Y = Im tau, y = Im z), so ||theta||(tau a + b) =
  (det Y)^(1/4) |theta[a,b](0)|.
* The truncation radius comes from a Gaussian tail bound driven by the
  smallest eigenvalue of Y; the ten even theta-nulls of log||Delta_2||
  are one stacked lattice sum.
* log||Delta_2|| and log||H|| are Sp4(Z)-invariant, so both first move
  tau into the Siegel fundamental domain (`siegel_reduce`, the algorithm
  of Deconinck et al., Math. Comp. 2004, whose Lagrange step applies an
  integer-valued float U, exact below 2^53) and read only the reduced
  tau, not the symplectic word that reaches it.  There the smallest eigenvalue
  of Y is at least sqrt(3)/4, so at the fixed tail tolerance
  DEFAULT_THETA_TOL the radius is at most 5 and needs no cap: any valid
  period matrix is accepted, and `arch_invariants` reduces once for both.
* log||H|| reduces to the mean of log||theta||(tau u + v) over uniform
  (u, v) in [0,1)^4, sampled in cosets: a base point in [0,1/2)^4 and its
  16 half-period translates (u + a, v + b), a, b in {0,1/2}^2, where theta
  turns into theta[a;b] (Mumford, Tata Lectures I, ch. II 1), so a coset
  is uniform on the torus.  Per batch of base points the lattice sum over
  the box n in [-r, r-1]^2, m = n + u + a, which the tail bound covers at
  any shift in [0,1)^2 (`_truncation_radius`), factors into two
  per-sample rows of 1-D terms, built at the two shifts u_i and u_i + 1/2
  of each axis once for all 16 translates, and one fixed stack of the
  matrices C'_ab, which hold the Gaussian factors and the sign of b: one
  batched matmul gives all 16 sums.
  Each row walks from two anchor terms (n = 0 and n = -1) by their step
  ratios, one multiply per row.
  Only |sum| enters the norm, so each anchor is the real exponential of
  its real part (its modulus, so the float range is kept) times a phase
  derived from one unit phase per row.  The unit phase is linear in the
  shift, so one complex np.exp per axis gives it at both shifts (the
  shift 1/2 turns it by the constant exp(pi i Re tau_jj)), and the four
  anchor exponents of a row take one real np.exp call: a base point
  costs 2 complex and 20 real exponentials at any radius, for 16
  evaluations.  On a reduced tau every factor stays in
  floating-point range; a sum that leaves it is an error, never a
  rejected sample.  The mean subtracts a control variate, the
  piecewise quadratic -pi s'Ys (s = u minus its nearest integer point,
  so the log of the largest lattice term), whose exact mean is known, and
  the spread of 8 substreams gives the standard error.
  Fixed (seed, N, method) give bit-identical results regardless of
  worker count.
"""

from __future__ import annotations

import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import DegenerateThetaNullError, FormulaMismatchError, QuadratureUnstableError

DEFAULT_THETA_TOL = 1e-12  # the Gaussian tail bound at which both lattice sums truncate
# `log_delta2`'s two routes must agree within 10x this.  Rounding alone
# separates them, at most 9.5e-16 |log||Delta_2||| over 3000 random reduced
# taus, so the bound holds while |log||Delta_2||| stays below about 1e6
DEFAULT_PRODUCT_TOL = 1e-10
DEFAULT_TARGET_STDERR = 1e-3
NULL_FLOOR = 1e-8  # an even theta-null below this in modulus counts as vanishing
# the least lambda_min `_truncation_radius` takes (radius 345 at tol 1e-12);
# the sums pass the reduced tau's, sqrt(3)/4 or more
LAMBDA_FLOOR = 1e-4
REDUCTION_CAP = 200
SUBSTREAMS = 8
_CHUNK = 1024  # base points per kernel call, 16384 evaluations: the 16r x 1024 block stays cache-sized
LOG_2PI = math.log(2 * math.pi)

# a tau with |tau11| = 1 is its own image under the quasi-inversion up to
# rounding; the margin keeps rounding from bouncing it back and forth
_UNIT_MARGIN = 1e-12


class SiegelMatrix:
    """A 2x2 complex symmetric matrix with positive definite imaginary part.

    Input is symmetrized exactly when the asymmetry is below 1e-12 and
    rejected otherwise; non-finite entries, an Im tau that is not positive
    definite and one whose inverse is not finite (subnormal entries) are
    rejected too, each as ValueError.  The matrix is fixed at construction
    and read-only.
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
            raise ValueError(f"Im tau must be positive definite, eigenvalues {eigs}")
        self._m = m
        self._m.setflags(write=False)
        if not np.all(np.isfinite(np.linalg.inv(y))):  # a subnormal Im tau
            raise ValueError(f"Im tau is too small to invert in floating point: {y.tolist()}")
        self.min_eigenvalue = float(eigs[0])
        self._reduced = False  # set by siegel_reduce on the matrices it returns

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    @property
    def det_y(self) -> float:
        y = self._m.imag
        return float(y[0, 0] * y[1, 1] - y[0, 1] * y[1, 0])

    def __repr__(self) -> str:
        return f"SiegelMatrix({self._m.tolist()!r})"


# the 16 half periods (a1, a2, b1, b2) in {0, 1/2}^4 in the order of
# itertools.product: the order in which the kernel returns the translates
# tau (u + a) + (v + b) of a base point, and of the characteristics [a; b]
_HALVES = np.array(list(itertools.product((0.0, 0.5), repeat=4)))
_HALVES.setflags(write=False)
# the ten even ones, 4 a'b even, as (10, 2) arrays a and b
_EVEN = (_HALVES[:, 0] * _HALVES[:, 2] + _HALVES[:, 1] * _HALVES[:, 3]) * 4 % 2 == 0
_EVEN_A = _HALVES[_EVEN, :2]
_EVEN_B = _HALVES[_EVEN, 2:]
_HALF_SHIFTS = np.array([[0.0], [0.5]])  # a_i = 0 and 1/2 as a column


def _truncation_radius(lambda_min: float, tol: float) -> int:
    """Smallest integer radius r whose Gaussian tail bound is below tol.  The
    sums call it at DEFAULT_THETA_TOL on a reduced tau, lambda_min >=
    sqrt(3)/4, where it is at most 5.

    The bound covers the kernel's box n in [-r, r-1]^2 at any shift u in
    [0,1)^2 (`_theta_kernel` sums m = n + u).  An omitted m has |m|_inf >=
    r: n_i >= r gives m_i >= r, n_i <= -r-1 gives m_i < -r.  Its term has
    modulus exp(-pi m'Ym) <= exp(-pi lambda_min |m|_inf^2).  At most 8k+4
    <= 8(k+1) points of u + Z^2 have k <= |m|_inf < k+1: per axis a_i <=
    2k+2 points have |m_i| < k+1 and b_i >= a_i - 2 have |m_i| < k, so
    a_1 a_2 - b_1 b_2 <= 8k+4.  Summed over k >= r, with
    exp(-pi lambda k^2) <= exp(-pi lambda r^2) q^(k-r), q = exp(-2 pi
    lambda r), the omitted mass is at most
        8 exp(-pi lambda r^2) ((r+1)/(1-q) + q/(1-q)^2),
    the tail below: its r+1 already pays for the shift.  The null sum
    (`_theta_scaled`) keeps every m with |m|_inf <= r, so the bound covers
    it too.

    Once pi lambda_min radius passes 700 the bound is below 1.6e-303, so
    any tol from 1e-300 up ends the loop there at the latest.  A
    lambda_min below LAMBDA_FLOOR, or NaN, is refused (ValueError): the
    loop's length grows as 1/sqrt(lambda_min), past 1e9 steps at 1e-17,
    and a NaN never ends it."""
    if not lambda_min >= LAMBDA_FLOOR:
        raise ValueError(f"lambda_min {lambda_min!r} is too small: below {LAMBDA_FLOOR}")
    for radius in itertools.count(1):
        decay = math.pi * lambda_min * radius
        q = math.exp(-2 * decay)
        tail = (
            8
            * math.exp(-decay * radius)
            * ((radius + 1) / (1 - q) + q / (1 - q) ** 2)
        )
        if tail < tol:
            return radius


def _lagrange_basis(y: np.ndarray) -> np.ndarray:
    """U in GL2(Z) such that U y U' satisfies |2 y12| <= y11 <= y22, as an
    integer-valued float matrix: exact while its entries stay below 2^53."""
    u = np.eye(2)
    for _ in range(REDUCTION_CAP):
        if y[0, 0] > y[1, 1]:
            step = np.array([[0.0, 1.0], [1.0, 0.0]])
        else:
            q = np.rint(y[0, 1] / y[0, 0])
            if q == 0:
                return u
            step = np.array([[1.0, 0.0], [-q, 1.0]])
        y = step @ y @ step.T
        u = step @ u
    raise FormulaMismatchError(
        f"Lagrange reduction of Im tau did not finish in {REDUCTION_CAP} steps"
    )


def siegel_reduce(tau: SiegelMatrix) -> SiegelMatrix:
    """Move tau into the Siegel fundamental domain (Deconinck et al. 2004).

    Returns the reduced matrix alone: its callers need only Sp4(Z)-invariant
    values, so the symplectic word that reaches it is not formed.  The loop
    Lagrange-reduces Y by an integer-valued float U, exact below 2^53
    (`_lagrange_basis`), subtracts the nearest integer matrix from X and,
    while |tau11| < 1, applies Gottschling's quasi-inversion, which sends
    tau11 to -1/tau11.  On return |2 Y12| <= Y11 <= Y22, |X_ij| <= 1/2 and
    |tau11| >= 1, so the smallest eigenvalue of Y is at least sqrt(3)/4.  A
    loop that does not finish within REDUCTION_CAP rounds is a bug:
    FormulaMismatchError.  Its own result comes back at once, as a re-run
    of the loop would give it.
    """
    if tau._reduced:
        return tau
    t = tau.matrix
    for _ in range(REDUCTION_CAP):
        u = _lagrange_basis(t.imag)
        t = u @ t @ u.T
        t = t / 2 + t.T / 2 - np.rint(t.real)  # halve first: t + t.T can overflow
        if abs(t[0, 0]) >= 1 - _UNIT_MARGIN:
            reduced = SiegelMatrix(t)
            reduced._reduced = True
            return reduced
        (t11, t12), (_, t22) = t
        # t11 t22 - t12^2 would underflow from entries near 1e-160 on;
        # dividing first keeps the digits of tiny entries
        ratio = t12 / t11
        t = np.array([[-1 / t11, ratio], [ratio, t22 - t12 * ratio]])
    raise FormulaMismatchError(
        f"Siegel reduction of {tau!r} did not finish in {REDUCTION_CAP} rounds"
    )


def _theta_scaled(char, tau: SiegelMatrix, radius: int):
    """The theta-nulls theta[a,b](0; tau), summing over the box of the
    given truncation radius; every term has modulus <= 1.  char = (a, b)
    is one characteristic, or a stack of k as (k, 2) arrays: then one sum
    over the union of their boxes gives the k values."""
    a, b = (np.asarray(x, dtype=float) for x in char)
    centers = -a.reshape(-1, 2)
    low, high = centers.min(axis=0) - radius, centers.max(axis=0) + radius
    n1 = np.arange(math.floor(low[0]), math.ceil(high[0]) + 1)
    n2 = np.arange(math.floor(low[1]), math.ceil(high[1]) + 1)
    g1, g2 = np.meshgrid(n1, n2, indexing="ij")
    m1 = g1.ravel() + a[..., :1]
    m2 = g2.ravel() + a[..., 1:]

    xm, ym = tau.matrix.real, tau.matrix.imag
    with np.errstate(over="ignore"):  # a huge Y entry: exp(-inf) = 0 is the limit
        re_exp = -math.pi * (ym[0, 0] * m1 * m1 + 2 * ym[0, 1] * m1 * m2 + ym[1, 1] * m2 * m2)
        im_exp = math.pi * (
            xm[0, 0] * m1 * m1 + 2 * xm[0, 1] * m1 * m2 + xm[1, 1] * m2 * m2
        ) + 2 * math.pi * (m1 * b[..., :1] + m2 * b[..., 1:])
        return np.exp(re_exp + 1j * im_exp).sum(axis=-1)


def log_delta2(tau: SiegelMatrix) -> float:
    """log of the normalized discriminant 2^-12 (det Y)^5 prod |theta[c](0)|^2.

    Sp4(Z)-invariant, so evaluated at siegel_reduce(tau): over the 10 even
    characteristics (one stacked lattice sum), cross-checked against the
    product of ||theta||^2 at the points tau a + b, the even translates of
    the base point 0 in the torus-average kernel (`_theta_kernel`): two
    summation codes, both truncated at DEFAULT_THETA_TOL, which must agree
    within 10 DEFAULT_PRODUCT_TOL (FormulaMismatchError otherwise).
    """
    tau = siegel_reduce(tau)
    radius = _truncation_radius(tau.min_eigenvalue, DEFAULT_THETA_TOL)
    nulls = _theta_scaled((_EVEN_A, _EVEN_B), tau, radius)
    log_nulls = 0.0
    for a, b, s in zip(_EVEN_A.tolist(), _EVEN_B.tolist(), nulls.tolist()):
        if abs(s) < NULL_FLOOR:
            name = "[{} {}; {} {}]".format(*("1/2" if x else "0" for x in a + b))
            raise DegenerateThetaNullError(
                f"even theta-null {name} is below {NULL_FLOOR:g} (|theta| = {abs(s):.3e}): "
                f"tau is at or near the locus of products of elliptic curves",
                characteristic=name,
            )
        log_nulls += 2 * math.log(abs(s))
    value = -12 * math.log(2) + 5 * math.log(tau.det_y) + log_nulls

    # ||theta||(tau a + b) = (det Y)^(1/4) |theta[a,b](0)|: the translates of
    # the base point 0, summed by the kernel
    origin = np.zeros((1, 2))
    log_norms = _theta_kernel(tau)(origin, origin)[_EVEN, 0]
    direct = -12 * math.log(2) + 2 * float(np.sum(log_norms))
    if not abs(value - direct) <= 10 * DEFAULT_PRODUCT_TOL:  # a NaN norm fails too
        raise FormulaMismatchError(
            f"discriminant routes disagree: theta-null product {value!r} vs "
            f"kernel norm product {direct!r}"
        )
    return value


@dataclass(frozen=True)
class QuadratureConfig:
    """Sampling plan for the torus average; deterministic given its fields.

    `n_samples` counts evaluations of log||theta||.  `log_h` splits it
    over 8 substreams and rounds each share up to whole cosets of 16 (a
    base point and its half-period translates), so up to 8 x 15 more are
    made: 10^4 gives 10112.
    """

    n_samples: int = 100_000
    seed: int = 0
    method: str = "monte-carlo"
    target_stderr: float = DEFAULT_TARGET_STDERR

    def __post_init__(self):
        if self.n_samples < 10_000:
            raise ValueError(f"need at least 10^4 samples, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
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


def _gaussian_rows(radius: int, t, t12: complex, w: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows exp(f(n) - 2 pi i t T(n) - i Im f(0)) for n = -radius ..
    radius-1, one contiguous row per n, where per sample f(n) = pi i t (n+u)^2
    + 2 pi i c n + 2 pi i (n+u) v with c = t12 w, and T(n) = j(j-1)/2 with
    j = n for n >= 0 and j = -1-n below.  t, w, u and v broadcast
    together, samples last, with a length-1 axis before the samples that
    the rows fill with the two shifts u and u + 1/2 (the kernel passes
    both axes at once: t as (2, 1, 1), u as (2, 1, B)), and the rows come
    back with 2 radius rows inserted before the samples, (2, 2, 2 radius,
    B) there.

    f has second difference 2 pi i t, so with q = exp(2 pi i t) the ratios
    G_n = exp(f(n+1) - f(n)) obey G_{n+1} = G_n q, and downward
    H_n = exp(f(n-1) - f(n)) obey H_{n-1} = H_n q.  The sample-free factor
    q^T(n) is left to C' (`_theta_kernel`), so the rows walk up from
    exp(f(0)) by G_0 and down from exp(f(-1)) by H_{-1}, one multiply per
    row, and only these four anchors are exponentials.  The column phase
    exp(i Im f(0)) drops out of |A1 C' A2'|, so each anchor is
    exp(its real part) times a phase from g = exp(i Im(f(1) - f(0))):
    conj(g) e^(2 pi i Re t) for exp(f(-1)), conj(g) e^(4 pi i Re t) for
    H_{-1}.  g = exp(2 pi i turns) with turns = Re t u + Re c + v + Re t / 2
    is linear in u, so one np.exp at the base u gives both shifts: g at u
    + 1/2 is g e^(pi i Re t).  The four real parts
        -pi y u^2,  2 pi Im c - pi y (u-1)^2,  -p - pi y,  p - 3 pi y
    (y = Im t, p = 2 pi y u + 2 pi Im c) are taken at each shift apart
    and fill one block that takes one np.exp call: per sample, an axis's
    rows at both shifts cost one complex and eight real exponentials,
    whatever the radius.  Each anchor keeps its own exponent, so an
    anchor that underflows to 0 is never the product of an underflow and
    an overflow (0 * inf = NaN).  With Y reduced G_0 and H_{-1} have
    modulus at most one apart from the bounded c term; row n carries
    about |n| + 1 roundings.
    """
    pi, x, y = math.pi, t.real, t.imag
    lift = w * (2 * pi * t12.imag)  # 2 pi Im c
    turns = u * x
    turns += w * t12.real + v + x / 2
    u = u + _HALF_SHIFTS
    up = np.empty(u.shape, dtype=complex)
    np.exp(2j * pi * turns, out=up[..., :1, :])
    np.multiply(up[..., :1, :], np.exp(1j * pi * x), out=up[..., 1:, :])

    anchors = np.empty((4,) + u.shape)
    at_zero, at_minus_one, up_ratio, down_ratio = anchors
    np.multiply(u, u, out=at_zero)
    at_zero *= -pi * y
    np.subtract(u, 1, out=at_minus_one)
    at_minus_one *= at_minus_one
    at_minus_one *= -pi * y
    at_minus_one += lift
    p = u * (2 * pi * y)
    p += lift
    np.subtract(-pi * y, p, out=up_ratio)
    np.subtract(p, 3 * pi * y, out=down_ratio)
    np.exp(anchors, out=anchors)

    rows = np.empty(u.shape[:-1] + (2 * radius, u.shape[-1]), dtype=complex)
    mid = radius  # the row of n = 0
    rows[..., mid, :] = at_zero
    turn = np.exp(2j * pi * x)
    low = rows[..., mid - 1, :]
    np.conjugate(up, out=low)
    low *= turn
    down = low * turn
    low *= at_minus_one
    up *= up_ratio
    down *= down_ratio
    for k in range(mid + 1, 2 * radius):
        np.multiply(rows[..., k - 1, :], up, out=rows[..., k, :])
    for k in range(mid - 2, -1, -1):
        np.multiply(rows[..., k + 1, :], down, out=rows[..., k, :])
    return rows


def _theta_kernel(tau: SiegelMatrix) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The batch function (u, v) -> log||theta||(tau (u + a) + (v + b)) for
    (B, 2) arrays of base points in [0, 1/2)^2, at the 16 half periods
    (a, b) of `_HALVES`, as a (16, B) array in their order.

    Up to a factor of modulus one the scaled sum at a point (u, v) is the
    sum over m = n + u of exp(pi i m' tau m + 2 pi i m' v), n in [-r, r-1]^2
    for the radius r of `_truncation_radius`, whose docstring proves that
    its tail bound covers this box at any shift in [0, 1)^2, so at u + a
    too.  Splitting m1 m2 = n1 n2 + n1 u2 + u1 n2 + u1 u2 factors it as
    colsum(C' A1 * A2) exp(2 pi i tau12 u1 u2) with per-sample columns
        A1[n1, b] = exp(pi i tau11 (m1^2 - 2 T(n1)) + 2 pi i (tau12 n1 u2 + m1 v1))
    (A2 likewise, T as in `_gaussian_rows`) and the unsymmetric C'[n2, n1]
    = exp(2 pi i (tau12 n1 n2 + tau22 T(n2) + tau11 T(n1))).  At the
    translate by (a, b), m = n + u + a, A1 is built at u1 + a1 and A2 at
    u2 + a2, each with the other axis's base coordinate in its cross term,
    so each axis has rows at two shifts, a_i = 0 and 1/2.  The rest of the
    cross term and the sign of b are sample-free and go into
        C'_ab[n2, n1] = exp(2 pi i (tau12 (n1 n2 + a2 n1 + a1 n2)
                        + tau22 T(n2) + tau11 T(n1))) (-1)^(2 b1 n1),
    which leaves the modulus exp(-2 pi Y12 (u1 + a1)(u2 + a2)) per sample.
    C'_ab is computed here once per tau, as 8 blocks (a, b1) stacked by a1
    into two 8r x 2r matrices, each block from its own summed exponent, so
    no entry is the product of an underflow and an overflow.  Per batch
    the kernel builds the rows at both shifts (`_gaussian_rows`: 2 complex
    and 16 real exponentials per base point, whatever the radius),
    forms the stack times A1 in one batched matmul and scales it by A2 in
    place.  Rows 2j and 2j+1 have n2 of opposite parity, so the n2 sums P
    and Q over each parity give b2 = 0 as |P + Q| and b2 = 1/2 as |P - Q|.
    The 4 moduli take one np.exp call.  Every row is the one a single
    point u + a in [0, 1)^2 would build, and |C'_ab| grows with the cross
    term only, as |C'| does: on a reduced tau every factor stays in
    floating-point range, and a direct `log_h` keeps it up to a common
    scale of Y of about 236 (`test_log_h_float_range_is_kept_and_refused_cleanly`).
    A sum that leaves it raises QuadratureUnstableError.  Returns NaN
    where ||theta|| is below machine epsilon (points straddling the theta
    divisor); callers count those as rejected.
    """
    radius = _truncation_radius(tau.min_eigenvalue, DEFAULT_THETA_TOL)
    n = np.arange(-radius, radius, dtype=float)
    tri = np.where(n < 0, (n + 1) * (n + 2), n * (n - 1)) / 2  # T(n)
    blocks = _HALVES[::2]  # (a1, a2, b1) in order, b2 = 0
    a1, a2, b1 = (blocks[:, k, None, None] for k in range(3))
    cross = (n + a1) * (n[:, None] + a2) - a1 * a2  # n1 n2 + a2 n1 + a1 n2, columns n1

    def exponent(t: np.ndarray) -> np.ndarray:
        """t12 (n1 n2 + a2 n1 + a1 n2) + t22 T(n2) + t11 T(n1) for real t."""
        (t11, t12), (_, t22) = t
        return t12 * cross + t22 * tri[:, None] + t11 * tri

    with np.errstate(over="ignore", invalid="ignore"):
        # real and imaginary exponents apart: at Y near 1e308 a complex product meets inf * 0 = NaN
        im_exp = exponent(tau.matrix.real) + b1 * n
        stack = np.exp(-2 * math.pi * exponent(tau.matrix.imag) + 2j * math.pi * im_exp)
    stack = stack.reshape(2, 8 * radius, 2 * radius)  # the blocks of a1 = 0 and a1 = 1/2
    shifts = _HALVES[::4, :2, None]  # the 4 a, in order
    (t11, t12), (_, t22) = tau.matrix
    diagonal = np.array([t11, t22])[:, None, None]  # the axes' tau_jj
    # each thread keeps one product block, sized for its largest batch and
    # reused: a fresh 1 MB block per batch made the allocator hand its
    # pages back and fetch them again, about a third of `log_h`'s time
    products = threading.local()

    def log_norms(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u1, u2 = u.T  # contiguous rows when log_h passes its layout
        size = len(u1)
        block = getattr(products, "block", None)
        if block is None or len(block) < 16 * radius * size:
            block = products.block = np.empty(16 * radius * size, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            # both axes in one call, each at its base coordinate plus 0 and 1/2
            rows1, rows2 = _gaussian_rows(
                radius, diagonal, t12, u.T[::-1, None], u.T[:, None], v.T[:, None]
            )
            ca = np.matmul(stack, rows1, out=block[: 16 * radius * size].reshape(2, 8 * radius, size))
            ca = ca.reshape(2, 2, 2, 2 * radius, size)
            ca *= rows2[:, None]
            del rows1, rows2  # free the rows before the sums below allocate
            # rows 2j and 2j+1 have n2 of opposite parity
            pq = ca.reshape(8, radius, 2, size).sum(axis=1)
            p, q = pq[:, 0], pq[:, 1]
            s = np.empty((8, 2, size))
            np.abs(p + q, out=s[:, 0])
            np.abs(p - q, out=s[:, 1])
            moduli = (u1 + shifts[:, 0]) * (u2 + shifts[:, 1])
            moduli *= -2 * math.pi * t12.imag
            np.exp(moduli, out=moduli)
            s = s.reshape(4, 4, size)
            s *= moduli[:, None]
        if not np.all(np.isfinite(s)):
            raise QuadratureUnstableError(
                f"theta lattice sum overflowed at {tau!r} (radius {radius})"
            )
        norms = s.reshape(16, size)
        norms *= tau.det_y**0.25
        with np.errstate(divide="ignore"):
            logs = np.log(norms)
        logs[norms < np.finfo(float).eps] = np.nan
        return logs

    return log_norms


def _substream_chunks(method: str, child_seed, count: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One substream's `count` base points as (u, v) chunks of up to _CHUNK.

    Each chunk is generated when it is asked for, as one block of
    contiguous coordinate rows (u1, u2, v1, v2) that u and v view as
    (B, 2) arrays, and halved into [0, 1/2)^4.  Monte Carlo points are
    consecutive `random` calls on one generator, which fills them from its
    stream in order; the lattice rule's point k is frac(offset + k K) for
    k = 1 .. count, with one random offset per substream and x - floor(x)
    exact for x >= 0.
    """
    rng = np.random.default_rng(child_seed)
    if method == "lattice-rule":
        offset = rng.random(4)[:, None]
    for start in range(0, count, _CHUNK):
        size = min(_CHUNK, count - start)
        if method == "monte-carlo":
            block = np.ascontiguousarray(rng.random((size, 4)).T)
        else:
            block = _KRONECKER[:, None] * np.arange(start + 1, start + size + 1, dtype=float)
            block += offset
            block -= np.floor(block)
        block *= 0.5
        yield block[:2].T, block[2:].T


def _check_workers(workers) -> None:
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be an integer of at least 1, got {workers!r}")


def log_h(tau: SiegelMatrix, config: QuadratureConfig | None = None, workers: int = 1) -> QuadratureResult:
    """The mean of log||theta||(tau u + v) over the unit 4-torus.

    Sp4(Z)-invariant, so evaluated at siegel_reduce(tau).  Splits the
    budget into 8 substreams, which differ by at most one point; each
    evaluates whole cosets of 16, ceil(count / 16) base points in
    [0, 1/2)^4 with their 16 half-period translates (`_theta_kernel`), so
    together they hold n_samples rounded up to whole cosets.  A coset is
    uniform on the torus where one translate alone is uniform on its own
    sub-box only, so a partial coset would bias the mean.

    The mean carries a control variate: g(u) = -pi s'Ys with s = u -
    floor(u + 1/2) in [-1/2, 1/2)^2, whose exact mean over the torus is
    -pi (Y11 + Y22) / 12 (E s_i^2 = 1/12, E s1 s2 = 0).  It is the log of
    the largest lattice term up to the constant (det Y)^(1/4), so it
    follows log||theta|| closely once Y is large, where most of the
    spread comes from it.  Per coset, F sums log||theta|| over its kept
    translates and G sums g - E g over the same ones; beta is the least
    squares slope of F on G over all cosets of all substreams, and a
    substream's mean is (sum F - beta sum G) / kept.  The estimate is the
    mean of substream means and the standard error their sample spread.
    For a fixed beta the estimate is unbiased, and fitting beta from the
    same cosets adds a bias of order 1/N.

    Each substream generates its base points one chunk of _CHUNK at a time
    (`_substream_chunks`) and sums each chunk as it is made, so no
    substream's points are ever held at once.  `workers` threads share
    the substreams; it must be an int of at least 1 (ValueError).
    """
    _check_workers(workers)
    config = config or QuadratureConfig()
    tau = siegel_reduce(tau)
    kernel = _theta_kernel(tau)
    per_stream, extra = divmod(config.n_samples, SUBSTREAMS)
    children = np.random.SeedSequence(config.seed).spawn(SUBSTREAMS)
    (y11, y12), (_, y22) = tau.matrix.imag
    control_mean = -math.pi * (y11 + y22) / 12

    def run_substream(index: int) -> tuple[np.ndarray, int]:
        cosets = -(-(per_stream + (index < extra)) // len(_HALVES))
        sums = np.zeros(6)  # cosets, kept, and the sums of F, G, F G and G^2
        rejected = 0
        for u, v in _substream_chunks(config.method, children[index], cosets):
            vals = kernel(u, v)
            # s of the translate u + a is u - a, for a_i = 0 and 1/2
            s1, s2 = u[:, 0] - _HALF_SHIFTS, u[:, 1] - _HALF_SHIFTS
            g = (y11 * s1 * s1)[:, None] + (2 * y12 * s1)[:, None] * s2 + y22 * s2 * s2
            g *= -math.pi
            g -= control_mean
            g = g.reshape(len(_HALVES) // 4, -1)  # the 4 a in order, each with 4 b
            g_sum = 4 * g.sum(axis=0)
            bad = np.isnan(vals)
            lost = int(np.count_nonzero(bad))
            if lost:
                g_sum -= (bad.reshape(len(g), 4, -1).sum(axis=1) * g).sum(axis=0)
                vals = np.where(bad, 0.0, vals)
            f_sum = vals.sum(axis=0)
            rejected += lost
            sums += (len(u), vals.size - lost, f_sum.sum(), g_sum.sum(), (f_sum * g_sum).sum(), (g_sum * g_sum).sum())
        return sums, rejected

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_substream, range(SUBSTREAMS)))
    else:
        results = [run_substream(j) for j in range(SUBSTREAMS)]

    sums = np.array([r[0] for r in results])
    rejected = sum(r[1] for r in results)
    cosets, _, f_total, g_total, fg, gg = sums.sum(axis=0)
    covariance = fg - f_total / cosets * g_total
    variance = gg - g_total / cosets * g_total
    beta = covariance / variance if math.isfinite(covariance) and 0 < variance < math.inf else 0.0
    kept, f_sums, g_sums = sums[:, 1], sums[:, 2], sums[:, 3]
    with np.errstate(invalid="ignore", divide="ignore"):
        means = (f_sums - beta * g_sums) / kept
    if not np.all(np.isfinite(means)):
        raise QuadratureUnstableError(
            "a quadrature substream lost every sample to the theta divisor"
        )
    value = float(np.mean(means))
    stderr = float(np.std(means, ddof=1) / math.sqrt(SUBSTREAMS))
    if stderr > 10 * config.target_stderr:
        raise QuadratureUnstableError(
            f"standard error {stderr:.3e} exceeds 10x target "
            f"{config.target_stderr:.3e} after {len(_HALVES) * int(cosets)} samples"
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


def arch_invariants(tau: SiegelMatrix, config: QuadratureConfig | None = None, workers: int = 1) -> ArchReport:
    """Full archimedean chain: discriminant, torus average, and the
    derived invariants, with the internal consistency residual.

    The tolerances are module constants (DEFAULT_THETA_TOL, DEFAULT_PRODUCT_TOL).
    lambda is reported through its direct discriminant formula; the
    residual compares it against the recombination through phi and
    delta_F, which is algebraically the same number, so the residual
    measures accumulated floating-point error only.  A `workers` that is
    not an int of at least 1 is refused first (ValueError).
    """
    _check_workers(workers)
    tau = siegel_reduce(tau)  # once: log_delta2 and log_h take it as reduced
    ld2 = log_delta2(tau)
    lh, lh_stderr, rejected = log_h(tau, config, workers)

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
