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
  of Deconinck et al., Math. Comp. 2004, run exactly in integers on the
  dyadic rationals that tau's floats are, and rounded once at the end)
  and read only the reduced tau, not the symplectic word that reaches it.
  There the smallest eigenvalue of Y is at least sqrt(3)/4, so at the
  fixed tail tolerance DEFAULT_THETA_TOL the radius is at most 5 and
  needs no cap: any valid period matrix is accepted, and
  `arch_invariants` reduces once for both.
* log||H|| reduces to the mean of log||theta||(tau u + v) over uniform
  (u, v) in [0,1)^4, sampled in cosets: a base point in [0,1/4)^4 and its
  256 quarter-period translates (u + a, v + b), a, b in {0,1/4,1/2,3/4}^2,
  where theta turns into theta[a;b] (Mumford, Tata Lectures I, ch. II 1),
  so a coset is uniform on the torus.  Per batch of base points the
  lattice sum over the box n in [-r, r-1]^2, m = n + u + a, which the tail
  bound covers at any shift in [0,1)^2 (`_truncation_radius`), factors
  into two per-sample rows of 1-D terms, built at the four shifts u_i + a_i
  of each axis once for all 256 translates, and one fixed stack of the
  matrices C'_ab, which hold the Gaussian factors and the phase of b1: one
  a1 at a time, a matmul gives the sums for its 16 (a2, b1), and a 4-point
  DFT over n2 mod 4, one more matmul, the four b2.
  Each row walks from two anchor terms (n = 0 and n = -1) by their step
  ratios, one multiply per row.
  Only |sum| enters the norm, so each anchor is the real exponential of
  its real part (its modulus, so the float range is kept) times a phase
  derived from one unit phase per row.  The unit phase is linear in the
  shift, so one complex np.exp per axis gives it at all four shifts (the
  shift a turns it by the constant exp(2 pi i a Re tau_jj)), and the four
  anchor exponents of a row take one real np.exp call: a base point
  costs 2 complex and 48 real exponentials at any radius, for 256
  evaluations.  On a reduced tau every factor stays in
  floating-point range, and each log||theta|| is the log of its computed
  modulus, however small: every sample is kept, and a value that leaves
  the range (a sum that overflows, or a modulus that underflows to 0)
  makes `log_h` refuse tau.  The mean subtracts a control variate, the
  piecewise quadratic -pi d_Y(u)^2 (d_Y the distance from u to the
  nearest lattice point in the metric Y, so the log of the largest
  lattice term), whose exact mean, the second moment of the Voronoi cell,
  is known, and the spread of 8 substreams, whose base points fill one
  array drawn from one generator seeded by the seed, gives the standard
  error.  Fixed (seed, N, method) give bit-identical results.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateThetaNullError, FormulaMismatchError, QuadratureUnstableError

DEFAULT_THETA_TOL = 1e-12  # the Gaussian tail bound at which both lattice sums truncate
DEFAULT_PRODUCT_TOL = 1e-10  # `log_delta2`'s two routes must agree within 10x this
DEFAULT_TARGET_STDERR = 1e-3
NULL_FLOOR = 1e-8  # an even theta-null below this share of its largest term counts as vanishing
# the least lambda_min `_truncation_radius` takes (radius 345 at tol 1e-12);
# the sums pass the reduced tau's, sqrt(3)/4 or more
LAMBDA_FLOOR = 1e-4
REDUCTION_CAP = 200
SUBSTREAMS = 8
# the most samples `log_h` takes.  Its base points and per-coset sums take 48
# bytes per coset of 256, 0.19 per sample: 190 MB at 10^9 (a fresh `arch`
# peaked 0.23-0.24 bytes per sample higher from 1e7 to 4e7 samples, by either
# method), and at about 20 ns per sample it runs ~20 s
MAX_SAMPLES = 10**9
# the most base points per kernel call, shared by the substreams: 200 tiles of
# four, so 2 x 10^5 samples (784 base points) take one call and 10^6 five; the
# kernel's buffer, 6 KB per base point at radius 4, grows to 4.8 MB
_CHUNK = 800
LOG_2PI = math.log(2 * math.pi)


class SiegelMatrix:
    """A 2x2 complex symmetric matrix with positive definite imaginary part.

    The input is copied, never written.  Off-diagonals that differ by at
    most 1e-12 are both replaced by their average, and by more rejected;
    a symmetric input is kept bit for bit, subnormal entries included, and
    the diagonal always is.  Non-finite entries, an Im tau that is not
    positive definite and one whose inverse is not finite (subnormal
    entries) are rejected too, each as ValueError.  Both tests on Y are
    exact, in integers over the common denominator of its float entries,
    which are dyadic rationals: y11 > 0 and y11 y22 > y12^2, then
    adj(Y) / det Y, whose largest entry is max(y11, y22) / det Y, rounded
    to a float once, so a positive definite Y however ill-conditioned
    passes where floating-point eigenvalues round its smallest to 0.  The
    matrix is fixed at construction and read-only.
    """

    def __init__(self, tau):
        m = np.array(tau, dtype=complex)  # a copy: the caller's array is never written
        if m.shape != (2, 2):
            raise ValueError(f"period matrix must be 2x2, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"period matrix entries must be finite, got {m.tolist()}")
        if abs(m[0, 1] - m[1, 0]) > 1e-12:
            raise ValueError(
                f"period matrix is not symmetric: off-diagonals "
                f"{m[0, 1]} vs {m[1, 0]}"
            )
        # only an asymmetric pair is averaged, halving first (entries near the float
        # limit stay finite): a symmetric input is kept bit for bit, subnormals too
        m[0, 1] = m[1, 0] = m[0, 1] if m[0, 1] == m[1, 0] else m[0, 1] / 2 + m[1, 0] / 2
        y = m.imag.tolist()
        ratios = [part.as_integer_ratio() for part in (y[0][0], y[0][1], y[1][1])]
        d = math.lcm(*(q for _, q in ratios))
        y11, y12, y22 = (p * (d // q) for p, q in ratios)  # Y is these over d, exactly
        det = y11 * y22 - y12 * y12  # det Y over d^2
        if not (y11 > 0 and det > 0):
            raise ValueError(f"Im tau must be positive definite in exact arithmetic, got {y}")
        try:
            max(y11, y22) * d / det  # the largest entry of adj(Y) / det Y, rounded once
        except OverflowError:  # a subnormal Im tau
            raise ValueError(f"Im tau is too small to invert in floating point: {y}") from None
        self._m = m
        self._m.setflags(write=False)
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

    @functools.cached_property
    def min_eigenvalue(self) -> float:
        """The smallest eigenvalue of Im tau, in floats: the sums read it on a
        reduced tau, where it is at least sqrt(3)/4."""
        return float(np.linalg.eigvalsh(self._m.imag)[0])

    @functools.cached_property
    def _kernel(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """`_theta_kernel(self)`, built once: `log_delta2` and `log_h` share it."""
        return _theta_kernel(self)


# the 256 quarter periods (a1, a2, b1, b2) in {0, 1/4, 1/2, 3/4}^4 in the
# order of itertools.product: the order in which the kernel returns the
# translates tau (u + a) + (v + b) of a base point
_QUARTERS = np.array(list(itertools.product((0.0, 0.25, 0.5, 0.75), repeat=4)))
_QUARTERS.setflags(write=False)
_SHIFTS = np.array([[0.0], [0.25], [0.5], [0.75]])  # the four a_i as a column
# the half periods among them are the characteristics [a; b]: where the
# kernel returns the ten even ones, 4 a'b even, and them as (10, 2) arrays a and b
_EVEN_INDEX = np.flatnonzero(
    np.all(_QUARTERS % 0.5 == 0, axis=1)
    & ((_QUARTERS[:, 0] * _QUARTERS[:, 2] + _QUARTERS[:, 1] * _QUARTERS[:, 3]) * 4 % 2 == 0)
)
_EVEN_A = _QUARTERS[_EVEN_INDEX, :2]
_EVEN_B = _QUARTERS[_EVEN_INDEX, 2:]


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


def _round_half_even(n: int, d: int) -> int:
    """round(n / d) for integers, d > 0, ties to even as `round` does, with
    no Fraction built: floor(n / d + 1/2) by one divmod, one step back on an
    exact tie that lands on an odd integer."""
    q, r = divmod(2 * n + d, 2 * d)
    return q - 1 if r == 0 and q & 1 else q


def siegel_reduce(tau: SiegelMatrix) -> SiegelMatrix:
    """Move tau into the Siegel fundamental domain (Deconinck et al. 2004).

    Returns the reduced matrix alone: its callers need only Sp4(Z)-invariant
    values, so the symplectic word that reaches it is not formed.  The loop
    is exact: it holds the three entries of tau as Gaussian integers x + i y
    over one common denominator d (each float is a dyadic rational), and
    every step is integer arithmetic.  A round Lagrange-reduces Y, by swaps
    of the two basis vectors and shears by q = round(y12 / y11), applied to
    all of tau as U tau U'; subtracts the nearest integer from each entry of
    X and, while |tau11| < 1, applies Gottschling's quasi-inversion, which
    sends tau11 to -1/tau11, and divides the seven integers by their gcd.
    On return |2 Y12| <= Y11 <= Y22, |X_ij| <= 1/2 and |tau11| >= 1, so the
    smallest eigenvalue of Y is at least sqrt(3)/4; the entries are rounded
    to floats once, at the end, and a reduced entry beyond the float range
    is refused as ValueError.  A loop that does not finish within
    REDUCTION_CAP steps is a bug: FormulaMismatchError.  Its own result
    comes back at once, as a re-run of the loop would give it.
    """
    if tau._reduced:
        return tau
    (t11, t12), (_, t22) = tau.matrix.tolist()
    ratios = [part.as_integer_ratio() for t in (t11, t12, t22) for part in (t.real, t.imag)]
    d = math.lcm(*(q for _, q in ratios))
    x11, y11, x12, y12, x22, y22 = (p * (d // q) for p, q in ratios)
    for _ in range(REDUCTION_CAP):
        for _ in range(REDUCTION_CAP):
            if y11 > y22:
                x11, y11, x22, y22 = x22, y22, x11, y11
                continue
            q = _round_half_even(y12, y11)
            if q == 0:
                break
            x22, y22 = x22 - q * (2 * x12 - q * x11), y22 - q * (2 * y12 - q * y11)
            x12, y12 = x12 - q * x11, y12 - q * y11
        else:
            raise FormulaMismatchError(f"Lagrange reduction did not finish in {REDUCTION_CAP} steps")
        x11, x12, x22 = (x - _round_half_even(x, d) * d for x in (x11, x12, x22))
        norm = x11 * x11 + y11 * y11
        if norm >= d * d:
            try:
                entries = [complex(x / d, y / d) for x, y in ((x11, y11), (x12, y12), (x22, y22))]
            except OverflowError:
                raise ValueError(f"the reduction of {tau!r} leaves the float range") from None
            reduced = SiegelMatrix([entries[:2], entries[1:]])
            reduced._reduced = True
            return reduced
        # over the denominator d |z11|^2, z = x + i y: tau11 -> -d^2 conj(z11),
        # tau12 -> d w and tau22 -> |z11|^2 z22 - z12 w, where w = z12 conj(z11)
        wx, wy = x12 * x11 + y12 * y11, y12 * x11 - x12 * y11
        x22, y22 = norm * x22 - x12 * wx + y12 * wy, norm * y22 - x12 * wy - y12 * wx
        x11, y11, x12, y12, d = -d * d * x11, d * d * y11, d * wx, d * wy, d * norm
        g = math.gcd(x11, y11, x12, y12, x22, y22, d)
        x11, y11, x12, y12, x22, y22, d = (v // g for v in (x11, y11, x12, y12, x22, y22, d))
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
    product of ||theta||^2 at the points tau a + b, the even half-period
    translates of the base point 0 among the 256 that the torus-average
    kernel returns (`tau._kernel`, the build `log_h` reads too): two
    summation codes, both truncated at DEFAULT_THETA_TOL, which must agree
    within 10 DEFAULT_PRODUCT_TOL (FormulaMismatchError otherwise).  A null
    below NULL_FLOOR of its largest term cancels: DegenerateThetaNullError.
    A kernel norm out of floating-point range (a sum that overflowed, as
    at |Y12| past about 113) is no disagreement: QuadratureUnstableError
    naming tau, as `log_h` raises for it.
    """
    tau = siegel_reduce(tau)
    radius = _truncation_radius(tau.min_eigenvalue, DEFAULT_THETA_TOL)
    nulls = _theta_scaled((_EVEN_A, _EVEN_B), tau, radius)
    # the largest term of the null of a has modulus exp(-pi d_Y(a)^2)
    distances = _nearest_distance_sq(tau.matrix.imag, _EVEN_A[:, 0], _EVEN_A[:, 1])
    log_nulls = 0.0
    for a, b, s, d2 in zip(_EVEN_A.tolist(), _EVEN_B.tolist(), nulls.tolist(), distances.tolist()):
        # written so that a NaN distance refuses too: every comparison with NaN is False
        if not (abs(s) > 0 and math.log(abs(s)) + math.pi * d2 >= math.log(NULL_FLOOR)):
            name = "[{} {}; {} {}]".format(*("1/2" if x else "0" for x in a + b))
            raise DegenerateThetaNullError(
                f"even theta-null {name} is below {NULL_FLOOR:g} of its largest term "
                f"(|theta| = {abs(s):.3e}, largest term {math.exp(-math.pi * d2):.3e}): "
                f"tau is at or near the locus of products of elliptic curves",
                characteristic=name,
            )
        log_nulls += 2 * math.log(abs(s))
    value = -12 * math.log(2) + 5 * math.log(tau.det_y) + log_nulls

    # ||theta||(tau a + b) = (det Y)^(1/4) |theta[a,b](0)|: the half-period
    # translates of the base point 0, summed by the kernel
    origin = np.zeros((1, 2))
    log_norms = tau._kernel(origin, origin)[_EVEN_INDEX, 0]
    if not np.all(np.isfinite(log_norms)):  # as in `log_h`: a sum left float range
        raise QuadratureUnstableError(f"log||theta|| left floating-point range at {tau!r}")
    direct = -12 * math.log(2) + 2 * float(np.sum(log_norms))
    if not abs(value - direct) <= 10 * DEFAULT_PRODUCT_TOL:
        raise FormulaMismatchError(
            f"discriminant routes disagree: theta-null product {value!r} vs "
            f"kernel norm product {direct!r}"
        )
    return value


def _check_int(name: str, value, least: int) -> None:
    """Refuse (ValueError) a value that is not an int of at least `least`:
    a float or a bool would otherwise run, late or as another number."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Sampling plan for the torus average; deterministic given its fields.

    `method` is "lattice-rule" (the default: 8 independent random shifts
    of one rank-1 lattice) or "monte-carlo" (independent uniform points);
    either draws every random number from one generator seeded by `seed`
    (`_base_points`).  `n_samples` counts evaluations of log||theta||.
    `log_h` gives each of 8 substreams ceil(n_samples / 2048) whole
    cosets of 256 (a base point and its quarter-period translates), odd
    for the lattice rule, so up to 2047 (4095 for the lattice rule) more
    are made: 10^4 gives 10240.  It is at most MAX_SAMPLES, refused
    (ValueError) above, before any array is made.
    """

    n_samples: int = 100_000
    seed: int = 0
    method: str = "lattice-rule"
    target_stderr: float = DEFAULT_TARGET_STDERR

    def __post_init__(self):
        _check_int("samples", self.n_samples, 10_000)
        if self.n_samples > MAX_SAMPLES:
            raise ValueError(
                f"samples must be at most {MAX_SAMPLES} (the base points and sums take "
                f"about 0.19 bytes per sample), got {self.n_samples}"
            )
        _check_int("seed", self.seed, 0)
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


# the generator search of `_lattice_generator` tries at most this many candidates per component
_GENERATOR_CANDIDATES = 32


@functools.lru_cache(maxsize=16)
def _lattice_generator(n: int) -> tuple[int, ...]:
    """A generating vector z = (1, z2, z3, z4) of the rank-1 lattice rule
    with the n points k z / n mod 1, built component by component (Sloan
    and Reztsov, Math. Comp. 2002): each z_j, prime to n so that every
    coordinate takes all n values k / n, minimises the criterion P2 of
    Sloan and Joe, (1/n) sum over k of the product over the components so
    far of 1 + 2 pi^2 B2(frac(k z_j / n)), B2(x) = x^2 - x + 1/6.  Each
    component tries the candidates in [1, n/2] (c and n - c score alike),
    or _GENERATOR_CANDIDATES of them spread evenly."""
    k = np.arange(n)

    def weight(x: np.ndarray) -> np.ndarray:
        return 1 + 2 * math.pi**2 * (x * x - x + 1 / 6)

    candidates = np.array([c for c in range(1, n // 2 + 1) if math.gcd(c, n) == 1] or [1])
    if len(candidates) > _GENERATOR_CANDIDATES:
        candidates = candidates[np.linspace(0, len(candidates) - 1, _GENERATOR_CANDIDATES).astype(int)]
    z = [1]
    product = weight(k / n)
    for _ in range(3):
        scores = (product * weight(np.outer(candidates, k) % n / n)).sum(axis=1)
        z.append(int(candidates[np.argmin(scores)]))
        product *= weight(k * z[-1] % n / n)
    return tuple(z)


def _gaussian_rows(
    radius: int, t, t12: complex, phases, w: np.ndarray, u: np.ndarray, v: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Rows exp(f(n) - 2 pi i t T(n) - i Im f(0)) for n = -radius ..
    radius-1, one contiguous row per n, where per sample f(n) = pi i t (n+u)^2
    + 2 pi i c n + 2 pi i (n+u) v with c = t12 w, and T(n) = j(j-1)/2 with
    j = n for n >= 0 and j = -1-n below.  t, w, u and v broadcast
    together, samples last, with a length-1 axis before the samples that
    the rows fill with the four shifts u + a, a = 0, 1/4, 1/2, 3/4 (the
    kernel passes both axes at once: t as (2, 1, 1), u as (2, 1, B)), and
    the rows, with 2 radius rows inserted before the samples, (2, 4,
    2 radius, B) there, fill the complex array `out`, which is returned.

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
    is linear in u, so one np.exp at the base u gives every shift: g at u
    + a is g e^(2 pi i a Re t), a constant per axis and shift.  These
    per-tau constants come in as phases = (e^(2 pi i a Re t) at the four
    a, e^(2 pi i Re t)), shaped like t with the shifts on its middle axis,
    which the kernel computes once per tau.  The four
    real parts
        -pi y u^2,  2 pi Im c - pi y (u-1)^2,  -p - pi y,  p - 3 pi y
    (y = Im t, p = 2 pi y u + 2 pi Im c) are taken at each shift apart
    and fill one block that takes one np.exp call: per sample, an axis's
    rows at the four shifts cost one complex and 16 real exponentials,
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
    u = u + _SHIFTS
    shifted, turn = phases
    up = np.exp(2j * pi * turns) * shifted

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

    rows = out
    mid = radius  # the row of n = 0
    rows[..., mid, :] = at_zero
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


@functools.lru_cache(maxsize=8)  # a reduced tau has radius 5 or less
def _kernel_tables(radius: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_theta_kernel`'s tables that do not depend on tau, at one radius r:

    * the terms 2 pi (n1 n2 + a2 n1 + a1 n2, T(n2), T(n1)) of C'_a's
      exponent, whose products with (tau12, tau22, tau11) it sums, for the
      16 shifts a = (a1, a2) in order, as a (16 (2r)^2, 3) array of rows
      (a, n2, n1), n_i = -r .. r-1 (T as in `_gaussian_rows`);
    * the phases i^(j n1) of b1 = j/4 as a (4, 1, 1, 2r) array;
    * i^(j k), the phase of b2 = j/4 at row k up to a column phase, as the
      4 x 2r matrix of the DFT over n2 mod 4 (row k has n2 = k - r).

    The phases are powers of i, exact in floats.  Read-only, as they are
    shared."""
    n = np.arange(-radius, radius, dtype=float)
    tri = np.where(n < 0, (n + 1) * (n + 2), n * (n - 1)) / 2  # T(n)
    a1, a2 = _QUARTERS[::16, :2, None, None].transpose(1, 0, 2, 3)  # the 16 a, in order
    cross = (n + a1) * (n[:, None] + a2) - a1 * a2  # n1 n2 + a2 n1 + a1 n2, columns n1
    terms = np.stack(np.broadcast_arrays(cross, tri[:, None], tri), axis=-1).reshape(-1, 3)
    terms *= 2 * math.pi
    powers = np.array([1, 1j, -1, -1j])  # i^k
    turns = powers[np.arange(4)[:, None] * n.astype(int) % 4][:, None, None]
    dft = powers[np.arange(4)[:, None] * np.arange(2 * radius) % 4]
    for table in (terms, turns, dft):
        table.setflags(write=False)
    return terms, turns, dft


def _theta_kernel(tau: SiegelMatrix) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The batch function (u, v) -> log||theta||(tau (u + a) + (v + b)) for
    (B, 2) arrays of base points in [0, 1/4)^2, at the 256 quarter periods
    (a, b) of `_QUARTERS`, as a (256, B) array in their order.

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
    so each axis has rows at four shifts, a_i = 0, 1/4, 1/2 and 3/4.  The
    rest of the cross term and the phase of b1 are sample-free and go into
        C'_ab[n2, n1] = exp(2 pi i (tau12 (n1 n2 + a2 n1 + a1 n2)
                        + tau22 T(n2) + tau11 T(n1) + b1 n1)),
    which leaves the modulus exp(-2 pi Y12 (u1 + a1)(u2 + a2)) per sample.
    C'_ab is C'_a, its block at b1 = 0, with column n1 turned by
    e^(2 pi i b1 n1) = i^(j n1) for b1 = j/4.  So the build exponentiates
    the 16 distinct blocks C'_a once per tau, (2r)^2 complex exponentials
    each, each entry from its own summed exponent, whose real and
    imaginary parts come from one product of `_kernel_tables`'s terms
    with tau's entries.
    It multiplies each block by the exact quarter turns 1, i, -1, -i and
    stacks the 64 blocks C'_ab by a1 into four 32r x 2r matrices, the
    blocks of each in the order (b1, a2).  The turns have modulus exactly
    1, so no entry is the product of an underflow and an overflow: a
    finite entry is only swapped between its parts and negated, exactly,
    and the one product that meets inf * 0 = NaN is an entry whose own
    exponent already overflowed, whose sums are not finite either way.
    Per batch the kernel builds the rows at the four shifts
    (`_gaussian_rows`: 2 complex and 32 real exponentials per base point,
    whatever the radius), then takes one a1 at a time: it multiplies that
    a1's block of the stack by its A1 (a 32r x B block, 1.6 MB at r = 4
    and B = 800, small enough to stay in a core's L2 cache) and scales it
    by A2 in place.  The phase e^(2 pi i b2 n2) of b2 = j/4 is i^(j n2): up to a
    phase common to the column, the 4-point DFT over the residues of n2
    mod 4, which one more matmul with the fixed 4 x 2r matrix i^(j k)
    (row k has n2 = k - r) applies to the n2 sums at any radius; their
    moduli fill that a1's quarter of the 256.  The 16 translate moduli
    exp(-2 pi Y12 (u1 + a1)(u2 + a2)) take one np.exp call.  The rows,
    the block, the n2 sums and the moduli live in one buffer kept across
    calls, and log||theta|| is written over the moduli, so a call of no
    more base points than an earlier one allocates no array of its size:
    it returns a (256, B) view of the buffer, valid until the kernel's
    next call, which overwrites it (`log_h` sums it at once, and
    `log_delta2` copies what it reads).  OpenBLAS's complex matmul sums a
    remainder of fewer than four columns in other code, whose last bits
    differ, so a base point's 256 values do not depend on the call it came
    in when every call is a whole number of tiles of four base points, as
    `log_h` cuts them.  Every row is the one a single point u + a in
    [0, 1)^2 would build, and |C'_ab| grows with the cross term only, as
    |C'| does: on a reduced tau every factor stays in floating-point
    range, and a direct `log_h` keeps it up to a common scale of Y of
    about 237 (`test_log_h_float_range_is_kept_and_refused_cleanly`).
    It returns np.log of every modulus, -inf where one is exactly 0 and
    inf or NaN where a sum overflowed, and raises nothing: `log_h` and
    `log_delta2` refuse a call with any such value.  `log_delta2` reads the even half-period
    translates of the origin only; the odd ones are sums of the omitted
    tail, tiny or -inf, and nothing reads them.
    """
    radius = _truncation_radius(tau.min_eigenvalue, DEFAULT_THETA_TOL)
    terms, turns, dft = _kernel_tables(radius)
    (t11, t12), (_, t22) = tau.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        # both real exponents of each entry in one product, read as one complex
        # number: no complex product meets inf * 0 = NaN at Y near 1e308
        exponents = terms @ np.array([[-t12.imag, t12.real], [-t22.imag, t22.real], [-t11.imag, t11.real]])
        blocks = np.exp(exponents.view(complex), out=exponents.view(complex))
        # per a1 one 32r x 2r matrix, its blocks in the order (b1, a2): A2 then
        # scales the four b1 broadcast along the outermost axis, where numpy
        # would copy A2 first to broadcast it along an inner one
        stack = blocks.reshape(4, 1, 4, 2 * radius, 2 * radius) * turns
    stack = stack.reshape(4, 32 * radius, 2 * radius)
    shifts = _QUARTERS[::16, :2, None]  # the 16 a, in order
    diagonal = np.array([t11, t22])[:, None, None]  # the axes' tau_jj
    # `_gaussian_rows`'s per-tau phases: e^(2 pi i a Re tau_jj) at the four a, and e^(2 pi i Re tau_jj)
    phases = np.exp(2j * math.pi * diagonal.real * _SHIFTS), np.exp(2j * math.pi * diagonal.real)
    scale = tau.det_y**0.25  # here, so the kernel kept on tau holds no reference back to it
    # per base point the rows (16r), the product block of one a1 (32r), its
    # n2 sums (64) and the 256 moduli (128 complex): one buffer, grown to the
    # largest call and reused, so a kernel serves one thread (README, design notes)
    cuts = list(itertools.accumulate([0, 16 * radius, 32 * radius, 64, 128]))  # their offsets
    buffer = np.empty(0, dtype=complex)

    def log_norms(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        nonlocal buffer
        width = len(u)
        u1, u2 = u.T  # contiguous rows when log_h passes its layout
        if len(buffer) < cuts[-1] * width:
            buffer = np.empty(cuts[-1] * width, dtype=complex)
        rows, ca, n2_sums, norms = (buffer[a * width : b * width] for a, b in zip(cuts, cuts[1:]))
        ca = ca.reshape(32 * radius, width)
        by_b1 = ca.reshape(4, 8 * radius, width)  # the (a2, n2) rows of each b1
        # the n2 sums are stored in the order (a2, b1, b2): this view has b1 first
        b1_first = n2_sums.reshape(4, 4, 4, width).transpose(1, 0, 2, 3)
        norms = norms.view(float).reshape(4, 64, width)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # both axes in one call, each at its base coordinate plus the four a_i
            rows1, rows2 = _gaussian_rows(
                radius, diagonal, t12, phases, u.T[::-1, None], u.T[:, None], v.T[:, None],
                rows.reshape(2, 4, 2 * radius, width),
            )
            rows2 = rows2.reshape(8 * radius, width)
            for k in range(4):  # one a1 at a time, so its block stays in cache
                np.matmul(stack[k], rows1[k], out=ca)
                by_b1 *= rows2
                # the n2 sums with the phases of b2: one matmul with `dft`
                np.matmul(dft, ca.reshape(4, 4, 2 * radius, width), out=b1_first)
                np.abs(n2_sums.reshape(64, width), out=norms[k])
            moduli = (u1 + shifts[:, 0]) * (u2 + shifts[:, 1])
            moduli *= -2 * math.pi * t12.imag
            np.exp(moduli, out=moduli)
            norms = norms.reshape(16, 16, width)
            norms *= moduli[:, None]
            norms *= scale
            norms = norms.reshape(256, width)
            # log||theta|| over the moduli, in the buffer: a call allocates no large array
            return np.log(norms, out=norms)

    return log_norms


def _nearest_distance_sq(y: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """d_Y(x)^2 = min over n in Z^2 of (x + n)'Y(x + n) at points x in [0, 1)^2
    (coordinates x1, x2), for reduced Y (|2 Y12| <= Y11 <= Y22).  The
    nearest lattice point is then one of the four corners c in {0, 1}^2 of
    the unit square: its Delaunay triangles, cut by the short diagonal, have
    no obtuse angle, so the Voronoi cells of their vertices cover them.  With
    w = Y x, (x - c)'Y(x - c) = x'Yx - 2 c'w + c'Yc."""
    (y11, y12), (_, y22) = y
    w1 = y11 * x1 + y12 * x2
    w2 = y12 * x1 + y22 * x2
    far = np.minimum(y11 - 2 * w1, y22 - 2 * w2)
    with np.errstate(over="ignore", invalid="ignore"):  # Y entries near 1e308, as in `_theta_scaled`
        np.minimum(far, y11 + 2 * y12 + y22 - 2 * (w1 + w2), out=far)
    np.minimum(far, 0, out=far)
    far += x1 * w1
    far += x2 * w2
    return far


def _voronoi_moment(y) -> float:
    """M2(Y), the mean of d_Y(x)^2 over the torus: the second moment of the
    Voronoi cell of Z^2 in the metric Y, which has area 1 (Conway and
    Sloane, Sphere Packings, Lattices and Groups, ch. 21).

    For reduced Y the cell is the hexagon of the obtuse superbase e1, e2
    and -(e1 + s e2), s = -sign Y12, whose Selling parameters p = |Y12|,
    q = Y11 - p and r = Y22 - p are all >= 0, with pq + qr + rp = det Y.
    Fanning the hexagon into triangles from 0 and summing their moments
    gives M2 = (p + q + r) / 12 + pqr / (12 det Y): the square's
    (Y11 + Y22) / 12 at Y12 = 0, and 5 Y11 / 36 at the hexagonal corner
    Y11 = Y22 = 2 |Y12|.  It reads the entries of Y as they are, so Y of
    Fractions gives M2 exactly (`tests/oracles.exact_voronoi_moment`)."""
    (y11, y12), (_, y22) = y.tolist()
    p = abs(y12)
    q, r = y11 - p, y22 - p
    return (p + q + r) / 12 + p * q * r / (12 * (p * q + q * r + r * p))


def _base_points(method: str, seed: int, count: int) -> np.ndarray:
    """The count base points of each substream, substream after substream,
    as one (4, 8 count) array of contiguous coordinate rows (u1, u2, v1,
    v2) in [0, 1/4)^4, quartered in place at the end: substream j is
    columns j count .. (j + 1) count - 1.

    Every draw comes from one generator, `default_rng(seed)`; independent
    uniform draws stay independent whichever generator makes them, so the
    substreams are independent.  Monte-carlo points are one `random((4, 8
    count))` call, already in this layout.  The lattice rule draws the 8 x
    4 random offsets in one call, and point k of substream j is
    t(frac(offset_j + (k z mod count) / count)), k = 0 .. count - 1: one
    rank-1 lattice of `_lattice_generator(count)` for the base box, shifted
    per substream (x - floor(x) exact for x >= 0), so the substreams are
    independent random shifts of one lattice (Dick, Kuo and Sloan, Acta
    Numerica 2013), and the tent t(x) = 1 - |2x - 1| in each coordinate
    (the baker's transformation, Hickernell 2002), which keeps the points
    uniform and makes the lattice rule exact on an integrand linear in the
    base point, where the plain rule misses the jump at the edge of the box
    (u + a runs past 1 and wraps to 0).  t reaches 1, and a base point 1/4,
    where frac(...) is 1/2 exactly; the kernel covers that shift too.
    """
    rng = np.random.default_rng(seed)
    if method == "monte-carlo":
        points = rng.random((4, SUBSTREAMS * count))
    else:
        lattice = np.array(_lattice_generator(count))[:, None] * np.arange(count) % count / count
        points = lattice[:, None] + rng.random((4, SUBSTREAMS, 1))
        np.fmod(points, 1, out=points)  # x - floor(x), exactly, for x >= 0
        points *= 2
        points -= 1
        np.subtract(1, np.abs(points, out=points), out=points)  # the tent 1 - |2x - 1|
    points *= 0.25
    return points.reshape(4, -1)


def log_h(tau: SiegelMatrix, config: QuadratureConfig | None = None) -> QuadratureResult:
    """The mean of log||theta||(tau u + v) over the unit 4-torus.

    Sp4(Z)-invariant, so evaluated at siegel_reduce(tau).  Splits the
    budget into 8 substreams of count = ceil(n_samples / (8 x 256)) whole
    cosets each, a coset being a base point in [0, 1/4)^4 with its 256
    quarter-period translates (`_theta_kernel`), so together they hold
    n_samples rounded up to a multiple of 2048.  A coset is uniform on the
    torus where one translate alone is uniform on its own sub-box only, so
    a partial coset would bias the mean.  The lattice rule takes an odd
    count: at even n its points k and k + n/2 sit at t and 1 - t, where
    log||theta||, even in z, repeats its 256 values.

    The mean carries a control variate: g(u) = -pi d_Y(u)^2, the log of
    the largest lattice term up to the constant (det Y)^(1/4)
    (`_nearest_distance_sq`), whose exact mean over the torus is -pi
    M2(Y) (`_voronoi_moment`).  It follows log||theta|| closely once Y is
    large, where most of the spread comes from it, and log||theta|| - g
    stays bounded.  Per coset, F sums log||theta|| over its 256 translates
    and G sums g - E g over the same ones; beta is the least squares
    slope of F on G over all cosets of all substreams, and a substream's
    mean is (sum F - beta sum G) over its evaluations, so a constant
    integrand, or one equal to g, comes out exact.  The estimate is the
    mean of substream means and the standard error their sample spread.
    For a fixed beta the estimate is unbiased, and fitting beta from the
    same cosets adds a bias of order 1/N.

    All base points, substream after substream, are one array drawn from
    one generator seeded by config.seed (`_base_points`), of tiles =
    cosets / 4 whole tiles of four base points (cosets = 8 count).  The kernel takes them in the fewest calls of at
    most _CHUNK base points (one tile at least), cut at 4 ceil(tiles k /
    calls), so the calls differ in size by at most one tile, a larger one
    first, and none is empty: 10^4 samples (40 base points) take one call,
    not eight, 2 x 10^5 (784) one too, and 10^6 (3912) five, of 784, 784,
    780, 784 and 780.  Each call's F and G, summed from the kernel's
    result at once (a view of its buffer), fill one (2, 8 count) array,
    summed per substream.  The partition moves no bit: on whole tiles the
    kernel's columns do not depend on the call, and numpy sums a (256, B)
    array over its translates row by row for any B > 1.

    Every sample is kept, so `rejected` is always 0.  A kernel call with
    any log||theta|| out of floating-point range (an overflowed sum, or a
    modulus that underflows to 0, which a direct call at a Y22 of 10^3
    meets) raises QuadratureUnstableError naming tau, before any mean; so
    does a standard error above 10x the target.
    """
    config = config or QuadratureConfig()
    tau = siegel_reduce(tau)
    kernel = tau._kernel
    coset = len(_QUARTERS)
    count = -(-config.n_samples // (SUBSTREAMS * coset))
    if config.method == "lattice-rule":
        count |= 1
    y = tau.matrix.imag
    control_mean = -math.pi * _voronoi_moment(y)

    def coset_sums(block: np.ndarray) -> np.ndarray:
        """F and G, as defined above, of each base point of a (4, B) block.

        Finiteness is tested on F alone: a finite log||theta|| lies in [-745,
        710], so 256 of them sum to a finite F, and an inf or NaN among them
        makes F inf or NaN (inf - inf is NaN, silenced here as it is refused)."""
        u = block[:2].T
        with np.errstate(invalid="ignore"):
            f = kernel(u, block[2:].T).sum(axis=0)
        if not np.all(np.isfinite(f)):
            raise QuadratureUnstableError(f"log||theta|| left floating-point range at {tau!r}")
        # g at the translates u + a, each shared by its 16 b
        g = _nearest_distance_sq(y, (u[:, 0] + _SHIFTS)[:, None], u[:, 1] + _SHIFTS)
        g *= -math.pi
        g -= control_mean
        return np.array([f, 16 * g.reshape(16, -1).sum(axis=0)])

    points = _base_points(config.method, config.seed, count)
    cosets = points.shape[1]
    fg = np.empty((2, cosets))
    tiles = cosets // 4  # cosets = 8 count, so whole tiles of four base points
    calls = -(-tiles // max(_CHUNK // 4, 1))
    cuts = [-(-tiles * k // calls) * 4 for k in range(calls + 1)]  # a larger call first
    for start, stop in zip(cuts, cuts[1:]):
        fg[:, start:stop] = coset_sums(points[:, start:stop])

    f, g = fg
    f_total, g_total = fg.sum(axis=1)
    covariance = (f * g).sum() - f_total / cosets * g_total
    variance = (g * g).sum() - g_total / cosets * g_total
    beta = covariance / variance if math.isfinite(covariance) and 0 < variance < math.inf else 0.0
    f_streams, g_streams = fg.reshape(2, SUBSTREAMS, count).sum(axis=2)
    means = (f_streams - beta * g_streams) / (coset * count)
    value = float(np.mean(means))
    stderr = float(np.std(means, ddof=1) / math.sqrt(SUBSTREAMS))
    if stderr > 10 * config.target_stderr:
        raise QuadratureUnstableError(
            f"standard error {stderr:.3e} exceeds 10x target "
            f"{config.target_stderr:.3e} after {coset * cosets} samples"
        )
    return QuadratureResult(value, stderr, 0)


@dataclass(frozen=True)
class ArchReport:
    """The archimedean invariant chain at one period matrix.

    `log_h_stderr` is one standard error of `log_h`: the sample spread of
    the 8 substream means over sqrt(8), an estimate with 7 degrees of
    freedom.  `phi_stderr` is 10 times it, as phi carries 10 log||H|| and
    log_delta2 no sampling error.  `log_h` refuses tau (exit 6) when that
    estimate, not the true error, exceeds 10x the target.  `residual`
    compares two algebraically identical recombinations of lambda (see
    `arch_invariants`), so it measures floating-point rounding only; it is
    no margin on the accuracy of any field.  `rejected` is always 0, as
    `log_h` keeps every sample; it stays as a stable report field.
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


# each `ArchReport` field's coefficient on log||H|| in the chain of
# `arch_invariants`, so its standard error is |coefficient| log_h_stderr
LOG_H_COEFFICIENTS = {"log_h": 1, "phi": 10, "delta_f": -4, "log_s": 4, "lambda_": 0}


def arch_invariants(tau: SiegelMatrix, config: QuadratureConfig | None = None) -> ArchReport:
    """Full archimedean chain: discriminant, torus average, and the
    derived invariants, with the internal consistency residual.

    The tolerances are module constants (DEFAULT_THETA_TOL, DEFAULT_PRODUCT_TOL).
    lambda is reported through its direct discriminant formula; the
    residual compares it against the recombination through phi and
    delta_F, which is algebraically the same number, so the residual
    measures accumulated floating-point error only.
    """
    tau = siegel_reduce(tau)  # once: log_delta2 and log_h take it as reduced
    ld2 = log_delta2(tau)
    lh, lh_stderr, rejected = log_h(tau, config)

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
        phi_stderr=LOG_H_COEFFICIENTS["phi"] * lh_stderr,
        lambda_=lam_direct,
        residual=residual,
        rejected=rejected,
    )
