"""Exact arithmetic: the field, coercion, signs, ordering, the ring inverse.

The graph half of the package computes over an exact field, and this is
the only module that knows which.  Numbers are `fractions.Fraction`.
Symbolic lengths, which is how the fiber-type table is regenerated as
rational functions of the edge lengths, are elements of a rational-function
field Q(a, b, ...) (sympy's `FracElement`, generators from
`rational_function_field`).  Both kinds are canonical as soon as they are
built: every + - * / reduces to lowest terms, so `x == 0` is an exact zero
test in either field.  One caveat: sympy never finds a field constant equal
to a non-integer `Fraction` (`(a/a)/2 == Fraction(1, 2)` is False), so
values that may be of different kinds are compared as `x - y == 0`.

The generators are declared positive, which is what decides signs
(`sign_known_nonnegative`) and the numeric order (`sort_exact`) of
field elements; Python's `<` on them is a structural order, not a numeric
one.  sympy is imported by the first `rational_function_field` call, so
rational work never loads it.

The one linear-algebra entry point, `ring_inverse`, inverts a matrix by
one fraction-free loop with n right-hand sides, Bareiss's elimination
(Math. Comp. 22, 1968), in the ring of numerators: Z for rational
entries, the polynomial ring Q[a, b, ...] once any entry is a field
element.  Each row is scaled by the lcm of its denominators, every
update (p a_rc - f a_kc) / prev is an exact ring division, and
back-substitution against the last pivot det gives Y = det M^-1 in the
ring.  No entry is rebuilt as a field value: `RingInverse` keeps Y and
det as they are, so a caller combines entries in the ring and pays one
reduction per value it reads.  `_ring_of` supplies the few kind-specific
pieces; the loop itself never changes.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, reduce
from typing import Any, Iterable, Sequence


def rational_function_field(names: str) -> tuple:
    """The field Q(names) and its generators: K, a, b = ...("a,b").

    The generators are positive by declaration (see `sign_known_nonnegative`).
    """
    from sympy.polys.domains import QQ
    from sympy.polys.fields import field

    return field(names, QQ)


def _is_field_element(x: Any) -> bool:
    # until sympy's fields are imported, no field element can exist
    fields = sys.modules.get("sympy.polys.fields")
    return fields is not None and isinstance(x, fields.FracElement)


def as_rational(x: Any) -> Any:
    """Coerce ints and 'p/q' strings to Fraction; pass field elements through.

    Floats are rejected: graph data is exact by contract.
    """
    if isinstance(x, Fraction) or _is_field_element(x):
        return x
    if isinstance(x, bool):
        raise TypeError("expected a rational number, got a bool")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError(
            "expected an exact rational (int, Fraction or 'p/q' string), got a float"
        )
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def sign_known_nonnegative(x: Any) -> bool | None:
    """x >= 0 when decidable, None otherwise.

    A field element is a ratio of polynomials in positive generators, so
    its sign is known when the numerator and the denominator each have
    all their coefficients of one sign.
    """
    if not _is_field_element(x):
        return x >= 0
    if x == 0:
        return True
    numer, denom = ({c > 0 for c in p.values()} for p in (x.numer, x.denom))
    if len(numer) != 1 or len(denom) != 1:
        return None
    return numer == denom


def sort_exact(values: Iterable[Any]) -> list:
    """The values in increasing order, decided by `sign_known_nonnegative`.

    Raises ValueError when two of them cannot be ordered.
    """

    def compare(s: Any, t: Any) -> int:
        if s - t == 0:
            return 0
        nonneg = sign_known_nonnegative(t - s)
        if nonneg is None:
            raise ValueError(f"cannot order {s} and {t}")
        return -1 if nonneg else 1

    return sorted(values, key=cmp_to_key(compare))


def ring_inverse(
    matrix: Sequence[Sequence[Any]], context: Iterable[Any] = ()
) -> RingInverse:
    """The inverse of a square matrix, left in the ring of numerators.

    One elimination with n right-hand sides, and no entry is rebuilt as
    a field value.  The ring is chosen from the entries and the `context`
    values together, so values of the context's field can later be
    brought into it (`RingInverse.in_ring`).  Raises ValueError on a
    singular matrix.
    """
    ring = _ring_of([x for row in matrix for x in row] + list(context))
    return RingInverse(ring, *_eliminate(matrix, ring))


@dataclass(frozen=True)
class RingInverse:
    """M^-1 = Y / det, with Y (its rows `y`) and det in the ring of numerators.

    Combine entries y[i][j] with ring arithmetic (+, -, and * by ints or
    ring elements) and turn each combination into one field value, reduced
    once, with `value`.  `in_ring` writes field values as ring numerators
    over one common denominator, so they can take part in a combination.
    """

    ring: _Ring
    y: list
    det: Any

    def value(self, numerator: Any, denominator: Any = None) -> Any:
        """The field value numerator / (denominator det) in lowest terms;
        both are ring elements, the denominator 1 when omitted."""
        det = self.det if denominator is None else denominator * self.det
        return self.ring.rebuild(numerator, det)

    def in_ring(self, values: Iterable[Any]) -> tuple[list, Any]:
        """(numerators, d) with each value = numerator / d, all in the ring."""
        return _common_denominator(self.ring, values)


# the kind-specific pieces of the elimination (see `_ring_of`)
_Ring = namedtuple("_Ring", "split lcm quotient rebuild one")


def _ring_of(entries: Iterable[Any]) -> _Ring:
    """The ring the entries have their numerators in, as its pieces.

    `split(x)` is (numerator, denominator) in the ring, `lcm(*ds)` a common
    multiple, `quotient(p, q)` the exact ring quotient, `rebuild(p, q)` the
    field value p/q in lowest terms.  The ring is Z for ints and Fractions,
    and the polynomial ring of the field once any entry is a field element.
    """
    fields = sys.modules.get("sympy.polys.fields")
    element = None
    if fields is not None:
        element = next((x for x in entries if isinstance(x, fields.FracElement)), None)
    if element is None:
        split = operator.attrgetter("numerator", "denominator")
        return _Ring(split, math.lcm, operator.floordiv, Fraction, 1)
    field = element.field
    ring = field.ring

    def split(x: Any) -> tuple:
        if isinstance(x, fields.FracElement):
            return x.numer, x.denom
        return ring(x.numerator), ring(x.denominator)

    def lcm(*denominators: Any) -> Any:
        return reduce(lambda p, q: p.lcm(q), denominators, ring.one)

    return _Ring(split, lcm, lambda p, q: p.exquo(q), field.new, ring.one)


def _common_denominator(ring: _Ring, values: Iterable[Any]) -> tuple[list, Any]:
    """(numerators, d) with each value = numerator / d, all in the ring."""
    parts = [ring.split(x) for x in values]
    d = ring.lcm(*(q for _, q in parts))
    return [p * ring.quotient(d, q) for p, q in parts], d


def _eliminate(matrix: Sequence[Sequence[Any]], ring: _Ring) -> tuple[list, Any]:
    """(Y, det) with Y = det M^-1, all in the ring, by fraction-free
    elimination of [M | I] (see the module docstring).  Raises ValueError
    on a singular matrix."""
    n = len(matrix)
    quotient = ring.quotient
    aug = [
        _common_denominator(ring, (*row, *(int(i == j) for j in range(n))))[0]
        for i, row in enumerate(matrix)
    ]
    prev = ring.one
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("singular system")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        top = aug[col]
        pivot = top[col]
        for r in range(col + 1, n):
            row = aug[r]
            f = row[col]
            if f == 0:  # the same update, without the zero product
                row[col + 1:] = [quotient(pivot * x, prev) for x in row[col + 1:]]
            else:
                row[col + 1:] = [
                    quotient(pivot * x - f * y, prev)
                    for x, y in zip(row[col + 1:], top[col + 1:])
                ]
        prev = pivot
    det = prev
    sol: list = [None] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = [det * y for y in row[n:]]
        for c in range(i + 1, n):
            u = row[c]
            if u != 0:
                acc = [a - u * s for a, s in zip(acc, sol[c])]
        sol[i] = [quotient(a, row[i]) for a in acc]
    return sol, det
