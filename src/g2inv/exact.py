"""Exact arithmetic: the field, coercion, signs, ordering, dense linear solves.

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
one.  Gaussian elimination (one solve, or one factorization for a whole
inverse) works in either field.  sympy is imported by the first
`rational_function_field` call, so rational work never loads it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cmp_to_key
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


def solve_dense(matrix: Sequence[Sequence[Any]], rhs: Sequence[Any]) -> list:
    """Solve a square system exactly by Gaussian elimination.

    Raises ValueError on a singular matrix.
    """
    return [row[0] for row in _solve_block(matrix, [[b] for b in rhs])]


def inverse_dense(matrix: Sequence[Sequence[Any]]) -> list:
    """The exact inverse of a square matrix: one elimination, n right-hand sides.

    Raises ValueError on a singular matrix.
    """
    n = len(matrix)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return _solve_block(matrix, identity)


def _solve_block(matrix: Sequence[Sequence[Any]], rhs: Sequence[Sequence[Any]]) -> list:
    """Solve matrix X = rhs for a block of right-hand sides (rows of rhs)."""
    n = len(matrix)
    aug = [list(row) + list(rhs[i]) for i, row in enumerate(matrix)]
    width = len(aug[0]) if n else 0
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if aug[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            raise ValueError("singular system")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, n):
            factor = aug[r][col] / pivot
            if factor == 0:
                continue
            for c in range(col, width):
                aug[r][c] = aug[r][c] - factor * aug[col][c]
    sol: list = [None] * n
    for row in range(n - 1, -1, -1):
        values = []
        for k in range(n, width):
            acc = aug[row][k]
            for c in range(row + 1, n):
                acc = acc - aug[row][c] * sol[c][k - n]
            values.append(acc / aug[row][row])
        sol[row] = values
    return sol
