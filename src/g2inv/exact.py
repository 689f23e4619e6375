"""Exact arithmetic helpers: coercion, zero tests, dense linear solves.

The graph half of the package computes over an exact field.  The default
field is `fractions.Fraction`; the same code paths also accept elements of
a symbolic field (sympy expressions), which is how the fiber-type tables
are regenerated as rational functions of the edge lengths.  Everything
that needs to know which field it is in lives here: coercion, zero
testing, and Gaussian elimination (one solve, or one factorization for a
whole inverse).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Sequence


def is_symbolic(x: Any) -> bool:
    """True for elements of a symbolic field (sympy expressions)."""
    return hasattr(x, "free_symbols")


def as_rational(x: Any) -> Any:
    """Coerce ints and 'p/q' strings to Fraction; pass field elements through.

    Floats are rejected: graph data is exact by contract.
    """
    if isinstance(x, Fraction):
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
    if is_symbolic(x):
        return x
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def simplify_exact(x: Any) -> Any:
    """Put a field element into canonical form (no-op for Fraction)."""
    if is_symbolic(x):
        import sympy

        return sympy.cancel(x)
    return x


def is_exact_zero(x: Any) -> bool:
    """Exact zero test, sound for rationals and for rational functions."""
    if is_symbolic(x):
        import sympy

        return sympy.cancel(x) == 0
    return x == 0


def sign_known_nonnegative(x: Any) -> bool | None:
    """Best-effort x >= 0 test: True/False when decidable, None otherwise."""
    if is_symbolic(x):
        import sympy

        nn = sympy.cancel(x).is_nonnegative
        return None if nn is None else bool(nn)
    return x >= 0


def solve_dense(matrix: Sequence[Sequence[Any]], rhs: Sequence[Any]) -> list:
    """Solve a square system exactly by Gaussian elimination.

    Raises ValueError on a singular matrix.  Entries may be Fractions or
    elements of any exact field supporting +, -, *, / and a sound zero test.
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
            if not is_exact_zero(aug[r][col]):
                pivot_row = r
                break
        if pivot_row is None:
            raise ValueError("singular system")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, n):
            factor = simplify_exact(aug[r][col] / pivot)
            if is_exact_zero(factor):
                continue
            for c in range(col, width):
                aug[r][c] = simplify_exact(aug[r][c] - factor * aug[col][c])
    sol: list = [None] * n
    for row in range(n - 1, -1, -1):
        values = []
        for k in range(n, width):
            acc = aug[row][k]
            for c in range(row + 1, n):
                acc = acc - aug[row][c] * sol[c][k - n]
            values.append(simplify_exact(acc / aug[row][row]))
        sol[row] = values
    return sol
