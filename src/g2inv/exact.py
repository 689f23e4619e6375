"""Exact arithmetic: the field, coercion, signs, ordering, the inverse.

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
(`sign_known_nonnegative`), the positivity of lengths and parameters
(`as_positive`) and the numeric order (`sort_exact`) of field elements;
Python's `<` on them is a structural order, not a numeric one.  sympy is
imported by the first `rational_function_field` call, so rational work
never loads it.

The one linear-algebra entry point, `inverse`, is a plain Gauss-Jordan
elimination on the field values themselves, the same code for both
fields: every + - * / already reduces to lowest terms, so no entry needs
a separate cleanup.  A genus-2 report inverts only the reduced Laplacian
of its stable model, which is at most 1 x 1.
"""

from __future__ import annotations

import math
import reprlib
import sys
from fractions import Fraction
from functools import cmp_to_key
from typing import Any, Iterable, Sequence


# the most digits a rational's text may spell, an exponent e counting as e
# digits.  A report's invariants have degree at most 6 in the numerator and
# denominator of a length (type VII), so an accepted input's report stays
# under 6 * 700 + a few digits: within the 4300 that Python prints by default
MAX_RATIONAL_DIGITS = 700


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
    """Coerce ints and 'p/q', decimal or exponent strings ("2.5", "1e-3") to
    Fraction, exactly; pass field elements through.

    Floats are rejected: graph data is exact by contract.  Text that names
    no rational, a zero denominator included, is a ValueError, and so is
    text that spells more than MAX_RATIONAL_DIGITS digits, refused before
    `Fraction` builds 10^e in full ("1e1000000").
    """
    if isinstance(x, Fraction) or _is_field_element(x):
        return x
    if isinstance(x, bool):
        raise TypeError("expected a rational number, got a bool")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if _spelled_digits(x) > MAX_RATIONAL_DIGITS:
            raise ValueError(f"{reprlib.repr(x)} spells more than {MAX_RATIONAL_DIGITS} digits")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, float):
        raise TypeError(
            "expected an exact rational (int, Fraction or 'p/q' string), got a float"
        )
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _spelled_digits(text: str) -> int:
    """The length of `text` before any exponent plus the exponent's size:
    at least the digits of the numerator and of the denominator it spells.
    Text longer than MAX_RATIONAL_DIGITS counts as its length, so a long
    exponent is never parsed; an exponent that is no integer counts as 0
    and is left to `Fraction` to refuse."""
    if len(text) > MAX_RATIONAL_DIGITS:
        return len(text)
    mantissa, _, exponent = text.lower().partition("e")
    try:
        return len(mantissa) + abs(int(exponent or 0))
    except ValueError:
        return len(mantissa)


def exceeds_digit_bound(x: Any) -> bool:
    """Whether x is a `Fraction` whose text p/q spells more than
    MAX_RATIONAL_DIGITS digits, the rule `as_rational` applies to text;
    field elements never do.  A sum of accepted values can pass the bound
    (their denominators multiply), so sums are checked with this."""
    if not isinstance(x, Fraction):
        return False
    # p/q spells at most (bits of p + bits of q) log10(2) + 2 digits, a "/"
    # and a sign; 4 bits a digit is past the bound, and str() of an int
    # past 4300 digits raises, so the text is spelled out only in between
    bits = x.numerator.bit_length(), x.denominator.bit_length()
    if sum(bits) * math.log10(2) + 4 <= MAX_RATIONAL_DIGITS:
        return False
    return max(bits) > 4 * MAX_RATIONAL_DIGITS or len(str(x)) > MAX_RATIONAL_DIGITS


def as_positive(x: Any, what: str) -> Any:
    """`as_rational(x)`, unless it is zero or known to be negative: then
    ValueError, naming `what`.  A field element of unknown sign passes."""
    x = as_rational(x)
    if x == 0 or sign_known_nonnegative(x) is False:
        raise ValueError(f"{what} must be positive, got {x}")
    return x


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


def inverse(matrix: Sequence[Sequence[Any]]) -> list:
    """The inverse of a square matrix, as rows of field values.

    Gauss-Jordan elimination of [M | I] with row swaps; every entry goes
    through `as_rational` first, so int entries come back as Fractions and
    no float can appear.  Raises ValueError on a singular matrix.
    """
    n = len(matrix)
    rows = [
        [*map(as_rational, row), *(Fraction(int(i == j)) for j in range(n))]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col] = [x / rows[col][col] for x in rows[col]]
        for r, row in enumerate(rows):
            if r != col and row[col] != 0:
                rows[r] = [x - row[col] * y for x, y in zip(row, top)]
    return [row[n:] for row in rows]
