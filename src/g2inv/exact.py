"""Exact arithmetic: the fields, coercion, signs, ordering, the inverse.

The graph half of the package computes over an exact field, and this is
the only module that knows which, and the only one that imports
`fractions`: `metric_graph`, `pm_invariants`, `fiber_catalog`, `formats`
and `cli` name no field.  A sum of theirs whose zero may meet an int
division starts from `as_rational(0)`, as 0 / 4 is a float, and a
rational of two ints is `as_rational(p) / q`.  Numbers are
`fractions.Fraction`.
Symbolic lengths, which is how the fiber-type table is regenerated as
rational functions of the edge lengths, are elements of a rational-function
field Q(a, b, ...) (`RationalFunction`, generators from
`rational_function_field`), built on the standard library alone: a
numerator and a denominator, each {exponent tuple: int}, which every
+ - * / ** leaves canonical: integer coefficients, no common factor,
polynomial or integer, and a positive lex-leading coefficient below.  So
`x == 0` is an exact zero test in either field, and equal values compare
equal, a field constant and its `Fraction` too.  Lowest terms come from a
primitive-PRS gcd (Brown, JACM 18, 1971; Knuth, TAOCP vol. 2, 4.6.1); *
and / cancel crosswise before they multiply (Henrici).  `str` prints an
element in the notation of the recorded table: `a/6 + b/6`, `a**2*b`,
`2*a*b*c/(a*b + a*c + b*c)`.

The generators are declared positive, which is what decides signs
(`sign_known_nonnegative`), the positivity of lengths and parameters
(`as_positive`) and the numeric order (`sort_exact`) of field elements;
`<` on them is a TypeError.

The one linear-algebra entry point, `inverse`, is a plain Gauss-Jordan
elimination on the field values themselves, the same code for both
fields: every + - * / already reduces to lowest terms, so no entry needs
a separate cleanup.  A genus-2 report inverts only the reduced Laplacian
of its stable model, which is at most 1 x 1.
"""

from __future__ import annotations

import math
import reprlib
from fractions import Fraction
from functools import cmp_to_key, reduce
from operator import add, sub
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
    field = RationalFunctionField(names.replace(",", " ").split())
    return (field, *field.gens)


def as_rational(x: Any) -> Any:
    """Coerce ints and 'p/q', decimal or exponent strings ("2.5", "1e-3") to
    Fraction, exactly; pass field elements through.

    Floats are rejected: graph data is exact by contract.  Text that names
    no rational, a zero denominator included, is a ValueError, and so is
    text that spells more than MAX_RATIONAL_DIGITS digits, refused before
    `Fraction` builds 10^e in full ("1e1000000").
    """
    if isinstance(x, (Fraction, RationalFunction)):
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
    if not isinstance(x, RationalFunction):
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
        if s == t:
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


# -- the rational-function field ---------------------------------------------
# Polynomials are dicts {exponent tuple: nonzero int}, never changed in
# place: a helper may return an argument itself as its answer.


def _neg(f: dict) -> dict:
    return {m: -c for m, c in f.items()}


def _padd(f: dict, g: dict) -> dict:
    h = dict(f)
    for m, c in g.items():
        h[m] = h.get(m, 0) + c
    return {m: c for m, c in h.items() if c}


def _pmul(f: dict, g: dict) -> dict:
    if len(f) > len(g):
        f, g = g, f
    if len(f) == 1:
        ((m, c),) = f.items()
        return g if c == 1 and not any(m) else {tuple(map(add, m, k)): c * e for k, e in g.items()}
    h: dict = {}
    for m, c in f.items():
        for k, e in g.items():
            mk = tuple(map(add, m, k))
            h[mk] = h.get(mk, 0) + c * e
    return {m: c for m, c in h.items() if c}


def _exquo(f: dict, g: dict) -> dict:
    """f / g, which must be a polynomial: long division in lex order."""
    if len(g) == 1:
        ((m, c),) = g.items()
        return f if c == 1 and not any(m) else {tuple(map(sub, k, m)): e // c for k, e in f.items()}
    lead = max(g)
    q = {}
    while f:
        m = max(f)
        e, c = tuple(map(sub, m, lead)), f[m] // g[lead]
        q[e] = c
        f = _padd(f, {tuple(map(add, e, k)): -c * v for k, v in g.items()})
    return q


def _coefficients(f: dict, i: int) -> dict:
    """f as {degree in x_i: coefficient}, each coefficient free of x_i."""
    cs: dict = {}
    for m, c in f.items():
        cs.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1:]] = c
    return cs


def _gcd(f: dict, g: dict) -> dict:
    """The gcd of nonzero f and g, with positive leading coefficient: for a
    monomial, from exponents and contents; with no generator in common, the
    integer content; else, in the common generator x_i of least degree, the
    gcd of the contents in x_i times the last nonzero remainder of the
    primitive PRS (each pseudo-remainder made primitive)."""
    if len(f) > len(g):
        f, g = g, f
    if len(f) == 1:
        ((m, c),) = f.items()
        return {tuple(map(min, m, *g)): math.gcd(c, *g.values())}
    degrees = zip(map(max, zip(*f)), map(max, zip(*g)))
    common = [(max(df, dg), j) for j, (df, dg) in enumerate(degrees) if df and dg]
    if not common:
        return {(0,) * len(next(iter(f))): math.gcd(*f.values(), *g.values())}
    i = min(common)[1]
    fc, gc = _coefficients(f, i), _coefficients(g, i)
    cf, cg = reduce(_gcd, fc.values()), reduce(_gcd, gc.values())
    content = _gcd(cf, cg)
    a, b = _exquo(f, cf), _exquo(g, cg)
    if max(fc) < max(gc):
        a, b = b, a
    while True:
        bc = _coefficients(b, i)
        db = max(bc)
        while a and max(ac := _coefficients(a, i)) >= db:  # a <- lc(b) a - lc(a) x_i^k b
            da = max(ac)
            shifted = {m[:i] + (da - db,) + m[i + 1:]: c for m, c in ac[da].items()}
            a = _padd(_pmul(bc[db], a), _neg(_pmul(shifted, b)))
        if not a:
            break
        if not max(ac):  # a nonzero remainder free of x_i: the primitive parts are coprime
            return content
        a, b = b, _exquo(a, reduce(_gcd, ac.values()))
    h = _pmul(content, b)
    return h if h[max(h)] > 0 else _neg(h)


def _invert(numer: dict, denom: dict) -> tuple:
    if not numer:
        raise ZeroDivisionError("division by zero in a rational-function field")
    return (denom, numer) if numer[max(numer)] > 0 else (_neg(denom), _neg(numer))


def _add(n1: dict, d1: dict, n2: dict, d2: dict) -> tuple:
    """n1/d1 + n2/d2: only a factor of g = gcd(d1, d2) can cancel in the sum."""
    if not n1 or not n2:
        return (n2, d2) if n2 else (n1, d1)
    g = _gcd(d1, d2)
    d1, d2 = _exquo(d1, g), _exquo(d2, g)
    numer = _padd(_pmul(n1, d2), _pmul(n2, d1))
    t = _gcd(numer, g) if numer else g
    return _exquo(numer, t), _pmul(_pmul(d1, d2), _exquo(g, t))


def _mul(n1: dict, d1: dict, n2: dict, d2: dict) -> tuple:
    """(n1/d1)(n2/d2), each numerator cancelled against the other denominator."""
    if not n1 or not n2:
        return {}, d1
    g1, g2 = _gcd(n1, d2), _gcd(n2, d1)
    return _pmul(_exquo(n1, g1), _exquo(n2, g2)), _pmul(_exquo(d1, g2), _exquo(d2, g1))


class RationalFunctionField:
    """Q(names), its generators `gens`."""

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        n = len(self.names)
        self.zero = (0,) * n
        self.one = {self.zero: 1}
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        self.gens = tuple(RationalFunction(self, {m: 1}, self.one) for m in units)

    def parts(self, x: Any) -> tuple | None:
        """(numer, denom) of an int, a Fraction or an element of Q(names), else None."""
        if type(x) is RationalFunction:
            return (x.numer, x.denom) if x.field.names == self.names else None
        if type(x) is not int and not isinstance(x, Fraction):
            return None
        q = x.denominator
        return {self.zero: x.numerator} if x else {}, self.one if q == 1 else {self.zero: q}

    def factors(self, m: tuple) -> list:
        return [name + f"**{e}" * (e > 1) for name, e in zip(self.names, m) if e]

    def text(self, poly: dict, q: int = 1) -> str:
        """poly / q term by term in falling lex order (`a**2/6 - b`), but a
        positive number before a negative multiple of one power (`1 - a`)."""
        terms = sorted(poly.items(), reverse=True)
        if (len(terms) == 2 and not any(terms[1][0]) and terms[1][1] > 0 > terms[0][1]
                and sum(map(bool, terms[0][0])) == 1):
            terms.reverse()
        text = ""
        for m, c in terms:
            c = Fraction(c, q)
            p = abs(c.numerator)
            above = "*".join([str(p)] * (p != 1 or not any(m)) + self.factors(m))
            text += (" - " if c < 0 else " + ") + above + f"/{c.denominator}" * (c.denominator != 1)
        return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]


def _operator(op):
    """A binary method of `RationalFunction` from op on (numer, denom) pairs."""

    def method(self, other):
        parts = self.field.parts(other)
        if parts is None:
            return NotImplemented
        numer, denom = op(self.numer, self.denom, *parts)
        return RationalFunction(self.field, numer, denom if numer else self.field.one)

    return method


class RationalFunction:
    """numer / denom in a `RationalFunctionField`, canonical (see above)."""

    __slots__ = ("field", "numer", "denom")

    def __init__(self, field: RationalFunctionField, numer: dict, denom: dict):
        self.field, self.numer, self.denom = field, numer, denom

    __add__ = __radd__ = _operator(_add)
    __sub__ = _operator(lambda n1, d1, n2, d2: _add(n1, d1, _neg(n2), d2))
    __rsub__ = _operator(lambda n1, d1, n2, d2: _add(n2, d2, _neg(n1), d1))
    __mul__ = __rmul__ = _operator(_mul)
    __truediv__ = _operator(lambda n1, d1, n2, d2: _mul(n1, d1, *_invert(n2, d2)))
    __rtruediv__ = _operator(lambda n1, d1, n2, d2: _mul(n2, d2, *_invert(n1, d1)))

    def __pow__(self, k):
        if type(k) is not int:
            return NotImplemented
        numer, denom = (self.numer, self.denom) if k >= 0 else _invert(self.numer, self.denom)
        p = q = self.field.one
        for _ in range(abs(k)):
            p, q = _pmul(p, numer), _pmul(q, denom)
        return RationalFunction(self.field, p, q)

    def __neg__(self):
        return RationalFunction(self.field, _neg(self.numer), self.denom)

    def __bool__(self):
        return bool(self.numer)

    def __eq__(self, other):
        parts = self.field.parts(other)
        return NotImplemented if parts is None else parts == (self.numer, self.denom)

    def __str__(self):
        """Term by term over a constant denominator, else numerator over
        denominator, a sum in parentheses: `(a + 1)/(2*b)`, `-a/(b + c)`."""
        field, numer, denom = self.field, self.numer, self.denom
        if denom.keys() == field.one.keys():
            return field.text(numer, denom[field.zero])
        if len(denom) > 1:
            below = [f"({field.text(denom)})"]
        else:
            ((m, c),) = denom.items()
            below = [str(c)] * (c != 1) + field.factors(m)
        if len(numer) > 1:
            sign, above = "", [f"({field.text(numer)})"]
        elif numer == field.one and len(below) == 1 and "**" in below[0] and below[0][0] != "(":
            return below[0].replace("**", "**(-") + ")"  # 1/a**2 is written a**(-2)
        else:
            ((m, c),) = numer.items()
            sign, above = "-" * (c < 0), [str(abs(c))] * (abs(c) != 1) + field.factors(m)
        below_text = below[0] if len(below) == 1 else f"({'*'.join(below)})"
        return f"{sign}{'*'.join(above) or '1'}/{below_text}"

    __repr__ = __str__
