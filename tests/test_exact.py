"""The exact field: coercion, the sign rule, ordering and the inverse, over
the rationals and over the rational-function field of the table; and the
reference solve in `oracles`, which shares no code with the inverse."""

import ast
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, strategies as st

from conftest import PROPERTY_SETTINGS
from oracles import solve

from g2inv.exact import (
    MAX_RATIONAL_DIGITS,
    as_positive,
    as_rational,
    exceeds_digit_bound,
    inverse,
    rational_function_field,
    sign_known_nonnegative,
    sort_exact,
)


def test_coercion():
    _, a = rational_function_field("a")
    assert as_rational("3/6") == Fraction(1, 2)
    assert as_rational(a) is a
    for bad in (True, 0.5, sympy.Symbol("a"), sympy.Rational(1, 2)):
        with pytest.raises(TypeError):
            as_rational(bad)


def test_rational_text_is_bounded():
    """Text may spell MAX_RATIONAL_DIGITS digits, an exponent e counting as
    e: up to the bound it parses exactly, past it it is a ValueError naming
    the text, raised before 10^e is built."""
    assert MAX_RATIONAL_DIGITS == 700
    assert as_rational("1e699") == 10**699
    assert as_rational("1e-699") == Fraction(1, 10**699)
    assert as_rational("25e-697") == Fraction(1, 4 * 10**695)
    assert as_rational("9" * 700) == 10**700 - 1
    assert as_rational("1/" + "7" * 698) == Fraction(1, int("7" * 698))
    for bad in ("1e700", "1E-700", "9" * 701, "1/" + "7" * 699, "1e1000000", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match=f"spells more than {MAX_RATIONAL_DIGITS} digits") as info:
            as_rational(bad)
        assert str(info.value).startswith(repr(bad)[:5])  # reprlib keeps the head


def test_digit_bound_applies_the_text_rule_to_values():
    """A Fraction is within the bound while its text p/q spells at most
    MAX_RATIONAL_DIGITS characters, as text is in `as_rational`, and past
    it also far beyond Python's 4300-digit print limit; field elements
    are never past it."""
    _, a = rational_function_field("a")
    widest = Fraction(1, int("7" * 698))
    assert len(str(widest)) == MAX_RATIONAL_DIGITS
    assert not exceeds_digit_bound(widest)
    assert not exceeds_digit_bound(Fraction(10**345, 10**345 + 1))
    assert not exceeds_digit_bound(a)
    for past in (Fraction(1, int("7" * 699)), Fraction(10**5000 + 1, 3)):
        assert exceeds_digit_bound(past)


def test_as_positive():
    """The one positivity rule of lengths and parameters: zero, a negative
    and text that names no rational are ValueErrors, non-exact types
    TypeErrors; a generator is positive by declaration."""
    _, a = rational_function_field("a")
    assert as_positive("3/6", "x") == Fraction(1, 2)
    assert as_positive(a, "x") is a
    for bad in (0, "1/0"):
        with pytest.raises(ValueError):
            as_positive(bad, "x")
    with pytest.raises(ValueError, match=r"^edge length must be positive, got -1$"):
        as_positive(-1, "edge length")
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            as_positive(bad, "x")


def test_elements_are_canonical():
    _, a, b = rational_function_field("a,b")
    assert (a * a - b * b) / (a - b) == a + b
    assert (a + 1) / a - 1 / a == 1
    assert (a / 3) / (b / 6) == 2 * a / b
    assert a / a - 1 == 0
    assert (a / a) / 2 == Fraction(1, 2)
    # the common factor a is of degree 1 in a*b + a, of degree 1 and 2 in a**2 + a
    assert (a * a + a) / (a * b + a) == (a + 1) / (b + 1)


def test_field_prints_as_sympy():
    """The text sympy prints for these, corner cases of its printer."""
    _, a, b = rational_function_field("a,b")
    cases = [
        (1 - a, "1 - a"),
        (1 - a * b, "-a*b + 1"),
        ((1 - a) / (b + 1), "(1 - a)/(b + 1)"),
        (1 / a**2, "a**(-2)"),
        (-1 / a**2, "-1/a**2"),
        (2 * a / (3 * b), "2*a/(3*b)"),
        ((a + b) / (2 * a * b), "(a + b)/(2*a*b)"),
        (-a / (b + 1), "-a/(b + 1)"),
        ((a + b) / 6, "a/6 + b/6"),
        (a * 0, "0"),
    ]
    assert [str(x) for x, _ in cases] == [text for _, text in cases]


def test_sign_rule():
    # generators are positive: a ratio of one-signed polynomials has a sign
    _, a, b = rational_function_field("a,b")
    assert sign_known_nonnegative(a) is True
    assert sign_known_nonnegative((a + b) / (2 * a * b)) is True
    assert sign_known_nonnegative(-a / (b + 1)) is False
    assert sign_known_nonnegative(-a / (-b - 1)) is True
    assert sign_known_nonnegative(a - a) is True
    assert sign_known_nonnegative(a - b) is None
    assert sign_known_nonnegative(a / (a - b)) is None
    assert sign_known_nonnegative(Fraction(-1, 3)) is False


def test_sort_exact():
    assert sort_exact([Fraction(1, 2), Fraction(0), Fraction(1, 3), Fraction(1, 2)]) == [
        0, Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)
    ]
    _, a, b = rational_function_field("a,b")
    with pytest.raises(TypeError):
        a < a / 2  # noqa: B015 - only sort_exact orders field elements
    assert sort_exact([a, a / 2, 3 * a / 4]) == [a / 2, 3 * a / 4, a]
    with pytest.raises(ValueError):
        sort_exact([a, b])


def test_solves_pivot_in_both_fields():
    # a zero leading entry forces a row swap, in the inverse and the reference
    F = Fraction
    want = [[F(-1, 6), F(1, 3)], [F(1, 2), 0]]
    solution = solve([[F(0), F(2)], [F(3), F(1)]], [F(4), F(5)])
    assert all(isinstance(x, Fraction) for x in solution) and solution == [1, 2]
    # int entries come back as Fractions: no float, not even 0 / 1 == 0.0
    for matrix in ([[F(0), F(2)], [F(3), F(1)]], [[0, 2], [3, 1]]):
        result = inverse(matrix)
        assert result == want
        assert all(isinstance(x, Fraction) for x in [*result[0], *result[1]])
    _, a, b = rational_function_field("a,b")
    assert solve([[0, a], [b, 1]], [a, b + 1]) == [1, 1]
    assert inverse([[0, a], [b, 1]]) == [[-1 / (a * b), 1 / b], [1 / a, 0]]
    assert inverse([[a, 1], [1, 0]]) == [[0, 1], [1, -a]]
    with pytest.raises(ValueError):
        inverse([[a, b], [2 * a, 2 * b]])
    with pytest.raises(ValueError):
        solve([[a, b], [2 * a, 2 * b]], [1, 1])


# -- the eliminations, checked by direct multiplication only -----------------

ENTRIES = st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=7))
NONZERO = st.fractions(-9, 9, max_denominator=7).filter(lambda x: x != 0)


def _matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


@st.composite
def nonsingular_matrices(draw, max_size=8):
    """P L U with L lower triangular (nonzero diagonal, zeros allowed below),
    U unit upper triangular and P a permutation: nonsingular by
    construction.  A permuted row of L that starts with zero gives a zero
    leading entry, which forces a row swap."""
    n = draw(st.integers(0, max_size))
    lower = [
        [draw(ENTRIES) if j < i else draw(NONZERO) if j == i else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    upper = [
        [draw(ENTRIES) if j > i else Fraction(int(j == i)) for j in range(n)]
        for i in range(n)
    ]
    order = draw(st.permutations(range(n)))
    product = _matmul(lower, upper)
    return [product[i] for i in order]


@PROPERTY_SETTINGS
@given(nonsingular_matrices(), st.lists(ENTRIES, min_size=8, max_size=8))
def test_elimination_inverts_and_solves(matrix, rhs):
    n = len(matrix)
    b = rhs[:n]
    result = inverse(matrix)
    assert _matmul(matrix, result) == _identity(n)
    assert all(isinstance(x, Fraction) for row in result for x in row)
    x = solve(matrix, b)
    assert _matmul(matrix, [[v] for v in x]) == [[v] for v in b]


@PROPERTY_SETTINGS
@given(
    st.integers(2, 8).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n),
            st.integers(0, n - 1),
            st.integers(1, n - 1),
            ENTRIES,
        )
    )
)
def test_elimination_rejects_a_scaled_duplicate_row(case):
    matrix, source, shift, factor = case
    n = len(matrix)
    matrix[(source + shift) % n] = [factor * x for x in matrix[source]]
    with pytest.raises(ValueError, match="singular system"):
        inverse(matrix)
    with pytest.raises(ValueError, match="singular system"):
        solve(matrix, [Fraction(1)] * n)


def test_elimination_over_rational_functions():
    _, a, b = rational_function_field("a,b")
    # mixed int, Fraction and field entries; a zero leading entry
    matrix = [
        [0, a / b, Fraction(1, 2)],
        [b + 1, 2, a * b],
        [Fraction(-3, 4), 1 / (a + b), 5],
    ]
    rhs = [a, Fraction(2, 3), b / (a + 1)]
    result = inverse(matrix)
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*result)] for row in matrix]
    assert all(product[i][j] - int(i == j) == 0 for i in range(3) for j in range(3))
    x = solve(matrix, rhs)
    assert all(sum(m * v for m, v in zip(row, x)) - r == 0 for row, r in zip(matrix, rhs))


def test_nonarch_and_table_do_not_load_sympy():
    code = (
        "import sys, g2inv.cli\n"
        "for argv in (['nonarch', '--type', 'VII', '--params', '1,2,3'], ['table'],\n"
        "             ['table', '--format', 'structured']):\n"
        "    assert g2inv.cli.main(argv) == 0\n"
        "    assert 'sympy' not in sys.modules, argv"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)


def test_reference_solve_shares_no_code_with_the_runtime():
    """`oracles` imports nothing from `g2inv.exact` and asks no graph for a
    resistance, so its Poisson route is independent of `inverse`."""
    nodes = list(ast.walk(ast.parse(Path(__file__).with_name("oracles.py").read_text())))
    imports = [n for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))]
    names = [f"{getattr(n, 'module', '')}.{a.name}".lstrip(".") for n in imports for a in n.names]
    assert names and not any(name.startswith("g2inv.exact") for name in names)
    calls = [n.func for n in nodes if isinstance(n, ast.Call)]
    assert not any(isinstance(f, ast.Attribute) and f.attr == "resistance" for f in calls)


# -- the rational-function field against sympy's, the oracle it replaced -----

LEAVES = st.one_of(st.sampled_from("abc"), st.fractions(-3, 3, max_denominator=4))
TREES = st.recursive(
    LEAVES,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/"), sub, sub),
        st.tuples(st.just("**"), sub, st.sampled_from((-2, -1, 1, 2, 3))),  # sympy refuses 0**0
    ),
    max_leaves=8,
)
POINTS = st.lists(
    st.fractions(Fraction(1, 9), 9, max_denominator=9).filter(lambda x: x > 0),
    min_size=3, max_size=3,
)


def _evaluate(tree, leaf):
    """The tree's value with each leaf mapped by `leaf`; a division by zero
    raises ZeroDivisionError in every field."""
    if not isinstance(tree, tuple):
        return leaf(tree)
    op, x, y = tree
    x = _evaluate(x, leaf)
    if op == "**":  # sympy's x**-k may leave a negative leading coefficient below; 1 / x**k not
        return x**y if y > 0 else 1 / x**-y
    y = _evaluate(y, leaf)
    return x + y if op == "+" else x - y if op == "-" else x * y if op == "*" else x / y


def _leaf_of(gens, rational):
    return lambda x: gens["abc".index(x)] if isinstance(x, str) else rational(x)


def _value_at(poly, point):
    return sum(c * math.prod(p**e for p, e in zip(point, m)) for m, c in poly.items())


@PROPERTY_SETTINGS
@given(TREES, st.lists(POINTS, min_size=3, max_size=3))
def test_field_matches_sympy_and_fractions(tree, points):
    """Random + - * / ** trees over a, b, c and small rationals: the field's
    text and zero test are sympy's, and its value at positive rational
    points is the tree's value there in Fraction arithmetic."""
    from sympy.polys.domains import QQ
    from sympy.polys.fields import field

    _, *our_gens = rational_function_field("a,b,c")
    ours = _leaf_of(our_gens, (our_gens[0] * 0).__add__)  # a rational as a field constant
    their_field, *their_gens = field("a,b,c", QQ)
    theirs = _leaf_of(their_gens, lambda x: their_field(sympy.Rational(x.numerator, x.denominator)))
    try:
        want = _evaluate(tree, theirs)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            _evaluate(tree, ours)
        return
    got = _evaluate(tree, ours)
    assert str(got) == str(want.as_expr())
    assert (got == 0) == (want == 0)
    for point in points:
        try:
            value = _evaluate(tree, _leaf_of(point, Fraction))
        except ZeroDivisionError:
            continue  # a pole of the tree, or of a subtree, at this point
        assert Fraction(_value_at(got.numer, point), _value_at(got.denom, point)) == value
