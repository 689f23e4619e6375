"""The exact field: coercion, the sign rule, ordering and linear solves, over
the rationals and over the rational-function field of the table."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from g2inv.exact import (
    as_rational,
    inverse_dense,
    rational_function_field,
    sign_known_nonnegative,
    solve_dense,
    sort_exact,
)


def test_coercion():
    _, a = rational_function_field("a")
    assert as_rational("3/6") == Fraction(1, 2)
    assert as_rational(a) is a
    for bad in (True, 0.5, sympy.Symbol("a"), sympy.Rational(1, 2)):
        with pytest.raises(TypeError):
            as_rational(bad)


def test_elements_are_canonical():
    _, a, b = rational_function_field("a,b")
    assert (a * a - b * b) / (a - b) == a + b
    assert (a + 1) / a - 1 / a == 1
    assert (a / 3) / (b / 6) == 2 * a / b
    assert a / a - 1 == 0


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
    assert a < a / 2  # Python's order on field elements is structural
    assert sort_exact([a, a / 2, 3 * a / 4]) == [a / 2, 3 * a / 4, a]
    with pytest.raises(ValueError):
        sort_exact([a, b])


def test_solves_pivot_in_both_fields():
    F = Fraction
    solution = solve_dense([[F(0), F(2)], [F(3), F(1)]], [F(4), F(5)])
    assert solution == [1, 2] and all(isinstance(x, Fraction) for x in solution)
    _, a, b = rational_function_field("a,b")
    # a zero leading entry forces a row swap
    assert solve_dense([[0, a], [b, 1]], [a, b + 1]) == [1, 1]
    assert inverse_dense([[a, 1], [1, 0]]) == [[0, 1], [1, -a]]
    with pytest.raises(ValueError):
        solve_dense([[a, b], [2 * a, 2 * b]], [1, 1])


def test_rational_work_does_not_load_sympy():
    code = (
        "import sys, g2inv.cli\n"
        "g2inv.cli.main(['nonarch', '--type', 'VII', '--params', '1,2,3'])\n"
        "assert 'sympy' not in sys.modules"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)
