"""Properties of the canonical rational normal form, with sympy as oracle.

Each example is a small expression tree over x, y, z and small fractions,
built twice: as a ScalarExpr and as a sympy expression.  Pairs are either
drawn independently or rewritten into a different but equal expression,
so both sides of "a - b is zero" are exercised.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corankone import Chart, parse_scalar, rational, symbol  # noqa: E402

CHART = Chart(("x", "y", "z"))
SYMBOLS = {name: sympy.Symbol(name) for name in CHART.coords}
ONE, TWO, THREE = Fraction(1), Fraction(2), Fraction(3)

leaves = st.one_of(
    st.sampled_from(CHART.coords),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)
trees = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/"), sub, sub),
        st.tuples(st.just("^"), sub, st.integers(-2, 3)),
    ),
    max_leaves=6,
)


def build(tree):
    """(ScalarExpr, sympy expression) of one tree; x/0 and 0^-k read as x and 0."""
    if isinstance(tree, str):
        return symbol(tree), SYMBOLS[tree]
    if isinstance(tree, Fraction):
        return rational(tree), sympy.Rational(tree.numerator, tree.denominator)
    op, left, right = tree
    a, sa = build(left)
    if op == "^":
        if right < 0 and a.is_structural_zero:
            return a, sa
        return a**right, sa**right
    b, sb = build(right)
    if op == "+":
        return a + b, sa + sb
    if op == "-":
        return a - b, sa - sb
    if op == "*":
        return a * b, sa * sb
    if b.is_structural_zero:
        return a, sa
    return a / b, sa / sb


def rewrite(tree, other, how):
    """An expression tree equal to tree, taking a detour through other.

    g = 2 other^2 + 3x + 1 is never zero, and dividing by it makes the
    normal form cancel a common factor and rescale to a monic denominator.
    """
    g = ("+", ("*", TWO, ("*", other, other)), ("+", ("*", THREE, "x"), ONE))
    if how == 0:
        return ("-", ("+", tree, other), other)
    if how == 1:
        return ("/", ("*", tree, g), g)
    return ("-", ("/", ("+", ("*", tree, g), ("*", other, g)), g), other)


# a quotient on the left, so that the rewrite has a denominator to cancel against
quotients = st.builds(lambda n, d: ("/", n, d), trees, trees)
equal_pairs = st.builds(
    lambda t, o, how: (t, rewrite(t, o, how)), quotients, trees, st.integers(0, 2)
)
pairs = st.one_of(st.tuples(trees, trees), equal_pairs)


@given(pairs)
def test_equal_values_are_identical(pair):
    a, _ = build(pair[0])
    b, _ = build(pair[1])
    if (a - b).is_structural_zero:
        assert a == b
    if a == b:
        assert str(a) == str(b)
        assert hash(a) == hash(b)


@given(trees)
def test_parse_inverts_printing(tree):
    e, _ = build(tree)
    assert parse_scalar(str(e), CHART) == e


@given(pairs)
def test_structural_zero_agrees_with_sympy(pair):
    a, sa = build(pair[0])
    b, sb = build(pair[1])
    assert (a - b).is_structural_zero == (sympy.cancel(sa - sb) == 0)
