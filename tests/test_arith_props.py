"""The operand shortcuts of ScalarExpr arithmetic against the generic path.

Each operand is built by the normalizing constructor over x, y and exp(x):
zero, a rational constant, a polynomial, or a quotient.  A pair either
draws both operands independently or puts two numerators over one drawn
denominator, so equal denominators in `+` are met often.  The reference
result of each operator is computed here from `_unify`, `_p_mul` and the
normalizing constructor, the path every operand kind took before the
shortcuts.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corankone import ScalarExpr, exp, rational, symbol  # noqa: E402
from corankone.errors import ExprError  # noqa: E402
from corankone.expr import ZERO, _p_add, _p_mul, _unify  # noqa: E402

GENS = ("x", "y") + exp(symbol("x")).gens
UNIT = {(0, 0, 0): Fraction(1)}

coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), coeffs, max_size=3)
dens = polys.filter(lambda p: any(p.values()))

operands = st.one_of(
    st.just(ZERO),
    coeffs.map(rational),
    polys.map(lambda num: ScalarExpr(GENS, num, UNIT)),
    st.builds(lambda num, den: ScalarExpr(GENS, num, den), polys, dens),
)
shared = st.builds(
    lambda a, b, den: (ScalarExpr(GENS, a, den), ScalarExpr(GENS, b, den)),
    polys,
    polys,
    dens,
)
pairs = st.one_of(st.tuples(operands, operands), shared)


def generic(op, a, b):
    """a op b on the _unify / _p_mul / _normalize path."""
    if op == "-":
        op, b = "+", -b
    gens, a_num, a_den, b_num, b_den = _unify(a, b)
    if op == "+":
        num = _p_add(_p_mul(a_num, b_den), _p_mul(b_num, a_den))
        den = _p_mul(a_den, b_den)
    elif op == "*":
        num, den = _p_mul(a_num, b_num), _p_mul(a_den, b_den)
    else:
        num, den = _p_mul(a_num, b_den), _p_mul(a_den, b_num)
    return ScalarExpr(gens, num, den)


OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


# four operators over many operand kinds: more examples than the profile's
@settings(max_examples=400)
@given(pairs, st.sampled_from(sorted(OPS)))
def test_shortcuts_match_generic_path(pair, op):
    a, b = pair
    if op == "/" and b.is_structural_zero:
        with pytest.raises(ExprError):
            a / b
        return
    got = OPS[op](a, b)
    want = generic(op, a, b)
    assert got == want
    assert got.gens == want.gens
    assert str(got) == str(want)
    assert hash(got) == hash(want)
    if not got.gens:
        assert set(got.num) <= {0} and set(got.den) == {0} and got.den[0] > 0
        assert math.gcd(got.num.get(0, 0), got.den[0]) == 1
