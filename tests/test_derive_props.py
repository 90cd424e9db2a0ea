"""The logarithmic derivative of one-term quotients against the quotient rule.

`ScalarExpr._derive` takes a one-term `e = c prod g_i^k_i` by
`e sum_i k_i (log g_i)'` when each generator that depends on the name is
the name itself or `exp(u)` with a rational-constant `u'`, and by the
quotient rule otherwise.  Monomials are drawn from coordinates, a
parameter, exponentials of arguments with rational slopes (several at a
time), and, to reach the fallback, `exp(a*x)` and `sin(x)`, each to an
exponent of either sign; both routes must give the same canonical form,
hence the same text and hash.  A few fixed cases are checked against sympy.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import event, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corankone import Chart, exp, parse_scalar, rational, sin, symbol  # noqa: E402
from corankone import expr  # noqa: E402

CHART = Chart(("x", "y", "z"), params=("a",))
NAMES = ("x", "y", "z", "a")

fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
nonzero = st.builds(
    lambda n, d, sign: Fraction(sign * n, d), st.integers(1, 3), st.integers(1, 3), st.sampled_from((-1, 1))
)

# exp(c0 + c1 u + c2 w) with rational c_i, c1 nonzero, and {u, w} = {x, y}:
# every slope is a rational constant
linear_exps = st.builds(
    lambda c0, c1, c2, uw: exp(rational(c0) + rational(c1) * symbol(uw[0]) + rational(c2) * symbol(uw[1])),
    fractions, nonzero, fractions, st.sampled_from(("xy", "yx")),
)
generators = st.one_of(
    st.sampled_from(NAMES).map(symbol),
    linear_exps,
    st.sampled_from([exp(symbol("a") * symbol("x")), exp(symbol("x") * symbol("y")), sin(symbol("x"))]),
)
monomials = st.builds(
    lambda c, factors: _product(rational(c), factors),
    nonzero,
    st.lists(st.tuples(generators, st.integers(-3, 3)), min_size=1, max_size=4),
)


def _product(c, factors):
    out = c
    for g, k in factors:
        out = out * g**k
    return out


def _routable(e, name):
    """Whether the logarithmic route applies to e and the name."""
    for g in e.gens:
        if not isinstance(g, str):
            du = g.arg.derive(name)
            if du.num and (g.fn != "exp" or du.gens):
                return False
    return True


@given(monomials, st.sampled_from(NAMES))
def test_monomial_route_is_the_quotient_rule(e, name):
    if not e.gens:
        return
    assert (len(e.num), len(e.den)) == (1, 1)
    want = expr._quotient_rule(e, name)
    got = expr._monomial_derivative(e, name)
    assert (got is not None) == _routable(e, name)
    event("logarithmic route" if got is not None else "quotient rule")
    if got is not None:
        assert got == want
        assert str(got) == str(want)
        assert hash(got) == hash(want)
        assert got.gens == want.gens
    assert e.derive(name) == want


SYMPY = {name: sympy.Symbol(name) for name in NAMES}


@pytest.mark.parametrize(
    "text, name",
    [
        ("-3/2/exp(x)", "x"),
        ("x^3*exp(2*x)/y^2", "x"),
        ("x^3*exp(2*x)/y^2", "y"),
        ("exp(x - 3*y/2)^2/x", "y"),
        ("5*a^2*exp(x/3)/(7*x^2)", "x"),
        ("exp(x)*exp(x + y)*y", "x"),
        ("x", "x"),
        ("1/z^4", "z"),
    ],
)
def test_monomial_route_matches_sympy(text, name):
    e = parse_scalar(text, CHART)
    assert expr._monomial_derivative(e, name) is not None
    got = sympy.sympify(str(e.derive(name)).replace("^", "**"), locals=SYMPY)
    want = sympy.diff(sympy.sympify(text.replace("^", "**"), locals=SYMPY), SYMPY[name])
    assert sympy.simplify(got - want) == 0
