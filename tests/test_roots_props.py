"""Exact b-transversality against sympy as oracle.

Polynomials are drawn as products of small integer factors raised to
powers, so that multiple roots are common.  The root isolation of
`roots._real_roots` is compared with `Poly.count_roots` on an interval
and on the whole line, and its multiple roots with the factors of
multiplicity two or more in `sqf_list`.  Trigonometric top coefficients
in sin(theta) and cos(theta) go through `b_transversality_check` and are
compared with the real roots sympy finds after its own Weierstrass
substitution, plus the point theta = pi where it is undefined.  The
integer-pair isolation is also compared, value for value, with the same
isolation over Fractions in `oracles.fraction_real_roots`, and its Sturm
sequences, member for member, with `oracles._fraction_sturm`.  The dense
lists drawn here are converted to packed polynomials by `packed`.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import assume, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corankone import Chart, ZeroTester, cos, rational, sin, symbol  # noqa: E402
from corankone import expr as ex  # noqa: E402
from corankone.bgeom import b_transversality_check  # noqa: E402
from corankone.calculus import MultiVector  # noqa: E402
from corankone.poisson import PoissonStructure  # noqa: E402
from corankone.roots import _real_roots, _sturm  # noqa: E402

from oracles import _fraction_sturm, fraction_real_roots  # noqa: E402

X = sympy.Symbol("x")
S, C, T = sympy.symbols("s c t")


def factored(variables):
    """A nonzero constant times up to three factors, each with small
    integer coefficients in the given monomials and raised to a power 1-3."""
    factor = st.lists(st.integers(-4, 4), min_size=len(variables), max_size=len(variables))
    return st.tuples(
        st.integers(-3, 3).filter(bool),
        st.lists(st.tuples(factor, st.integers(1, 3)), min_size=1, max_size=3),
    ).map(
        lambda pair: pair[0]
        * sympy.prod(
            sum(c * v for c, v in zip(coeffs, variables)) ** k for coeffs, k in pair[1]
        )
    ).map(sympy.expand)


bounds = st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(
    lambda pair: pair[0] < pair[1]
).map(lambda pair: (Fraction(pair[0], 4), Fraction(pair[1], 4)))


def pair(q):
    return q.numerator, q.denominator


def packed(p):
    """The dense list p, constant term first, as a packed polynomial."""
    return {e * ex._GEN: c for e, c in enumerate(p) if c}


def exact(roots):
    """_real_roots' pairs with each value as a Fraction."""
    return [(Fraction(*r), many) for r, many in roots]


def multiple_roots(poly, *interval):
    return sum(
        sympy.Poly(f, X).count_roots(*interval)
        for f, k in sympy.sqf_list(poly)[1]
        if k > 1
    )


@given(factored([1, X, X**2]), bounds)
def test_roots_on_an_interval_agree_with_sympy(e, interval):
    poly = sympy.Poly(e, X)
    assume(poly.degree() >= 1)
    p = [int(c) for c in reversed(poly.all_coeffs())]
    lo, hi = interval
    roots = exact(_real_roots(packed(p), pair(lo), pair(hi)))
    assert len(roots) == poly.count_roots(lo, hi)
    assert sum(many for _, many in roots) == multiple_roots(e, lo, hi)
    assert [r for r, _ in roots] == sorted(r for r, _ in roots)
    assert all(lo <= r <= hi for r, _ in roots)


@given(factored([1, X, X**2, X**3]))
def test_roots_on_the_line_agree_with_sympy(e):
    poly = sympy.Poly(e, X)
    assume(poly.degree() >= 1)
    p = [int(c) for c in reversed(poly.all_coeffs())]
    roots = exact(_real_roots(packed(p)))
    want = sorted(set(float(r) for r in sympy.real_roots(poly)))
    assert [float(r) for r, _ in roots] == pytest.approx(want, abs=1e-9)
    assert sum(many for _, many in roots) == multiple_roots(e)


@given(factored([1, X, X**2]), bounds)
def test_interval_roots_match_the_fraction_isolation(e, interval):
    poly = sympy.Poly(e, X)
    assume(poly.degree() >= 1)
    p = [int(c) for c in reversed(poly.all_coeffs())]
    lo, hi = interval
    assert exact(_real_roots(packed(p), pair(lo), pair(hi))) == fraction_real_roots(p, lo, hi)


@given(factored([1, X, X**2, X**3]))
def test_line_roots_match_the_fraction_isolation(e):
    poly = sympy.Poly(e, X)
    assume(poly.degree() >= 1)
    p = [int(c) for c in reversed(poly.all_coeffs())]
    assert exact(_real_roots(packed(p))) == fraction_real_roots(p)


# dense lists without zero leading entries
dense = st.lists(st.integers(-5, 5), max_size=7).map(
    lambda p: p[: max((i + 1 for i, c in enumerate(p) if c), default=0)]
)


@given(dense, dense.filter(bool))
def test_sturm_sequences_match_the_fraction_sequences(a, b):
    # the draw includes negative leading coefficients and deg a < deg b
    assert _sturm(packed(a), packed(b)) == [packed(m) for m in _fraction_sturm(a, b)]


def test_a_zero_or_constant_polynomial_has_no_roots():
    assert _real_roots({}) == []
    assert _real_roots({0: 5}) == []


CIRCLE = Chart(("theta", "x", "y", "z"), periodic=("theta",))


def circle_structure(e):
    """h @theta^@z + @x^@y for h = e(sin(theta), cos(theta)); its top
    coefficient is 2h."""
    h = rational(0)
    for (a, b), c in sympy.Poly(e, S, C).terms():
        h = h + rational(int(c)) * sin(symbol("theta")) ** a * cos(symbol("theta")) ** b
    Pi = MultiVector(CIRCLE, 2, {("theta", "z"): h, ("x", "y"): 1})
    return PoissonStructure(CIRCLE, Pi, tester=ZeroTester(CIRCLE, seed=5))


@given(factored([1, S, C]))
def test_trigonometric_roots_agree_with_sympy(e):
    # s^2 + c^2 - 1 and its multiples vanish on the whole circle
    assume(sympy.rem(e, S**2 + C**2 - 1, S) != 0)
    weierstrass = {S: 2 * T / (1 + T**2), C: (1 - T**2) / (1 + T**2)}
    num = sympy.Poly(sympy.numer(sympy.together(e.subs(weierstrass))), T)
    thetas = sorted(set(float(2 * sympy.atan(r)) % (2 * math.pi) for r in sympy.real_roots(num)))
    multiple = sum(
        sympy.Poly(f, T).count_roots() for f, k in sympy.sqf_list(num.as_expr(), T)[1] if k > 1
    )
    if e.subs({S: 0, C: -1}) == 0:
        thetas = sorted(thetas + [math.pi])
        # d/dtheta at sin = 0, cos = -1
        multiple += sympy.diff(e, S).subs({S: 0, C: -1}) == 0

    rep = b_transversality_check(circle_structure(e))
    assert [p.value for p in rep.points] == pytest.approx(thetas, abs=1e-9)
    assert sum(not p.linear for p in rep.points) == multiple
    if not thetas:
        assert rep.verdict.symbolic and rep.locus == "empty"
    elif multiple:
        assert rep.verdict.failed
    else:
        assert rep.verdict.symbolic
