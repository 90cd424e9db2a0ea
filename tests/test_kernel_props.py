"""Properties of the integer polynomial kernel, with sympy as oracle.

Polynomials are drawn as dicts from exponent tuples to small nonzero
integers in one to four generators, packed the way the kernel packs them,
and compared with sympy's results after unpacking.  The canonical form is
checked for invariance under scaling numerator and denominator together,
and `evaluate` against a reference built here from Fraction coefficients
over the denominator scaled to leading coefficient 1; the printed text
against `oracles.fraction_poly_str`, which prints the same coefficients.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corankone import ScalarExpr, exp, symbol  # noqa: E402
from corankone import expr  # noqa: E402
from corankone.errors import ExprError  # noqa: E402
from corankone.expr import (  # noqa: E402
    _MAX_DEGREE,
    _p_divexact,
    _p_gcd,
    _p_mul,
    _p_pseudo_rem,
    _pack,
    _unpack,
)

from oracles import fraction_poly_str  # noqa: E402

SYMS = sympy.symbols("x0:4")


def int_polys(w, degree=3, terms=5):
    exps = st.tuples(*[st.integers(0, degree)] * w)
    coeffs = st.integers(-5, 5).filter(bool)
    return st.dictionaries(exps, coeffs, min_size=1, max_size=terms)


def poly_pairs(gens=4, **size):
    return st.integers(1, gens).flatmap(
        lambda w: st.tuples(st.just(w), int_polys(w, **size), int_polys(w, **size))
    )


def packed(poly):
    return {_pack(e): c for e, c in poly.items()}


def unpacked(poly, w):
    return {_unpack(k, w): c for k, c in poly.items()}


def to_sympy(poly, w):
    return sympy.Poly.from_dict(poly, *SYMS[:w], domain="ZZ")


def from_sympy(p):
    return {e: int(c) for e, c in p.as_dict().items()}


@given(poly_pairs())
def test_mul_matches_sympy(case):
    w, a, b = case
    got = unpacked(_p_mul(packed(a), packed(b)), w)
    assert got == from_sympy(to_sympy(a, w) * to_sympy(b, w))


@given(poly_pairs())
def test_divexact_inverts_mul(case):
    w, a, b = case
    prod = _p_mul(packed(a), packed(b))
    assert unpacked(_p_divexact(prod, packed(b)), w) == a


@given(poly_pairs())
def test_divexact_refuses_inexact(case):
    w, a, b = case
    q, r = sympy.div(to_sympy(a, w).set_domain("QQ"), to_sympy(b, w).set_domain("QQ"))
    exact = r.is_zero and all(c.is_integer for c in q.coeffs())
    got = _p_divexact(packed(a), packed(b))
    if exact:
        assert unpacked(got, w) == {e: int(c) for e, c in q.as_dict().items()}
    else:
        assert got is None


def check_gcd(case, common):
    w, a, b = case
    # a shared factor makes the gcd nontrivial in most examples
    g = {e[:w]: c for e, c in common.items()}
    a, b = from_sympy(to_sympy(a, w) * to_sympy(g, w)), from_sympy(to_sympy(b, w) * to_sympy(g, w))
    got = unpacked(_p_gcd(packed(a), packed(b), w), w)
    _, want = sympy.gcd(to_sympy(a, w), to_sympy(b, w)).primitive()
    want = from_sympy(want)
    assert got in (want, {e: -c for e, c in want.items()})
    # primitive, with a positive leading coefficient in grlex order
    assert math.gcd(*got.values()) == 1
    assert got[max(got, key=lambda e: (sum(e), e))] > 0


# the pseudo-remainder sequence swells with the degree and the number of
# terms, so the pairs are kept to the sizes it decides in milliseconds
@given(poly_pairs(degree=2, terms=3), int_polys(4, degree=2, terms=3))
def test_gcd_matches_sympy_up_to_a_unit(case, common):
    check_gcd(case, common)


def pseudo_rem_cases():
    """(w, var, a, b) in up to three generators, b of degree >= 1 in var."""
    return st.integers(1, 3).flatmap(
        lambda w: st.integers(0, w - 1).flatmap(
            lambda v: st.tuples(
                st.just(w),
                st.just(v),
                int_polys(w),
                int_polys(w).filter(lambda b: any(e[v] for e in b)),
            )
        )
    )


@given(pseudo_rem_cases())
def test_pseudo_rem_is_a_power_of_lc_times_sympys(case):
    # the gcd and the Sturm sequences of roots both divide with it; it
    # multiplies by lc(b) once per step, and sympy's prem deg a - deg b + 1 times
    w, v, a, b = case
    x = SYMS[v]
    A, B = to_sympy(a, w).as_expr(), to_sympy(b, w).as_expr()
    r = to_sympy(unpacked(_p_pseudo_rem(packed(a), packed(b), v, w), w), w).as_expr()
    assert sympy.degree(r, x) < sympy.degree(B, x)
    lc, want = sympy.Poly(B, x).LC(), sympy.prem(A, B, x)
    steps = max(sympy.degree(A, x) - sympy.degree(B, x) + 1, 0)
    assert any(sympy.expand(r * lc**j - want) == 0 for j in range(steps + 1))


def test_trivial_gcd_without_pseudo_remainders():
    # images modulo a prime prove it; the pseudo-remainder sequence on these
    # degrees would run for seconds
    a = {(20, 19, 0, 0, 0): 1, (0, 0, 18, 17, 0): 1, (0, 0, 0, 0, 16): 1, (0, 0, 0, 0, 0): 1}
    b = {(19, 20, 0, 0, 0): 1, (0, 0, 17, 18, 0): 1, (0, 0, 0, 0, 15): 1, (0, 0, 0, 0, 0): 2}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expr, "_p_pseudo_rem", None)
        assert _p_gcd(packed(a), packed(b), 5) == {0: 1}


@given(
    st.lists(st.integers(0, 20), min_size=1, max_size=6),
    st.lists(st.integers(0, 20), min_size=1, max_size=6),
)
def test_packing_round_trip_and_order(a, b):
    w = max(len(a), len(b))
    a, b = tuple(a + [0] * (w - len(a))), tuple(b + [0] * (w - len(b)))
    assert _unpack(_pack(a), w) == a
    # grlex order is integer order, and a product is one addition
    assert (_pack(a) < _pack(b)) == ((sum(a), a) < (sum(b), b))
    assert _unpack(_pack(a) + _pack(b), w) == tuple(x + y for x, y in zip(a, b))


def test_overflow_at_the_field_boundary():
    top = (_MAX_DEGREE - 1, 1)
    assert _unpack(_pack(top), 2) == top
    with pytest.raises(ExprError, match="exceeds"):
        _pack((_MAX_DEGREE, 1))
    x, y = {_pack((1, 0)): 1}, {_pack((0, 1)): 1}
    big = {_pack((_MAX_DEGREE - 1, 0)): 1}
    assert unpacked(_p_mul(big, y), 2) == {(_MAX_DEGREE - 1, 1): 1}
    with pytest.raises(ExprError, match="exceeds"):
        _p_mul(_p_mul(big, x), y)
    # through the arithmetic: x^16384 * x^16383 is x^32767, x^16384 squared overflows
    half = symbol("x")
    while half.num != {_pack((_MAX_DEGREE // 2 + 1,)): 1}:
        half = half * half
    assert str(half * (half / symbol("x"))) == f"x^{_MAX_DEGREE}"
    with pytest.raises(ExprError, match="exceeds"):
        half * half


def test_divexact_detects_borrow():
    # x*y^5 / x^2: the total degree fits, the exponent of x borrows
    assert _p_divexact({_pack((1, 5)): 1}, {_pack((2, 0)): 1}) is None
    assert _p_divexact({_pack((2, 5)): 3}, {_pack((2, 0)): 1}) == {_pack((0, 5)): 3}


GENS = ("x", "y") + exp(symbol("x")).gens
exps3 = st.tuples(*[st.integers(0, 2)] * 3)
fracs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
polys3 = st.dictionaries(exps3, fracs, max_size=4)
quotients = st.builds(
    lambda n, d: ScalarExpr(GENS, n, d) if any(d.values()) else None, polys3, polys3
).filter(lambda e: e is not None)


@given(quotients, st.integers(-6, 6).filter(bool))
def test_scaling_both_polynomials_keeps_the_form(e, k):
    scaled = ScalarExpr(
        e.gens, {m: k * c for m, c in e.num.items()}, {m: k * c for m, c in e.den.items()}
    )
    assert scaled == e
    assert str(scaled) == str(e)
    assert hash(scaled) == hash(e)


@given(quotients, fracs.filter(bool))
def test_rational_factor_keeps_the_form(e, q):
    # the shortcut scales without normalizing; the constructor normalizes
    got = e * q
    want = ScalarExpr(
        e.gens,
        {m: c * q.numerator for m, c in e.num.items()},
        {m: c * q.denominator for m, c in e.den.items()},
    )
    assert (got.gens, got.num, got.den) == (want.gens, want.num, want.den)
    assert str(got) == str(want)


def reference_value(e, env):
    """Today's evaluation on Fraction coefficients over a monic denominator."""
    w = len(e.gens)
    vals = [env[g] if isinstance(g, str) else math.exp(env["x"]) for g in e.gens]
    lc = e.den[max(e.den)]

    def terms(poly):
        out = []
        for key, c in poly.items():
            t = float(Fraction(c, lc))
            for v, k in zip(vals, _unpack(key, w)):
                if k:
                    t *= v**k
            out.append(t)
        return out or [0.0]

    return math.fsum(terms(e.num)) / math.fsum(terms(e.den))


@given(quotients, st.floats(-2, 2), st.floats(-2, 2))
def test_evaluate_matches_fraction_reference(e, x, y):
    env = {"x": x, "y": y}
    try:
        got = e.evaluate(env)
    except ExprError:
        return  # a pole at the sample point
    assert got == reference_value(e, env)


@given(quotients, st.integers(-12, 12).filter(bool))
def test_printing_matches_fraction_printer(e, k):
    lc = e.den[max(e.den)]
    for poly in (e.num, e.den):
        assert expr._poly_str(poly, e.gens, lc) == fraction_poly_str(poly, e.gens, lc)
        # over any nonzero divisor, a negative one too: the sign of each
        # reduced coefficient goes to its numerator
        assert expr._poly_str(poly, e.gens, k * lc) == fraction_poly_str(poly, e.gens, k * lc)
