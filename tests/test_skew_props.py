"""The Pfaffian-minor inverse of skew matrices, with sympy as oracle.

Skew matrices of even size with small rational entries are drawn above
the diagonal; `_skew_inverse` must give sympy's `Matrix.inv` and a
Pfaffian whose square is sympy's determinant.  Its transposed inverse
must have the reciprocal Pfaffian, which is the identity the adapted
volume of a computed pair is read off.

Rational entries are expanded over Python ints.  The same holds for
entries with generators, in both rings the expansion runs over for them:
rational multiples of `x`, `a`, `exp(x)` and `exp(-x)` have one-term
denominators (packed integer polynomials from size 6 on), and
t3_example's entries over `a^2 + b^2 + 1` have a denominator of three
terms (ScalarExpr).  sympy sees `exp(x)` as a symbol E, as the canonical form
treats it as an independent generator, and its inverse and determinant
are compared at rational points.
"""

import re
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corankone import Chart, parse_scalar, rational  # noqa: E402
from corankone import expr as ex  # noqa: E402
from corankone import poisson  # noqa: E402
from corankone.poisson import _skew_inverse  # noqa: E402

ENTRIES = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def skew_matrices(draw):
    n = draw(st.sampled_from((2, 4, 6)))
    upper = draw(st.lists(ENTRIES, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    m = [[Fraction(0)] * n for _ in range(n)]
    cells = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = next(cells)
            m[j][i] = -m[i][j]
    return m


def as_exprs(m):
    return [[rational(q) for q in row] for row in m]


def as_sympy(m):
    return sympy.Matrix([[sympy.Rational(q.numerator, q.denominator) for q in row] for row in m])


@given(skew_matrices())
def test_inverse_and_pfaffian_match_sympy(m):
    inv, pf = _skew_inverse(as_exprs(m))
    oracle = as_sympy(m)
    det = oracle.det()
    square = pf.as_fraction() ** 2
    assert sympy.Rational(square.numerator, square.denominator) == det
    if det == 0:
        assert inv is None
        return
    expected = oracle.inv()
    for i, row in enumerate(inv):
        for j, entry in enumerate(row):
            q = entry.as_fraction()
            assert sympy.Rational(q.numerator, q.denominator) == expected[i, j], (i, j)


@given(skew_matrices())
def test_transposed_inverse_has_reciprocal_pfaffian(m):
    inv, pf = _skew_inverse(as_exprs(m))
    if inv is None:
        return
    transposed = [list(col) for col in zip(*inv)]
    back, pf_dual = _skew_inverse(transposed)
    assert pf_dual * pf == ex.ONE
    # inverting the transposed inverse gives the transpose of m back
    assert back == [[rational(q) for q in col] for col in zip(*m)]


# entries with generators: each pool maps a printed factor to its sympy twin
CHART = Chart(("x",), params=("a", "b"))
X, A, B, E = sympy.symbols("x a b E")
MONOMIAL = {"0": 0, "1": 1, "x": X, "a": A, "exp(x)": E, "exp(-x)": 1 / E, "a*x + 1": A * X + 1}
# the entries of t3_example's bordered matrix: 1, a, b over a^2 + b^2 + 1, and a, b
T3_DEN = A**2 + B**2 + 1
T3_LIKE = {
    "0": 0, "1": 1, "a": A, "b": B,
    "1/(a^2 + b^2 + 1)": 1 / T3_DEN, "a/(a^2 + b^2 + 1)": A / T3_DEN, "b/(a^2 + b^2 + 1)": B / T3_DEN,
}
# pool: (factors, sizes); a dense 6 x 6 t3-like inverse takes up to half a
# second, in its final gcds, so that size is left to test_ring_of_the_expansion
POOLS = {"monomial": (MONOMIAL, (4, 6)), "t3-like": (T3_LIKE, (4,))}
POINTS = (
    {X: sympy.Integer(2), A: sympy.Rational(-1, 3), B: sympy.Rational(3, 2), E: sympy.Rational(5, 7)},
    {X: sympy.Rational(-3, 5), A: sympy.Integer(2), B: sympy.Integer(-1), E: sympy.Integer(3)},
)


def value_at(e, point):
    """The exact value of e's printed form at a point, exp(x) read as the
    point's E: the text is evaluated over Fractions, every integer made one."""

    def exp_of(u):
        assert u == point[X], u
        return point[E]

    names = {str(s): Fraction(int(v.p), int(v.q)) for s, v in point.items()}
    text = re.sub(r"\d+", r"F(\g<0>)", str(e).replace("^", "**"))
    value = eval(text, {"F": Fraction, "exp": exp_of, **names})
    return sympy.Rational(value.numerator, value.denominator)


@st.composite
def generator_matrices(draw, pool, sizes):
    """(ScalarExpr matrix, sympy matrix) of one skew matrix of a size in sizes."""
    n = draw(st.sampled_from(sizes))
    ours = [[ex.ZERO] * n for _ in range(n)]
    theirs = sympy.zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            q = draw(ENTRIES)
            factor = draw(st.sampled_from(sorted(pool)))
            ours[i][j] = rational(q) * parse_scalar(factor, CHART)
            ours[j][i] = -ours[i][j]
            theirs[i, j] = sympy.Rational(q.numerator, q.denominator) * pool[factor]
            theirs[j, i] = -theirs[i, j]
    return ours, theirs


@pytest.mark.parametrize("pool", sorted(POOLS))
@given(data=st.data())
def test_generator_entries_match_sympy(pool, data):
    ours, theirs = data.draw(generator_matrices(*POOLS[pool]))
    inv, pf = _skew_inverse(ours)
    for point in POINTS:
        at = theirs.subs(point)
        det = at.det()
        assert value_at(pf, point) ** 2 == det
        if det == 0:
            continue  # singular here, or everywhere when inv is None
        assert inv is not None
        expected = at.inv()
        for i in range(len(inv)):
            for j in range(i + 1, len(inv)):
                assert value_at(inv[i][j], point) == expected[i, j], (i, j)


def rings_of_the_expansion(monkeypatch, factor, n):
    """The rings _pfaffian ran over for an n x n skew matrix of rational
    constants plus factor, after checking M M^-1 = 1 exactly."""
    g = parse_scalar(factor, CHART)
    m = [[ex.ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = rational(i + 2 * j - 4) + (g if (i + j) % 2 else ex.ZERO)
            m[j][i] = -m[i][j]
    rings = set()
    original = poisson._pfaffian

    def spy(matrix, idx, memo):
        rings.add(type(memo[()]))
        return original(matrix, idx, memo)

    monkeypatch.setattr(poisson, "_pfaffian", spy)
    inv, pf = _skew_inverse(m)
    assert inv is not None
    for i in range(n):
        for j in range(n):
            entry = sum((m[i][k] * inv[k][j] for k in range(n)), ex.ZERO)
            assert entry == (ex.ONE if i == j else ex.ZERO), (i, j)
    return rings


@pytest.mark.parametrize(
    "factor, ring",
    [
        ("exp(-x)", dict),
        ("a*x + 1", dict),
        ("3/7", int),
        ("1/(a^2 + b^2 + 1)", ex.ScalarExpr),
    ],
)
def test_ring_of_the_expansion(monkeypatch, factor, ring):
    # a 6 x 6 matrix of rational constants is expanded over ints, one with
    # one-term denominators over integer polynomials, and one with a
    # denominator of several terms over ScalarExpr
    assert rings_of_the_expansion(monkeypatch, factor, 6) == {ring}


def test_rational_4x4_expands_over_ints(monkeypatch):
    # rational constants take the int ring at size 4 too
    assert rings_of_the_expansion(monkeypatch, "3/7", 4) == {int}
