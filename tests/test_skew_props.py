"""The Pfaffian-minor inverse of skew matrices, with sympy as oracle.

Skew matrices of even size with small rational entries are drawn above
the diagonal; `_skew_inverse` must give sympy's `Matrix.inv` and a
Pfaffian whose square is sympy's determinant.  Its transposed inverse
must have the reciprocal Pfaffian, which is the identity the adapted
volume of a computed pair is read off.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corankone import expr as ex  # noqa: E402
from corankone import rational  # noqa: E402
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
