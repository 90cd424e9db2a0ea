"""The modular field preserves its volume by construction.

For the volume theta dx_0^...^dx_k, `modular_field` returns
v^i = (1/theta) sum_j d_j(theta Pi^{ij}), so
L_v(theta dx) = sum_ij d_i d_j(theta Pi^{ij}) dx, which vanishes because
Pi is skew.  `modular_field` does not check this at run time; here it is
held, structurally, for random nonvanishing theta on every bundled Poisson
structure.  theta is a nonzero constant times `exp` of a linear polynomial
times one plus the square of a polynomial, so it has no zero on any chart,
and its `exp` stays small enough on the sampling domains for the tester to
find a nonzero witness.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corankone import exp, rational, symbol  # noqa: E402
from corankone.calculus import lie_derivative, volume_form  # noqa: E402
from corankone.cli import bundled_corpus  # noqa: E402
from corankone.invariants import modular_field  # noqa: E402
from corankone.problemfile import loads_problem  # noqa: E402

STRUCTURES = [loads_problem(text, path=name).structure() for name, text in bundled_corpus()]
SYMBOLS = 5  # the most coordinates and parameters of a bundled chart (t3_example)


def polynomials(max_degree):
    """Term lists: a coefficient and the chart symbols it multiplies, by index."""
    factors = st.lists(st.integers(0, SYMBOLS - 1), max_size=max_degree)
    return st.lists(st.tuples(st.integers(-2, 2), factors), max_size=3)


def polynomial(terms, chart):
    names = chart.coords + chart.params
    out = rational(0)
    for coeff, factors in terms:
        term = rational(coeff)
        for i in factors:
            term = term * symbol(names[i % len(names)])
        out = out + term
    return out


def test_bundled_structures_are_poisson():
    assert len(STRUCTURES) == len(bundled_corpus())
    for P in STRUCTURES:
        assert P.jacobi_verdict().holds


@given(
    st.sampled_from(STRUCTURES),
    st.sampled_from([(1, 1), (-1, 1), (2, 3), (-5, 2)]),
    polynomials(1),
    polynomials(2),
)
def test_modular_field_preserves_any_volume(P, scale, linear, square):
    chart = P.chart
    theta = (
        rational(scale[0])
        / rational(scale[1])
        * exp(polynomial(linear, chart))
        * (1 + polynomial(square, chart) ** 2)
    )
    vol = theta * volume_form(chart)
    assert lie_derivative(modular_field(P, vol), vol).is_structural_zero
