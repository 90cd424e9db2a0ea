"""The one-pass Schouten bracket against the recursive split.

`schouten` takes the coordinate formula in one pass over the nonzero
partials of each operand; `oracles.recursive_schouten` splits off the
leading vector factor of each term down to Lie derivatives and
contractions.  Multivectors of degrees 0 to 3 on
a four-dimensional chart are drawn with coefficients that carry a
parameter and `exp` and `sin` generators.

`PoissonStructure.jacobi_verdict` reads [Pi, Pi] off the coordinate
Jacobiators; on random bivectors it must give the verdict that testing
`schouten(Pi, Pi)` gives, down to the witness, since reports show it.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from itertools import combinations  # noqa: E402

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corankone import Chart, parse_scalar  # noqa: E402
from corankone.calculus import MultiVector, schouten  # noqa: E402
from corankone.poisson import PoissonStructure  # noqa: E402
from oracles import recursive_schouten, schouten_jacobi_verdict, verdict_fields  # noqa: E402

CHART = Chart(("x", "y", "z", "w"), params=("a",))
COEFFS = [
    parse_scalar(text, CHART)
    for text in (
        "1",
        "-2/3",
        "a",
        "x",
        "a*y - z^2",
        "exp(x)",
        "exp(-z)*w",
        "sin(y)",
        "a*sin(x*w)",
        "y^2 + exp(a*y)",
        "x/(1 + a^2)",
    )
]


def multivectors(degree):
    keys = list(combinations(range(CHART.dim), degree))
    terms = st.dictionaries(st.sampled_from(keys), st.sampled_from(COEFFS), max_size=3)
    return terms.map(lambda coeffs: MultiVector(CHART, degree, coeffs))


pairs = st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda pq: st.tuples(multivectors(pq[0]), multivectors(pq[1]))
)


def mv(degree, coeffs):
    return MultiVector(CHART, degree, {k: parse_scalar(c, CHART) for k, c in coeffs.items()})


@given(pairs)
@example((mv(0, {(): "exp(x)*y"}), mv(0, {(): "a*sin(z)"})))
@example((mv(0, {(): "exp(x)*y"}), mv(2, {(0, 1): "sin(z)", (1, 3): "a*w"})))
@example((mv(3, {(0, 1, 2): "exp(-w)", (1, 2, 3): "x"}), mv(0, {(): "a*sin(x*w)"})))
@example((mv(2, {(0, 1): "x*z", (2, 3): "exp(y)"}), mv(2, {(0, 2): "sin(w)", (1, 3): "a*x"})))
def test_one_pass_matches_recursive(pair):
    P, Q = pair
    assert schouten(P, Q) == recursive_schouten(P, Q)


@given(multivectors(2))
@example(mv(2, {(0, 1): "z", (0, 2): "x*y", (1, 2): "x"}))
def test_jacobi_table_matches_schouten_square(Pi):
    P = PoissonStructure(CHART, Pi)
    assert P._jacobi_square() == schouten(Pi, Pi)
    assert verdict_fields(P.jacobi_verdict()) == verdict_fields(schouten_jacobi_verdict(P))
