"""Naturality of the adapted artifacts under a change of coordinates.

Every analysis is coordinate-free.  Write a structure S, given in
coordinates y, in the coordinates x of the shear y = phi(x) of
`oracles.shear`: Pi_x = A Pi_y(phi(x)) A^T and v_x = A v_y(phi(x)), with
A = (D phi)^-1.  Its Jacobi verdict stays symbolic `true`, its adapted
pair and beta are the pullbacks of those of S (forms pull back by D phi),
and its modular field is A times that of S at phi(x), all equal as
canonical forms.  This tests the parser, the kernel, the Pfaffian inverse,
the Schouten bracket and the invariants against themselves, with no
second implementation.  The shear goes from S to the sheared structure
only: its inverse nests the squares, to degree 16 at dimension 5.

The cases are the odd-chart corpus files with a transversal and the dense
family at dimensions 5 and 7, whose coefficients depend on more than
three coordinates.
"""

import pytest

from corankone import ZeroTester
from corankone import expr as ex
from corankone.cli import bundled_corpus
from corankone.poisson import PoissonStructure

import bundled
from oracles import shear, transported
from test_poisson import dense_structure


def corpus_entries():
    """The corpus entries on an odd chart that declare a transversal."""
    names = {name.removesuffix(".prob") for name, _ in bundled_corpus()}
    return [
        e for e in bundled.corank_one_entries() if e.name in names and e.structure.chart.dim % 2
    ]


# t3_example's chart is all periodic, so its shear is the identity
CASES = [pytest.param(e.structure, id=e.name) for e in corpus_entries() if e.name != "t3_example"]
CASES += [
    pytest.param(dense_structure(3, dim, scaled=scaled), id=f"dense-dim{dim}-{kind}")
    for dim in (5, 7)
    for scaled, kind in ((False, "constant"), (True, "scaled"))
]


def test_the_cases():
    names = {e.name for e in corpus_entries()}
    assert names == {"exp_wall", "flat", "sheared", "suspension", "t3_example", "twisted_omega"}
    phi, _, inverse = shear(bundled.entry("t3_example").structure.chart)
    assert phi == {}
    assert all(a == int(i == j) for i, row in enumerate(inverse) for j, a in enumerate(row))


@pytest.mark.parametrize("P", CASES)
def test_artifacts_are_natural_under_a_shear(P):
    chart = P.chart
    phi, jac, inverse = shear(chart)
    pullback = list(zip(*jac))
    sheared = PoissonStructure(
        chart,
        transported(P.bivector, phi, inverse),
        transversal=transported(P.transversal, phi, inverse),
        tester=ZeroTester(chart, seed=P.tester.seed),
    )
    # suspension's bivector is invariant under its shear, and its
    # transversal is not
    assert (sheared.bivector, sheared.transversal) != (P.bivector, P.transversal)
    assert sheared.jacobi_verdict().kind is ex.VerdictKind.ZERO
    alpha, omega = P.adapted()
    assert sheared.adapted() == tuple(transported(form, phi, pullback) for form in (alpha, omega))
    assert sheared.beta() == transported(P.beta(), phi, pullback)
    assert sheared.modular() == transported(P.modular(), phi, inverse)
