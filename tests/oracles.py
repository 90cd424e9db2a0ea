"""Independent routes to verdicts that the package decides another way."""

from corankone import exp, rational, symbol
from corankone.calculus import MultiVector, is_zero_graded, lie_derivative
from corankone.invariants import modular_field


def rescaled_modular_verdict(P, certificate):
    """Whether the modular field of the volume rescaled by a first-kind
    certificate, exp(-f) alpha ^ omega^n, vanishes: a second route to
    unimodularity beside the class test of beta."""
    assert certificate.kind == "first" and certificate.f is not None
    volume = exp(-certificate.f) * P.volume()
    return is_zero_graded(modular_field(P, volume), P.tester)


def cartan_modular_field(P, volume):
    """The modular field of a top-degree volume by Cartan's formula: its
    component along x_i is (L_{u_i} volume) / volume, with u_i the
    Hamiltonian field of x_i; modular_field takes the closed form
    v^i = (1/theta) sum_j d_j(theta Pi^{ij}) instead."""
    top = tuple(range(P.chart.dim))
    theta = volume.coeffs[top]
    comps = {}
    for i, name in enumerate(P.chart.coords):
        lu = lie_derivative(P.hamiltonian_vf(symbol(name)), volume)
        comps[(i,)] = lu.coeffs.get(top, rational(0)) / theta
    return MultiVector(P.chart, 1, comps)
