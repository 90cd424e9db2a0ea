"""Independent routes to verdicts that the package decides another way."""

from corankone import exp
from corankone.calculus import is_zero_graded
from corankone.invariants import modular_field


def rescaled_modular_verdict(P, certificate):
    """Whether the modular field of the volume rescaled by a first-kind
    certificate, exp(-f) alpha ^ omega^n, vanishes: a second route to
    unimodularity beside the class test of beta."""
    assert certificate.kind == "first" and certificate.f is not None
    volume = exp(-certificate.f) * P.volume()
    return is_zero_graded(modular_field(P, volume), P.tester)
