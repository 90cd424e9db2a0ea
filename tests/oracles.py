"""Independent routes to verdicts that the package decides another way."""

from corankone import exp, rational, symbol
from corankone import expr as ex
from corankone.calculus import (
    MultiVector,
    _covector_contract,
    _perm_sign,
    ext_deriv,
    is_zero_graded,
    lie_derivative,
    scalar_form,
    wedge,
    zero_multivector,
)
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


def _lie_multivector(v, Q):
    """Lie derivative of a multivector along a vector field, term by term:
    v(Q^J) @J minus Q^J times the derivative of each slot's @j along v."""
    chart = v.chart
    out = {}

    def bump(key, value):
        out[key] = out.get(key, ex.ZERO) + value

    for (i,), vc in v.coeffs.items():
        xi = chart.coords[i]
        dvc = [vc.derive(x) for x in chart.coords]
        for J, qc in Q.coeffs.items():
            dq = qc.derive(xi)
            if not dq.is_structural_zero:
                bump(J, vc * dq)
            for slot, j in enumerate(J):
                dv = dvc[j]
                if dv.is_structural_zero:
                    continue
                if i != j and i in J:
                    continue
                seq = list(J)
                seq[slot] = i
                if len(set(seq)) != len(seq):
                    continue
                sign = _perm_sign(seq)
                term = qc * dv if sign < 0 else -(qc * dv)
                bump(tuple(sorted(seq)), term)
    return Q._like(Q.degree, out)


def recursive_schouten(P, Q):
    """The Schouten bracket by splitting off the leading vector factor of
    each term of P, [A ^ B, Q] = (-1)^((q-1) deg B) [A, Q] ^ B + A ^ [B, Q],
    down to the Lie derivative [v, Q] and [f, Q] = -iota_{df} Q; schouten
    takes the one-pass coordinate formula instead."""
    chart = P.chart
    p, q = P.degree, Q.degree
    if p == 0 and q == 0:
        return zero_multivector(chart, 0)
    if p == 1:
        return _lie_multivector(P, Q)
    if p == 0:
        df = ext_deriv(scalar_form(chart, P.scalar()))
        return -_covector_contract(df, Q)
    total = zero_multivector(chart, p + q - 1)
    sign = -1 if ((q - 1) * (p - 1)) & 1 else 1
    for I, c in P.coeffs.items():
        A = MultiVector(chart, 1, {(I[0],): c})
        B = MultiVector(chart, p - 1, {tuple(I[1:]): ex.ONE})
        t1 = wedge(recursive_schouten(A, Q), B)
        if sign < 0:
            t1 = -t1
        t2 = wedge(A, recursive_schouten(B, Q))
        total = total + t1 + t2
    return total
