"""Independent routes to verdicts that the package decides another way."""

import math
from fractions import Fraction

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
    schouten,
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


def verdict_fields(v):
    """What a report shows of a verdict: its kind, witness, value and note."""
    return v.kind, v.witness, v.value, v.note


def schouten_jacobi_verdict(P):
    """Whether [Pi, Pi] vanishes, tested on the Schouten square itself;
    jacobi_verdict reads [Pi, Pi] off the coordinate Jacobiators instead."""
    return is_zero_graded(schouten(P.bivector, P.bivector), P.tester)


def reference_bracket(P, f, g):
    """{f, g} = sum over i < j of Pi^{ij} (d_i f d_j g - d_j f d_i g)."""
    out = ex.ZERO
    coords = P.chart.coords
    for (i, j), c in P.bivector.coeffs.items():
        out = out + c * (
            f.derive(coords[i]) * g.derive(coords[j]) - f.derive(coords[j]) * g.derive(coords[i])
        )
    return out


def reference_jacobiator(P, f, g, h):
    """{{f, g}, h} + cyclic by three nested brackets; names stand for symbols."""
    f, g, h = (symbol(x) if isinstance(x, str) else x for x in (f, g, h))
    return (
        reference_bracket(P, reference_bracket(P, f, g), h)
        + reference_bracket(P, reference_bracket(P, g, h), f)
        + reference_bracket(P, reference_bracket(P, h, f), g)
    )


def _frac_str(q):
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _fraction_term_str(exps, coeff, gens):
    parts = []
    for g, k in zip(gens, exps):
        if k == 1:
            parts.append(ex._gen_str(g))
        elif k > 1:
            parts.append(f"{ex._gen_str(g)}^{k}")
    mag = abs(coeff)
    if not parts:
        body = _frac_str(mag)
    elif mag == 1:
        body = "*".join(parts)
    else:
        body = "*".join([_frac_str(mag)] + parts)
    return coeff < 0, body


def fraction_poly_str(poly, gens, lc):
    """poly / lc in grlex order, highest term first, each coefficient a
    Fraction; _poly_str reduces integer pairs instead."""
    w = len(gens)
    pieces = []
    for i, e in enumerate(sorted(poly, reverse=True)):
        c = poly[e]
        neg, body = _fraction_term_str(ex._unpack(e, w), Fraction(c, lc) if lc != 1 else c, gens)
        if i == 0:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f" - {body}" if neg else f" + {body}")
    return "".join(pieces), len(poly)


def _fraction_sturm(a, b):
    seq = [a, b]
    while len(seq[-1]) > 1:
        a, b = list(seq[-2]), seq[-1]
        lc, db = b[-1], len(b) - 1
        scale, sign = abs(lc), 1 if lc > 0 else -1
        while len(a) > db:
            q, k = sign * a[-1], len(a) - 1 - db
            a = [c * scale for c in a]
            for i, c in enumerate(b):
                a[i + k] -= q * c
            while a and not a[-1]:
                a.pop()
        if not a:
            break
        seq.append([-c for c in _over_content(a)])
    return seq


def _fraction_sign(p, x):
    n, d = x.numerator, x.denominator
    v, dk = 0, 1
    for c in reversed(p):
        v = v * n + c * dk
        dk *= d
    return (v > 0) - (v < 0)


def _over_content(p):
    scale = math.lcm(*(Fraction(c).denominator for c in p))
    p = [int(c * scale) for c in p]
    g = math.gcd(*p)
    return [c // g for c in p]


def _fraction_exact_quotient(a, b):
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in reversed(range(len(q))):
        q[k] = a[k + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            a[i + k] -= q[k] * c
    return _over_content(q)


def fraction_real_roots(p, lo=None, hi=None):
    """The Sturm isolation of roots._real_roots over Fractions: the distinct
    real roots of p in [lo, hi] (Fractions; the whole line when None) in
    increasing order, as pairs (Fraction, multiple); _real_roots takes
    rationals as integer pairs and halves its intervals left first."""
    if len(p) < 2:
        return []

    def derivative(p):
        return [i * c for i, c in enumerate(p)][1:]

    seq = _fraction_sturm(p, derivative(p))
    gcd = seq[-1]
    multiple = [1]
    if len(gcd) > 1:
        p = _fraction_exact_quotient(p, gcd)
        seq = _fraction_sturm(p, derivative(p))
        multiple = _fraction_sturm(p, gcd)[-1]
    if lo is None:
        bound = 1 + Fraction(max(abs(c) for c in p), abs(p[-1]))
        lo, hi = -bound, bound

    def variations(x):
        signs = [s for s in (_fraction_sign(q, x) for q in seq) if s]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    roots = [(lo, lo)] if _fraction_sign(p, lo) == 0 else []
    todo = [(lo, hi)]
    while todo:
        a, b = todo.pop()
        n = variations(a) - variations(b)
        if n == 0:
            continue
        if n == 1 and _fraction_sign(p, b) == 0:
            roots.append((b, b))
        elif n == 1 and _fraction_sign(p, a) != 0:
            roots.append((a, b))
        else:
            mid = (a + b) / 2
            todo += [(a, mid), (mid, b)]
    refine = Fraction(1, 1 << 60)
    out = []
    for a, b in sorted(roots):
        sa = _fraction_sign(p, a)
        while sa and b - a > refine * max(1, abs(a), abs(b)):
            mid = (a + b) / 2
            sm = _fraction_sign(p, mid)
            if sm == sa:
                a = mid
            elif sm:
                b = mid
            else:
                a = b = mid
                sa = 0
        if a == b:
            many = _fraction_sign(multiple, a) == 0
        else:
            many = _fraction_sign(multiple, a) != _fraction_sign(multiple, b)
        out.append(((a + b) / 2, many))
    return out
