"""Exact real roots of a top coefficient along one symbol.

A polynomial is a packed one-generator polynomial of `expr` (x^e is the
key ``e * expr._GEN``, of degree ``key & expr._MASK``), and a rational is
a pair ``(n, d)`` of integers, d > 0.  Roots are counted with Sturm
sequences (G. E. Collins and R. Loos, "Real zeros of polynomials", in
Computer Algebra: Symbolic and Algebraic Computation, 1982), each member
divided by its positive integer content, which keeps the signs the
theorem reads.
"""

from __future__ import annotations

import math

from . import expr as ex

# the integers of a Sturm sequence grow to about degree * (degree + bits)
# bits, for a polynomial of that degree with coefficients of that many bits;
# above this product the exact path may take seconds, and h is scanned
EXACT_MAX_SIZE = 8192
# an isolating interval is narrowed to 2^-_REFINE of its largest end (or
# of 1); its midpoint then rounds to the float nearest the root, unless the
# root lies about as close to the midpoint of two floats
_REFINE = 60


def _degree(p):
    return max(p, default=0) & ex._MASK


def _sturm(a, b):
    """The remainder sequence a, b, -rem(a, b), ...; its last member is
    gcd(a, b) up to a constant factor."""
    seq = [a, b]
    while _degree(b):
        # the pseudo-remainder scales by lc(b) at each step, and by -b it is
        # a positive multiple of the same remainder
        r = ex._p_pseudo_rem(a, b if b[max(b)] > 0 else ex._p_neg(b), 0, 1)
        if not r:
            break
        a, b = b, ex._p_neg(_primitive(r))
        seq.append(b)
    return seq


def _sign(p, x):
    """The sign of p at the rational x."""
    n, d = x
    deg = _degree(p)
    v = sum(c * n ** (e & ex._MASK) * d ** (deg - (e & ex._MASK)) for e, c in p.items())
    return (v > 0) - (v < 0)


def _mid(a, b):
    """The midpoint of the rationals a and b, reduced."""
    (p, q), (r, s) = a, b
    g = math.gcd(p * s + r * q, 2 * q * s)
    return (p * s + r * q) // g, 2 * q * s // g


def _wider(a, b):
    """Whether b - a > 2^-_REFINE max(1, |a|, |b|), for rationals a <= b."""
    (p, q), (r, s) = a, b
    return (r * q - p * s) << _REFINE > max(q * s, abs(p) * s, abs(r) * q)


def _real_roots(p, lo=None, hi=None):
    """The distinct real roots of p in [lo, hi] (rationals, or the whole line),
    in increasing order, as pairs (rational value, multiple)."""
    if not _degree(p):
        return []
    seq = _sturm(p, ex._p_derive(p, 0, 1))
    gcd = seq[-1]
    multiple = {0: 1}
    if _degree(gcd):
        # p over gcd(p, p') has the same roots, each simple; the roots of
        # gcd(p, p') are the multiple ones, and its own gcd with the
        # square-free part has them simple too; by Gauss's lemma the
        # primitive gcd divides p over the integers
        p = _primitive(ex._p_divexact(p, _primitive(gcd)))
        seq = _sturm(p, ex._p_derive(p, 0, 1))
        multiple = _sturm(p, gcd)[-1]
    if lo is None:
        lead, top = abs(p[max(p)]), max(map(abs, p.values()))  # Cauchy's bound 1 + top / lead
        lo, hi = (-lead - top, lead), (lead + top, lead)
    seen = {}

    def variations(x):
        if x not in seen:
            signs = [s for s in (_sign(q, x) for q in seq) if s]
            seen[x] = sum(u != v for u, v in zip(signs, signs[1:]))
        return seen[x]

    roots = [(lo, lo)] if _sign(p, lo) == 0 else []
    todo = [(lo, hi)]
    while todo:
        # the roots in (a, b]; the left half is taken first, so the
        # isolating intervals come in increasing order
        a, b = todo.pop()
        n = variations(a) - variations(b)
        if n == 0:
            continue
        if n == 1 and _sign(p, b) == 0:
            roots.append((b, b))
        elif n == 1 and _sign(p, a) != 0:
            roots.append((a, b))
        else:
            mid = _mid(a, b)
            todo += [(mid, b), (a, mid)]
    out = []
    for a, b in roots:
        sa = _sign(p, a)
        while sa and _wider(a, b):
            mid = _mid(a, b)
            sm = _sign(p, mid)
            if sm == sa:
                a = mid
            elif sm:
                b = mid
            else:
                a = b = mid
                sa = 0
        if a == b:
            many = _sign(multiple, a) == 0
        else:
            many = _sign(multiple, a) != _sign(multiple, b)
        out.append((_mid(a, b), many))
    return out


def _too_large(p):
    n = _degree(p)
    return n * (n + max(abs(c).bit_length() for c in p.values())) > EXACT_MAX_SIZE


def _primitive(p):
    """p over the positive gcd of its coefficients."""
    g = math.gcd(*p.values())
    return {e: c // g for e, c in p.items()}


def real_roots(h: ex.ScalarExpr, var: str, chart: ex.Chart):
    """The real roots of h along var (a coordinate, or a parameter), decided
    exactly, as increasing pairs (value, simple), or None when h is of no
    kind decided exactly.

    Decided are a polynomial in var alone, on the sampling interval of
    var (on [0, 2 pi] when var is periodic), and a polynomial in sin(var)
    and cos(var) of a periodic var, on the whole circle.
    """
    if h.gens == (var,):
        p = _primitive(h.num)
        if _too_large(p):
            return None
        lo, hi = (0.0, math.tau) if var in chart.periodic else chart.domain(var)
        found = _real_roots(p, lo.as_integer_ratio(), hi.as_integer_ratio())
        return [(n / d, not many) for (n, d), many in found]  # n / d rounds correctly
    arg = ex.symbol(var)
    terms, den = h.parts()
    if (
        var not in chart.periodic
        or not den.is_rational
        or any(not isinstance(g, ex.FuncGen) or g.fn not in ("sin", "cos") or g.arg != arg
               for g in h.gens)
    ):
        return None
    # t = tan(var / 2): sin = 2t / (1 + t^2), cos = (1 - t^2) / (1 + t^2),
    # so h = P(t) / (1 + t^2)^d with d the total degree of h, at every var
    # but pi; the circle without pi maps onto the line, and a root keeps its
    # multiplicity
    fns = [g.fn for g in h.gens]
    d = max(sum(exps) for exps, _ in terms)
    if (2 * d) ** 2 > EXACT_MAX_SIZE:  # P would be too large
        return None
    t = ex._GEN
    P = {}
    for exps, c in terms:
        k = dict(zip(fns, exps))
        term = {0: c}
        for factor, n in (({t: 2}, k.get("sin", 0)), ({0: 1, 2 * t: -1}, k.get("cos", 0)),
                          ({0: 1, 2 * t: 1}, d - sum(exps))):
            for _ in range(n):
                term = ex._p_mul(term, factor)
        P = ex._p_add(P, term)
    if not P:
        return None
    P = _primitive(P)
    if _too_large(P):
        return None
    # near pi, u = 1/t is a coordinate with h = u^(2d) P(1/u) / (1 + u^2)^d:
    # at pi (sin = 0, cos = -1) h vanishes to the order by which the degree
    # of P falls short of 2d
    at_pi = 2 * d - _degree(P)
    roots = []
    for (n, q), many in _real_roots(P):
        theta = 2.0 * math.atan(n / q)
        roots.append((theta + math.tau if theta < 0.0 else theta, not many))
    if at_pi:
        roots.append((math.pi, at_pi == 1))
    return sorted(roots, key=lambda r: r[0])
