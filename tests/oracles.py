"""Independent routes to verdicts that the package decides another way."""

import itertools
import math
import re
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


def shear(chart):
    """The shear y = phi(x) of a chart, as (phi, D phi, (D phi)^-1).

    y_i = x_i + s_i x_{i-1}^2, with s_i = 2, -2, 2, ... by i, for each
    coordinate that follows another when neither is periodic, and y_i = x_i
    elsewhere; phi maps each sheared name to its y_i.  N = D phi - I is
    strictly lower triangular, so (D phi)^-1 is the finite sum of the
    powers of -N.
    """
    coords, dim = chart.coords, chart.dim
    phi = {}
    for i in range(1, dim):
        prev, name = coords[i - 1], coords[i]
        if prev not in chart.periodic and name not in chart.periodic:
            phi[name] = symbol(name) + rational(2 if i % 2 else -2) * symbol(prev) ** 2
    jac = [[phi.get(y, symbol(y)).derive(x) for x in coords] for y in coords]
    minus_n = [[rational(int(i == j)) - jac[i][j] for j in range(dim)] for i in range(dim)]
    inverse = power = [[rational(int(i == j)) for j in range(dim)] for i in range(dim)]
    for _ in range(dim - 1):
        power = [
            [sum((power[i][k] * minus_n[k][j] for k in range(dim)), ex.ZERO) for j in range(dim)]
            for i in range(dim)
        ]
        inverse = [[a + b for a, b in zip(r, s)] for r, s in zip(inverse, power)]
    return phi, jac, inverse


def transported(element, phi, weight):
    """element with its coefficients taken at phi(x) and each basis
    element k sent to sum_i weight[i][k] times basis element i: under the
    shear a multivector moves by (D phi)^-1, and a form pulls back by the
    transpose of D phi."""
    chart = element.chart
    columns = [[(i, row[k]) for i, row in enumerate(weight) if row[k]] for k in range(chart.dim)]
    terms = []
    for key, c in element.coeffs.items():
        c = c.subs(phi)
        for picks in itertools.product(*(columns[k] for k in key)):
            term = c
            for _, a in picks:
                term = term * a
            terms.append((tuple(i for i, _ in picks), term))
    return type(element)(chart, element.degree, terms)


def verdict_fields(v):
    """What a report shows of a verdict: its kind, witness, value and note."""
    return v.kind, v.witness, v.value, v.note


def schouten_jacobi_verdict(P):
    """Whether [Pi, Pi] vanishes, tested on the recursive split of the
    square; jacobi_verdict tests the one-pass schouten(Pi, Pi) instead."""
    return is_zero_graded(recursive_schouten(P.bivector, P.bivector), P.tester)


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


# the expression tokenizer as two regexes: _TOKENS_RE matches the longest
# run of whole tokens at the start of a text, _TOKEN_RE one token after its
# whitespace; expr._tokenize scans with str methods instead
_TOKEN = r"\d+(?:\.\d+)?|[A-Za-z_][A-Za-z0-9_]*|[-+*/^()]"
_TOKEN_RE = re.compile(rf"\s*({_TOKEN})")
_TOKENS_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*")


def regex_tokenize(text):
    """The tokens of text, their starts and where tokenizing stopped, as
    expr._tokenize gives them: the whitespace before the first character
    that starts no token is skipped, and trailing whitespace ends the text."""
    rest = text[_TOKENS_RE.match(text).end():]
    end = len(text) - len(rest.lstrip())
    matches = list(_TOKEN_RE.finditer(text, 0, end))
    return [m.group(1) for m in matches], [m.start(1) for m in matches], end


# a line's words by regexes: a word is a run of plain characters, backslash
# escapes, "double-quoted" and 'single-quoted' strings; a quote or backslash
# that starts no complete piece is unterminated; problemfile.split_line
# scans with str.find instead
_WORD_RE = re.compile(
    r"""[ \t\r\n]*(?:
        (?P<word>(?:[^ \t\r\n"'\\\#]+|\\.|"(?:[^"\\]|\\.)*"|'[^']*')+)
      | (?P<open>["'\\])
      | \#
    )""",
    re.VERBOSE | re.DOTALL,
)
_PIECE_RE = re.compile(r"""\\(.)|"((?:[^"\\]|\\.)*)"|'([^']*)'""", re.DOTALL)
_QUOTED_ESCAPE_RE = re.compile(r'\\([\\"])')


def _unquote(piece):
    escaped, double, single = piece.groups()
    if escaped is not None:
        return escaped
    if double is not None:
        return _QUOTED_ESCAPE_RE.sub(r"\1", double)
    return single


def regex_split_line(line):
    """The words of one line, as shlex.split(line, comments=True) gives them."""
    words = []
    for m in _WORD_RE.finditer(line):
        word, open_ = m.group("word", "open")
        if word is not None:
            if '"' in word or "'" in word or "\\" in word:
                word = _PIECE_RE.sub(_unquote, word)
            words.append(word)
        elif open_ is None:
            break  # a comment
        # an unclosed double quote that ends in a lone backslash, like a bare
        # trailing backslash, ends in an escape without its character
        elif open_ == "'" or not (len(line) - len(line.rstrip("\\"))) % 2:
            raise ValueError("No closing quotation")
        else:
            raise ValueError("No escaped character")
    return words
