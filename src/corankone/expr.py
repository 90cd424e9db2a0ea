"""Exact scalar expressions: the coefficient field for all forms and fields.

A :class:`ScalarExpr` is kept in a canonical rational normal form
``num / den`` where ``num`` and ``den`` are expanded multivariate
polynomials with integer coefficients and packed monomials.  The
polynomial generators are the
chart coordinates, the free parameters, and whole function applications
``exp(...)``, ``log(...)``, ``sin(...)``, ``cos(...)`` treated as opaque
generators (their arguments are themselves canonical expressions).

Because the representation is always canonical, structural equality is
cheap.  Zero testing is exact on the rational fragment (zero exactly when
the numerator polynomial is empty) and falls back to seeded randomized
evaluation for transcendental mixtures, reported as a distinct "probably
zero" verdict.

Expression grammar (EBNF)::

    expr     = term , { ("+" | "-") , term } ;
    term     = unary , { ("*" | "/") , unary } ;
    unary    = { "+" | "-" } , power ;
    power    = atom , [ "^" , exponent ] ;
    exponent = [ "-" ] , integer
             | "(" , [ "-" ] , integer , ")" ;
    atom     = number
             | name
             | ("exp" | "log" | "sin" | "cos") , "(" , expr , ")"
             | "(" , expr , ")" ;
    number   = digits , [ "." , digits ] ;

Names must resolve to chart coordinates or parameters, an exponent
lies within ``-MAX_EXPONENT..MAX_EXPONENT``, no power, product or sum
of quotients may expand to more than ``MAX_TERMS`` terms, no power,
product or sum may reach a total degree above ``MAX_DEGREE``, and
parentheses nest at most ``MAX_DEPTH`` deep.  Whitespace may surround any
token, including the first and the last.  The printer emits canonical
text whose re-parse is structurally identical (parse -> print -> parse is
the identity on canonical forms).
"""

from __future__ import annotations

import functools
import math
import operator
import random
import zlib
from collections import namedtuple

from .errors import (
    ChartError,
    EvaluationSingularity,
    ExprError,
    ExprSyntaxError,
    QUOTE_LIMIT,
    UnknownIdentifierError,
    quote,
)

FUNCTIONS = ("exp", "log", "sin", "cos")


# ---------------------------------------------------------------------------
# polynomial layer: dict[packed monomial -> int], width fixed by the caller
#
# The monomial x1^e1 ... xw^ew of a w-generator polynomial is one int: the
# total degree in the top field, then e1 down to ew, each _FIELD bits wide
# (M. Monagan and R. Pearce, "Polynomial division using dynamic arrays, heaps,
# and packed exponent vectors", CASC 2007).  So grlex order is integer order
# and a product of monomials is one addition.  The top bit of every field is
# a guard: a total degree that reaches it overflows (ExprError), and an
# exponent difference that borrows sets it.

_FIELD = 16
_MASK = (1 << _FIELD) - 1
_MAX_DEGREE = (1 << (_FIELD - 1)) - 1


def _shift(i, w):
    """Bit offset of generator i's field in a w-generator monomial."""
    return _FIELD * (w - 1 - i)


def _unit(i, w):
    """The packed monomial of generator i to the first power."""
    return (1 << _FIELD * w) | (1 << _shift(i, w))


def _pack(exps):
    deg = sum(exps)
    if deg > _MAX_DEGREE:
        raise ExprError(f"total degree {deg} exceeds {_MAX_DEGREE}")
    key = deg
    for e in exps:
        key = key << _FIELD | e
    return key


def _unpack(key, w):
    return tuple(key >> _FIELD * (w - 1 - i) & _MASK for i in range(w))


def _check_degree(key):
    # below the limit the top set bit lies under the top field's guard bit
    if key and not key.bit_length() % _FIELD:
        raise ExprError(f"a total degree exceeds {_MAX_DEGREE}")


def _guard(key):
    """The guard bits of every field up to key's top field."""
    n = key.bit_length() // _FIELD + 1
    return ((1 << _FIELD * n) - 1) // _MASK << (_FIELD - 1)


def _occurs(poly):
    """Bitwise or of the monomials: a field is nonzero where its generator occurs."""
    return functools.reduce(operator.or_, poly, 0)


def _repack(poly, pairs, old_w, new_w):
    """poly with the exponent field of generator i moved to j, for each
    (i, j) in pairs; the other fields must be zero."""
    moves = [(_shift(i, old_w), _shift(j, new_w)) for i, j in pairs]
    top_old, top_new = _FIELD * old_w, _FIELD * new_w
    out = {}
    for e, c in poly.items():
        k = e >> top_old << top_new
        for s, t in moves:
            k |= (e >> s & _MASK) << t
        out[k] = c
    return out


def _p_add(a, b):
    out = dict(a)
    get = out.get
    for e, c in b.items():
        s = get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _p_neg(a):
    return {e: -c for e, c in a.items()}


def _p_sub(a, b):
    return _p_add(a, _p_neg(b))


def _p_mul(a, b):
    if not a or not b:
        return {}
    _check_degree(max(a) + max(b))
    if len(a) < len(b):
        a, b = b, a
    out = {}
    get = out.get
    for eb, cb in b.items():
        for ea, ca in a.items():
            k = ea + eb
            out[k] = get(k, 0) + ca * cb
    if 0 in out.values():
        return {k: c for k, c in out.items() if c}
    return out


def _p_divexact(num, den):
    """Quotient num/den when the division is exact in Z[x], else None."""
    if not num:
        return {}
    dl = max(den)
    dlc = den[dl]
    guard = _guard(max(num))
    rest = [(k, c) for k, c in den.items() if k != dl]
    rem = dict(num)
    quot = {}
    while rem:
        rl = max(rem)
        e = rl - dl
        q, r = divmod(rem.pop(rl), dlc)
        if e < 0 or e & guard or r:
            return None
        quot[e] = q
        for k, c in rest:
            k += e
            s = rem.get(k, 0) - q * c
            if s:
                rem[k] = s
            else:
                del rem[k]
    return quot


def _p_derive(poly, i, w):
    sh = _shift(i, w)
    unit = _unit(i, w)
    out = {}
    for e, c in poly.items():
        k = e >> sh & _MASK
        if k:
            out[e - unit] = c * k
    return out


# multivariate gcd (primitive pseudo-remainder sequence over Z) ----------------


def _p_const(poly):
    return not poly or (len(poly) == 1 and 0 in poly)


def _p_normal(poly):
    """poly over its integer content, with a positive leading coefficient."""
    g = math.gcd(*poly.values())
    if poly[max(poly)] < 0:
        g = -g
    if g == 1:
        return poly
    return {e: c // g for e, c in poly.items()}


def _by_degree(poly, var, w):
    """Group a polynomial by its degree in one variable."""
    sh = _shift(var, w)
    unit = _unit(var, w)
    out = {}
    for e, c in poly.items():
        d = e >> sh & _MASK
        out.setdefault(d, {})[e - d * unit] = c
    return out


def _p_primitive(poly, var, w):
    """(content, primitive part) of poly viewed in Z[rest][var].

    The content is the gcd of the coefficients in Z[rest], up to its
    integer content; the primitive part is also free of integer content.
    """
    content = {}
    for b in _by_degree(poly, var, w).values():
        content = _p_gcd(content, b, w)
        if _p_const(content):
            return content, _p_normal(poly)
    return content, _p_normal(_p_divexact(poly, content))


def _p_pseudo_rem(a, b, var, w):
    """Pseudo-remainder of a by b in the main variable."""
    sh = _shift(var, w)
    unit = _unit(var, w)
    b_deg = max(e >> sh & _MASK for e in b)
    b_lead = {e - b_deg * unit: c for e, c in b.items() if e >> sh & _MASK == b_deg}
    rem = a
    while rem:
        r_deg = max(e >> sh & _MASK for e in rem)
        if r_deg < b_deg:
            break
        r_lead = {e - r_deg * unit: c for e, c in rem.items() if e >> sh & _MASK == r_deg}
        step = (r_deg - b_deg) * unit
        shifted = {e + step: c for e, c in b.items()}
        rem = _p_sub(_p_mul(rem, b_lead), _p_mul(shifted, r_lead))
    return rem


_GCD_POINTS = ((3, -5, 7, -11, 13, -17, 19, -23), (2, 9, -4, 5, -8, 3, -7, 6))
_PRIME = (1 << 61) - 1


def _p_uni_image(poly, var, points, w):
    """Univariate image in one variable at fixed integer substitutions,
    with coefficients reduced modulo _PRIME."""
    sh_var = _shift(var, w)
    others = [(_shift(i, w), points[i % len(points)]) for i in range(w) if i != var]
    out = {}
    for e, c in poly.items():
        v = c
        for sh, x in others:
            k = e >> sh & _MASK
            if k:
                v *= pow(x, k, _PRIME)
        d = e >> sh_var & _MASK
        out[d] = (out.get(d, 0) + v) % _PRIME
    return {d: c for d, c in out.items() if c}


def _uni_gcd_degree(a, b):
    """Degree of the gcd of two univariate images modulo _PRIME."""
    a, b = dict(a), dict(b)
    while b:
        db = max(b)
        inv = pow(b[db], -1, _PRIME)
        while a and max(a) >= db:
            da = max(a)
            f = a.pop(da) * inv % _PRIME
            for d, c in b.items():
                if d == db:
                    continue
                nd = d + da - db
                s = (a.get(nd, 0) - f * c) % _PRIME
                if s:
                    a[nd] = s
                else:
                    a.pop(nd, None)
        a, b = b, a
    return max(a) if a else -1


def _gcd_trivial_in(a, b, var, w):
    """True when the gcd provably has degree 0 in the variable.

    A point is used only when both images, taken modulo a prime, keep
    their degree in the variable; then the image of the gcd divides the
    images' gcd and keeps its own degree, so a constant univariate gcd
    proves a trivial one (Brown, J. ACM 18 (1971)).  When no point
    qualifies the answer is False, and the caller computes the gcd in full.
    """
    sh = _shift(var, w)
    deg_a = max(e >> sh & _MASK for e in a)
    deg_b = max(e >> sh & _MASK for e in b)
    for points in _GCD_POINTS:
        ia = _p_uni_image(a, var, points, w)
        ib = _p_uni_image(b, var, points, w)
        if not ia or not ib or max(ia) != deg_a or max(ib) != deg_b:
            continue
        if _uni_gcd_degree(ia, ib) == 0:
            return True
    return False


def _p_gcd(a, b, w):
    """GCD in Z[x1..xw] up to its integer content: primitive, with a
    positive leading coefficient.

    Images modulo a prime prove the gcd trivial in most variables; the
    primitive pseudo-remainder sequence in a remaining variable decides
    the other pairs.
    """
    if not a or not b:
        g = a or b
    else:
        occ_a, occ_b = _occurs(a), _occurs(b)
        heavy = [
            v
            for v in range(w)
            if occ_a >> _shift(v, w) & _MASK
            and occ_b >> _shift(v, w) & _MASK
            and not _gcd_trivial_in(a, b, v, w)
        ]
        if not heavy:
            return {0: 1}
        var = heavy[0]
        ca, pa = _p_primitive(a, var, w)
        cb, pb = _p_primitive(b, var, w)
        cg = _p_gcd(ca, cb, w)
        while pb:
            rem = _p_pseudo_rem(pa, pb, var, w)
            pa, pb = pb, rem
            if pb:
                _, pb = _p_primitive(pb, var, w)
        g = _p_mul(cg, pa)
    if not g:
        return {}
    return _p_normal(g)


# ---------------------------------------------------------------------------
# generators


class FuncGen:
    """A whole function application used as a polynomial generator."""

    __slots__ = ("fn", "arg", "_key", "_hash")

    def __init__(self, fn: str, arg: "ScalarExpr"):
        self.fn = fn
        self.arg = arg
        self._key = (1, fn, str(arg))
        self._hash = hash(self._key)

    def __eq__(self, other):
        return (
            isinstance(other, FuncGen)
            and self._key == other._key
            and self.arg == other.arg
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        return f"{self.fn}({self.arg})"

    __repr__ = __str__


def _gen_key(g):
    if isinstance(g, str):
        return (0, g, "")
    return g._key


def _gen_str(g):
    return g if isinstance(g, str) else str(g)


# ---------------------------------------------------------------------------
# ScalarExpr


class ScalarExpr:
    """Immutable exact scalar in canonical rational normal form.

    ``num`` and ``den`` are polynomials in ``gens``, which are sorted by
    ``_gen_key`` and all occur.  A polynomial maps packed monomials to
    integer coefficients.  ``num`` and ``den`` have no common factor in
    Z[gens], not even an integer one, and ``den``'s grlex leading
    coefficient ``lc`` is positive; so every value has one form, one hash
    and one printed text.  Rationals appear only where text or floats are
    made: a term prints and evaluates as ``c / lc`` over ``den / lc``.

    A rational constant ``p / r`` is the same form without generators: the
    unit monomial is ``0`` at every width, so ``num == {0: p}`` and
    ``den == {0: r}`` with ``r > 0`` and ``gcd(p, r) == 1``, and zero is
    ``{}`` over ``{0: 1}``.

    The constructor normalizes polynomials given with packed monomials or
    exponent tuples and with int, rational or float coefficients.

    ``+``, ``*`` and ``/`` take exact shortcuts for the operand kinds most
    arithmetic is made of, each giving the form the generic
    ``_unify``/``_p_mul``/``_normalize`` path gives: a zero operand
    (``a + 0`` is ``a`` itself, ``0 * a`` and ``0 / a`` are ``ZERO``), two
    rational constants (cross-multiplied and reduced by one gcd), a rational
    factor or divisor ``p / r`` (``_scaled``: integer factors on the
    numerator and denominator, without normalizing), and in ``+`` equal
    denominators (the numerators added over the shared one, then
    normalized, since the sum may share a factor with it).
    """

    __slots__ = ("gens", "num", "den", "_str", "_hash", "_d")

    def __init__(self, gens, num, den, _raw=False):
        if not _raw:
            gens, num, den = _normalize(gens, *_integral(num, den))
        self.gens = gens
        self.num = num
        self.den = den
        self._str = None
        self._hash = None
        self._d = None

    # -- predicates ---------------------------------------------------------

    @property
    def is_structural_zero(self) -> bool:
        return not self.num

    @property
    def is_rational(self) -> bool:
        return not self.gens

    def as_fraction(self):
        from fractions import Fraction  # a library path: no check calls it
        if self.gens:
            raise ExprError(f"not a rational constant: {self}")
        return Fraction(self.num.get(0, 0), self.den[0])

    def free_symbols(self) -> frozenset:
        """All coordinate/parameter names, recursing into function arguments."""
        out = set()
        for g in self.gens:
            if isinstance(g, str):
                out.add(g)
            else:
                out |= g.arg.free_symbols()
        return frozenset(out)

    def parts(self):
        """``(terms, den)``: the numerator's terms in printed order, as
        ``(exponent tuple, int)`` pairs, and the denominator as an
        expression; the expression is their sum over that denominator."""
        w = len(self.gens)
        terms = [(_unpack(k, w), self.num[k]) for k in sorted(self.num, reverse=True)]
        return terms, _new(self.gens, self.den, {0: 1})

    def __bool__(self):
        return bool(self.num)

    # -- equality -----------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return (
            self.gens == other.gens and self.num == other.num and self.den == other.den
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (
                    self.gens,
                    frozenset(self.num.items()),
                    frozenset(self.den.items()),
                )
            )
        return self._hash

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        if not self.gens and not other.gens:
            r, t = self.den[0], other.den[0]
            return _ratio(self.num[0] * t + other.num[0] * r, r * t)
        gens, a_num, a_den, b_num, b_den = _unify(self, other)
        if a_den == b_den:
            return _new(gens, _p_add(a_num, b_num), a_den)
        num = _p_add(_p_mul(a_num, b_den), _p_mul(b_num, a_den))
        return _new(gens, num, _p_mul(a_den, b_den))

    __radd__ = __add__

    def __neg__(self):
        return ScalarExpr(self.gens, _p_neg(self.num), self.den, _raw=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        if not self.gens:
            return _scaled(other, self.num[0], self.den[0])
        if not other.gens:
            return _scaled(self, other.num[0], other.den[0])
        gens, a_num, a_den, b_num, b_den = _unify(self, other)
        return _new(gens, _p_mul(a_num, b_num), _p_mul(a_den, b_den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_structural_zero:
            raise ExprError("division by zero expression")
        if not self.num:
            return ZERO
        if not other.gens:
            # by r / p, with a negative p's sign moved to the numerator
            p, r = other.num[0], other.den[0]
            return _scaled(self, r, p) if p > 0 else _scaled(self, -r, -p)
        gens, a_num, a_den, b_num, b_den = _unify(self, other)
        return _new(gens, _p_mul(a_num, b_den), _p_mul(a_den, b_num))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ExprError(f"exponent must be an integer, got {n!r}")
        if n == 0:
            return ONE
        if n < 0:
            if self.is_structural_zero:
                raise ExprError("negative power of zero expression")
            base = _reciprocal(self)
            n = -n
        else:
            base = self
        out = base
        for _ in range(n - 1):
            out = out * base
        return out

    # -- calculus ------------------------------------------------------------

    def derive(self, name: str) -> "ScalarExpr":
        """Exact partial derivative with respect to the named symbol.

        Memoized per instance, like the printed form and the hash: the
        expression is immutable, so each derivative is taken once and
        lives as long as the expression does.
        """
        if not self.gens:
            return ZERO
        if self._d is None:
            self._d = {}
        out = self._d.get(name)
        if out is None:
            out = self._d[name] = self._derive(name)
        return out

    def _derive(self, name: str) -> "ScalarExpr":
        """The logarithmic derivative of a one-term quotient, else the quotient rule.

        A one-term ``e = c prod g_i^k_i``, with exponents of either sign,
        has ``e' = e sum_i k_i (log g_i)'`` (``_monomial_derivative``) when
        each generator that depends on the name is the name itself or an
        ``exp(u)`` with a rational-constant ``u'``.  Every other expression
        takes ``_quotient_rule``; both give the same canonical form.
        """
        if len(self.num) == 1 and len(self.den) == 1:
            out = _monomial_derivative(self, name)
            if out is not None:
                return out
        return _quotient_rule(self, name)

    def subs(self, mapping: dict[str, ScalarExpr]) -> "ScalarExpr":
        """Substitute expressions for symbols (parameters stay symbolic)."""
        mapping = {k: _coerce(v) for k, v in mapping.items()}
        vals = []
        for g in self.gens:
            if isinstance(g, str):
                vals.append(mapping.get(g, symbol(g)))
            else:
                vals.append(apply_function(g.fn, g.arg.subs(mapping)))
        num_v = _poly_at(self.num, vals)
        den_v = _poly_at(self.den, vals)
        return num_v / den_v

    def evaluate(self, env: dict[str, float]) -> float:
        """Numeric value at a sample point; raises EvaluationSingularity on poles."""
        num_terms, den_terms = _eval_terms(self, env)
        den_val = math.fsum(den_terms)
        den_scale = max((abs(t) for t in den_terms), default=0.0)
        if abs(den_val) <= 1e-12 * max(den_scale, 1e-300):
            raise EvaluationSingularity("denominator vanishes at the sample point")
        return math.fsum(num_terms) / den_val

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if self._str is None:
            self._str = _render(self)
        return self._str

    def __repr__(self):
        return f"ScalarExpr({self})"


ZERO = ScalarExpr((), {}, {0: 1}, _raw=True)
ONE = ScalarExpr((), {0: 1}, {0: 1}, _raw=True)


def _new(gens, num, den) -> ScalarExpr:
    """The expression num/den of packed integer polynomials, normalized."""
    return ScalarExpr(*_normalize(gens, num, den), _raw=True)


def _integral(num, den):
    """num and den with packed monomials and integer coefficients.

    Monomials may come as exponent tuples or packed, coefficients as ints,
    rationals (such as Fractions) or floats; both polynomials are
    multiplied by the least common denominator of the coefficients, and
    zero coefficients are dropped.
    """
    num, den = ({_pack(k) if type(k) is tuple else k: rational(c) for k, c in poly.items() if c}
                for poly in (num, den))
    scale = math.lcm(1, *(q.den[0] for q in (*num.values(), *den.values())))
    return tuple({k: q.num[0] * (scale // q.den[0]) for k, q in p.items()} for p in (num, den))


def _normalize(gens, num, den):
    if not den:
        raise ExprError("zero denominator")
    if not num:
        return (), {}, {0: 1}
    w = len(gens)
    # cancel the common monomial content
    if 0 not in num and 0 not in den:
        m = _common_monomial(num, den, w)
        if m:
            num = {e - m: c for e, c in num.items()}
            den = {e - m: c for e, c in den.items()}
    # split off the integer contents, the sign of den's leading term with them
    cn = math.gcd(*num.values())
    cd = math.gcd(*den.values())
    if den[max(den)] < 0:
        cd = -cd
    if cn != 1:
        num = {e: c // cn for e, c in num.items()}
    if cd != 1:
        den = {e: c // cd for e, c in den.items()}
    # cancel the gcd of the primitive parts; a monomial has none left
    if len(den) > 1 and len(num) > 1:
        quot = _p_divexact(num, den)
        if quot is not None:
            num, den = quot, {0: 1}
        else:
            g = _p_gcd(num, den, w)
            if not _p_const(g):
                num = _p_divexact(num, g)
                den = _p_divexact(den, g)
    # put back the reduced rational factor cn / cd
    h = math.gcd(cn, cd)
    p, r = cn // h, cd // h
    if r < 0:
        p, r = -p, -r
    if p != 1:
        num = {e: c * p for e, c in num.items()}
    if r != 1:
        den = {e: c * r for e, c in den.items()}
    # drop generators that no longer occur
    occ = _occurs(num) | _occurs(den)
    used = [i for i in range(w) if occ >> _shift(i, w) & _MASK]
    if len(used) < w:
        pairs = [(i, j) for j, i in enumerate(used)]
        gens = tuple(gens[i] for i in used)
        num = _repack(num, pairs, w, len(used))
        den = _repack(den, pairs, w, len(used))
    return gens, num, den


def _common_monomial(num, den, w):
    """The largest monomial dividing every term of num and den (0 for 1)."""
    m = deg = 0
    for i in range(w):
        sh = _shift(i, w)
        lo = min(e >> sh & _MASK for e in num)
        if lo:
            lo = min(lo, min(e >> sh & _MASK for e in den))
        if lo:
            m |= lo << sh
            deg += lo
    return m | deg << _FIELD * w if m else 0


def _scaled(e: ScalarExpr, p: int, r: int) -> ScalarExpr:
    """``e * p / r`` for a nonzero structural ``e`` and nonzero ints ``p``
    and ``r > 0`` with no common factor.

    The numerator is multiplied by ``p`` and the denominator by ``r``,
    after cancelling the integer factors ``p`` shares with the denominator's
    content and ``r`` with the numerator's.  That keeps the two coprime, the
    denominator's leading coefficient positive and the generators in use the
    same, so the result is canonical without ``_normalize``.
    """
    if p == r:  # both 1
        return e
    g = math.gcd(p, *e.den.values())
    h = math.gcd(r, *e.num.values())
    p, r = p // g, r // h
    num = e.num if h == 1 else {k: c // h for k, c in e.num.items()}
    den = e.den if g == 1 else {k: c // g for k, c in e.den.items()}
    if p != 1:
        num = {k: c * p for k, c in num.items()}
    if r != 1:
        den = {k: c * r for k, c in den.items()}
    return ScalarExpr(e.gens, num, den, _raw=True)


def _reciprocal(e: ScalarExpr) -> ScalarExpr:
    """``1 / e`` for a nonzero ``e``: the two polynomials swapped, with the
    sign moved to the numerator."""
    if e.num[max(e.num)] < 0:
        return ScalarExpr(e.gens, _p_neg(e.den), _p_neg(e.num), _raw=True)
    return ScalarExpr(e.gens, e.den, e.num, _raw=True)


def _coerce(x):
    """x as an expression, from an expression, an int or a rational with
    integer ``numerator`` and positive ``denominator`` (a Fraction)."""
    if isinstance(x, ScalarExpr):
        return x
    if type(x) is int:
        return _ratio(x, 1)
    n, d = getattr(x, "numerator", None), getattr(x, "denominator", None)
    return _ratio(n, d) if isinstance(n, int) and isinstance(d, int) else NotImplemented


def _lift(e: ScalarExpr, pos, w):
    """e's num and den as polynomials in w generators, at positions pos."""
    if len(e.gens) == w:
        return e.num, e.den
    pairs = [(i, pos[g]) for i, g in enumerate(e.gens)]
    return _repack(e.num, pairs, len(e.gens), w), _repack(e.den, pairs, len(e.gens), w)


def _unify(a: ScalarExpr, b: ScalarExpr):
    if a.gens == b.gens:
        return a.gens, a.num, a.den, b.num, b.den
    gens = tuple(sorted(set(a.gens) | set(b.gens), key=_gen_key))
    pos = {g: i for i, g in enumerate(gens)}
    w = len(gens)
    return (gens, *_lift(a, pos, w), *_lift(b, pos, w))


def _poly_at(poly, vals):
    """Evaluate a polynomial at ScalarExpr generator values."""
    total = ZERO
    w = len(vals)
    for e, c in poly.items():
        t = rational(c)
        for v, k in zip(vals, _unpack(e, w)):
            if k:
                t = t * v**k
        total = total + t
    return total


def _eval_terms(e, env):
    """The float terms of e.num and of e.den at a sample point, as printed.

    Both are divided by the leading coefficient of e.den, and each
    generator, with the function argument inside it, is evaluated once.
    """
    vals = []
    for g in e.gens:
        if isinstance(g, str):
            try:
                vals.append(float(env[g]))
            except KeyError:
                raise ExprError(f"no value supplied for symbol '{g}'") from None
        else:
            x = g.arg.evaluate(env)
            try:
                vals.append(getattr(math, g.fn)(x))
            except (ValueError, OverflowError) as exc:
                raise EvaluationSingularity(f"{g.fn}({x}) undefined") from exc
    w = len(e.gens)
    shifts = [_shift(i, w) for i in range(w)]
    lc = e.den[max(e.den)]
    out = []
    for poly in (e.num, e.den):
        terms = []
        for m, c in poly.items():
            # int / int is correctly rounded, so this is float(Fraction(c, lc))
            t = c / lc if lc != 1 else float(c)
            try:
                for v, sh in zip(vals, shifts):
                    k = m >> sh & _MASK
                    if k:
                        t *= v**k
            except OverflowError as exc:
                raise EvaluationSingularity("overflow during evaluation") from exc
            terms.append(t)
        out.append(terms or [0.0])
    return out


# ---------------------------------------------------------------------------
# constructors

_GEN = 1 << _FIELD | 1  # the one generator of a one-generator expression


def rational(x) -> ScalarExpr:
    """Exact constant from an int, a Fraction, a float or a decimal string."""
    q = _coerce(x)
    if q is NotImplemented:
        from fractions import Fraction  # no check makes a constant of a float or text
        q = _coerce(Fraction(x))
    return q


def _ratio(p: int, r: int) -> ScalarExpr:
    """The constant ``p / r`` for ints ``p`` and ``r > 0``."""
    if not p:
        return ZERO
    g = math.gcd(p, r)
    return ScalarExpr((), {0: p // g}, {0: r // g}, _raw=True)


def symbol(name: str) -> ScalarExpr:
    return _gen_expr(name)


def _gen_expr(g) -> ScalarExpr:
    return ScalarExpr((g,), {_GEN: 1}, {0: 1}, _raw=True)


def _lead_sign(e: ScalarExpr) -> int:
    return 1 if e.num[max(e.num)] > 0 else -1


def _single_exp_power(e: ScalarExpr):
    """If e == exp(u)^k exactly (single monomial, coefficient 1), return (u, k)."""
    if len(e.gens) == 1 and isinstance(e.gens[0], FuncGen) and e.gens[0].fn == "exp":
        if e.den == {0: 1} and len(e.num) == 1:
            ((k, c),) = e.num.items()
            if c == 1:
                return e.gens[0].arg, k & _MASK
        if e.num == {0: 1} and len(e.den) == 1:
            ((k, c),) = e.den.items()
            if c == 1:
                return e.gens[0].arg, -(k & _MASK)
    return None


def exp(a) -> ScalarExpr:
    a = _coerce(a)
    if a.is_structural_zero:
        return ONE
    if len(a.gens) == 1 and isinstance(a.gens[0], FuncGen) and a.gens[0].fn == "log":
        if a.num == {_GEN: 1} and a.den == {0: 1}:
            return a.gens[0].arg
    if _lead_sign(a) < 0:
        return ONE / exp(-a)
    return _gen_expr(FuncGen("exp", a))


def log(a) -> ScalarExpr:
    a = _coerce(a)
    if a.is_rational:
        p, r = a.num.get(0, 0), a.den[0]
        if p <= 0:
            raise ExprError(f"log of non-positive constant {a}")
        if p == r:
            return ZERO
        return _gen_expr(FuncGen("log", a))
    hit = _single_exp_power(a)
    if hit is not None:
        u, k = hit
        return rational(k) * u
    return _gen_expr(FuncGen("log", a))


def sin(a) -> ScalarExpr:
    a = _coerce(a)
    if a.is_structural_zero:
        return ZERO
    if _lead_sign(a) < 0:
        return -sin(-a)
    return _gen_expr(FuncGen("sin", a))


def cos(a) -> ScalarExpr:
    a = _coerce(a)
    if a.is_structural_zero:
        return ONE
    if _lead_sign(a) < 0:
        return cos(-a)
    return _gen_expr(FuncGen("cos", a))


_APPLY = {"exp": exp, "log": log, "sin": sin, "cos": cos}


def apply_function(fn: str, arg) -> ScalarExpr:
    try:
        f = _APPLY[fn]
    except KeyError:
        raise ExprError(f"unknown function '{fn}'") from None
    return f(arg)


def _gen_derivative(g, name: str) -> ScalarExpr:
    if isinstance(g, str):
        return ONE if g == name else ZERO
    da = g.arg.derive(name)
    if da.is_structural_zero:
        return ZERO
    if g.fn == "exp":
        return _gen_expr(g) * da
    if g.fn == "log":
        return da / g.arg
    if g.fn == "sin":
        return cos(g.arg) * da
    return -sin(g.arg) * da


def _quotient_rule(e: ScalarExpr, name: str) -> ScalarExpr:
    """The quotient rule on the polynomials, normalized once.

    With ``g_i' = a_i / b_i`` over a common denominator ``B``, the
    derivative of ``N / D`` is ``(N' D - N D') / (B D^2)``, where
    ``N' = sum_i (dN/dg_i) a_i B / b_i`` and likewise ``D'``.
    """
    chain = []
    for g in e.gens:
        dg = _gen_derivative(g, name)
        if dg.num:
            chain.append((g, dg))
    if not chain:
        return ZERO
    gens = e.gens
    extra = {h for _, dg in chain for h in dg.gens}.difference(gens)
    if extra:
        gens = tuple(sorted(extra.union(gens), key=_gen_key))
    w = len(gens)
    pos = {g: i for i, g in enumerate(gens)}
    num, den = _lift(e, pos, w)
    lifted = [(pos[g], *_lift(dg, pos, w)) for g, dg in chain]
    common = {0: 1}
    for _, _, b in lifted:
        if _p_divexact(common, b) is None:
            common = _p_mul(common, b)
    const_den = len(den) == 1 and 0 in den
    d_num, d_den = {}, {}
    for i, a, b in lifted:
        factor = _p_mul(a, _p_divexact(common, b))
        d_num = _p_add(d_num, _p_mul(_p_derive(num, i, w), factor))
        if not const_den:
            d_den = _p_add(d_den, _p_mul(_p_derive(den, i, w), factor))
    if const_den:
        return _new(gens, d_num, _p_mul(den, common))
    top = _p_sub(_p_mul(d_num, den), _p_mul(num, d_den))
    return _new(gens, top, _p_mul(common, _p_mul(den, den)))


def _monomial_derivative(e: ScalarExpr, name: str):
    """``e sum_i k_i (log g_i)'`` for a one-term ``e = c prod g_i^k_i``, or
    None when a generator that depends on the name is neither the name
    itself nor ``exp(u)`` with a rational-constant ``u'``.

    The name's own factor gives ``k c x^(k-1) prod_(j != i) g_j^k_j``, an
    exponent shift, and a factor ``exp(u)^k`` gives ``k u' e``, one
    ``_scaled``; each term is canonical as built, and several are added.
    """
    w = len(e.gens)
    ((m, _),), ((d, _),) = e.num.items(), e.den.items()
    out = ZERO
    for i, g in enumerate(e.gens):
        if isinstance(g, str):
            if g != name:
                continue
        else:
            du = g.arg.derive(name)
            if not du.num:
                continue
            if g.fn != "exp" or du.gens:
                return None
        sh = _shift(i, w)
        k = (m >> sh & _MASK) - (d >> sh & _MASK)
        if isinstance(g, str):
            term = _shifted(e, i, k)
        else:
            p, q = k * du.num[0], du.den[0]
            h = math.gcd(p, q)
            term = _scaled(e, p // h, q // h)
        out = out + term
    return out


def _shifted(e: ScalarExpr, i: int, k: int) -> ScalarExpr:
    """``k e / g_i`` for a one-term ``e`` whose generator ``i`` has the
    exponent ``k``: it moves to ``k - 1``, and ``g_i`` is dropped at zero."""
    gens, w = e.gens, len(e.gens)
    unit = _unit(i, w)
    if k > 0:
        ((m, c),) = e.num.items()
        num, den = {m - unit: c}, e.den
    else:
        ((d, r),) = e.den.items()
        _check_degree(d + unit)
        num, den = e.num, {d + unit: r}
    if k == 1:
        pairs = [(j, j - (j > i)) for j in range(w) if j != i]
        gens = gens[:i] + gens[i + 1 :]
        num, den = _repack(num, pairs, w, w - 1), _repack(den, pairs, w, w - 1)
    return _scaled(ScalarExpr(gens, num, den, _raw=True), k, 1)


# ---------------------------------------------------------------------------
# printing


def _term_str(exps, n, d, gens):
    """Sign and text of the term (n / d) * monomial, for coprime n and d > 0."""
    parts = []
    for g, k in zip(gens, exps):
        if k == 1:
            parts.append(_gen_str(g))
        elif k > 1:
            parts.append(f"{_gen_str(g)}^{k}")
    mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
    if parts and mag == "1":
        body = "*".join(parts)
    else:
        body = "*".join([mag] + parts)
    return n < 0, body


def _poly_str(poly, gens, lc):
    """poly / lc in grlex order, highest term first."""
    w = len(gens)
    pieces = []
    for i, e in enumerate(sorted(poly, reverse=True)):
        g = math.gcd(poly[e], lc) if lc > 0 else -math.gcd(poly[e], lc)
        neg, body = _term_str(_unpack(e, w), poly[e] // g, lc // g, gens)
        if i == 0:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f" - {body}" if neg else f" + {body}")
    return "".join(pieces), len(poly)


def _den_needs_parens(den, gens):
    if len(den) > 1:
        return True
    return sum(1 for k in _unpack(max(den), len(gens)) if k) != 1


def _render(e: ScalarExpr) -> str:
    if not e.num:
        return "0"
    lc = e.den[max(e.den)]
    num_s, n_terms = _poly_str(e.num, e.gens, lc)
    if len(e.den) == 1 and 0 in e.den:
        return num_s
    den_s, _ = _poly_str(e.den, e.gens, lc)
    if n_terms > 1:
        num_s = f"({num_s})"
    if _den_needs_parens(e.den, e.gens):
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


# ---------------------------------------------------------------------------
# parsing

_OPERATORS = frozenset("-+*/^()")
_NAME_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_0123456789")


def _tokenize(text: str):
    """The tokens of text, where each starts, and where tokenizing stopped:
    at the end of the text or, past its whitespace (``str.isspace``), at
    the first character that starts no token.  A token is a number (digits
    of ``str.isdecimal``, then optionally "." and more digits), an ASCII
    name ``[A-Za-z_][A-Za-z0-9_]*`` or one operator character of
    ``-+*/^()``; whitespace may precede it.
    """
    toks, starts = [], []
    i, n = 0, len(text)
    while True:
        while i < n and text[i].isspace():
            i += 1
        if i == n:
            return toks, starts, i
        c, j = text[i], i + 1
        if c.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            if j + 1 < n and text[j] == "." and text[j + 1].isdecimal():
                j += 2
                while j < n and text[j].isdecimal():
                    j += 1
        elif c in _NAME_CHARS:  # a letter or "_": a digit took the branch above
            while j < n and text[j] in _NAME_CHARS:
                j += 1
        elif c not in _OPERATORS:
            return toks, starts, i
        toks.append(text[i:j])
        starts.append(i)
        i = j


# a power is expanded by repeated multiplication, so its exponent is bounded
MAX_EXPONENT = 32

# and the parser refuses an expansion whose predicted number of terms (of
# the larger of numerator and denominator) exceeds this bound
MAX_TERMS = 10_000


# and one whose total degree (of numerator or denominator) exceeds this
# bound: half the kernel's limit, so that a product of two parsed
# coefficients still fits
MAX_DEGREE = _MAX_DEGREE // 2

# the parser descends five calls per parenthesis, so it refuses nesting
# deeper than this bound before Python's recursion limit (1000) is reached
MAX_DEPTH = 150

# every coefficient is converted to a float to be sampled (a float holds
# integers below 2^1024) and to text to be printed, so parse_scalar refuses
# a parsed coefficient of more bits than this bound
MAX_COEFFICIENT_BITS = 1000


def _degrees(e):
    """Total degrees of e's numerator and denominator."""
    if not e.gens:
        return 0, 0
    top = _FIELD * len(e.gens)
    return max(e.num) >> top, max(e.den) >> top


class _Parser:
    """Recursive descent over the tokens of one expression.

    The text is split into tokens once, up to the first character that
    starts no token; that character is reported, at its own position, when
    the parser reaches it.

    Every subterm is a ScalarExpr, and the operators are its arithmetic.
    Before each operation the bounds predict the size of its result from
    the terms and total degrees of the operands' numerators and
    denominators, and report an oversized one at its operator.
    """

    def __init__(self, text: str, chart: "Chart"):
        self.text = text
        toks, self.starts, self.end = _tokenize(text)
        # the last token, "", is the end of the text or the character there
        self.toks = toks + [""]
        self.starts.append(self.end)
        self.i = 0
        self.depth = 0
        self.names = chart.coords + chart.params

    # -- tokens ----------------------------------------------------------------

    def peek(self):
        tok = self.toks[self.i]
        if not tok and self.end < len(self.text):
            raise ExprSyntaxError(
                f"unexpected character {self.text[self.end]!r}", self.end
            )
        return tok

    def _next(self):
        tok = self.peek()
        if tok:
            self.i += 1
        return tok

    def expect_op(self, op):
        i = self.i
        if self._next() != op:
            raise ExprSyntaxError(f"expected '{op}'", self.starts[i])

    def _literal(self, i):
        """Number token i as ``(n, d)`` with d > 0 and gcd(n, d) == 1; a
        whole or fractional digit run too long for Python's integer
        conversion is a syntax error."""
        text = self.toks[i]
        whole, _, frac = text.partition(".")
        try:
            if not frac:
                return int(whole), 1
            d = 10 ** len(frac)
            n = int(whole) * d + int(frac)
        except ValueError:
            raise ExprSyntaxError(
                f"number literal of {len(text)} characters is too long", self.starts[i]
            ) from None
        g = math.gcd(n, d)
        return n // g, d // g

    # -- bounds ------------------------------------------------------------------

    def _check_terms(self, predicted, what, i):
        if predicted > MAX_TERMS:
            raise ExprSyntaxError(
                f"{what} may expand to {predicted} terms, more than {MAX_TERMS}",
                self.starts[i],
            )

    def _open(self, i):
        """Enter the parenthesis at token i, within MAX_DEPTH levels."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(
                f"parentheses nest more than {MAX_DEPTH} deep", self.starts[i]
            )

    def _close(self):
        self.expect_op(")")
        self.depth -= 1

    def _check_degree_bound(self, predicted, what, i):
        if predicted > MAX_DEGREE:
            raise ExprSyntaxError(
                f"{what} has total degree {predicted}, more than {MAX_DEGREE}",
                self.starts[i],
            )

    def _size(self, e):
        """Terms of e's numerator and denominator, then their total degrees."""
        return (len(e.num), len(e.den), *_degrees(e))

    # -- grammar -------------------------------------------------------------------

    def parse(self) -> ScalarExpr:
        e = self.expr()
        i = self.i
        tok = self._next()
        if tok:
            raise ExprSyntaxError(f"unexpected trailing input {quote(tok)}", self.starts[i])
        return e

    def expr(self):
        e = self.term()
        while True:
            op = self.peek()
            if op != "+" and op != "-":
                return e
            i = self.i
            self.i += 1
            rhs = self.term()
            if e.den != rhs.den:
                # the numerators cross-multiply with the denominators
                (en, ed, _, _), (rn, rd, _, _) = self._size(e), self._size(rhs)
                self._check_terms(max(en * rd + rn * ed, ed * rd), "a sum of quotients", i)
            e = e + rhs if op == "+" else e - rhs
            self._check_degree_bound(max(self._size(e)[2:]), "a sum", i)

    def term(self):
        e = self.unary()
        while True:
            op = self.peek()
            if op != "*" and op != "/":
                return e
            i = self.i
            self.i += 1
            rhs = self.unary()
            (en, ed, edn, edd), (rn, rd, rdn, rdd) = self._size(e), self._size(rhs)
            if op == "/":
                # numerators and denominators multiply crosswise
                rn, rd, rdn, rdd = rd, rn, rdd, rdn
            self._check_terms(max(en * rn, ed * rd), "a product", i)
            self._check_degree_bound(max(edn + rdn, edd + rdd), "a product", i)
            if op == "*":
                e = e * rhs
            elif not rd:  # the divisor's numerator is empty
                raise ExprSyntaxError("division by zero", self.starts[i])
            else:
                e = e / rhs

    def unary(self):
        sign = 1
        while True:
            op = self.peek()
            if op != "+" and op != "-":
                break
            self.i += 1
            if op == "-":
                sign = -sign
        e = self.power()
        return e if sign > 0 else -e

    def power(self):
        base = self.atom()
        if self.peek() != "^":
            return base
        i = self.i
        self.i += 1
        n = self.exponent()
        if abs(n) > MAX_EXPONENT:
            shown = str(n) if len(str(n)) <= QUOTE_LIMIT else quote(str(n))
            raise ExprSyntaxError(
                f"exponent {shown} is outside -{MAX_EXPONENT}..{MAX_EXPONENT}", self.starts[i]
            )
        bn, bd, bdn, bdd = self._size(base)
        if n < 0 and not bn:
            # reported where the exponent ends
            last = self.i - 1
            raise ExprSyntaxError("negative power of zero", self.starts[last] + len(self.toks[last]))
        # a sum of k terms to the power |n| has at most C(k+|n|-1, |n|)
        self._check_terms(math.comb(max(bn, bd) + abs(n) - 1, abs(n)), "a power", i)
        self._check_degree_bound(max(bdn, bdd) * abs(n), "a power", i)
        return base ** n

    def exponent(self) -> int:
        i = self.i
        tok = self._next()
        if tok == "(":
            self._open(i)
            n = self.exponent()
            self._close()
            return n
        neg = tok == "-"
        if neg:
            i = self.i
            tok = self._next()
        if not tok[:1].isdecimal() or "." in tok:
            raise ExprSyntaxError("exponent must be an integer", self.starts[i])
        n, _ = self._literal(i)
        return -n if neg else n

    def atom(self):
        i = self.i
        tok = self._next()
        if tok[:1].isdecimal():
            return _ratio(*self._literal(i))
        if tok == "(":
            self._open(i)
            e = self.expr()
            self._close()
            return e
        if tok in FUNCTIONS:
            self.expect_op("(")
            self._open(i + 1)
            arg = self.expr()
            self._close()
            _check_coefficients(arg)
            return apply_function(tok, arg)
        if tok in self.names:
            return symbol(tok)
        if tok[:1].isalpha() or tok[:1] == "_":
            raise UnknownIdentifierError(tok, self.starts[i])
        raise ExprSyntaxError(f"unexpected token {quote(tok)}", self.starts[i])


# the direct reader leaves longer texts to the descent: a plain text of at
# most this length has at most 320 terms, literals of at most 640 digits (the
# least digit limit Python's integer conversion can be set to) and a total
# degree of at most 4096 (five characters "x^32*" per 32), well within
# MAX_TERMS and MAX_DEGREE
_PLAIN_LENGTH = 640


def _read_plain(text: str, chart: "Chart") -> ScalarExpr | None:
    """The descent's result for a plain polynomial text, or None for any other.

    A plain text is a sum of signed products of chart names and unsigned
    decimal literals, each optionally raised to ``^k`` (k a decimal in
    0..MAX_EXPONENT) and each optionally divided by nonzero literals.  It is
    ASCII without parentheses, and has blanks only around operators.  The
    reader never raises: the descent reads whatever it leaves, so every
    error and bound stays there.
    """
    if len(text) > _PLAIN_LENGTH or not text.isascii() or "(" in text or ")" in text:
        return None
    if " " in text:
        while "  " in text:
            text = text.replace("  ", " ")
        for op in "+-*/^":
            text = text.replace(op + " ", op).replace(" " + op, op)
        text = text.strip(" ")
        if " " in text:  # a blank inside a token, or between two
            return None
    names = chart.coords + chart.params
    pieces = text.replace("-", "+-").split("+")
    if not pieces[0]:  # a leading sign, or no text at all
        del pieces[0]
    terms = []
    for piece in pieces:
        n = d = 1
        if piece[:1] == "-":
            n, piece = -1, piece[1:]
        exps = {}
        for part in piece.split("*"):
            for j, factor in enumerate(part.split("/")):
                base, caret, k = factor.partition("^")
                if caret and not (k.isdigit() and len(k) < 4 and int(k) <= MAX_EXPONENT):
                    return None
                k = int(k) if caret else 1
                if base in names and not j:
                    exps[base] = exps.get(base, 0) + k
                    continue
                whole, dot, frac = base.partition(".")
                if not whole.isdigit() or dot and not frac.isdigit():
                    return None
                p, q = int(whole + frac) ** k, 10 ** (len(frac) * k)
                if j:  # a divisor
                    if not p:
                        return None
                    p, q = q, p
                n, d = n * p, d * q
        terms.append((n, d, exps))
    if not terms:
        return None
    gens = tuple(sorted({g for _, _, exps in terms for g in exps}))
    den = math.lcm(*(d for _, d, _ in terms))
    num = {}
    for n, d, exps in terms:
        key = _pack([exps.get(g, 0) for g in gens])
        num[key] = num.get(key, 0) + n * (den // d)
    return _new(gens, {k: c for k, c in num.items() if c}, {0: den})


def parse_scalar(text: str, chart: "Chart") -> ScalarExpr:
    """Parse an expression against a chart's coordinates and parameters:
    a plain polynomial text by the direct reader, any other by the descent."""
    e = _read_plain(text, chart)
    if e is None:
        e = _Parser(text, chart).parse()
    _check_coefficients(e)
    if chart.torus_strict:
        _check_torus_strict(e, chart)
    return e


def _check_coefficients(e: ScalarExpr):
    """Refuse a coefficient of e above MAX_COEFFICIENT_BITS (the descent
    checks each function argument before it prints it into a generator)."""
    for c in (*e.num.values(), *e.den.values()):
        if c.bit_length() > MAX_COEFFICIENT_BITS:
            raise ExprError(
                f"a coefficient has {c.bit_length()} bits, more than {MAX_COEFFICIENT_BITS}"
            )


def _check_torus_strict(e: ScalarExpr, chart: "Chart"):
    for g in e.gens:
        if isinstance(g, str):
            if g in chart.periodic:
                raise ChartError(
                    f"torus-strict chart: angle coordinate '{g}' may only appear "
                    "inside sin/cos"
                )
        elif g.fn in ("sin", "cos"):
            continue
        else:
            _check_torus_strict(g.arg, chart)


# ---------------------------------------------------------------------------
# charts

def interval_error(name: str, lo: float, hi: float) -> str | None:
    """Why (lo, hi) is no sampling interval for name (a sample from an
    infinite end is inf or nan, and decides no zero test), or None."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return f"sampling interval for {quote(name)} is not finite"
    if not lo < hi:
        return f"empty sampling interval for {quote(name)}"
    return None


class Chart:
    """Named coordinates with periodicity flags and sampling intervals.

    Immutable, and equal and hashed by its five fields.
    """

    __slots__ = ("coords", "periodic", "params", "domains", "torus_strict")

    def __init__(self, coords, periodic=(), params=(), domains=None, torus_strict=False):
        coords = tuple(coords)
        params = tuple(params)
        periodic = frozenset(periodic)
        names = coords + params
        fields = [("coords", n) for n in coords] + [("params", n) for n in params]
        if len(set(names)) != len(names):
            i = next(i for i, n in enumerate(names) if n in names[:i])
            raise ChartError("coordinate/parameter names must be distinct", fields[i])
        for at in fields:
            n = at[1]
            if not (n.isascii() and n.isidentifier()) or n in FUNCTIONS:
                raise ChartError(f"invalid name {quote(n)}", at)
            if n[0] == "d" and n[1:] in coords:
                raise ChartError(
                    f"name {quote(n)} collides with the basis covector of {quote(n[1:])}", at
                )
        for p in sorted(periodic):  # not in hash order, which varies by process
            if p not in coords:
                raise ChartError(
                    f"periodic flag on unknown coordinate {quote(p)}", ("periodic", p)
                )
        table = {}
        for c in coords:
            table[c] = (0.0, math.tau) if c in periodic else (-1.0, 1.0)
        for p in params:
            table[p] = (0.25, 1.75)
        for name, iv in dict(domains or {}).items():
            if name not in table:
                raise ChartError(f"domain for unknown name {quote(name)}", ("domains", name))
            lo, hi = float(iv[0]), float(iv[1])
            why = interval_error(name, lo, hi)
            if why:
                raise ChartError(why, ("domains", name))
            table[name] = (lo, hi)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "periodic", periodic)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "domains", tuple(sorted(table.items())))
        object.__setattr__(self, "torus_strict", torus_strict)

    def _key(self) -> tuple:
        return (self.coords, self.periodic, self.params, self.domains, self.torus_strict)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise ChartError(f"unknown coordinate {quote(name)}") from None

    def domain(self, name: str):
        return dict(self.domains)[name]

    def sample(self, rng: random.Random) -> dict:
        table = dict(self.domains)
        env = {}
        for n in self.coords + self.params:
            lo, hi = table[n]
            env[n] = rng.uniform(lo, hi)
        return env

    def with_coordinate(self, name: str, domain=None) -> "Chart":
        dom = {k: v for k, v in self.domains}
        if domain is not None:
            dom[name] = domain
        return Chart(
            self.coords + (name,),
            periodic=self.periodic,
            params=self.params,
            domains=dom,
            torus_strict=self.torus_strict,
        )


# ---------------------------------------------------------------------------
# verdicts and zero testing


# a kind of zero verdict: its name in traces, its label in reports, and its
# severity, by which Verdict.combine keeps the weakest of several verdicts
VerdictKind = namedtuple("VerdictKind", "value label severity")
VerdictKind.ZERO = VerdictKind("zero", "true", 0)
VerdictKind.PROBABLY_ZERO = VerdictKind("probably-zero", "probably-true", 1)
VerdictKind.UNKNOWN = VerdictKind("unknown", "unknown", 2)
VerdictKind.NONZERO = VerdictKind("nonzero", "false", 3)


class Verdict:
    """Outcome of a zero test: symbolic, probabilistic, refuted, or unknown."""

    __slots__ = ("kind", "witness", "value", "note")

    def __init__(self, kind, witness=None, value=None, note=""):
        self.kind = kind
        self.witness = witness
        self.value = value
        self.note = note

    @classmethod
    def zero(cls, note="symbolic"):
        return cls(VerdictKind.ZERO, note=note)

    @classmethod
    def probably_zero(cls, note=""):
        return cls(VerdictKind.PROBABLY_ZERO, note=note)

    @classmethod
    def nonzero(cls, witness=None, value=None, note=""):
        witness = None if witness is None else dict(witness)
        return cls(VerdictKind.NONZERO, witness=witness, value=value, note=note)

    @classmethod
    def unknown(cls, note=""):
        return cls(VerdictKind.UNKNOWN, note=note)

    @property
    def holds(self) -> bool:
        """True when the tested quantity is zero, symbolically or probably."""
        return self.kind in (VerdictKind.ZERO, VerdictKind.PROBABLY_ZERO)

    @property
    def symbolic(self) -> bool:
        return self.kind is VerdictKind.ZERO

    @property
    def failed(self) -> bool:
        return self.kind is VerdictKind.NONZERO

    @property
    def label(self) -> str:
        return self.kind.label

    @classmethod
    def combine(cls, *verdicts) -> "Verdict":
        if not verdicts:
            return cls.zero()
        return max(verdicts, key=lambda v: v.kind.severity)

    def __repr__(self):
        extra = f", witness={self.witness}" if self.witness else ""
        return f"Verdict({self.kind.value}{extra})"


def _sample_value(e, env):
    """(numerator value, largest numerator term, denominator value) of e at env.

    None where e is singular there: an evaluation error, or a denominator
    within 1e-9 of zero relative to its own largest term.
    """
    try:
        num_terms, den_terms = _eval_terms(e, env)
    except EvaluationSingularity:
        return None
    den_val = math.fsum(den_terms)
    den_scale = max((abs(t) for t in den_terms), default=0.0)
    if abs(den_val) <= 1e-9 * max(den_scale, 1e-300):
        return None
    scale = max((abs(t) for t in num_terms), default=0.0)
    return math.fsum(num_terms), scale, den_val


class ZeroTester:
    """Semi-decision procedure for `expression == 0` over a chart's domain.

    Symbolic zero means the canonical numerator is the empty polynomial.
    Otherwise the expression is evaluated at seeded random admissible
    points: a confident nonzero value yields a FALSE verdict with the
    witness point, consistent smallness yields "probably zero", and
    persistent evaluation singularities yield UNKNOWN.  Without a witness,
    an expression free of exp, log, sin and cos is still FALSE: a nonzero
    rational function vanishes on no open box of the domain.

    Each invocation owns its own generator, seeded from the tester seed
    and the canonical text of the expression, so verdicts do not depend
    on the order in which tests are run.
    """

    WITNESS_FACTOR = 1e3

    def __init__(self, chart: Chart, seed: int = 0, trials: int = 32, tol: float = 1e-9):
        self.chart = chart
        self.seed = seed
        self.trials = trials
        self.tol = tol

    def nonzero_at(self, e, env) -> bool:
        """Whether e is confidently nonzero at env, measured as is_zero measures a sample.

        The value is compared with the largest term of e's numerator there,
        so the verdict does not depend on the scale of e.
        """
        point = _sample_value(_coerce(e), env)
        if point is None:
            return False
        val, scale, _ = point
        return abs(val) > self.WITNESS_FACTOR * self.tol * scale

    def is_zero(self, e) -> Verdict:
        e = _coerce(e)
        if e.is_structural_zero:
            return Verdict.zero()
        rng = random.Random(zlib.crc32(str(e).encode()) ^ (self.seed * 0x9E3779B9))
        successes = 0
        ambiguous = 0
        budget = self.trials * 4
        for _ in range(budget):
            if successes >= self.trials:
                break
            env = self.chart.sample(rng)
            point = _sample_value(e, env)
            if point is None:
                continue
            val, scale, den_val = point
            if scale == 0.0:
                successes += 1
                continue
            ratio = abs(val) / scale
            if ratio <= self.tol:
                successes += 1
            elif ratio > self.WITNESS_FACTOR * self.tol:
                return Verdict.nonzero(env, val / den_val)
            else:
                ambiguous += 1
        if all(isinstance(g, str) for g in e.gens):
            # a nonzero rational function vanishes on no open box
            return Verdict.nonzero(note="nonzero rational function; no sample gave a witness")
        if successes == 0:
            return Verdict.unknown("all samples hit evaluation singularities")
        if ambiguous:
            return Verdict.unknown(
                f"{ambiguous} samples fell between the zero and witness thresholds"
            )
        if successes < self.trials:
            return Verdict.probably_zero(
                f"{successes} clean samples (others singular), |value| <= tol"
            )
        return Verdict.probably_zero(f"{successes} random samples, |value| <= tol")

