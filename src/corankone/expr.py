"""Exact scalar expressions: the coefficient field for all forms and fields.

A :class:`ScalarExpr` is kept in a canonical rational normal form
``num / den`` where ``num`` and ``den`` are expanded multivariate
polynomials over exact rationals.  The polynomial generators are the
chart coordinates, the free parameters, and whole function applications
``exp(...)``, ``log(...)``, ``sin(...)``, ``cos(...)`` treated as opaque
generators (their arguments are themselves canonical expressions).

Because the representation is always canonical, ``simplify`` is the
identity and structural equality is cheap.  Zero testing is exact on the
rational fragment (the numerator polynomial is empty) and falls back to
seeded randomized evaluation for transcendental mixtures, reported as a
distinct "probably zero" verdict.

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

Names must resolve to chart coordinates or parameters, and an exponent
lies within ``-MAX_EXPONENT..MAX_EXPONENT``.  The printer
emits canonical text whose re-parse is structurally identical
(parse -> print -> parse is the identity on canonical forms).
"""

from __future__ import annotations

import enum
import math
import random
import re
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

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

_F0 = Fraction(0)
_F1 = Fraction(1)

Number = Union[int, Fraction]


# ---------------------------------------------------------------------------
# polynomial layer: dict[exponent tuple -> Fraction], width fixed by caller


def _grlex(exps):
    return (sum(exps), exps)


def _p_lead(poly):
    return max(poly, key=_grlex)


def _p_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, _F0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _p_neg(a):
    return {e: -c for e, c in a.items()}


def _p_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(k, _F0) + ca * cb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _p_scale(a, c):
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def _p_divexact(num, den):
    """Quotient num/den when the division is exact, else None."""
    dl = _p_lead(den)
    dlc = den[dl]
    rem = dict(num)
    quot = {}
    while rem:
        rl = _p_lead(rem)
        e = tuple(a - b for a, b in zip(rl, dl))
        if any(x < 0 for x in e):
            return None
        c = rem[rl] / dlc
        quot[e] = c
        for de, dc in den.items():
            k = tuple(a + b for a, b in zip(e, de))
            s = rem.get(k, _F0) - c * dc
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return quot


def _p_derive(poly, i):
    out = {}
    for e, c in poly.items():
        if e[i]:
            k = e[:i] + (e[i] - 1,) + e[i + 1 :]
            s = out.get(k, _F0) + c * e[i]
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


# multivariate gcd (primitive pseudo-remainder sequence) -----------------------


def _p_const(poly):
    return all(not any(e) for e in poly)


def _by_degree(poly, var):
    """Group a polynomial by its degree in one variable."""
    out = {}
    for e, c in poly.items():
        d = e[var]
        key = e[:var] + (0,) + e[var + 1 :]
        bucket = out.setdefault(d, {})
        bucket[key] = bucket.get(key, _F0) + c
    return {d: {e: c for e, c in b.items() if c} for d, b in out.items() if b}


def _from_degrees(buckets, var):
    out = {}
    for d, b in buckets.items():
        for e, c in b.items():
            k = e[:var] + (d,) + e[var + 1 :]
            out[k] = c
    return out


def _p_primitive(poly, var, w):
    """(content, primitive part) of poly viewed in Q[rest][var]."""
    buckets = _by_degree(poly, var)
    content = {}
    for b in buckets.values():
        content = _p_gcd(content, b, w)
        if _p_const(content):
            break
    if not content:
        return {}, {}
    prim = _p_divexact(poly, content)
    return content, prim


def _p_pseudo_rem(a, b, var, w):
    """Pseudo-remainder of a by b in the main variable."""
    b_deg = max(e[var] for e in b)
    b_lead = {
        e[:var] + (0,) + e[var + 1 :]: c for e, c in b.items() if e[var] == b_deg
    }
    rem = dict(a)
    while rem:
        r_deg = max(e[var] for e in rem)
        if r_deg < b_deg:
            break
        r_lead = {
            e[:var] + (0,) + e[var + 1 :]: c for e, c in rem.items() if e[var] == r_deg
        }
        shift = r_deg - b_deg
        shifted = {
            e[:var] + (e[var] + shift,) + e[var + 1 :]: c for e, c in b.items()
        }
        rem = _p_add(_p_mul(rem, b_lead), _p_neg(_p_mul(shifted, r_lead)))
    return rem


_GCD_POINTS = ((3, -5, 7, -11, 13, -17, 19, -23), (2, 9, -4, 5, -8, 3, -7, 6))


def _p_uni_image(poly, var, points, w):
    """Univariate image in one variable at fixed integer substitutions."""
    out = {}
    for e, c in poly.items():
        v = c
        for i in range(w):
            if i == var or not e[i]:
                continue
            v = v * Fraction(points[i % len(points)]) ** e[i]
        d = e[var]
        s = out.get(d, _F0) + v
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def _uni_gcd_degree(a, b):
    a, b = dict(a), dict(b)
    while b:
        db = max(b)
        lb = b[db]
        while a and max(a) >= db:
            da = max(a)
            f = a.pop(da) / lb
            for d, c in b.items():
                if d == db:
                    continue
                nd = d + da - db
                s = a.get(nd, _F0) - f * c
                if s:
                    a[nd] = s
                else:
                    a.pop(nd, None)
        a, b = b, a
    return max(a) if a else -1


def _gcd_trivial_in(a, b, var, w):
    """True when the gcd provably has degree 0 in the variable.

    A point is used only when both images keep their degree in the
    variable; then the gcd's image divides the images' gcd and keeps its
    own degree, so a constant univariate gcd proves a trivial one
    (Brown, J. ACM 18 (1971)).  When no point qualifies the answer is
    False, and the caller computes the gcd in full.
    """
    deg_a = max(e[var] for e in a)
    deg_b = max(e[var] for e in b)
    for points in _GCD_POINTS:
        ia = _p_uni_image(a, var, points, w)
        ib = _p_uni_image(b, var, points, w)
        if not ia or not ib or max(ia) != deg_a or max(ib) != deg_b:
            continue
        if _uni_gcd_degree(ia, ib) == 0:
            return True
    return False


def _p_gcd(a, b, w):
    """GCD over Q[x1..xw]; normalized primitive with leading coefficient 1."""
    if not a:
        g = dict(b)
    elif not b:
        g = dict(a)
    else:
        shared = [
            i
            for i in range(w)
            if any(e[i] for e in a) and any(e[i] for e in b)
        ]
        heavy = [v for v in shared if not _gcd_trivial_in(a, b, v, w)]
        if not heavy:
            return {(0,) * w: _F1}
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
    lc = g[_p_lead(g)]
    if lc != 1:
        g = {e: c / lc for e, c in g.items()}
    return g


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
    ``_gen_key`` and all occur; ``den`` has leading coefficient 1 and no
    common factor with ``num``.  An expression with no generators has
    ``den == {(): 1}``, so a rational constant's value is ``num[()]``.

    ``+``, ``*`` and ``/`` take exact shortcuts for the operand kinds most
    arithmetic is made of, each giving the form the generic
    ``_unify``/``_p_mul``/``_normalize`` path gives: a zero operand
    (``a + 0`` is ``a`` itself, ``0 * a`` and ``0 / a`` are ``ZERO``), two
    rational constants (one ``Fraction`` operation), a rational factor or
    divisor ``q != 0`` (``_scaled``: the numerator times ``q``, without
    normalizing), and in ``+`` equal denominators (the numerators added
    over the shared one, then normalized, since the sum may share a factor
    with it).
    """

    __slots__ = ("gens", "num", "den", "_str", "_hash", "_d")

    def __init__(self, gens, num, den, _raw=False):
        if not _raw:
            gens, num, den = _normalize(gens, num, den)
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

    def as_fraction(self) -> Fraction:
        if self.gens:
            raise ExprError(f"not a rational constant: {self}")
        if not self.num:
            return _F0
        return self.num[()] / self.den[()]

    def free_symbols(self) -> frozenset:
        """All coordinate/parameter names, recursing into function arguments."""
        out = set()
        for g in self.gens:
            if isinstance(g, str):
                out.add(g)
            else:
                out |= g.arg.free_symbols()
        return frozenset(out)

    def __bool__(self):
        return bool(self.num)

    # -- equality -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ScalarExpr):
            if isinstance(other, (int, Fraction)):
                other = rational(other)
            else:
                return NotImplemented
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
            return rational(self.num[()] + other.num[()])
        gens, a_num, a_den, b_num, b_den = _unify(self, other)
        if a_den == b_den:
            return ScalarExpr(gens, _p_add(a_num, b_num), a_den)
        num = _p_add(_p_mul(a_num, b_den), _p_mul(b_num, a_den))
        den = _p_mul(a_den, b_den)
        return ScalarExpr(gens, num, den)

    __radd__ = __add__

    def __neg__(self):
        return ScalarExpr(self.gens, _p_neg(self.num), dict(self.den), _raw=True)

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
            return _scaled(other, self.num[()])
        if not other.gens:
            return _scaled(self, other.num[()])
        gens, a_num, a_den, b_num, b_den = _unify(self, other)
        return ScalarExpr(gens, _p_mul(a_num, b_num), _p_mul(a_den, b_den))

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
            return _scaled(self, _F1 / other.num[()])
        gens, a_num, a_den, b_num, b_den = _unify(self, other)
        return ScalarExpr(gens, _p_mul(a_num, b_den), _p_mul(a_den, b_num))

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
            base = ScalarExpr(self.gens, dict(self.den), dict(self.num))
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
        d_num = ZERO
        d_den = ZERO
        den_is_one = self.den == {(0,) * len(self.gens): _F1}
        for i, g in enumerate(self.gens):
            dg = _gen_derivative(g, name)
            if dg.is_structural_zero:
                continue
            pn = _p_derive(self.num, i)
            if pn:
                d_num = d_num + ScalarExpr(self.gens, pn, {(0,) * len(self.gens): _F1}) * dg
            if not den_is_one:
                pd = _p_derive(self.den, i)
                if pd:
                    d_den = d_den + ScalarExpr(self.gens, pd, {(0,) * len(self.gens): _F1}) * dg
        if den_is_one:
            return d_num
        n_expr = ScalarExpr(self.gens, dict(self.num), {(0,) * len(self.gens): _F1})
        den_expr = ScalarExpr(self.gens, dict(self.den), {(0,) * len(self.gens): _F1})
        return (d_num * den_expr - n_expr * d_den) / (den_expr * den_expr)

    def subs(self, mapping: Mapping[str, "ScalarExpr"]) -> "ScalarExpr":
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

    def evaluate(self, env: Mapping[str, float]) -> float:
        """Numeric value at a sample point; raises EvaluationSingularity on poles."""
        num_terms = _eval_terms(self.num, self.gens, env)
        den_terms = _eval_terms(self.den, self.gens, env)
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


ZERO = ScalarExpr((), {}, {(): _F1}, _raw=True)
ONE = ScalarExpr((), {(): _F1}, {(): _F1}, _raw=True)


def _normalize(gens, num, den):
    num = {e: c for e, c in num.items() if c}
    den = {e: c for e, c in den.items() if c}
    if not den:
        raise ExprError("zero denominator")
    if not num:
        return (), {}, {(): _F1}
    w = len(gens)
    while True:
        # cancel the common monomial content
        if w:
            mins = [
                min(min(e[i] for e in num), min(e[i] for e in den)) for i in range(w)
            ]
            if any(mins):
                num = {tuple(a - m for a, m in zip(e, mins)): c for e, c in num.items()}
                den = {tuple(a - m for a, m in zip(e, mins)): c for e, c in den.items()}
        # make the denominator's leading coefficient 1
        lc = den[_p_lead(den)]
        if lc != 1:
            num = {e: c / lc for e, c in num.items()}
            den = {e: c / lc for e, c in den.items()}
        if den == {(0,) * w: _F1}:
            break
        quot = _p_divexact(num, den)
        if quot is not None:
            num = quot
            den = {(0,) * w: _F1}
            break
        g = _p_gcd(num, den, w)
        if _p_const(g):
            break
        num = _p_divexact(num, g)
        den = _p_divexact(den, g)
        # the reduced pair may expose fresh content; loop once more
    # drop generators that no longer occur
    used = [i for i in range(w) if any(e[i] for e in num) or any(e[i] for e in den)]
    if len(used) < w:
        gens = tuple(gens[i] for i in used)
        num = {tuple(e[i] for i in used): c for e, c in num.items()}
        den = {tuple(e[i] for i in used): c for e, c in den.items()}
    return gens, num, den


def _scaled(e: ScalarExpr, q: Fraction) -> ScalarExpr:
    """``e * q`` for a nonzero structural ``e`` and a nonzero rational ``q``.

    Scaling the numerator by ``q`` keeps the denominator monic, the gcd of
    numerator and denominator trivial and the generators in use the same,
    so the result is canonical without ``_normalize``.
    """
    if q == 1:
        return e
    if not e.gens:
        return rational(e.num[()] * q)
    return ScalarExpr(e.gens, {k: c * q for k, c in e.num.items()}, e.den, _raw=True)


def _coerce(x):
    if isinstance(x, ScalarExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return rational(x)
    return NotImplemented


def _unify(a: ScalarExpr, b: ScalarExpr):
    if a.gens == b.gens:
        return a.gens, a.num, a.den, b.num, b.den
    merged = sorted(set(a.gens) | set(b.gens), key=_gen_key)
    gens = tuple(merged)
    pos = {g: i for i, g in enumerate(gens)}
    w = len(gens)

    def remap(poly, old):
        idx = [pos[g] for g in old]
        out = {}
        for e, c in poly.items():
            k = [0] * w
            for j, x in zip(idx, e):
                k[j] = x
            out[tuple(k)] = c
        return out

    return gens, remap(a.num, a.gens), remap(a.den, a.gens), remap(b.num, b.gens), remap(b.den, b.gens)


def _poly_at(poly, vals):
    """Evaluate a polynomial at ScalarExpr generator values."""
    total = ZERO
    for e, c in poly.items():
        t = rational(c)
        for v, k in zip(vals, e):
            if k:
                t = t * v**k
        total = total + t
    return total


def _eval_terms(poly, gens, env):
    vals = []
    for g in gens:
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
    terms = []
    for e, c in poly.items():
        t = float(c)
        try:
            for v, k in zip(vals, e):
                if k:
                    t *= v**k
        except OverflowError as exc:
            raise EvaluationSingularity("overflow during evaluation") from exc
        terms.append(t)
    return terms or [0.0]


# ---------------------------------------------------------------------------
# constructors


def rational(x) -> ScalarExpr:
    """Exact constant from an int, Fraction, or decimal string."""
    q = Fraction(x) if not isinstance(x, Fraction) else x
    if not q:
        return ZERO
    return ScalarExpr((), {(): q}, {(): _F1}, _raw=True)


def symbol(name: str) -> ScalarExpr:
    return ScalarExpr((name,), {(1,): _F1}, {(0,): _F1}, _raw=True)


def _gen_expr(g) -> ScalarExpr:
    return ScalarExpr((g,), {(1,): _F1}, {(0,): _F1}, _raw=True)


def _lead_sign(e: ScalarExpr) -> int:
    return 1 if e.num[_p_lead(e.num)] > 0 else -1


def _single_exp_power(e: ScalarExpr):
    """If e == exp(u)^k exactly (single monomial, coefficient 1), return (u, k)."""
    if len(e.gens) == 1 and isinstance(e.gens[0], FuncGen) and e.gens[0].fn == "exp":
        if e.den == {(0,): _F1} and len(e.num) == 1:
            (exps, c), = e.num.items()
            if c == 1:
                return e.gens[0].arg, exps[0]
        if e.num == {(0,): _F1} and len(e.den) == 1:
            (exps, c), = e.den.items()
            if c == 1:
                return e.gens[0].arg, -exps[0]
    return None


def exp(a) -> ScalarExpr:
    a = _coerce(a)
    if a.is_structural_zero:
        return ONE
    if len(a.gens) == 1 and isinstance(a.gens[0], FuncGen) and a.gens[0].fn == "log":
        if a.num == {(1,): _F1} and a.den == {(0,): _F1}:
            return a.gens[0].arg
    if _lead_sign(a) < 0:
        return ONE / exp(-a)
    return _gen_expr(FuncGen("exp", a))


def log(a) -> ScalarExpr:
    a = _coerce(a)
    if a.is_rational:
        q = a.as_fraction()
        if q <= 0:
            raise ExprError(f"log of non-positive constant {q}")
        if q == 1:
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


def derive(e: ScalarExpr, name: str, chart: "Chart | None" = None) -> ScalarExpr:
    if chart is not None and name not in chart.coords:
        raise ChartError(f"unknown coordinate {quote(name)}")
    return _coerce(e).derive(name)


def simplify(e: ScalarExpr) -> ScalarExpr:
    """Re-normalize; the canonical representation makes this idempotent."""
    return ScalarExpr(e.gens, dict(e.num), dict(e.den))


# ---------------------------------------------------------------------------
# printing


def _term_str(exps, coeff, gens):
    parts = []
    for g, k in zip(gens, exps):
        if k == 1:
            parts.append(_gen_str(g))
        elif k > 1:
            parts.append(f"{_gen_str(g)}^{k}")
    mag = abs(coeff)
    if not parts:
        body = _frac_str(mag)
    elif mag == 1:
        body = "*".join(parts)
    else:
        body = "*".join([_frac_str(mag)] + parts)
    return coeff < 0, body


def _frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _poly_str(poly, gens):
    order = sorted(poly, key=_grlex, reverse=True)
    pieces = []
    for i, e in enumerate(order):
        neg, body = _term_str(e, poly[e], gens)
        if i == 0:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f" - {body}" if neg else f" + {body}")
    return "".join(pieces), len(order)


def _den_needs_parens(poly, gens):
    if len(poly) > 1:
        return True
    (exps, coeff), = poly.items()
    if coeff != 1:
        return True
    return sum(1 for k in exps if k) != 1


def _render(e: ScalarExpr) -> str:
    if not e.num:
        return "0"
    num_s, n_terms = _poly_str(e.num, e.gens)
    if e.den == {(0,) * len(e.gens): _F1}:
        return num_s
    den_s, _ = _poly_str(e.den, e.gens)
    if n_terms > 1:
        num_s = f"({num_s})"
    if _den_needs_parens(e.den, e.gens):
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


# a power is expanded by repeated multiplication, so its exponent is bounded
MAX_EXPONENT = 32


def _literal(kind, text, at):
    """Convert a number token; one too long for Python's integer
    conversion is a syntax error."""
    try:
        return kind(text)
    except ValueError:
        raise ExprSyntaxError(
            f"number literal of {len(text)} characters is too long", at
        ) from None


class _Parser:
    def __init__(self, text: str, chart: "Chart"):
        self.text = text
        self.chart = chart
        self.pos = 0

    def _next(self):
        if self.pos >= len(self.text):
            return ("eof", "", self.pos)
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None or m.end() == self.pos and not m.group():
            raise ExprSyntaxError(
                f"unexpected character {self.text[self.pos:self.pos + 1]!r}", self.pos
            )
        if m.lastgroup is None:
            # only whitespace matched until end of string
            self.pos = m.end()
            return ("eof", "", self.pos)
        tok = (m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup))
        self.pos = m.end()
        return tok

    def peek(self):
        save = self.pos
        tok = self._next()
        self.pos = save
        return tok

    def expect_op(self, op):
        kind, val, at = self._next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected '{op}'", at)

    def parse(self) -> ScalarExpr:
        e = self.expr()
        kind, val, at = self._next()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected trailing input {quote(val)}", at)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self._next()
                rhs = self.term()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val in "*/":
                self._next()
                rhs = self.unary()
                if val == "/":
                    if rhs.is_structural_zero:
                        raise ExprSyntaxError("division by zero", at)
                    e = e / rhs
                else:
                    e = e * rhs
            else:
                return e

    def unary(self):
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self._next()
                if val == "-":
                    sign = -sign
            else:
                break
        e = self.power()
        return e if sign > 0 else -e

    def power(self):
        base = self.atom()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self._next()
            n = self.exponent()
            if abs(n) > MAX_EXPONENT:
                shown = str(n) if len(str(n)) <= QUOTE_LIMIT else quote(str(n))
                raise ExprSyntaxError(
                    f"exponent {shown} is outside -{MAX_EXPONENT}..{MAX_EXPONENT}", at
                )
            if n < 0 and base.is_structural_zero:
                raise ExprSyntaxError("negative power of zero", self.pos)
            return base**n
        return base

    def exponent(self) -> int:
        kind, val, at = self._next()
        if kind == "op" and val == "(":
            n = self.exponent()
            self.expect_op(")")
            return n
        neg = False
        if kind == "op" and val == "-":
            neg = True
            kind, val, at = self._next()
        if kind != "num" or "." in val:
            raise ExprSyntaxError("exponent must be an integer", at)
        n = _literal(int, val, at)
        return -n if neg else n

    def atom(self):
        kind, val, at = self._next()
        if kind == "num":
            return rational(_literal(Fraction, val, at))
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "name":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return apply_function(val, arg)
            if val in self.chart.coords or val in self.chart.params:
                return symbol(val)
            raise UnknownIdentifierError(val, at)
        raise ExprSyntaxError(f"unexpected token {quote(val)}", at)


def parse_scalar(text: str, chart: "Chart") -> ScalarExpr:
    """Parse an expression against a chart's coordinates and parameters."""
    e = _Parser(text, chart).parse()
    if chart.torus_strict:
        _check_torus_strict(e, chart)
    return e


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

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Chart:
    """Named coordinates with periodicity flags and sampling intervals."""

    coords: tuple
    periodic: frozenset = frozenset()
    params: tuple = ()
    domains: tuple = ()
    torus_strict: bool = False

    def __init__(self, coords, periodic=(), params=(), domains=None, torus_strict=False):
        coords = tuple(coords)
        params = tuple(params)
        periodic = frozenset(periodic)
        names = coords + params
        if len(set(names)) != len(names):
            raise ChartError("coordinate/parameter names must be distinct")
        for n in names:
            if not _NAME_RE.match(n) or n in FUNCTIONS:
                raise ChartError(f"invalid name {quote(n)}")
            if n[0] == "d" and n[1:] in coords:
                raise ChartError(
                    f"name {quote(n)} collides with the basis covector of {quote(n[1:])}"
                )
        for p in periodic:
            if p not in coords:
                raise ChartError(f"periodic flag on unknown coordinate {quote(p)}")
        table = {}
        for c in coords:
            table[c] = (0.0, _TWO_PI) if c in periodic else (-1.0, 1.0)
        for p in params:
            table[p] = (0.25, 1.75)
        for name, iv in dict(domains or {}).items():
            if name not in table:
                raise ChartError(f"domain for unknown name {quote(name)}")
            lo, hi = float(iv[0]), float(iv[1])
            if not lo < hi:
                raise ChartError(f"empty sampling interval for {quote(name)}")
            table[name] = (lo, hi)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "periodic", periodic)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "domains", tuple(sorted(table.items())))
        object.__setattr__(self, "torus_strict", torus_strict)

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

    def with_coordinate(self, name: str, domain=None, periodic=False) -> "Chart":
        dom = {k: v for k, v in self.domains}
        if domain is not None:
            dom[name] = domain
        return Chart(
            self.coords + (name,),
            periodic=self.periodic | ({name} if periodic else set()),
            params=self.params,
            domains=dom,
            torus_strict=self.torus_strict,
        )

    def subchart(self, names: Sequence[str]) -> "Chart":
        names = tuple(names)
        for n in names:
            self.index(n)
        dom = {k: v for k, v in self.domains if k in names or k in self.params}
        return Chart(
            names,
            periodic=self.periodic & set(names),
            params=self.params,
            domains=dom,
            torus_strict=self.torus_strict,
        )


# ---------------------------------------------------------------------------
# verdicts and zero testing


class VerdictKind(enum.Enum):
    ZERO = "zero"
    PROBABLY_ZERO = "probably-zero"
    NONZERO = "nonzero"
    UNKNOWN = "unknown"


_SEVERITY = {
    VerdictKind.ZERO: 0,
    VerdictKind.PROBABLY_ZERO: 1,
    VerdictKind.UNKNOWN: 2,
    VerdictKind.NONZERO: 3,
}


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
    def nonzero(cls, witness, value, note=""):
        return cls(VerdictKind.NONZERO, witness=dict(witness), value=value, note=note)

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
        return {
            VerdictKind.ZERO: "true",
            VerdictKind.PROBABLY_ZERO: "probably-true",
            VerdictKind.NONZERO: "false",
            VerdictKind.UNKNOWN: "unknown",
        }[self.kind]

    @classmethod
    def combine(cls, *verdicts) -> "Verdict":
        if not verdicts:
            return cls.zero()
        worst = max(verdicts, key=lambda v: _SEVERITY[v.kind])
        return worst

    def __repr__(self):
        extra = f", witness={self.witness}" if self.witness else ""
        return f"Verdict({self.kind.value}{extra})"


class ZeroTester:
    """Semi-decision procedure for `expression == 0` over a chart's domain.

    Symbolic zero means the canonical numerator is the empty polynomial.
    Otherwise the expression is evaluated at seeded random admissible
    points: a confident nonzero value yields a FALSE verdict with the
    witness point, consistent smallness yields "probably zero", and
    persistent evaluation singularities yield UNKNOWN.

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
        self._rng = random.Random(seed)

    def clone(self, seed=None) -> "ZeroTester":
        return ZeroTester(
            self.chart,
            self.seed if seed is None else seed,
            self.trials,
            self.tol,
        )

    def sample(self) -> dict:
        return self.chart.sample(self._rng)

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
            try:
                num_terms = _eval_terms(e.num, e.gens, env)
                den_terms = _eval_terms(e.den, e.gens, env)
            except EvaluationSingularity:
                continue
            den_val = math.fsum(den_terms)
            den_scale = max((abs(t) for t in den_terms), default=0.0)
            if abs(den_val) <= 1e-9 * max(den_scale, 1e-300):
                continue
            val = math.fsum(num_terms)
            scale = max((abs(t) for t in num_terms), default=0.0)
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


def is_zero(e, chart: Chart, seed: int = 0, trials: int = 32, tol: float = 1e-9) -> Verdict:
    return ZeroTester(chart, seed=seed, trials=trials, tol=tol).is_zero(e)
