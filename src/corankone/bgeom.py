"""Constructions around Poisson structures with transversally vanishing
top power: transversality evidence and the one-parameter extension of a
corank-one structure with closed defining forms.

The extension lives on the base chart with one extra coordinate t.  The
extended two-form (dt/t) ^ alpha + omega is singular along t = 0, so the
"restriction to t = 0" is always performed on the dual bivector, which
is polynomial in t after inversion; the chart pair below keeps two
sampling domains for exactly this reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import expr as ex
from .calculus import (
    DiffForm,
    MultiVector,
    ext_deriv,
    is_zero_graded,
    power,
    scalar_form,
    wedge,
)
from .errors import (
    ChartError,
    DegreeError,
    InternalCheckError,
    InvariantsNotVanishingError,
)
from .expr import Chart, ScalarExpr, Verdict, ZeroTester
from .poisson import PoissonStructure, invert_twoform


# ---------------------------------------------------------------------------
# transversality of the top power

_TWO_PI = 2.0 * math.pi


@dataclass
class CriticalPoint:
    coord: str
    value: float
    linear: bool


@dataclass
class BTransversalityReport:
    verdict: Verdict
    top_coefficient: ScalarExpr
    locus: str
    points: list = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.verdict.holds


def _single_linear_locus(h: ScalarExpr, chart: Chart) -> Optional[str]:
    """Exact description when h is a constant multiple of one coordinate."""
    if len(h.gens) != 1 or not isinstance(h.gens[0], str):
        return None
    name = h.gens[0]
    if name not in chart.coords:
        return None
    terms, den = h.parts()
    if den != ex.ONE or [exps for exps, _ in terms] != [(1,)]:
        return None
    return f"{name} = 0"


# real roots of a univariate polynomial over Q
#
# A polynomial is a list of integers, constant term first, without zero
# leading entries.  Roots are counted with Sturm sequences (G. E. Collins and
# R. Loos, "Real zeros of polynomials", in Computer Algebra: Symbolic and
# Algebraic Computation, 1982), each member divided by its positive integer
# content, which keeps the signs the theorem reads.

# the integers of a Sturm sequence grow to about degree * (degree + bits)
# bits, for a polynomial of that degree with coefficients of that many bits;
# above this product the exact path may take seconds, and h is scanned
EXACT_MAX_SIZE = 8192
# an isolating interval is narrowed to this width relative to its ends; its
# midpoint then rounds to the float nearest the root, unless the root lies
# about as close to the midpoint of two floats
_REFINE = Fraction(1, 1 << 60)


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _positive_rem(a, b):
    """A positive multiple of the remainder of a by b, over its content."""
    a = list(a)
    lc, db = b[-1], len(b) - 1
    scale, sign = abs(lc), 1 if lc > 0 else -1
    while len(a) > db:
        q, k = sign * a[-1], len(a) - 1 - db
        a = [c * scale for c in a]
        for i, c in enumerate(b):
            a[i + k] -= q * c
        _trim(a)
    return _over_content(a) if a else a


def _sturm(a, b):
    """The remainder sequence a, b, -rem(a, b), ...; its last member is
    gcd(a, b) up to a constant factor."""
    seq = [a, b]
    while len(seq[-1]) > 1:
        r = _positive_rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    return seq


def _sign(p, x):
    """The sign of p at the rational x."""
    n, d = x.numerator, x.denominator
    v, dk = 0, 1
    for c in reversed(p):
        v = v * n + c * dk
        dk *= d
    return (v > 0) - (v < 0)


def _real_roots(p, lo=None, hi=None):
    """The distinct real roots of p in [lo, hi] (on the whole line when lo
    and hi are None), in increasing order, as pairs (value, multiple)."""
    if len(p) < 2:
        return []
    seq = _sturm(p, _derivative(p))
    gcd = seq[-1]
    multiple = [1]
    if len(gcd) > 1:
        # p over gcd(p, p') has the same roots, each simple; the roots of
        # gcd(p, p') are the multiple ones, and its own gcd with the
        # square-free part has them simple too
        p = _exact_quotient(p, gcd)
        seq = _sturm(p, _derivative(p))
        multiple = _sturm(p, gcd)[-1]
    if lo is None:
        bound = 1 + Fraction(max(abs(c) for c in p), abs(p[-1]))
        lo, hi = -bound, bound
    seen = {}

    def variations(x):
        if x not in seen:
            signs = [s for s in (_sign(q, x) for q in seq) if s]
            seen[x] = sum(u != v for u, v in zip(signs, signs[1:]))
        return seen[x]

    roots = [(lo, lo)] if _sign(p, lo) == 0 else []
    todo = [(lo, hi)]
    while todo:
        # the roots in (a, b]
        a, b = todo.pop()
        n = variations(a) - variations(b)
        if n == 0:
            continue
        if n == 1 and _sign(p, b) == 0:
            roots.append((b, b))
        elif n == 1 and _sign(p, a) != 0:
            roots.append((a, b))
        else:
            mid = (a + b) / 2
            todo += [(a, mid), (mid, b)]
    out = []
    for a, b in sorted(roots):
        sa = _sign(p, a)
        while sa and b - a > _REFINE * max(1, abs(a), abs(b)):
            mid = (a + b) / 2
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
        out.append(((a + b) / 2, many))
    return out


def _too_large(p):
    n = len(p) - 1
    return n * (n + max(abs(c).bit_length() for c in p)) > EXACT_MAX_SIZE


def _over_content(p):
    """The positive multiple of p (rational coefficients) with integer
    coefficients that share no factor."""
    scale = math.lcm(*(c.denominator for c in p))
    p = [int(c * scale) for c in p]
    g = math.gcd(*p)
    return [c // g for c in p]


def _exact_quotient(a, b):
    """a / b for b dividing a, over its content."""
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in reversed(range(len(q))):
        q[k] = a[k + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            a[i + k] -= q[k] * c
    return _over_content(q)


def _exact_points(h: ScalarExpr, var: str, chart: Chart):
    """The critical points of h along var, decided exactly, or None when h
    is of no kind decided exactly.

    Decided are a polynomial in var alone, on the sampling interval of
    var (on [0, 2 pi] when var is periodic), and a polynomial in sin(var)
    and cos(var) of a periodic var, on the whole circle.  A point is linear
    when it is a simple root.
    """
    terms, den = h.parts()
    if h.gens == (var,):
        p = [Fraction(0)] * (terms[0][0][0] + 1)
        for (e,), c in terms:
            p[e] = c
        p = _over_content(p)
        if _too_large(p):
            return None
        lo, hi = (0.0, _TWO_PI) if var in chart.periodic else chart.domain(var)
        return [
            CriticalPoint(var, float(r), not many)
            for r, many in _real_roots(p, Fraction(lo), Fraction(hi))
        ]
    arg = ex.symbol(var)
    if (
        var not in chart.periodic
        or den != ex.ONE
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
    P = [0] * (2 * d + 1)
    for exps, c in terms:
        k = dict(zip(fns, exps))
        term = [c]
        for factor, n in (([0, 2], k.get("sin", 0)), ([1, 0, -1], k.get("cos", 0)),
                          ([1, 0, 1], d - sum(exps))):
            for _ in range(n):
                term = _times(term, factor)
        for i, x in enumerate(term):
            P[i] += x
    if not _trim(P):
        return None
    P = _over_content(P)
    if _too_large(P):
        return None
    # near pi, u = 1/t is a coordinate with h = u^(2d) P(1/u) / (1 + u^2)^d:
    # at pi (sin = 0, cos = -1) h vanishes to the order by which the degree
    # of P falls short of 2d
    at_pi = 2 * d + 1 - len(P)
    points = []
    for t, many in _real_roots(P):
        theta = 2.0 * math.atan(t)
        points.append(CriticalPoint(var, theta + _TWO_PI if theta < 0.0 else theta, not many))
    if at_pi:
        points.append(CriticalPoint(var, math.pi, at_pi == 1))
    return sorted(points, key=lambda p: p.value)


_GRID = 720  # scan intervals per coordinate domain


def _scan_roots(h: ScalarExpr, var: str, chart: Chart, env_base: dict):
    lo, hi = chart.domain(var)
    periodic = var in chart.periodic
    if periodic:
        lo, hi = 0.0, _TWO_PI
    xs = [lo + (hi - lo) * k / _GRID for k in range(_GRID + 1)]

    def f(x):
        env = dict(env_base)
        env[var] = x
        return h.evaluate(env)

    roots = []
    vals = []
    for x in xs:
        try:
            vals.append(f(x))
        except ex.EvaluationSingularity:
            vals.append(None)
    scale = max((abs(v) for v in vals if v is not None), default=1.0)
    for k in range(_GRID):
        a, b = vals[k], vals[k + 1]
        if a is None or b is None:
            continue
        if abs(a) <= 1e-12 * max(scale, 1.0):
            roots.append(xs[k])
            continue
        if a * b < 0.0:
            left, right = xs[k], xs[k + 1]
            fa = a
            for _ in range(80):
                mid = 0.5 * (left + right)
                fm = f(mid)
                if fa * fm <= 0.0:
                    right = mid
                else:
                    left, fa = mid, fm
            roots.append(0.5 * (left + right))
    # dedupe; on a periodic interval identify hi with lo
    roots.sort()
    out = []
    for r in roots:
        if periodic and abs(r - _TWO_PI) < 1e-6:
            r = 0.0
        if not any(abs(r - s) < 1e-6 for s in out):
            out.append(r)
    return sorted(out)


def _scan_report(h: ScalarExpr, var: str, P: PoissonStructure) -> BTransversalityReport:
    """The scan's report: the critical points it locates at a random sample
    of the other symbols, linear where the gradient there stays away from
    zero; at best a probable verdict."""
    rng_tester = P.tester.clone(seed=P.tester.seed + 7)
    env_base = rng_tester.sample()
    roots = _scan_roots(h, var, P.chart, env_base)
    if not roots:
        return BTransversalityReport(
            Verdict.unknown("no zero-set points located by the scan"),
            h,
            locus="no roots found on the sampling domain",
        )
    dh = h.derive(var)
    points, norms, residuals = [], [], []
    for r in roots:
        env = dict(env_base)
        env[var] = r
        residuals.append(abs(h.evaluate(env)))
        try:
            norms.append(abs(dh.evaluate(env)))
        except ex.EvaluationSingularity:
            norms.append(0.0)
        points.append(CriticalPoint(var, r, norms[-1] > 1e-6))
    for p, residual in zip(points, residuals):
        if residual > 1e-6:
            return BTransversalityReport(
                Verdict.unknown(f"located root {p.value} has residual {residual}"),
                h,
                locus="unverified roots",
                points=points,
            )
    holds = Verdict.probably_zero("all critical points located by the scan are linear")
    return _linearity_report(h, P.chart, points, norms, holds)


def _linearity_report(h, chart, points, norms, holds) -> BTransversalityReport:
    """The report on located points: the verdict holds unless a point is
    not linear, and then the first such point, with its gradient norm, is
    the witness."""
    locus = _single_linear_locus(h, chart) or ", ".join(
        f"{p.coord} = {p.value:.6f}" for p in points
    )
    for p, norm in zip(points, norms):
        if not p.linear:
            holds = Verdict.nonzero(
                {p.coord: p.value},
                norm,
                note="gradient vanishes on the zero set (no linear vanishing)",
            )
            break
    return BTransversalityReport(holds, h, locus=locus, points=points)


def b_transversality_check(P: PoissonStructure) -> BTransversalityReport:
    """Whether the top power of the bivector vanishes linearly.

    Computes the single top-degree coefficient h of the power and, when h
    depends on one coordinate, its zero set along that coordinate.  That
    set is found exactly when h is a polynomial in the coordinate or in its
    sine and cosine (see ``_exact_points``), and linear vanishing is then
    decided: it holds where every root is simple.  Any other h is scanned
    along the sampling interval at a random sample of the other symbols,
    and the gradient is checked at every located point, so that a verdict
    that holds does so only probably.
    """
    chart = P.chart
    if chart.dim % 2:
        raise DegreeError("transversality of the top power needs an even chart")
    top = power(P.bivector, chart.dim // 2)
    h = top.coeffs.get(tuple(range(chart.dim)), ex.ZERO)
    hv = P.tester.is_zero(h)
    if hv.holds:
        return BTransversalityReport(
            Verdict.nonzero({}, 0.0, note="top power vanishes identically"),
            h,
            locus="everywhere degenerate",
        )
    depends = [name for name in chart.coords if name in h.free_symbols()]
    if not depends:
        return BTransversalityReport(
            Verdict.zero("top power is a nonzero constant; empty critical set"),
            h,
            locus="empty",
        )
    if len(depends) > 1:
        return BTransversalityReport(
            Verdict.unknown(
                "no zero-set points located (top power depends on several coordinates)"
            ),
            h,
            locus="undetermined",
        )
    var = depends[0]
    points = _exact_points(h, var, chart)
    if points is None:
        return _scan_report(h, var, P)
    if not points:
        return BTransversalityReport(
            Verdict.zero("top power has no zero on the sampling domain; empty critical set"),
            h,
            locus="empty",
        )
    holds = Verdict.zero("all located critical points are linear")
    return _linearity_report(h, chart, points, [0.0] * len(points), holds)


# ---------------------------------------------------------------------------
# the t-extension


@dataclass
class BExtension:
    base: PoissonStructure
    t: str
    chart_forms: Chart
    chart_smooth: Chart
    omega_ext: DiffForm
    pi_ext: MultiVector
    quotient: ScalarExpr  # top power of pi_ext divided by t

    def restriction(self) -> MultiVector:
        """The extended bivector with t set to zero (base Pi plus zero)."""
        subs = {self.t: ex.ZERO}
        coeffs = {
            idx: c.subs(subs) for idx, c in self.pi_ext.coeffs.items()
        }
        return MultiVector(self.chart_smooth, 2, coeffs)

    def slice_at_one(self) -> MultiVector:
        """Set t = 1 and project out the @t components."""
        subs = {self.t: ex.ONE}
        t_index = self.chart_smooth.index(self.t)
        coeffs = {}
        for idx, c in self.pi_ext.coeffs.items():
            if t_index in idx:
                continue
            coeffs[idx] = c.subs(subs)
        return MultiVector(self.base.chart, 2, coeffs)


def extend_to_b(
    P: PoissonStructure, t_name: str = "t", checks: Optional[dict] = None
) -> BExtension:
    """Extension across a transversally vanishing hypersurface.

    Requires the adapted forms to be closed; builds (dt/t) ^ alpha + omega
    on the extended chart, dualizes, and verifies: closedness of the
    extended two-form, restriction of the dual bivector to t = 0, linear
    t-divisibility of its top power, and recovery of the base structure
    on the t = 1 slice.  When checks is a dict, it receives the verdict of
    each of these zero checks.
    """
    alpha, omega = P.adapted()
    tester = P.tester
    verdicts = {
        "d(alpha)": is_zero_graded(ext_deriv(alpha), tester),
        "d(omega)": is_zero_graded(ext_deriv(omega), tester),
    }
    bad = [f"{name} != 0" for name, v in verdicts.items() if not v.holds]
    if bad:
        raise InvariantsNotVanishingError(", ".join(bad))
    chart = P.chart
    if t_name in chart.coords or t_name in chart.params:
        raise ChartError(f"extension coordinate {t_name!r} already in use")
    chart_forms = chart.with_coordinate(t_name, domain=(0.05, 1.0))
    chart_smooth = chart.with_coordinate(t_name, domain=(-1.0, 1.0))

    def lift(obj, cls, target):
        return cls(target, obj.degree, dict(obj.coeffs))

    alpha_e = lift(alpha, DiffForm, chart_forms)
    omega_e = lift(omega, DiffForm, chart_forms)
    dlogt = ext_deriv(scalar_form(chart_forms, ex.log(ex.symbol(t_name))))
    omega_ext = wedge(dlogt, alpha_e) + omega_e
    verdicts["d(omega_ext)"] = is_zero_graded(ext_deriv(omega_ext), tester)
    if not verdicts["d(omega_ext)"].holds:
        raise InternalCheckError("extended two-form is not closed")
    tester_forms = ZeroTester(chart_forms, seed=tester.seed + 1, trials=tester.trials)
    pi_ext_forms = invert_twoform(omega_ext, tester_forms)
    pi_ext = MultiVector(chart_smooth, 2, dict(pi_ext_forms.coeffs))
    h = power(pi_ext, P.corank_n + 1).coeffs.get(tuple(range(chart_smooth.dim)), ex.ZERO)
    ext = BExtension(
        base=P,
        t=t_name,
        chart_forms=chart_forms,
        chart_smooth=chart_smooth,
        omega_ext=omega_ext,
        pi_ext=pi_ext,
        quotient=h / ex.symbol(t_name),
    )

    # restriction to t = 0 is the base bivector extended by zero
    base_lift = lift(P.bivector, MultiVector, chart_smooth)
    tester_smooth = ZeroTester(chart_smooth, seed=tester.seed + 2, trials=tester.trials)
    verdicts["restriction"] = is_zero_graded(ext.restriction() - base_lift, tester_smooth)
    if not verdicts["restriction"].holds:
        raise InternalCheckError("dual bivector does not restrict to the base")

    # top power divisible by t with nonvanishing quotient
    if not h.subs({t_name: ex.ZERO}).is_structural_zero:
        raise InternalCheckError("top power is not divisible by t")
    qv = tester_smooth.is_zero(ext.quotient)
    if not qv.failed:
        raise InternalCheckError(
            f"t-quotient of the top power is not definitely nonzero ({qv.kind.value})"
        )

    # t = 1 slice recovers the base structure
    verdicts["slice"] = is_zero_graded(ext.slice_at_one() - P.bivector, tester)
    if not verdicts["slice"].holds:
        raise InternalCheckError("t = 1 slice does not recover the base bivector")
    if checks is not None:
        checks.update(verdicts)
    return ext
