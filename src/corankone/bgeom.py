"""Constructions around Poisson structures with transversally vanishing
top power: transversality evidence and the one-parameter extension of a
corank-one structure with closed defining forms.

The extension lives on the base chart with one extra coordinate t.  The
extended two-form (dt/t) ^ alpha + omega is singular along t = 0; its
dual bivector is Pi - t v ^ @t in closed form, smooth across t = 0.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from . import expr as ex
from .calculus import (
    DiffForm,
    MultiVector,
    ext_deriv,
    is_zero_graded,
    power,
)
from .errors import (
    ChartError,
    DegreeError,
    InvariantsNotVanishingError,
    NotTransversalError,
)
from .expr import Chart, ScalarExpr, Verdict
from .poisson import PoissonStructure
from .roots import real_roots


# ---------------------------------------------------------------------------
# transversality of the top power


class CriticalPoint:
    __slots__ = ("coord", "value", "linear")

    def __init__(self, coord: str, value: float, linear: bool):
        self.coord, self.value, self.linear = coord, value, linear


class BTransversalityReport:
    __slots__ = ("verdict", "top_coefficient", "locus", "points")

    def __init__(
        self,
        verdict: Verdict,
        top_coefficient: ScalarExpr,
        locus: str,
        points: Optional[list] = None,
    ):
        self.verdict, self.top_coefficient, self.locus = verdict, top_coefficient, locus
        self.points = [] if points is None else points


def _single_linear_locus(h: ScalarExpr, chart: Chart) -> Optional[str]:
    """Exact description when h is a constant multiple of one coordinate."""
    if len(h.gens) != 1 or not isinstance(h.gens[0], str):
        return None
    name = h.gens[0]
    if name not in chart.coords:
        return None
    terms, den = h.parts()
    if not den.is_rational or [exps for exps, _ in terms] != [(1,)]:
        return None
    return f"{name} = 0"


_GRID = 720  # scan intervals per coordinate domain


def _scan_roots(h: ScalarExpr, var: str, chart: Chart, env_base: dict):
    lo, hi = chart.domain(var)
    periodic = var in chart.periodic
    if periodic:
        lo, hi = 0.0, math.tau
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
                try:
                    fm = f(mid)
                except ex.EvaluationSingularity:  # a pole, left to the residual test
                    break
                if fa * fm <= 0.0:
                    right = mid
                else:
                    left, fa = mid, fm
            roots.append(0.5 * (left + right))
    # dedupe; on a periodic interval identify hi with lo
    roots.sort()
    out = []
    for r in roots:
        if periodic and abs(r - math.tau) < 1e-6:
            r = 0.0
        if not any(abs(r - s) < 1e-6 for s in out):
            out.append(r)
    return sorted(out)


def _scan_report(h: ScalarExpr, var: str, P: PoissonStructure) -> BTransversalityReport:
    """The scan's report: the critical points it locates at a random sample
    of the other symbols, linear where the gradient there stays away from
    zero; at best a probable verdict."""
    env_base = P.tester.chart.sample(random.Random(P.tester.seed + 7))
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
        try:
            residuals.append(abs(h.evaluate(env)))
        except ex.EvaluationSingularity:
            residuals.append(math.inf)
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


def _points_text(points) -> str:
    return ", ".join(f"{p.coord} = {p.value:.6f}" for p in points)


def _linearity_report(h, chart, points, norms, holds) -> BTransversalityReport:
    """The report on located points: the verdict holds unless a point is
    not linear, and then the first such point, with its gradient norm, is
    the witness."""
    locus = _single_linear_locus(h, chart) or _points_text(points)
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

    Computes the single top-degree coefficient h of the power.  When h
    depends on one coordinate, its zero set along that coordinate is found
    exactly where ``roots.real_roots`` decides h, and linear vanishing then
    holds where every root is simple.  Any other h of one coordinate is
    scanned along the sampling interval at a random sample of the other
    symbols, and the gradient is checked at every located point, so that a
    verdict that holds does so only probably.  When h depends on one
    parameter and no coordinate, a root of h makes the top power vanish
    everywhere at that parameter value.
    """
    chart = P.chart
    if chart.dim % 2:
        raise DegreeError("transversality of the top power needs an even chart")
    top = power(P.bivector, P.corank_n)
    h = top.coeffs.get(tuple(range(chart.dim)), ex.ZERO)
    if P.tester.is_zero(h).holds:
        return BTransversalityReport(
            Verdict.nonzero({}, 0.0, note="top power vanishes identically"),
            h,
            locus="everywhere degenerate",
        )
    symbols = h.free_symbols()
    depends = [name for name in chart.coords if name in symbols]
    if not symbols:
        return BTransversalityReport(
            Verdict.zero("top power is a nonzero constant; empty critical set"), h, locus="empty"
        )
    if len(depends) > 1:
        return BTransversalityReport(
            Verdict.unknown(
                "no zero-set points located (top power depends on several coordinates)"
            ),
            h,
            locus="undetermined",
        )
    var = depends[0] if depends else min(symbols)
    roots = real_roots(h, var, chart)
    if roots is None:
        if depends:
            return _scan_report(h, var, P)
        return BTransversalityReport(
            Verdict.unknown("top power depends on parameters only, and is not decided"),
            h,
            locus="undetermined",
        )
    if not roots:
        return BTransversalityReport(
            Verdict.zero("top power has no zero on the sampling domain; empty critical set"),
            h,
            locus="empty",
        )
    points = [CriticalPoint(var, value, simple) for value, simple in roots]
    if depends:
        holds = Verdict.zero("all located critical points are linear")
        return _linearity_report(h, chart, points, [0.0] * len(points), holds)
    return BTransversalityReport(
        Verdict.nonzero(
            {var: points[0].value}, 0.0, note="top power vanishes identically at a parameter value"
        ),
        h,
        locus="everywhere degenerate at " + _points_text(points),
    )


# ---------------------------------------------------------------------------
# the t-extension


class BExtension:
    __slots__ = ("chart", "omega_ext", "pi_ext", "quotient")

    def __init__(
        self,
        chart: Chart,  # the base chart with t, sampled on (-1, 1)
        omega_ext: DiffForm,
        pi_ext: MultiVector,
        quotient: ScalarExpr,  # top coefficient of pi_ext**(n+1) divided by t
    ):
        self.chart, self.omega_ext, self.pi_ext, self.quotient = chart, omega_ext, pi_ext, quotient


def extend_to_b(P: PoissonStructure, checks: Optional[dict] = None) -> BExtension:
    """Extension across a transversally vanishing hypersurface, in a new
    coordinate t.

    Requires a transversal field v and closed adapted forms.  With
    s = -log t the extended two-form (dt/t) ^ alpha + omega is
    omega + alpha ^ ds, whose dual is Pi + v ^ @s (the bordered identity
    that PoissonStructure.adapted rests on); since @s = -t @t, the dual
    bivector is Pi - t v ^ @t.  So it is Pi at t = 0, and Pi again on the
    t = 1 slice without its @t part, and its top power is
    -(n+1) t Pi^n ^ v ^ @t.  The quotient by t is read off the adapted
    volume theta dx_0^...^dx_2n = n! / Pf(Pi + v ^ @s) dx_0^...^dx_2n:
    it is -(n+1)! Pf(Pi + v ^ @s) = -(n+1) (n!)^2 / theta, nonzero since
    adapted() accepts a pair only on a nonzero witness of its Pfaffian.  When
    checks is a dict, it receives the verdicts of d(alpha) = 0 and d(omega) = 0.
    """
    if P.transversal is None:
        raise NotTransversalError("no transversal vector field supplied")
    alpha, omega = P.adapted()
    tester = P.tester
    verdicts = {
        "d(alpha)": is_zero_graded(ext_deriv(alpha), tester),
        "d(omega)": is_zero_graded(ext_deriv(omega), tester),
    }
    bad = [f"{name} != 0" for name, v in verdicts.items() if not v.holds]
    if bad:
        raise InvariantsNotVanishingError(", ".join(bad))
    if "t" in P.chart.coords or "t" in P.chart.params:
        raise ChartError("extension coordinate 't' already in use")
    chart = P.chart.with_coordinate("t", domain=(-1.0, 1.0))
    t, k = ex.symbol("t"), P.chart.dim
    # (dt/t) ^ alpha = -(alpha_i / t) dx_i ^ dt, and -t v ^ @t = -(t v^i) @i ^ @t
    dlogt_alpha = {(i, k): -c / t for (i,), c in alpha.coeffs.items()}
    omega_ext = DiffForm(chart, 2, {**omega.coeffs, **dlogt_alpha})
    border = {(i, k): -(t * c) for (i,), c in P.transversal.coeffs.items()}
    pi_ext = MultiVector(chart, 2, {**P.bivector.coeffs, **border})
    n = P.corank_n
    theta = P.volume().coeffs[tuple(range(k))]
    quotient = ex.rational(-(n + 1) * math.factorial(n) ** 2) / theta
    if checks is not None:
        checks.update(verdicts)
    return BExtension(chart, omega_ext, pi_ext, quotient)
