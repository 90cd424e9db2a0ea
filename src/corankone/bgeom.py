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


@dataclass
class CriticalPoint:
    coord: str
    value: float
    residual: float
    gradient_norm: float

    @property
    def linear(self) -> bool:
        return self.gradient_norm > 1e-6


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


_GRID = 720  # scan intervals per coordinate domain


def _scan_roots(h: ScalarExpr, var: str, chart: Chart, env_base: dict):
    lo, hi = chart.domain(var)
    periodic = var in chart.periodic
    if periodic:
        lo, hi = 0.0, 2.0 * math.pi
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
        if periodic and abs(r - 2.0 * math.pi) < 1e-6:
            r = 0.0
        if not any(abs(r - s) < 1e-6 for s in out):
            out.append(r)
    return sorted(out)


def b_transversality_check(P: PoissonStructure) -> BTransversalityReport:
    """Whether the top power of the bivector vanishes linearly.

    Computes the single top-degree coefficient h of the power, locates the
    zero set (exactly for a linear coordinate factor, numerically along
    the depending coordinate otherwise), and checks that the gradient of h
    stays away from zero at every located critical point.
    """
    chart = P.chart
    if chart.dim % 2:
        raise DegreeError("transversality of the top power needs an even chart")
    top = power(P.bivector, chart.dim // 2)
    h = top.coeffs.get(tuple(range(chart.dim)), ex.ZERO)
    tester = P.tester
    hv = tester.is_zero(h)
    if hv.holds:
        return BTransversalityReport(
            Verdict.nonzero({}, 0.0, note="top power vanishes identically"),
            h,
            locus="everywhere degenerate",
        )
    grads = {name: h.derive(name) for name in chart.coords}
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
    rng_tester = tester.clone(seed=tester.seed + 7)
    env_base = rng_tester.sample()
    roots = _scan_roots(h, var, chart, env_base)
    if not roots:
        return BTransversalityReport(
            Verdict.unknown("no zero-set points located by the scan"),
            h,
            locus="no roots found on the sampling domain",
        )
    points = []
    for r in roots:
        env = dict(env_base)
        env[var] = r
        residual = abs(h.evaluate(env))
        gn = 0.0
        for name in chart.coords:
            try:
                gn += grads[name].evaluate(env) ** 2
            except ex.EvaluationSingularity:
                pass
        points.append(CriticalPoint(var, r, residual, math.sqrt(gn)))
    bad = [p for p in points if p.residual > 1e-6]
    if bad:
        return BTransversalityReport(
            Verdict.unknown(f"located root {bad[0].value} has residual {bad[0].residual}"),
            h,
            locus="unverified roots",
            points=points,
        )
    flat_pts = [p for p in points if not p.linear]
    locus = _single_linear_locus(h, chart) or ", ".join(
        f"{p.coord} = {p.value:.6f}" for p in points
    )
    if flat_pts:
        w = {flat_pts[0].coord: flat_pts[0].value}
        return BTransversalityReport(
            Verdict.nonzero(
                w,
                flat_pts[0].gradient_norm,
                note="gradient vanishes on the zero set (no linear vanishing)",
            ),
            h,
            locus=locus,
            points=points,
        )
    return BTransversalityReport(
        Verdict.zero("all located critical points are linear"),
        h,
        locus=locus,
        points=points,
    )


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
