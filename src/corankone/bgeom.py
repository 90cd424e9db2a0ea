"""Constructions around Poisson structures with transversally vanishing
top power: transversality evidence, the one-parameter extension of a
corank-one structure with closed defining forms, the circle-times-leaf
product family, and chart-level mapping-torus compatibility.

The extension lives on the base chart with one extra coordinate t.  The
extended two-form (dt/t) ^ alpha + omega is singular along t = 0, so the
"restriction to t = 0" is always performed on the dual bivector, which
is polynomial in t after inversion; the chart pair below keeps two
sampling domains for exactly this reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import expr as ex
from .calculus import (
    ChartMap,
    DiffForm,
    MultiVector,
    basis_vector,
    ext_deriv,
    is_zero_graded,
    power,
    pullback,
    scalar_form,
    schouten,
    wedge,
)
from .errors import (
    ChartError,
    DegreeError,
    InternalCheckError,
    InvariantsNotVanishingError,
    NotPoissonFieldError,
    NotTransversalError,
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


def _scan_roots(h: ScalarExpr, var: str, chart: Chart, env_base: dict, grid: int = 720):
    lo, hi = chart.domain(var)
    periodic = var in chart.periodic
    if periodic:
        lo, hi = 0.0, 2.0 * math.pi
    xs = [lo + (hi - lo) * k / grid for k in range(grid + 1)]

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
    for k in range(grid):
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


def b_transversality_check(
    P: PoissonStructure,
    declared_roots: Optional[Sequence[float]] = None,
) -> BTransversalityReport:
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
    if len(depends) > 1 and declared_roots is None:
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
    if declared_roots is not None:
        roots = [float(r) for r in declared_roots]
    else:
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
            Verdict.unknown(f"declared root {bad[0].value} has residual {bad[0].residual}"),
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


def extend_to_b(P: PoissonStructure, t_name: str = "t") -> BExtension:
    """Extension across a transversally vanishing hypersurface.

    Requires the adapted forms to be closed; builds (dt/t) ^ alpha + omega
    on the extended chart, dualizes, and verifies: closedness of the
    extended two-form, restriction of the dual bivector to t = 0, linear
    t-divisibility of its top power, and recovery of the base structure
    on the t = 1 slice.
    """
    alpha, omega = P.adapted()
    tester = P.tester
    bad = []
    if not is_zero_graded(ext_deriv(alpha), tester).holds:
        bad.append("d(alpha) != 0")
    if not is_zero_graded(ext_deriv(omega), tester).holds:
        bad.append("d(omega) != 0")
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
    if not is_zero_graded(ext_deriv(omega_ext), tester).holds:
        raise InternalCheckError("extended two-form is not closed")
    tester_forms = ZeroTester(chart_forms, seed=tester.seed + 1, trials=tester.trials)
    pi_ext_forms = invert_twoform(omega_ext, tester_forms)
    pi_ext = MultiVector(chart_smooth, 2, dict(pi_ext_forms.coeffs))

    # restriction to t = 0 is the base bivector extended by zero
    restricted = MultiVector(
        chart_smooth,
        2,
        {idx: c.subs({t_name: ex.ZERO}) for idx, c in pi_ext.coeffs.items()},
    )
    base_lift = lift(P.bivector, MultiVector, chart_smooth)
    tester_smooth = ZeroTester(chart_smooth, seed=tester.seed + 2, trials=tester.trials)
    if not is_zero_graded(restricted - base_lift, tester_smooth).holds:
        raise InternalCheckError("dual bivector does not restrict to the base")

    # top power divisible by t with nonvanishing quotient
    n = P.corank_n
    top = power(pi_ext, n + 1)
    h = top.coeffs.get(tuple(range(chart_smooth.dim)), ex.ZERO)
    at_zero = h.subs({t_name: ex.ZERO})
    if not at_zero.is_structural_zero:
        raise InternalCheckError("top power is not divisible by t")
    quotient = h / ex.symbol(t_name)
    qv = tester_smooth.is_zero(quotient)
    if not qv.failed:
        raise InternalCheckError(
            f"t-quotient of the top power is not definitely nonzero ({qv.kind.value})"
        )

    # t = 1 slice recovers the base structure
    ext = BExtension(
        base=P,
        t=t_name,
        chart_forms=chart_forms,
        chart_smooth=chart_smooth,
        omega_ext=omega_ext,
        pi_ext=pi_ext,
        quotient=quotient,
    )
    if not is_zero_graded(ext.slice_at_one() - P.bivector, tester).holds:
        raise InternalCheckError("t = 1 slice does not recover the base bivector")
    return ext


# ---------------------------------------------------------------------------
# the circle-times-leaf product family


@dataclass
class ProductBPoisson:
    chart: Chart
    theta: str
    factor: ScalarExpr
    field: MultiVector
    leaf_bivector: MultiVector
    bivector: MultiVector
    structure: PoissonStructure
    critical_thetas: list
    linear_vanishing: bool
    transversality: BTransversalityReport
    leaf_annihilator: Optional[DiffForm] = None


def build_product_bpoisson(
    chart: Chart,
    theta: str,
    factor: ScalarExpr,
    X: MultiVector,
    pi: MultiVector,
    tester: Optional[ZeroTester] = None,
    declared_roots: Optional[Sequence[float]] = None,
) -> ProductBPoisson:
    """Assemble f(theta) @theta ^ X + pi on a circle-times-leaf chart.

    Preconditions checked: f depends on theta only, X and pi have no
    @theta component and no theta dependence, pi is Poisson, and X is a
    Poisson field for pi.  The assembled bivector is re-verified to be
    Poisson, and its transversality report carries the critical circle
    positions (zeros of f) with per-root linear-vanishing evidence.
    """
    tester = tester or ZeroTester(chart, seed=0)
    ti = chart.index(theta)
    extra = factor.free_symbols() - {theta} - set(chart.params)
    if extra:
        raise ChartError(f"factor must depend on {theta} only; found {sorted(extra)}")
    for obj, label in ((X, "transversal field"), (pi, "leaf bivector")):
        for idx, c in obj.coeffs.items():
            if ti in idx:
                raise ChartError(f"{label} must have no @{theta} component")
            if theta in c.free_symbols():
                raise ChartError(f"{label} must not depend on {theta}")
    if not is_zero_graded(schouten(pi, pi), tester).holds:
        raise NotPoissonFieldError("leaf bivector is not Poisson")
    if not is_zero_graded(schouten(X, pi), tester).holds:
        raise NotPoissonFieldError("[X, pi] does not vanish")
    Pi = wedge(factor * basis_vector(chart, theta), X) + pi
    P = PoissonStructure(chart, Pi, corank_n=chart.dim // 2, tester=tester)
    if not P.jacobi_verdict().holds:
        raise InternalCheckError("assembled product bivector fails Jacobi")

    # transversality of X to the leaves of pi on the leaf factor:
    # the kernel one-form of pi must pair invertibly with X
    leaf_names = tuple(c for c in chart.coords if c != theta)
    sub = chart.subchart(leaf_names)
    reindex = {chart.index(c): i for i, c in enumerate(leaf_names)}
    pi_sub = MultiVector(
        sub,
        2,
        {tuple(reindex[i] for i in idx): c for idx, c in pi.coeffs.items()},
    )
    X_sub = MultiVector(
        sub,
        1,
        {tuple(reindex[i] for i in idx): c for idx, c in X.coeffs.items()},
    )
    sub_tester = ZeroTester(sub, seed=tester.seed + 3, trials=tester.trials)
    leaf_structure = PoissonStructure(
        sub,
        pi_sub,
        corank_n=(sub.dim - 1) // 2,
        transversal=X_sub,
        tester=sub_tester,
    )
    annihilator = None
    try:
        annihilator, _ = leaf_structure.adapted()
    except NotTransversalError:
        raise NotTransversalError(
            "X is not transverse to the symplectic leaves of pi"
        ) from None

    report = b_transversality_check(P, declared_roots=declared_roots)
    roots = [p.value for p in report.points]
    linear = bool(report.points) and all(p.linear for p in report.points)
    if not report.points:
        linear = report.verdict.symbolic  # empty critical set: regular structure
    return ProductBPoisson(
        chart=chart,
        theta=theta,
        factor=factor,
        field=X,
        leaf_bivector=pi,
        bivector=Pi,
        structure=P,
        critical_thetas=roots,
        linear_vanishing=linear,
        transversality=report,
        leaf_annihilator=annihilator,
    )


# ---------------------------------------------------------------------------
# mapping-torus compatibility


def mapping_torus_check(phi: ChartMap, omega_L: DiffForm, tester: ZeroTester) -> Verdict:
    """Whether the leaf map preserves the leaf symplectic form
    (pullback(phi, omega_L) == omega_L), the chart-level condition for the
    glued structure to be well defined."""
    if phi.source != phi.target:
        raise ChartError("mapping-torus check needs an endomorphism of the leaf chart")
    return is_zero_graded(pullback(phi, omega_L) - omega_L, tester)
