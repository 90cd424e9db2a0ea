"""Obstruction representatives, certificates, and the modular vector field.

The two obstruction classes live in the cohomology of the quotient
complex by the ideal of the defining one-form, so "class vanishes" is
decided by certificate:

* first kind: a function f with d(e^-f alpha) = 0;
* second kind: a one-form nu with d(omega - nu ^ alpha) = 0.

The search for automatic certificates antidifferentiates beta or mu
itself, which exterior_divide returns as the transverse representative
(closed one-forms with polynomial/trig monomial coefficients; closed
two-forms with polynomial coefficients via the straight-line homotopy).
Nonvanishing is certified through leafwise periods: a periodic
coordinate whose circle is tangent to the foliation and on which the
representative has a nonzero constant coefficient.
Everything else is reported UNKNOWN; no verdict ever rests on
probabilistic evidence without saying so.
"""

from __future__ import annotations

from . import expr as ex
from .calculus import (
    DiffForm,
    MultiVector,
    _covector_contract,
    ext_deriv,
    exterior_divide,
    interior,
    is_zero_graded,
    leafwise_equal,
    scalar_form,
    schouten,
    wedge,
    zero_form,
)
from .errors import (
    DegenerateVolumeError,
    DegreeError,
    InternalCheckError,
    NotIntegrableError,
    warn,
)
from .expr import Chart, FuncGen, ScalarExpr, Verdict, ZeroTester
from .poisson import PoissonStructure


# ---------------------------------------------------------------------------
# beta and mu representatives


def compute_beta(
    alpha: DiffForm,
    v: MultiVector,
    tester: ZeroTester,
    checks: dict | None = None,
    pairing: Verdict | None = None,
) -> DiffForm:
    """Representative beta with d(alpha) = beta ^ alpha.

    Raises NotIntegrableError when d(alpha) ^ alpha does not vanish (the
    one-form does not define a foliation).  The byproduct identity
    d(beta) ^ alpha = 0 is asserted after the division.  When checks is a
    dict, it receives the verdicts of these checks and of the division's.
    A pairing verdict of alpha(v) = 1 goes to the division (exterior_divide).
    """
    dalpha = ext_deriv(alpha)
    integrability = is_zero_graded(wedge(dalpha, alpha), tester)
    if not integrability.holds:
        raise NotIntegrableError(
            "d(alpha) ^ alpha does not vanish; alpha defines no foliation",
            witness=integrability.witness,
        )
    beta = exterior_divide(
        dalpha, alpha, v, tester, checks=checks, obstruction=integrability, pairing=pairing
    )
    ideal = is_zero_graded(wedge(ext_deriv(beta), alpha), tester)
    if not ideal.holds:
        raise InternalCheckError("d(beta) ^ alpha should vanish but does not")
    if checks is not None:
        checks.update({"d(alpha) ^ alpha = 0": integrability, "d(beta) ^ alpha = 0": ideal})
    return beta


def compute_mu(
    omega: DiffForm,
    alpha: DiffForm,
    v: MultiVector,
    tester: ZeroTester,
    checks: dict | None = None,
    pairing: Verdict | None = None,
) -> DiffForm:
    """Representative mu with d(omega) = mu ^ alpha.

    Warns and proceeds formally when alpha is not closed (the second
    obstruction is only class-well-defined over a closed alpha).  When
    checks is a dict, it receives the verdicts of the division's checks;
    the warning is a diagnostic, not a check of mu.  Over a closed alpha,
    d(mu) ^ alpha = mu ^ d(alpha) = 0 follows from d(d omega) = 0.  A
    pairing verdict of alpha(v) = 1 goes to the division, as in compute_beta.
    """
    if not is_zero_graded(ext_deriv(alpha), tester).holds:
        warn("alpha is not closed; computing a formal mu representative")
    return exterior_divide(ext_deriv(omega), alpha, v, tester, checks=checks, pairing=pairing)


def godbillon_vey(beta: DiffForm) -> DiffForm:
    """The 3-form beta ^ d(beta)."""
    return wedge(beta, ext_deriv(beta))


# ---------------------------------------------------------------------------
# certificates


class ObstructionCertificate:
    """Explicit witness that an obstruction class vanishes."""

    __slots__ = ("kind", "f", "nu", "origin")

    def __init__(
        self,
        kind: str,  # "first" | "second"
        f: ScalarExpr | None = None,
        nu: DiffForm | None = None,
        origin: str = "supplied",
    ):
        if kind not in ("first", "second"):
            raise ValueError(f"unknown certificate kind {kind!r}")
        if kind == "first" and f is None:
            raise ValueError("first-kind certificate needs the rescaling exponent f")
        if kind == "second" and nu is None:
            raise ValueError("second-kind certificate needs the one-form nu")
        self.kind, self.f, self.nu, self.origin = kind, f, nu, origin


def verify_certificate(
    cert: ObstructionCertificate,
    alpha: DiffForm,
    omega: DiffForm | None,
    tester: ZeroTester,
) -> Verdict:
    """First kind: is d(e^-f alpha) zero.  Second kind: is d(omega - nu^alpha)
    zero; it is leafwise equal to omega for every nu, since the difference
    wedged with alpha, -(nu ^ alpha) ^ alpha, is structurally zero."""
    if cert.kind == "first":
        rescaled = ex.exp(-cert.f) * alpha
        return is_zero_graded(ext_deriv(rescaled), tester)
    if omega is None:
        raise DegreeError("second-kind certificate needs omega")
    return is_zero_graded(ext_deriv(omega - wedge(cert.nu, alpha)), tester)


class PeriodWitness:
    """A leafwise period certifying that the first obstruction is nonzero.

    The circle of the periodic cycle coordinate, at the locus (the other
    coordinates pinned to the given values), must be tangent to the
    foliation; the representative's integral over it is then invariant
    under every change beta -> beta + df + g alpha.
    """

    __slots__ = ("cycle", "locus")

    def __init__(self, cycle: str, locus: dict | None = None):
        self.cycle = cycle
        self.locus = {} if locus is None else locus

    def verify(self, alpha: DiffForm, beta: DiffForm, tester: ZeroTester) -> Verdict:
        chart = alpha.chart
        if self.cycle not in chart.periodic:
            return Verdict.unknown(f"cycle coordinate '{self.cycle}' is not periodic")
        subs = {k: ex.rational(v) if not isinstance(v, ScalarExpr) else v
                for k, v in self.locus.items()}
        tangency = alpha.coefficient(self.cycle).subs(subs)
        tv = tester.is_zero(tangency)
        if not tv.holds:
            return Verdict.unknown(
                f"cycle not leafwise: alpha(@{self.cycle}) != 0 on the locus"
            )
        coeff = beta.coefficient(self.cycle).subs(subs)
        if not tester.is_zero(coeff.derive(self.cycle)).holds:
            return Verdict.unknown("period coefficient varies along the cycle")
        pv = tester.is_zero(coeff)
        if pv.failed:
            locus = ", ".join(f"{k} = {v}" for k, v in sorted(subs.items()))
            at = f" at {locus}" if locus else ""
            return Verdict.nonzero(
                pv.witness,
                pv.value,
                note=f"nonzero leafwise period of the {self.cycle}-cycle{at}",
            )
        return Verdict.unknown("period coefficient not definitely nonzero")


# -- antidifferentiation helpers ----------------------------------------------


def _depends_on(e: ScalarExpr, name: str) -> bool:
    return name in e.free_symbols()


def _integrate_monomial(exps, coeff, gens, name):
    """Antiderivative of one canonical monomial in the named variable,
    or None when outside the polynomial/trig/exp-in-linear fragment."""
    sym_pow = fn_pow = 0
    fn_gen = None
    rest = list(exps)  # the factors free of name
    for i, (g, k) in enumerate(zip(gens, exps)):
        if k and g == name:
            sym_pow, rest[i] = k, 0
        elif k and not isinstance(g, str) and _depends_on(g.arg, name):
            if fn_gen is not None:
                return None  # two name-dependent function factors
            fn_gen, fn_pow, rest[i] = g, k, 0
    rest = _monomial(rest, coeff, gens)
    if fn_gen is None:
        return rest * ex.symbol(name) ** (sym_pow + 1) / (sym_pow + 1)
    if sym_pow or fn_pow != 1 or fn_gen.fn == "log":
        return None
    slope = fn_gen.arg.derive(name)
    if slope.is_structural_zero or _depends_on(slope, name):
        return None
    if fn_gen.fn == "exp":
        anti = ex.exp(fn_gen.arg)
    elif fn_gen.fn == "sin":
        anti = -ex.cos(fn_gen.arg)
    else:
        anti = ex.sin(fn_gen.arg)
    return rest * anti / slope


def _integrate(e: ScalarExpr, name: str):
    """Exact antiderivative in the supported fragment, else None."""
    terms, den_expr = e.parts()
    if _depends_on(den_expr, name):
        return None
    total = ex.ZERO
    for exps, coeff in terms:
        piece = _integrate_monomial(exps, coeff, e.gens, name)
        if piece is None:
            return None
        total = total + piece
    return total / den_expr


def _monomial(exps, coeff, gens) -> ScalarExpr:
    """One canonical term of parts() rebuilt as an expression."""
    return ex._new(gens, {ex._pack(exps): coeff}, {0: 1})


def _coordinate_free_part(e: ScalarExpr, chart: Chart) -> ScalarExpr:
    """The monomials of e free of every chart coordinate (zero if the
    denominator itself involves coordinates)."""
    coords = set(chart.coords)
    terms, den_expr = e.parts()
    if any(s in coords for s in den_expr.free_symbols()):
        return ex.ZERO
    involved = [
        g in coords if isinstance(g, str) else not coords.isdisjoint(g.arg.free_symbols())
        for g in e.gens
    ]
    free = [(exps, c) for exps, c in terms if not any(k and i for k, i in zip(exps, involved))]
    return ex._new(e.gens, {ex._pack(exps): c for exps, c in free}, e.den)


def antidifferentiate_oneform(beta: DiffForm, tester: ZeroTester):
    """Write a closed one-form as df + (constant periodic leftover).

    Returns (f, leftover) where leftover collects constant coefficients on
    periodic coordinate differentials (de Rham periods of the torus model),
    or None when some component falls outside the integrable fragment.
    """
    chart = beta.chart
    residual = beta
    f = ex.ZERO
    leftover = zero_form(chart, 1)
    for i, name in enumerate(chart.coords):
        comp = residual.coefficient(name)
        if comp.is_structural_zero:
            continue
        if name in chart.periodic:
            const = _coordinate_free_part(comp, chart)
            if not const.is_structural_zero:
                piece = DiffForm(chart, 1, {(i,): const})
                leftover = leftover + piece
                residual = residual - piece
                comp = comp - const
                if comp.is_structural_zero:
                    continue
        F = _integrate(comp, name)
        if F is None:
            return None
        f = f + F
        residual = residual - ext_deriv(scalar_form(chart, F))
    if not is_zero_graded(residual, tester).holds:
        return None
    return f, leftover


def _homotopy_two_form(mu: DiffForm) -> DiffForm | None:
    """Primitive of a closed 2-form with coordinate-polynomial coefficients
    via the straight-line homotopy; None outside that fragment."""
    chart = mu.chart
    coords = set(chart.coords)
    out = zero_form(chart, 1)
    for (i, j), c in mu.coeffs.items():
        terms, den_expr = c.parts()
        if any(s in coords for s in den_expr.free_symbols()):
            return None
        for g in c.gens:
            if isinstance(g, FuncGen) and any(
                s in coords for s in g.arg.free_symbols()
            ):
                return None
        xi, xj = ex.symbol(chart.coords[i]), ex.symbol(chart.coords[j])
        for exps, coeff in terms:
            deg = sum(
                k for g, k in zip(c.gens, exps) if isinstance(g, str) and g in coords
            )
            weight = _monomial(exps, coeff, c.gens) / den_expr / (deg + 2)
            out = out + DiffForm(chart, 1, {(j,): weight * xi, (i,): -(weight * xj)})
    return out


# ---------------------------------------------------------------------------
# the two obstruction classes


class ObstructionResult:
    """Verdict about one obstruction class, with its certificate trail.  The
    representative is P.beta() or P.mu(omega); a period disproof is a failed
    verdict with no certificate."""

    __slots__ = ("verdict", "certificate", "certificate_verdict", "detail")

    def __init__(
        self,
        verdict: Verdict,
        certificate: ObstructionCertificate | None = None,
        certificate_verdict: Verdict | None = None,
        detail: str = "",
    ):
        self.verdict, self.certificate = verdict, certificate
        self.certificate_verdict, self.detail = certificate_verdict, detail


def _verified(cert, alpha, omega, tester, note, detail=""):
    """The result certified by cert when verify_certificate holds, else None."""
    if cert is None:
        return None
    cv = verify_certificate(cert, alpha, omega, tester)
    if not cv.holds:
        return None
    return ObstructionResult(Verdict(cv.kind, note=note), cert, cv, detail)


def unimodularity_check(
    P: PoissonStructure,
    certificate: ObstructionCertificate | None = None,
    witness: PeriodWitness | None = None,
) -> ObstructionResult:
    """Unimodularity of P as the vanishing of the first obstruction class.

    Reads alpha, beta and the tester from P.  Order of attack: beta
    already a multiple of alpha; a supplied certificate; an automatic
    certificate by antidifferentiating beta itself; a leafwise-period
    disproof on each leftover cycle, the supplied witness standing in for
    its own cycle and tried last otherwise; else UNKNOWN.
    """
    alpha, _ = P.adapted()
    beta, tester = P.beta(), P.tester
    trivially = is_zero_graded(wedge(beta, alpha), tester)
    if trivially.holds:
        # f = 0 closes alpha: d(alpha) = beta ^ alpha, and that vanishes
        cert = ObstructionCertificate("first", f=ex.ZERO, origin="trivial")
        return ObstructionResult(
            Verdict(trivially.kind, note="beta lies in the alpha ideal"),
            cert, Verdict.combine(trivially, P.beta_verdict),
            "alpha is already closed up to the recorded verdict",
        )
    supplied = _verified(certificate, alpha, None, tester, "supplied certificate verifies",
                         "supplied rescaling closes alpha")
    if supplied is not None:
        return supplied
    auto = None
    if is_zero_graded(ext_deriv(beta), tester).holds:
        auto = antidifferentiate_oneform(beta, tester)
    cycles = []
    if auto is not None:
        f, leftover = auto
        if leftover.is_structural_zero:
            cert = ObstructionCertificate("first", f=f, origin="automatic")
            found = _verified(cert, alpha, None, tester, "automatic certificate verifies",
                              "transverse representative integrated exactly")
            if found is not None:
                return found
        # periods along coordinate circles; tangency may certify FALSE
        cycles = [alpha.chart.coords[i] for (i,) in leftover.coeffs]
    if witness is not None and witness.cycle not in cycles:
        cycles.append(witness.cycle)
    for name in cycles:
        w = witness if witness and witness.cycle == name else PeriodWitness(name)
        pv = w.verify(alpha, beta, tester)
        if pv.failed:
            return ObstructionResult(pv, detail=pv.note)
    return ObstructionResult(
        Verdict.unknown("no certificate found and no period disproof applies"),
        detail="class vanishing undecided",
    )


def second_obstruction(
    P: PoissonStructure,
    omega: DiffForm,
    certificate: ObstructionCertificate | None = None,
) -> ObstructionResult:
    """Decide whether the second obstruction class of a defining two-form vanishes.

    Reads alpha, mu = P.mu(omega) and the tester from P; omega is the
    adapted one or a declared non-adapted defining two-form.  The automatic
    certificate integrates mu itself.
    """
    alpha, _ = P.adapted()
    mu, tester = P.mu(omega), P.tester
    trivially = is_zero_graded(ext_deriv(omega), tester)
    if trivially.holds:
        # nu = 0 leaves omega - nu ^ alpha = omega, closed by this verdict
        cert = ObstructionCertificate("second", nu=zero_form(omega.chart, 1), origin="trivial")
        return ObstructionResult(
            Verdict(trivially.kind, note="omega is already closed"), cert, trivially
        )
    supplied = _verified(certificate, alpha, omega, tester, "supplied certificate verifies")
    if supplied is not None:
        return supplied
    if is_zero_graded(ext_deriv(mu), tester).holds:
        nu = _homotopy_two_form(mu)
        if nu is not None:
            cert = ObstructionCertificate("second", nu=nu, origin="automatic")
            found = _verified(cert, alpha, omega, tester, "automatic certificate verifies")
            if found is not None:
                return found
    return ObstructionResult(
        Verdict.unknown("no certificate found; 2-form periods are not decided")
    )


# ---------------------------------------------------------------------------
# modular vector field


def modular_field(
    P: PoissonStructure,
    volume: DiffForm | None = None,
    checks: dict | None = None,
) -> MultiVector:
    """The derivation f -> (L_{u_f} volume) / volume as a vector field.

    For the volume theta dx_0^...^dx_k its components are
    v^i = (1/theta) sum_j d_j(theta Pi^{ij}), so L_v(volume) = 0 by construction
    (Pi is skew).  L_v(Pi) = 0 is verified on return; when checks is a dict,
    it receives that verdict.
    """
    chart = P.chart
    if volume is None:
        volume = P.volume()
    if volume.degree != chart.dim:
        raise DegreeError("volume must have top degree")
    top = tuple(range(chart.dim))
    theta = volume.coeffs.get(top, ex.ZERO)
    tv = P.tester.is_zero(theta)
    if not tv.failed:
        raise DegenerateVolumeError(
            f"volume coefficient is not definitely nonzero ({tv.kind.value})"
        )
    # u_{x_i} = Pi^{ij} @j, and L_u(theta dx) = sum_j d_j(theta u^j) dx;
    # each stored Pi^{ij} (i < j) enters row i, and -Pi^{ij} enters row j
    coords = chart.coords
    sums = [ex.ZERO] * chart.dim
    for (i, j), c in P.bivector.coeffs.items():
        weighted = theta * c
        sums[i] = sums[i] + weighted.derive(coords[j])
        sums[j] = sums[j] - weighted.derive(coords[i])
    vmod = MultiVector(chart, 1, {(i,): s / theta for i, s in enumerate(sums)})
    pi_check = is_zero_graded(schouten(vmod, P.bivector), P.tester)
    if pi_check.failed:
        raise InternalCheckError("modular field fails L_v(Pi) = 0")
    if checks is not None:
        checks["L_v(Pi) = 0"] = pi_check
    return vmod


def check_weinstein_identity(P: PoissonStructure) -> Verdict:
    """Leafwise identity iota_{v_mod} omega = beta for the adapted volume."""
    alpha, omega = P.adapted()
    return leafwise_equal(interior(P.modular(), omega), P.beta(), alpha, P.tester)


# ---------------------------------------------------------------------------
# transverse Poisson vector fields (both directions)


class TransversePoissonReport:
    __slots__ = ("lv_pi_verdict", "dalpha_verdict", "domega_verdict", "pair_witness")

    def __init__(
        self,
        lv_pi_verdict: Verdict,
        dalpha_verdict: Verdict,
        domega_verdict: Verdict,
        pair_witness: tuple | None = None,
    ):
        self.lv_pi_verdict = lv_pi_verdict
        self.dalpha_verdict, self.domega_verdict = dalpha_verdict, domega_verdict
        self.pair_witness = pair_witness

    @property
    def closed_side(self) -> bool:
        return self.dalpha_verdict.holds and self.domega_verdict.holds

    @property
    def equivalence_holds(self) -> bool:
        return self.lv_pi_verdict.holds == self.closed_side

    @property
    def detail(self) -> str:
        if self.equivalence_holds:
            return "Poisson and closed sides agree"
        return "sides disagree; see verdicts"


def check_transverse_poisson(P: PoissonStructure) -> TransversePoissonReport:
    """Both directions of: v is Poisson iff d(alpha) = d(omega) = 0.

    The Poisson side is L_v Pi = [v, Pi], the closed side d(alpha) and
    d(omega).  When d(alpha) is not zero, the first coordinate Hamiltonian
    u_f with d(alpha)(v, u_f) definitely nonzero names the witness pair.
    That pairing is -beta(u_f), the f-component of beta contracted into
    the first slot of Pi, and by the structure equation also
    v(alpha(u_f)) - u_f(alpha(v)) - alpha([v, u_f]); the test suite holds
    both identities of the exterior calculus.
    """
    alpha, omega = P.adapted()
    v = P.transversal
    tester = P.tester
    lv_verdict = is_zero_graded(schouten(v, P.bivector), tester)
    dalpha = ext_deriv(alpha)
    da_verdict = is_zero_graded(dalpha, tester)
    do_verdict = is_zero_graded(ext_deriv(omega), tester)

    pair_witness = None
    if not dalpha.is_structural_zero:
        pairings = _covector_contract(P.beta(), P.bivector)
        for (k,), pairing in sorted(pairings.coeffs.items()):
            if tester.is_zero(pairing).failed:
                pair_witness = (P.chart.coords[k], pairing)
                break
    return TransversePoissonReport(
        lv_pi_verdict=lv_verdict,
        dalpha_verdict=da_verdict,
        domega_verdict=do_verdict,
        pair_witness=pair_witness,
    )
