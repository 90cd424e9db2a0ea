import random
import warnings

import pytest

from corankone import Chart, ZeroTester, bgeom, calculus, exp, invariants, parse_scalar, pipeline
from corankone import poisson, rational, symbol
from corankone.calculus import (
    DiffForm,
    MultiVector,
    basis_form,
    basis_vector,
    ext_deriv,
    interior,
    is_zero_graded,
    leafwise_equal,
    lie_derivative,
    power,
    scalar_form,
    schouten,
    volume_form,
    wedge,
)
from corankone.errors import (
    DegenerateVolumeError,
    DegreeError,
    NotIntegrableError,
    ToolkitWarning,
)
from corankone.expr import VerdictKind
from corankone.invariants import (
    ObstructionCertificate,
    PeriodWitness,
    antidifferentiate_oneform,
    check_transverse_poisson,
    check_weinstein_identity,
    compute_beta,
    compute_mu,
    godbillon_vey,
    modular_field,
    second_obstruction,
    unimodularity_check,
    verify_certificate,
)
from corankone.pipeline import analyze
from corankone.poisson import PoissonStructure
from corankone.problemfile import loads_problem

import bundled
from oracles import cartan_modular_field, rescaled_modular_verdict


@pytest.fixture
def xyz():
    return Chart(("x", "y", "z"))


@pytest.fixture
def tester(xyz):
    return ZeroTester(xyz, seed=11)


def random_poly(rng, chart, max_deg=2):
    e = rational(rng.randint(-2, 2))
    for _ in range(rng.randint(1, 3)):
        term = rational(rng.randint(-3, 3))
        for _ in range(rng.randint(0, max_deg)):
            term = term * symbol(rng.choice(chart.coords))
        e = e + term
    return e


class TestComputeBeta:
    def test_closed_alpha(self, xyz, tester):
        beta = compute_beta(basis_form(xyz, "z"), basis_vector(xyz, "z"), tester)
        assert beta.is_structural_zero

    def test_exponential_wall(self, xyz, tester):
        alpha = DiffForm(xyz, 1, {("z",): "exp(x)"})
        v = MultiVector(xyz, 1, {("z",): "exp(-x)"})
        beta = compute_beta(alpha, v, tester)
        assert beta == basis_form(xyz, "x")
        assert (ext_deriv(alpha) - wedge(beta, alpha)).is_structural_zero

    def test_contact_form_not_integrable(self, xyz, tester):
        alpha = basis_form(xyz, "z") + DiffForm(xyz, 1, {("y",): "x"})
        with pytest.raises(NotIntegrableError) as ei:
            compute_beta(alpha, basis_vector(xyz, "z"), tester)
        assert ei.value.witness is not None

    def test_defining_identity_always_verified(self):
        for e in bundled.corank_one_entries(seed=7):
            P = e.structure
            alpha, _ = P.adapted()
            beta = compute_beta(alpha, P.transversal, P.tester)
            assert (ext_deriv(alpha) - wedge(beta, alpha)).is_structural_zero


    def test_integrability_product_built_and_tested_once(self, xyz, tester, monkeypatch):
        from corankone import calculus

        alpha = DiffForm(xyz, 1, {("z",): "exp(x)"})
        dalpha = ext_deriv(alpha)
        products = []
        real = calculus.wedge

        def spy(a, b):
            products.append((a, b))
            return real(a, b)

        monkeypatch.setattr(calculus, "wedge", spy)
        monkeypatch.setattr(invariants, "wedge", spy)
        checks = {}
        compute_beta(alpha, MultiVector(xyz, 1, {("z",): "exp(-x)"}), tester, checks=checks)
        assert sum(1 for a, b in products if a == dalpha and b == alpha) == 1
        assert checks["eta ^ alpha = 0"] is checks["d(alpha) ^ alpha = 0"]
        assert set(checks) == {
            "alpha(v) = 1", "eta ^ alpha = 0", "d(alpha) ^ alpha = 0", "d(beta) ^ alpha = 0",
        }


class TestComputeMu:
    def test_closed_omega(self, xyz, tester):
        omega = wedge(basis_form(xyz, "x"), basis_form(xyz, "y"))
        mu = compute_mu(omega, basis_form(xyz, "z"), basis_vector(xyz, "z"), tester)
        assert mu.is_structural_zero

    def test_scaled_volume_factor(self):
        # omega = t dx^dy over alpha = dt: the verifying representative
        ch = Chart(("x", "y", "t"), domains={"t": (0.05, 1.0)})
        t = ZeroTester(ch, seed=3)
        omega = DiffForm(ch, 2, {("x", "y"): "t"})
        alpha = basis_form(ch, "t")
        mu = compute_mu(omega, alpha, basis_vector(ch, "t"), t)
        assert (ext_deriv(omega) - wedge(mu, alpha)).is_structural_zero
        assert mu == wedge(basis_form(ch, "x"), basis_form(ch, "y"))

    def test_shift_changes_mu_by_exact_term(self, xyz, tester):
        # defining two-forms differ by xi ^ alpha; then mu shifts by d(xi)
        # modulo the alpha ideal (all leafwise data unchanged)
        rng = random.Random(5)
        alpha = basis_form(xyz, "z")
        v = basis_vector(xyz, "z")
        omega = wedge(basis_form(xyz, "x"), basis_form(xyz, "y"))
        mu = compute_mu(omega, alpha, v, tester)
        for _ in range(10):
            xi = DiffForm(
                xyz,
                1,
                {(i,): random_poly(rng, xyz) for i in range(3)},
            )
            shifted = omega + wedge(xi, alpha)
            mu2 = compute_mu(shifted, alpha, v, tester)
            residual = wedge(mu2 - mu - ext_deriv(xi), alpha)
            assert residual.is_structural_zero

    def test_warns_when_alpha_not_closed(self, xyz, tester):
        alpha = DiffForm(xyz, 1, {("z",): "exp(x)"})
        v = MultiVector(xyz, 1, {("z",): "exp(-x)"})
        omega = wedge(basis_form(xyz, "x"), basis_form(xyz, "y"))
        with pytest.warns(ToolkitWarning):
            compute_mu(omega, alpha, v, tester)

    def test_warning_names_the_caller(self):
        # the structure reaches compute_mu through P.mu; the warning still
        # points at the code that asked for the second obstruction
        P = bundled.entry("exp_wall", seed=11).structure
        _, omega = P.adapted()
        with pytest.warns(ToolkitWarning, match="alpha is not closed") as record:
            second_obstruction(P, omega)
        assert {w.filename for w in record} == {__file__}


class TestPairingFromThePair:
    """A structure's beta and mu take alpha(v) = 1 from its adapted pair: a
    computed alpha is the last row of the inverse of the bordered matrix
    whose last column is v, and a declared pair is checked against v."""

    def test_beta_and_mu_build_no_pairing(self, xyz, monkeypatch):
        declared = PoissonStructure(
            xyz,
            MultiVector(xyz, 2, {("x", "y"): "1"}),
            basis_vector(xyz, "z"),
            alpha=basis_form(xyz, "z"),
            omega=DiffForm(xyz, 2, {("x", "y"): "1"}),
        )
        computed = [e.structure for e in bundled.corank_one_entries(seed=5) if e.structure.chart.dim % 2]
        real, pairings = calculus.interior, []
        for P in [*computed, declared]:
            alpha, omega = P.adapted()

            def spy(a, b, alpha=alpha):
                if b is alpha:
                    pairings.append((a, b))
                return real(a, b)

            monkeypatch.setattr(calculus, "interior", spy)
            P.beta()
            with warnings.catch_warnings():  # some alphas are not closed
                warnings.simplefilter("ignore", ToolkitWarning)
                P.mu(omega)
        assert pairings == []


class TestCertificates:
    def test_trivial_first(self, xyz, tester):
        cert = ObstructionCertificate("first", f=parse_scalar("0", xyz))
        assert verify_certificate(cert, basis_form(xyz, "z"), None, tester).symbolic

    def test_exp_wall_first(self, xyz, tester):
        alpha = DiffForm(xyz, 1, {("z",): "exp(x)"})
        cert = ObstructionCertificate("first", f=symbol("x"))
        assert verify_certificate(cert, alpha, None, tester).symbolic

    def test_second_kind(self, xyz, tester):
        alpha = basis_form(xyz, "z")
        omega = DiffForm(xyz, 2, {("x", "y"): 1, ("z", "y"): "x"})
        cert = ObstructionCertificate("second", nu=DiffForm(xyz, 1, {("y",): "-x"}))
        assert verify_certificate(cert, alpha, omega, tester).symbolic

    def test_wrong_certificate_rejected(self, xyz, tester):
        alpha = DiffForm(xyz, 1, {("z",): "exp(x)"})
        cert = ObstructionCertificate("first", f=symbol("y"))
        assert verify_certificate(cert, alpha, None, tester).failed

    @pytest.mark.parametrize(
        "kind, given",
        [("third", ("f", "nu")), ("first", ("nu",)), ("second", ("f",))],
        ids=["unknown-kind", "first-without-f", "second-without-nu"],
    )
    def test_malformed_certificate_rejected(self, xyz, kind, given):
        pieces = {"f": parse_scalar("x", xyz), "nu": basis_form(xyz, "x")}
        with pytest.raises(ValueError):
            ObstructionCertificate(kind, **{name: pieces[name] for name in given})

    def test_witness_loci_are_not_shared(self):
        a, b = PeriodWitness("theta"), PeriodWitness("theta")
        a.locus["x"] = 0
        assert a.locus is not b.locus and b.locus == {}

    @pytest.mark.parametrize(
        "cycle, period, locus, note",
        [
            ("x", "1", {}, "cycle coordinate 'x' is not periodic"),
            ("theta", "1 + sin(theta)", {}, "period coefficient varies along the cycle"),
            ("theta", "x", {"x": 0}, "period coefficient not definitely nonzero"),
        ],
        ids=["non-periodic-cycle", "varying-coefficient", "vanishing-coefficient"],
    )
    def test_period_witness_undecided(self, cycle, period, locus, note):
        # alpha = dx leaves the theta-circle tangent to every leaf, so only
        # the cycle and the dtheta coefficient of beta decide
        ch = Chart(("theta", "x", "y"), periodic=("theta",))
        beta = DiffForm(ch, 1, {("theta",): period})
        v = PeriodWitness(cycle, locus).verify(basis_form(ch, "x"), beta, ZeroTester(ch, seed=3))
        assert v.kind is VerdictKind.UNKNOWN and v.note == note


class TestAntidifferentiation:
    def test_polynomial_two_variable(self, xyz, tester):
        beta0 = DiffForm(xyz, 1, {("x",): "y", ("y",): "x"})
        f, leftover = antidifferentiate_oneform(beta0, tester)
        assert leftover.is_structural_zero
        assert (ext_deriv(scalar_form(xyz, f)) - beta0).is_structural_zero

    def test_trigonometric_component(self):
        ch = Chart(("theta", "x"), periodic=("theta",))
        t = ZeroTester(ch, seed=2)
        beta0 = DiffForm(ch, 1, {("theta",): "sin(theta)", ("x",): "2*x"})
        f, leftover = antidifferentiate_oneform(beta0, t)
        assert leftover.is_structural_zero
        assert (ext_deriv(scalar_form(ch, f)) - beta0).is_structural_zero

    def test_period_term_split_off(self):
        ch = Chart(("theta", "x"), periodic=("theta",))
        t = ZeroTester(ch, seed=3)
        beta0 = DiffForm(ch, 1, {("theta",): 3, ("x",): 1})
        f, leftover = antidifferentiate_oneform(beta0, t)
        assert leftover == DiffForm(ch, 1, {("theta",): 3})
        assert (
            ext_deriv(scalar_form(ch, f)) + leftover - beta0
        ).is_structural_zero

    def test_out_of_fragment(self, xyz, tester):
        beta0 = DiffForm(xyz, 1, {("x",): "log(2 + x^2)"})
        assert antidifferentiate_oneform(beta0, tester) is None


class TestFirstObstruction:
    def test_corpus_expectations(self):
        for e in bundled.corank_one_entries(seed=13):
            P = e.structure
            res = unimodularity_check(
                P,
                certificate=e.problem.first_certificate,
                witness=e.problem.period_witness,
            )
            if e.expect_unimodular:
                assert res.verdict.holds, e.name
                assert res.certificate is not None
                assert res.certificate_verdict.holds
            else:
                assert res.verdict.failed, e.name
                assert res.certificate is None

    def test_automatic_certificate_on_exp_wall(self):
        e = bundled.entry("exp_wall", seed=17)
        P = e.structure
        res = unimodularity_check(P)  # no supplied certificate
        assert res.verdict.holds
        assert res.certificate.origin == "automatic"
        # automatic f differs from x at most by a constant
        diff = res.certificate.f - symbol("x")
        assert all(
            not (name in diff.free_symbols()) for name in P.chart.coords
        )

    def test_soundness_without_witness(self):
        # without the declared witness the suspension must never report TRUE
        e = bundled.entry("suspension", seed=19)
        res = unimodularity_check(e.structure)
        assert not res.verdict.holds

    def test_supplied_witness_decides_when_no_cycle_is_left_over(self):
        # beta0 = (1 + 2x) dtheta is not closed, so no automatic certificate
        # and no leftover cycle; the supplied theta-witness at the x = 0
        # leaf still finds the nonzero period
        problem = loads_problem(
            "schema 1\n"
            "section chart\n  coords theta x y\n  periodic theta\n"
            'section structure\n  bivector "1" theta y\n  bivector "x*(1 + x)" x y\n'
            '  transversal "1" x\n'
            'section certificates\n  period theta x "0"\n'
        )
        P = problem.structure()
        assert str(P.beta()) == "(2*x + 1) dtheta"
        res = unimodularity_check(P, witness=problem.period_witness)
        assert res.verdict.failed and res.certificate is None
        assert res.detail == "nonzero leafwise period of the theta-cycle at x = 0"
        assert not unimodularity_check(P).verdict.failed

    def test_supplied_witness_verified_once(self, monkeypatch):
        # the witness's cycle theta is left over, so the witness stands in
        # for it and is not tried a second time after the loop
        calls = []
        verify = PeriodWitness.verify

        def spy(self, *args):
            calls.append(self.cycle)
            return verify(self, *args)

        monkeypatch.setattr(PeriodWitness, "verify", spy)
        text = dict(bundled.problem_texts())["suspension.prob"]
        problem = loads_problem(text.replace('period theta x "0"', 'period theta x "1"'))
        entry = analyze(problem)["analyses"]["unimodularity"]
        assert entry["verdict"] == "unknown"
        assert calls == ["theta"]

    def test_representative_transformation_law(self, xyz):
        # beta' - beta - dh lies in the alpha ideal for alpha' = e^h alpha
        rng = random.Random(23)
        tester = ZeroTester(xyz, seed=23)
        alpha = DiffForm(xyz, 1, {("z",): "exp(x)"})
        v = MultiVector(xyz, 1, {("z",): "exp(-x)"})
        beta = compute_beta(alpha, v, tester)
        for _ in range(10):
            h = random_poly(rng, xyz)
            alpha2 = exp(h) * alpha
            v2 = exp(-h) * v
            beta2 = compute_beta(alpha2, v2, tester)
            dh = ext_deriv(scalar_form(xyz, h))
            assert wedge(beta2 - beta - dh, alpha).is_structural_zero


class TestSecondObstruction:
    def test_closed_omega_trivially_vanishes(self):
        e = bundled.entry("flat", seed=29)
        P = e.structure
        _, omega = P.adapted()
        res = second_obstruction(P, omega)
        assert res.verdict.symbolic

    def test_twisted_omega_automatic_certificate(self):
        e = bundled.entry("twisted_omega", seed=31)
        res = second_obstruction(e.structure, e.problem.omega_alt)
        assert res.verdict.holds
        assert res.certificate.origin == "automatic"

    def test_twisted_omega_supplied_certificate(self):
        e = bundled.entry("twisted_omega", seed=37)
        cert = ObstructionCertificate("second", nu=e.problem.second_certificate.nu)
        res = second_obstruction(e.structure, e.problem.omega_alt, certificate=cert)
        assert res.verdict.holds

    def test_undecided_without_certificate(self):
        # mu = 2z dx^dy is not closed, so the homotopy search does not run;
        # nu = 2xz dy closes omega - nu ^ dz, and only a supplied certificate
        # says so
        ch = Chart(("x", "y", "z"))
        P = PoissonStructure(
            ch, MultiVector(ch, 2, {("x", "y"): "1/(1 + z^2)"}),
            transversal=basis_vector(ch, "z"), tester=ZeroTester(ch, seed=5),
        )
        _, omega = P.adapted()
        res = second_obstruction(P, omega)
        assert res.verdict.kind is VerdictKind.UNKNOWN and res.certificate is None
        assert res.verdict.note == "no certificate found; 2-form periods are not decided"
        cert = ObstructionCertificate("second", nu=DiffForm(ch, 1, {("y",): "2*x*z"}))
        res = second_obstruction(P, omega, certificate=cert)
        assert res.verdict.symbolic and res.certificate is cert


class TestGodbillonVey:
    def test_zero_beta(self, xyz):
        assert godbillon_vey(DiffForm(xyz, 1, {})).is_structural_zero

    def test_exact_beta(self, xyz):
        assert godbillon_vey(basis_form(xyz, "x")).is_structural_zero

    def test_x_dy_case(self, xyz):
        beta = DiffForm(xyz, 1, {("y",): "x"})
        # beta ^ d(beta) = x dy ^ dx ^ dy = 0
        assert godbillon_vey(beta).is_structural_zero

    def test_vanishes_on_certified_corpus(self):
        for e in bundled.corank_one_entries(seed=41):
            P = e.structure
            alpha, _ = P.adapted()
            beta = compute_beta(alpha, P.transversal, P.tester)
            if e.expect_unimodular:
                assert is_zero_graded(godbillon_vey(beta), P.tester).holds, e.name


class TestModularField:
    def test_symplectic_chart_unimodular(self):
        xy = Chart(("x", "y"))
        P = PoissonStructure(
            xy, MultiVector(xy, 2, {("x", "y"): 1}),
            tester=ZeroTester(xy, seed=43),
        )
        vol = wedge(basis_form(xy, "x"), basis_form(xy, "y"))
        assert modular_field(P, vol).is_structural_zero

    def test_volume_guards(self):
        e = bundled.entry("affine", seed=47)
        P = e.structure
        with pytest.raises(DegreeError, match="volume must have top degree"):
            modular_field(P, basis_form(P.chart, "x"))
        zero_volume = DiffForm(P.chart, 2, {("x", "y"): 0})
        with pytest.raises(DegenerateVolumeError, match=r"not definitely nonzero \(zero\)"):
            modular_field(P, zero_volume)

    def test_affine_example(self):
        e = bundled.entry("affine", seed=47)
        P = e.structure
        vol = wedge(basis_form(P.chart, "x"), basis_form(P.chart, "y"))
        vmod = modular_field(P, vol)
        assert vmod == MultiVector(P.chart, 1, {("x",): 1})
        # the symplectic-gradient characterization of the paper's u_f:
        # iota_{v_mod}(dx^dy) = d(y)
        assert interior(vmod, vol) == basis_form(P.chart, "y")
        # tangency to the critical line y = 0
        assert vmod(symbol("y")).subs({"y": rational(0)}).is_structural_zero

    def test_exp_wall_value(self):
        e = bundled.entry("exp_wall", seed=53)
        vmod = modular_field(e.structure)
        assert vmod == MultiVector(e.structure.chart, 1, {("y",): -1})

    def test_preservation_laws_on_corpus(self):
        for e in bundled.corank_one_entries(seed=59):
            P = e.structure
            alpha, _ = P.adapted()
            vol = P.volume()
            vmod = modular_field(P)
            assert lie_derivative(vmod, vol).is_structural_zero, e.name
            assert schouten(vmod, P.bivector).is_structural_zero, e.name
            assert interior(vmod, alpha).scalar().is_structural_zero, e.name

    def test_volume_change_law(self):
        rng = random.Random(61)
        for name in ("flat", "exp_wall", "t3_example"):
            e = bundled.entry(name, seed=67)
            P = e.structure
            vol = P.volume()
            vmod = modular_field(P)
            for _ in range(5):
                g = random_poly(rng, P.chart, max_deg=1)
                shifted = modular_field(P, exp(g) * vol)
                ug = P.hamiltonian_vf(g)
                assert (shifted - (vmod - ug)).is_structural_zero

    def test_derivation_property(self):
        e = bundled.entry("exp_wall", seed=71)
        P = e.structure
        vol = P.volume()
        vmod = modular_field(P)
        rng = random.Random(73)
        top = tuple(range(P.chart.dim))
        theta = vol.coeffs[top]
        for _ in range(5):
            f = random_poly(rng, P.chart)
            lu = lie_derivative(P.hamiltonian_vf(f), vol)
            ratio = lu.coeffs.get(top, parse_scalar("0", P.chart)) / theta
            assert (ratio - vmod(f)).is_structural_zero

    def test_closed_form_matches_cartan_route(self):
        rng = random.Random(77)
        for e in bundled.all_entries(seed=75):
            P = e.structure
            volumes = [volume_form(P.chart)]
            if e.problem.transversal is not None:
                volumes.append(P.volume())
            volumes += [exp(random_poly(rng, P.chart, max_deg=1)) * vol for vol in volumes]
            for vol in volumes:
                assert modular_field(P, vol) == cartan_modular_field(P, vol), e.name

    def test_rescaled_volume_kills_modular_field(self):
        for name in ("exp_wall", "poly_wall"):
            e = bundled.entry(name, seed=79)
            assert rescaled_modular_verdict(e.structure, e.problem.first_certificate).holds


class TestWeinsteinIdentity:
    def test_holds_on_corpus(self):
        for e in bundled.corank_one_entries(seed=83):
            v = check_weinstein_identity(e.structure)
            assert v.holds, e.name

    def test_exp_wall_both_sides_equal_dx(self):
        e = bundled.entry("exp_wall", seed=89)
        P = e.structure
        alpha, omega = P.adapted()
        beta = compute_beta(alpha, P.transversal, P.tester)
        vmod = modular_field(P)
        assert beta == basis_form(P.chart, "x")
        assert interior(vmod, omega) == basis_form(P.chart, "x")


class TestPairDifferentials:
    def test_alpha_and_omega_differentiated_once_per_analyze(self, monkeypatch):
        # compute_beta, compute_mu, check_transverse_poisson and extend_to_b
        # each ask for d(alpha), the last three and second_obstruction for
        # d(omega); a form keeps its exterior derivative, so each is taken
        # once per structure
        runners = []

        class Kept(pipeline._Runner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runners.append(self)

        asked, taken = [], []
        ext_deriv, partials = calculus.ext_deriv, calculus._partials

        def asking(eta):
            asked.append(eta)
            return ext_deriv(eta)

        def taking(coeffs, chart):
            taken.append(coeffs)
            return partials(coeffs, chart)

        monkeypatch.setattr(pipeline, "_Runner", Kept)
        for module in (invariants, bgeom):
            monkeypatch.setattr(module, "ext_deriv", asking)
        monkeypatch.setattr(calculus, "_partials", taking)
        analyze(bundled.entry("t3_example").problem)
        (runner,) = runners
        alpha, omega = runner.P.alpha, runner.P.omega
        assert sum(f is alpha for f in asked) == 4
        assert sum(f is omega for f in asked) == 4
        assert sum(c is alpha.coeffs for c in taken) == 1
        assert sum(c is omega.coeffs for c in taken) == 1


class TestTransversePoisson:
    def test_flat_case_both_sides_true(self):
        e = bundled.entry("flat", seed=97)
        rep = check_transverse_poisson(e.structure)
        assert rep.lv_pi_verdict.symbolic
        assert rep.dalpha_verdict.symbolic and rep.domega_verdict.symbolic
        assert rep.equivalence_holds

    def test_t3_and_sheared_true(self):
        for name in ("t3_example", "sheared"):
            rep = check_transverse_poisson(bundled.entry(name, seed=101).structure)
            assert rep.lv_pi_verdict.holds
            assert rep.closed_side
            assert rep.equivalence_holds

    def test_exp_wall_detects_non_poisson(self):
        e = bundled.entry("exp_wall", seed=103)
        P = e.structure
        rep = check_transverse_poisson(P)
        assert rep.lv_pi_verdict.failed
        assert rep.dalpha_verdict.failed
        assert rep.equivalence_holds
        assert rep.pair_witness is not None
        name, value = rep.pair_witness
        # the witness pairing matches -alpha([v, u_f]) exactly
        alpha, _ = P.adapted()
        u = P.hamiltonian_vf(symbol(name))
        bracket_side = -interior(schouten(P.transversal, u), alpha).scalar()
        assert (value - bracket_side).is_structural_zero
        assert P.tester.is_zero(value).failed

    def test_closed_alpha_needs_one_schouten(self, monkeypatch):
        # d(alpha) = 0: only L_v Pi is bracketed, and no Hamiltonian field is built
        P = bundled.entry("sheared", seed=101).structure
        P.adapted()
        counts = {"schouten": 0, "hamiltonian_vf": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        # P.lv_pi() takes the bracket of an unfactored border in poisson
        schouten_counted = counted("schouten", invariants.schouten)
        for module in (invariants, poisson):
            monkeypatch.setattr(module, "schouten", schouten_counted)
        hamiltonian_vf = counted("hamiltonian_vf", PoissonStructure.hamiltonian_vf)
        monkeypatch.setattr(PoissonStructure, "hamiltonian_vf", hamiltonian_vf)
        rep = check_transverse_poisson(P)
        assert rep.dalpha_verdict.symbolic and rep.pair_witness is None
        assert counts == {"schouten": 1, "hamiltonian_vf": 0}

    def test_explicit_shears_against_flat(self, xyz):
        # v = @z + x @y commutes with @x^@y (the bracket oracle says so);
        # v = @z + x @x does not: the verdicts must track the d-alpha side.
        flat = MultiVector(xyz, 2, {("x", "y"): 1})
        poisson_v = MultiVector(xyz, 1, {("z",): 1, ("y",): "x"})
        assert schouten(poisson_v, flat).is_structural_zero
        P = PoissonStructure(
            xyz, flat, transversal=poisson_v, tester=ZeroTester(xyz, seed=107)
        )
        rep = check_transverse_poisson(P)
        assert rep.lv_pi_verdict.symbolic
        assert rep.closed_side
        assert rep.equivalence_holds

        scaling_v = MultiVector(xyz, 1, {("z",): 1, ("x",): "x"})
        assert not schouten(scaling_v, flat).is_structural_zero
        P2 = PoissonStructure(
            xyz, flat, transversal=scaling_v, tester=ZeroTester(xyz, seed=109)
        )
        rep2 = check_transverse_poisson(P2)
        assert rep2.lv_pi_verdict.failed
        assert not rep2.closed_side
        assert rep2.equivalence_holds


class TestDecomposableFamily:
    @pytest.mark.parametrize(
        "ftext", ["2 + sin(x)", "exp(y)", "2 + sin(x)*cos(y)", "1/(2+x^2)"]
    )
    def test_full_pipeline_on_scaled_flat_structures(self, xyz, ftext):
        # Pi = f @x^@y is Poisson for any f; the adapted pair is
        # (dz, (1/f) dx^dy) and its volume is modular-invariant
        f = parse_scalar(ftext, xyz)
        P = PoissonStructure(
            xyz,
            MultiVector(xyz, 2, {("x", "y"): f}),
            transversal=basis_vector(xyz, "z"),
            tester=ZeroTester(xyz, seed=5),
        )
        assert P.jacobi_verdict().symbolic
        alpha, omega = P.adapted()
        assert alpha == basis_form(xyz, "z")
        assert (omega.coefficient("x", "y") * f - 1).is_structural_zero
        assert modular_field(P).is_structural_zero
        assert check_weinstein_identity(P).symbolic
        assert unimodularity_check(P).verdict.symbolic


class TestObstructionReport:
    def test_report_assembles_for_t3(self):
        problem = bundled.entry("t3_example").problem
        problem.seed = 109
        report = analyze(problem)["analyses"]
        holds = ("true", "probably-true")
        assert report["unimodularity"]["verdict"] in holds
        assert report["sigma"]["verdict"] in holds
        assert report["weinstein"]["verdict"] in holds
        assert report["beta"]["dbeta_in_ideal"] in holds
        assert report["godbillon_vey"]["artifacts"]["godbillon_vey"] == "0"
        assert report["modular"]["artifacts"]["field"] == "0"
