import math

import pytest

from corankone import Chart, ZeroTester, parse_scalar, rational
from corankone.calculus import (
    ChartMap,
    DiffForm,
    MultiVector,
    basis_form,
    basis_vector,
    ext_deriv,
    interior,
    is_zero_graded,
    leafwise_equal,
    parse_graded,
    power,
    wedge,
)
from corankone.errors import (
    ChartError,
    InvariantsNotVanishingError,
    NotPoissonFieldError,
    NotTransversalError,
)
from corankone.bgeom import (
    b_transversality_check,
    build_product_bpoisson,
    extend_to_b,
    mapping_torus_check,
)
from corankone.poisson import PoissonStructure, invert_bivector

import bundled


class TestBTransversality:
    def test_affine_example(self):
        e = bundled.entry("affine", seed=1)
        rep = b_transversality_check(e.structure, n=1)
        assert rep.verdict.symbolic
        assert rep.locus == "y = 0"
        assert rep.top_coefficient == parse_scalar("y", e.structure.chart)
        assert len(rep.points) == 1 and rep.points[0].linear

    def test_symplectic_case_vacuous(self):
        xy = Chart(("x", "y"))
        P = PoissonStructure(
            xy, MultiVector(xy, 2, {("x", "y"): 1}), corank_n=1,
            tester=ZeroTester(xy, seed=2),
        )
        rep = b_transversality_check(P, n=1)
        assert rep.verdict.symbolic
        assert rep.locus == "empty"

    def test_quadratic_vanishing_fails(self):
        xy = Chart(("x", "y"))
        P = PoissonStructure(
            xy, MultiVector(xy, 2, {("x", "y"): "y^2"}), corank_n=1,
            tester=ZeroTester(xy, seed=3),
        )
        rep = b_transversality_check(P, n=1)
        assert rep.verdict.failed
        assert "gradient" in rep.verdict.note

    def test_identically_degenerate(self):
        xy = Chart(("x", "y"))
        P = PoissonStructure(xy, MultiVector(xy, 2, {}), corank_n=1,
                             tester=ZeroTester(xy, seed=4))
        rep = b_transversality_check(P, n=1)
        assert rep.verdict.failed
        assert rep.locus == "everywhere degenerate"


class TestExtension:
    def test_flat_case_matches_expected_dual(self):
        e = bundled.entry("flat", seed=5)
        ext = extend_to_b(e.structure)
        ch = ext.chart_smooth
        assert ext.pi_ext == parse_graded("@x^@y - t @z^@t", ch, "multivector")
        assert ext.omega_ext == parse_graded(
            "dx^dy - 1/t dz^dt", ext.chart_forms, "form"
        )

    def test_extension_form_is_closed(self):
        for name in ("flat", "sheared", "t3_example"):
            ext = extend_to_b(bundled.entry(name, seed=7).structure)
            assert ext_deriv(ext.omega_ext).is_structural_zero, name

    def test_restriction_to_zero_recovers_base(self):
        for name in ("flat", "sheared", "t3_example"):
            e = bundled.entry(name, seed=11)
            ext = extend_to_b(e.structure)
            restricted = ext.restriction()
            lifted = MultiVector(ext.chart_smooth, 2, dict(e.structure.bivector.coeffs))
            assert (restricted - lifted).is_structural_zero, name

    def test_top_power_linear_in_t(self):
        for name in ("flat", "sheared", "t3_example"):
            e = bundled.entry(name, seed=13)
            ext = extend_to_b(e.structure)
            n = e.structure.corank_n
            top = power(ext.pi_ext, n + 1)
            h = top.coeffs[tuple(range(ext.chart_smooth.dim))]
            assert h.subs({"t": rational(0)}).is_structural_zero
            q = ext.quotient
            tester = ZeroTester(ext.chart_smooth, seed=17)
            for _ in range(10):
                env = tester.sample()
                assert abs(q.evaluate(env)) > 1e-9

    def test_round_trip_where_t_nonzero(self):
        e = bundled.entry("t3_example", seed=19)
        ext = extend_to_b(e.structure)
        pi_forms = MultiVector(ext.chart_forms, 2, dict(ext.pi_ext.coeffs))
        back = invert_bivector(pi_forms, ZeroTester(ext.chart_forms, seed=23))
        assert (back - ext.omega_ext).is_structural_zero

    def test_slice_at_one_recovers_base(self):
        for name in ("flat", "sheared", "t3_example"):
            e = bundled.entry(name, seed=29)
            ext = extend_to_b(e.structure)
            assert (ext.slice_at_one() - e.structure.bivector).is_structural_zero

    def test_open_alpha_rejected(self):
        e = bundled.entry("exp_wall", seed=31)
        with pytest.raises(InvariantsNotVanishingError):
            extend_to_b(e.structure)

    def test_name_collision_rejected(self):
        e = bundled.entry("flat", seed=37)
        with pytest.raises(ChartError):
            extend_to_b(e.structure, t_name="x")


class TestProductFamily:
    @pytest.fixture
    def chart(self):
        return Chart(("theta", "x", "y", "z"), periodic=("theta",))

    def test_sine_factor_two_critical_circles(self, chart):
        prod = build_product_bpoisson(
            chart,
            "theta",
            parse_scalar("sin(theta)", chart),
            basis_vector(chart, "z"),
            parse_graded("@x^@y", chart, "multivector"),
            ZeroTester(chart, seed=41),
        )
        assert prod.structure.jacobi_verdict().holds
        assert len(prod.critical_thetas) == 2
        assert prod.critical_thetas[0] == pytest.approx(0.0, abs=1e-9)
        assert prod.critical_thetas[1] == pytest.approx(math.pi, abs=1e-9)
        assert prod.linear_vanishing
        assert prod.leaf_annihilator == basis_form(chart.subchart(("x", "y", "z")), "z")

    def test_constant_factor_regular(self, chart):
        prod = build_product_bpoisson(
            chart,
            "theta",
            parse_scalar("1", chart),
            basis_vector(chart, "z"),
            parse_graded("@x^@y", chart, "multivector"),
            ZeroTester(chart, seed=43),
        )
        assert prod.transversality.verdict.symbolic
        assert prod.critical_thetas == []
        assert prod.linear_vanishing  # vacuously: empty critical set

    def test_quadratic_factor_fails_linear_vanishing(self):
        ch = Chart(("theta", "x", "y", "z"))
        prod = build_product_bpoisson(
            ch,
            "theta",
            parse_scalar("theta^2", ch),
            basis_vector(ch, "z"),
            parse_graded("@x^@y", ch, "multivector"),
            ZeroTester(ch, seed=47),
        )
        assert prod.transversality.verdict.failed
        assert not prod.linear_vanishing

    def test_non_poisson_field_rejected(self, chart):
        with pytest.raises(NotPoissonFieldError):
            build_product_bpoisson(
                chart,
                "theta",
                parse_scalar("sin(theta)", chart),
                MultiVector(chart, 1, {("z",): "x"}),  # [X, pi] != 0
                parse_graded("@x^@y", chart, "multivector"),
                ZeroTester(chart, seed=53),
            )

    def test_tangent_field_rejected(self, chart):
        with pytest.raises(NotTransversalError):
            build_product_bpoisson(
                chart,
                "theta",
                parse_scalar("sin(theta)", chart),
                basis_vector(chart, "x"),  # tangent to the leaves of pi
                parse_graded("@x^@y", chart, "multivector"),
                ZeroTester(chart, seed=59),
            )

    def test_theta_dependence_rules(self, chart):
        with pytest.raises(ChartError):
            build_product_bpoisson(
                chart,
                "theta",
                parse_scalar("x", chart),  # factor depends on the leaf
                basis_vector(chart, "z"),
                parse_graded("@x^@y", chart, "multivector"),
                ZeroTester(chart, seed=61),
            )

    def test_constant_factor_links_to_transverse_poisson(self, chart):
        # with f constant the normalized field is a Poisson transversal of
        # the corank-one product structure, so both invariants vanish
        prod = build_product_bpoisson(
            chart,
            "theta",
            parse_scalar("1", chart),
            basis_vector(chart, "z"),
            parse_graded("@x^@y", chart, "multivector"),
            ZeroTester(chart, seed=67),
        )
        sub = chart.subchart(("x", "y", "z"))
        from corankone.invariants import check_transverse_poisson

        leaf_structure = PoissonStructure(
            sub,
            parse_graded("@x^@y", sub, "multivector"),
            transversal=basis_vector(sub, "z"),
            tester=ZeroTester(sub, seed=71),
        )
        rep = check_transverse_poisson(leaf_structure)
        assert rep.lv_pi_verdict.symbolic
        assert rep.closed_side


class TestMappingTorus:
    @pytest.fixture
    def leaf(self):
        return Chart(("x", "y"), params=("c",))

    def test_identity(self, leaf):
        om = wedge(basis_form(leaf, "x"), basis_form(leaf, "y"))
        v = mapping_torus_check(ChartMap.identity(leaf), om, ZeroTester(leaf, seed=73))
        assert v.symbolic

    def test_shear_is_symplectic(self, leaf):
        om = wedge(basis_form(leaf, "x"), basis_form(leaf, "y"))
        phi = ChartMap(leaf, leaf, ["x + c", "y"])
        assert mapping_torus_check(phi, om, ZeroTester(leaf, seed=79)).symbolic

    def test_doubling_is_not(self, leaf):
        om = wedge(basis_form(leaf, "x"), basis_form(leaf, "y"))
        phi = ChartMap(leaf, leaf, ["2*x", "y"])
        v = mapping_torus_check(phi, om, ZeroTester(leaf, seed=83))
        assert v.failed
        assert v.witness is not None

    def test_area_preserving_nonlinear(self, leaf):
        om = wedge(basis_form(leaf, "x"), basis_form(leaf, "y"))
        phi = ChartMap(leaf, leaf, ["x + y^2", "y"])
        assert mapping_torus_check(phi, om, ZeroTester(leaf, seed=89)).symbolic

    def test_non_endomorphism_rejected(self, leaf):
        other = Chart(("u", "v"))
        om = wedge(basis_form(other, "u"), basis_form(other, "v"))
        phi = ChartMap(leaf, other, ["x", "y"])
        with pytest.raises(ChartError):
            mapping_torus_check(phi, om, ZeroTester(other, seed=97))
