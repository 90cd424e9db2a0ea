import math

import pytest

from corankone import Chart, ZeroTester, parse_scalar, rational
from corankone.calculus import MultiVector, basis_vector, ext_deriv, parse_graded, power
from corankone.errors import ChartError, InvariantsNotVanishingError
from corankone.bgeom import b_transversality_check, extend_to_b
from corankone.poisson import PoissonStructure, invert_bivector

import bundled


class TestBTransversality:
    def test_affine_example(self):
        e = bundled.entry("affine", seed=1)
        rep = b_transversality_check(e.structure)
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
        rep = b_transversality_check(P)
        assert rep.verdict.symbolic
        assert rep.locus == "empty"

    def test_quadratic_vanishing_fails(self):
        xy = Chart(("x", "y"))
        P = PoissonStructure(
            xy, MultiVector(xy, 2, {("x", "y"): "y^2"}), corank_n=1,
            tester=ZeroTester(xy, seed=3),
        )
        rep = b_transversality_check(P)
        assert rep.verdict.failed
        assert "gradient" in rep.verdict.note

    def test_identically_degenerate(self):
        xy = Chart(("x", "y"))
        P = PoissonStructure(xy, MultiVector(xy, 2, {}), corank_n=1,
                             tester=ZeroTester(xy, seed=4))
        rep = b_transversality_check(P)
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
    """The circle-times-leaf family f(theta) @theta^@z + @x^@y: the bundled
    product_sin.prob and product_const.prob, and a quadratic factor."""

    def test_sine_factor_two_critical_circles(self):
        P = bundled.entry("product_sin", seed=41).structure
        assert P.jacobi_verdict().holds
        rep = b_transversality_check(P)
        assert rep.verdict.holds
        assert [p.value for p in rep.points] == pytest.approx([0.0, math.pi], abs=1e-9)
        assert all(p.linear for p in rep.points)

    def test_constant_factor_regular(self):
        rep = b_transversality_check(bundled.entry("product_const", seed=43).structure)
        assert rep.verdict.symbolic
        assert rep.locus == "empty"
        assert rep.points == []

    def test_quadratic_factor_fails_linear_vanishing(self):
        ch = Chart(("theta", "x", "y", "z"))
        Pi = parse_graded("theta^2 @theta^@z + @x^@y", ch, "multivector")
        P = PoissonStructure(ch, Pi, corank_n=2, tester=ZeroTester(ch, seed=47))
        assert P.jacobi_verdict().holds
        rep = b_transversality_check(P)
        assert rep.verdict.failed
        assert "gradient vanishes on the zero set" in rep.verdict.note
        assert not any(p.linear for p in rep.points)

    def test_constant_factor_links_to_transverse_poisson(self):
        # with f constant the normalized field is a Poisson transversal of
        # the corank-one leaf factor, so both invariants vanish
        from corankone.invariants import check_transverse_poisson

        leaf = Chart(("x", "y", "z"))
        leaf_structure = PoissonStructure(
            leaf,
            parse_graded("@x^@y", leaf, "multivector"),
            transversal=basis_vector(leaf, "z"),
            tester=ZeroTester(leaf, seed=71),
        )
        rep = check_transverse_poisson(leaf_structure)
        assert rep.lv_pi_verdict.symbolic
        assert rep.closed_side
