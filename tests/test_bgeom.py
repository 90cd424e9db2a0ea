import math
import random
import time

import pytest

from corankone import Chart, ScalarExpr, VerdictKind, ZeroTester, parse_scalar, rational
from corankone.calculus import MultiVector, basis_vector, ext_deriv, power
from corankone.errors import ChartError, InvariantsNotVanishingError, NotTransversalError
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
            xy, MultiVector(xy, 2, {("x", "y"): 1}),
            tester=ZeroTester(xy, seed=2),
        )
        rep = b_transversality_check(P)
        assert rep.verdict.symbolic
        assert rep.locus == "empty"

    def test_quadratic_vanishing_fails(self):
        xy = Chart(("x", "y"))
        P = PoissonStructure(
            xy, MultiVector(xy, 2, {("x", "y"): "y^2"}),
            tester=ZeroTester(xy, seed=3),
        )
        rep = b_transversality_check(P)
        assert rep.verdict.failed
        assert "gradient" in rep.verdict.note

    def test_identically_degenerate(self):
        xy = Chart(("x", "y"))
        P = PoissonStructure(xy, MultiVector(xy, 2, {}),
                             tester=ZeroTester(xy, seed=4))
        rep = b_transversality_check(P)
        assert rep.verdict.failed
        assert rep.locus == "everywhere degenerate"


def _planar(h, seed=3, domains=None, params=()):
    """The structure h @x^@y on the plane, whose top coefficient is h (a
    text, or a dict from powers of x to coefficients)."""
    xy = Chart(("x", "y"), params=params, domains=domains)
    if isinstance(h, dict):
        h = ScalarExpr(("x",), {(k,): c for k, c in h.items()}, {(0,): 1})
    else:
        h = parse_scalar(h, xy)
    return PoissonStructure(xy, MultiVector(xy, 2, {("x", "y"): h}),
                            tester=ZeroTester(xy, seed=seed))


def _circle(h, seed=3, params=()):
    """The structure h @theta^@z + @x^@y, whose top coefficient is 2h."""
    ch = Chart(("theta", "x", "y", "z"), periodic=("theta",), params=params)
    Pi = MultiVector(ch, 2, {("theta", "z"): h, ("x", "y"): 1})
    return PoissonStructure(ch, Pi, tester=ZeroTester(ch, seed=seed))


class TestExactTransversality:
    """Top coefficients decided by root isolation over Q, and the scan
    kept for the others."""

    def test_double_root_off_the_grid_fails(self):
        # the 720-point scan straddles no sign change here and finds nothing
        rep = b_transversality_check(_planar("(x - 3001/10000)^2"))
        assert rep.verdict.failed
        assert rep.verdict.witness == {"x": 0.3001}
        assert rep.verdict.value == 0.0
        assert [(p.value, p.linear) for p in rep.points] == [(0.3001, False)]

    def test_simple_roots_hold_exactly(self):
        rep = b_transversality_check(_planar("x^3 - x/4"))
        assert rep.verdict.symbolic
        assert rep.locus == "x = -0.500000, x = 0.000000, x = 0.500000"
        assert all(p.linear for p in rep.points)

    @pytest.mark.parametrize("h", ["x^2 + 1", "x - 2", "1/(x - 1/2)"])
    def test_no_root_on_the_domain(self, h):
        rep = b_transversality_check(_planar(h))
        assert rep.verdict.symbolic
        assert rep.verdict.note == "top power has no zero on the sampling domain; empty critical set"
        assert rep.locus == "empty" and rep.points == []

    def test_sampling_interval_bounds_the_roots(self):
        rep = b_transversality_check(_planar("x - 2", domains={"x": (0.0, 3.0)}))
        assert rep.verdict.symbolic
        assert [p.value for p in rep.points] == [2.0]

    @pytest.mark.parametrize(
        "h, roots, linear",
        [
            ("sin(theta)*cos(theta)", [0.0, math.pi / 2, math.pi, 3 * math.pi / 2], True),
            ("sin(theta) - 1/2", [math.pi / 6, 5 * math.pi / 6], True),
            ("1 - cos(theta)", [0.0], False),
            ("1 + cos(theta)", [math.pi], False),
            ("sin(theta)^2", [0.0, math.pi], False),
        ],
    )
    def test_trigonometric(self, h, roots, linear):
        rep = b_transversality_check(_circle(h))
        assert [p.value for p in rep.points] == pytest.approx(roots, abs=1e-12)
        assert all(p.linear == linear for p in rep.points)
        if linear:
            assert rep.verdict.symbolic
        else:
            assert rep.verdict.failed
            assert rep.verdict.witness == {"theta": rep.points[0].value}

    def test_trigonometric_without_zero(self):
        rep = b_transversality_check(_circle("2 + sin(theta)"))
        assert rep.verdict.symbolic and rep.locus == "empty"

    @pytest.mark.parametrize(
        "structure",
        [
            lambda: _planar("exp(x) - 1"),
            lambda: _circle("sin(theta) + a*cos(theta)", params=("a",)),
            lambda: _circle("sin(2*theta)"),
        ],
    )
    def test_other_coefficients_are_scanned(self, structure, monkeypatch):
        from corankone import bgeom

        scanned = []
        real = bgeom._scan_roots

        def spy(*args):
            scanned.append(args[1])
            return real(*args)

        monkeypatch.setattr(bgeom, "_scan_roots", spy)
        rep = b_transversality_check(structure())
        assert scanned
        assert rep.verdict.kind is VerdictKind.PROBABLY_ZERO
        assert rep.verdict.note == "all critical points located by the scan are linear"

    @pytest.mark.parametrize(
        "h, note, locus, points",
        [
            (
                "x*y",
                "no zero-set points located (top power depends on several coordinates)",
                "undetermined",
                [],
            ),
            ("exp(x) + 1", "no zero-set points located by the scan",
             "no roots found on the sampling domain", []),
            # steep enough that the float nearest the root leaves a residual
            (
                "10^11*(exp(x) - 2)",
                "located root 0.6931471805599452 has residual 3.0517578125e-05",
                "unverified roots",
                [0.6931471805599452],
            ),
            # the bisection of the sign change lands on the pole
            (
                "exp(x)/(x - 3001/10000)",
                "located root 0.3001000000002225 has residual inf",
                "unverified roots",
                [0.3001000000002225],
            ),
        ],
    )
    def test_undecided_coefficients(self, h, note, locus, points):
        rep = b_transversality_check(_planar(h))
        assert rep.verdict.kind is VerdictKind.UNKNOWN
        assert (rep.verdict.note, rep.locus) == (note, locus)
        assert [p.value for p in rep.points] == points

    @pytest.mark.parametrize(
        "h, kind, witness, locus",
        [
            ("a - 1", VerdictKind.NONZERO, {"a": 1.0}, "everywhere degenerate at a = 1.000000"),
            ("a + 1", VerdictKind.ZERO, None, "empty"),
            ("(a - 1)*(b - 1)", VerdictKind.UNKNOWN, None, "undetermined"),
            ("3", VerdictKind.ZERO, None, "empty"),
        ],
        # the ids pytest gave the kinds when they were enum members
        ids=lambda v: f"VerdictKind.{v.value.upper().replace('-', '_')}"
        if isinstance(v, VerdictKind) else None,
    )
    def test_coefficient_of_parameters_only(self, h, kind, witness, locus):
        # a root of the parameter makes the top power vanish everywhere
        domains = {"a": (0.25, 1.75), "b": (0.25, 1.75)}
        rep = b_transversality_check(_planar(h, domains=domains, params=("a", "b")))
        assert (rep.verdict.kind, rep.verdict.witness, rep.locus) == (kind, witness, locus)
        assert rep.points == []
        constant = rep.verdict.note == "top power is a nonzero constant; empty critical set"
        assert constant == (h == "3")

    def test_dense_degree_sixty_is_decided_quickly(self):
        import random

        rng = random.Random(60)
        h = {k: rng.randint(-99, 99) for k in range(60)}
        h[60] = 1
        start = time.perf_counter()
        rep = b_transversality_check(_planar(h))
        assert time.perf_counter() - start < 2.0
        assert rep.verdict.symbolic and rep.points

    def test_oversized_coefficient_is_scanned(self, monkeypatch):
        from corankone import bgeom, roots

        scanned = []
        monkeypatch.setattr(bgeom, "_scan_roots", lambda *args: scanned.append(1) or [])
        # degree 91 with coefficients of 2 bits
        assert 91 * (91 + 2) > roots.EXACT_MAX_SIZE
        rep = b_transversality_check(_planar({91: 2, 0: -1}))
        assert scanned and not rep.verdict.symbolic


# the bundled files whose adapted pair is closed
CLOSED_PAIRS = ("flat", "sheared", "t3_example", "twisted_omega")


class TestExtension:
    def test_flat_case_matches_expected_dual(self):
        e = bundled.entry("flat", seed=5)
        ext = extend_to_b(e.structure)
        assert ext.chart.coords == ("x", "y", "z", "t")
        assert ext.chart.domain("t") == (-1.0, 1.0)
        assert str(ext.pi_ext) == "@x^@y - t @z^@t"
        assert str(ext.omega_ext) == "dx^dy - 1/t dz^dt"

    def test_extension_form_is_closed(self):
        for name in CLOSED_PAIRS:
            ext = extend_to_b(bundled.entry(name, seed=7).structure)
            assert ext_deriv(ext.omega_ext).is_structural_zero, name

    def test_restriction_to_zero_recovers_base(self):
        for name in CLOSED_PAIRS:
            e = bundled.entry(name, seed=11)
            ext = extend_to_b(e.structure)
            at_zero = {idx: c.subs({"t": rational(0)}) for idx, c in ext.pi_ext.coeffs.items()}
            lifted = MultiVector(ext.chart, 2, dict(e.structure.bivector.coeffs))
            assert MultiVector(ext.chart, 2, at_zero) == lifted, name

    def test_top_power_linear_in_t(self):
        for name in CLOSED_PAIRS:
            e = bundled.entry(name, seed=13)
            ext = extend_to_b(e.structure)
            n = e.structure.corank_n
            top = power(ext.pi_ext, n + 1)
            h = top.coeffs[tuple(range(ext.chart.dim))]
            assert h.subs({"t": rational(0)}).is_structural_zero
            assert h == ext.quotient * parse_scalar("t", ext.chart)
            q = ext.quotient
            rng = random.Random(17)
            for _ in range(10):
                env = ext.chart.sample(rng)
                assert abs(q.evaluate(env)) > 1e-9

    def test_round_trip_where_t_nonzero(self):
        # the closed form is the dual of the extended two-form
        for name in CLOSED_PAIRS:
            ext = extend_to_b(bundled.entry(name, seed=19).structure)
            back = invert_bivector(ext.pi_ext, ZeroTester(ext.chart, seed=23))
            assert back == ext.omega_ext, name

    def test_slice_at_one_recovers_base(self):
        for name in CLOSED_PAIRS:
            e = bundled.entry(name, seed=29)
            ext = extend_to_b(e.structure)
            t_index = ext.chart.index("t")
            sliced = MultiVector(
                e.structure.chart,
                2,
                {
                    idx: c.subs({"t": rational(1)})
                    for idx, c in ext.pi_ext.coeffs.items()
                    if t_index not in idx
                },
            )
            assert sliced == e.structure.bivector, name

    def test_open_alpha_rejected(self):
        e = bundled.entry("exp_wall", seed=31)
        with pytest.raises(InvariantsNotVanishingError):
            extend_to_b(e.structure)

    def test_name_collision_rejected(self):
        # flat.prob's structure on a chart that already names t, as a
        # coordinate or as a parameter
        for coords, params in ((("x", "y", "t"), ()), (("x", "y", "z"), ("t",))):
            ch = Chart(coords, params=params)
            P = PoissonStructure(
                ch,
                MultiVector(ch, 2, {coords[:2]: 1}),
                transversal=MultiVector(ch, 1, {coords[2:]: 1}),
                tester=ZeroTester(ch, seed=37),
            )
            with pytest.raises(ChartError, match="extension coordinate 't' already in use"):
                extend_to_b(P)

    def test_declared_pair_without_transversal_rejected(self):
        P = bundled.entry("flat", seed=38).structure
        alpha, omega = P.adapted()
        declared = PoissonStructure(
            P.chart, P.bivector, alpha=alpha, omega=omega, tester=ZeroTester(P.chart, seed=39)
        )
        assert declared.adapted() == (alpha, omega)
        with pytest.raises(NotTransversalError):
            extend_to_b(declared)


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
        Pi = MultiVector(ch, 2, {("theta", "z"): "theta^2", ("x", "y"): 1})
        P = PoissonStructure(ch, Pi, tester=ZeroTester(ch, seed=47))
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
            MultiVector(leaf, 2, {("x", "y"): 1}),
            transversal=basis_vector(leaf, "z"),
            tester=ZeroTester(leaf, seed=71),
        )
        rep = check_transverse_poisson(leaf_structure)
        assert rep.lv_pi_verdict.symbolic
        assert rep.closed_side
