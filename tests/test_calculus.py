import random

import pytest

from corankone import Chart, ZeroTester, parse_scalar, rational, symbol
from corankone.calculus import (
    DiffForm,
    MultiVector,
    basis_form,
    basis_vector,
    exterior_divide,
    ext_deriv,
    interior,
    is_zero_graded,
    leafwise_equal,
    lie_derivative,
    parse_graded,
    power,
    scalar_form,
    schouten,
    wedge,
    zero_form,
)
from corankone.errors import (
    BadTransversalError,
    ChartMismatchError,
    DegreeError,
    DivisionObstructedError,
)


@pytest.fixture
def xyz():
    return Chart(("x", "y", "z"))


@pytest.fixture
def t3():
    return Chart(
        ("theta1", "theta2", "theta3"),
        periodic=("theta1", "theta2", "theta3"),
        params=("a", "b"),
    )


def t3_alpha(t3):
    return parse_graded(
        "a/(a^2+b^2+1) dtheta1 + b/(a^2+b^2+1) dtheta2 - 1/(a^2+b^2+1) dtheta3",
        t3,
        "form",
    )


def t3_omega(t3):
    return parse_graded(
        "dtheta1^dtheta2 + b dtheta1^dtheta3 - a dtheta2^dtheta3", t3, "form"
    )


def random_poly(rng, chart, max_deg=2):
    e = rational(rng.randint(-2, 2))
    for _ in range(rng.randint(1, 3)):
        term = rational(rng.randint(-3, 3))
        for _ in range(rng.randint(0, max_deg)):
            term = term * symbol(rng.choice(chart.coords))
        e = e + term
    return e


def random_form(rng, chart, degree=None):
    import itertools

    k = rng.randint(0, chart.dim) if degree is None else degree
    keys = list(itertools.combinations(range(chart.dim), k))
    coeffs = {}
    for key in keys:
        if rng.random() < 0.6:
            coeffs[key] = random_poly(rng, chart)
    return DiffForm(chart, k, coeffs)


def random_multivector(rng, chart, degree):
    import itertools

    keys = list(itertools.combinations(range(chart.dim), degree))
    coeffs = {}
    for key in keys:
        if rng.random() < 0.7:
            coeffs[key] = random_poly(rng, chart)
    return MultiVector(chart, degree, coeffs)


class TestWedge:
    def test_square_of_one_form_vanishes(self, xyz):
        dx = basis_form(xyz, "x")
        assert wedge(dx, dx).is_structural_zero

    def test_bilinear_sign_case(self, xyz):
        xdy = DiffForm(xyz, 1, {("y",): "x"})
        ydx = DiffForm(xyz, 1, {("x",): "y"})
        assert wedge(xdy, ydx) == DiffForm(xyz, 2, {("x", "y"): "-x*y"})

    def test_t3_alpha_wedge_omega_is_volume(self, t3):
        vol = wedge(t3_alpha(t3), t3_omega(t3))
        coeff = vol.coefficient("theta1", "theta2", "theta3")
        assert coeff == parse_scalar("-1", t3)
        assert ZeroTester(t3, seed=3).is_zero(coeff).failed

    def test_graded_commutativity_random(self, xyz):
        rng = random.Random(2)
        for _ in range(30):
            k1, k2 = rng.randint(0, 2), rng.randint(0, 2)
            a, b = random_form(rng, xyz, k1), random_form(rng, xyz, k2)
            lhs = wedge(a, b)
            rhs = wedge(b, a)
            if (k1 * k2) % 2:
                rhs = -rhs
            assert (lhs - rhs).is_structural_zero

    def test_chart_mismatch_rejected(self, xyz, t3):
        with pytest.raises(ChartMismatchError):
            wedge(basis_form(xyz, "x"), basis_form(t3, "theta1"))

    def test_unsorted_keys_normalize_with_sign(self, xyz):
        a = DiffForm(xyz, 2, {("y", "x"): 1})
        assert a == DiffForm(xyz, 2, {("x", "y"): -1})


class TestExtDeriv:
    def test_d_of_basis_form(self, xyz):
        assert ext_deriv(basis_form(xyz, "x")).is_structural_zero

    def test_t3_alpha_and_omega_closed(self, t3):
        assert ext_deriv(t3_alpha(t3)).is_structural_zero
        assert ext_deriv(t3_omega(t3)).is_structural_zero

    def test_exponential_coefficient(self, xyz):
        eta = DiffForm(xyz, 1, {("z",): "exp(x)"})
        assert ext_deriv(eta) == DiffForm(xyz, 2, {("x", "z"): "exp(x)"})

    def test_dd_zero_random(self, xyz):
        rng = random.Random(4)
        for _ in range(40):
            eta = random_form(rng, xyz)
            assert ext_deriv(ext_deriv(eta)).is_structural_zero

    def test_leibniz_random(self, xyz):
        rng = random.Random(5)
        for _ in range(25):
            k1 = rng.randint(0, 2)
            a = random_form(rng, xyz, k1)
            b = random_form(rng, xyz, rng.randint(0, 2))
            lhs = ext_deriv(wedge(a, b))
            sign = -1 if k1 % 2 else 1
            rhs = wedge(ext_deriv(a), b) + rational(sign) * wedge(a, ext_deriv(b))
            assert (lhs - rhs).is_structural_zero


class TestInterior:
    def test_basic_contraction(self, xyz):
        assert interior(basis_vector(xyz, "z"), basis_form(xyz, "z")) == scalar_form(
            xyz, 1
        )

    def test_two_vector_contraction_convention(self, xyz):
        X = wedge(basis_vector(xyz, "x"), basis_vector(xyz, "y"))
        eta = wedge(wedge(basis_form(xyz, "z"), basis_form(xyz, "x")), basis_form(xyz, "y"))
        assert interior(X, eta) == basis_form(xyz, "z")

    def test_composition_order(self, xyz):
        # interior(X ^ Y, eta) = interior(Y, interior(X, eta))
        rng = random.Random(6)
        for _ in range(20):
            eta = random_form(rng, xyz, 3)
            X = random_multivector(rng, xyz, 1)
            Y = random_multivector(rng, xyz, 1)
            lhs = interior(wedge(X, Y), eta)
            rhs = interior(Y, interior(X, eta))
            assert (lhs - rhs).is_structural_zero

    def test_antiderivation_for_vectors(self, xyz):
        rng = random.Random(7)
        for _ in range(20):
            k1 = rng.randint(1, 2)
            a = random_form(rng, xyz, k1)
            b = random_form(rng, xyz, rng.randint(1, 3 - k1))
            v = random_multivector(rng, xyz, 1)
            lhs = interior(v, wedge(a, b))
            sign = -1 if k1 % 2 else 1
            rhs = wedge(interior(v, a), b) + rational(sign) * wedge(a, interior(v, b))
            assert (lhs - rhs).is_structural_zero

    def test_degree_underflow(self, xyz):
        with pytest.raises(DegreeError):
            interior(wedge(basis_vector(xyz, "x"), basis_vector(xyz, "y")), basis_form(xyz, "x"))

    def test_adapted_triple_identity(self, t3, xyz):
        # n alpha ^ omega^(n-1) for the flat triple and the torus triple
        alpha, omega = basis_form(xyz, "z"), wedge(basis_form(xyz, "x"), basis_form(xyz, "y"))
        Pi = wedge(basis_vector(xyz, "x"), basis_vector(xyz, "y"))
        assert interior(Pi, wedge(alpha, omega)) == alpha


class TestLieDerivative:
    def test_translation_invariance(self, xyz):
        assert lie_derivative(
            basis_vector(xyz, "x"), wedge(basis_form(xyz, "x"), basis_form(xyz, "y"))
        ).is_structural_zero

    def test_closed_alpha_with_unit_pairing(self, xyz):
        # L_v alpha = 0 whenever alpha is closed and alpha(v) = 1
        alpha = basis_form(xyz, "z")
        v = basis_vector(xyz, "z") + MultiVector(xyz, 1, {("x",): "y"})
        assert lie_derivative(v, alpha).is_structural_zero

    def test_scaling_field(self, xyz):
        v = MultiVector(xyz, 1, {("y",): "y"})
        eta = wedge(basis_form(xyz, "x"), basis_form(xyz, "y"))
        assert lie_derivative(v, eta) == eta

    def test_cartan_formula_random(self, xyz):
        rng = random.Random(8)
        for _ in range(30):
            eta = random_form(rng, xyz)
            v = random_multivector(rng, xyz, 1)
            lhs = lie_derivative(v, eta)
            rhs = interior(v, ext_deriv(eta))
            if eta.degree >= 1:
                rhs = rhs + ext_deriv(interior(v, eta))
            assert (lhs - rhs).is_structural_zero

    def test_multivector_side_matches_bracket(self, xyz):
        rng = random.Random(9)
        for _ in range(15):
            v = random_multivector(rng, xyz, 1)
            Q = random_multivector(rng, xyz, 2)
            assert (lie_derivative(v, Q) - schouten(v, Q)).is_structural_zero


class TestSchouten:
    def test_constant_fields_commute(self, xyz):
        assert schouten(basis_vector(xyz, "x"), basis_vector(xyz, "y")).is_structural_zero

    def test_affine_bivector_is_poisson(self, xy=Chart(("x", "y"))):
        Pi = MultiVector(xy, 2, {("x", "y"): "y"})
        assert schouten(Pi, Pi).is_structural_zero

    def test_commutator_on_vector_fields(self, xyz):
        rng = random.Random(10)
        for _ in range(20):
            v = random_multivector(rng, xyz, 1)
            w = random_multivector(rng, xyz, 1)
            br = schouten(v, w)
            # compare against the commutator acting on coordinates
            for name in xyz.coords:
                f = symbol(name)
                assert (br(f) - (v(w(f)) - w(v(f)))).is_structural_zero

    def test_vector_function_is_directional_derivative(self, xyz):
        v = MultiVector(xyz, 1, {("x",): "y", ("z",): "x"})
        f = MultiVector(xyz, 0, {(): "x^2*z"})
        got = schouten(v, f).scalar()
        want = v(parse_scalar("x^2*z", xyz))
        assert (got - want).is_structural_zero

    def test_graded_symmetry_random(self, xyz):
        rng = random.Random(11)
        for _ in range(25):
            p = rng.randint(1, 2)
            q = rng.randint(1, 2)
            P = random_multivector(rng, xyz, p)
            Q = random_multivector(rng, xyz, q)
            lhs = schouten(P, Q)
            rhs = schouten(Q, P)
            sign = -1 if ((p - 1) * (q - 1)) % 2 == 0 else 1
            # [P,Q] = -(-1)^((p-1)(q-1)) [Q,P]
            expected = rational(sign) * rhs
            assert (lhs - expected).is_structural_zero

    def test_graded_leibniz_random(self, xyz):
        rng = random.Random(12)
        for _ in range(25):
            p = rng.randint(1, 2)
            q = rng.randint(0, 1)
            r = rng.randint(0, 1)
            P = random_multivector(rng, xyz, p)
            Q = random_multivector(rng, xyz, q)
            R = random_multivector(rng, xyz, r)
            lhs = schouten(P, wedge(Q, R))
            sign = -1 if ((p - 1) * q) % 2 else 1
            rhs = wedge(schouten(P, Q), R) + rational(sign) * wedge(Q, schouten(P, R))
            assert (lhs - rhs).is_structural_zero

    def test_jacobi_fails_with_computable_bracket(self, xyz):
        Pi = MultiVector(xyz, 2, {("x", "y"): 1, ("x", "z"): "x"})
        br = schouten(Pi, Pi)
        assert br == MultiVector(xyz, 3, {("x", "y", "z"): 2})


class TestPower:
    def test_zeroth_power_is_one(self, xyz):
        P = MultiVector(xyz, 2, {("x", "y"): "y"})
        assert power(P, 0) == MultiVector(xyz, 0, {(): 1})

    def test_symplectic_square(self):
        ch = Chart(("x", "y", "z", "w"))
        om = wedge(basis_form(ch, "x"), basis_form(ch, "y")) + wedge(
            basis_form(ch, "z"), basis_form(ch, "w")
        )
        assert power(om, 2) == DiffForm(ch, 4, {("x", "y", "z", "w"): 2})

    def test_single_block_square_vanishes(self):
        ch = Chart(("x", "y", "z", "w"))
        om = wedge(basis_form(ch, "x"), basis_form(ch, "y"))
        assert power(om, 2).is_structural_zero

    def test_one_form_square_vanishes(self, xyz):
        alpha = DiffForm(xyz, 1, {("x",): "y", ("z",): "x+1"})
        assert power(alpha, 2).is_structural_zero

    def test_degree_overflow_is_zero(self, xyz):
        Pi = MultiVector(xyz, 2, {("x", "y"): "y"})
        assert power(Pi, 2).is_structural_zero


class TestExteriorDivide:
    def test_zero_input(self, xyz):
        alpha = basis_form(xyz, "z")
        xi = exterior_divide(zero_form(xyz, 2), alpha, basis_vector(xyz, "z"))
        assert xi.is_structural_zero

    def test_exp_wall_beta(self, xyz):
        alpha = DiffForm(xyz, 1, {("z",): "exp(x)"})
        v = MultiVector(xyz, 1, {("z",): "exp(-x)"})
        xi = exterior_divide(ext_deriv(alpha), alpha, v, ZeroTester(xyz, seed=1))
        assert xi == basis_form(xyz, "x")
        assert (ext_deriv(alpha) - wedge(xi, alpha)).is_structural_zero

    def test_closed_alpha_gives_zero(self, xyz):
        alpha = basis_form(xyz, "z")
        xi = exterior_divide(ext_deriv(alpha), alpha, basis_vector(xyz, "z"))
        assert xi.is_structural_zero

    def test_odd_degree_sign(self, xyz):
        # eta = mu ^ alpha for a 2-form mu: division must return a verifying mu
        alpha = basis_form(xyz, "z")
        mu = wedge(basis_form(xyz, "x"), basis_form(xyz, "y"))
        eta = wedge(mu, alpha)
        got = exterior_divide(eta, alpha, basis_vector(xyz, "z"))
        assert (eta - wedge(got, alpha)).is_structural_zero

    def test_obstructed_division(self, xyz):
        alpha = basis_form(xyz, "z")
        eta = wedge(basis_form(xyz, "x"), basis_form(xyz, "y"))  # eta ^ alpha != 0
        with pytest.raises(DivisionObstructedError) as ei:
            exterior_divide(eta, alpha, basis_vector(xyz, "z"), ZeroTester(xyz, seed=2))
        assert ei.value.witness is not None

    def test_bad_transversal(self, xyz):
        alpha = basis_form(xyz, "z")
        with pytest.raises(BadTransversalError):
            exterior_divide(
                ext_deriv(alpha), alpha, basis_vector(xyz, "x"), ZeroTester(xyz, seed=3)
            )

    def test_round_trip_random(self, xyz):
        # exterior_divide does not test eta == xi ^ alpha itself: the identity
        # follows from eta ^ alpha = 0 and alpha(v) = 1, and is held here
        rng = random.Random(14)
        tester = ZeroTester(xyz, seed=5)
        pairs = [
            (basis_form(xyz, "z"), basis_vector(xyz, "z")),
            (DiffForm(xyz, 1, {("x",): "y", ("z",): "exp(x)"}), MultiVector(xyz, 1, {("z",): "exp(-x)"})),
        ]
        for alpha, v in pairs:
            for _ in range(20):
                xi = random_form(rng, xyz, rng.randint(0, 2))
                eta = wedge(xi, alpha)
                got = exterior_divide(eta, alpha, v, tester)
                assert (eta - wedge(got, alpha)).is_structural_zero


class TestIsZeroGraded:
    def test_stops_at_the_first_nonzero_coefficient(self, xyz):
        tester = ZeroTester(xyz, seed=8)
        tested = []
        real = tester.is_zero

        def spy(e):
            tested.append(e)
            return real(e)

        tester.is_zero = spy
        form = DiffForm(xyz, 1, {("x",): "x", ("y",): "y", ("z",): "z"})
        v = is_zero_graded(form, tester)
        assert v.failed and len(tested) == 1
        assert v.witness == real(tested[0]).witness

    def test_worst_verdict_of_the_rest(self, xyz):
        form = DiffForm(xyz, 1, {("x",): "exp(x)*exp(y) - exp(x + y)", ("y",): "0", ("z",): "1"})
        v = is_zero_graded(form, ZeroTester(xyz, seed=9))
        assert v.failed and v.witness is not None


class TestLeafwiseEqual:
    def test_reflexive(self, xyz):
        eta = DiffForm(xyz, 2, {("x", "y"): "x"})
        v = leafwise_equal(eta, eta, basis_form(xyz, "z"), ZeroTester(xyz))
        assert v.symbolic

    def test_mod_alpha_invariance(self, xyz):
        rng = random.Random(15)
        alpha = basis_form(xyz, "z")
        tester = ZeroTester(xyz, seed=6)
        omega = wedge(basis_form(xyz, "x"), basis_form(xyz, "y"))
        for _ in range(10):
            xi = random_form(rng, xyz, 1)
            shifted = omega + wedge(alpha, xi)
            assert leafwise_equal(omega, shifted, alpha, tester).symbolic

    def test_detects_leafwise_difference(self, xyz):
        alpha = basis_form(xyz, "z")
        a = wedge(basis_form(xyz, "x"), basis_form(xyz, "y"))
        v = leafwise_equal(a, rational(2) * a, alpha, ZeroTester(xyz, seed=7))
        assert v.failed


class TestRendering:
    def test_parse_stable_random(self, xyz):
        rng = random.Random(16)
        for _ in range(30):
            eta = random_form(rng, xyz)
            s = str(eta)
            assert parse_graded(s, xyz, "form") == eta

    def test_multivector_round_trip(self, xyz):
        rng = random.Random(17)
        for _ in range(20):
            P = random_multivector(rng, xyz, rng.randint(1, 3))
            assert parse_graded(str(P), xyz, "multivector") == P

    def test_examples(self, xyz):
        eta = DiffForm(xyz, 2, {("x", "z"): "exp(x)"})
        assert str(eta) == "exp(x) dx^dz"
        P = MultiVector(xyz, 2, {("x", "y"): "y"})
        assert str(P) == "y @x^@y"
