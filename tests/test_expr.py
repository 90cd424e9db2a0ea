import math
import random
import sys
from fractions import Fraction

import pytest

from corankone import (
    Chart,
    ScalarExpr,
    ZeroTester,
    cos,
    exp,
    log,
    parse_scalar,
    rational,
    sin,
    symbol,
)
from corankone.errors import (
    ChartError,
    ExprError,
    ExprSyntaxError,
    UnknownIdentifierError,
)
from corankone import expr
from corankone.expr import MAX_DEGREE, MAX_DEPTH, MAX_EXPONENT, MAX_TERMS, ONE, ZERO, VerdictKind


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


def random_expr(rng, chart, depth=3):
    """Random expression tree over a chart, for property tests."""
    names = chart.coords + chart.params
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return symbol(rng.choice(names))
        return rational(rng.randint(-3, 3))
    op = rng.randrange(6)
    a = random_expr(rng, chart, depth - 1)
    b = random_expr(rng, chart, depth - 1)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    if op == 3:
        return a ** rng.randint(0, 3)
    if op == 4:
        return sin(a) if rng.random() < 0.5 else cos(a)
    return exp(a)


class TestParsing:
    def test_coordinate_reference(self, xyz):
        assert parse_scalar("y", xyz) == symbol("y")

    def test_t3_rational_coefficient(self, t3):
        e = parse_scalar("a/(a^2+b^2+1)", t3)
        assert str(e) == "a/(a^2 + b^2 + 1)"
        assert e.evaluate({"a": 1.0, "b": 1.0}) == pytest.approx(1.0 / 3.0)

    def test_log_node(self):
        ch = Chart(("x", "y", "t"), domains={"t": (0.05, 1.0)})
        e = parse_scalar("log(t)", ch)
        assert str(e) == "log(t)"

    def test_syntax_error_has_position(self, xyz):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_scalar("x + * y", xyz)
        assert ei.value.position == 4

    @pytest.mark.parametrize("text, position", [("x $", 2), ("x + $", 4), ("x +\t $ y", 5)])
    def test_bad_character_named_after_whitespace(self, xyz, text, position):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_scalar(text, xyz)
        assert ei.value.position == position
        assert "unexpected character '$'" in str(ei.value)

    def test_unknown_identifier_named(self, xyz):
        with pytest.raises(UnknownIdentifierError) as ei:
            parse_scalar("x + qq", xyz)
        assert ei.value.name == "qq"

    def test_unbalanced_parens(self, xyz):
        with pytest.raises(ExprSyntaxError):
            parse_scalar("(x + y", xyz)

    def test_integer_exponents_only(self, xyz):
        with pytest.raises(ExprSyntaxError):
            parse_scalar("x^y", xyz)
        with pytest.raises(ExprSyntaxError):
            parse_scalar("x^1.5", xyz)

    # Python's limit on the digits of one int conversion (0: no limit)
    DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

    @pytest.mark.skipif(not DIGITS, reason="no digit limit on int conversion")
    def test_decimal_literal_digit_runs_are_bounded_apart(self, xyz):
        # the whole and the fractional digits convert separately, each up to
        # the limit, so a literal longer than the limit as a whole parses
        n = self.DIGITS
        for whole, frac in ((n, n), (2000, 2400)):
            text = "1" * whole + "." + "2" * frac
            assert parse_scalar(text, xyz) == rational(Fraction(text))
        for whole, frac in ((n + 1, 1), (1, n + 1)):
            text = "1" * whole + "." + "2" * frac
            with pytest.raises(ExprSyntaxError) as ei:
                parse_scalar(f"x + {text}", xyz)
            assert str(ei.value) == (
                f"number literal of {len(text)} characters is too long (at position 4)"
            )

    def test_decimal_literal_is_reduced(self, xyz):
        for text, p, r in (("0.50", 1, 2), ("2.0", 2, 1), ("0.0", 0, 1), ("12.345", 2469, 200)):
            e = parse_scalar(text, xyz)
            assert (e.num.get(0, 0), e.den) == (p, {0: r})

    def test_negative_and_parenthesized_exponent(self, xyz):
        assert parse_scalar("x^-2", xyz) == parse_scalar("1/x^2", xyz)
        assert parse_scalar("x^(-2)", xyz) == parse_scalar("1/x^2", xyz)

    def test_exponent_bounded(self, xyz):
        # powers expand by repeated multiplication; a huge exponent must not hang
        assert parse_scalar(f"x^{MAX_EXPONENT}", xyz) == symbol("x") ** MAX_EXPONENT
        assert parse_scalar(f"x^(-{MAX_EXPONENT})", xyz) == symbol("x") ** -MAX_EXPONENT
        for text in (f"x^{MAX_EXPONENT + 1}", f"x^(-{MAX_EXPONENT + 1})", "x^(9999999999)"):
            with pytest.raises(ExprSyntaxError, match="exponent"):
                parse_scalar(text, xyz)

    def test_term_count_bounded(self):
        # a sum of k terms to the power e has up to C(k+e-1, e) terms
        seven = Chart(tuple("abcdefg"))
        s = "(a+b+c+d+e+f+g+1)"
        assert math.comb(15, 8) <= MAX_TERMS < math.comb(16, 9)
        assert len(parse_scalar(f"{s}^8", seven).num) == math.comb(15, 8)
        # a quotient of two polynomials multiplies nothing out
        assert len(parse_scalar(f"({s}^5 + 1)/({s}^5 + 2)", seven).den) == math.comb(12, 5)
        for text, what in (
            (f"{s}^9", "a power"),
            (f"{s}^32", "a power"),
            (f"{s}^(-9)", "a power"),
            (f"{s}^5*{s}^5", "a product"),
            (f"1/{s}^5/{s}^5", "a product"),
            (f"1/{s}^5 + 1/(a+{s}^5)", "a sum of quotients"),
        ):
            with pytest.raises(ExprSyntaxError, match=f"{what} may expand to .* more than {MAX_TERMS}"):
                parse_scalar(text, seven)

    def test_term_bound_is_inclusive(self, xyz, monkeypatch):
        # (x+y+1)^6 has C(8, 6) = 28 terms, (x+y+1)^7 has C(9, 7) = 36
        monkeypatch.setattr(expr, "MAX_TERMS", 28)
        assert len(parse_scalar("(x+y+1)^6", xyz).num) == 28
        with pytest.raises(ExprSyntaxError, match="36 terms"):
            parse_scalar("(x+y+1)^7", xyz)

    def test_degree_bounded(self, xyz):
        x10 = "((x^32)^32)"  # x^1024
        assert parse_scalar(f"{x10}^15*(x^32)^31*x^31", xyz) == symbol("x") ** MAX_DEGREE
        quot = parse_scalar(f"{x10}^15/((y^32)^32)^15", xyz)
        assert quot == ScalarExpr(("x", "y"), {(15360, 0): 1}, {(0, 15360): 1})
        assert quot.den != ONE.den
        for text, what, degree in (
            (f"{x10}^16", "a power", 16384),
            (f"{x10}^(-16)", "a power", 16384),
            (f"{x10}^15*(x^32)^32", "a product", 16384),
            (f"{x10}^15/(1/{x10})", "a product", 16384),
            (f"{x10}^8 + 1/((y^32)^32)^8", "a sum", 16384),
            (f"exp({x10}^16)", "a power", 16384),
        ):
            with pytest.raises(ExprSyntaxError, match=f"{what} has total degree {degree}, more than {MAX_DEGREE}"):
                parse_scalar(text, xyz)

    def test_overlong_literal_is_syntax_error(self, xyz):
        digits = "7" * 5000
        for text in (digits, f"1.{digits}", f"x^{digits}"):
            with pytest.raises(ExprSyntaxError, match="too long"):
                parse_scalar(text, xyz)

    def test_trailing_whitespace_ends_the_text(self, xyz):
        for text in ("x + 1 ", "x + 1\t\n", " x + 1  "):
            assert parse_scalar(text, xyz) == parse_scalar("x + 1", xyz)
        with pytest.raises(ExprSyntaxError, match=r"expected '\)' \(at position 3\)"):
            parse_scalar("(x ", xyz)

    def test_nesting_bounded(self, xyz):
        # each level costs the parser five calls; past the bound it must
        # refuse the text instead of exhausting Python's recursion limit
        x = symbol("x")
        assert parse_scalar("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, xyz) == x
        assert parse_scalar("exp(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, xyz).gens[0].fn == "exp"
        assert parse_scalar("x^" + "(" * MAX_DEPTH + "2" + ")" * MAX_DEPTH, xyz) == x**2
        d = MAX_DEPTH + 1
        for text, position in (
            ("(" * d + "x" + ")" * d, MAX_DEPTH),
            ("(" * 300 + "x" + ")" * 300, MAX_DEPTH),
            ("exp(" * d + "x" + ")" * d, 4 * MAX_DEPTH + 3),
            ("x^" + "(" * d + "2" + ")" * d, MAX_DEPTH + 2),
        ):
            with pytest.raises(ExprSyntaxError, match=f"nest more than {MAX_DEPTH} deep") as ei:
                parse_scalar(text, xyz)
            assert ei.value.position == position

    def test_decimal_literals_exact(self, xyz):
        assert parse_scalar("0.5", xyz) == parse_scalar("1/2", xyz)

    def test_division_by_literal_zero(self, xyz):
        with pytest.raises(ExprError):
            parse_scalar("1/(x - x)", xyz)

    def test_parse_print_parse_fixed_point(self, xyz):
        rng = random.Random(7)
        for _ in range(60):
            e = random_expr(rng, xyz)
            s = str(e)
            again = parse_scalar(s, xyz)
            assert again == e
            assert str(again) == s

    def test_torus_strict_rejects_bare_angle(self):
        strict = Chart(("theta", "x"), periodic=("theta",), torus_strict=True)
        with pytest.raises(ChartError):
            parse_scalar("theta + x", strict)
        # trig dependence stays legal
        parse_scalar("sin(theta)*x", strict)
        with pytest.raises(ChartError):
            parse_scalar("exp(theta)", strict)


class TestDerive:
    def test_constant_directions(self, xyz):
        assert parse_scalar("y", xyz).derive("x").is_structural_zero

    def test_log_derivative(self):
        ch = Chart(("t",), domains={"t": (0.05, 1.0)})
        e = parse_scalar("log(t)", ch)
        assert e.derive("t") == parse_scalar("1/t", ch)

    def test_exp_chain_rule_against_finite_differences(self, xyz):
        e = parse_scalar("exp(-x)", xyz)
        d = e.derive("x")
        assert d == parse_scalar("-1/exp(x)", xyz)
        rng = random.Random(11)
        h = 1e-6
        for _ in range(10):
            x0 = rng.uniform(-1.0, 1.0)
            fd = (e.evaluate({"x": x0 + h}) - e.evaluate({"x": x0 - h})) / (2 * h)
            assert d.evaluate({"x": x0}) == pytest.approx(fd, rel=1e-5)

    def test_linearity_and_leibniz_on_random_trees(self, xyz):
        rng = random.Random(3)
        for _ in range(40):
            a = random_expr(rng, xyz, depth=2)
            b = random_expr(rng, xyz, depth=2)
            c = rng.choice(xyz.coords)
            lin = (a + b).derive(c) - a.derive(c) - b.derive(c)
            assert lin.is_structural_zero
            leib = (a * b).derive(c) - a.derive(c) * b - a * b.derive(c)
            assert leib.is_structural_zero

    def test_chain_rule_through_functions(self, xyz):
        rng = random.Random(5)
        for _ in range(20):
            a = random_expr(rng, xyz, depth=2)
            c = rng.choice(xyz.coords)
            assert (sin(a).derive(c) - cos(a) * a.derive(c)).is_structural_zero
            assert (exp(a).derive(c) - exp(a) * a.derive(c)).is_structural_zero

    def test_mixed_partials_commute(self, xyz):
        rng = random.Random(9)
        for _ in range(30):
            e = random_expr(rng, xyz)
            u, v = rng.choice(xyz.coords), rng.choice(xyz.coords)
            assert (e.derive(u).derive(v) - e.derive(v).derive(u)).is_structural_zero

    def test_derivative_memoized_per_instance(self, xyz):
        rng = random.Random(13)
        for _ in range(20):
            e = random_expr(rng, xyz)
            fresh = parse_scalar(str(e), xyz)
            for c in xyz.coords:
                d = e.derive(c)
                assert e.derive(c) is d
                assert fresh.derive(c) == d
        assert rational(3).derive("x") is ZERO


class TestSimplify:
    def test_idempotent_on_random_corpus(self, xyz):
        rng = random.Random(21)
        for _ in range(50):
            e = random_expr(rng, xyz)
            # the constructor re-normalizes; on a canonical form it is the identity
            s1 = ScalarExpr(e.gens, dict(e.num), dict(e.den))
            assert ScalarExpr(s1.gens, dict(s1.num), dict(s1.den)) == s1
            assert s1 == e

    def test_exp_product_cancellation(self, xyz):
        x = symbol("x")
        assert (exp(x) * exp(-x) - 1).is_structural_zero

    def test_log_of_exp_unwinds(self, xyz):
        x, y = symbol("x"), symbol("y")
        assert log(exp(x + y)) == x + y
        assert log(exp(-(x**2))) == -(x**2)

    def test_trig_parity(self):
        x = symbol("x")
        assert sin(-x) == -sin(x)
        assert cos(-x) == cos(x)

    def test_rational_reduction(self, xyz):
        e = parse_scalar("(x^2 - 1)/(x - 1)", xyz)
        assert e == parse_scalar("x + 1", xyz)

    def test_common_factor_found_at_unlucky_points(self):
        # G's leading coefficient in y, x*(x-3), vanishes at the first gcd
        # evaluation point x = 3, where G's image drops to a constant
        xy = Chart(("x", "y"))
        G = "(1 + x*y*(y+5)*(x-3))"
        e = parse_scalar(f"{G}*(x+1)/({G}*(y+2))", xy)
        reduced = parse_scalar("(x+1)/(y+2)", xy)
        assert e == reduced
        assert str(e) == str(reduced) == "(x + 1)/(y + 2)"
        assert hash(e) == hash(reduced)

    def test_monomial_content_cancels(self):
        ch = Chart(("t", "x"), domains={"t": (0.05, 1.0)})
        e = parse_scalar("(t^2*x + t)/t", ch)
        assert e == parse_scalar("t*x + 1", ch)

    def test_fraction_field_axioms_random(self, xyz):
        # exercises the gcd-backed normalizer: cleared denominators must
        # cancel exactly against the expanded numerators
        rng = random.Random(37)
        for _ in range(30):
            polys = []
            while len(polys) < 4:
                p = random_expr(rng, xyz, depth=2)
                if not p.is_structural_zero:
                    polys.append(p)
            a, b, c, d = polys
            lhs = (a / b + c / d) * (b * d)
            rhs = a * d + c * b
            assert (lhs - rhs).is_structural_zero
            prod = (a / b) * (b / a)
            assert (prod - 1).is_structural_zero


class TestArithmeticShortcuts:
    def test_zero_operands(self, xyz):
        x = symbol("x")
        assert (x + ZERO) is x
        assert (ZERO + x) is x
        assert (x - ZERO) is x
        assert (ZERO * x) is ZERO and (x * ZERO) is ZERO
        assert (ZERO / x) is ZERO
        with pytest.raises(ExprError, match="division by zero"):
            x / ZERO
        with pytest.raises(ExprError, match="division by zero"):
            ZERO / ZERO

    def test_unit_factor_returns_operand(self, xyz):
        e = parse_scalar("x/(x + 1)", xyz)
        assert (e * 1) is e and (ONE * e) is e and (e / 1) is e

    def test_constant_has_unit_denominator(self, xyz):
        # a constant p/r keeps p over r on the unit monomial 0, r > 0, reduced
        for text, p, r in (
            ("2/3", 2, 3),
            ("(2*x)/(3*x)", 2, 3),
            ("(x^2 - 1)/(2*x - 2) - x/2", 1, 2),
            ("exp(x)/exp(x)", 1, 1),
            ("-4/6", -2, 3),
            ("1/6 + 1/3", 1, 2),
            ("6/(-4)", -3, 2),
        ):
            e = parse_scalar(text, xyz)
            assert (e.gens, e.num, e.den) == ((), {0: p}, {0: r})
            assert e.den[0] > 0 and math.gcd(p, r) == 1
        assert (ZERO.num, ZERO.den) == ({}, {0: 1})
        assert ONE.num == ONE.den == rational(5).den == {0: 1}

    def test_arithmetic_builds_no_fraction(self, xyz, monkeypatch):
        # rationals are ints, also where they are parsed and printed
        texts = ("2/3", "-5/7", "3", "x/(x + 1)", "(x^2 - y)/(3*y + 2)", "exp(x)/2 + sin(y)")
        fresh = [parse_scalar(t, xyz) for t in texts]
        calls = []
        real = Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        operands = [parse_scalar(t, xyz) for t in texts + ("1.25*x - 0.5", "log(2.5)")]
        out = []
        for a in operands:
            for b in operands:
                out += [a + b, a - b, a * b, a / b, a + 2, 3 * a, a / 4]
        for e in fresh:
            out += [e.derive("x"), e.derive("y")]
        assert all(str(e) for e in out)
        assert calls == []

    def test_shortcuts_skip_normalize(self, xyz, monkeypatch):
        x = symbol("x")
        q = parse_scalar("x/(x + 1)", xyz)
        calls = []
        real = expr._normalize

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(expr, "_normalize", counting)
        assert rational(2) * rational(3) == rational(6)
        assert x + ZERO == x
        scaled = rational(3) * q
        assert str(scaled) == "3*x/(x + 1)"
        assert calls == []
        # a sum of quotients still normalizes
        assert q + q == rational(2) * q
        assert len(calls) == 1


class TestIsZero:
    def test_exp_inverse_is_symbolically_zero(self, xyz):
        v = ZeroTester(xyz).is_zero(parse_scalar("exp(x)*exp(-x) - 1", xyz))
        assert v.kind is VerdictKind.ZERO

    def test_t3_denominator_is_nonzero_with_witness(self, t3):
        v = ZeroTester(t3, seed=2).is_zero(parse_scalar("a^2+b^2+1", t3))
        assert v.kind is VerdictKind.NONZERO
        assert v.witness is not None and v.value > 0

    def test_pythagorean_identity_probably_zero(self, xyz):
        tester = ZeroTester(xyz, seed=4, trials=20)
        v = tester.is_zero(parse_scalar("sin(x)^2 + cos(x)^2 - 1", xyz))
        assert v.kind is VerdictKind.PROBABLY_ZERO

    def test_unknown_on_unevaluable_domain(self):
        ch = Chart(("x",), domains={"x": (-1.0, -0.1)})
        v = ZeroTester(ch, seed=1).is_zero(parse_scalar("log(x)", ch))
        assert v.kind is VerdictKind.UNKNOWN

    def test_rational_function_is_nonzero_without_a_witness(self):
        # every sample of x^2 on (0, 1e308) overflows, but a nonzero
        # polynomial vanishes on no open interval
        ch = Chart(("x",), domains={"x": (0.0, 1e308)})
        v = ZeroTester(ch, seed=1).is_zero(parse_scalar("x^2", ch))
        assert v.failed and v.witness is None
        # exp(x) is no rational function: without a witness it stays unknown
        v = ZeroTester(ch, seed=1).is_zero(parse_scalar("exp(x)", ch))
        assert v.kind is VerdictKind.UNKNOWN

    def test_never_symbolic_true_with_witness(self, xyz):
        rng = random.Random(13)
        tester = ZeroTester(xyz, seed=8)
        for _ in range(40):
            e = random_expr(rng, xyz)
            v = tester.is_zero(e)
            if v.failed:
                assert not e.is_structural_zero

    def test_witness_point_actually_evaluates_nonzero(self, xyz):
        v = ZeroTester(xyz, seed=5).is_zero(parse_scalar("x + 2", xyz))
        assert v.failed
        e = parse_scalar("x + 2", xyz)
        assert abs(e.evaluate(v.witness)) > 1e-9


class TestChart:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ChartError):
            Chart(("x", "x"))

    @pytest.mark.parametrize("name", ["x\n", "1x", "", "x-y", "\u00e9"])
    def test_name_outside_ascii_identifiers_rejected(self, name):
        # a regex anchored with $ would accept the trailing newline
        with pytest.raises(ChartError, match="invalid name"):
            Chart([name, "y", "z"])

    def test_basis_name_collision_rejected(self):
        with pytest.raises(ChartError):
            Chart(("x", "dx"))

    def test_empty_interval_rejected(self):
        with pytest.raises(ChartError):
            Chart(("x",), domains={"x": (1.0, 1.0)})

    @pytest.mark.parametrize("interval", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
    def test_non_finite_interval_rejected(self, interval):
        # every sample from it is inf or nan, and no zero test is decided
        with pytest.raises(ChartError, match="sampling interval for 'x' is not finite"):
            Chart(("x",), domains={"x": interval})
        with pytest.raises(ChartError, match="sampling interval for 'a' is not finite"):
            Chart(("x",), params=("a",), domains={"a": interval})

    def test_sampling_respects_domains(self):
        ch = Chart(("t",), domains={"t": (0.05, 1.0)})
        rng = random.Random(0)
        for _ in range(100):
            env = ch.sample(rng)
            assert 0.05 <= env["t"] <= 1.0

    def test_periodic_default_interval(self):
        ch = Chart(("theta",), periodic=("theta",))
        lo, hi = ch.domain("theta")
        assert lo == 0.0 and hi == pytest.approx(2 * math.pi)

    def test_with_coordinate(self):
        ch = Chart(("x", "y"), params=("a",))
        ext = ch.with_coordinate("t", domain=(0.05, 1.0))
        assert ext.coords == ("x", "y", "t")
        assert ext.params == ("a",)
        assert ext.domain("t") == (0.05, 1.0)

    def test_value_equality_and_hash(self):
        args = (("x", "y"), ("y",), ("a",), {"x": (0.0, 2.0)}, True)
        a, b = Chart(*args), Chart(*args)
        assert a is not b and a == b and hash(a) == hash(b)

    @pytest.mark.parametrize(
        "changed",
        [{"periodic": ()}, {"domains": {"x": (0.0, 3.0)}}, {"torus_strict": False}],
        ids=["periodic", "domains", "torus_strict"],
    )
    def test_each_field_counts_for_equality(self, changed):
        base = {"periodic": ("y",), "domains": {"x": (0.0, 2.0)}, "torus_strict": True}
        assert Chart(("x", "y"), **base) != Chart(("x", "y"), **{**base, **changed})

    def test_immutable(self):
        ch = Chart(("x", "y"))
        with pytest.raises(AttributeError):
            ch.coords = ("z",)
        with pytest.raises(AttributeError):
            ch.torus_strict = True
        assert ch.coords == ("x", "y") and not ch.torus_strict


class TestEvaluate:
    def test_pole_raises_singularity(self, xyz):
        from corankone.errors import EvaluationSingularity

        e = parse_scalar("1/x", xyz)
        with pytest.raises(EvaluationSingularity):
            e.evaluate({"x": 0.0})

    def test_function_argument_evaluated_once_per_point(self, xyz, monkeypatch):
        # the numerator and the denominator share one value of exp(x)
        e = parse_scalar("exp(x)/(1+exp(x)) + y", xyz)
        calls, samples = [], []
        evaluate, sample = ScalarExpr.evaluate, Chart.sample

        def counted(self, env):
            calls.append(self)
            return evaluate(self, env)

        def counted_sample(self, rng):
            samples.append(self)
            return sample(self, rng)

        monkeypatch.setattr(ScalarExpr, "evaluate", counted)
        monkeypatch.setattr(Chart, "sample", counted_sample)
        e.evaluate({"x": 0.3, "y": 0.7})
        assert len(calls) == 2
        calls.clear()
        assert ZeroTester(xyz, seed=1, trials=1).is_zero(e).failed
        assert len(calls) == len(samples) == 1

    def test_function_values(self, xyz):
        e = parse_scalar("exp(x) + sin(y)*cos(z)", xyz)
        got = e.evaluate({"x": 0.3, "y": 0.7, "z": -0.2})
        want = math.exp(0.3) + math.sin(0.7) * math.cos(-0.2)
        assert got == pytest.approx(want)
