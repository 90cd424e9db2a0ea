"""The parser against ScalarExpr arithmetic on the same expression tree.

Each example is a tree of rationals, decimals and symbols under `+ - * /`,
integer powers (negative ones too), unary minus and `exp/sin/cos/log`.  It
is printed fully parenthesized, with random spacing, and also evaluated
with ScalarExpr arithmetic; the parsed text must equal that value and
print the same.  A tree whose value is undefined (a division by zero, a
negative power of zero, the log of a non-positive constant) must fail to
parse with an ExprError.

The tokenizer is held to the regex pair it replaced
(`oracles.regex_tokenize`) on texts drawn from pieces that meet each of
its rules, and the parser must fail on those texts with the same message
at the same position whichever tokenizer it uses.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corankone import Chart, ScalarExpr, parse_scalar, rational, symbol  # noqa: E402
from corankone import expr  # noqa: E402
from corankone.errors import ExprError  # noqa: E402
from oracles import regex_tokenize  # noqa: E402

CHART = Chart(("x", "y"), params=("a",))

leaves = st.one_of(
    st.sampled_from(("x", "y", "a")),
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 9), st.integers(0, 99)).map(lambda t: f"{t[0]}.{t[1]:02d}"),
)
trees = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/"), sub, sub),
        st.tuples(st.just("^"), sub, st.integers(-2, 3)),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.sampled_from(expr.FUNCTIONS), sub),
    ),
    max_leaves=7,
)
spaces = st.sampled_from(("", " ", "  "))


@st.composite
def texts(draw, tree):
    """tree printed fully parenthesized, with drawn spacing."""
    if isinstance(tree, str):
        return tree
    kind, *args = tree
    if kind == "neg":
        return f"(-{draw(texts(args[0]))})"
    if kind == "^":
        n = args[1]
        power = str(n) if n >= 0 else draw(st.sampled_from((f"({n})", str(n))))
        return f"({draw(texts(args[0]))})^{power}"
    if kind in expr.FUNCTIONS:
        return f"{kind}({draw(spaces)}{draw(texts(args[0]))}{draw(spaces)})"
    left, right = draw(texts(args[0])), draw(texts(args[1]))
    return f"({left}{draw(spaces)}{kind}{draw(spaces)}{right})"


def value(tree) -> ScalarExpr:
    """tree evaluated with ScalarExpr arithmetic."""
    if isinstance(tree, str):
        if tree in ("x", "y", "a"):
            return symbol(tree)
        return rational(Fraction(tree))
    kind, *args = tree
    if kind == "neg":
        return -value(args[0])
    if kind == "^":
        return value(args[0]) ** args[1]
    if kind in expr.FUNCTIONS:
        return expr.apply_function(kind, value(args[0]))
    left, right = value(args[0]), value(args[1])
    return {"+": left.__add__, "-": left.__sub__, "*": left.__mul__, "/": left.__truediv__}[
        kind
    ](right)


@st.composite
def cases(draw):
    # a sum of two products at the root, so that small trees meet every rule
    tree = ("+", ("*", draw(trees), draw(trees)), ("/", draw(trees), draw(trees)))
    return tree, draw(texts(tree))


@settings(max_examples=200)
@given(cases())
@example((("^", ("neg", "3"), -3), "(-3)^(-3)"))
@example((("^", ("/", "2", "0.75"), -2), "(2/0.75)^-2"))
@example((("^", ("-", "x", "x"), -1), "(x - x)^-1"))
def test_parse_equals_arithmetic(case):
    tree, text = case
    try:
        want = value(tree)
    except ExprError:
        with pytest.raises(ExprError):
            parse_scalar(text, CHART)
        return
    got = parse_scalar(text, CHART)
    assert got == want
    assert str(got) == str(want)


def test_wide_chart_keeps_short_coefficients_narrow():
    # polynomial subterms are packed over the symbols in the text, not the chart
    wide = Chart(tuple(f"x{i}" for i in range(40)), params=("a",))
    text = "-23/6*a^2 + 161/12*a*x17 - 2/3*x39 + x3*x17/5 + 1"
    parser = expr._Parser(text, wide)
    assert parser.gens == ("a", "x17", "x3", "x39")
    a, x3, x17, x39 = (symbol(n) for n in ("a", "x3", "x17", "x39"))
    want = (
        rational(Fraction(-23, 6)) * a**2
        + rational(Fraction(161, 12)) * a * x17
        - rational(Fraction(2, 3)) * x39
        + x3 * x17 / 5
        + 1
    )
    got = parser.parse()
    assert got == want and str(got) == str(want)
    assert got.gens == ("a", "x17", "x3", "x39")
    assert parse_scalar("x0 - x0 + 7/2", wide) == rational(Fraction(7, 2))


# names, numbers and operators, and what borders them: Unicode whitespace
# (NBSP) and digits (Arabic-Indic, fullwidth), a non-ASCII letter, a number
# that runs into a name, a dot without digits on one side, and a character
# that starts no token
TOKEN_PIECES = (
    "x", "a1", "2", "3.5", ".", "1.", ".5", "\xa0", "\u0661", "\uff12", "\xe9", "2x",
    " ", "\t", "exp", "#", *"-+*/^()",
)
token_texts = st.lists(st.sampled_from(TOKEN_PIECES), max_size=12).map("".join)


def parse_outcome(text):
    try:
        return str(parse_scalar(text, CHART))
    except ExprError as exc:
        return type(exc).__name__, str(exc), exc.position


@given(token_texts)
@example("3.\u0661\u0662 + 2x")
@example("\uff12\xa0*\xa0x \xe9")
@example("  1.\t")
def test_tokenize_matches_the_regexes(text):
    assert expr._tokenize(text) == regex_tokenize(text)


@given(token_texts)
@example("(x + \xe9")
@example("2 ^ .5")
def test_parse_errors_do_not_depend_on_the_tokenizer(text):
    got = parse_outcome(text)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(expr, "_tokenize", regex_tokenize)
        assert parse_outcome(text) == got
