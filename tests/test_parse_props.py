"""The parser against ScalarExpr arithmetic on the same expression tree.

Each example is a tree of rationals, decimals and symbols under `+ - * /`,
integer powers (negative ones too), unary minus and `exp/sin/cos/log`.  It
is printed fully parenthesized, with random spacing, and also evaluated
with ScalarExpr arithmetic; the parsed text must equal that value and
print the same.  A tree whose value is undefined (a division by zero, a
negative power of zero, the log of a non-positive constant) must fail to
parse with an ExprError, and so must a tree with a coefficient above
`expr.MAX_COEFFICIENT_BITS`, in its value or in a function argument.

The tokenizer is held to the regex pair it replaced
(`oracles.regex_tokenize`) on texts drawn from pieces that meet each of
its rules, and the parser must fail on those texts with the same message
at the same position whichever tokenizer it uses.

The direct reader of plain polynomial text is held to the descent on
plain texts and on texts one mutation away from plain: whatever it reads,
the descent must read to an equal expression with the same text, and
`parse_scalar` must give the descent's result or error either way.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corankone import Chart, ScalarExpr, parse_scalar, rational, symbol  # noqa: E402
from corankone import expr  # noqa: E402
from corankone.errors import ExprError, ToolkitError  # noqa: E402
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


def bounded(e: ScalarExpr) -> ScalarExpr:
    """e, or the parser's ExprError for a coefficient above the bound."""
    if max(abs(c) for c in (*e.num.values(), *e.den.values())) >> expr.MAX_COEFFICIENT_BITS:
        raise ExprError("coefficient above the bound")
    return e


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
        return expr.apply_function(kind, bounded(value(args[0])))
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
# the shapes that reach the descent from generated structures: a scaled
# transversal and a quotient by a sum
@example(
    (
        (
            "*",
            ("exp", ("neg", "x")),
            (
                "-",
                ("+", ("*", ("neg", ("/", "3", "2")), "a"), ("*", ("/", "1", "3"), "y")),
                ("/", "1", "2"),
            ),
        ),
        "exp(-x)*(-3/2*a + 1/3*y - 1/2)",
    )
)
@example((("/", "1", ("+", ("+", ("^", "a", 2), ("^", "y", 2)), "1")), "1/(a^2 + y^2 + 1)"))
# coefficients of about 2,400 bits, in the value and in a function argument
@example((("^", ("^", ("^", ("^", ("^", "9.99", 3), 3), 3), 3), 3), "(((((9.99)^3)^3)^3)^3)^3"))
@example(
    (
        ("*", "0", ("sin", ("^", ("^", ("^", ("^", ("^", "9.99", 3), 3), 3), 3), 3))),
        "(0*sin((((((9.99)^3)^3)^3)^3)^3))",
    )
)
def test_parse_equals_arithmetic(case):
    tree, text = case
    try:
        want = bounded(value(tree))
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


def parse_outcome(text, chart=CHART):
    try:
        return str(parse_scalar(text, chart))
    except ToolkitError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


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


# the reader against the descent: a chart with a parameter, and a
# torus-strict one whose angle "x" the descent and the reader both read,
# after which parse_scalar refuses it
STRICT = Chart(("x", "y"), periodic=("x",), params=("a",), torus_strict=True)
literals = st.one_of(
    st.integers(0, 40).map(str),
    st.tuples(st.integers(0, 99), st.integers(0, 999)).map(lambda t: f"{t[0]}.{t[1]}"),
)
factors = st.tuples(
    st.one_of(st.sampled_from(("x", "y", "a")), literals),
    st.one_of(st.just(""), st.integers(0, expr.MAX_EXPONENT).map(lambda k: f"^{k}")),
    st.lists(literals.filter(lambda t: t.strip("0.")), max_size=2),
).map(lambda f: f[0] + f[1] + "".join("/" + d for d in f[2]))
products = st.lists(factors, min_size=1, max_size=3).map("*".join)


@st.composite
def plain_texts(draw):
    """A sum of signed products, with drawn blanks around the operators."""
    terms = draw(st.lists(products, min_size=1, max_size=4))
    text = draw(st.sampled_from(("", "-", "+", " - "))) + terms[0]
    for term in terms[1:]:
        text += draw(spaces) + draw(st.sampled_from("+-")) + draw(spaces) + term
    return text


# what a plain text may meet one step from plain: blanks inside tokens, a
# tab, doubled or misplaced signs, bounds and divisions the reader leaves to
# the descent, malformed and overlong literals, a non-ASCII digit, function
# names without parentheses and an unknown name
MUTATIONS = (
    " ", "\t", "--", "*-", "^-1", "^33", "^032", "1/0", "/0.0", "2/x", "/a", "1.", ".5",
    "1e5", "9" * 30, "9" * 5000, "\u0661", "exp", "sin", "b", "(", "*", "^", "/",
)


@st.composite
def near_plain_texts(draw):
    text = draw(plain_texts())
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(MUTATIONS)) + text[at:]
    return text


@given(near_plain_texts(), st.sampled_from((CHART, STRICT)))
@example("2 3", CHART)
@example("x y", CHART)
@example("-x^2 + 3/4*a*y - 1.5", CHART)
@example("x*-y", CHART)
@example("x^33 - 1/0", CHART)
@example("x - x + 0^0/2", STRICT)
def test_reader_agrees_with_the_descent(text, chart):
    got = expr._read_plain(text, chart)
    if got is not None:
        want = expr._Parser(text, chart).parse()
        assert got == want and str(got) == str(want)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(expr, "_read_plain", lambda text, chart: None)
        alone = parse_outcome(text, chart)
    assert parse_outcome(text, chart) == alone


def test_reader_reads_plain_text_and_leaves_the_rest():
    assert expr._read_plain("-x^2 + 3/4*a*y - 1.5/2", CHART) is not None
    for text in ("2 3", "x y", "x*-y", "x^33", "1/0", "2/x", "exp", "(x)", "x\t+ 1", "\u0661"):
        assert expr._read_plain(text, CHART) is None, text
