"""The problem-file line splitter against shlex, the splitter it replaces.

`split_line` must give the words `shlex.split(line, comments=True)` gives,
or raise ValueError with the same message.  Lines are drawn from pieces
that exercise every rule: both quotes, backslashes, comments, tabs,
carriage returns, spaces and words.  shlex is the oracle here only; the
package does not import it.  The regex splitter that `split_line`
replaced (`oracles.regex_split_line`) must agree as well.
"""

import shlex

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corankone.problemfile import split_line  # noqa: E402
from oracles import regex_split_line  # noqa: E402

PIECES = ('"', "'", "\\", "#", "\t", " ", "x", "y1", "-3/2*a^2", "exp(x)", "\xa0", "\r", "a b")
lines = st.lists(st.sampled_from(PIECES), max_size=14).map("".join)


def outcome(split, line):
    try:
        return split(line)
    except ValueError as exc:
        return ("ValueError", str(exc))


def shlex_split(line):
    return shlex.split(line, comments=True)


@given(lines)
@example('bivector "-1/3*a^2 + b" x1 x2  # comment')
@example("""a"b c"'d\\' e'\\ f""")
@example('"" \'\' x#y "#"')
@example('"a\\"b\\\\c\\d"')
@example('"unclosed \\')
@example("tail \\")
def test_split_line_matches_shlex(line):
    assert outcome(split_line, line) == outcome(shlex_split, line) == outcome(regex_split_line, line)


def test_package_does_not_import_shlex():
    import corankone.problemfile as problemfile

    assert "shlex" not in vars(problemfile)
