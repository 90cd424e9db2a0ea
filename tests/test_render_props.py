"""The report writer against json.dumps on drawn JSON trees.

`pipeline.render_report` writes a report itself; it must give the bytes
of `json.dumps(tree, indent=2, sort_keys=True, ensure_ascii=True)` plus a
line break for any tree of dictionaries with string keys, lists, strings,
ints, floats, booleans and None.  The strings and keys carry quotes,
backslashes, control and non-ASCII characters (surrogates too); the
numbers include -0.0, the largest and the least float, the non-finite
floats and ints beyond 2^63.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corankone.pipeline import render_report  # noqa: E402

texts = st.text(
    st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9 \ud800\U0001f600'), st.characters()),
    max_size=8,
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.sampled_from((-0.0, 1e308, 5e-324, 1e16, 0.1, float("inf"), float("-inf"), float("nan"))),
    texts,
)
trees = st.recursive(
    scalars,
    lambda sub: st.one_of(st.lists(sub, max_size=4), st.dictionaries(texts, sub, max_size=4)),
    max_leaves=12,
)


@given(trees)
@example({})
@example({"a": [], "b": {}, "c": [{}, [[]]], "": None})
@example({"\ud800": [True, False, None, 0, -0.0, 2**64, 1e308, 5e-324]})
def test_writer_matches_json_dumps(tree):
    want = json.dumps(tree, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
    assert render_report(tree) == want
