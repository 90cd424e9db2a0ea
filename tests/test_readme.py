"""The README's library quick tour runs, each commented result is what it
computes, and its table of what each analysis needs is the pipeline's."""

import re
from pathlib import Path

import pytest

from corankone.errors import ToolkitWarning
from corankone.pipeline import NEEDS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs_and_matches_its_comments():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S).group(1)
    ns = {}
    with pytest.warns(ToolkitWarning, match="alpha is not closed"):
        exec(compile(block, str(README), "exec"), ns)
    result, cert, second = ns["result"], ns["result"].certificate, ns["second"]
    computed = {
        "alpha, omega": f"{ns['alpha']}, {ns['omega']}",
        "result": f"{result.verdict.label}, {cert.origin} certificate f = {cert.f}",
        "second": f"{second.verdict.label}, {second.verdict.note} (warns: alpha is not closed)",
        "field": str(ns["field"]),
        "ext": f"pi_ext = {ns['ext'].pi_ext}",
    }
    commented = dict(re.findall(r"^(\S[^=\n]*?) = [^#\n]*#\s*(.*?)\s*$", block, re.M))
    assert commented == computed


def test_needs_table_is_the_pipeline_table():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"### What each analysis needs\n(.*?)\n###", text, re.S).group(1)
    rows = dict(re.findall(r"^\| `(\w+)` \| ([^|]*?) \|$", section, re.M))
    assert rows == {name: ", ".join(needs) or "nothing" for name, needs in NEEDS.items()}
