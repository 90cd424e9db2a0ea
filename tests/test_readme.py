"""The README's library quick tour runs, and each commented result is what it computes."""

import re
from pathlib import Path

import pytest

from corankone.errors import ToolkitWarning

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
