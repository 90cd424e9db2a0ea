"""Test structures, each built from its problem file: bundled, then `tests/problems/`."""

from collections import namedtuple
from pathlib import Path

from corankone.cli import bundled_corpus
from corankone.problemfile import loads_problem

FIXTURES = sorted(Path(__file__).with_name("problems").glob("*.prob"))
# twisted_omega.prob requests no unimodularity analysis; its flat structure is unimodular
UNIMODULAR_WITHOUT_EXPECT = {"twisted_omega": True}

Entry = namedtuple("Entry", "name problem structure expect_unimodular")


def problem_texts():
    return bundled_corpus() + [(p.name, p.read_text(encoding="utf-8")) for p in FIXTURES]


def _build(filename, text, seed):
    name = filename.removesuffix(".prob")
    problem = loads_problem(text, path=filename)
    problem.seed = seed
    expected = problem.expects.get("unimodularity")
    unimodular = UNIMODULAR_WITHOUT_EXPECT.get(name) if expected is None else expected == "true"
    return Entry(name, problem, problem.structure(), unimodular)


def all_entries(seed=0):
    return [_build(filename, text, seed) for filename, text in problem_texts()]


def corank_one_entries(seed=0):
    """The entries whose file declares a transversal field."""
    return [e for e in all_entries(seed) if e.problem.transversal is not None]


def entry(name, seed=0):
    filename = f"{name}.prob"
    return _build(filename, dict(problem_texts())[filename], seed)
