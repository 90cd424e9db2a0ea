import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import corankone
from corankone import ZeroTester, invariants, pipeline
from corankone.cli import bundled_corpus, main
from corankone.errors import ProblemFileError
from corankone.pipeline import analyze, exit_code, expect_mismatches, render_report
from corankone.poisson import PoissonStructure
from corankone.problemfile import ANALYSES, load_problem, loads_problem

import bundled

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def corpus_text(name):
    for fname, text in bundled_corpus():
        if fname == name:
            return text
    raise KeyError(name)


MINIMAL = """
schema 1
section chart
  coords x y z
section structure
  corank 1
  bivector "1" x y
  transversal "1" z
section analyses
  jacobi
section options
  seed 3
"""


def run_python(*args, timeout=None):
    """`python ...` in a fresh interpreter that imports this corankone."""
    src = os.path.dirname(os.path.dirname(corankone.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def run_cli(*args, timeout=None):
    return run_python("-m", "corankone", *args, timeout=timeout)


class TestProblemFileParsing:
    def test_bundled_files_all_load(self):
        names = [n for n, _ in bundled_corpus()]
        assert "t3_example.prob" in names and "affine.prob" in names
        assert len(names) >= 9
        for name, text in bundled_corpus():
            problem = loads_problem(text, path=name)
            assert problem.analyses, name
            assert problem.expects, name

    def test_minimal_file(self):
        p = loads_problem(MINIMAL)
        assert p.chart.coords == ("x", "y", "z")
        assert p.analyses == ("jacobi",)
        assert p.seed == 3

    def test_unknown_directive_reports_line(self):
        bad = MINIMAL.replace('bivector "1" x y', "bivectr 1 x y")
        with pytest.raises(ProblemFileError) as ei:
            loads_problem(bad, path="bad.prob")
        assert "bad.prob" in str(ei.value)
        assert ei.value.line == 7

    def test_unknown_analysis_rejected(self):
        bad = MINIMAL.replace("jacobi", "frobnicate")
        with pytest.raises(ProblemFileError):
            loads_problem(bad)

    def test_bad_expression_rejected(self):
        bad = MINIMAL.replace('"1"', '"1 +"')
        with pytest.raises(ProblemFileError):
            loads_problem(bad)

    def test_missing_bivector_rejected(self):
        bad = MINIMAL.replace('bivector "1" x y', "")
        with pytest.raises(ProblemFileError):
            loads_problem(bad)

    def test_terms_on_one_basis_element_add_up(self):
        text = MINIMAL.replace(
            'bivector "1" x y',
            'bivector "x" x y\n  bivector "2" y x\n  bivector "y" x y\n  bivector "5" z z',
        ).replace("section analyses", 'section certificates\n  second "x" y\n  second "1" y\nsection analyses')
        p = loads_problem(text)
        assert str(p.bivector.coefficient("x", "y")) == "x + y - 2"
        assert list(p.bivector.coeffs) == [(0, 1)]
        assert str(p.second_certificate.nu.coefficient("y")) == "x + 1"

    def test_unknown_coordinate_in_term(self):
        bad = MINIMAL.replace('bivector "1" x y', 'bivector "1" x w')
        with pytest.raises(ProblemFileError):
            loads_problem(bad)


# The skip matrix: every analysis on a 3-chart and a 4-chart, with a Poisson
# (P) and a non-Poisson (N) bivector, with (v) and without (0) a transversal.
# A cell is "ok", "error", or the detail of a skip.
SKIP_CHARTS = {
    ("3", "P"): ("x y z", ['"1" x y']),
    ("3", "N"): ("x y z", ['"y" x y', '"z" y z', '"x" x z']),
    ("4", "P"): ("w x y z", ['"1" w x', '"1" y z']),
    ("4", "N"): ("w x y z", ['"y" w x', '"z" x y', '"w" y z']),
}
SKIP_COLUMNS = ("3-P-v", "3-P-0", "3-N-v", "3-N-0", "4-P-v", "4-P-0", "4-N-v", "4-N-0")
JAC = "Jacobi identity fails"
ODD = "chart dimension is odd"
EVEN = "chart dimension is even"
NOV = "no transversal field declared"
PAIR_ROW = ("ok", NOV, JAC, JAC, EVEN, EVEN, JAC, JAC)
SKIP_MATRIX = {
    "jacobi": ("ok",) * 8,
    "corank": ("ok",) * 8,
    "adapted": PAIR_ROW,
    "beta": PAIR_ROW,
    "unimodularity": PAIR_ROW,
    "godbillon_vey": PAIR_ROW,
    "mu": PAIR_ROW,
    "sigma": PAIR_ROW,
    "modular": ("ok", NOV, JAC, JAC, "ok", "ok", JAC, JAC),
    "weinstein": PAIR_ROW,
    "transverse_poisson": PAIR_ROW,
    "b_transversality": (ODD, ODD, ODD, ODD, "ok", "ok", "ok", "ok"),
    "b_extension": PAIR_ROW,
}


class TestPipeline:
    def test_dependency_order_and_skipping(self):
        # non-Poisson bivector: jacobi false, downstream analyses skipped
        text = """
schema 1
section chart
  coords x y z
section structure
  corank 1
  bivector "1" x y
  bivector "x" x z
  transversal "1" z
section analyses
  jacobi
  adapted
  beta
  weinstein
"""
        report = analyze(loads_problem(text))
        assert report["analyses"]["jacobi"]["verdict"] == "false"
        for name in ("adapted", "beta", "weinstein"):
            assert report["analyses"][name]["status"] == "skipped"
        assert exit_code(report) == 1

    def test_period_note_without_a_locus_ends_at_the_cycle(self):
        # the period found on its own pins no coordinate, so the note names
        # the cycle alone
        text = """
schema 1
section chart
  coords theta x y
  periodic theta
section structure
  bivector "1" theta y
  transversal "exp(-theta)" x
section analyses
  unimodularity
"""
        entry = analyze(loads_problem(text))["analyses"]["unimodularity"]
        assert entry["verdict"] == "false"
        assert entry["detail"] == "nonzero leafwise period of the theta-cycle"

    def test_modular_is_skipped_when_jacobi_fails_on_an_even_chart(self, tmp_path):
        # the even-chart fallback to the chart volume needs a Poisson bivector too
        path = tmp_path / "not_poisson.prob"
        path.write_text(
            "schema 1\nsection chart\n  coords w x y z\nsection structure\n  corank 2\n"
            '  bivector "y" w x\n  bivector "z" x y\n  bivector "w" y z\n'
            "section analyses\n  jacobi\n  modular\n"
        )
        proc = run_cli("check", str(path), timeout=60)
        assert proc.returncode == 1, proc.stderr
        analyses = json.loads(proc.stdout)["analyses"]
        assert analyses["jacobi"]["verdict"] == "false"
        assert analyses["modular"] == {
            "status": "skipped", "verdict": "skipped", "detail": "Jacobi identity fails",
        }

    def test_pair_on_a_domain_whose_samples_overflow(self, tmp_path):
        # on x in (0, 1e308) every sample of the Pfaffian x^2 overflows, so
        # no sample gives a witness; a nonzero polynomial is nonzero anyway
        path = tmp_path / "wide.prob"
        path.write_text(
            "schema 1\nsection chart\n  coords x y z\n  domain x 0 1e308\nsection structure\n"
            '  bivector "x^2" x y\n  bivector "1" y z\n  transversal "1" z\n'
            "section analyses\n  jacobi\n  adapted\n  beta\n  modular\n  b_extension\n"
        )
        proc = run_cli("check", str(path), timeout=60)
        assert proc.returncode == 0, proc.stderr
        analyses = json.loads(proc.stdout)["analyses"]
        assert {name: e["verdict"] for name, e in analyses.items()} == dict.fromkeys(analyses, "true")
        assert analyses["adapted"]["artifacts"] == {"alpha": "1/x^2 dx + dz", "omega": "1/x^2 dx^dy"}

    def test_needs_table_has_one_entry_per_analysis(self):
        assert tuple(pipeline.NEEDS) == ANALYSES

    @pytest.mark.parametrize("column", range(len(SKIP_COLUMNS)), ids=SKIP_COLUMNS)
    def test_skip_matrix(self, column):
        dim, kind, transversal = SKIP_COLUMNS[column].split("-")
        coords, bivector = SKIP_CHARTS[dim, kind]
        lines = ["schema 1", "section chart", f"  coords {coords}", "section structure"]
        lines += [f"  bivector {term}" for term in bivector]
        if transversal == "v":
            lines.append(f'  transversal "1" {coords[-1]}')
        lines += ["section analyses", *(f"  {name}" for name in ANALYSES)]
        analyses = analyze(loads_problem("\n".join(lines) + "\n"))["analyses"]
        got = {n: e["detail"] if e["status"] == "skipped" else e["status"] for n, e in analyses.items()}
        assert got == {name: row[column] for name, row in SKIP_MATRIX.items()}

    def test_missing_transversal_skips_adapted(self):
        text = MINIMAL.replace('transversal "1" z', "").replace(
            "  jacobi", "  jacobi\n  adapted"
        )
        report = analyze(loads_problem(text))
        assert report["analyses"]["adapted"]["status"] == "skipped"
        assert "transversal" in report["analyses"]["adapted"]["detail"]

    def test_declared_pair_without_transversal_skips_adapted(self):
        # a file never compares the Pi block alone: without a transversal,
        # adapted and everything downstream are skipped, pair or no pair
        text = MINIMAL.replace('transversal "1" z', 'alpha "1" z\n  omega "1" x y')
        text = text.replace("  jacobi", "  jacobi\n  adapted\n  beta\n  modular")
        report = analyze(loads_problem(text))
        assert report["analyses"]["jacobi"]["verdict"] == "true"
        for name in ("adapted", "beta", "modular"):
            assert report["analyses"][name]["status"] == "skipped", name
            assert report["analyses"][name]["detail"] == "no transversal field declared", name

    def test_declared_pair_is_checked(self):
        # a declared (alpha, omega) must satisfy the defining identities too
        text = MINIMAL.replace("  jacobi", "  jacobi\n  adapted\n  beta\n  modular")
        bogus = text.replace('transversal "1" z', 'transversal "1" z\n  alpha "5" z\n  omega "7" x z')
        report = analyze(loads_problem(bogus))
        for name in ("adapted", "beta", "modular"):
            assert report["analyses"][name]["status"] == "skipped", name
            assert "fails its defining identities" in report["analyses"][name]["detail"]
        good = text.replace('transversal "1" z', 'transversal "1" z\n  alpha "1" z\n  omega "1" x y')
        declared = analyze(loads_problem(good))["analyses"]
        computed = analyze(loads_problem(text))["analyses"]
        assert declared["adapted"]["verdict"] == "true"
        assert declared["adapted"]["artifacts"] == {"alpha": "dz", "omega": "dx^dy"}
        assert declared == computed

    def test_declared_zero_omega_is_refused(self):
        # omega = 0 makes both sides of the wedge identity vanish; the
        # bordered two-form omega + alpha ^ ds is singular
        text = """
schema 1
section chart
  coords a b c d e
section structure
  corank 2
  bivector "1" a b
  bivector "1" c d
  transversal "1" e
  alpha "1" e
  omega "0" a b
section analyses
  jacobi
  adapted
  beta
  modular
  weinstein
"""
        report = analyze(loads_problem(text))
        for name in ("adapted", "beta", "modular", "weinstein"):
            assert report["analyses"][name]["status"] == "skipped", name
            assert "fails its defining identities" in report["analyses"][name]["detail"]
        assert exit_code(report) == 0

    def test_sampled_pair_check_is_labelled(self):
        # alpha(v) - 1 = 1 - sin(x)^2 - cos(x)^2 is zero only by sampling
        text = MINIMAL.replace('bivector "1" x y', 'bivector "1" y z').replace(
            'transversal "1" z',
            'transversal "sin(x)^2 + cos(x)^2" x\n  alpha "1" x\n  omega "1" y z',
        )
        report = analyze(loads_problem(text.replace("  jacobi", "  jacobi\n  adapted")))
        assert report["analyses"]["adapted"]["verdict"] == "probably-true"

    def test_artifacts_of_a_sampled_pair_are_labelled(self):
        # every artifact rests on the pair, and the division checks alpha(v) = 1
        # again: none of them may claim more than the pair's probably-true
        text = MINIMAL.replace('bivector "1" x y', 'bivector "1" y z').replace(
            'transversal "1" z',
            'transversal "sin(x)^2 + cos(x)^2" x\n  alpha "1" x\n  omega "1" y z',
        )
        analyses = "  jacobi\n  adapted\n  beta\n  mu\n  modular\n  b_extension"
        report = analyze(loads_problem(text.replace("  jacobi", analyses)))
        for name in ("adapted", "beta", "mu", "modular", "b_extension"):
            assert report["analyses"][name]["verdict"] == "probably-true", name
        # d(beta) ^ alpha is zero symbolically, and is reported as decided
        assert report["analyses"]["beta"]["dbeta_in_ideal"] == "true"

    def test_declared_pair_without_corank_is_skipped(self):
        text = MINIMAL.replace("x y z", "x y z w").replace("  corank 1\n", "")
        text = text.replace('transversal "1" z', 'transversal "1" z\n  alpha "1" z\n  omega "1" x y')
        report = analyze(loads_problem(text.replace("  jacobi", "  jacobi\n  adapted")))
        assert report["analyses"]["adapted"]["status"] == "skipped"
        # n = dim // 2 = 2: omega + alpha ^ ds would be a singular 5 x 5 skew
        # matrix, so the pair is not tried on an even chart
        assert report["analyses"]["adapted"]["detail"] == "chart dimension is even"

    def test_empty_analysis_list_gives_metadata_only(self):
        text = MINIMAL.replace("  jacobi", "")
        report = analyze(loads_problem(text))
        assert report["analyses"] == {}
        assert report["summary"]["requested"] == 0
        assert exit_code(report) == 0

    def test_seed_override(self):
        p = loads_problem(MINIMAL)
        p.seed = 99
        report = analyze(p)
        assert report["meta"]["seed"] == 99

    def test_timing_gated(self, tmp_path):
        p = loads_problem(MINIMAL.replace("  jacobi", "  jacobi\n  adapted"))
        timed = ("timing_ms", "analysis_ms", "load_ms")
        assert not set(timed) & set(analyze(p)["meta"])
        meta = analyze(p, timing=True)["meta"]
        assert "timing_ms" in meta
        assert list(meta["analysis_ms"]) == ["jacobi", "adapted"]
        assert all(ms >= 0 for ms in meta["analysis_ms"].values())
        # the CLI adds the time of reading the file, and only with --timing
        path = tmp_path / "minimal.prob"
        path.write_text(MINIMAL)
        plain, timed_out = tmp_path / "plain.json", tmp_path / "timed.json"
        assert main(["check", str(path), "--output", str(plain)]) == 0
        assert main(["check", str(path), "--output", str(timed_out), "--timing"]) == 0
        plain_meta = json.loads(plain.read_text())["meta"]
        timed_meta = json.loads(timed_out.read_text())["meta"]
        assert not set(timed) & set(plain_meta)
        assert set(timed) <= set(timed_meta)
        assert {k: v for k, v in timed_meta.items() if k not in timed} == plain_meta

    def test_shared_artifacts_built_once(self, monkeypatch):
        # beta, mu, the adapted volume and its modular field serve several
        # analyses each; within a problem every request must get one object
        built = {}

        def spy(name, fn, counted=None):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if counted is None or counted(*args, **kwargs):
                    built.setdefault(name, []).append(result)
                return result

            return wrapper

        def default_volume(P, volume=None, checks=None):
            return volume is None

        for name, counted in (
            ("compute_beta", None),
            ("compute_mu", None),
            ("modular_field", default_volume),
        ):
            wrapped = spy(name, getattr(invariants, name), counted)
            for module in (invariants, pipeline):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        monkeypatch.setattr(PoissonStructure, "volume", spy("volume", PoissonStructure.volume))
        seen = set()
        for fname, text in bundled_corpus():
            built.clear()
            analyze(loads_problem(text, path=fname))
            for name, results in built.items():
                assert all(r is results[0] for r in results), (fname, name, len(results))
            seen.update(built)
        assert seen == {"compute_beta", "compute_mu", "modular_field", "volume"}


# sha256 of the rendered report of each bundled file at its own seed; a
# change of any verdict or artifact text shows here
REPORT_SHA256 = {
    "affine.prob": "af4f4f653265006dda7b950342837920653464522b052fca21c0b446f1777d0c",
    "exp_wall.prob": "df0d87211b05b35d20b5784cadffcfe04d269d3a14d08f072f07f06ecc6f41fc",
    "flat.prob": "5fcf7855f0b262109f6401e91f6a6046d727b15b83f9e8f02c21408f82bd9677",
    "product_const.prob": "a0c2e87025c953cf26159d5e720279cd99f97be258ad4bee1cd97ebff03713a1",
    "product_sin.prob": "1159f84b5c1fa1ac148f76d3f8addca8e24ef0ce43a3eab46b43eaa72f44df3a",
    "sheared.prob": "b908235223dda9cfc9fe0b473f3d1c4d60d1ce8bfa1e9b3682ebc3037c3f6761",
    "suspension.prob": "5999702640cc40e77765190af401070358566cc3bd94356f33085a401ac074b6",
    "t3_example.prob": "c17a4aa20287e756328b29780486361dcd46d68c6cd06ebc833202cf91d6dfdc",
    "twisted_omega.prob": "67d964fcb5a5d19e6566614a8049011cefdd685264460fa02afd33f0a9284abc",
}

# the same for the fixtures under tests/problems, as `corankone check FILE`
# prints them; suspension_double.prob decides its period by a supplied witness
FIXTURE_SHA256 = {
    "poly_wall.prob": "44e0aeea669e82b9c3a5db8f874fb77c6b84ac4ceb6fe7e0cb7e9d266249032e",
    "suspension_double.prob": "1379bf41d9a178297701db2b7bce716ebd52d9c15b7f4787ac4a928f17bcbff2",
}


class TestDeterminism:
    @pytest.mark.parametrize(
        "name", [n for n, _ in bundled_corpus()]
    )
    def test_reports_byte_identical(self, name):
        text = corpus_text(name)
        r1 = render_report(analyze(loads_problem(text, path=name)))
        r2 = render_report(analyze(loads_problem(text, path=name)))
        assert r1.encode() == r2.encode()
        assert hashlib.sha256(r1.encode()).hexdigest() == REPORT_SHA256[name]

    @pytest.mark.parametrize("path", bundled.FIXTURES, ids=lambda p: p.name)
    def test_fixture_reports_pinned(self, path):
        report = render_report(analyze(load_problem(str(path))))
        assert hashlib.sha256(report.encode()).hexdigest() == FIXTURE_SHA256[path.name]

    @pytest.mark.parametrize("name", ["affine.prob", "product_sin.prob"])
    def test_transversality_decided_without_scan(self, name, monkeypatch):
        from corankone import bgeom

        def no_scan(*args):
            raise AssertionError("the grid scan ran")

        monkeypatch.setattr(bgeom, "_scan_roots", no_scan)
        report = render_report(analyze(loads_problem(corpus_text(name), path=name)))
        assert hashlib.sha256(report.encode()).hexdigest() == REPORT_SHA256[name]

    def test_double_root_report_pinned(self, monkeypatch):
        # the only report that takes Sturm remainders and the square-free
        # part: x^2 (x - 1/2) has a double root at x = 0, the witness
        from corankone import expr

        text = (
            "section chart\n  coords x y\n"
            'section structure\n  bivector "x^2*(x-1/2)" x y\n'
            "section analyses\n  b_transversality\n"
        )
        calls = []
        for name in ("_p_pseudo_rem", "_p_divexact"):
            kernel = getattr(expr, name)
            monkeypatch.setattr(
                expr, name, lambda *a, name=name, kernel=kernel: calls.append(name) or kernel(*a)
            )
        report = analyze(loads_problem(text, path="double_root.prob"))
        entry = report["analyses"]["b_transversality"]
        assert (entry["verdict"], entry["witness"]) == ("false", {"x": 0.0})
        assert (calls.count("_p_pseudo_rem"), calls.count("_p_divexact")) == (4, 1)
        digest = hashlib.sha256(render_report(report).encode()).hexdigest()
        assert digest == "35b0fee1e5cfe82cecf2af938faecbac832cf5961424262c287b385fe2e0054d"

    def test_different_seed_allowed_to_differ(self):
        text = corpus_text("t3_example.prob")
        p1, p2 = loads_problem(text), loads_problem(text)
        p1.seed, p2.seed = 1, 2
        r1, r2 = analyze(p1), analyze(p2)
        assert r1["meta"]["seed"] != r2["meta"]["seed"]


class TestExitCodes:
    def test_expected_exit_codes(self, tmp_path):
        expected = {
            "flat.prob": 0,
            "t3_example.prob": 0,
            "affine.prob": 0,
            "exp_wall.prob": 0,
            "suspension.prob": 1,  # unimodularity legitimately false
        }
        for name, want in expected.items():
            path = tmp_path / name
            path.write_text(corpus_text(name))
            code = main(["check", str(path), "--output", str(tmp_path / "out.json")])
            assert code == want, name

    def test_validation_error_is_exit_2(self, tmp_path):
        path = tmp_path / "broken.prob"
        path.write_text("section chart\n  coords x x\n")
        assert main(["check", str(path)]) == 2

    def test_missing_file_is_exit_2(self, capsys):
        assert main(["check", "/nonexistent/file.prob"]) == 2
        # a file-level error names the file, with no line number
        err = capsys.readouterr().err
        assert err.startswith("validation error: /nonexistent/file.prob: cannot read file: ")

    def test_file_that_is_not_utf8_is_exit_2(self, tmp_path):
        path = tmp_path / "latin1.prob"
        path.write_bytes(MINIMAL.replace("section chart", "# caf\xe9\nsection chart").encode("latin-1"))
        proc = run_cli("check", str(path), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"validation error: {path}: cannot read file: ")
        assert "can't decode byte 0xe9" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_file_with_a_byte_order_mark_reads_as_without(self, tmp_path):
        plain, marked = tmp_path / "flat.prob", tmp_path / "marked.prob"
        plain.write_text(corpus_text("flat.prob"), encoding="utf-8")
        marked.write_text(corpus_text("flat.prob"), encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        reports = []
        for path in (plain, marked):
            out = tmp_path / f"{path.stem}.json"
            assert main(["check", str(path), "--output", str(out)]) == 0
            reports.append(json.loads(out.read_text())["analyses"])
        assert reports[0] == reports[1]

    def test_unwritable_check_output_is_exit_2(self, tmp_path, capsys):
        path, out = tmp_path / "m.prob", tmp_path / "missing" / "m.json"
        path.write_text(MINIMAL)
        assert main(["check", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write report {out}: " in err
        assert "Traceback" not in err

    def test_unwritable_corpus_output_is_exit_2(self, tmp_path, capsys):
        blocker = tmp_path / "reports"
        blocker.write_text("a file, not a directory")
        assert main(["corpus", "--output", str(blocker)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write report {blocker}" in err
        assert blocker.read_text() == "a file, not a directory"

    @pytest.mark.parametrize(
        "expression, message",
        [
            # x^n multiplies n - 1 times: without a bound this never ends
            ("x^(9999999999)", "exponent 9999999999 is outside"),
            # beyond Python's limit for converting a digit string to an int
            ("7" * 5000, "number literal of 5000 characters is too long"),
            # five parser calls per level: past Python's recursion limit
            ("(" * 300 + "x" + ")" * 300, "parentheses nest more than 150 deep"),
            # a 4,800-digit integer, past float range and the printable digits
            ("9" * 150 + "^32", "a coefficient has 15946 bits, more than 1000"),
        ],
        ids=["huge-exponent", "overlong-literal", "deep-nesting", "huge-coefficient"],
    )
    def test_hostile_expression_is_exit_2(self, tmp_path, expression, message):
        text = MINIMAL.replace('bivector "1" x y', f'bivector "{expression}" x y')
        path = tmp_path / "hostile.prob"
        path.write_text(text)
        # out of process first, so that a hang fails at the timeout
        proc = run_cli("check", str(path), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"validation error: {path}:7: bad expression")
        assert message in proc.stderr
        # the offending text is quoted only in part
        assert len(proc.stderr.encode()) < 300
        with pytest.raises(ProblemFileError, match=message):
            loads_problem(text)

    @pytest.mark.parametrize(
        "expression, plain",
        [("x + 1 ", "x + 1"), ("(" * 150 + "x" + ")" * 150, "x")],
        ids=["trailing-space", "nested-150"],
    )
    def test_equivalent_spelling_gives_the_same_report(self, tmp_path, capsys, expression, plain):
        reports = []
        for text in (expression, plain):
            path = tmp_path / "spelling.prob"
            path.write_text(MINIMAL.replace('bivector "1" x y', f'bivector "{text}" x y'))
            assert main(["check", str(path)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("seed 3", "seed abc", "option seed needs an integer, got 'abc'"),
            ("seed 3", "tolerance 1e999x", "option tolerance needs a number, got '1e999x'"),
            # isdigit admits it, int refuses more than 4300 digits
            ("corank 1", "corank " + "1" * 5000, r"corank N, got '1{80}'\.\.\.$"),
            # n with dim = 2n + 1: past it every wedge power vanishes, below
            # it the wedge powers are undefined
            ("corank 1", "corank 3", r"corank of a 3-coordinate chart is 1, got '3'$"),
            ("corank 1", "corank 0", r"corank of a 3-coordinate chart is 1, got '0'$"),
            # float() reads these, but each makes the zero test meaningless
            ("seed 3", "tolerance 1e999", r"option tolerance must satisfy 0 < tolerance < 1, got '1e999'$"),
            ("seed 3", "tolerance -1", r"option tolerance must satisfy 0 < tolerance < 1, got '-1'$"),
            ("seed 3", "tolerance nan", r"option tolerance must satisfy 0 < tolerance < 1, got 'nan'$"),
            ("seed 3", "tolerance 1", r"option tolerance must satisfy 0 < tolerance < 1, got '1'$"),
            ("seed 3", "trials 0", r"option trials must lie in 1\.\.4096, got '0'$"),
            ("seed 3", "trials 1000000000", r"option trials must lie in 1\.\.4096, got '1000000000'$"),
            # a known option with the wrong number of values is not unknown
            ("seed 3", "seed 1 2", r"option seed takes one value, got 2$"),
            # every sample from an infinite end is inf or nan, and decides no
            # zero test; the error names the line of the interval
            ("coords x y z", "coords x y z\n  domain x 0 inf", r":5: sampling interval for 'x' is not finite$"),
            ("coords x y z", "coords x y z\n  domain y -inf 0", r":5: sampling interval for 'y' is not finite$"),
            ("coords x y z", "coords x y z\n  domain x nan 1", r":5: sampling interval for 'x' is not finite$"),
            ("coords x y z", "coords x y z\n  param a 0 inf", r":5: sampling interval for 'a' is not finite$"),
            ("coords x y z", "coords x y z\n  domain x 1 0", r":5: empty sampling interval for 'x'$"),
            ("coords x y z", "coords x y z\n  param a 1 1", r":5: empty sampling interval for 'a'$"),
        ],
        ids=[
            "seed",
            "tolerance",
            "corank",
            "corank-too-large",
            "corank-zero",
            "tolerance-inf",
            "tolerance-negative",
            "tolerance-nan",
            "tolerance-one",
            "trials-zero",
            "trials-huge",
            "seed-two-values",
            "domain-inf",
            "domain-minus-inf",
            "domain-nan",
            "param-inf",
            "domain-empty",
            "param-empty",
        ],
    )
    def test_bad_value_is_exit_2(self, tmp_path, capsys, old, new, message):
        text = MINIMAL.replace(old, new)
        path = tmp_path / "bad.prob"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("validation error:")
        with pytest.raises(ProblemFileError, match=message):
            loads_problem(text)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('bivector "x y', "No closing quotation"),
            ("bivector 'x y", "No closing quotation"),
            ('bivector "x\\', "No escaped character"),
            ("bivector x\\", "No escaped character"),
        ],
        ids=["double", "single", "escape-in-quotes", "escape"],
    )
    def test_unterminated_quote_is_exit_2(self, tmp_path, capsys, line, message):
        text = MINIMAL.replace('bivector "1" x y', line)
        lineno = text.splitlines().index(f"  {line}") + 1
        path = tmp_path / "quote.prob"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:{lineno}: bad quoting: {message}" in err

    def test_term_blowup_is_exit_2(self, tmp_path):
        # C(39, 32) = 15,380,937 terms: the expansion would run for minutes
        text = (
            MINIMAL.replace("coords x y z", "coords a b c d e f g")
            .replace('bivector "1" x y', 'bivector "(a+b+c+d+e+f+g+1)^32" a b')
            .replace('transversal "1" z', 'transversal "1" c')
        )
        path = tmp_path / "blowup.prob"
        path.write_text(text)
        proc = run_cli("check", str(path), timeout=20)
        assert proc.returncode == 2
        assert "a power may expand to 15380937 terms, more than 10000" in proc.stderr
        assert len(proc.stderr.encode()) < 300

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("periodic w", "periodic flag on unknown coordinate 'w'"),
            ("domain w 0 1", "domain for unknown name 'w'"),
            ("param a\n  periodic y a", "periodic flag on unknown coordinate 'a'"),
            # of two unknown names the first in order, whatever the hash seed
            ("periodic w\n  periodic v", "periodic flag on unknown coordinate 'v'"),
            ("domain x -2 2\n  param dx", "name 'dx' collides with the basis covector of 'x'"),
            ("param exp 0 1", "invalid name 'exp'"),
            ("param y", "coordinate/parameter names must be distinct"),
        ],
        ids=["periodic", "domain", "periodic-param", "two-periodic", "collision", "invalid", "repeated"],
    )
    def test_chart_error_names_its_line(self, tmp_path, capsys, lines, message):
        # the chart is built after the whole file is read; its error is
        # reported at the directive that caused it, the last line inserted
        text = MINIMAL.replace("coords x y z", f"coords x y z\n  {lines}")
        path = tmp_path / "chart.prob"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        line = 4 + lines.count("\n") + 1
        assert capsys.readouterr().err == f"validation error: {path}:{line}: {message}\n"

    def test_torus_strict_violation_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "ts.prob"
        path.write_text(
            "section chart\n  coords th x y\n  periodic th\n  torus_strict\n"
            'section structure\n  bivector "th" x y\n'
        )
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"validation error: {path}:6: bad expression 'th': torus-strict chart: "
            "angle coordinate 'th' may only appear inside sin/cos\n"
        )

    def test_second_coords_line_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "coords.prob"
        path.write_text(MINIMAL.replace("coords x y z", "coords x y z\n  coords u v w"))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"validation error: {path}:5: coords may appear only once\n"
        )

    def test_degree_past_the_bound_is_exit_2(self, tmp_path, capsys):
        text = MINIMAL.replace('bivector "1" x y', 'bivector "((x^32)^32)^31" x y')
        path = tmp_path / "degree.prob"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error:")
        assert "a power has total degree 31744, more than 16383" in err

    def test_degree_overflow_in_an_analysis_is_its_error(self, tmp_path, capsys):
        # each coefficient is within the parser's bound; the top power
        # multiplies three of them, past the kernel's limit of 32767
        big = "((a^32)^32)^15"
        text = (
            MINIMAL.replace("coords x y z", "coords a b c d e f g")
            .replace(
                'bivector "1" x y',
                f'bivector "{big}" a b\n  bivector "{big}" c d\n  bivector "{big}" e f',
            )
            .replace("corank 1", "corank 3")
            .replace('transversal "1" z', 'transversal "1" g')
            .replace("  jacobi", "  corank")
        )
        path = tmp_path / "overflow.prob"
        path.write_text(text)
        assert main(["check", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["analyses"]["corank"] == {
            "error": "ExprError: a total degree exceeds 32767",
            "status": "error",
        }

    @pytest.mark.parametrize(
        "flag, value",
        [("--tolerance", "inf"), ("--tolerance", "1.5"), ("--trials", "0"), ("--trials", "4097")],
    )
    def test_sampling_flag_out_of_range_is_exit_2(self, tmp_path, capsys, flag, value):
        path = tmp_path / "m.prob"
        path.write_text(MINIMAL)
        assert main(["check", str(path), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {flag} must ")
        assert err.rstrip().endswith(f"got '{value}'")

    LONG = "q" * 5000
    DIGITS = "9" * 4000  # within Python's int conversion limit

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("  jacobi\n", f"  {LONG}\n", "unknown analysis"),
            ("seed 3", f"{LONG} 3", "unknown option"),
            ('bivector "1" x y', f'bivector "1" x {LONG}', "unknown coordinate"),
            ('bivector "1" x y', f'bivector "{LONG}" x y', "unknown identifier"),
            ('bivector "1" x y', f'bivector "x {LONG}" x y', "unexpected trailing input"),
            ("  corank 1", f"  {LONG}", "unknown structure directive"),
            ("section analyses", f"section certificates\n  {LONG}\nsection analyses", "unknown certificate directive"),
            ("  coords x y z", f"  coords x y z\n  {LONG}", "unknown chart directive"),
            ("section analyses", f"section {LONG}", "unknown section"),
            ("  coords x y z", f"  coords x y z 9{LONG}", "invalid name"),
            ('bivector "1" x y', f'bivector "x^{DIGITS}" x y', "is outside"),
        ],
        ids=[
            "analysis",
            "option",
            "coordinate",
            "identifier",
            "trailing",
            "structure",
            "certificate",
            "chart",
            "section",
            "coordinate-name",
            "exponent",
        ],
    )
    def test_echoed_token_is_bounded(self, old, new, message):
        text = MINIMAL.replace(old, new)
        assert text != MINIMAL
        with pytest.raises(ProblemFileError, match=message) as ei:
            loads_problem(text)
        assert len(str(ei.value)) < 300


class TestVerbs:
    def test_render(self, tmp_path, capsys):
        path = tmp_path / "m.prob"
        path.write_text(MINIMAL)
        assert main(["render", str(path)]) == 0
        out = capsys.readouterr().out
        assert "chart: (x, y, z)" in out
        assert "bivector: @x^@y" in out

    def test_render_shows_every_graded_field(self, tmp_path, capsys):
        path = tmp_path / "twisted_omega.prob"
        path.write_text(dict(bundled_corpus())["twisted_omega.prob"])
        assert main(["render", str(path)]) == 0
        out = capsys.readouterr().out
        assert "omega_alt: dx^dy - x dy^dz" in out

    def test_corpus_verb_matches_expectations(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "t3_example.prob" in out
        assert "MISMATCH" not in out

    @pytest.mark.parametrize("path", bundled.FIXTURES, ids=lambda p: p.name)
    def test_fixture_file_matches_expectations(self, path):
        # the test-only structures are held to their files as the corpus is
        problem = load_problem(str(path))
        assert problem.expects
        assert expect_mismatches(problem, analyze(problem)) == []

    def test_corpus_verb_writes_reports(self, tmp_path, capsys):
        assert main(["corpus", "--output", str(tmp_path)]) == 0
        reports = sorted(p.name for p in tmp_path.glob("*.json"))
        assert "t3_example.json" in reports
        data = json.loads((tmp_path / "t3_example.json").read_text())
        assert data["analyses"]["unimodularity"]["verdict"] == "true"
        assert data["analyses"]["b_extension"]["verdict"] == "true"

    def test_console_entry_point(self, tmp_path):
        path = tmp_path / "m.prob"
        path.write_text(MINIMAL)
        proc = run_cli("check", str(path))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["analyses"]["jacobi"]["verdict"] == "true"


FIXTURE = str(bundled.FIXTURES[0])


class TestUsage:
    """The command-line contract: usage errors exit 2 and name the bad token."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            ((), "command"),
            (("frob",), "frob"),
            (("check",), "file"),
            (("check", FIXTURE, "extra.prob"), "extra.prob"),
            (("check", FIXTURE, "--seed", "x"), "'x'"),
            (("check", FIXTURE, "--bogus"), "--bogus"),
            (("corpus", "--timing"), "--timing"),
            (("check", FIXTURE, "--output"), "--output"),
        ],
        ids=["no-verb", "unknown-verb", "no-file", "extra-file", "bad-int", "unknown-option",
             "option-of-another-verb", "missing-value"],
    )
    def test_usage_error_is_exit_2(self, argv, named):
        proc = run_cli(*argv, timeout=60)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert lines[0].startswith("usage: corankone")
        error = next(line for line in lines if ": error: " in line)
        assert error.startswith("corankone")
        assert named in error.lower()
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (("-h",), ("check", "render", "corpus")),
            (("check", "--help"), ("--seed", "--trials", "--tolerance", "--output", "--timing")),
        ],
        ids=["top", "check"],
    )
    def test_help_is_exit_0(self, argv, shown):
        proc = run_cli(*argv, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: corankone")
        for word in shown:
            assert word in proc.stdout

    @pytest.mark.parametrize(
        "spelled, short",
        [(("--seed", "3"), ("--seed=3",)), (("--tolerance", "1e-6"), ("--tol", "1e-6"))],
        ids=["equals", "prefix"],
    )
    def test_equivalent_option_spellings(self, spelled, short):
        reports = [run_cli("check", FIXTURE, *argv, timeout=60) for argv in (spelled, short)]
        assert [proc.returncode for proc in reports] == [0, 0]
        assert reports[0].stdout == reports[1].stdout
        # the option reached the report: poly_wall.prob samples at seed 0, tolerance 1e-9
        meta = json.loads(reports[0].stdout)["meta"]
        assert (meta["seed"], meta["tolerance"]) != (0, 1e-9)


class TestSamplingOverrides:
    """--seed, --trials and --tolerance replace the file's options, and the
    CLI is the only place that applies them."""

    def test_check_flags_reach_the_tester_and_the_report(self, tmp_path, monkeypatch):
        from corankone import problemfile

        testers = []
        real = problemfile.ZeroTester

        def spy(*args, **kwargs):
            testers.append(real(*args, **kwargs))
            return testers[-1]

        monkeypatch.setattr(problemfile, "ZeroTester", spy)
        path, out = tmp_path / "m.prob", tmp_path / "m.json"
        path.write_text(MINIMAL)  # seed 3, and the default trials and tolerance
        flags = ["--seed", "5", "--trials", "8", "--tolerance", "1e-6"]
        assert main(["check", str(path), *flags, "--output", str(out)]) == 0
        meta = json.loads(out.read_text())["meta"]
        assert (meta["seed"], meta["trials"], meta["tolerance"]) == (5, 8, 1e-6)
        assert [(t.seed, t.trials, t.tol) for t in testers] == [(5, 8, 1e-6)]

    def test_corpus_seed_reaches_every_report(self, tmp_path, capsys):
        assert main(["corpus", "--seed", "5", "--output", str(tmp_path)]) == 0
        reports = sorted(tmp_path.glob("*.json"))
        assert len(reports) == len(bundled_corpus())
        for report in reports:
            assert json.loads(report.read_text())["meta"]["seed"] == 5, report.name

    def test_file_without_options_samples_as_the_default_tester(self):
        problem = loads_problem(MINIMAL.replace("section options\n  seed 3\n", ""))
        default = ZeroTester(problem.chart)
        assert (problem.seed, problem.trials, problem.tolerance) == (
            default.seed, default.trials, default.tol,
        )
        tester = problem.structure().tester
        assert (tester.seed, tester.trials, tester.tol) == (default.seed, default.trials, default.tol)


class TestStartup:
    def test_cli_import_loads_only_what_check_needs(self):
        # every `corankone check` pays this import; -S keeps site's own
        # imports (a .pth file may load importlib.resources) out of the count
        code = (
            "import sys, corankone.cli\n"
            "print(sorted(m for m in ('dataclasses', 'inspect', 'importlib.resources')"
            " if m in sys.modules))\n"
        )
        proc = run_python("-S", "-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_check_loads_no_argparse_and_compiles_no_regex(self):
        # argparse loads gettext; the CLI reads its command line by hand, and
        # the tokenizer and the line splitter scan with str methods
        code = (
            "import os, sys, corankone.cli\n"
            f"code = corankone.cli.main(['check', {FIXTURE!r}, '--output', os.devnull])\n"
            "from corankone import expr, problemfile\n"
            "print(code, sorted(m for m in ('argparse', 'gettext') if m in sys.modules),\n"
            "      [m.__name__ for m in (expr, problemfile) if 're' in vars(m)])\n"
        )
        proc = run_python("-S", "-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 [] []"

    def test_check_loads_no_typing(self):
        # annotations are strings under `from __future__ import annotations`,
        # so `X | None` and builtin generics need no import; `re` and `enum`
        # stay loaded through json
        code = (
            "import os, sys, corankone.cli\n"
            f"code = corankone.cli.main(['check', {FIXTURE!r}, '--output', os.devnull])\n"
            "print(code, 'typing' in sys.modules)\n"
        )
        proc = run_python("-S", "-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 False"

    def test_no_check_loads_fractions(self):
        # exact rationals are integer pairs: neither the import nor any
        # check of the bundled and fixture files loads fractions, or the
        # decimal and numbers it imports
        problems = os.path.join(os.path.dirname(os.path.abspath(__file__)), "problems")
        fixtures = sorted(os.path.join(problems, n) for n in os.listdir(problems) if n.endswith(".prob"))
        assert len(fixtures) == 2
        code = (
            "import sys, corankone.cli\n"
            "def loaded():\n"
            "    print(sorted(m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules))\n"
            "loaded()\n"
            "from corankone.pipeline import analyze, render_report\n"
            "from corankone.problemfile import load_problem, loads_problem\n"
            "problems = [loads_problem(text, path=name) for name, text in corankone.cli.bundled_corpus()]\n"
            f"problems += [load_problem(path) for path in {fixtures!r}]\n"
            "for problem in problems:\n"
            "    render_report(analyze(problem))\n"
            "print(len(problems))\n"
            "loaded()\n"
        )
        proc = run_python("-S", "-c", code, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["[]", str(len(bundled_corpus()) + 2), "[]", ""]


class TestBenchmarkTracer:
    def test_tracer_installs_on_this_tree(self):
        # the benchmark's layer tracer wraps functions by name, so a rename
        # here would break its traced runs; install it as its driver does
        code = (
            f"import sys; sys.path.insert(0, {PERFBENCH!r})\n"
            "import corankone.cli, layertrace\n"
            "layertrace.install(layertrace.Tracer())\n"
            # it finds the invariants it counts by discovery, so a renamed
            # one would silently read 0 calls instead of failing
            "from corankone import invariants\n"
            "for name in layertrace.INVARIANTS_COUNTED:\n"
            "    assert hasattr(getattr(invariants, name), '__wrapped__'), name\n"
        )
        proc = run_python("-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestBenchmarkDigests:
    # dimension 5 with two parameters: the benchmark records no digest for them
    UNDIGESTED = {"multi-d5-p2-full-const", "multi-d5-p2-full-exp"}

    def test_generated_reports_match_recorded_digests(self, monkeypatch):
        # the benchmark's generator, read without writing byte code beside it
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("bench_gen", os.path.join(PERFBENCH, "gen.py"))
        gen = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclass looks itself up
        spec.loader.exec_module(gen)
        with open(os.path.join(PERFBENCH, "digests.json"), encoding="utf-8") as fh:
            digests = json.load(fh)
        checked = 0
        for member in gen.dense(3) + gen.multiparam(3):
            # the key of perfbench/run.py's digest_key
            key = f"{member.name}:{hashlib.sha256(member.text.encode()).hexdigest()[:16]}"
            if key not in digests:
                assert member.name in self.UNDIGESTED
                continue
            # what perfbench/driver.py does in its own process
            report = render_report(analyze(loads_problem(member.text, path=member.name)))
            assert hashlib.sha256(report.encode()).hexdigest() == digests[key], member.name
            checked += 1
        assert checked == 44


class TestRenderReport:
    """render_report writes what json.dumps writes, byte for byte."""

    @pytest.mark.parametrize("name", [n for n, _ in bundled.problem_texts()])
    def test_bundled_and_fixture_reports(self, name):
        report = analyze(loads_problem(dict(bundled.problem_texts())[name], path=name))
        want = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
        assert render_report(report) == want

    def test_timing_report(self, tmp_path):
        path, out = tmp_path / "flat.prob", tmp_path / "flat.json"
        path.write_text(corpus_text("flat.prob"))
        assert main(["check", str(path), "--timing", "--output", str(out)]) == 0
        text = out.read_text()
        report = json.loads(text)
        assert isinstance(report["meta"]["timing_ms"], float)
        assert text == json.dumps(report, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


class TestReportShape:
    def test_schema_keys(self):
        report = analyze(loads_problem(corpus_text("t3_example.prob")))
        assert set(report) == {"meta", "chart", "analyses", "summary"}
        meta = report["meta"]
        assert meta["schema"] == 1
        assert meta["tool"].startswith("corankone ")
        for entry in report["analyses"].values():
            assert entry["status"] in ("ok", "error", "skipped")
            if entry["status"] == "ok":
                assert entry["verdict"] in (
                    "true",
                    "probably-true",
                    "false",
                    "unknown",
                )
