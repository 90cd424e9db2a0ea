"""Line-oriented problem files: chart, structure, certificates, analyses.

The format is plain text with shell-style quoting (see README for the
full grammar), split into words by `split_line`.  Lines are directives
inside `section` blocks; expression arguments are quoted strings in the
scalar grammar; forms and fields are accumulated term by term as
coefficient, then basis coordinate names.
"""

from __future__ import annotations

import re
from typing import Optional

from . import expr as ex
from .calculus import DiffForm, MultiVector
from .errors import ChartError, ExprError, ProblemFileError, quote
from .expr import Chart, ZeroTester
from .invariants import ObstructionCertificate, PeriodWitness
from .poisson import PoissonStructure

ANALYSES = (
    "jacobi",
    "corank",
    "adapted",
    "beta",
    "unimodularity",
    "godbillon_vey",
    "mu",
    "sigma",
    "modular",
    "weinstein",
    "transverse_poisson",
    "b_transversality",
    "b_extension",
)

VERDICT_WORDS = ("true", "probably-true", "false", "unknown", "skipped", "error")

OPTION_TYPES = {"seed": int, "trials": int, "tolerance": float}

# A zero test evaluates the expression at up to four points per trial, each
# costing tens of microseconds on a small expression, so this bound keeps one
# sampled test under about half a second; a billion trials would run for hours.
MAX_TRIALS = 4096


# The words of a line, split as a POSIX shell splits them (and as
# shlex.split(line, comments=True) does).  A word is a run of plain
# characters, backslash escapes, "double-quoted" strings, in which a
# backslash escapes only a backslash or a double quote, and 'single-quoted'
# strings, which escape nothing.  Whitespace (space, tab, CR, LF) ends a
# word, and so does a # outside quotes, which starts a comment.  A quote or
# backslash that starts no complete piece is unterminated.
_WORD_RE = re.compile(
    r"""[ \t\r\n]*(?:
        (?P<word>(?:[^ \t\r\n"'\\\#]+|\\.|"(?:[^"\\]|\\.)*"|'[^']*')+)
      | (?P<open>["'\\])
      | \#
    )""",
    re.VERBOSE | re.DOTALL,
)
_PIECE_RE = re.compile(r"""\\(.)|"((?:[^"\\]|\\.)*)"|'([^']*)'""", re.DOTALL)
_QUOTED_ESCAPE_RE = re.compile(r'\\([\\"])')


def _unquote(piece):
    escaped, double, single = piece.groups()
    if escaped is not None:
        return escaped
    if double is not None:
        return _QUOTED_ESCAPE_RE.sub(r"\1", double)
    return single


def split_line(line: str) -> list:
    """The words of one line, as ``shlex.split(line, comments=True)`` gives them.

    An unterminated quote or escape raises ValueError with shlex's message,
    "No closing quotation" or "No escaped character".
    """
    words = []
    for m in _WORD_RE.finditer(line):
        word, open_ = m.group("word", "open")
        if word is not None:
            if '"' in word or "'" in word or "\\" in word:
                word = _PIECE_RE.sub(_unquote, word)
            words.append(word)
        elif open_ is None:
            break  # a comment
        # an unclosed double quote that ends in a lone backslash, like a bare
        # trailing backslash, ends in an escape without its character
        elif open_ == "'" or not (len(line) - len(line.rstrip("\\"))) % 2:
            raise ValueError("No closing quotation")
        else:
            raise ValueError("No escaped character")
    return words


def sampling_range_error(name: str, value) -> Optional[str]:
    """The accepted range of `trials` or `tolerance` when value lies outside it.

    A tolerance of 1 or more (or inf) calls every sampled expression
    probably zero, and one of 0 or less (or nan) leaves every sample
    ambiguous; no trials give no verdict at all.
    """
    if name == "trials" and not 1 <= value <= MAX_TRIALS:
        return f"trials must lie in 1..{MAX_TRIALS}"
    if name == "tolerance" and not 0 < value < 1:
        return "tolerance must satisfy 0 < tolerance < 1"
    return None


class ProblemFile:
    __slots__ = (
        "path", "chart", "bivector", "corank", "transversal", "alpha", "omega", "omega_alt",
        "first_certificate", "second_certificate", "period_witness", "analyses", "seed",
        "trials", "tolerance", "expects",
    )

    def __init__(
        self,
        path: str,
        chart: Chart,
        bivector: MultiVector,
        corank: Optional[int] = None,
        transversal: Optional[MultiVector] = None,
        alpha: Optional[DiffForm] = None,
        omega: Optional[DiffForm] = None,
        omega_alt: Optional[DiffForm] = None,
        first_certificate: Optional[ObstructionCertificate] = None,
        second_certificate: Optional[ObstructionCertificate] = None,
        period_witness: Optional[PeriodWitness] = None,
        analyses: tuple = (),
        seed: int = 0,
        trials: int = 32,
        tolerance: float = 1e-9,
        expects: Optional[dict] = None,
    ):
        self.path, self.chart, self.bivector, self.corank = path, chart, bivector, corank
        self.transversal, self.alpha, self.omega = transversal, alpha, omega
        self.omega_alt, self.period_witness = omega_alt, period_witness
        self.first_certificate, self.second_certificate = first_certificate, second_certificate
        self.analyses, self.seed, self.trials, self.tolerance = analyses, seed, trials, tolerance
        self.expects = {} if expects is None else expects

    def structure(self, seed=None, trials=None, tolerance=None) -> PoissonStructure:
        tester = ZeroTester(
            self.chart,
            seed=self.seed if seed is None else seed,
            trials=self.trials if trials is None else trials,
            tol=self.tolerance if tolerance is None else tolerance,
        )
        return PoissonStructure(
            self.chart,
            self.bivector,
            corank_n=self.corank,
            transversal=self.transversal,
            alpha=self.alpha,
            omega=self.omega,
            tester=tester,
        )


class _Loader:
    def __init__(self, path: str, text: str):
        self.path = path
        self.lines = text.splitlines()
        self.section = None
        # chart pieces
        self.coords = None
        self.periodic = []
        self.params = []
        self.domains = {}
        self.torus_strict = False
        self.chart = None
        # structure pieces (term lists, resolved after the chart exists)
        self.terms = {
            "bivector": [],
            "transversal": [],
            "alpha": [],
            "omega": [],
            "omega_alt": [],
        }
        self.corank = None
        self.corank_line = 0
        # certificates
        self.first_f = None
        self.second_nu_terms = []
        self.period = None
        # analyses / options / expects
        self.analyses = []
        self.seed = 0
        self.trials = 32
        self.tolerance = 1e-9
        self.expects = {}

    def fail(self, message, lineno):
        raise ProblemFileError(message, path=self.path, line=lineno)

    def load(self) -> ProblemFile:
        for lineno, raw in enumerate(self.lines, start=1):
            try:
                tokens = split_line(raw)
            except ValueError as exc:
                self.fail(f"bad quoting: {exc}", lineno)
            if not tokens:
                continue
            self.dispatch(tokens, lineno)
        return self.finish()

    def dispatch(self, tokens, lineno):
        head, args = tokens[0], tokens[1:]
        if head == "schema":
            if args != ["1"]:
                self.fail(f"unsupported schema {quote(' '.join(args))}", lineno)
            return
        if head == "section":
            if len(args) != 1 or args[0] not in (
                "chart",
                "structure",
                "certificates",
                "analyses",
                "options",
                "expects",
            ):
                self.fail(f"unknown section {quote(' '.join(args))}", lineno)
            self.section = args[0]
            return
        if self.section is None:
            self.fail(f"directive {quote(head)} before any section", lineno)
        getattr(self, f"_{self.section}")(head, args, lineno)

    # -- sections -------------------------------------------------------------

    def _chart(self, head, args, lineno):
        if head == "coords":
            if not args:
                self.fail("coords needs at least one name", lineno)
            self.coords = tuple(args)
        elif head == "periodic":
            self.periodic.extend(args)
        elif head == "param":
            if len(args) not in (1, 3):
                self.fail("param NAME [LO HI]", lineno)
            self.params.append(args[0])
            if len(args) == 3:
                self.domains[args[0]] = self._interval(args[1:], lineno)
        elif head == "domain":
            if len(args) != 3:
                self.fail("domain NAME LO HI", lineno)
            self.domains[args[0]] = self._interval(args[1:], lineno)
        elif head == "torus_strict":
            self.torus_strict = True
        else:
            self.fail(f"unknown chart directive {quote(head)}", lineno)

    def _interval(self, pair, lineno):
        try:
            lo, hi = float(pair[0]), float(pair[1])
        except ValueError:
            self.fail(f"bad interval {quote(' '.join(pair))}", lineno)
        return (lo, hi)

    def _structure(self, head, args, lineno):
        if head == "corank":
            if len(args) != 1 or not args[0].isdigit():
                self.fail("corank N", lineno)
            try:
                self.corank = int(args[0])
            except ValueError:
                # isdigit admits digit strings that int refuses
                self.fail(f"corank N, got {quote(args[0])}", lineno)
            self.corank_line = lineno
        elif head in self.terms:
            if not args:
                self.fail(f"{head} EXPR [COORD...]", lineno)
            self.terms[head].append((args[0], tuple(args[1:]), lineno))
        else:
            self.fail(f"unknown structure directive {quote(head)}", lineno)

    def _certificates(self, head, args, lineno):
        if head == "first":
            if len(args) != 1:
                self.fail('first "EXPR"', lineno)
            self.first_f = (args[0], lineno)
        elif head == "second":
            if len(args) != 2:
                self.fail('second "EXPR" COORD', lineno)
            self.second_nu_terms.append((args[0], (args[1],), lineno))
        elif head == "period":
            if len(args) < 3 or len(args) % 2 == 0:
                self.fail("period CYCLE (COORD VALUE)...", lineno)
            locus = {}
            for k in range(1, len(args), 2):
                locus[args[k]] = (args[k + 1], lineno)
            self.period = (args[0], locus, lineno)
        else:
            self.fail(f"unknown certificate directive {quote(head)}", lineno)

    def _analyses(self, head, args, lineno):
        if args:
            self.fail("one analysis verb per line", lineno)
        if head not in ANALYSES:
            self.fail(f"unknown analysis {quote(head)}", lineno)
        if head not in self.analyses:
            self.analyses.append(head)

    def _options(self, head, args, lineno):
        kind = OPTION_TYPES.get(head)
        if kind is None:
            self.fail(f"unknown option {quote(head)}", lineno)
        if len(args) != 1:
            self.fail(f"option {head} takes one value, got {len(args)}", lineno)
        try:
            value = kind(args[0])
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            self.fail(f"option {head} needs {noun}, got {quote(args[0])}", lineno)
        why = sampling_range_error(head, value)
        if why:
            self.fail(f"option {why}, got {quote(args[0])}", lineno)
        setattr(self, head, value)

    def _expects(self, head, args, lineno):
        if head not in ANALYSES or len(args) != 1 or args[0] not in VERDICT_WORDS:
            self.fail("expect lines are: ANALYSIS VERDICT", lineno)
        self.expects[head] = args[0]

    # -- assembly ---------------------------------------------------------------

    def _parse(self, text, lineno):
        try:
            return ex.parse_scalar(text, self.chart)
        except ExprError as exc:
            self.fail(f"bad expression {quote(text)}: {exc}", lineno)

    def _graded(self, kind, cls, degree):
        terms = []
        for text, names, lineno in self.terms[kind]:
            if len(names) != degree:
                self.fail(
                    f"{kind} term needs {degree} coordinate names, got {len(names)}",
                    lineno,
                )
            for n in names:
                if n not in self.chart.coords:
                    self.fail(f"unknown coordinate {quote(n)} in {kind} term", lineno)
            terms.append((names, self._parse(text, lineno)))
        return cls(self.chart, degree, terms)

    def finish(self) -> ProblemFile:
        if self.coords is None:
            self.fail("missing chart section with a coords line", 0)
        try:
            self.chart = Chart(
                self.coords,
                periodic=self.periodic,
                params=tuple(self.params),
                domains=self.domains,
                torus_strict=self.torus_strict,
            )
        except ChartError as exc:
            self.fail(str(exc), 0)
        if not self.terms["bivector"]:
            self.fail("structure section needs at least one bivector term", 0)
        bivector = self._graded("bivector", MultiVector, 2)
        transversal = (
            self._graded("transversal", MultiVector, 1)
            if self.terms["transversal"]
            else None
        )
        alpha = self._graded("alpha", DiffForm, 1) if self.terms["alpha"] else None
        omega = self._graded("omega", DiffForm, 2) if self.terms["omega"] else None
        omega_alt = (
            self._graded("omega_alt", DiffForm, 2) if self.terms["omega_alt"] else None
        )
        first_cert = None
        if self.first_f is not None:
            first_cert = ObstructionCertificate(
                "first", f=self._parse(*self.first_f), origin="supplied"
            )
        second_cert = None
        if self.second_nu_terms:
            terms = []
            for text, names, lineno in self.second_nu_terms:
                if names[0] not in self.chart.coords:
                    self.fail(f"unknown coordinate {quote(names[0])}", lineno)
                terms.append((names, self._parse(text, lineno)))
            nu = DiffForm(self.chart, 1, terms)
            second_cert = ObstructionCertificate("second", nu=nu, origin="supplied")
        witness = None
        if self.period is not None:
            cycle, locus_raw, lineno = self.period
            if cycle not in self.chart.coords:
                self.fail(f"unknown cycle coordinate {quote(cycle)}", lineno)
            locus = {}
            for name, (text, at) in locus_raw.items():
                if name not in self.chart.coords:
                    self.fail(f"unknown locus coordinate {quote(name)}", at)
                locus[name] = self._parse(text, at)
            witness = PeriodWitness(cycle, locus)
        # n, with dim = 2n+1, or 2n on a b-side chart
        if self.corank is not None and self.corank != self.chart.dim // 2:
            self.fail(
                f"corank of a {self.chart.dim}-coordinate chart is {self.chart.dim // 2}, "
                f"got {quote(str(self.corank))}",
                self.corank_line,
            )
        return ProblemFile(
            path=self.path,
            chart=self.chart,
            bivector=bivector,
            corank=self.corank,
            transversal=transversal,
            alpha=alpha,
            omega=omega,
            omega_alt=omega_alt,
            first_certificate=first_cert,
            second_certificate=second_cert,
            period_witness=witness,
            analyses=tuple(self.analyses),
            seed=self.seed,
            trials=self.trials,
            tolerance=self.tolerance,
            expects=dict(self.expects),
        )


def load_problem(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read file: {exc}", path=path) from exc
    return _Loader(path, text).load()


def loads_problem(text: str, path: str = "<string>") -> ProblemFile:
    return _Loader(path, text).load()
