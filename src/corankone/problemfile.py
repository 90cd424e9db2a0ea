"""Line-oriented problem files: chart, structure, certificates, analyses.

The format is plain text with shell-style quoting (see README for the
full grammar), split into words by `split_line`.  Lines are directives
inside `section` blocks; expression arguments are quoted strings in the
scalar grammar; forms and fields are accumulated term by term as
coefficient, then basis coordinate names.
"""

from __future__ import annotations

from . import expr as ex
from .calculus import DiffForm, MultiVector
from .errors import ChartError, ExprError, ProblemFileError, quote
from .expr import Chart, ZeroTester, interval_error
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


_BLANKS = " \t\r\n"
_PLAIN_ENDS = frozenset(_BLANKS + "#\"'\\")


def split_line(line: str) -> list:
    """The words of one line, as ``shlex.split(line, comments=True)`` gives them.

    A word is a run of plain characters, backslash escapes, "double-quoted"
    strings, in which a backslash escapes only a backslash or a double
    quote, and 'single-quoted' strings, which escape nothing.  A blank
    (space, tab, CR, LF) ends a word, and so does a # outside quotes, which
    starts a comment.  An unterminated quote or escape raises ValueError
    with shlex's message, "No closing quotation" or "No escaped character".
    """
    words, word = [], None  # None between words; "" after an empty quote
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "#":
            break
        if c in _BLANKS:
            if word is not None:
                words.append(word)
            word, i = None, i + 1
            continue
        if c == "\\":
            if i + 1 == n:
                raise ValueError("No escaped character")
            piece, i = line[i + 1], i + 2
        elif c == "'":
            close = line.find("'", i + 1)
            if close < 0:
                raise ValueError("No closing quotation")
            piece, i = line[i + 1:close], close + 1
        elif c == '"':
            j = i + 1
            while j < n and line[j] != '"':
                j += 2 if line[j] == "\\" else 1
            if j >= n:  # j > n after a backslash at the very end
                raise ValueError("No closing quotation" if j == n else "No escaped character")
            # each backslash took the next character; replacing from the left keeps those pairs
            piece, i = line[i + 1:j].replace("\\\\", "\\").replace('\\"', '"'), j + 1
        else:
            j = i + 1
            while j < n and line[j] not in _PLAIN_ENDS:
                j += 1
            piece, i = line[i:j], j
        word = piece if word is None else word + piece
    if word is not None:
        words.append(word)
    return words


def sampling_range_error(name: str, value) -> str | None:
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
    """A problem file's chart, structure, certificates, analyses, options and expects.

    ProblemFile(path) holds the defaults of the options; the loader writes
    in what the file declares, and the CLI its --seed, --trials and
    --tolerance.  The file's corank is only checked: n is dim // 2 of the
    chart (see PoissonStructure).
    """

    __slots__ = (
        "path", "chart", "bivector", "transversal", "alpha", "omega", "omega_alt",
        "first_certificate", "second_certificate", "period_witness", "analyses", "seed",
        "trials", "tolerance", "expects",
    )

    def __init__(self, path: str):
        self.path, self.chart, self.bivector = path, None, None
        self.transversal = self.alpha = self.omega = self.omega_alt = None
        self.first_certificate = self.second_certificate = self.period_witness = None
        self.analyses, self.expects = (), {}
        self.seed, self.trials, self.tolerance = 0, 32, 1e-9

    def structure(self) -> PoissonStructure:
        tester = ZeroTester(self.chart, seed=self.seed, trials=self.trials, tol=self.tolerance)
        return PoissonStructure(
            self.chart,
            self.bivector,
            transversal=self.transversal,
            alpha=self.alpha,
            omega=self.omega,
            tester=tester,
        )


# the graded fields of the structure section: class and degree
_GRADED = {
    "bivector": (MultiVector, 2), "transversal": (MultiVector, 1), "alpha": (DiffForm, 1),
    "omega": (DiffForm, 2), "omega_alt": (DiffForm, 2),
}


class _Loader:
    def __init__(self, path: str, text: str):
        self.problem = ProblemFile(path)
        self.lines = text.splitlines()
        self.section = None
        # chart pieces
        self.coords = None
        self.periodic = []
        self.params = []
        self.domains = {}
        self.torus_strict = False
        self.chart_lines = {}  # (Chart field, name) -> line, for a ChartError
        # structure pieces (term lists, resolved after the chart exists)
        self.terms = {kind: [] for kind in _GRADED}
        self.corank = None  # (n, line), checked against the chart
        # certificates
        self.first_f = None
        self.second_nu_terms = []
        self.period = None

    def fail(self, message, lineno):
        raise ProblemFileError(message, path=self.problem.path, line=lineno)

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
            self.chart_lines.update({("coords", n): lineno for n in args})
        elif head == "periodic":
            self.periodic.extend(args)
            self.chart_lines.update({("periodic", n): lineno for n in args})
        elif head == "param":
            if len(args) not in (1, 3):
                self.fail("param NAME [LO HI]", lineno)
            self.params.append(args[0])
            self.chart_lines[("params", args[0])] = self.chart_lines[("domains", args[0])] = lineno
            if len(args) == 3:
                self.domains[args[0]] = self._interval(*args, lineno)
        elif head == "domain":
            if len(args) != 3:
                self.fail("domain NAME LO HI", lineno)
            self.domains[args[0]] = self._interval(*args, lineno)
            self.chart_lines[("domains", args[0])] = lineno
        elif head == "torus_strict":
            self.torus_strict = True
        else:
            self.fail(f"unknown chart directive {quote(head)}", lineno)

    def _interval(self, name, lo, hi, lineno):
        try:
            interval = float(lo), float(hi)
        except ValueError:
            self.fail(f"bad interval {quote(lo + ' ' + hi)}", lineno)
        # the chart refuses these too, but without the line
        why = interval_error(name, *interval)
        if why:
            self.fail(why, lineno)
        return interval

    def _structure(self, head, args, lineno):
        if head == "corank":
            if len(args) != 1 or not args[0].isdigit():
                self.fail("corank N", lineno)
            try:
                self.corank = (int(args[0]), lineno)
            except ValueError:
                # isdigit admits digit strings that int refuses
                self.fail(f"corank N, got {quote(args[0])}", lineno)
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
        if head not in self.problem.analyses:
            self.problem.analyses += (head,)

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
        setattr(self.problem, head, value)

    def _expects(self, head, args, lineno):
        if head not in ANALYSES or len(args) != 1 or args[0] not in VERDICT_WORDS:
            self.fail("expect lines are: ANALYSIS VERDICT", lineno)
        self.problem.expects[head] = args[0]

    # -- assembly ---------------------------------------------------------------

    def _parse(self, text, lineno):
        try:
            return ex.parse_scalar(text, self.problem.chart)
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
                if n not in self.problem.chart.coords:
                    self.fail(f"unknown coordinate {quote(n)} in {kind} term", lineno)
            terms.append((names, self._parse(text, lineno)))
        return cls(self.problem.chart, degree, terms)

    def finish(self) -> ProblemFile:
        problem = self.problem
        if self.coords is None:
            self.fail("missing chart section with a coords line", 0)
        try:
            chart = problem.chart = Chart(
                self.coords,
                periodic=self.periodic,
                params=tuple(self.params),
                domains=self.domains,
                torus_strict=self.torus_strict,
            )
        except ChartError as exc:
            self.fail(str(exc), self.chart_lines.get(exc.at, 0))
        if not self.terms["bivector"]:
            self.fail("structure section needs at least one bivector term", 0)
        for kind, (cls, degree) in _GRADED.items():
            if self.terms[kind]:
                setattr(problem, kind, self._graded(kind, cls, degree))
        if self.first_f is not None:
            problem.first_certificate = ObstructionCertificate(
                "first", f=self._parse(*self.first_f), origin="supplied"
            )
        if self.second_nu_terms:
            terms = []
            for text, names, lineno in self.second_nu_terms:
                if names[0] not in chart.coords:
                    self.fail(f"unknown coordinate {quote(names[0])}", lineno)
                terms.append((names, self._parse(text, lineno)))
            nu = DiffForm(chart, 1, terms)
            problem.second_certificate = ObstructionCertificate("second", nu=nu, origin="supplied")
        if self.period is not None:
            cycle, locus_raw, lineno = self.period
            if cycle not in chart.coords:
                self.fail(f"unknown cycle coordinate {quote(cycle)}", lineno)
            locus = {}
            for name, (text, at) in locus_raw.items():
                if name not in chart.coords:
                    self.fail(f"unknown locus coordinate {quote(name)}", at)
                locus[name] = self._parse(text, at)
            problem.period_witness = PeriodWitness(cycle, locus)
        # n, with dim = 2n+1, or 2n on a b-side chart
        if self.corank is not None and self.corank[0] != chart.dim // 2:
            self.fail(
                f"corank of a {chart.dim}-coordinate chart is {chart.dim // 2}, "
                f"got {quote(str(self.corank[0]))}",
                self.corank[1],
            )
        return problem


def load_problem(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read file: {exc}", path=path) from exc
    return _Loader(path, text).load()


def loads_problem(text: str, path: str = "<string>") -> ProblemFile:
    return _Loader(path, text).load()
