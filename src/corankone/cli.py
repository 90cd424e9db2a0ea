"""Batch front end: check a problem file, render its structures, or run
the bundled corpus.  Exit codes: 0 success (or help), 1 analysis
failure or a false verdict, 2 usage or validation error or an
unwritable report, 3 an internal error of the package."""

from __future__ import annotations

import os
import sys
import time

from .errors import ProblemFileError, ToolkitError, quote
from .pipeline import analyze, exit_code, expect_mismatches, render_report
from .problemfile import _GRADED, OPTION_TYPES, load_problem, loads_problem, sampling_range_error


_USAGE = {
    None: "corankone {check,render,corpus} ...",
    "check": "corankone check FILE [--seed N] [--trials N] [--tolerance X] [--output PATH]"
    " [--timing]",
    "render": "corankone render FILE",
    "corpus": "corankone corpus [--seed N] [--output DIR]",
}
# the options of each verb by type; None marks a flag
_OPTIONS = {
    "check": {"seed": int, "trials": int, "tolerance": float, "output": str, "timing": None},
    "render": {},
    "corpus": {"seed": int, "output": str},
}
_HELP = """
Symbolic analysis of corank-one Poisson structures on charts.

  check          run the analyses requested by a problem file
  render         pretty-print the structures of a problem file
  corpus         run every bundled example file

  --seed N       override the seed of the file (of every file, for corpus)
  --trials N     override the number of trials of the file
  --tolerance X  override the zero-test tolerance of the file
  --output PATH  write the report to PATH (for corpus: the reports into directory PATH)
  --timing       include the time of loading the file and of each analysis in meta
  -h, --help     show this help and exit"""


class _UsageError(Exception):
    """A bad command line: the verb (None before one) and the message."""


def _parse_args(argv):
    """(verb, args) from the command line, or (verb, None) when help was asked for.

    args maps "file" and each option of the verb to its value (None, or
    False for a flag, when not given).  An option is `--name value` or
    `--name=value`, by its name or a unique prefix of it; after `--` every
    word is a FILE.  Anything else raises _UsageError.
    """
    verb = argv[0] if argv else None
    if verb not in _OPTIONS:
        if verb == "-h" or (verb and len(verb) > 2 and "--help".startswith(verb)):
            return None, None
        what = f"unknown command {quote(verb)}" if verb else "a command is required"
        raise _UsageError(None, f"{what} (choose from check, render, corpus)")
    kinds = _OPTIONS[verb]
    args = {name: None if kind else False for name, kind in kinds.items()}
    words, rest, i = [], argv[1:], 0
    while i < len(rest):
        token, i = rest[i], i + 1
        if token == "--":
            words += rest[i:]
            break
        if token == "-" or not token.startswith("-"):
            words.append(token)
            continue
        # no option's name is a prefix of another's
        name, given, value = token[2:].partition("=")
        found = [n for n in (*kinds, "help") if name and n.startswith(name)]
        if token == "-h" or found == ["help"]:
            return verb, None
        if not token.startswith("--") or not found:
            raise _UsageError(verb, f"unknown option {quote(token)}")
        if len(found) > 1:
            raise _UsageError(verb, f"ambiguous option {quote(token)}: --{', --'.join(found)}")
        name, kind = found[0], kinds[found[0]]
        if kind is None:
            if given:
                raise _UsageError(verb, f"--{name} takes no value, got {quote(token)}")
            args[name] = True
            continue
        if not given:
            if i == len(rest) or rest[i].startswith("--"):
                raise _UsageError(verb, f"--{name} needs a value")
            value, i = rest[i], i + 1
        try:
            args[name] = kind(value)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise _UsageError(verb, f"--{name} needs {noun}, got {quote(value)}") from None
    want = int(verb != "corpus")  # check and render read one FILE
    if len(words) > want:
        raise _UsageError(verb, f"unexpected argument {quote(words[want])}")
    if len(words) < want:
        raise _UsageError(verb, f"{verb} needs a FILE")
    args["file"] = words[0] if want else None
    return verb, args


def bundled_corpus():
    """Names and contents of the bundled problem files, sorted by name."""
    from importlib import resources  # here, so that `check` does not pay for it

    root = resources.files("corankone") / "corpus"
    out = []
    for item in sorted(root.iterdir(), key=lambda p: p.name):
        if item.name.endswith(".prob"):
            out.append((item.name, item.read_text(encoding="utf-8")))
    return out


def _override(problem, args):
    """The problem with the sampling options given on the command line."""
    for name in OPTION_TYPES:
        value = args.get(name)  # corpus takes --seed alone
        if value is None:
            continue
        why = sampling_range_error(name, value)
        if why:
            raise ProblemFileError(f"--{why}, got {quote(str(value))}")
        setattr(problem, name, value)
    return problem


def _write_report(path: str, text: str, make_dir=False) -> bool:
    """Write a report (in a new directory if asked); on failure say why and return False."""
    try:
        if make_dir:
            os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write report {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _cmd_check(args) -> int:
    start = time.monotonic()
    problem = load_problem(args["file"])
    load_ms = round(1000.0 * (time.monotonic() - start), 3)
    report = analyze(_override(problem, args), timing=args["timing"])
    if args["timing"]:
        report["meta"]["load_ms"] = load_ms
    text = render_report(report)
    if not args["output"]:
        sys.stdout.write(text)
    elif not _write_report(args["output"], text):
        return 2
    return exit_code(report)


def _cmd_render(args) -> int:
    problem = load_problem(args["file"])
    print(f"chart: ({', '.join(problem.chart.coords)})")
    if problem.chart.periodic:
        print(f"periodic: {', '.join(sorted(problem.chart.periodic))}")
    if problem.chart.params:
        print(f"params: {', '.join(problem.chart.params)}")
    for kind in _GRADED:
        value = getattr(problem, kind)
        if value is not None:
            print(f"{kind}: {value}")
    if problem.analyses:
        print(f"analyses: {', '.join(problem.analyses)}")
    return 0


def _cmd_corpus(args) -> int:
    ok = True
    for name, text in bundled_corpus():
        problem = _override(loads_problem(text, path=name), args)
        report = analyze(problem)
        mismatches = expect_mismatches(problem, report)
        status = "ok" if not mismatches else "MISMATCH"
        print(f"{name:28s} {status}")
        for m in mismatches:
            print(f"    {m}")
            ok = False
        if args["output"]:
            out_path = os.path.join(args["output"], name.replace(".prob", ".json"))
            if not _write_report(out_path, render_report(report), make_dir=True):
                return 2
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        verb, args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        verb, message = exc.args
        print(f"usage: {_USAGE[verb]}\ncorankone: error: {message}", file=sys.stderr)
        return 2
    if args is None:
        print(f"usage: {_USAGE[verb]}\n{_HELP}")
        return 0
    try:
        if verb == "check":
            return _cmd_check(args)
        if verb == "render":
            return _cmd_render(args)
        return _cmd_corpus(args)
    except ProblemFileError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # a fault of the package itself, not of the problem: one line, and a
        # status of its own; KeyboardInterrupt is no Exception and stays uncaught
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
