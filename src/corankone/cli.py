"""Batch front end: check a problem file, render its structures, or run
the bundled corpus.  Exit codes: 0 success, 1 analysis failure or a
false verdict, 2 validation error or an unwritable report."""

from __future__ import annotations

import argparse
import os
import sys
import time

from .errors import ProblemFileError, ToolkitError, quote
from .pipeline import analyze, exit_code, expect_mismatches, render_report
from .problemfile import _GRADED, OPTION_TYPES, load_problem, loads_problem, sampling_range_error


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="corankone",
        description="Symbolic analysis of corank-one Poisson structures on charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the analyses requested by a problem file")
    check.add_argument("file")
    check.add_argument("--seed", type=int, default=None, help="override the file's seed")
    check.add_argument("--trials", type=int, default=None)
    check.add_argument("--tolerance", type=float, default=None)
    check.add_argument("--output", default=None, help="write the report here instead of stdout")
    check.add_argument(
        "--timing",
        action="store_true",
        help="include the wall-clock time of loading the file and of each analysis in meta",
    )

    render = sub.add_parser("render", help="pretty-print the structures of a problem file")
    render.add_argument("file")

    corpus_cmd = sub.add_parser("corpus", help="run every bundled example file")
    corpus_cmd.add_argument("--seed", type=int, default=None)
    corpus_cmd.add_argument("--output", default=None, help="directory for per-file reports")
    return parser


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
        value = getattr(args, name, None)  # corpus takes --seed alone
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
    problem = load_problem(args.file)
    load_ms = round(1000.0 * (time.monotonic() - start), 3)
    report = analyze(_override(problem, args), timing=args.timing)
    if args.timing:
        report["meta"]["load_ms"] = load_ms
    text = render_report(report)
    if not args.output:
        sys.stdout.write(text)
    elif not _write_report(args.output, text):
        return 2
    return exit_code(report)


def _cmd_render(args) -> int:
    problem = load_problem(args.file)
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
        if args.output:
            out_path = os.path.join(args.output, name.replace(".prob", ".json"))
            if not _write_report(out_path, render_report(report), make_dir=True):
                return 2
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "render":
            return _cmd_render(args)
        return _cmd_corpus(args)
    except ProblemFileError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
