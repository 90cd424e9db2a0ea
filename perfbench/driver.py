"""Check one problem in a fresh interpreter, the way `corankone check` does.

Usage: python3 perfbench/driver.py NAME LIMIT_S [--trace] < problem.prob

Run by run.py, one process per problem.

The driver times the import of the package modules the CLI loads, then
reads the problem text from stdin and times `loads_problem`, `analyze`
and `render_report`.  It prints one JSON line with the report, the times,
its peak resident set size and, with --trace, the layer trace.

At LIMIT_S seconds of check time an interval timer stops the check: the
driver names the analysis the pipeline was in, prints its JSON line with
"timeout": true, and exits with code 3.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_EXIT = 3


def _peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _current_analysis(frame):
    """Name of the analysis (or phase) that the interrupted frame belongs to."""
    phase = "unknown"
    while frame is not None:
        code = frame.f_code
        where = os.path.basename(code.co_filename)
        if where == "pipeline.py" and code.co_name == "run" and "name" in frame.f_locals:
            return str(frame.f_locals["name"])
        if where == "pipeline.py" and code.co_name == "render_report":
            phase = "render"
        elif where == "problemfile.py" and phase == "unknown":
            phase = "load"
        frame = frame.f_back
    return phase


def _emit(payload):
    os.write(1, (json.dumps(payload, sort_keys=True) + "\n").encode())


def main(argv):
    name, limit_s = argv[0], float(argv[1])
    traced = "--trace" in argv[2:]
    sys.path.insert(0, os.path.join(ROOT, "src"))

    t0 = time.perf_counter()
    import corankone.cli  # noqa: F401  (everything the CLI loads)

    setup_s = time.perf_counter() - t0

    from corankone import pipeline, problemfile

    tracer = None
    if traced:
        import layertrace  # beside this script, so on sys.path already

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    # looked up after install, so a traced run calls the wrapped entry points
    loads_problem = problemfile.loads_problem
    analyze, render_report = pipeline.analyze, pipeline.render_report

    text = sys.stdin.read()
    start = time.perf_counter()

    def on_limit(signum, frame):
        out = {
            "timeout": True,
            "analysis": _current_analysis(frame),
            "check_ms": 1000.0 * (time.perf_counter() - start),
            "setup_s": setup_s,
            "rss_kb": _peak_rss_kb(),
        }
        if tracer is not None:
            tracer.close_all()
            out["trace"] = tracer.summary()
        _emit(out)
        os._exit(TIMEOUT_EXIT)

    signal.signal(signal.SIGALRM, on_limit)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    problem = loads_problem(text, path=name)
    report = analyze(problem)
    rendered = render_report(report)
    check_ms = 1000.0 * (time.perf_counter() - start)
    signal.setitimer(signal.ITIMER_REAL, 0)

    out = {
        "timeout": False,
        "check_ms": check_ms,
        "setup_s": setup_s,
        "rss_kb": _peak_rss_kb(),
        "report": rendered,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
    _emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
