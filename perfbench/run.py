"""corankone benchmark: per-file check latency, closed loop, one problem
per fresh driver process.

Usage:
    python3 perfbench/run.py --workload {corpus,dense,multiparam} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout that holds `src/corankone`.  The problem
set of the workload is made from --seed and run in whole passes, one
problem at a time: at least two passes, and more while another fits into
S seconds.

Every completed report is checked: its verdicts (and, for generated
problems, the artifacts the construction fixes) must match, and its bytes
must be identical in every pass.  A problem still running at the
workload's time limit is stopped, and the analysis it was in is recorded.

--trace 0 measures with nothing patched and reports the end-to-end
metrics; --trace 1 runs every problem untraced and then traced, requires
byte-identical reports from both, and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER = os.path.join(HERE, "driver.py")
DIGESTS = os.path.join(HERE, "digests.json")
# grace beyond the limit for interpreter start-up and for the driver's own
# timer to fire before the process is killed from outside
KILL_GRACE_S = 20.0
TIMEOUT_EXIT = 3

# the drivers import from a byte-code cache kept inside the checkout, as an
# installed package would; the first driver of a checkout fills it
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_out", "pycache")

import gen  # noqa: E402  (beside this script)

# workload: (problem generator, time limit in seconds of check time).  The
# multiparam limit lies far from every member's time: the members that
# finish take under 0.3 s, those past the cliff run for minutes.  On the
# other workloads the limit is only a safety net.
WORKLOADS = {
    "corpus": (lambda seed: gen.corpus(seed, ROOT), 30.0),
    "dense": (gen.dense, 30.0),
    "multiparam": (gen.multiparam, 4.0),
}

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


def digest_key(member):
    return f"{member.name}:{hashlib.sha256(member.text.encode()).hexdigest()[:16]}"


# -- one problem --------------------------------------------------------------


def run_problem(member, limit_s, traced=False):
    """Check one problem in a fresh driver; returns the driver's JSON, plus
    "status" ("ok", "timeout" or "crash") and "sha256" of the report."""
    cmd = [sys.executable, DRIVER, member.name, repr(limit_s)]
    if traced:
        cmd.append("--trace")
    proc = subprocess.Popen(
        cmd,
        env=CHILD_ENV,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(member.text, timeout=limit_s + KILL_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"status": "timeout", "analysis": "unknown", "check_ms": 1000.0 * limit_s}
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"status": "crash", "detail": tail[0]}
    if result.get("timeout") and proc.returncode == TIMEOUT_EXIT:
        result["status"] = "timeout"
    elif proc.returncode == 0 and "report" in result:
        result["status"] = "ok"
        result["sha256"] = hashlib.sha256(result["report"].encode()).hexdigest()
    else:
        result["status"] = "crash"
        result["detail"] = f"exit code {proc.returncode}"
    return result


def check_report(member, report_text):
    """Differences between a report and what the problem expects."""
    report = json.loads(report_text)
    problems = []
    for analysis, expected in sorted(member.verdicts.items()):
        entry = report["analyses"].get(analysis)
        got = None
        if entry is not None:
            got = "error" if entry["status"] == "error" else entry.get("verdict")
        if got != expected:
            problems.append(f"{analysis}: expected {expected}, got {got}")
    for analysis, fields in sorted(member.artifacts.items()):
        arts = report["analyses"].get(analysis, {}).get("artifacts", {})
        for key, expected in sorted(fields.items()):
            if arts.get(key) != expected:
                problems.append(f"{analysis}.{key}: expected {expected!r}, got {arts.get(key)!r}")
    return problems


class Checker:
    """Applies the output checks and keeps the per-problem first report."""

    def __init__(self):
        self.first_sha = {}
        self.errors = []
        try:
            with open(DIGESTS, encoding="utf-8") as fh:
                self.digests = json.load(fh)
        except FileNotFoundError:
            self.digests = {}

    def check(self, member, result):
        """True when the result is a correct, stable report."""
        status = result["status"]
        if status == "crash":
            self.errors.append(f"{member.name}: crashed ({result.get('detail')})")
            return False
        if status == "timeout":
            return False
        problems = check_report(member, result["report"])
        first = self.first_sha.setdefault(member.name, result["sha256"])
        if first != result["sha256"]:
            problems.append("report bytes differ between passes")
        for p in problems:
            self.errors.append(f"{member.name}: {p}")
        return not problems

    def drifted(self, member, result):
        known = self.digests.get(digest_key(member))
        return result["status"] == "ok" and known is not None and known != result["sha256"]


# -- passes -------------------------------------------------------------------


def run_passes(members, seconds, step, min_passes):
    """Call step(member) over the problem set in complete passes: at least
    `min_passes`, and more while another pass fits into `seconds`."""
    t0 = time.monotonic()
    passes = []
    while True:
        passes.append([(member, step(member)) for member in members])
        elapsed = time.monotonic() - t0
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def quantile(values, q):
    """q-quantile (0 < q < 1) by the exclusive method of `statistics`."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="exclusive")[round(100 * q) - 1]


# -- untraced run: end-to-end metrics -------------------------------------------


def end_to_end(members, seconds, checker, limit_s):
    def step(member):
        result = run_problem(member, limit_s)
        result["correct"] = checker.check(member, result)
        return result

    # two passes at least, so every report is compared across passes
    passes = run_passes(members, seconds, step, min_passes=2)
    samples = [r for p in passes for _, r in p]
    checked = [r for r in samples if "check_ms" in r]
    if not checked:
        raise SystemExit("error: no problem could be checked; " + "; ".join(checker.errors[:3]))
    check_ms = [r["check_ms"] for r in checked]
    attempted = len(samples)
    completed = sum(1 for r in samples if r["correct"])
    timeouts = [
        (m.name, r.get("analysis")) for p in passes for m, r in p
        if r["status"] == "timeout"
    ]
    drift = sum(1 for m, r in passes[0] if checker.drifted(m, r))
    metrics = {
        "check_ms.p50": (statistics.median(check_ms), "ms"),
        "check_ms.p95": (quantile(check_ms, 0.95), "ms"),
        # the mean pass: host speed drifts over seconds, and a mean over all
        # passes averages more of that drift than the middle pass would
        "suite_s": (sum(check_ms) / 1000.0 / len(passes), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in checked if "setup_s" in r), "s"),
        "peak_rss_mb": (
            statistics.median(max(r.get("rss_kb", 0) for _, r in p) / 1024.0 for p in passes),
            "MB",
        ),
        "completed_share": (completed / attempted, "share"),
    }
    notes = [
        f"problems per pass {len(members)}, passes {len(passes)}, samples {attempted}",
        f"samples beyond check_ms.p95: {sum(1 for x in check_ms if x > metrics['check_ms.p95'][0])}",
        # p90 falls at the lower edge of the slowest problems' times (on the
        # corpus, the bottom tenth of t3_example's), where host speed moves it
        # most; p95 falls in their middle, so p95 is the gated percentile
        f"check_ms.p90 {quantile(check_ms, 0.9)!r} ms",
        f"failed_share {(attempted - completed) / attempted!r} share "
        f"({attempted - completed} of {attempted}; {len(timeouts)} stopped at {limit_s} s)",
        f"pipeline.report_drift {drift} count (first pass against {os.path.basename(DIGESTS)})",
    ]
    for name, analysis in sorted(set(timeouts)):
        notes.append(f"time limit: {name} stopped in analysis {analysis}")
    failed = sum(1 for r in samples if r["status"] != "timeout" and not r["correct"])
    return metrics, notes, attempted, failed


# -- traced run: per-layer metrics ----------------------------------------------


def _layer_metrics(pass_results, checker):
    """Per-layer metrics of one pass of (member, untraced, traced) triples."""
    stats, counts = {}, {}
    for _, _, traced in pass_results:
        trace = traced.get("trace", {})
        for name, (calls, self_s, incl_s) in trace.get("stats", {}).items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += incl_s
        for key, n in trace.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + n

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_ms(name):
        return 1000.0 * stats.get(name, (0, 0.0, 0.0))[1]

    def incl_ms(name):
        return 1000.0 * stats.get(name, (0, 0.0, 0.0))[2]

    problems = len(pass_results)
    out = {}
    for key, span in (("expr.arith", "expr.arith"), ("expr.derive", "expr.derive")):
        out[f"{key}.calls"] = (calls(span), "count")
        out[f"{key}.ms"] = (self_ms(span), "ms")
    out["expr.parse.ms"] = (self_ms("expr.parse"), "ms")
    tests = calls("expr.zero_test")
    out["expr.zero_test.calls"] = (tests, "count")
    out["expr.zero_test.ms"] = (self_ms("expr.zero_test"), "ms")
    for kind in ("zero", "probably-zero", "nonzero", "unknown"):
        out[f"expr.zero_test.verdict.{kind}"] = (
            counts.get(f"expr.zero_test.verdict.{kind}", 0),
            "count",
        )
    out["expr.zero_test.symbolic_share"] = (
        counts.get("expr.zero_test.verdict.zero", 0) / tests if tests else 0.0,
        "share",
    )
    evaluations = calls("expr.evaluate") + counts.get("expr.evaluate.zero_test_samples", 0)
    out["expr.evaluate.calls"] = (evaluations, "count")
    out["expr.evaluate.singular_share"] = (
        counts.get("expr.evaluate.singular", 0) / evaluations if evaluations else 0.0,
        "share",
    )
    for op in ("wedge", "ext_deriv", "interior", "schouten", "lie_derivative", "exterior_divide"):
        out[f"calculus.{op}.calls"] = (calls(f"calculus.{op}"), "count")
        out[f"calculus.{op}.ms"] = (self_ms(f"calculus.{op}"), "ms")
    for stage in ("jacobi", "adapted", "corank", "invert"):
        out[f"poisson.{stage}.ms_incl"] = (incl_ms(f"poisson.{stage}"), "ms")
    out["poisson.linear_solve.calls"] = (calls("poisson.linear_solve"), "count")
    out["poisson.linear_solve.ms_incl"] = (incl_ms("poisson.linear_solve"), "ms")
    for fn in ("compute_beta", "compute_mu", "modular_field"):
        out[f"invariants.{fn}.calls"] = (calls(f"invariants.{fn}") / problems, "count")
    out["invariants.self_ms"] = (
        sum(1000.0 * s[1] for n, s in stats.items() if n.startswith("invariants.")),
        "ms",
    )
    out["bgeom.b_transversality.ms_incl"] = (incl_ms("bgeom.b_transversality"), "ms")
    out["bgeom.extend_to_b.ms_incl"] = (incl_ms("bgeom.extend_to_b"), "ms")
    out["problemfile.load.ms"] = (self_ms("problemfile.load"), "ms")
    for analysis in ANALYSES:
        name = f"pipeline.analysis.{analysis}"
        out[f"{name}.ms_incl"] = (incl_ms(name), "ms")
    out["pipeline.report_drift"] = (
        sum(1 for m, u, _ in pass_results if checker.drifted(m, u)),
        "count",
    )
    done = [(u, t) for _, u, t in pass_results if u["status"] == t["status"] == "ok"]
    plain = sum(u["check_ms"] for u, _ in done)
    out["trace.overhead_share"] = (
        (sum(t["check_ms"] for _, t in done) - plain) / plain if plain else 0.0,
        "share",
    )
    return out


def per_layer(members, seconds, checker, limit_s):
    def step(member):
        plain = run_problem(member, limit_s)
        plain["correct"] = checker.check(member, plain)
        traced = run_problem(member, limit_s, traced=True)
        traced["correct"] = checker.check(member, traced)
        if plain["status"] == traced["status"] == "ok" and plain["sha256"] != traced["sha256"]:
            checker.errors.append(f"{member.name}: traced report differs from untraced")
            traced["correct"] = False
        return plain, traced

    passes = run_passes(members, seconds, step, min_passes=1)
    triples = [[(m, u, t) for m, (u, t) in p] for p in passes]
    per_pass = [_layer_metrics(p, checker) for p in triples]
    metrics = {
        key: (statistics.median(m[key][0] for m in per_pass), unit)
        for key, (_, unit) in per_pass[0].items()
    }
    samples = [r for p in passes for _, r in p]
    attempted = len(samples)
    failed = sum(
        1 for pair in samples if any(r["status"] != "timeout" and not r["correct"] for r in pair)
    )
    notes = [
        f"problems per pass {len(members)}, passes {len(passes)}, "
        f"each problem run untraced and traced"
    ]
    _write_spans(triples[-1])
    return metrics, notes, attempted, failed


def _write_spans(pass_results):
    """Keep the coarse spans of the last traced pass for later inspection."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = {m.name: t.get("trace", {}).get("spans", []) for m, _, t in pass_results}
    with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"fields": ["id", "parent", "name", "start_s", "end_s"], "problems": spans},
            fh,
            sort_keys=True,
        )


# -- entry point --------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "corankone", "cli.py")):
        print(f"error: no corankone sources under {ROOT}/src", file=sys.stderr)
        return 2

    make, limit_s = WORKLOADS[args.workload]
    checker = Checker()
    measure = per_layer if args.trace else end_to_end
    metrics, notes, attempted, failed = measure(make(args.seed), args.seconds, checker, limit_s)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for line in checker.errors:
        print(f"CHECK FAILED {line}")
    result = {
        "correct": not checker.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
