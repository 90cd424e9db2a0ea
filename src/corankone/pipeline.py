"""Run the requested analyses of a problem file and assemble the report.

Reports are plain dictionaries serialized as sorted-key JSON; rerunning
the same file with the same seed yields byte-identical output.  Timing
is therefore kept out of the report body unless explicitly requested.
"""

from __future__ import annotations

import json
import time
import warnings

from . import __version__
from .bgeom import b_transversality_check, extend_to_b
from .calculus import is_zero_graded, volume_form
from .errors import ToolkitError, ToolkitWarning
from .expr import Verdict
from .invariants import (
    check_transverse_poisson,
    check_weinstein_identity,
    godbillon_vey,
    modular_field,
    second_obstruction,
    unimodularity_check,
)
from .problemfile import ANALYSES, ProblemFile

SCHEMA_VERSION = 1

# What each analysis needs, tested in this order; it is skipped with the reason
# of the first unmet need.  The adapted pair lives on odd charts and needs a
# transversal and an `adapted()` that does not raise; `adapted()` does not test
# Jacobi, so Jacobi comes first wherever the pair is needed.  On an even chart
# `modular` takes the chart volume.
_PAIR = ("Jacobi", "odd chart", "adapted pair")
NEEDS = {
    **dict.fromkeys(ANALYSES, _PAIR),
    "jacobi": (),
    "corank": (),
    "modular": ("Jacobi", "adapted pair on an odd chart"),
    "b_transversality": ("even chart",),
}


def _verdict_payload(v: Verdict) -> dict:
    out = {"verdict": v.label}
    if v.note:
        out["detail"] = v.note
    if v.witness is not None:
        out["witness"] = {k: float(x) for k, x in sorted(v.witness.items())}
        out["witness_value"] = float(v.value)
    return out


def _quietly(fn, *args):
    """fn(*args) without the ToolkitWarning that mu gives over a non-closed alpha."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ToolkitWarning)
        return fn(*args)


class _Runner:
    """Runs analyses on one structure; the structure keeps the artifacts."""

    def __init__(self, problem: ProblemFile):
        self.problem = problem
        self.P = problem.structure()

    def unmet(self, need: str) -> str | None:
        """Why the structure does not meet `need`, one of those in `NEEDS`, or None."""
        if need == "Jacobi":
            return None if self.P.jacobi_verdict().holds else "Jacobi identity fails"
        parity = "odd" if self.P.chart.dim % 2 else "even"
        if need in ("odd chart", "even chart"):
            return None if need == f"{parity} chart" else f"chart dimension is {parity}"
        if need == "adapted pair" or parity == "odd":
            if self.P.transversal is None:
                return "no transversal field declared"
            try:
                self.P.adapted()  # the structure decides the pair once
            except ToolkitError as exc:
                return str(exc)
        return None

    def defining_two_form(self):
        """The adapted omega, or the declared non-adapted one when given."""
        if self.problem.omega_alt is not None:
            return self.problem.omega_alt
        return self.P.omega

    # -- analysis entries -------------------------------------------------------

    def run(self, name: str) -> dict:
        handler = getattr(self, f"run_{name}")
        try:
            for need in NEEDS[name]:
                reason = self.unmet(need)
                if reason is not None:
                    return {"status": "skipped", "verdict": "skipped", "detail": reason}
            return {"status": "ok", **handler()}
        except ToolkitError as exc:
            return {
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
            }

    def run_jacobi(self):
        # Jacobi is decided by one route, so there is nothing to disagree
        # with; the key stays so that reports keep their bytes, and leaves
        # them in the planned report change that re-records the digests
        v = self.P.jacobi_verdict()
        return {**_verdict_payload(v), "jacobiator_agrees": True}

    def run_corank(self):
        n, top, nonvanishing = self.P.corank_evidence()
        if nonvanishing:
            verdict, detail = "probably-true", "top power nonvanishing at all sample points"
        else:
            verdict, detail = "false", "top power vanished at a sample point"
        return {
            "verdict": verdict,
            "detail": detail,
            "artifacts": {"top_power": str(top), "n": n},
        }

    def run_adapted(self):
        return {
            "verdict": self.P.adapted_verdict.label,
            "artifacts": {"alpha": str(self.P.alpha), "omega": str(self.P.omega)},
        }

    def run_beta(self):
        beta = self.P.beta()
        return {
            "verdict": self.P.beta_verdict.label,
            "artifacts": {"beta": str(beta)},
            "dbeta_in_ideal": self.P.dbeta_verdict.label,
        }

    def run_unimodularity(self):
        res = unimodularity_check(
            self.P,
            certificate=self.problem.first_certificate,
            witness=self.problem.period_witness,
        )
        out = _verdict_payload(res.verdict)
        out["detail"] = res.detail or res.verdict.note
        out["artifacts"] = {"beta": str(self.P.beta())}
        if res.certificate is not None and res.verdict.holds:
            out["artifacts"]["certificate_f"] = str(res.certificate.f)
            out["certificate_origin"] = res.certificate.origin
        return out

    def run_godbillon_vey(self):
        gv = godbillon_vey(self.P.beta())
        v = is_zero_graded(gv, self.P.tester)
        return {
            "verdict": v.label,
            "detail": "verdict refers to the vanishing of the 3-form",
            "artifacts": {"godbillon_vey": str(gv)},
        }

    def run_mu(self):
        mu = _quietly(self.P.mu, self.defining_two_form())
        return {"verdict": self.P.mu_verdict.label, "artifacts": {"mu": str(mu)}}

    def run_sigma(self):
        # P.mu keeps mu for this omega, so the second call warns no second time
        omega = self.defining_two_form()
        res = _quietly(second_obstruction, self.P, omega, self.problem.second_certificate)
        out = _verdict_payload(res.verdict)
        out["artifacts"] = {"mu": str(self.P.mu(omega))}
        if res.certificate is not None and res.verdict.holds:
            out["artifacts"]["certificate_nu"] = str(res.certificate.nu)
            out["certificate_origin"] = res.certificate.origin
        return out

    def run_modular(self):
        # modular_field verifies L_v(Pi) = 0 on return, so the verdict is the
        # weakest of that check and of the pair's
        if self.P.chart.dim % 2:
            vmod = self.P.modular()
            verdict = self.P.modular_verdict
            note = "volume = alpha ^ omega^n"
        else:
            checks = {}
            vmod = modular_field(self.P, volume_form(self.P.chart), checks=checks)
            verdict = Verdict.combine(*checks.values())
            note = "volume = standard chart volume"
        v = is_zero_graded(vmod, self.P.tester)
        return {
            "verdict": verdict.label,
            "detail": f"preservation laws verified; {note}",
            "field_vanishes": v.label,
            "artifacts": {"field": str(vmod)},
        }

    def run_weinstein(self):
        return _verdict_payload(check_weinstein_identity(self.P))

    def run_transverse_poisson(self):
        rep = check_transverse_poisson(self.P)
        verdict = "true" if rep.equivalence_holds else "false"
        out = {
            "verdict": verdict,
            "detail": rep.detail,
            "poisson_side": rep.lv_pi_verdict.label,
            "closed_side": {
                "dalpha": rep.dalpha_verdict.label,
                "domega": rep.domega_verdict.label,
            },
        }
        if rep.pair_witness is not None:
            out["witness_pair"] = {
                "coordinate": rep.pair_witness[0],
                "pairing": str(rep.pair_witness[1]),
            }
        return out

    def run_b_transversality(self):
        rep = b_transversality_check(self.P)
        return {
            **_verdict_payload(rep.verdict),
            "critical_locus": rep.locus,
            "artifacts": {"top_coefficient": str(rep.top_coefficient)},
        }

    def run_b_extension(self):
        checks = {}
        ext = extend_to_b(self.P, checks=checks)
        return {
            "verdict": Verdict.combine(self.P.adapted_verdict, *checks.values()).label,
            "detail": "extension constructed and all invariants verified",
            "artifacts": {
                "omega_ext": str(ext.omega_ext),
                "pi_ext": str(ext.pi_ext),
                "t_quotient": str(ext.quotient),
            },
        }


def analyze(problem: ProblemFile, timing=False) -> dict:
    """Execute the requested analyses in dependency order, at the problem's options."""
    runner = _Runner(problem)
    analyses = {}
    spent = {}
    t0 = time.monotonic()
    for name in ANALYSES:
        if name not in problem.analyses:
            continue
        start = time.monotonic()
        analyses[name] = runner.run(name)
        spent[name] = round(1000.0 * (time.monotonic() - start), 3)
    report = {
        "meta": {
            "schema": SCHEMA_VERSION,
            "tool": f"corankone {__version__}",
            "file": problem.path.rsplit("/", 1)[-1],
            "seed": problem.seed,
            "trials": problem.trials,
            "tolerance": problem.tolerance,
        },
        "chart": {
            "coords": list(problem.chart.coords),
            "periodic": sorted(problem.chart.periodic),
            "params": list(problem.chart.params),
            "dim": problem.chart.dim,
        },
        "analyses": analyses,
        "summary": {
            "requested": len(analyses),
            "failures": sum(e.get("verdict") == "false" for e in analyses.values()),
            "errors": sum(e["status"] == "error" for e in analyses.values()),
            "skipped": sum(e["status"] == "skipped" for e in analyses.values()),
        },
    }
    if timing:
        report["meta"]["timing_ms"] = round(1000.0 * (time.monotonic() - t0), 3)
        report["meta"]["analysis_ms"] = spent
    return report


def render_report(report: dict) -> str:
    """The report as ``json.dumps(report, indent=2, sort_keys=True,
    ensure_ascii=True) + "\\n"`` writes it, byte for byte."""
    return _json(report, "\n") + "\n"


_escape = json.encoder.encode_basestring_ascii  # the C escaper


def _json(value, newline: str) -> str:
    """value as JSON text whose nested lines start with newline."""
    if isinstance(value, str):
        return _escape(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        # json writes the non-finite floats as NaN, Infinity and -Infinity
        return float.__repr__(value) if value - value == 0 else json.dumps(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sorted(value.items())
        body = ("," + inner).join(_escape(k) + ": " + _json(v, inner) for k, v in items)
        return "{" + inner + body + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(_json(v, inner) for v in value) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def exit_code(report: dict) -> int:
    s = report["summary"]
    return 1 if (s["failures"] or s["errors"]) else 0


def expect_mismatches(problem: ProblemFile, report: dict) -> list:
    """One line per analysis whose verdict differs from the file's `expects`."""
    out = []
    for analysis, expected in sorted(problem.expects.items()):
        entry = report["analyses"].get(analysis)
        got = entry.get("verdict") if entry else None
        if entry and entry["status"] == "error":
            got = "error"
        if got != expected:
            out.append(f"{analysis}: expected {expected}, got {got}")
    return out
