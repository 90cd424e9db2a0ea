"""Run the requested analyses of a problem file and assemble the report.

Reports are plain dictionaries serialized as sorted-key JSON; rerunning
the same file with the same seed yields byte-identical output.  Timing
is therefore kept out of the report body unless explicitly requested.
"""

from __future__ import annotations

import functools
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
# transversal and an `adapted()` that does not raise; on an even chart
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

    @functools.cached_property
    def _no_pair(self) -> str | None:
        """Why there is no adapted pair, or None; the pair is tried once."""
        if self.P.transversal is None:
            return "no transversal field declared"
        try:
            self.P.adapted()
        except ToolkitError as exc:
            return str(exc)
        return None

    def unmet(self, need: str) -> str | None:
        """Why the structure does not meet `need`, one of those in `NEEDS`, or None."""
        if need == "Jacobi":
            return None if self.P.jacobi_verdict().holds else "Jacobi identity fails"
        parity = "odd" if self.P.chart.dim % 2 else "even"
        if need in ("odd chart", "even chart"):
            return None if need == f"{parity} chart" else f"chart dimension is {parity}"
        return self._no_pair if need == "adapted pair" or parity == "odd" else None

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
            return handler()
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
        return {"status": "ok", **_verdict_payload(v), "jacobiator_agrees": True}

    def run_corank(self):
        n, top, nonvanishing = self.P.corank_evidence()
        if nonvanishing:
            verdict, detail = "probably-true", "top power nonvanishing at all sample points"
        else:
            verdict, detail = "false", "top power vanished at a sample point"
        return {
            "status": "ok",
            "verdict": verdict,
            "detail": detail,
            "artifacts": {"top_power": str(top), "n": n},
        }

    def run_adapted(self):
        return {
            "status": "ok",
            "verdict": self.P.adapted_verdict.label,
            "artifacts": {"alpha": str(self.P.alpha), "omega": str(self.P.omega)},
        }

    def run_beta(self):
        beta = self.P.beta()
        return {
            "status": "ok",
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
        out = {"status": "ok", **_verdict_payload(res.verdict)}
        out["detail"] = res.detail or res.verdict.note
        out["artifacts"] = {"beta": str(res.representative)}
        if res.certificate is not None and res.verdict.holds:
            out["artifacts"]["certificate_f"] = str(res.certificate.f)
            out["certificate_origin"] = res.certificate.origin
        return out

    def run_godbillon_vey(self):
        gv = godbillon_vey(self.P.beta())
        v = is_zero_graded(gv, self.P.tester)
        return {
            "status": "ok",
            "verdict": v.label,
            "detail": "verdict refers to the vanishing of the 3-form",
            "artifacts": {"godbillon_vey": str(gv)},
        }

    def run_mu(self):
        mu = _quietly(self.P.mu, self.defining_two_form())
        return {"status": "ok", "verdict": self.P.mu_verdict.label, "artifacts": {"mu": str(mu)}}

    def run_sigma(self):
        res = _quietly(
            second_obstruction,
            self.P,
            self.defining_two_form(),
            self.problem.second_certificate,
        )
        out = {"status": "ok", **_verdict_payload(res.verdict)}
        out["artifacts"] = {"mu": str(res.representative)}
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
            "status": "ok",
            "verdict": verdict.label,
            "detail": f"preservation laws verified; {note}",
            "field_vanishes": v.label,
            "artifacts": {"field": str(vmod)},
        }

    def run_weinstein(self):
        v = check_weinstein_identity(self.P)
        return {"status": "ok", **_verdict_payload(v)}

    def run_transverse_poisson(self):
        rep = check_transverse_poisson(self.P)
        verdict = "true" if rep.equivalence_holds else "false"
        out = {
            "status": "ok",
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
            "status": "ok",
            **_verdict_payload(rep.verdict),
            "critical_locus": rep.locus,
            "artifacts": {"top_coefficient": str(rep.top_coefficient)},
        }

    def run_b_extension(self):
        checks = {}
        ext = extend_to_b(self.P, checks=checks)
        return {
            "status": "ok",
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
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


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
