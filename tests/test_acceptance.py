"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Every tolerance is pinned here; the symbolic checks
use structural zero (empty canonical numerator), not sampling.
"""

import itertools
import math
import random
from contextlib import contextmanager

import pytest

from corankone import (
    Chart,
    DiffForm,
    MultiVector,
    PoissonStructure,
    ZeroTester,
    basis_form,
    basis_vector,
    exp,
    ext_deriv,
    interior,
    lie_derivative,
    parse_graded,
    power,
    rational,
    schouten,
    symbol,
    wedge,
)
from corankone.bgeom import b_transversality_check, extend_to_b
from corankone.calculus import is_zero_graded, volume_form
from corankone.cli import bundled_corpus, main
from corankone.invariants import (
    check_transverse_poisson,
    check_weinstein_identity,
    compute_beta,
    compute_mu,
    modular_field,
    unimodularity_check,
)
from corankone.pipeline import analyze, exit_code, render_report
from corankone.problemfile import loads_problem

import bundled
from oracles import rescaled_modular_verdict, schouten_jacobi_verdict, verdict_fields

SEED = 20260809


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number:02d} PASS - {description}")


def random_poly(rng, chart, max_deg=2):
    e = rational(rng.randint(-2, 2))
    for _ in range(rng.randint(1, 3)):
        term = rational(rng.randint(-3, 3))
        for _ in range(rng.randint(0, max_deg)):
            term = term * symbol(rng.choice(chart.coords))
        e = e + term
    return e


def random_form(rng, chart, degree):
    coeffs = {}
    for key in itertools.combinations(range(chart.dim), degree):
        if rng.random() < 0.7:
            coeffs[key] = random_poly(rng, chart)
    return DiffForm(chart, degree, coeffs)


def random_multivector(rng, chart, degree):
    coeffs = {}
    for key in itertools.combinations(range(chart.dim), degree):
        if rng.random() < 0.7:
            coeffs[key] = random_poly(rng, chart)
    return MultiVector(chart, degree, coeffs)


CHARTS = {
    2: Chart(("x", "y")),
    3: Chart(("x", "y", "z")),
    4: Chart(("x", "y", "z", "w")),
}


def test_criterion_01_exterior_calculus_kernel():
    with criterion(1, "d.d = 0, Cartan, wedge sign rule, bracket symmetry+Leibniz"):
        rng = random.Random(SEED)
        instances = 120
        for _ in range(instances):
            chart = CHARTS[rng.randint(2, 4)]
            # d . d = 0
            eta = random_form(rng, chart, rng.randint(0, chart.dim - 1))
            assert ext_deriv(ext_deriv(eta)).is_structural_zero
            # Cartan formula
            v = random_multivector(rng, chart, 1)
            lhs = lie_derivative(v, eta)
            rhs = interior(v, ext_deriv(eta))
            if eta.degree >= 1:
                rhs = rhs + ext_deriv(interior(v, eta))
            assert (lhs - rhs).is_structural_zero
            # graded commutativity of the wedge
            k1, k2 = rng.randint(0, 2), rng.randint(0, 2)
            a, b = random_form(rng, chart, k1), random_form(rng, chart, k2)
            sign = -1 if (k1 * k2) % 2 else 1
            assert (wedge(a, b) - rational(sign) * wedge(b, a)).is_structural_zero
            # Schouten graded symmetry and Leibniz
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            P = random_multivector(rng, chart, p)
            Q = random_multivector(rng, chart, q)
            ssign = -1 if ((p - 1) * (q - 1)) % 2 == 0 else 1
            assert (schouten(P, Q) - rational(ssign) * schouten(Q, P)).is_structural_zero
            R = random_multivector(rng, chart, rng.randint(0, 1))
            lsign = -1 if ((p - 1) * Q.degree) % 2 else 1
            leib = (
                schouten(P, wedge(Q, R))
                - wedge(schouten(P, Q), R)
                - rational(lsign) * wedge(Q, schouten(P, R))
            )
            assert leib.is_structural_zero


def test_criterion_02_jacobi_dual_path():
    with criterion(2, "Schouten and Jacobiator verdicts agree on 60 random bivectors + corpus"):
        rng = random.Random(SEED + 1)
        checked = 0
        for i in range(60):
            chart = CHARTS[rng.randint(3, 4)]
            P = PoissonStructure(
                chart,
                random_multivector(rng, chart, 2),
                tester=ZeroTester(chart, seed=SEED + i),
            )
            assert verdict_fields(P.jacobi_verdict()) == verdict_fields(
                schouten_jacobi_verdict(P)
            )
            checked += 1
        assert checked >= 50
        for e in bundled.all_entries(seed=SEED):
            P = e.structure
            assert verdict_fields(P.jacobi_verdict()) == verdict_fields(
                schouten_jacobi_verdict(P)
            )


def test_criterion_03_affine_example():
    with criterion(3, "affine chart: transversality locus y = 0 and modular field @x"):
        e = bundled.entry("affine", seed=SEED)
        P = e.structure
        assert P.jacobi_verdict().symbolic
        rep = b_transversality_check(P)
        assert rep.verdict.symbolic
        assert rep.locus == "y = 0"
        assert rep.top_coefficient == symbol("y")
        vol = volume_form(P.chart)
        vmod = modular_field(P, vol)
        # exact value, fixed by the divergence computation
        assert vmod == MultiVector(P.chart, 1, {("x",): 1})
        # the Hamiltonian-field characterization: iota_{v_mod}(dx^dy) = d(y)
        assert interior(vmod, vol) == ext_deriv(
            DiffForm(P.chart, 0, {(): "y"})
        )
        # tangency to the zero level set of y
        tangent = vmod(symbol("y")).subs({"y": rational(0)})
        assert tangent.is_structural_zero


def test_criterion_04_t3_example():
    with criterion(4, "torus example: closed pair, unimodular, leafwise identity, extension"):
        e = bundled.entry("t3_example", seed=SEED)
        P = e.structure
        alpha, omega = P.adapted()
        assert ext_deriv(alpha).is_structural_zero
        assert ext_deriv(omega).is_structural_zero
        res = unimodularity_check(P)
        assert res.verdict.symbolic
        assert check_weinstein_identity(P).symbolic
        ext = extend_to_b(P)
        assert ext_deriv(ext.omega_ext).is_structural_zero
        top = power(ext.pi_ext, P.corank_n + 1)
        h = top.coeffs[tuple(range(ext.chart.dim))]
        assert h.subs({"t": rational(0)}).is_structural_zero
        sampler = ZeroTester(ext.chart, seed=SEED + 4)
        for _ in range(10):
            env = sampler.sample()
            assert abs(ext.quotient.evaluate(env)) > 1e-9


def test_criterion_05_modular_field_laws():
    with criterion(5, "modular field preserves volume and bivector; volume-change law"):
        rng = random.Random(SEED + 5)
        for e in bundled.corank_one_entries(seed=SEED):
            P = e.structure
            alpha, _ = P.adapted()
            vol = P.volume()
            vmod = modular_field(P)
            assert lie_derivative(vmod, vol).is_structural_zero, e.name
            assert schouten(vmod, P.bivector).is_structural_zero, e.name
            assert interior(vmod, alpha).scalar().is_structural_zero, e.name
        for name in ("flat", "exp_wall", "t3_example"):
            e = bundled.entry(name, seed=SEED)
            P = e.structure
            vol = P.volume()
            vmod = modular_field(P)
            for _ in range(10):
                g = random_poly(rng, P.chart, max_deg=1)
                shifted = modular_field(P, exp(g) * vol)
                assert (shifted - (vmod - P.hamiltonian_vf(g))).is_structural_zero


def test_criterion_06_unimodularity_equivalence():
    with criterion(6, "class test, certificate test, and rescaled-volume test agree"):
        entries = bundled.corank_one_entries(seed=SEED)
        assert len(entries) >= 6
        assert any(e.expect_unimodular for e in entries)
        assert any(not e.expect_unimodular for e in entries)
        for e in entries:
            P = e.structure
            alpha, _ = P.adapted()
            res = unimodularity_check(
                P,
                certificate=e.problem.first_certificate,
                witness=e.problem.period_witness,
            )
            if e.expect_unimodular:
                assert res.verdict.holds, e.name
                cert = res.certificate
                assert cert is not None and res.certificate_verdict.holds
                # class test on the certified representative
                alpha2 = exp(-cert.f) * alpha
                v2 = exp(cert.f) * P.transversal
                beta2 = compute_beta(alpha2, v2, P.tester)
                assert wedge(beta2, alpha2).is_structural_zero, e.name
                # rescaled-volume modular test
                assert rescaled_modular_verdict(P, cert).holds, e.name
            else:
                assert res.verdict.failed, e.name
                assert res.period is not None and res.period.failed
                beta = res.representative
                assert not wedge(beta, alpha).is_structural_zero
                # no certificate path may claim TRUE
                bare = unimodularity_check(P)
                assert not bare.verdict.holds, e.name


def test_criterion_07_transverse_poisson_both_directions():
    with criterion(7, "Poisson transversal iff closed pair; witness pair detects failure"):
        for name in ("flat", "sheared", "t3_example"):
            P = bundled.entry(name, seed=SEED).structure
            rep = check_transverse_poisson(P)
            assert rep.lv_pi_verdict.symbolic, name
            assert rep.dalpha_verdict.symbolic and rep.domega_verdict.symbolic
            # the forward direction: L_v Pi contracted into the adapted volume
            lv_pi = lie_derivative(P.transversal, P.bivector)
            assert interior(lv_pi, P.volume()).is_structural_zero
            assert rep.equivalence_holds
        e = bundled.entry("exp_wall", seed=SEED)
        P = e.structure
        rep = check_transverse_poisson(P)
        assert rep.dalpha_verdict.failed
        assert rep.lv_pi_verdict.failed
        assert rep.equivalence_holds
        name, pairing = rep.pair_witness
        assert name == "y"
        alpha, _ = P.adapted()
        u = P.hamiltonian_vf(symbol(name))
        # the proof identity: d(alpha)(v, u_f) = -alpha([v, u_f]) here
        bracket_side = -interior(schouten(P.transversal, u), alpha).scalar()
        assert (pairing - bracket_side).is_structural_zero
        assert P.tester.is_zero(pairing).failed


def test_criterion_08_representative_independence():
    with criterion(8, "transformation laws for rescaled alpha and shifted omega"):
        rng = random.Random(SEED + 8)
        xyz = Chart(("x", "y", "z"))
        tester = ZeroTester(xyz, seed=SEED + 8)
        alpha = DiffForm(xyz, 1, {("z",): "exp(x)"})
        v = MultiVector(xyz, 1, {("z",): "exp(-x)"})
        beta = compute_beta(alpha, v, tester)
        for _ in range(10):
            h = random_poly(rng, xyz)
            beta2 = compute_beta(exp(h) * alpha, exp(-h) * v, tester)
            dh = ext_deriv(DiffForm(xyz, 0, {(): h}))
            assert wedge(beta2 - beta - dh, alpha).is_structural_zero
        alpha_c = basis_form(xyz, "z")
        v_c = basis_vector(xyz, "z")
        omega = wedge(basis_form(xyz, "x"), basis_form(xyz, "y"))
        mu = compute_mu(omega, alpha_c, v_c, tester)
        for _ in range(10):
            xi = DiffForm(xyz, 1, {(i,): random_poly(rng, xyz) for i in range(3)})
            mu2 = compute_mu(omega + wedge(xi, alpha_c), alpha_c, v_c, tester)
            assert wedge(mu2 - mu - ext_deriv(xi), alpha_c).is_structural_zero


def test_criterion_09_product_family():
    with criterion(9, "sin factor: critical circles at 0 and pi; constant factor regular"):
        P = bundled.entry("product_sin", seed=SEED + 9).structure
        assert P.jacobi_verdict().holds
        rep = b_transversality_check(P)
        assert rep.verdict.holds
        assert len(rep.points) == 2
        assert abs(rep.points[0].value - 0.0) <= 1e-9
        assert abs(rep.points[1].value - math.pi) <= 1e-9
        assert all(p.linear for p in rep.points)

        const = b_transversality_check(bundled.entry("product_const", seed=SEED + 10).structure)
        assert const.verdict.symbolic
        assert const.points == []
        assert const.locus == "empty"
        # the leaf factor has a Poisson transversal, so both of its
        # invariants vanish with closed representatives
        chart = Chart(("x", "y", "z"))
        leaf = PoissonStructure(
            chart,
            parse_graded("@x^@y", chart, "multivector"),
            transversal=basis_vector(chart, "z"),
            tester=ZeroTester(chart, seed=SEED + 11),
        )
        a, w = leaf.adapted()
        assert ext_deriv(a).is_structural_zero
        assert ext_deriv(w).is_structural_zero
        assert unimodularity_check(leaf).verdict.symbolic


def test_criterion_10_cli_contract():
    with criterion(10, "byte-identical reports for fixed seeds; exit-code contract"):
        for name, text in bundled_corpus():
            p1 = loads_problem(text, path=name)
            p2 = loads_problem(text, path=name)
            r1 = render_report(analyze(p1))
            r2 = render_report(analyze(p2))
            assert r1.encode() == r2.encode(), name
        expected_exit = {
            "affine.prob": 0,
            "exp_wall.prob": 0,
            "flat.prob": 0,
            "product_const.prob": 0,
            "product_sin.prob": 0,
            "sheared.prob": 0,
            "suspension.prob": 1,
            "t3_example.prob": 0,
            "twisted_omega.prob": 0,
        }
        for name, text in bundled_corpus():
            report = analyze(loads_problem(text, path=name))
            assert exit_code(report) == expected_exit[name], name
        assert main(["corpus"]) == 0
