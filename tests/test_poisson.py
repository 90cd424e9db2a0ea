import collections
import itertools
import math
import random
import re
import warnings
from fractions import Fraction

import pytest

from corankone import Chart, ZeroTester, exp, parse_scalar, rational, symbol
from corankone import calculus
from corankone import expr as ex
from corankone import invariants, poisson
from corankone.calculus import (
    DiffForm,
    MultiVector,
    basis_form,
    basis_vector,
    ext_deriv,
    interior,
    lie_derivative,
    power,
    schouten,
    wedge,
)
from corankone.cli import bundled_corpus
from corankone.errors import (
    ChartMismatchError,
    DegenerateError,
    DegreeError,
    InternalCheckError,
    NotCorankOneError,
    NotTransversalError,
    PivotUndecidableError,
    ToolkitWarning,
)
from corankone.expr import ScalarExpr
from corankone.invariants import check_transverse_poisson
from corankone.poisson import (
    PoissonStructure,
    invert_bivector,
    invert_twoform,
    linear_solve,
    skew_matrix,
)
from corankone.pipeline import analyze
from corankone.problemfile import loads_problem

import bundled
from oracles import (
    reference_bracket,
    reference_jacobiator,
    schouten_jacobi_verdict,
    verdict_fields,
)


@pytest.fixture
def xyz():
    return Chart(("x", "y", "z"))


@pytest.fixture
def flat(xyz):
    return PoissonStructure(
        xyz,
        MultiVector(xyz, 2, {("x", "y"): 1}),
        transversal=basis_vector(xyz, "z"),
        tester=ZeroTester(xyz, seed=1),
    )


def t3_structure(seed=5):
    t3 = Chart(
        ("theta1", "theta2", "theta3"),
        periodic=("theta1", "theta2", "theta3"),
        params=("a", "b"),
    )
    Pi = MultiVector(
        t3,
        2,
        {
            ("theta1", "theta2"): "1/(a^2+b^2+1)",
            ("theta1", "theta3"): "b/(a^2+b^2+1)",
            ("theta2", "theta3"): "-a/(a^2+b^2+1)",
        },
    )
    v = MultiVector(t3, 1, {("theta1",): "a", ("theta2",): "b", ("theta3",): -1})
    return PoissonStructure(t3, Pi, transversal=v, tester=ZeroTester(t3, seed=seed))


def dense_structure(seed, dim, params=(), scaled=False):
    """A^B + C^D (+ ...) from the columns of M = U L, the last one the transversal.

    L is unit lower triangular and U upper triangular with a nonzero
    rational diagonal and entries linear in the parameters, so det M is a
    nonzero constant: the bivector has rank dim - 1 everywhere and the
    transversal (scaled by exp(-x1) when asked) is transversal to it.
    """
    rng = random.Random(seed)
    chart = Chart([f"x{i + 1}" for i in range(dim)], params=params)

    def entry():
        return rational(Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3)))

    lower = [[entry() if i > j else rational(int(i == j)) for j in range(dim)] for i in range(dim)]
    upper = [[ex.ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        upper[i][i] = entry()
        for j in range(i + 1, dim):
            upper[i][j] = entry()
            for p in params:
                upper[i][j] = upper[i][j] + entry() * symbol(p)
    cols = []
    for j in range(dim):
        col = {}
        for i in range(dim):
            c = ex.ZERO
            for k in range(max(i, j), dim):
                c = c + upper[i][k] * lower[k][j]
            col[(i,)] = c
        cols.append(MultiVector(chart, 1, col))
    Pi = MultiVector(chart, 2, {})
    for k in range(0, dim - 1, 2):
        Pi = Pi + wedge(cols[k], cols[k + 1])
    v = exp(-symbol("x1")) * cols[-1] if scaled else cols[-1]
    return PoissonStructure(chart, Pi, transversal=v, tester=ZeroTester(chart, seed=seed))


def adapted_structures():
    """Every bundled corank-one structure, and the dense family in dimensions 3, 5 and 7."""
    cases = [pytest.param(e.structure, id=e.name) for e in bundled.corank_one_entries()]
    return cases + [
        pytest.param(dense_structure(3, dim), id=f"dense-dim{dim}") for dim in (3, 5, 7)
    ]


def random_bivector(rng, chart):
    coeffs = {}
    for key in itertools.combinations(range(chart.dim), 2):
        if rng.random() < 0.75:
            e = rational(rng.randint(-2, 2))
            for _ in range(rng.randint(0, 2)):
                e = e * symbol(rng.choice(chart.coords))
            coeffs[key] = e
    return MultiVector(chart, 2, coeffs)


class TestJacobi:
    def test_constant_bivector(self, xyz):
        P = PoissonStructure(xyz, MultiVector(xyz, 2, {("x", "y"): 1}))
        assert P.jacobi_verdict().symbolic

    def test_affine_example(self):
        xy = Chart(("x", "y"))
        P = PoissonStructure(xy, MultiVector(xy, 2, {("x", "y"): "y"}))
        assert P.jacobi_verdict().symbolic

    def test_mixed_bivector_both_paths_agree(self, xyz):
        Pi = MultiVector(xyz, 2, {("x", "y"): "z", ("y", "z"): "x"})
        P = PoissonStructure(xyz, Pi, tester=ZeroTester(xyz, seed=2))
        assert verdict_fields(P.jacobi_verdict()) == verdict_fields(schouten_jacobi_verdict(P))

    def test_non_jacobi_detected_by_both_paths(self, xyz):
        Pi = MultiVector(xyz, 2, {("x", "y"): 1, ("x", "z"): "x"})
        P = PoissonStructure(xyz, Pi, tester=ZeroTester(xyz, seed=3))
        assert P.jacobi_verdict().failed
        assert verdict_fields(P.jacobi_verdict()) == verdict_fields(schouten_jacobi_verdict(P))

    def test_dual_path_agreement_random(self, xyz):
        rng = random.Random(17)
        for i in range(25):
            P = PoissonStructure(
                xyz, random_bivector(rng, xyz), tester=ZeroTester(xyz, seed=100 + i)
            )
            assert verdict_fields(P.jacobi_verdict()) == verdict_fields(
                schouten_jacobi_verdict(P)
            )

    def test_bracket_factor_against_jacobiator(self, xyz):
        # [Pi,Pi](coefficient on @i^@j^@k) == -2 * Jacobiator(x_i, x_j, x_k)
        rng = random.Random(23)
        for _ in range(10):
            Pi = random_bivector(rng, xyz)
            br = schouten(Pi, Pi)
            P = PoissonStructure(xyz, Pi)
            coeff = br.coefficient("x", "y", "z")
            jac = reference_jacobiator(P, "x", "y", "z")
            assert (coeff + rational(2) * jac).is_structural_zero


def count_derives(monkeypatch):
    """Count calls of ScalarExpr.derive from here on (a one-item list)."""
    calls = [0]
    original = ScalarExpr.derive

    def counted(self, name):
        calls[0] += 1
        return original(self, name)

    monkeypatch.setattr(ScalarExpr, "derive", counted)
    return calls


def assert_square_matches_reference(P):
    """Every coefficient of [Pi, Pi], zero ones included, is -2 times the
    reference jacobiator of its coordinates."""
    coords = P.chart.coords
    square = schouten(P.bivector, P.bivector)
    for i, j, k in itertools.combinations(range(P.chart.dim), 3):
        ref = reference_jacobiator(P, coords[i], coords[j], coords[k])
        assert square.coefficient(i, j, k) == rational(-2) * ref, (i, j, k)


class TestCoordinateJacobiator:
    """[Pi, Pi] coefficient by coefficient against the reference
    jacobiator(f, g, h)."""

    @pytest.mark.parametrize("name", [n for n, _ in bundled_corpus()])
    def test_table_matches_reference_on_corpus(self, name):
        text = dict(bundled_corpus())[name]
        assert_square_matches_reference(loads_problem(text, path=name).structure())

    def test_table_matches_reference_on_random_bivectors(self):
        ch = Chart(("x", "y", "z", "w"))
        rng = random.Random(41)
        for _ in range(5):
            assert_square_matches_reference(PoissonStructure(ch, random_bivector(rng, ch)))

    def test_non_poisson_bivector_fails_both_paths(self, xyz):
        Pi = MultiVector(xyz, 2, {("x", "y"): "z", ("x", "z"): "x*y", ("y", "z"): "x"})
        P = PoissonStructure(xyz, Pi, tester=ZeroTester(xyz, seed=1))
        minus_yz = parse_scalar("-y*z", xyz)
        assert reference_jacobiator(P, "x", "y", "z") == minus_yz
        square = MultiVector(xyz, 3, {(0, 1, 2): parse_scalar("2*y*z", xyz)})
        assert schouten(P.bivector, P.bivector) == square
        assert P.jacobi_verdict().failed
        assert schouten_jacobi_verdict(P).failed


class TestDerivativeCounts:
    """Polynomial coefficients: derive makes no recursive calls, so the
    count is the number of first derivatives taken."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: dense_structure(3, 5, params=("a",)),
            lambda: PoissonStructure(
                Chart([f"x{i}" for i in range(5)]),
                random_bivector(random.Random(43), Chart([f"x{i}" for i in range(5)])),
            ),
        ],
        ids=["dense-dim5", "random-dim5"],
    )
    def test_jacobiator_derives_each_coefficient_once(self, monkeypatch, build):
        P = build()
        coords = set(P.chart.coords)
        # each coefficient once by each coordinate it depends on: none for
        # the constant dense structure
        expected = sum(len(c.free_symbols() & coords) for c in P.bivector.coeffs.values())
        calls = count_derives(monkeypatch)
        P.jacobi_verdict()
        assert calls[0] == expected <= P.chart.dim * len(P.bivector.coeffs)

    def test_lie_derivative_derives_each_field_coefficient_once(self, monkeypatch):
        ch = Chart([f"x{i}" for i in range(5)])
        rng = random.Random(47)
        Q = random_bivector(rng, ch)
        v = MultiVector(ch, 1, {(i,): symbol(rng.choice(ch.coords)) ** 2 + i for i in range(5)})
        calls = count_derives(monkeypatch)
        schouten(v, Q)
        assert 0 < calls[0] <= len(v.coeffs) * (len(Q.coeffs) + ch.dim)


class TestHamiltonian:
    def test_constant_function(self, flat):
        assert flat.hamiltonian_vf(rational(5)).is_structural_zero

    def test_affine_u_x(self):
        xy = Chart(("x", "y"))
        P = PoissonStructure(xy, MultiVector(xy, 2, {("x", "y"): "y"}))
        assert P.hamiltonian_vf("x") == MultiVector(xy, 1, {("y",): "y"})

    def test_standard_u_y_and_volume_preservation(self):
        xy = Chart(("x", "y"))
        P = PoissonStructure(xy, MultiVector(xy, 2, {("x", "y"): 1}))
        u = P.hamiltonian_vf("y")
        assert u == -basis_vector(xy, "x")
        vol = wedge(basis_form(xy, "x"), basis_form(xy, "y"))
        assert lie_derivative(u, vol).is_structural_zero

    def test_pairing_reproduces_bracket(self, xyz):
        rng = random.Random(19)
        for _ in range(10):
            Pi = random_bivector(rng, xyz)
            P = PoissonStructure(xyz, Pi)
            f = symbol(rng.choice(xyz.coords)) * symbol(rng.choice(xyz.coords))
            g = symbol(rng.choice(xyz.coords)) + rational(rng.randint(-2, 2))
            lhs = P.hamiltonian_vf(f)(g)
            assert (lhs - reference_bracket(P, f, g)).is_structural_zero

    def test_leibniz_in_the_hamiltonian_slot(self, xyz):
        rng = random.Random(29)
        Pi = random_bivector(rng, xyz)
        P = PoissonStructure(xyz, Pi)
        for _ in range(10):
            f = symbol(rng.choice(xyz.coords)) * rational(rng.randint(1, 3))
            g = symbol(rng.choice(xyz.coords)) ** 2
            lhs = P.hamiltonian_vf(f * g)
            rhs = f * P.hamiltonian_vf(g) + g * P.hamiltonian_vf(f)
            assert (lhs - rhs).is_structural_zero

    def test_poisson_transversal_normalizes_hamiltonians(self, xyz):
        # [v, u_f] = u_{v(f)} whenever v preserves the bivector
        from corankone.calculus import schouten

        cases = [
            (
                PoissonStructure(
                    xyz,
                    MultiVector(xyz, 2, {("x", "y"): 1}),
                    transversal=MultiVector(xyz, 1, {("z",): 1, ("x",): "y"}),
                ),
                ("x", "y", "z", "x^2 + y*z"),
            ),
            (t3_structure(), ("theta1", "theta2", "theta3")),
        ]
        for P, functions in cases:
            v = P.transversal
            assert schouten(v, P.bivector).is_structural_zero
            for text in functions:
                f = parse_scalar(text, P.chart)
                lhs = schouten(v, P.hamiltonian_vf(f))
                rhs = P.hamiltonian_vf(v(f))
                assert (lhs - rhs).is_structural_zero, text


class TestCorankEvidence:
    def test_t3_nonvanishing(self):
        P = t3_structure()
        n, _, nonvanishing = P.corank_evidence()
        assert n == 1
        assert nonvanishing

    def test_affine_vanishes_on_axis(self):
        xy = Chart(("x", "y"))
        P = PoissonStructure(
            xy, MultiVector(xy, 2, {("x", "y"): "y"})
        )
        _, top, _ = P.corank_evidence()
        assert top == P.bivector
        # generically nonzero, but vanishing exactly on y = 0
        coeff = top.coefficient("x", "y")
        assert coeff.subs({"y": rational(0)}).is_structural_zero

    def test_zero_bivector_degenerate(self, xyz):
        P = PoissonStructure(xyz, MultiVector(xyz, 2, {}))
        _, _, nonvanishing = P.corank_evidence()
        assert not nonvanishing

    def test_small_scale_is_not_vanishing(self):
        # a top power of 1e-10 everywhere is nonzero relative to its own terms,
        # as the Pfaffian of the adapted check says symbolically
        text = dict(bundled_corpus())["flat.prob"].replace(
            'bivector "1" x y', 'bivector "1/10000000000" x y'
        )
        report = analyze(loads_problem(text))
        assert report["analyses"]["corank"]["verdict"] == "probably-true"
        assert report["analyses"]["adapted"]["verdict"] == "true"


class TestAdaptedForms:
    def test_flat_case(self, flat):
        alpha, omega = flat.adapted()
        assert alpha == basis_form(flat.chart, "z")
        assert omega == wedge(basis_form(flat.chart, "x"), basis_form(flat.chart, "y"))

    def test_t3_recovers_paper_pair(self):
        P = t3_structure()
        alpha, omega = P.adapted()
        assert str(alpha) == (
            "a/(a^2 + b^2 + 1) dtheta1 + b/(a^2 + b^2 + 1) dtheta2 - 1/(a^2 + b^2 + 1) dtheta3"
        )
        assert str(omega) == "dtheta1^dtheta2 + b dtheta1^dtheta3 - a dtheta2^dtheta3"
        # the defining pairings of the transversal, exactly
        assert interior(P.transversal, alpha).scalar() == rational(1)
        assert interior(P.transversal, omega).is_structural_zero

    @pytest.mark.parametrize("P", adapted_structures())
    def test_postcondition_identity(self, P):
        # the wedge identity and the pairings with v, the reference for the
        # bordered-dual check, and the volume read off its Pfaffian
        alpha, omega = P.adapted()
        n = P.corank_n
        volume = wedge(alpha, power(omega, n))
        lhs = interior(P.bivector, volume)
        rhs = rational(n) * wedge(alpha, power(omega, n - 1))
        assert (lhs - rhs).is_structural_zero
        assert interior(P.transversal, alpha).scalar() == rational(1)
        assert interior(P.transversal, omega).is_structural_zero
        assert P.volume() == volume

    @pytest.mark.parametrize(
        "build",
        [
            t3_structure,
            lambda: bundled.entry("exp_wall").structure,
            lambda: dense_structure(3, 5),
        ],
        ids=["t3", "exp_wall", "dense-dim5"],
    )
    def test_perturbed_declared_pair_refused(self, build):
        # one entry of a declared alpha or omega off by one: the bordered
        # dual no longer gives back Pi + v ^ @s
        alpha, omega = build().adapted()
        perturbed = [(a, omega) for a in self._bumped(alpha)]
        perturbed += [(alpha, o) for o in self._bumped(omega)]
        for alpha_bad, omega_bad in perturbed:
            P = build()
            P.alpha, P.omega = alpha_bad, omega_bad
            with pytest.raises(InternalCheckError, match="fails its defining identities"):
                P.adapted()

    @staticmethod
    def _bumped(form):
        """form with one coefficient raised by one, for every coefficient."""
        for key in itertools.combinations(range(form.chart.dim), form.degree):
            yield form + DiffForm(form.chart, form.degree, {key: 1})

    @pytest.mark.parametrize(
        "declared, error",
        [
            ({"alpha": ("uvw", 1, {("w",): 1}), "omega": ("uvw", 2, {("u", "v"): 1})},
             ChartMismatchError),
            ({"transversal": ("xyzpq", 1, {("z",): 1})}, ChartMismatchError),
            ({"transversal": ("uvw", 1, {("w",): 1})}, ChartMismatchError),
            ({"transversal": ("xyz", 2, {("x", "y"): 1})}, DegreeError),
            ({"alpha": ("xyz", 2, {("x", "y"): 1}), "omega": ("xyz", 2, {("x", "y"): 1})},
             DegreeError),
            ({"alpha": ("xyz", 1, {("z",): 1}), "omega": ("xyz", 1, {("x",): 1})},
             DegreeError),
        ],
        ids=["pair-on-uvw", "transversal-on-5-chart", "transversal-on-uvw",
             "transversal-degree-2", "alpha-degree-2", "omega-degree-1"],
    )
    def test_foreign_chart_or_degree_rejected(self, xyz, declared, error):
        # a transversal or declared pair is checked like the bivector: on its
        # chart and at its degree, before adapted() ever reads it
        charts = {"xyz": xyz, "uvw": Chart(("u", "v", "w")), "xyzpq": Chart(tuple("xyzpq"))}
        kwargs = {}
        for name, (chart, degree, coeffs) in declared.items():
            cls = MultiVector if name == "transversal" else DiffForm
            kwargs[name] = cls(charts[chart], degree, coeffs)
        with pytest.raises(error):
            PoissonStructure(xyz, MultiVector(xyz, 2, {("x", "y"): 1}), **kwargs)

    def test_tangent_transversal_rejected(self, xyz):
        P = PoissonStructure(
            xyz,
            MultiVector(xyz, 2, {("x", "y"): 1}),
            transversal=basis_vector(xyz, "x"),
            tester=ZeroTester(xyz, seed=4),
        )
        with pytest.raises(NotTransversalError):
            P.adapted()

    def test_sheared_transversal(self, xyz):
        # v = dz + y dx is Poisson for the flat structure; adapted pair exists
        v = basis_vector(xyz, "z") + MultiVector(xyz, 1, {("x",): "y"})
        P = PoissonStructure(
            xyz,
            MultiVector(xyz, 2, {("x", "y"): 1}),
            transversal=v,
            tester=ZeroTester(xyz, seed=5),
        )
        alpha, omega = P.adapted()
        assert alpha == basis_form(xyz, "z")
        assert str(omega) == "dx^dy + y dy^dz"

    @pytest.mark.parametrize(
        "coords, bivector, transversal, error",
        [
            ("x y z", {}, "z", NotCorankOneError),
            ("a b c d e", {("a", "b"): 1}, "e", NotCorankOneError),
            ("x y z w", {("x", "y"): 1}, "z", NotCorankOneError),
            ("x y", {("x", "y"): 1}, "x", NotTransversalError),
        ],
    )
    def test_singular_border_error(self, coords, bivector, transversal, error):
        # a singular Pi + v ^ @s means v is tangent when Pi has the largest
        # rank it can have, and a kernel of the wrong size otherwise
        chart = Chart(coords.split())
        P = PoissonStructure(
            chart,
            MultiVector(chart, 2, bivector),
            transversal=basis_vector(chart, transversal),
            tester=ZeroTester(chart, seed=4),
        )
        message = (
            "kernel of Pi does not have the expected dimension"
            if error is NotCorankOneError
            else "the transversal condition alpha(v) = 1 is unsolvable"
        )
        with pytest.raises(error, match=re.escape(message)):
            P.adapted()

    def test_undecidable_border_aborts(self, xyz):
        # log(-1 - x^2) is singular at every sample point, so the Pfaffian
        # of the bordered bivector gets an UNKNOWN verdict
        v = MultiVector(xyz, 1, {("z",): "log(-1 - x^2)"})
        P = PoissonStructure(
            xyz, MultiVector(xyz, 2, {("x", "y"): 1}), transversal=v, tester=ZeroTester(xyz, seed=4)
        )
        with pytest.raises(PivotUndecidableError):
            P.adapted()

    def test_pair_of_a_bivector_that_is_not_poisson(self, monkeypatch):
        # @x^@y + y @y^@z has constant rank 2, but [Pi, Pi] != 0: adapted()
        # does not test Jacobi and gives the bordered pair all the same, while
        # the pipeline, which tests Jacobi first, skips the analyses of the pair
        text = "\n".join([
            "section chart", "  coords x y z", "section structure", '  bivector "1" x y',
            '  bivector "y" y z', '  transversal "1" z', "section analyses", "  adapted", "  beta",
        ])
        P = loads_problem(text).structure()
        monkeypatch.setattr(PoissonStructure, "jacobi_verdict", None)  # a call would raise
        alpha, omega = P.adapted()
        assert str(alpha) == "y dx + dz" and str(omega) == "dx^dy"
        assert P.adapted_verdict.symbolic
        monkeypatch.undo()
        assert P.jacobi_verdict().failed
        for name in ("adapted", "beta"):
            entry = analyze(loads_problem(text))["analyses"][name]
            assert entry == {"status": "skipped", "verdict": "skipped",
                             "detail": "Jacobi identity fails"}, name


class TestAdaptedVolume:
    """adapted() fixes the volume from the Pfaffian of its own check."""

    @pytest.mark.parametrize(
        "build",
        [t3_structure, lambda: dense_structure(3, 5, params=("a",))],
        ids=["t3", "dense-dim5"],
    )
    def test_volume_needs_no_wedge_after_adapted(self, monkeypatch, build):
        P = build()
        calls = [0]

        def counted(a, b):
            calls[0] += 1
            return wedge(a, b)

        monkeypatch.setattr(calculus, "wedge", counted)
        monkeypatch.setattr(poisson, "wedge", counted, raising=False)
        alpha, omega = P.adapted()
        volume = P.volume()
        assert calls[0] == 0
        monkeypatch.undo()
        assert volume == wedge(alpha, power(omega, P.corank_n))


class TestExactByConstruction:
    """The identities a computed adapted pair satisfies by construction.

    adapted() takes the pair off the exact Pfaffian-minor inverse of
    A = Pi + v ^ @s and its volume off 1 / Pf(A), with no second inverse;
    these tests hold what that second inverse used to re-derive on every run.
    """

    @pytest.mark.parametrize("P", adapted_structures())
    def test_bordered_dual_inverts_back(self, P):
        alpha, omega, pf = P._bordered_pair()
        ext = P.chart.with_coordinate("s")
        ds, at_s = basis_form(ext, "s"), basis_vector(ext, "s")
        bordered_form = DiffForm(ext, 2, dict(omega.coeffs)) + wedge(
            DiffForm(ext, 1, dict(alpha.coeffs)), ds
        )
        bordered_bivector = MultiVector(ext, 2, dict(P.bivector.coeffs)) + wedge(
            MultiVector(ext, 1, dict(P.transversal.coeffs)), at_s
        )
        assert invert_twoform(bordered_form, ZeroTester(ext, seed=3)) == bordered_bivector
        # Pf(A^-T) * Pf(A) == 1, hence the volume n! / Pf(A)
        _, pf_dual = poisson._skew_inverse(skew_matrix(bordered_form))
        assert pf_dual * pf == ex.ONE
        assert pf_dual == poisson._skew_inverse(poisson._bordered(omega, alpha))[1]

    @pytest.mark.parametrize("P", adapted_structures())
    def test_cartan_expansion_on_coordinate_hamiltonians(self, P):
        # d(alpha)(v, u_f) = v(alpha(u_f)) - u_f(alpha(v)) - alpha([v, u_f])
        alpha, _ = P.adapted()
        v = P.transversal
        v_dalpha = interior(v, ext_deriv(alpha))
        alpha_v = interior(v, alpha).scalar()
        for name in P.chart.coords:
            u = P.hamiltonian_vf(symbol(name))
            direct = interior(u, v_dalpha).scalar()
            expanded = (
                v(interior(u, alpha).scalar())
                - u(alpha_v)
                - interior(schouten(v, u), alpha).scalar()
            )
            assert (direct - expanded).is_structural_zero, name


class TestInversionCounts:
    """A computed pair is inverted once; a declared half is checked by a second inverse."""

    @pytest.fixture
    def inversions(self, monkeypatch):
        calls = [0]
        original = poisson._skew_inverse

        def counted(matrix):
            calls[0] += 1
            return original(matrix)

        monkeypatch.setattr(poisson, "_skew_inverse", counted)
        return calls

    def test_computed_pair_inverts_once(self, inversions):
        P = dense_structure(3, 5)
        P.adapted()
        assert inversions[0] == 1
        assert P.adapted_verdict.symbolic

    def test_half_declared_pair_inverts_twice(self, inversions):
        alpha, omega = dense_structure(3, 5).adapted()
        inversions[0] = 0
        for declared in ({"alpha": alpha}, {"omega": omega}):
            P = dense_structure(3, 5)
            P.alpha, P.omega = declared.get("alpha"), declared.get("omega")
            P.adapted()
            assert inversions[0] == 2, declared
            inversions[0] = 0

    def test_declared_pair_is_inverted_back(self, inversions):
        alpha, omega = dense_structure(3, 5).adapted()
        inversions[0] = 0
        P = dense_structure(3, 5)
        P.alpha, P.omega = alpha, omega
        P.adapted()
        # no bordered pair to read off, only the check of the declared one
        assert inversions[0] == 1

    def test_refused_pair_inverts_once(self, inversions):
        # the structure keeps a refused pair: neither the analyses that need
        # it nor later adapted() calls invert the bordered bivector again
        problem = loads_problem("\n".join([
            "section chart", "  coords x y z", "section structure", '  bivector "1" x y',
            '  transversal "1" x', "section analyses", "  adapted", "  beta", "  mu",
            "  modular", "  weinstein",
        ]))
        detail = "the transversal condition alpha(v) = 1 is unsolvable"
        for entry in analyze(problem)["analyses"].values():
            assert entry == {"status": "skipped", "verdict": "skipped", "detail": detail}
        assert inversions[0] == 1
        P = problem.structure()
        for _ in range(3):
            with pytest.raises(NotTransversalError, match=re.escape(detail)):
                P.adapted()
        assert inversions[0] == 2
        assert P.adapted_verdict is None


def pfaffian_reference(m):
    """Pfaffian by row expansion of explicit minors, with no sharing."""
    if not m:
        return ex.ONE
    total = ex.ZERO
    for j in range(1, len(m)):
        rest = [k for k in range(1, len(m)) if k != j]
        minor = [[m[r][c] for c in rest] for r in rest]
        total = total + (-1) ** (j - 1) * m[0][j] * pfaffian_reference(minor)
    return total


def random_skew(rng, n, param=None):
    """Seeded skew matrix; with a parameter name, some entries are linear in it."""
    m = [[ex.ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            if param is not None and rng.random() < 0.4:
                c = c + rational(rng.randint(1, 2)) * symbol(param)
            m[i][j] = c
            m[j][i] = -c
    return m


class TestSkewInverse:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("param", [None, "a"], ids=["rational", "one-parameter"])
    def test_inverse_and_pfaffian(self, n, param):
        m = random_skew(random.Random(100 + n), n, param)
        inv, pf = poisson._skew_inverse(m)
        assert pf == pfaffian_reference(m)
        assert not pf.is_structural_zero
        for i in range(n):
            for j in range(n):
                entry = ex.ZERO
                for k in range(n):
                    entry = entry + m[i][k] * inv[k][j]
                assert entry == (ex.ONE if i == j else ex.ZERO), (i, j)

    def test_singular_and_odd_matrices(self):
        zero = [[ex.ZERO] * 4 for _ in range(4)]
        assert poisson._skew_inverse(zero) == (None, ex.ZERO)
        assert poisson._skew_inverse(random_skew(random.Random(1), 3)) == (None, ex.ZERO)

    @staticmethod
    def count_expansions(monkeypatch, m):
        """{index tuple: times expanded} and the rings of the expansion."""
        expanded = collections.Counter()
        rings = set()
        original = poisson._pfaffian

        def counted(matrix, idx, memo):
            rings.add(type(memo[()]))
            if idx and idx not in memo:
                expanded[idx] += 1
            return original(matrix, idx, memo)

        monkeypatch.setattr(poisson, "_pfaffian", counted)
        poisson._skew_inverse(m)
        return expanded, rings

    def test_each_index_tuple_expanded_once(self, monkeypatch):
        # integer denominators: the expansion runs over integer polynomials
        expanded, rings = self.count_expansions(monkeypatch, random_skew(random.Random(7), 8, "a"))
        assert rings == {dict}
        # the full matrix and all of its 28 (n-2)-minors were asked for
        assert tuple(range(8)) in expanded
        assert sum(len(idx) == 6 for idx in expanded) == 28
        assert max(expanded.values()) == 1

    def test_each_index_tuple_expanded_once_over_expressions(self, monkeypatch):
        # a denominator of several terms keeps the expansion over ScalarExpr
        den = symbol("a") ** 2 + rational(1)
        m = [[e / den for e in row] for row in random_skew(random.Random(7), 8, "a")]
        expanded, rings = self.count_expansions(monkeypatch, m)
        assert rings == {ScalarExpr}
        assert tuple(range(8)) in expanded
        assert sum(len(idx) == 6 for idx in expanded) == 28
        assert max(expanded.values()) == 1


def pfaffian_rings(monkeypatch):
    """The rings every later Pfaffian expansion runs over, as a growing set."""
    rings = set()
    original = poisson._pfaffian

    def spy(matrix, idx, memo):
        rings.add(type(memo[()]))
        return original(matrix, idx, memo)

    monkeypatch.setattr(poisson, "_pfaffian", spy)
    return rings


class TestFactoredBorder:
    """v = lam v0 with a rational Pi and v0 and a monomial lam: the bordered
    matrix is D B0 D with D = diag(1, ..., 1, lam), so the pair is
    (alpha0 / lam, omega0) and Pf = lam Pf0, with B0 inverted over ints."""

    @pytest.mark.parametrize("lam", ["exp(-x1)", "exp(x1*x2)", "x1^2", "1/x2"])
    @pytest.mark.parametrize("dim", [3, 5, 7])
    def test_pair_matches_the_unfactored_inverse(self, monkeypatch, dim, lam):
        rng = random.Random(dim)
        chart = Chart([f"x{i + 1}" for i in range(dim)])

        def entry():
            return rational(Fraction(rng.randint(-4, 4), rng.randint(1, 5)))

        Pi = MultiVector(chart, 2, {key: entry() for key in itertools.combinations(range(dim), 2)})
        v0 = MultiVector(chart, 1, {(i,): entry() for i in range(dim)})
        scale = parse_scalar(lam, chart)
        v = v0 * scale
        # the oracle: the bordered matrix of v itself, expanded unfactored
        inv, pf = poisson._skew_inverse(poisson._bordered(Pi, v))
        _, pf0 = poisson._skew_inverse(poisson._bordered(Pi, v0))
        assert inv is not None and pf == scale * pf0
        rings = pfaffian_rings(monkeypatch)
        P = PoissonStructure(chart, Pi, transversal=v, tester=ZeroTester(chart, seed=dim))
        alpha, omega = P.adapted()
        assert rings == {int}
        assert alpha == DiffForm(chart, 1, {(i,): inv[dim][i] for i in range(dim)})
        assert omega == poisson._from_inverse(DiffForm, chart, inv)
        n = dim // 2
        assert P._volume_factor == rational(math.factorial(n)) / (scale * pf0)

    def test_parametric_border_is_not_factored(self, monkeypatch):
        # dense-d5-p1-exp's shape: Pi linear in a, v = exp(-x1) v0
        P = dense_structure(4, 5, params=("a",), scaled=True)
        assert poisson._monomial_scale(P.bivector, P.transversal) == (ex.ONE, P.transversal)
        rings = pfaffian_rings(monkeypatch)
        alpha, omega = P.adapted()
        assert rings == {dict}
        inv, _ = poisson._skew_inverse(poisson._bordered(P.bivector, P.transversal))
        assert omega == poisson._from_inverse(DiffForm, P.chart, inv)

    def test_no_shared_monomial_is_not_factored(self):
        chart = Chart(("x", "y", "z"))
        Pi = MultiVector(chart, 2, {("x", "y"): 1})
        for v in ({("x",): "exp(x)", ("z",): "2*exp(-x)"}, {("x",): "y", ("z",): "y + 1"},
                  {("z",): "1"}, {("z",): "1/(x + 1)"},
                  {("x",): "1/(1 + x^2)", ("z",): "3/(1 + x^2)"}):
            v = MultiVector(chart, 1, v)
            assert poisson._monomial_scale(Pi, v) == (ex.ONE, v), v

    @pytest.mark.parametrize("scale", ["1/(x + 1)", "1/(1 + x^2)"])
    def test_shared_denominator_of_several_terms(self, scale):
        # every coefficient of v over one denominator of several terms: v is
        # inverted as it stands
        chart = Chart(("x", "y", "z"))
        Pi = MultiVector(chart, 2, {("x", "y"): 1})
        v = MultiVector(chart, 1, {("y",): f"2*{scale}", ("z",): scale})
        P = PoissonStructure(chart, Pi, transversal=v, tester=ZeroTester(chart, seed=0))
        alpha, omega = P.adapted()
        lam = parse_scalar(scale, chart)
        assert alpha == DiffForm(chart, 1, {("z",): ex.ONE / lam})
        assert omega == DiffForm(chart, 2, {("x", "y"): 1, ("x", "z"): "-2"})


class TestBorderedAgainstLinearSolve:
    @pytest.mark.parametrize("dim", [3, 5])
    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_alpha_solves_kernel_system(self, dim, scaled, seed):
        P = dense_structure(seed, dim, scaled=scaled)
        alpha, _ = P.adapted()
        # Pi alpha = 0 and alpha(v) = 1 by exact elimination
        rows = skew_matrix(P.bivector)
        rows.append([P.transversal.coeffs.get((i,), ex.ZERO) for i in range(dim)])
        solution = linear_solve(rows, [ex.ZERO] * dim + [ex.ONE], P.tester)
        for i, s in enumerate(solution):
            assert (alpha.coeffs.get((i,), ex.ZERO) - s).is_structural_zero

    def test_two_parameters_in_dimension_5(self):
        # adapted() checks the defining identities of the pair before it returns
        P = dense_structure(11, 5, params=("a", "b"))
        alpha, _ = P.adapted()
        assert interior(P.transversal, alpha).scalar() == rational(1)


class TestInvertTwoform:
    def test_standard_area_form(self):
        xy = Chart(("x", "y"))
        om = wedge(basis_form(xy, "x"), basis_form(xy, "y"))
        assert invert_twoform(om) == MultiVector(xy, 2, {("x", "y"): 1})

    def test_scaled_form(self):
        xy = Chart(("x", "y"))
        om = DiffForm(xy, 2, {("x", "y"): "1 + x^2"})
        assert invert_twoform(om) == MultiVector(xy, 2, {("x", "y"): "1/(1+x^2)"})

    def test_flat_extension_dual(self):
        ch = Chart(("x", "y", "z", "t"), domains={"t": (0.05, 1.0)})
        om = DiffForm(ch, 2, {("x", "y"): 1, ("t", "z"): "1/t"})
        Pi = invert_twoform(om, ZeroTester(ch, seed=6))
        assert str(Pi) == "@x^@y - t @z^@t"

    def test_round_trip_dimension_2_and_4(self):
        rng = random.Random(31)
        for dim, names in ((2, ("x", "y")), (4, ("x", "y", "z", "w"))):
            ch = Chart(names)
            for i in range(8):
                coeffs = {}
                for key in itertools.combinations(range(dim), 2):
                    coeffs[key] = rational(rng.randint(1, 3)) + symbol(
                        rng.choice(names)
                    ) ** 2
                om = DiffForm(ch, 2, coeffs)
                tester = ZeroTester(ch, seed=200 + i)
                try:
                    Pi = invert_twoform(om, tester)
                except DegenerateError:
                    continue
                back = invert_bivector(Pi, tester)
                assert (back - om).is_structural_zero

    def test_degenerate_rejected(self):
        ch = Chart(("x", "y", "z", "w"))
        om = wedge(basis_form(ch, "x"), basis_form(ch, "y"))  # rank 2 only
        with pytest.raises(DegenerateError):
            invert_twoform(om, ZeroTester(ch, seed=7))


class TestLinearSolve:
    def test_simple_system(self, xyz):
        tester = ZeroTester(xyz, seed=8)
        x = symbol("x")
        rows = [[x + 1, rational(0)], [rational(1), rational(1)]]
        rhs = [x + 1, rational(3)]
        sol = linear_solve(rows, rhs, tester)
        assert sol[0] == rational(1)
        assert sol[1] == rational(2)

    def test_unknown_pivot_aborts(self):
        ch = Chart(("x",))
        tester = ZeroTester(ch, seed=9)
        # sin^2 + cos^2 - 1 is probably-zero: skipped as a pivot; the system
        # then has no usable pivot at all, which surfaces as underdetermined.
        probably_zero = parse_scalar("sin(x)^2 + cos(x)^2 - 1", ch)
        from corankone.errors import LinearSolveError

        with pytest.raises(LinearSolveError):
            linear_solve([[probably_zero]], [rational(1)], tester)


def transverse_cases():
    """The bundled corank-one structures with their declared two-forms, and
    dense members in dimensions 3, 5 and 7, unscaled and exp-scaled."""
    cases = [
        pytest.param(e.structure, [e.problem.omega_alt], id=e.name)
        for e in bundled.corank_one_entries()
    ]
    return cases + [
        pytest.param(dense_structure(seed, dim, scaled=scaled), [], id=f"dense-{seed}-{dim}-{scaled}")
        for seed in (1, 2) for dim in (3, 5, 7) for scaled in (False, True)
    ]


class TestTransverseRepresentatives:
    """beta and mu are built as -iota_v d(alpha) and iota_v d(omega), so they
    are their own transverse parts, which the obstruction searches and the
    transverse-Poisson witness use as they are."""

    @pytest.mark.parametrize("P, omegas", transverse_cases())
    def test_beta_and_mu_are_transverse(self, P, omegas):
        alpha, omega = P.adapted()
        v, beta = P.transversal, P.beta()
        assert interior(v, beta).is_structural_zero
        assert (interior(v, ext_deriv(alpha)) + beta).is_structural_zero
        for two_form in [omega, *filter(None, omegas)]:
            with warnings.catch_warnings():
                # a formal mu over a non-closed alpha is still transverse
                warnings.simplefilter("ignore", ToolkitWarning)
                mu = P.mu(two_form)
            assert interior(v, mu).is_structural_zero

    def test_witness_pairings_are_read_off_beta(self, monkeypatch):
        P = dense_structure(1, 5, scaled=True)
        alpha, _ = P.adapted()
        # the pairings d(alpha)(v, u_x) the witness is named by, one Hamiltonian
        # field per coordinate
        v_dalpha = interior(P.transversal, ext_deriv(alpha))
        expected = next(
            (name, pairing)
            for name in P.chart.coords
            for pairing in [interior(P.hamiltonian_vf(symbol(name)), v_dalpha).scalar()]
            if P.tester.is_zero(pairing).failed
        )
        P.beta()
        counts = {"interior": 0, "hamiltonian_vf": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(invariants, "interior", counted("interior", invariants.interior))
        hamiltonian_vf = counted("hamiltonian_vf", PoissonStructure.hamiltonian_vf)
        monkeypatch.setattr(PoissonStructure, "hamiltonian_vf", hamiltonian_vf)
        rep = check_transverse_poisson(P)
        assert counts == {"interior": 0, "hamiltonian_vf": 0}
        assert rep.pair_witness == expected
