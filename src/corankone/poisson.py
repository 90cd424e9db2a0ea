"""Poisson-structure analysis on a chart.

Pinned conventions (see the test suite):

* Hamiltonian vector fields contract the differential into the first
  slot: ``u_f = Pi(df, .)``, so that ``u_f(g) == {f, g}``;
* ``invert_twoform`` returns the bivector whose coefficient matrix is the
  transposed inverse of the 2-form's coefficient matrix.  This is the
  unique choice under which the adapted identity
  ``interior(Pi, alpha ^ omega**n) == n alpha ^ omega**(n-1)`` and the
  restriction behaviour of the b-extension both hold with no stray signs.
  On the chart extended by s, the adapted pair is read off the dual of
  ``Pi + v ^ @s``; that pair is exact by construction, and only a
  declared pair is checked by the dual of ``omega + alpha ^ ds``.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from itertools import combinations

from . import expr as ex
from .calculus import (
    DiffForm,
    MultiVector,
    _covector_contract,
    ext_deriv,
    is_zero_graded,
    power,
    scalar_form,
    schouten,
    volume_form,
)
from .errors import (
    ChartMismatchError,
    DegenerateError,
    DegreeError,
    InternalCheckError,
    LinearSolveError,
    NotCorankOneError,
    NotTransversalError,
    PivotUndecidableError,
    ToolkitError,
)
from .expr import Chart, ScalarExpr, Verdict, ZeroTester


# ---------------------------------------------------------------------------
# exact linear algebra over the expression field


def linear_solve(rows, rhs, tester: ZeroTester):
    """Solve A x = b over the expression field by exact Gaussian elimination.

    Pivots are chosen by zero verdicts: a definitely-nonzero entry is
    eliminated with; entries judged zero are skipped; an entry whose
    verdict is UNKNOWN aborts with a diagnostic rather than guessing.
    Raises LinearSolveError("inconsistent") when no solution exists and
    LinearSolveError("underdetermined") when the solution is not unique.
    """
    m = len(rows)
    rows = [list(r) for r in rows]
    rhs = list(rhs)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            v = tester.is_zero(rows[i][c])
            if v.failed:
                pivot_row = i
                break
            if v.kind is ex.VerdictKind.UNKNOWN:
                raise PivotUndecidableError(
                    f"pivot candidate at row {i}, column {c} has an UNKNOWN zero verdict"
                )
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        rhs[r], rhs[pivot_row] = rhs[pivot_row], rhs[r]
        piv = rows[r][c]
        for i in range(m):
            if i == r:
                continue
            factor = rows[i][c] / piv
            if factor.is_structural_zero:
                continue
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
            rhs[i] = rhs[i] - factor * rhs[r]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if not tester.is_zero(rhs[i]).holds:
            raise LinearSolveError("inconsistent")
    if len(pivots) < n:
        raise LinearSolveError("underdetermined")
    x = [ex.ZERO] * n
    for row, col in pivots:
        x[col] = rhs[row] / rows[row][col]
    return x


# the rings the Pfaffian expansion runs over: (zero, mul, add, sub)
_RINGS = {
    ScalarExpr: (ex.ZERO, operator.mul, operator.add, operator.sub),
    dict: ({}, ex._p_mul, ex._p_add, ex._p_sub),
    int: (0, operator.mul, operator.add, operator.sub),
}


def _pfaffian(matrix, idx, memo):
    """Pfaffian of the skew submatrix on the index tuple, by row expansion.

    The entries above the diagonal are ScalarExprs, packed integer
    polynomials or ints; memo[()] holds the ring's one.  Every sub-Pfaffian
    is kept in memo, so the overlapping minors of one matrix share them.
    """
    total = memo.get(idx)
    if total is not None:
        return total
    zero, mul, add, sub = _RINGS[type(memo[()])]
    row = matrix[idx[0]]
    total = zero
    for jpos in range(1, len(idx)):
        entry = row[idx[jpos]]
        if entry:
            term = mul(entry, _pfaffian(matrix, idx[1:jpos] + idx[jpos + 1 :], memo))
            total = sub(total, term) if (jpos - 1) % 2 else add(total, term)
    memo[idx] = total
    return total


def _cleared(matrix):
    """(gens, D, D M) for a matrix M of entries with one-term denominators:
    D is their lcm, and D M holds packed integer polynomials in gens, the
    entries' generators, above the diagonal."""
    gens = tuple(sorted({g for row in matrix for e in row for g in e.gens}, key=ex._gen_key))
    pos, w, n = {g: i for i, g in enumerate(gens)}, len(gens), len(matrix)
    upper = {(i, j): ex._lift(matrix[i][j], pos, w) for i in range(n) for j in range(i + 1, n)}
    dens = [next(iter(den.items())) for _, den in upper.values()]
    lcm = math.lcm(*(c for _, c in dens))
    top = ex._pack([max(col) for col in zip(*(ex._unpack(mono, w) for mono, _ in dens))])
    scaled = [[{}] * n for _ in range(n)]
    for (i, j), (num, den) in upper.items():
        ((mono, c),) = den.items()
        scaled[i][j] = ex._p_mul(num, {top - mono: lcm // c})
    return gens, {top: lcm}, scaled


def _skew_inverse(matrix):
    """Inverse of a skew-symmetric matrix via Pfaffian minors.

    (M^-1)_{ij} = (-1)^(i+j) Pf(M without rows/cols i, j) / Pf(M) for i < j;
    this keeps the entries in already-reduced form, unlike adjugate/det.
    The full Pfaffian and its minors share one memo of sub-Pfaffians.

    With D the lcm of the denominators and n = 2m, Pf(M) = Pf(D M) / D^m
    and (M^-1)_{ij} = +-Pf_ij(D M) D / Pf(D M), each normalized once.  A
    matrix of rational constants, of any size, is cleared to Python ints.
    Above 4 x 4, one whose denominators are all one term (an integer or a
    monomial such as an exp generator) is cleared to packed integer
    polynomials.  The rest is expanded over ScalarExpr: a denominator of
    several terms (each of those normalizations would be a gcd) and 4 x 4
    matrices with generators (whose minors are their entries).
    Returns (inverse, pfaffian), or (None, pfaffian) when singular.
    """
    n = len(matrix)
    if n % 2:
        return None, ex.ZERO
    full = tuple(range(n))
    if not any(e.gens for row in matrix for e in row):
        lcm = math.lcm(*(e.den[0] for row in matrix for e in row))
        cleared = [[e.num.get(0, 0) * (lcm // e.den[0]) for e in row] for row in matrix]
        memo = {(): 1}
        top = _pfaffian(cleared, full, memo)
        pf = ex._ratio(top, lcm ** (n // 2))
        sign = -1 if top < 0 else 1

        def minor(rest):
            return ex._ratio(sign * _pfaffian(cleared, rest, memo) * lcm, sign * top)

    elif n > 4 and all(len(e.den) == 1 for row in matrix for e in row):
        gens, scale, cleared = _cleared(matrix)
        memo = {(): {0: 1}}
        top = _pfaffian(cleared, full, memo)
        pf = ex._new(gens, top, functools.reduce(ex._p_mul, [scale] * (n // 2)))

        def minor(rest):
            return ex._new(gens, ex._p_mul(_pfaffian(cleared, rest, memo), scale), top)

    else:
        memo = {(): ex.ONE}
        pf = _pfaffian(matrix, full, memo)

        def minor(rest):
            return _pfaffian(matrix, rest, memo) / pf

    if pf.is_structural_zero:
        return None, pf
    inv = [[ex.ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            val = minor(full[:i] + full[i + 1 : j] + full[j + 1 :])
            if (i + j) % 2:
                val = -val
            inv[i][j] = val
            inv[j][i] = -val
    return inv, pf


# ---------------------------------------------------------------------------
# degree-2 elements as skew matrices


def skew_matrix(element):
    """Full antisymmetric coefficient matrix of a bivector or a 2-form."""
    if element.degree != 2:
        raise DegreeError("expected a bivector or a 2-form")
    n = element.chart.dim
    mat = [[ex.ZERO] * n for _ in range(n)]
    for (i, j), c in element.coeffs.items():
        mat[i][j] = c
        mat[j][i] = -c
    return mat


def _bordered(element, border):
    """Skew matrix of Pi + v ^ @s, or of omega + alpha ^ ds, on the chart extended by s."""
    dim = element.chart.dim
    mat = [row + [ex.ZERO] for row in skew_matrix(element)]
    mat.append([ex.ZERO] * (dim + 1))
    for (i,), c in border.coeffs.items():
        mat[i][dim] = c
        mat[dim][i] = -c
    return mat


def _from_inverse(cls, chart: Chart, inv):
    """The bivector or 2-form (cls) whose coefficient matrix is the transpose of inv."""
    coeffs = {}
    for i in range(chart.dim):
        for j in range(i + 1, chart.dim):
            coeffs[(i, j)] = inv[j][i]
    return cls._of(chart, 2, coeffs)


def _monomial_scale(bivector, v):
    """(lam, v0) with v = lam v0.  For a rational Pi and a v whose
    coefficients are rationals times one monomial lam with generators, v0 is
    rational; otherwise lam is 1 and v0 is v."""
    coeffs = list(v.coeffs.values())
    if not coeffs or any(c.gens for c in bivector.coeffs.values()):
        return ex.ONE, v
    gens, num, den = coeffs[0].gens, coeffs[0].num.keys(), coeffs[0].den.keys()
    if not gens or (len(num), len(den)) != (1, 1) or any(
        c.gens != gens or c.num.keys() != num or c.den.keys() != den for c in coeffs
    ):
        return ex.ONE, v
    (a,), (b,) = num, den
    v0 = {k: ex._ratio(c.num[a], c.den[b]) for k, c in v.coeffs.items()}
    return ScalarExpr(gens, {a: 1}, {b: 1}, _raw=True), v._like(1, v0)


def _dual(element, cls, tester: ZeroTester | None):
    """The cls element whose matrix is the transposed inverse of element's."""
    chart = element.chart
    if chart.dim % 2:
        raise DegenerateError("inversion needs an even-dimensional chart")
    tester = tester or ZeroTester(chart)
    inv, pf = _skew_inverse(skew_matrix(element))
    if inv is None:
        raise DegenerateError("coefficient matrix is singular (zero Pfaffian)")
    pv = tester.is_zero(pf)
    if pv.holds:
        raise DegenerateError(
            f"Pfaffian vanishes ({pv.kind.value})", witness=pv.witness
        )
    if pv.kind is ex.VerdictKind.UNKNOWN:
        raise DegenerateError("nondegeneracy undecidable on the sampling domain")
    return _from_inverse(cls, chart, inv)


def invert_twoform(omega: DiffForm, tester: ZeroTester | None = None) -> MultiVector:
    """Bivector dual to a nondegenerate 2-form (transposed matrix inverse)."""
    return _dual(omega, MultiVector, tester)


def invert_bivector(Pi: MultiVector, tester: ZeroTester | None = None) -> DiffForm:
    """2-form dual to a nondegenerate bivector; inverse of invert_twoform."""
    return _dual(Pi, DiffForm, tester)


# ---------------------------------------------------------------------------
# the structure


_CORANK_SAMPLES = 10


class PoissonStructure:
    """A bivector with cached analysis artifacts.

    Its n (corank_n) is dim // 2: the paper's structures live on a
    (2n+1)-chart, where corank one means Pi**n != 0, and the b-side ones
    on a 2n-chart.

    The adapted pair (alpha, omega) satisfies alpha(v) = 1, iota_v omega = 0,
    alpha annihilates the image of Pi, omega inverts Pi on the leaves, and
    interior(Pi, alpha ^ omega**n) = n alpha ^ omega**(n-1).  On first use
    with a transversal field v it is read off one Pfaffian inverse: on the
    chart extended by a coordinate s, the inverse of Pi + v ^ @s is
    omega + alpha ^ ds (by Pfaffian minors, see _skew_inverse).  That pair
    is exact by construction; a declared alpha or omega is checked by
    inverting the bordered two-form back.  Jacobi is not tested (the
    pipeline asks for it first).  The pair and the artifacts (volume, beta,
    mu and the modular field) are computed once and kept, with the verdicts
    of the checks that accepted them; d(alpha) and d(omega) are kept by the
    forms themselves (ext_deriv memoizes per form).
    """

    __slots__ = (
        "chart", "bivector", "corank_n", "transversal", "alpha", "omega", "tester",
        "_jacobi", "_refusal", "_volume_factor", "_volume", "adapted_verdict", "beta_verdict",
        "dbeta_verdict", "mu_verdict", "modular_verdict", "_beta", "_mu", "_modular",
    )

    def __init__(
        self,
        chart: Chart,
        bivector: MultiVector,
        transversal: MultiVector | None = None,
        alpha: DiffForm | None = None,
        omega: DiffForm | None = None,
        tester: ZeroTester | None = None,
    ):
        if bivector.degree != 2:
            raise DegreeError("a Poisson structure needs a bivector (degree 2)")
        if bivector.chart != chart:
            raise ChartMismatchError("bivector lives on a different chart")
        for name, form, degree in (("transversal", transversal, 1), ("alpha", alpha, 1),
                                   ("omega", omega, 2)):
            if form is not None and form.degree != degree:
                raise DegreeError(f"{name} must have degree {degree}")
            if form is not None and form.chart != chart:
                raise ChartMismatchError(f"{name} lives on a different chart")
        self.chart, self.bivector, self.corank_n = chart, bivector, chart.dim // 2
        self.transversal, self.alpha, self.omega = transversal, alpha, omega
        self.tester = ZeroTester(chart) if tester is None else tester
        self._jacobi = None
        self._refusal = None  # the ToolkitError that refused the pair
        self._volume_factor = self._volume = None
        # the weakest verdict of the checks that accepted each artifact; the
        # artifacts derived from the pair include the pair's verdict
        self.adapted_verdict: Verdict | None = None
        self.beta_verdict: Verdict | None = None
        self.dbeta_verdict: Verdict | None = None  # of d(beta) ^ alpha = 0 alone
        self.mu_verdict: Verdict | None = None  # for the two-form last asked about
        self.modular_verdict: Verdict | None = None
        self._beta = None
        self._mu = None
        self._modular = None

    # -- Jacobi --------------------------------------------------------------

    def jacobi_verdict(self) -> Verdict:
        """[Pi, Pi] == 0, tested coefficient by coefficient on
        schouten(Pi, Pi); a Pi with no coordinate partial gives zero at once."""
        if self._jacobi is None:
            self._jacobi = is_zero_graded(schouten(self.bivector, self.bivector), self.tester)
        return self._jacobi

    # the old name, which perfbench/layertrace.py patches
    jacobiator_verdict = jacobi_verdict

    # -- Hamiltonian fields ----------------------------------------------------

    def hamiltonian_vf(self, f) -> MultiVector:
        """u_f = Pi(df, .), satisfying u_f(g) = {f, g}."""
        if isinstance(f, str):
            f = ex.parse_scalar(f, self.chart)
        df = ext_deriv(scalar_form(self.chart, f))
        return _covector_contract(df, self.bivector)

    # -- corank evidence -------------------------------------------------------

    def corank_evidence(self) -> tuple:
        """(n, Pi**n, whether Pi**n is nonzero at each of _CORANK_SAMPLES
        sample points).

        A coefficient is nonzero at a point when the zero tester would take
        its value there as a witness: far from zero relative to the terms
        it is summed from, whatever the scale of the structure.
        """
        n = self.corank_n
        top = power(self.bivector, n)
        rng = random.Random(self.tester.seed + 101)
        all_nonzero = True
        for _ in range(_CORANK_SAMPLES):
            env = self.tester.chart.sample(rng)
            if not any(self.tester.nonzero_at(c, env) for c in top.coeffs.values()):
                all_nonzero = False
                break
        return n, top, all_nonzero

    # -- adapted defining forms -------------------------------------------------

    def adapted(self):
        """The defining pair (alpha, omega) for the given transversal field.

        A declared alpha or omega stands in for the computed one, and the
        pair is kept only once its defining identities hold.  A refused pair
        is kept too: later calls raise its error again, with no second inverse.
        """
        if self._refusal is not None:
            # a fresh traceback: a kept one would grow at every raise
            raise self._refusal.with_traceback(None)
        if self.adapted_verdict is None:
            alpha, omega = self.alpha, self.omega
            declared = alpha is not None and omega is not None
            try:
                if not declared and self.transversal is None:
                    raise NotTransversalError("no transversal vector field supplied")
                if alpha is None and omega is None:
                    # Pf(A^-T) = 1 / Pf(A) for the bordered bivector A
                    alpha, omega, pf = self._bordered_pair()
                    self._fix_volume(ex.ONE / pf, Verdict.zero("exact by construction"))
                else:
                    if not declared:
                        bordered_alpha, bordered_omega, _ = self._bordered_pair()
                        alpha = bordered_alpha if alpha is None else alpha
                        omega = bordered_omega if omega is None else omega
                    self._verify_adapted(alpha, omega)
            except ToolkitError as exc:
                self._refusal = exc
                raise
            self.alpha, self.omega = alpha, omega
        return self.alpha, self.omega

    def _bordered_pair(self):
        """(alpha, omega, Pf(Pi + v ^ @s)), the pair read off the dual two-form
        omega + alpha ^ ds of Pi + v ^ @s.

        For a rational Pi and v = lam v0, with lam one monomial with
        generators (exp(-x1), say) and v0 rational, the bordered matrix is
        D B0 D with D = diag(1, ..., 1, lam) and B0 the rational border of
        v0.  So omega is B0's, alpha is B0's divided by lam and
        Pf = lam Pf(B0): only B0 is inverted, over Python ints.
        """
        chart = self.chart
        dim = chart.dim
        lam, v0 = _monomial_scale(self.bivector, self.transversal)
        inv, pf = _skew_inverse(_bordered(self.bivector, v0))
        pf = lam * pf
        pv = self.tester.is_zero(pf)
        if pv.kind is ex.VerdictKind.UNKNOWN:
            raise PivotUndecidableError(
                "the Pfaffian of Pi + v ^ @s has an UNKNOWN zero verdict"
            )
        if pv.holds:
            # at the largest rank Pi can have, a singular border means v
            # lies in the image of Pi; below it the kernel is too large
            top = power(self.bivector, self.corank_n)
            if is_zero_graded(top, self.tester).holds:
                raise NotCorankOneError(
                    "kernel of Pi does not have the expected dimension"
                )
            raise NotTransversalError(
                "the transversal condition alpha(v) = 1 is unsolvable"
            )
        over = ex._reciprocal(lam)
        alpha = DiffForm._of(chart, 1, {(i,): inv[dim][i] * over for i in range(dim)})
        return alpha, _from_inverse(DiffForm, chart, inv), pf

    def _verify_adapted(self, alpha: DiffForm, omega: DiffForm):
        """Check a declared or half-declared pair by its bordered dual, then fix the volume.

        The dual of omega + alpha ^ ds must be Pi + v ^ @s (without v, only
        its Pi block is compared).  For a nonzero Pfaffian the block is Pi
        exactly when interior(Pi, alpha ^ omega**n) == n alpha ^ omega**(n-1),
        and the border is v exactly when alpha(v) = 1 and iota_v omega = 0.
        """
        inv, pf = _skew_inverse(_bordered(omega, alpha))
        if inv is None or not self.tester.is_zero(pf).failed:
            raise InternalCheckError(
                "adapted pair fails its defining identities "
                "(omega + alpha ^ ds is singular)"
            )
        v = self.transversal
        target = skew_matrix(self.bivector) if v is None else _bordered(self.bivector, v)
        pairs = combinations(range(len(target)), 2)
        verdicts = [self.tester.is_zero(inv[j][i] - target[i][j]) for i, j in pairs]
        combined = Verdict.combine(*verdicts)
        if not combined.holds:
            raise InternalCheckError(
                "adapted pair fails its defining identities "
                f"(verdict {combined.kind.value}, witness {combined.witness})"
            )
        self._fix_volume(pf, combined)

    def _fix_volume(self, pf, verdict: Verdict):
        """Keep the volume's coefficient n! Pf(omega + alpha ^ ds) and the pair's verdict.

        (omega + alpha ^ ds)**(n+1) == (n+1) alpha ^ omega**n ^ ds, so the
        Pfaffian of the bordered two-form is the coefficient of the volume
        up to n!.
        """
        self._volume_factor = ex.rational(math.factorial(self.corank_n)) * pf
        self.adapted_verdict = verdict

    # -- derived artifacts, each computed once ----------------------------------
    # (the invariants module imports this one, hence the local imports)

    def volume(self) -> DiffForm:
        """The adapted volume alpha ^ omega**n, whose coefficient adapted() fixes."""
        if self._volume is None:
            self.adapted()
            self._volume = volume_form(self.chart) * self._volume_factor
        return self._volume

    def beta(self) -> DiffForm:
        """beta with d(alpha) = beta ^ alpha for the adapted alpha."""
        if self._beta is None:
            from .invariants import compute_beta

            alpha, _ = self.adapted()
            checks = {}
            # the pair gives alpha(v) = 1: a computed alpha is the last row of
            # the inverse of the bordered matrix whose last column is v, and a
            # declared one was compared with v in _verify_adapted
            self._beta = compute_beta(
                alpha, self.transversal, self.tester, checks=checks, pairing=self.adapted_verdict
            )
            self.beta_verdict = Verdict.combine(self.adapted_verdict, *checks.values())
            self.dbeta_verdict = checks["d(beta) ^ alpha = 0"]
        return self._beta

    def mu(self, omega: DiffForm) -> DiffForm:
        """mu with d(omega) = mu ^ alpha for a defining two-form omega.

        Kept for the two-form last asked about: a problem file may declare
        a non-adapted defining two-form, and then every analysis uses it.
        """
        if self._mu is None or self._mu[0] is not omega:
            from .invariants import compute_mu

            alpha, _ = self.adapted()
            checks = {}
            mu = compute_mu(
                omega, alpha, self.transversal, self.tester, checks=checks,
                pairing=self.adapted_verdict,
            )
            self._mu = (omega, mu)
            self.mu_verdict = Verdict.combine(self.adapted_verdict, *checks.values())
        return self._mu[1]

    def modular(self) -> MultiVector:
        """The modular vector field of the adapted volume."""
        if self._modular is None:
            from .invariants import modular_field

            checks = {}
            self._modular = modular_field(self, checks=checks)
            self.modular_verdict = Verdict.combine(self.adapted_verdict, *checks.values())
        return self._modular
