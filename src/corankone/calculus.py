"""Graded exterior algebra of differential forms and multivector fields.

Conventions, pinned by unit tests:

* interior product of a decomposable multivector contracts the leftmost
  factor first: ``interior(X ^ Y, eta) = interior(Y, interior(X, eta))``;
  with this choice the adapted triple of a corank-one structure satisfies
  ``interior(Pi, alpha ^ omega**n) == n * alpha ^ omega**(n-1)``;
* wedge powers are plain iterated wedges (no ``1/m!`` normalization);
* ``exterior_divide(eta, alpha, v)`` returns ``(-1)**(k+1) * interior(v, eta)``
  for ``eta`` of degree ``k``, the unique sign making ``eta == result ^ alpha``
  whenever ``eta ^ alpha == 0`` and ``alpha(v) == 1``.
"""

from __future__ import annotations

from . import expr as ex
from .errors import (
    BadTransversalError,
    ChartError,
    ChartMismatchError,
    DegreeError,
    DivisionObstructedError,
)
from .expr import Chart, ScalarExpr, Verdict, ZeroTester


def _coerce_coeff(value, chart: Chart) -> ScalarExpr:
    if isinstance(value, ScalarExpr):
        return value
    if isinstance(value, str):
        return ex.parse_scalar(value, chart)
    return ex.rational(value)


def _perm_sign(seq: tuple[int, ...]) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv & 1 else 1


def _merge_sign(left: tuple, right: tuple):
    """Sign and sorted tuple for wedging two increasing index tuples."""
    if set(left) & set(right):
        return 0, ()
    inv = 0
    for j in right:
        inv += sum(1 for i in left if i > j)
    return (-1 if inv & 1 else 1), tuple(sorted(left + right))


class _Graded:
    """Shared behaviour of forms and multivectors (degree-graded coefficients)."""

    __slots__ = ("chart", "degree", "coeffs", "_d")

    basis_prefix = "?"

    def __init__(self, chart: Chart, degree: int, coeffs=None):
        """coeffs maps basis index tuples (names or indices) to coefficients,
        or is an iterable of such pairs in which a basis element may repeat:
        the terms on one basis element, permuted or not, add up with the
        sign of their permutation."""
        if degree < 0:
            raise DegreeError("degree must be nonnegative")
        table = {}
        pairs = coeffs.items() if hasattr(coeffs, "items") else coeffs or ()
        for key, value in pairs:
            idx = tuple(
                chart.index(k) if isinstance(k, str) else int(k) for k in key
            )
            if len(idx) != degree:
                raise DegreeError(f"index {key!r} has length {len(idx)}, degree is {degree}")
            if len(set(idx)) != len(idx):
                continue
            for i in idx:
                if not 0 <= i < chart.dim:
                    raise ChartError(f"coordinate index {i} outside chart")
            sign = _perm_sign(idx)
            skey = tuple(sorted(idx))
            coeff = _coerce_coeff(value, chart)
            if sign < 0:
                coeff = -coeff
            prev = table.get(skey)
            table[skey] = coeff if prev is None else prev + coeff
        if degree > chart.dim and any(not c.is_structural_zero for c in table.values()):
            raise DegreeError("nonzero element of degree above the chart dimension")
        self.chart = chart
        self.degree = degree
        self.coeffs = {
            k: c for k, c in sorted(table.items()) if not c.is_structural_zero
        }
        self._d = None

    # -- structure -----------------------------------------------------------

    @property
    def is_structural_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        return self.coeffs.items()

    def coefficient(self, *names) -> ScalarExpr:
        idx = tuple(
            self.chart.index(n) if isinstance(n, str) else int(n) for n in names
        )
        return self.coeffs.get(tuple(sorted(idx)), ex.ZERO)

    def scalar(self) -> ScalarExpr:
        if self.degree != 0:
            raise DegreeError("scalar() requires degree 0")
        return self.coeffs.get((), ex.ZERO)

    def __eq__(self, other):
        if type(self) is not type(other) or self.chart != other.chart:
            return False
        if not self.coeffs and not other.coeffs:
            return True  # the zero element, of any stored degree
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        degree = self.degree if self.coeffs else -1
        return hash(
            (type(self).__name__, self.chart, degree, tuple(self.coeffs.items()))
        )

    # -- linear structure ------------------------------------------------------

    def _like(self, degree, coeffs):
        return self._of(self.chart, degree, coeffs)

    @classmethod
    def _of(cls, chart, degree, coeffs):
        """coeffs (ScalarExprs on increasing index tuples), unchecked."""
        out = object.__new__(cls)
        out.chart = chart
        out.degree = degree
        out.coeffs = {k: c for k, c in sorted(coeffs.items()) if not c.is_structural_zero}
        out._d = None
        return out

    def _check_compat(self, other):
        if type(self) is not type(other):
            raise ChartMismatchError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.chart != other.chart:
            raise ChartMismatchError("objects live on different charts")

    def __add__(self, other):
        self._check_compat(other)
        if self.degree != other.degree:
            if self.is_structural_zero:
                return other
            if other.is_structural_zero:
                return self
            raise DegreeError("cannot add elements of different degrees")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, ex.ZERO) + c
        return self._like(self.degree, out)

    def __neg__(self):
        return self._like(self.degree, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        s = _coerce_coeff(scalar, self.chart)
        return self._like(self.degree, {k: c * s for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __xor__(self, other):
        return wedge(self, other)

    # -- rendering -------------------------------------------------------------

    def _basis_str(self, idx) -> str:
        return "^".join(f"{self.basis_prefix}{self.chart.coords[i]}" for i in idx)

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for idx, coeff in self.coeffs.items():
            cs = str(coeff)
            neg = False
            if len(coeff.num) == 1 and cs.startswith("-"):
                neg = True
                cs = cs[1:]
            elif len(coeff.num) > 1:
                cs = f"({cs})"
            if idx:
                body = self._basis_str(idx) if cs == "1" else f"{cs} {self._basis_str(idx)}"
            else:
                body = cs
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f" - {body}" if neg else f" + {body}")
        return "".join(pieces)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class DiffForm(_Graded):
    """Differential form with increasing multi-index coefficients."""

    basis_prefix = "d"


class MultiVector(_Graded):
    """Multivector field over the coordinate frame."""

    basis_prefix = "@"

    def __call__(self, f: ScalarExpr) -> ScalarExpr:
        """Apply a vector field to a function (directional derivative)."""
        if self.degree != 1:
            raise DegreeError("only vector fields act on functions")
        out = ex.ZERO
        for (i,), c in self.coeffs.items():
            out = out + c * f.derive(self.chart.coords[i])
        return out


def zero_form(chart: Chart, degree: int) -> DiffForm:
    return DiffForm(chart, degree, {})


def zero_multivector(chart: Chart, degree: int) -> MultiVector:
    return MultiVector(chart, degree, {})


def scalar_form(chart: Chart, value) -> DiffForm:
    return DiffForm(chart, 0, {(): value})


def basis_form(chart: Chart, name: str) -> DiffForm:
    return DiffForm(chart, 1, {(name,): 1})


def basis_vector(chart: Chart, name: str) -> MultiVector:
    return MultiVector(chart, 1, {(name,): 1})


def volume_form(chart: Chart) -> DiffForm:
    return DiffForm(chart, chart.dim, {tuple(range(chart.dim)): 1})


# ---------------------------------------------------------------------------
# operations


def wedge(a: _Graded, b: _Graded) -> _Graded:
    """Graded-commutative product; degree adds, overflow collapses to zero."""
    a._check_compat(b)
    out = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            sign, key = _merge_sign(ia, ib)
            if sign == 0:
                continue
            c = ca * cb if sign > 0 else -(ca * cb)
            out[key] = out.get(key, ex.ZERO) + c
    return a._like(a.degree + b.degree, out)


def power(a: _Graded, m: int) -> _Graded:
    """m-fold wedge; power(a, 0) is the scalar one of the same kind."""
    if m < 0:
        raise DegreeError("wedge powers require m >= 0")
    out = a._like(0, {(): ex.ONE})
    for _ in range(m):
        out = wedge(out, a)
    return out


def _partials(coeffs: dict, chart: Chart) -> list:
    """[(l, key, d_l c)] for each coefficient c = coeffs[key] and each
    coordinate x_l among c's free symbols on which it depends: the
    nonzero first partials, without deriving c by the other coordinates."""
    index = {name: l for l, name in enumerate(chart.coords)}
    out = []
    for key, c in coeffs.items():
        for l in sorted(index[s] for s in c.free_symbols() if s in index):
            dc = c.derive(chart.coords[l])
            if not dc.is_structural_zero:
                out.append((l, key, dc))
    return out


def ext_deriv(eta: DiffForm) -> DiffForm:
    """Exterior derivative, memoized per form like ScalarExpr.derive: a form
    is immutable, so a structure's d(alpha) and d(omega) are taken once."""
    if not isinstance(eta, DiffForm):
        raise ChartMismatchError("ext_deriv applies to differential forms")
    if eta._d is None:
        out = {}
        for i, idx, dc in _partials(eta.coeffs, eta.chart):
            sign, key = _merge_sign((i,), idx)
            if sign:
                out[key] = out.get(key, ex.ZERO) + (dc if sign > 0 else -dc)
        eta._d = eta._like(eta.degree + 1, out)
    return eta._d


def _contract_indices(I: tuple, J: tuple):
    """Fold single contractions over I (ascending); None when I is not in J."""
    sign = 1
    cur = list(J)
    for i in I:
        try:
            pos = cur.index(i)
        except ValueError:
            return None
        if pos & 1:
            sign = -sign
        cur.pop(pos)
    return sign, tuple(cur)


def _contract(outer: dict, inner: dict) -> dict:
    """Coefficients of every index set of outer contracted into inner's."""
    out = {}
    for I, co in outer.items():
        for J, ci in inner.items():
            hit = _contract_indices(I, J)
            if hit is None:
                continue
            sign, rest = hit
            term = co * ci if sign > 0 else -(co * ci)
            out[rest] = out.get(rest, ex.ZERO) + term
    return out


def interior(X: MultiVector, eta: DiffForm) -> DiffForm:
    """Interior product; for degree-1 X an antiderivation of degree -1."""
    if not isinstance(X, MultiVector) or not isinstance(eta, DiffForm):
        raise ChartMismatchError("interior(X, eta) takes a multivector and a form")
    if X.chart != eta.chart:
        raise ChartMismatchError("objects live on different charts")
    if X.degree > eta.degree:
        raise DegreeError(
            f"interior degree underflow: {X.degree} into {eta.degree}"
        )
    return eta._like(eta.degree - X.degree, _contract(X.coeffs, eta.coeffs))


def _covector_contract(theta: DiffForm, Q: MultiVector) -> MultiVector:
    """Contract a 1-form into the first slot of a multivector."""
    if theta.degree != 1:
        raise DegreeError("covector contraction needs a 1-form")
    return Q._like(Q.degree - 1, _contract(theta.coeffs, Q.coeffs))


def _schouten_half(A: MultiVector, B: MultiVector, sign: int, out: dict):
    """Add sign * sum_l dA/dzeta_l ^ d_l B to the coefficients in out; a B
    with no coordinate partial adds nothing, at once."""
    by_coord = {}
    for l, J, dc in _partials(B.coeffs, B.chart):
        by_coord.setdefault(l, []).append((J, dc))
    if not by_coord:
        return
    for I, a in A.coeffs.items():
        last = len(I) - 1
        for k, l in enumerate(I):
            # moving @l from slot k to the last slot, then dropping it
            s = sign if (last - k) % 2 == 0 else -sign
            rest = I[:k] + I[k + 1 :]
            for J, dc in by_coord.get(l, ()):
                msign, key = _merge_sign(rest, J)
                if msign:
                    term = a * dc if s * msign > 0 else -(a * dc)
                    out[key] = out.get(key, ex.ZERO) + term


def schouten(P: MultiVector, Q: MultiVector) -> MultiVector:
    """Schouten-Nijenhuis bracket, degree p+q-1, by the coordinate formula
    [P, Q] = sum_l dP/dzeta_l ^ d_l Q - (-1)^((p-1)(q-1)) dQ/dzeta_l ^ d_l P.

    d_l derives the coefficients by x_l (only the nonzero partials are
    taken), and d/dzeta_l moves @l to the last slot and drops it.  Graded
    symmetry [P,Q] = -(-1)^((p-1)(q-1)) [Q,P] and the graded Leibniz rule
    over the wedge hold; on vector fields it is the commutator, [v, f] =
    v(f) for functions, and [f, Q] = -iota_{df} Q (first-slot contraction).

    When P is Q of even degree, as in the Jacobi test [Pi, Pi], graded
    symmetry makes the two halves equal, so the first is taken once and
    doubled.
    """
    if not isinstance(P, MultiVector) or not isinstance(Q, MultiVector):
        raise ChartMismatchError("schouten takes multivectors")
    if P.chart != Q.chart:
        raise ChartMismatchError("objects live on different charts")
    p, q = P.degree, Q.degree
    out = {}
    _schouten_half(P, Q, 1, out)
    if P is Q and p % 2 == 0:
        out = {key: c * 2 for key, c in out.items()}
    else:
        _schouten_half(Q, P, 1 if (p - 1) * (q - 1) % 2 else -1, out)
    return P._like(max(p + q - 1, 0), out)  # [f, g] = 0


def lie_derivative(v: MultiVector, target):
    """Lie derivative along a vector field: Cartan formula on forms,
    Schouten bracket on multivectors."""
    if v.degree != 1:
        raise DegreeError("lie_derivative needs a vector field")
    if isinstance(target, DiffForm):
        out = interior(v, ext_deriv(target))
        if target.degree >= 1:
            out = out + ext_deriv(interior(v, target))
        return out
    if isinstance(target, MultiVector):
        return schouten(v, target)
    raise ChartMismatchError("lie_derivative applies to forms or multivectors")


# ---------------------------------------------------------------------------
# zero verdicts on graded objects


def is_zero_graded(obj: _Graded, tester: ZeroTester) -> Verdict:
    """Combined verdict over all coefficients (worst case wins): the first
    nonzero one, as soon as it is found, since no verdict is worse."""
    if obj.is_structural_zero:
        return Verdict.zero()
    verdicts = []
    for c in obj.coeffs.values():
        v = tester.is_zero(c)
        if v.failed:
            return v
        verdicts.append(v)
    return Verdict.combine(*verdicts)


def leafwise_equal(eta1: DiffForm, eta2: DiffForm, alpha: DiffForm, tester: ZeroTester) -> Verdict:
    """Whether eta1 - eta2 restricts to zero on every leaf of ker(alpha):
    verdict of (eta1 - eta2) ^ alpha == 0."""
    if eta1.degree != eta2.degree:
        raise DegreeError("leafwise_equal requires equal degrees")
    return is_zero_graded(wedge(eta1 - eta2, alpha), tester)


def exterior_divide(
    eta: DiffForm,
    alpha: DiffForm,
    v: MultiVector,
    tester: ZeroTester | None = None,
    checks: dict | None = None,
    obstruction: Verdict | None = None,
    pairing: Verdict | None = None,
) -> DiffForm:
    """Solve eta = xi ^ alpha for xi, given eta ^ alpha = 0 and alpha(v) = 1.

    The returned representative is xi = (-1)^(k+1) interior(v, eta), the
    transverse one: interior(v, xi) is structurally zero.  The identity
    eta == xi ^ alpha then holds without a further test, since
    interior(v, eta ^ alpha) = interior(v, eta) ^ alpha + (-1)^k alpha(v) eta.
    When checks is a dict, the verdict of each of the two checks is stored
    in it under the identity it tests.  A caller that has already tested
    eta ^ alpha = 0 passes that verdict as obstruction, and the product is
    neither built nor tested again; likewise a caller whose pair makes
    alpha(v) = 1 passes the pair's verdict as pairing.
    """
    if alpha.degree != 1:
        raise DegreeError("alpha must be a 1-form")
    if eta.degree < 1:
        if eta.is_structural_zero:
            raise DegreeError("cannot divide a degree-0 form")
        raise DivisionObstructedError("nonzero scalar is not a multiple of alpha")
    if tester is None:
        tester = ZeroTester(eta.chart)
    pv = pairing
    if pv is None:
        pv = tester.is_zero(interior(v, alpha).scalar() - ex.ONE)
    if not pv.holds:
        raise BadTransversalError(f"alpha(v) != 1 (verdict {pv.kind.value})")
    ov = obstruction
    if ov is None:
        ov = is_zero_graded(wedge(eta, alpha), tester)
    if ov.failed:
        raise DivisionObstructedError(
            "eta ^ alpha does not vanish", witness=ov.witness
        )
    xi = interior(v, eta)
    if eta.degree % 2 == 0:
        xi = -xi
    if checks is not None:
        checks.update({"alpha(v) = 1": pv, "eta ^ alpha = 0": ov})
    return xi
