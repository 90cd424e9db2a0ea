"""Seeded problem generators for the benchmark workloads.

Every generated structure is the family ``A^B + C^D (+ E^F)`` on the chart
``x1 .. x(2n+1)``: a sum of ``n`` wedges of constant vector fields whose
entries are rationals, linear in at most a few parameters.  The vector
fields and the transversal ``v`` are the columns of ``M = U L`` with ``L``
unit lower triangular and ``U`` upper triangular with a nonzero rational
diagonal, so ``det M`` is a nonzero constant for every parameter value:
the bivector has rank ``2n`` everywhere and ``v`` is transversal to it.

The construction fixes the verdicts.  A constant bivector is Poisson.
With the constant transversal the adapted pair is constant, so ``alpha``
and ``omega`` are closed and ``beta = mu = 0``.  With the transversal
``exp(-x1) v`` the pair is ``(exp(x1) alpha, omega)``, and since the
``x1`` entry of ``v`` is zero by construction, ``beta = dx1`` exactly and
``mu = 0``.  Both classes vanish (``dx1`` is exact), the Godbillon-Vey
form ``beta ^ d(beta)`` vanishes, and the transverse-Poisson equivalence
holds on both sides.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

PARAMS = ("a", "b", "c")
PARAM_RANGES = {"a": ("1", "2"), "b": ("2", "3"), "c": ("0.5", "1")}

# analyses whose outcome the construction fixes, in pipeline order
ANALYSES = (
    "jacobi",
    "adapted",
    "beta",
    "unimodularity",
    "godbillon_vey",
    "mu",
    "sigma",
    "transverse_poisson",
)


@dataclass
class Member:
    """One problem: its text, and the report entries the construction fixes."""

    name: str
    text: str
    verdicts: dict
    artifacts: dict = field(default_factory=dict)


# -- polynomials in the parameters: {exponent tuple: Fraction} -----------------


def _p_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
        if not out[m]:
            del out[m]
    return out


def _p_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
            if not out[m]:
                del out[m]
    return out


def _p_str(p, names):
    if not p:
        return "0"
    terms = sorted(p.items(), key=lambda t: (-sum(t[0]), [-e for e in t[0]]))
    out = []
    for k, (mono, c) in enumerate(terms):
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e]
        mag = abs(c)
        coef = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        if factors and mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([coef] + factors)
        if k == 0:
            out.append(f"-{body}" if c < 0 else body)
        else:
            out.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(out)


def _rational(rng):
    num = rng.randint(1, 4) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, 3))


def _columns(rng, dim, nparams, full):
    """Columns of M = U L as parameter polynomials; det M = prod diag(U)."""
    zero = (0,) * nparams
    lower = [
        [Fraction(1) if i == j else (_rational(rng) if i > j else Fraction(0)) for j in range(dim)]
        for i in range(dim)
    ]
    upper = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        upper[i][i] = {zero: _rational(rng)}
        for j in range(i + 1, dim):
            if i == 0 and j == dim - 1:
                continue  # keeps the x1 entry of the transversal zero
            entry = {zero: _rational(rng)}
            if full:
                picked = range(nparams)
            else:
                picked = [(j - 1) % nparams] if nparams and i == 0 else []
            for p in picked:
                mono = [0] * nparams
                mono[p] = 1
                entry = _p_add(entry, {tuple(mono): _rational(rng)})
            upper[i][j] = entry
    cols = []
    for j in range(dim):
        col = []
        for i in range(dim):
            acc = {}
            for k in range(max(i, j), dim):
                acc = _p_add(acc, _p_mul(upper[i][k], {zero: lower[k][j]}))
            col.append(acc)
        cols.append(col)
    return cols


def structure(seed, dim, nparams, scaled, name, full=False):
    """One member of the family, with its expected report entries.

    With `full`, every entry of U above the diagonal is linear in all
    parameters; otherwise the parameters take turns along the first row of
    U.  With `scaled`, the transversal is exp(-x1) v instead of v.
    """
    rng = random.Random(f"{seed}/{name}")
    names = PARAMS[:nparams]
    coords = [f"x{i + 1}" for i in range(dim)]
    cols = _columns(rng, dim, nparams, full)
    vfields, v = cols[:-1], cols[-1]
    lines = [
        f"# {name}: sum of {dim // 2} wedges of constant vector fields"
        f"{', transversal exp(-x1) v' if scaled else ''}",
        "schema 1",
        "",
        "section chart",
        f"  coords {' '.join(coords)}",
    ]
    lines += [f"  param {p} {' '.join(PARAM_RANGES[p])}" for p in names]
    lines += ["", "section structure", f"  corank {dim // 2}"]
    for i in range(dim):
        for j in range(i + 1, dim):
            coeff = {}
            for k in range(0, dim - 1, 2):
                A, B = vfields[k], vfields[k + 1]
                coeff = _p_add(coeff, _p_mul(A[i], B[j]))
                coeff = _p_add(coeff, _p_mul({m: -c for m, c in A[j].items()}, B[i]))
            if coeff:
                lines.append(f'  bivector "{_p_str(coeff, names)}" {coords[i]} {coords[j]}')
    for i, entry in enumerate(v):
        if entry:
            text = _p_str(entry, names)
            if scaled:
                text = f"exp(-x1)*({text})"
            lines.append(f'  transversal "{text}" {coords[i]}')
    lines += ["", "section analyses"] + [f"  {a}" for a in ANALYSES]
    lines += ["", "section options", f"  seed {seed % 1000}", ""]
    verdicts = {a: "true" for a in ANALYSES}
    artifacts = {"beta": {"beta": "dx1" if scaled else "0"}, "mu": {"mu": "0"}}
    return Member(name, "\n".join(lines), verdicts, artifacts)


def _family(seed, prefix, shapes):
    """Members for (dim, nparams, full, const draws, exp draws) shapes.

    Each shape comes with both transversals, drawn the given number of
    times each, and the members are put in pass order by `_spread`.
    """
    classes = []
    for dim, nparams, full, *draws in shapes:
        for scaled, count in zip((False, True), draws):
            kind = f"{prefix}-d{dim}-p{nparams}{'-full' if full else ''}-{'exp' if scaled else 'const'}"
            classes.append(
                [
                    structure(seed, dim, nparams, scaled, f"{kind}-{k + 1}" if count > 1 else kind, full)
                    for k in range(count)
                ]
            )
    return _spread(classes, random.Random(f"{seed}/{prefix}/order"))


def _spread(classes, rng):
    """Pass order in which every class is spread evenly over the pass.

    The speed of a shared host drifts over seconds.  A class checked in one
    stretch of the pass would take its percentile from that stretch alone;
    spread out, its times average over the whole pass like `suite_s` does.
    """
    keyed = []
    for members in classes:
        phase = rng.random()
        keyed += [((k + phase) / len(members), m.name, m) for k, m in enumerate(members)]
    return [m for _, _, m in sorted(keyed, key=lambda t: t[:2])]


def dense(seed):
    """Dimensions 3, 5 and 7 with at most one parameter, both transversals.

    The parameter sits in the first row of U, so the x1 components of the
    vector fields are linear in it.  Dimension 7 with a parameter is left
    out: one such member takes about 15 s, more than a pass of the rest.
    Per pass the 22 members sort by check time into 6 cheaper ones (dim 3,
    and dim 5 with the constant transversal), 10 of dim 5 with the scaled
    transversal, and 6 dearer ones (dim 5 with the parameter, dim 7), so
    the median falls in the middle of one kind of member, whose work hardly
    varies with the seed (its `expr.arith` calls by under 1 %).  On the
    edge between two kinds it would jump between their costs as the host's
    speed drifts.  The 95th percentile falls among the dim-7 members.
    """
    shapes = [
        (3, 0, False, 1, 1),
        (3, 1, False, 1, 1),
        (5, 0, False, 2, 10),
        (5, 1, False, 1, 1),
        (7, 0, False, 2, 2),
    ]
    return _family(seed, "dense", shapes)


def multiparam(seed):
    """Dimensions 3 and 5 with two or three parameters.

    Every entry of U above the diagonal is linear in all parameters.  In
    dimension 5 with two parameters the exact kernel falls off a cliff:
    `adapted` runs for minutes, so those two members always meet the time
    limit, and as 2 of 24 members they hold the 95th percentile.  The
    median falls well inside the 18 members of dimension 3 with two
    parameters and the constant transversal, the cheapest kind, and not on
    the edge to the next.
    """
    shapes = [(3, 2, True, 18, 2), (3, 3, True, 1, 1), (5, 2, True, 1, 1)]
    return _family(seed, "multi", shapes)


def corpus(seed, root):
    """The bundled problem files, each at its own seed, in a seeded order.

    The expected verdicts are the files' own `expects` sections.
    """
    folder = os.path.join(root, "src", "corankone", "corpus")
    out = []
    for fname in sorted(os.listdir(folder)):
        if not fname.endswith(".prob"):
            continue
        with open(os.path.join(folder, fname), encoding="utf-8") as fh:
            text = fh.read()
        out.append(Member(fname, text, _expects(text)))
    random.Random(seed).shuffle(out)
    return out


def _expects(text):
    expects, section = {}, None
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        if words[0] == "section":
            section = words[1]
        elif section == "expects":
            expects[words[0]] = words[1]
    return expects
