"""Outside-in layer tracing for one driver process.

The tracer replaces public functions and methods of the corankone layers
with wrappers that open a span on entry and close it on exit.  Every span
gets an id and the id of the span that caused it.  Per span name it keeps
the call count, the self time (duration minus the time covered by child
spans) and the inclusive time (nested spans of the same name counted
once).  Coarse spans, those outside the fine-grained `expr` and
`calculus` layers, are also kept as records; the fine-grained ones would
cost memory in proportion to the arithmetic done.

A module-level function is replaced in every `corankone` module namespace
that bound it, because `pipeline`, `poisson`, `bgeom` and the package
`__init__` import functions by name.  Nothing here changes what the
wrapped functions compute.
"""

from __future__ import annotations

import sys
import time

_HOT_LAYERS = ("expr.", "calculus.")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []  # open spans: [name, start, child_time, id]
        self.active = {}  # name -> open spans of that name
        self.stats = {}  # name -> [calls, self_s, incl_s]
        self.counts = {}
        self.spans = []  # closed coarse spans: (id, parent, name, start, end)
        self.next_id = 1
        self.origin = self.clock()

    # -- spans ---------------------------------------------------------------

    def enter(self, name):
        span = [name, self.clock(), 0.0, self.next_id]
        self.next_id += 1
        self.stack.append(span)
        self.active[name] = self.active.get(name, 0) + 1
        return span

    def leave(self, span, end=None):
        end = self.clock() if end is None else end
        self.stack.pop()
        name, start, child, span_id = span
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur - child
        depth = self.active[name] - 1
        self.active[name] = depth
        if not depth:
            st[2] += dur
        if self.stack:
            self.stack[-1][2] += dur
        if not name.startswith(_HOT_LAYERS):
            parent = self.stack[-1][3] if self.stack else 0
            self.spans.append((span_id, parent, name, start - self.origin, end - self.origin))

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def current(self):
        return self.stack[-1][0] if self.stack else None

    def close_all(self):
        """Close the open spans at the current time (the run was cut)."""
        end = self.clock()
        while self.stack:
            self.leave(self.stack[-1], end)

    def summary(self):
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "spans": [list(s) for s in self.spans],
        }

    # -- wrappers --------------------------------------------------------------

    def wrap(self, fn, name, on_result=None, on_error=None):
        enter, leave = self.enter, self.leave
        naming = callable(name)

        def traced(*args, **kwargs):
            span = enter(name(args) if naming else name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                leave(span)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def patch_function(self, module, attr, name, **hooks):
        """Replace module.attr in every corankone namespace that bound it."""
        orig = getattr(module, attr)
        traced = self.wrap(orig, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "corankone" or mod_name.startswith("corankone.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)
        return traced

    def patch_method(self, cls, attr, name, **hooks):
        """Replace cls.attr and every alias of it in the class body."""
        orig = cls.__dict__[attr]
        traced = self.wrap(orig, name, **hooks)
        for key, value in list(cls.__dict__.items()):
            if value is orig:
                setattr(cls, key, traced)
        return traced


ARITH = (
    "__add__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "__pow__",
)

CALCULUS = ("wedge", "ext_deriv", "interior", "schouten", "lie_derivative", "exterior_divide")

INVARIANTS_COUNTED = ("compute_beta", "compute_mu", "modular_field")


def install(tracer: Tracer):
    """Wrap the public entry points of every layer; call after import."""
    from corankone import bgeom, calculus, expr, invariants, pipeline, poisson, problemfile

    # expr: arithmetic, derivative, parser, zero testing and its sampling
    for attr in ARITH:
        tracer.patch_method(expr.ScalarExpr, attr, "expr.arith")
    tracer.patch_method(expr.ScalarExpr, "derive", "expr.derive")
    tracer.patch_function(expr, "parse_scalar", "expr.parse")

    def zero_verdict(v):
        tracer.count(f"expr.zero_test.verdict.{v.kind.value}")

    tracer.patch_method(expr.ZeroTester, "is_zero", "expr.zero_test", on_result=zero_verdict)

    def evaluate_singular(exc):
        if isinstance(exc, expr.EvaluationSingularity):
            tracer.count("expr.evaluate.singular")

    tracer.patch_method(
        expr.ScalarExpr, "evaluate", "expr.evaluate", on_error=evaluate_singular
    )
    # sample points drawn by the zero tester are evaluations too; the wrappers
    # below are counters, not spans, and only count inside a zero test
    sample = expr.Chart.sample
    eval_terms = expr._eval_terms

    def counted_sample(self, rng):
        if tracer.current() == "expr.zero_test":
            tracer.count("expr.evaluate.zero_test_samples")
        return sample(self, rng)

    def counted_eval_terms(*args):
        try:
            return eval_terms(*args)
        except expr.EvaluationSingularity:
            if tracer.current() == "expr.zero_test":
                tracer.count("expr.evaluate.singular")
            raise

    expr.Chart.sample = counted_sample
    expr._eval_terms = counted_eval_terms

    # calculus: the graded operators
    for attr in CALCULUS:
        tracer.patch_function(calculus, attr, f"calculus.{attr}")

    # poisson: Jacobi, corank, adapted pair, linear algebra, inversion
    tracer.patch_method(poisson.PoissonStructure, "jacobi_verdict", "poisson.jacobi")
    tracer.patch_method(poisson.PoissonStructure, "jacobiator_verdict", "poisson.jacobi")
    tracer.patch_method(poisson.PoissonStructure, "corank_evidence", "poisson.corank")
    tracer.patch_method(poisson.PoissonStructure, "adapted", "poisson.adapted")
    tracer.patch_function(poisson, "linear_solve", "poisson.linear_solve")
    tracer.patch_function(poisson, "invert_twoform", "poisson.invert")
    tracer.patch_function(poisson, "invert_bivector", "poisson.invert")

    # invariants: every public function, so the layer's self time is complete
    for attr, value in list(vars(invariants).items()):
        if (
            callable(value)
            and not isinstance(value, type)
            and not attr.startswith("_")
            and getattr(value, "__module__", None) == invariants.__name__
        ):
            tracer.patch_function(invariants, attr, f"invariants.{attr}")

    # bgeom, problemfile, pipeline
    tracer.patch_function(bgeom, "b_transversality_check", "bgeom.b_transversality")
    tracer.patch_function(bgeom, "extend_to_b", "bgeom.extend_to_b")
    tracer.patch_function(problemfile, "loads_problem", "problemfile.load")
    tracer.patch_method(
        pipeline._Runner, "run", lambda args: f"pipeline.analysis.{args[1]}"
    )
