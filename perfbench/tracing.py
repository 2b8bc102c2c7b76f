"""Per-layer tracing from outside the library.

:func:`traced` wraps the public functions and class constructors of each
library module, rebinding every name under which another ``kantorovich``
module imported them, so that calls between modules are seen too. Each
wrapped call is a span: its busy time, its self time (busy time minus that
of the traced calls it made), and whether it raised. Spans are folded into
per-name totals as they end. Everything is restored when the context exits.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import sys
from collections import defaultdict
from fractions import Fraction
from functools import wraps
from time import perf_counter

LAYERS = ("transport", "measures", "monad", "graded", "power", "samplers", "algebras",
          "laws", "fileio", "spaces", "approx", "cli")
STATS = ("calls", "busy_s", "self_s", "failed")

# Names bound from elsewhere that get a span of their own under the module
# that imported them: the scipy assignment solver and the metric check that
# file loading runs.
FOREIGN = (("transport", "linear_sum_assignment"), ("power", "linear_sum_assignment"),
           ("fileio", "validate_metric"))
METHODS = (("spaces", "EuclideanSpace", "to_metric"),)


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, busy, self, failed
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []

    def wrap(self, label: str, fn, on_return=None):
        stack, spans = self._stack, self.spans

        @wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            ok = False
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                span = spans[label]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - children[0]
                span[3] += not ok
            if on_return is not None:
                on_return(elapsed, args, out)
            return out

        return traced

    def table(self) -> dict[str, dict[str, float]]:
        return {label: dict(zip(STATS, span)) for label, span in sorted(self.spans.items())}

    # -- hooks that count work at the layer boundary --------------------------

    def on_wasserstein1(self, elapsed, args, result):
        p, q = args[0], args[1]
        span = self.spans[f"transport.route.{result.solver}"]
        span[0] += 1
        span[1] += elapsed
        span[2] += elapsed
        self.counts["transport.support_pairs"] += len(p.support) * len(q.support)
        bits = max(max(w.numerator.bit_length(), w.denominator.bit_length())
                   for m in (p, q) for w in _exact(m))
        self.counts["transport.max_weight_bits"] = max(self.counts["transport.max_weight_bits"],
                                                       bits)
        self.counts["transport.nonzero_gap"] += result.gap != 0.0

    def on_load(self, elapsed, args, result):
        self.counts["fileio.input_bytes"] += os.path.getsize(args[0])


def _exact(measure):
    if measure.fractions is not None:
        return measure.fractions
    return [Fraction(float(w)) for w in measure.weights]


class _Patches:
    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kantorovich" or name.startswith("kantorovich."))]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install ``tracer`` around every layer's public names for the block."""
    hooks = {"transport.wasserstein1": tracer.on_wasserstein1,
             "fileio.load_space": tracer.on_load,
             "fileio.load_measure": tracer.on_load,
             "fileio.load_indices": tracer.on_load}
    patches = _Patches()
    try:
        modules = _library_modules()
        for layer in LAYERS:
            module = importlib.import_module(f"kantorovich.{layer}")
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                label = f"{layer}.{name}"
                if inspect.isfunction(value):
                    wrapper = tracer.wrap(label, value, hooks.get(label))
                    for owner in modules:
                        for bound, candidate in list(vars(owner).items()):
                            if candidate is value:
                                patches.set(owner, bound, wrapper)
                elif inspect.isclass(value) and "__init__" in vars(value):
                    patches.set(value, "__init__", tracer.wrap(label, value.__init__))
        for layer, name in FOREIGN:
            module = importlib.import_module(f"kantorovich.{layer}")
            patches.set(module, name, tracer.wrap(f"{layer}.{name}", getattr(module, name)))
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"kantorovich.{layer}"), cls_name)
            patches.set(cls, method, tracer.wrap(f"{layer}.{cls_name}.{method}",
                                                 vars(cls)[method]))
        yield tracer
    finally:
        patches.restore()


# ---------------------------------------------------------------------------
# the per-layer metrics a traced run prints


def _spans(label: str, *stats: str) -> list[tuple[str, str, str]]:
    units = {"calls": "count", "busy_s": "s", "self_s": "s", "failed": "count"}
    return [(f"{label}.{stat}", units[stat], "lower") for stat in stats]


PER_LAYER = [
    *_spans("transport.wasserstein1", *STATS),
    *_spans("transport.route.flow", "calls", "busy_s"),
    *_spans("transport.route.assignment", "calls", "busy_s"),
    *_spans("transport.w1_flow", "calls", "busy_s"),
    *_spans("transport.w1_assignment", "calls", "busy_s"),
    *_spans("transport.w1_bruteforce", "calls", "busy_s"),
    *_spans("transport.linear_sum_assignment", "calls", "busy_s"),
    ("transport.support_pairs", "count", "lower"),
    ("transport.max_weight_bits", "bits", "lower"),
    ("transport.nonzero_gap", "count", "lower"),
    *_spans("measures.DiscreteMeasure", "calls", "busy_s", "self_s"),
    *_spans("measures.dirac", "calls", "busy_s"),
    *_spans("measures.mixture", "calls", "busy_s"),
    *_spans("measures.pushforward", "calls", "busy_s"),
    *_spans("measures.weight_discrepancy", "calls", "busy_s"),
    *_spans("measures.first_moment", "busy_s"),
    *_spans("monad.check_monad_laws", "busy_s", "self_s"),
    *_spans("monad.expectation", "calls", "busy_s"),
    *_spans("monad.empirical", "calls", "busy_s"),
    *_spans("monad.empirical_sym", "calls", "busy_s"),
    *_spans("monad.NestedMeasure", "calls", "busy_s"),
    *_spans("monad.nested_expectation_outer", "busy_s"),
    *_spans("monad.check_iota_isometry", "busy_s"),
    *_spans("monad.check_expectation_flatten", "busy_s"),
    *_spans("monad.check_ppx_square", "busy_s"),
    *_spans("graded.check_assoc_square", "busy_s"),
    *_spans("graded.check_double_quotient", "busy_s"),
    *_spans("graded.nested_tuple_distance", "busy_s"),
    *_spans("graded.curry_flatten", "busy_s"),
    *_spans("graded.unit_discrepancy_tuple", "busy_s"),
    *_spans("graded.unit_discrepancy_multiset", "busy_s"),
    *_spans("power.MultiSet", "calls", "busy_s"),
    *_spans("power.PointTuple", "calls", "busy_s"),
    *_spans("power.multiset_distance", "calls", "busy_s"),
    *_spans("power.multiset_distance_bruteforce", "busy_s"),
    *_spans("power.tuple_distance", "calls", "busy_s"),
    *_spans("power.linear_sum_assignment", "busy_s"),
    *_spans("samplers.random_space", "calls", "busy_s"),
    *_spans("samplers.random_measure", "calls", "busy_s"),
    *_spans("samplers.random_euclidean_space", "busy_s"),
    *_spans("samplers.random_metric_space", "busy_s"),
    *_spans("samplers.random_rational_pair", "busy_s"),
    *_spans("samplers.random_multiset", "busy_s"),
    *_spans("samplers.random_nested_multiset", "busy_s"),
    *_spans("samplers.simplex_fractions", "busy_s"),
    *_spans("algebras.check_algebra_laws", "busy_s", "self_s"),
    *_spans("algebras.convex_axioms", "busy_s", "self_s"),
    *_spans("algebras.check_metric_compat", "busy_s", "self_s"),
    *_spans("algebras.barycenter", "calls", "busy_s"),
    *_spans("algebras.c_lambda", "calls", "busy_s"),
    *_spans("laws.run_law_suite", *STATS),
    *_spans("fileio.load_space", "calls", "busy_s", "self_s"),
    *_spans("fileio.load_measure", "busy_s"),
    *_spans("fileio.load_indices", "busy_s"),
    *_spans("fileio.sha256_file", "busy_s"),
    *_spans("fileio.dump_canonical", "busy_s"),
    *_spans("fileio.validate_metric", "calls", "busy_s"),
    ("fileio.input_bytes", "bytes", "lower"),
    *_spans("spaces.FiniteMetricSpace", "calls", "busy_s"),
    *_spans("spaces.EuclideanSpace.to_metric", "calls", "busy_s"),
    *_spans("approx.rationalize", "calls", "busy_s"),
    *_spans("approx.sample_empirical", "calls", "busy_s"),
    *_spans("cli.main", *STATS),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("import.python_s", "s", "lower"),
    ("import.kantorovich_s", "s", "lower"),
    ("import.scipy_optimize_s", "s", "lower"),
    *[(f"trace.{w}.{m}", "1/s", "higher")
      for w in ("dist", "laws", "cli") for m in ("untraced_ops_per_s", "traced_ops_per_s",
                                                 "overhead_ops_per_s")],
]


def layer_values(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Value of every PER_LAYER metric from the tracer and the run's extras."""
    values: dict[str, float] = {}
    table = tracer.table()
    for name, _, _ in PER_LAYER:
        label, _, stat = name.rpartition(".")
        if name in extra:
            values[name] = extra[name]
        elif name in tracer.counts:
            values[name] = tracer.counts[name]
        elif stat in STATS:
            values[name] = table.get(label, {}).get(stat, 0)
        else:
            values[name] = 0
    return values
