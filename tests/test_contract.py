"""The contract for numbers: every public callable that takes numbers, given
a bad value in any one numeric position, returns or raises a
KantorovichError, and never warns.

A number argument takes each bad value in turn. A sequence argument takes
each in place of its first number, and is also given empty. ``Coupling``
keeps non-finite masses, for ``validate_coupling`` to report on, so NaN
and infinities in its matrix return.
"""

import math
import warnings

import numpy as np
import pytest

import kantorovich as K
from kantorovich import KantorovichError

BAD = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "True": True,
       "np.True_": np.True_, "2.5": 2.5, "2.0": 2.0, "-1": -1, "10**400": 10**400,
       "'1'": "1", "[]": []}

LINE = K.FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
P = K.DiscreteMeasure(LINE, [0, 2], [1, 1], 2)
Q = K.dirac(LINE, 1)
NU = K.NestedMeasure(LINE, [P, Q], [1, 1], 2)
MS = K.MultiSet(LINE, [0, 2])
ALGEBRA = K.ConvexAlgebra(2)
RESULT = K.wasserstein1(P, Q)

# (name, callable, good arguments, the kind of each argument): "n" a number,
# "s" a sequence of numbers, nested or not, "-" anything else.
CALLS = [
    ("ConvexAlgebra", K.ConvexAlgebra, (2,), "n"),
    ("ConvexAlgebra.distance", ALGEBRA.distance, ([0.0, 0.0], [3.0, 4.0]), "ss"),
    ("SimplexWeights", K.SimplexWeights, ([0.25, 0.75],), "s"),
    ("SimplexWeights over den", K.SimplexWeights, ([1, 3], 4), "sn"),
    ("c_lambda", K.c_lambda, (ALGEBRA, 0.5, [1.0, 0.0], [0.0, 2.0]), "-nss"),
    ("check_algebra_laws", K.check_algebra_laws, (ALGEBRA, 1, 0), "-nn"),
    ("check_metric_compat", K.check_metric_compat, (ALGEBRA, 1, 0), "-nn"),
    ("convex_axioms", K.convex_axioms, (ALGEBRA, 1, 0), "-nn"),
    ("mean_point", K.mean_point, ([[0.0, 1.0], [2.0, 3.0]],), "s"),
    ("ApproximationReport", K.ApproximationReport, (P, Q, 0.0, 0.0, {}), "--nn-"),
    ("rationalize", K.rationalize, (P, 0.1), "-n"),
    ("truncate_to_ball", K.truncate_to_ball, (P, 0, 1.0), "-nn"),
    ("sample_empirical", K.sample_empirical, (P, 3, 0), "-nn"),
    ("convergence_study", K.convergence_study, (P, [2], 1, 0), "-snn"),
    ("NestedTuple", K.NestedTuple, (LINE, [[0, 1], [1, 2]]), "-s"),
    ("NestedMultiSet", K.NestedMultiSet, (LINE, [[0, 1], [1, 2]]), "-s"),
    ("check_assoc_square", K.check_assoc_square, (LINE, [[[0, 1]], [[1, 2]]]), "-s"),
    ("LawResult", K.LawResult, ("law", 1, 0.0, 1e-9, True), "-nnn-"),
    ("run_law_suite", K.run_law_suite, (1, 0, 2, 1), "nnnn"),
    ("DiscreteMeasure", K.DiscreteMeasure, (LINE, [0, 2], [0.25, 0.75]), "-ss"),
    ("DiscreteMeasure over den", K.DiscreteMeasure, (LINE, [0, 2], [1, 3], 4), "-ssn"),
    ("DiscreteMeasure.from_rational", K.DiscreteMeasure.from_rational,
     (LINE, [0, 2], [1, 3], 4), "-ssn"),
    ("dirac", K.dirac, (LINE, 1), "-n"),
    ("first_moment", K.first_moment, (P, 0), "-n"),
    ("measures_equal", K.measures_equal, (P, Q, 1e-9), "--n"),
    ("mixture", K.mixture, ([0.5, 0.5], [P, Q]), "s-"),
    ("mixture over den", K.mixture, ([1, 1], [P, Q], 2), "s-n"),
    ("pushforward", K.pushforward, ([0, 1, 1], P), "s-"),
    ("NestedMeasure", K.NestedMeasure, (LINE, [P, Q], [0.5, 0.5]), "--s"),
    ("NestedMeasure over den", K.NestedMeasure, (LINE, [P, Q], [1, 1], 2), "--sn"),
    ("check_monad_laws", K.check_monad_laws, (1, 0, 2, 1), "nnnn"),
    ("multiset_from_measure", K.multiset_from_measure, (P, 2), "-n"),
    ("nested_expectation_outer", K.nested_expectation_outer, ([1.0], [NU]), "s-"),
    ("nested_expectation_outer over den", K.nested_expectation_outer, ([1], [NU], 1), "s-n"),
    ("FinUnifMap", K.FinUnifMap, ([0, 1], 2), "sn"),
    ("MultiSet", K.MultiSet, (LINE, [0, 2]), "-s"),
    ("PointTuple", K.PointTuple, (LINE, [0, 2]), "-s"),
    ("repeat_embedding", K.repeat_embedding, (MS, 2), "-n"),
    ("validate_finunif", K.validate_finunif, ([0, 1], 2), "sn"),
    ("rng_from", K.rng_from, (0, 1), "nn"),
    ("EuclideanSpace", K.EuclideanSpace, ([[0.0, 0.0], [3.0, 4.0]],), "s"),
    ("FiniteMetricSpace", K.FiniteMetricSpace, ([[0, 1], [1, 0]], False, [[0.0], [1.0]]), "s-s"),
    ("MetricViolation", K.MetricViolation, ("triangle", (0, 1, 2), 0.5), "-sn"),
    ("check_isometric", K.check_isometric, ([0, 1, 2], LINE, LINE, 1e-9), "s--n"),
    ("check_short", K.check_short, ([0, 1, 2], LINE, LINE, 1e-9), "s--n"),
    ("convex_combination_space", K.convex_combination_space, ([0.5, 0.5], [LINE, LINE]), "s-"),
    ("product_index", K.product_index, ([2, 3], [1, 2]), "ss"),
    ("validate_metric", K.validate_metric, (LINE, 1e-9), "-n"),
    ("vector_distance", K.vector_distance, ([0.0, 0.0], [3.0, 4.0], "l2"), "ss-"),
    ("Coupling", K.Coupling, (P, Q, [[0.5], [0.5]]), "--s"),
    ("DualPotential", K.DualPotential, ((0, 1), [0.0, 1.0]), "ss"),
    ("DualPotential.value_at", RESULT.dual.value_at, (0,), "n"),
    ("TransportResult", K.TransportResult, (0.0, RESULT.coupling, RESULT.dual, 0.0, "flow"),
     "n--n-"),
    ("validate_coupling", K.validate_coupling, (RESULT.coupling, 1e-9), "-n"),
]

# The public callables that take no numbers of their own.
NO_NUMBERS = {
    "KantorovichError", "ParseError", "ValidationError", "barycenter",
    "bistochastic_min", "check_double_quotient", "check_expectation_flatten",
    "check_iota_isometry", "check_ppx_square", "coupling_cost", "curry_flatten", "dirac_kernel",
    "empirical", "empirical_sym", "expectation", "flatten_multiset", "kernel_pushforward",
    "multiset_distance", "multiset_distance_bruteforce", "nested_dirac",
    "nested_tuple_distance", "nested_weight_discrepancy", "operad_compose", "precompose",
    "quotient", "quotient_rows", "tensor_product", "tuple_distance", "unit_discrepancy_multiset",
    "unit_discrepancy_tuple", "w1_assignment", "w1_bruteforce", "w1_dual_value", "w1_flow",
    "wasserstein1", "weight_discrepancy",
}


def _put(arg, value):
    """``arg`` with its first number replaced by ``value``."""
    if isinstance(arg, (list, tuple)):
        return type(arg)([_put(arg[0], value), *arg[1:]])
    return value


def _cases():
    for name, call, args, kinds in CALLS:
        for i, kind in enumerate(kinds):
            if kind == "-":
                continue
            variants = {label: _put(args[i], value) for label, value in BAD.items()}
            if kind == "s":
                variants["empty"] = []
            for label, value in variants.items():
                yield f"{name} argument {i} {label}", call, (*args[:i], value, *args[i + 1:])


def test_every_public_call_that_takes_numbers_is_in_the_table():
    tabled = {name.split(".")[0].split(" ")[0] for name, *_ in CALLS}
    public = {name for name in K.__all__ if callable(getattr(K, name))}
    assert tabled | NO_NUMBERS == public
    assert not tabled & NO_NUMBERS


def test_bad_numbers_return_or_raise_the_librarys_error_without_a_warning():
    failures = []
    for label, call, args in _cases():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(*args)
            except KantorovichError:
                pass
            except Exception as exc:  # anything else, a warning raised as an error too
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
    assert failures == []


# Calls that used to escape with another exception or a warning, or to
# return a value, and that each guard now refuses.
REFUSED = {
    "lambda beyond the floats": lambda: K.c_lambda(ALGEBRA, 10**400, [0, 0], [1, 1]),
    "lambda True": lambda: K.c_lambda(ALGEBRA, True, [0, 0], [1, 1]),
    "radius beyond the floats": lambda: K.truncate_to_ball(P, 0, 10**400),
    "radius text": lambda: K.truncate_to_ball(P, 0, "1"),
    "radius True": lambda: K.truncate_to_ball(P, 0, True),
    "epsilon True": lambda: K.rationalize(P, True),
    "product weight beyond the floats":
        lambda: K.convex_combination_space([10**400, 0], [LINE, LINE]),
    "product weight True": lambda: K.convex_combination_space([True, 0], [LINE, LINE]),
    "weight beyond the floats": lambda: K.DiscreteMeasure(LINE, [0, 1], [10**400, 0.5]),
    "weight True": lambda: K.DiscreteMeasure(LINE, [0, 1], [True, False]),
    "simplex weight True": lambda: K.SimplexWeights([True]),
    "infinite vectors": lambda: K.vector_distance([math.inf, 0], [math.inf, 0], "l2"),
    "NaN point": lambda: K.ConvexAlgebra(2).distance([math.nan, 0], [0, 0]),
    "text table": lambda: K.FiniteMetricSpace([["0", "1"], ["1", "0"]]),
    "boolean table": lambda: K.FiniteMetricSpace([[False, True], [True, False]]),
    "potential values": lambda: K.DualPotential((0, 1), [True, "1"]),
    "table mixing True with numbers": lambda: K.FiniteMetricSpace([[0, True], [True, 0]]),
    "roster mixing True with numbers": lambda: K.EuclideanSpace([[0, True], [1, 0]]),
    "potential mixing True with numbers": lambda: K.DualPotential((0, 1), [True, 1.0]),
    "NaN short-map tolerance": lambda: K.check_short([0, 1, 2], LINE, LINE, math.nan),
    "NaN isometry tolerance": lambda: K.check_isometric([0, 1, 2], LINE, LINE, math.nan),
    "NaN measure tolerance": lambda: K.measures_equal(P, P, math.nan),
    "negative metric tolerance": lambda: K.validate_metric(LINE, -1),
    "mean of no points": lambda: K.mean_point([]),
    "coupling mass beyond the floats": lambda: K.Coupling(P, Q, [[10**400], [0]]),
    "ragged coupling": lambda: K.Coupling(P, Q, [[0.5], [0.25, 0.25]]),
    "coupling text": lambda: K.Coupling(P, Q, [["1"], ["0"]]),
    "coupling True": lambda: K.Coupling(P, Q, [[True], [False]]),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_the_guards_refuse_what_used_to_get_through(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KantorovichError):
            REFUSED[case]()
