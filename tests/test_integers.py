"""Every index, count and size a caller passes goes through one guard,
``spaces._integer``: an integer, numpy's included, is taken as the int it
is; anything else, a float such as 2.0 too, is refused with the code of the
function it was passed to, and a value above a budget with
invariant.size_cap."""

import json
from fractions import Fraction

import numpy as np
import pytest

from kantorovich import (ConvexAlgebra, DiscreteMeasure, DualPotential, FiniteMetricSpace,
                         FinUnifMap, MultiSet, PointTuple, ValidationError, check_algebra_laws,
                         check_short, convergence_study, convex_axioms, dirac, first_moment,
                         mixture, multiset_from_measure, product_index, pushforward,
                         repeat_embedding, run_law_suite, sample_empirical, truncate_to_ball,
                         wasserstein1)
from kantorovich.samplers import (distinct_points, random_euclidean_space, random_finunif,
                                  random_metric_space, random_multiset, random_nested_multiset,
                                  random_nested_tuple, random_rational_pair, random_space,
                                  random_tuple, rng_from, simplex_floats, simplex_fractions)
from kantorovich.tolerances import MAX_RANDOM_POINTS, MAX_TRIALS

LINE = FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
HALF = DiscreteMeasure(LINE, [0, 2], [1, 1], 2)
POTENTIAL = DualPotential((0, 1), [0.0, 1.0])
ALGEBRA = ConvexAlgebra(2)
RNG = rng_from(0)  # the samplers refuse a bad count before they draw from it

# (call, the code it is refused with), one entry per bad argument.
_BAD = {
    "dirac point": (lambda: dirac(LINE, 1.5), "invariant.measure"),
    "dirac point True": (lambda: dirac(LINE, True), "invariant.measure"),
    "dirac point numpy True": (lambda: dirac(LINE, np.True_), "invariant.measure"),
    "pushforward map": (lambda: pushforward([0, 1.5, 2], dirac(LINE, 1)), "invariant.measure"),
    "tuple entry": (lambda: PointTuple(LINE, [1.5]), "invariant.tuple"),
    "multiset entries": (lambda: MultiSet(LINE, np.array([0.0, 2.0])), "invariant.tuple"),
    "rational denominator": (lambda: DiscreteMeasure.from_rational(LINE, [0], [1], 1.5),
                             "invariant.measure"),
    "measure numerator": (lambda: DiscreteMeasure(LINE, [0, 1], [0.5, 1.5], 2),
                          "invariant.measure"),
    "measure denominator": (lambda: DiscreteMeasure(LINE, [0], [2], 2.0), "invariant.measure"),
    "mixture denominator": (lambda: mixture([1, 1], [HALF, HALF], 2.0), "invariant.weights"),
    "algebra dimension": (lambda: ConvexAlgebra(2.5), "invariant.algebra"),
    "algebra dimension text": (lambda: ConvexAlgebra("3"), "invariant.algebra"),
    "algebra dimension cap": (lambda: ConvexAlgebra(np.int64(10**6)), "invariant.size_cap"),
    "multi-index entry": (lambda: product_index([2, 3], [1, 2.5]), "invariant.map"),
    "product size": (lambda: product_index([2, 3.0], [1, 2]), "invariant.map"),
    "short map value": (lambda: check_short([0, 1.5, 2], LINE, LINE), "invariant.map"),
    "short map range": (lambda: check_short([0, 1, 3], LINE, LINE), "invariant.map"),
    "finunif value": (lambda: FinUnifMap([0, 1.5], 2), "invariant.finunif"),
    "finunif codomain": (lambda: FinUnifMap([0, 1], 2.0), "invariant.finunif"),
    "multiset size": (lambda: multiset_from_measure(HALF, 4.5), "invariant.tuple"),
    "repetition count": (lambda: repeat_embedding(MultiSet(LINE, [0, 2]), 1.5),
                         "invariant.tuple"),
    "sample size": (lambda: sample_empirical(HALF, 2.5), "invariant.tuple"),
    "study size": (lambda: convergence_study(HALF, [2.5], 1), "invariant.tuple"),
    "study trials": (lambda: convergence_study(HALF, [2], 1.5), "invariant.weights"),
    "study trials cap": (lambda: convergence_study(HALF, [2], MAX_TRIALS + 1),
                         "invariant.size_cap"),
    "truncation center": (lambda: truncate_to_ball(HALF, 1.5, 1.0), "invariant.measure"),
    "moment point": (lambda: first_moment(HALF, 1.5), "invariant.measure"),
    "weight point 1.0": (lambda: HALF.weight_of(1.0), "invariant.measure"),
    "weight point True": (lambda: HALF.weight_of(True), "invariant.measure"),
    "weight point text": (lambda: HALF.weight_of("1"), "invariant.measure"),
    "weight point 2.5": (lambda: HALF.weight_of(2.5), "invariant.measure"),
    "weight point outside space": (lambda: HALF.weight_of(3), "invariant.measure"),
    "fraction point 1.0": (lambda: HALF.fraction_of(1.0), "invariant.measure"),
    "fraction point True": (lambda: HALF.fraction_of(True), "invariant.measure"),
    "fraction point text": (lambda: HALF.fraction_of("1"), "invariant.measure"),
    "fraction point outside space": (lambda: HALF.fraction_of(-1), "invariant.measure"),
    "potential point 1.0": (lambda: POTENTIAL.value_at(1.0), "invariant.dual"),
    "potential point True": (lambda: POTENTIAL.value_at(True), "invariant.dual"),
    "potential point text": (lambda: POTENTIAL.value_at("1"), "invariant.dual"),
    "suite trials": (lambda: run_law_suite(trials=2.5), "invariant.weights"),
    "suite trials below one": (lambda: run_law_suite(trials=-5), "invariant.weights"),
    "suite trials cap": (lambda: run_law_suite(trials=MAX_TRIALS + 1), "invariant.size_cap"),
    "suite max_points": (lambda: run_law_suite(max_points=1), "invariant.space"),
    "suite max_support": (lambda: run_law_suite(max_support=0), "invariant.measure"),
    "random table size": (lambda: random_metric_space(rng_from(0), 2.5), "invariant.space"),
    "random space cap": (lambda: random_space(rng_from(0), np.int64(MAX_RANDOM_POINTS + 1)),
                         "invariant.size_cap"),
    "euclidean points": (lambda: random_euclidean_space(RNG, 2.5, 2), "invariant.space"),
    "euclidean dimension": (lambda: random_euclidean_space(RNG, 2, 1.5), "invariant.space"),
    "random tuple length": (lambda: random_tuple(RNG, LINE, 2.5), "invariant.tuple"),
    "random multiset length": (lambda: random_multiset(RNG, LINE, 2.5), "invariant.tuple"),
    "nested tuple outer": (lambda: random_nested_tuple(RNG, LINE, 1.5, 2), "invariant.tuple"),
    "nested tuple inner": (lambda: random_nested_tuple(RNG, LINE, 2, 2.5), "invariant.tuple"),
    "nested multiset outer": (lambda: random_nested_multiset(RNG, LINE, 1.5, 2),
                              "invariant.tuple"),
    "nested multiset inner": (lambda: random_nested_multiset(RNG, LINE, 2, 2.5),
                              "invariant.tuple"),
    "simplex size": (lambda: simplex_fractions(RNG, 2.5, 6), "invariant.weights"),
    "float simplex size": (lambda: simplex_floats(RNG, 2.5), "invariant.weights"),
    "simplex denominator": (lambda: simplex_fractions(RNG, 2, 6.5), "invariant.weights"),
    "finunif codomain size": (lambda: random_finunif(RNG, 2.5, 2), "invariant.finunif"),
    "finunif fiber": (lambda: random_finunif(RNG, 2, 1.5), "invariant.finunif"),
    "rational pair max_support": (lambda: random_rational_pair(RNG, LINE, max_support=2.5),
                                  "invariant.measure"),
    "distinct points count": (lambda: distinct_points(2.5, lambda: (int(RNG.integers(0, 9)),)),
                              "invariant.space"),
    "algebra trials": (lambda: check_algebra_laws(ALGEBRA, trials=-1), "invariant.weights"),
    "axiom trials": (lambda: convex_axioms(ALGEBRA, trials=2.5), "invariant.weights"),
}


@pytest.mark.parametrize("case", list(_BAD))
def test_bad_integers_are_refused_with_the_code_of_their_function(case):
    call, code = _BAD[case]
    with pytest.raises(ValidationError) as info:
        call()
    assert info.value.code == code


def test_bad_sampler_counts_are_refused_before_the_first_draw():
    state = RNG.bit_generator.state
    for call, _ in _BAD.values():
        with pytest.raises(ValidationError):
            call()
    assert RNG.bit_generator.state == state


def test_numpy_integers_give_the_python_int_results():
    # Each pair is one call with Python ints and one with np.int64: equal
    # results to the bit, and plain ints wherever an argument is stored.
    i = np.int64
    p = DiscreteMeasure(LINE, [0, 2], [1, 3], 4)
    q = DiscreteMeasure(LINE, [i(0), i(2)], [i(1), i(3)], i(4))
    assert (q.support, q.nums, q.den) == (p.support, p.nums, p.den)
    assert q.weights.tobytes() == p.weights.tobytes()
    assert {type(v) for v in (*q.support, *q.nums, q.den)} == {int}
    r = wasserstein1(p, dirac(LINE, 1)), wasserstein1(q, dirac(LINE, i(1)))
    assert (r[1].cost, r[1].gap, r[1].solver) == (r[0].cost, r[0].gap, r[0].solver)
    assert r[1].coupling.matrix.tobytes() == r[0].coupling.matrix.tobytes()

    for kind in (PointTuple, MultiSet):
        entries = kind(LINE, np.array([2, 0, 2])).entries
        assert entries == kind(LINE, [2, 0, 2]).entries
        assert {type(v) for v in entries} == {int}

    assert sample_empirical(p, i(16), 3).entries == sample_empirical(p, 16, 3).entries
    assert multiset_from_measure(p, i(8)) == multiset_from_measure(p, 8)

    algebra = ConvexAlgebra(i(3))
    assert type(algebra.dim) is int
    assert check_algebra_laws(algebra, i(5), 1) == check_algebra_laws(ConvexAlgebra(3), 5, 1)

    suite = [r.to_json() for r in run_law_suite(trials=i(2), seed=4)]
    assert suite == [r.to_json() for r in run_law_suite(trials=2, seed=4)]
    json.dumps(suite)  # plain JSON types, trials included
    study = convergence_study(p, [i(4)], i(2))
    assert study == convergence_study(p, [4], 2)
    json.dumps(study)


def test_lookups_read_integer_points_only():
    # A point of the space off the support weighs nothing; an integer that is
    # not a point of the potential leaves it undefined.
    i = np.int64
    assert (HALF.weight_of(0), HALF.weight_of(i(2)), HALF.weight_of(1)) == (0.5, 0.5, 0.0)
    assert (HALF.fraction_of(i(0)), HALF.fraction_of(1)) == (Fraction(1, 2), Fraction(0))
    assert type(HALF.fraction_of(1)) is Fraction
    assert (POTENTIAL.value_at(0), POTENTIAL.value_at(i(1))) == (0.0, 1.0)
    for point in (2, -1):
        with pytest.raises(ValidationError, match="potential undefined"):
            POTENTIAL.value_at(point)
