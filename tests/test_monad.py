import tracemalloc
from fractions import Fraction

import pytest

from kantorovich import (DiscreteMeasure, MultiSet,
                         NestedMeasure, PointTuple, SimplexWeights, ValidationError,
                         check_expectation_flatten,
                         check_iota_isometry, check_monad_laws,
                         check_ppx_square, dirac, dirac_kernel, empirical,
                         empirical_sym, expectation, kernel_pushforward,
                         measures_equal, mixture, multiset_from_measure, nested_dirac,
                         nested_expectation_outer, nested_weight_discrepancy,
                         operad_compose, wasserstein1)
from kantorovich import power
from kantorovich.samplers import (random_measure, random_metric_space,
                                  random_nested_multiset,
                                  rng_from, simplex_fractions)


def test_empirical_counts(line3):
    t = PointTuple(line3, [0, 0, 2, 1])
    p = empirical(t)
    assert p.fraction_of(0) == Fraction(1, 2)
    assert p.fraction_of(1) == Fraction(1, 4)
    assert p.fraction_of(2) == Fraction(1, 4)
    # order of entries is irrelevant: the multiset version agrees
    assert measures_equal(p, empirical_sym(MultiSet(line3, [1, 2, 0, 0])), 0.0)


def test_multiset_from_measure_round_trips(line3):
    p = DiscreteMeasure.from_rational(line3, [0, 2], [1, 3], 4)
    ms = multiset_from_measure(p)
    assert ms.entries == (0, 2, 2, 2)
    assert measures_equal(empirical_sym(ms), p, 0.0)
    bigger = multiset_from_measure(p, size=8)
    assert len(bigger.entries) == 8
    assert measures_equal(empirical_sym(bigger), p, 0.0)


def test_multiset_from_measure_refuses_oversized_multisets_before_building(line3, monkeypatch):
    # A size at the cap is built and one above it is refused, checked at a
    # small cap first, so a missing check fails here and not by running out
    # of memory below.
    half = DiscreteMeasure.from_rational(line3, [0, 2], [1, 1], 2)
    monkeypatch.setattr(power, "MAX_SAMPLE_SIZE", 6)
    assert multiset_from_measure(half, 6).entries == (0, 0, 0, 2, 2, 2)
    with pytest.raises(ValidationError, match="sample size 8 exceeds cap 6"):
        multiset_from_measure(half, 8)
    monkeypatch.undo()
    # A denominator of 2**1100, or a requested size of 10**9, would need that
    # many entries; the refusal comes before any of them is built.
    huge = DiscreteMeasure.from_rational(line3, [0, 1], [1, 2**1100 - 1], 2**1100)
    tracemalloc.start()
    try:
        for p, size in ((huge, None), (half, 10**9)):
            with pytest.raises(ValidationError, match="exceeds cap 1000000") as info:
                multiset_from_measure(p, size)
            assert info.value.code == "invariant.size_cap"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_empirical_is_isometric_embedding():
    # distance between empirical measures equals the multiset distance
    for trial in range(40):
        rng = rng_from(41, trial)
        space = random_metric_space(rng, 5)
        n = int(rng.integers(1, 5))
        a = MultiSet(space, rng.integers(0, 5, size=n).tolist())
        b = MultiSet(space, rng.integers(0, 5, size=n).tolist())
        assert check_iota_isometry(a, b) <= 1e-9


def test_nested_measure_dedups_inner_entries(line3):
    p = dirac(line3, 0)
    q = dirac(line3, 2)
    mu = NestedMeasure(line3, [p, q, dirac(line3, 0)],
                       [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    assert len(mu.inner) == 2
    assert mu.outer_fractions == (Fraction(3, 4), Fraction(1, 4))


def test_exact_and_float_copies_of_a_measure_share_one_roster_entry(line3):
    exact = DiscreteMeasure(line3, [0, 2], [Fraction(1, 2), Fraction(1, 2)])
    floats = DiscreteMeasure(line3, [0, 2], [0.5, 0.5])
    mu = NestedMeasure(line3, [exact, floats], [Fraction(1, 2), Fraction(1, 2)])
    assert len(mu) == 1
    assert mu.outer_weights.tolist() == [1.0]
    assert mu.outer_fractions is None


def test_exact_coefficients_with_a_float_part_multiply_in_floats(line3):
    # Every product is float(c) * float(w), which here differs from float(c * w).
    c, w = Fraction(1, 3), Fraction(3, 5)
    product = float(c) * float(w)
    assert product != float(c * w)
    floats = DiscreteMeasure(line3, [2], [1.0])
    mixed = mixture([c, 1 - c], [DiscreteMeasure(line3, [0, 1], [w, 1 - w]), floats])
    assert mixed.fractions is None
    assert mixed.weight_of(0) == product
    outer = nested_expectation_outer(
        [c, 1 - c], [NestedMeasure(line3, [dirac(line3, 0), dirac(line3, 1)], [w, 1 - w]),
                     NestedMeasure(line3, [floats], [1.0])])
    assert outer.outer_fractions is None
    assert outer.outer_weights[0] == product
    composed = operad_compose(SimplexWeights([c, 1 - c]),
                              [SimplexWeights([w, 1 - w]), SimplexWeights([1.0])])
    assert composed.fractions is None
    assert composed.entries[0] == product


def test_expectation_mixes(line3):
    p = DiscreteMeasure.from_rational(line3, [0, 1], [1, 1], 2)
    q = dirac(line3, 2)
    mu = NestedMeasure(line3, [p, q], [Fraction(1, 2), Fraction(1, 2)])
    flat = expectation(mu)
    assert flat.fractions == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))


def test_unit_laws_by_hand(line3):
    p = DiscreteMeasure.from_rational(line3, [0, 2], [1, 2], 3)
    # dirac-on-measures then average: recovers p
    assert measures_equal(expectation(nested_dirac(p)), p, 0.0)
    # pointwise dirac kernel then average: also recovers p
    assert measures_equal(expectation(kernel_pushforward(dirac_kernel(line3), p)), p, 0.0)


def test_monad_laws_exact_and_float():
    worst = check_monad_laws(trials=60, seed=5, max_points=5, max_support=3)
    assert worst == {"left_unit": 0.0, "right_unit": 0.0, "associativity": 0.0}
    worst_float = check_monad_laws(trials=60, seed=5, max_points=5, max_support=3,
                                   exact=False)
    assert all(v <= 1e-12 for v in worst_float.values()), worst_float


def test_nested_expectation_outer_flattens_outer_layers(line3):
    p = dirac(line3, 0)
    q = dirac(line3, 2)
    inner_a = NestedMeasure(line3, [p, q], [Fraction(1, 2), Fraction(1, 2)])
    inner_b = NestedMeasure(line3, [q], [Fraction(1)])
    mixed = nested_expectation_outer([Fraction(1, 2), Fraction(1, 2)],
                                     [inner_a, inner_b])
    # outer-first flattening gives 1/4 p + 3/4 q as a measure on measures
    assert measures_equal(expectation(mixed),
                          DiscreteMeasure.from_rational(line3, [0, 2], [1, 3], 4), 0.0)


def test_nested_weight_discrepancy_detects_roster_mismatch(line3):
    a = nested_dirac(dirac(line3, 0))
    b = nested_dirac(dirac(line3, 1))
    assert nested_weight_discrepancy(a, b) == float("inf")
    assert nested_weight_discrepancy(a, nested_dirac(dirac(line3, 0))) == 0.0


def test_expectation_flatten_square_random():
    for trial in range(50):
        rng = rng_from(42, trial)
        space = random_metric_space(rng, 5)
        outer, inner = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        nms = random_nested_multiset(rng, space, outer, inner)
        assert check_expectation_flatten(nms) == 0.0


def test_ppx_square_random():
    for trial in range(50):
        rng = rng_from(43, trial)
        space = random_metric_space(rng, 5)
        outer, inner = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        nms = random_nested_multiset(rng, space, outer, inner)
        assert check_ppx_square(nms)


def test_expectation_is_short_for_w1():
    # averaging cannot increase W1: d(E mu, E nu) <= coupled cost of outer layers
    # checked here in the simplest nontrivial form, shared outer weights
    for trial in range(25):
        rng = rng_from(44, trial)
        space = random_metric_space(rng, 5)
        k = int(rng.integers(1, 4))
        coeffs = simplex_fractions(rng, k, 8)
        inner_a = [random_measure(rng, space, max_support=3) for _ in range(k)]
        inner_b = [random_measure(rng, space, max_support=3) for _ in range(k)]
        left = expectation(NestedMeasure(space, inner_a, coeffs, 8))
        right = expectation(NestedMeasure(space, inner_b, coeffs, 8))
        pairwise = sum(c / 8 * wasserstein1(a, b).cost
                       for c, a, b in zip(coeffs, inner_a, inner_b))
        assert wasserstein1(left, right).cost <= pairwise + 1e-9
