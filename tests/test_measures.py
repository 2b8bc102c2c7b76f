from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kantorovich import (DiscreteMeasure, ValidationError, dirac, first_moment,
                         measures_equal, mixture, pushforward,
                         weight_discrepancy)


def test_canonicalization_sorts_merges_drops(line3):
    p = DiscreteMeasure(line3, [2, 0, 2, 1],
                        [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4), Fraction(0)])
    assert list(p.support) == [0, 2]
    assert p.fractions == (Fraction(1, 2), Fraction(1, 2))
    assert p.weight_of(1) == 0.0
    assert p.fraction_of(2) == Fraction(1, 2)


def test_weights_must_be_a_distribution(line3):
    with pytest.raises(ValidationError):
        DiscreteMeasure(line3, [0, 1], [0.5, 0.6])
    with pytest.raises(ValidationError):
        DiscreteMeasure(line3, [0, 1], [-0.1, 1.1])
    with pytest.raises(ValidationError):
        DiscreteMeasure(line3, [0, 5], [0.5, 0.5])
    with pytest.raises(ValidationError):
        DiscreteMeasure(line3, [0], [0.5])


def test_non_finite_weights_rejected(line3):
    # NaN compares False with everything, so it slipped past the sum check.
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValidationError, match="not finite"):
            DiscreteMeasure(line3, [0, 1], [bad, 0.5])
        with pytest.raises(ValidationError, match="not finite"):
            mixture([bad, 0.5], [dirac(line3, 0), dirac(line3, 1)])


def test_float_weights_have_no_fraction_view(line3):
    p = DiscreteMeasure(line3, [0, 1], [0.3, 0.7])
    assert p.fractions is None
    with pytest.raises(ValidationError):
        p.fraction_of(0)


def test_from_rational_and_denominator(line3):
    p = DiscreteMeasure.from_rational(line3, [0, 1, 2], [1, 2, 3], 6)
    assert p.fractions == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    assert p.denominator == 6
    q = DiscreteMeasure.from_rational(line3, [0, 1], [1, 1], 2)
    assert q.denominator == 2


def test_dirac_and_canonical_key(line3):
    d0 = dirac(line3, 0)
    assert list(d0.support) == [0]
    assert d0.fractions == (Fraction(1),)
    assert d0.canonical_key() == dirac(line3, 0).canonical_key()
    assert d0.canonical_key() != dirac(line3, 1).canonical_key()


def test_pushforward_merges_fibers(line3):
    p = DiscreteMeasure.from_rational(line3, [0, 1, 2], [1, 1, 2], 4)
    q = pushforward(lambda i: 0 if i < 2 else 2, p)
    assert list(q.support) == [0, 2]
    assert q.fractions == (Fraction(1, 2), Fraction(1, 2))
    # index-array form agrees
    q2 = pushforward(np.array([0, 0, 2]), p)
    assert measures_equal(q, q2, 0.0)


def test_mixture_exact(line3):
    p = dirac(line3, 0)
    q = dirac(line3, 2)
    m = mixture([Fraction(1, 3), Fraction(2, 3)], [p, q])
    assert m.fractions == (Fraction(1, 3), Fraction(2, 3))
    # zero coefficients drop their component entirely
    m2 = mixture([Fraction(0), Fraction(1)], [p, q])
    assert measures_equal(m2, q, 0.0)


def test_mixture_requires_shared_space(line3, line4):
    with pytest.raises(ValidationError):
        mixture([0.5, 0.5], [dirac(line3, 0), dirac(line4, 0)])


def test_first_moment_hand_value(line3):
    p = DiscreteMeasure.from_rational(line3, [0, 1, 2], [1, 1, 2], 4)
    # distances to 0: 0, 1, 2 -> 1/4*0 + 1/4*1 + 1/2*2 = 5/4
    assert first_moment(p, 0) == pytest.approx(1.25, abs=1e-15)


def test_weight_discrepancy_exact_and_float(line3):
    p = DiscreteMeasure.from_rational(line3, [0, 1], [1, 1], 2)
    q = DiscreteMeasure.from_rational(line3, [0, 2], [1, 3], 4)
    # pointwise gaps over union support: 1/4 at 0, 1/2 at 1, 3/4 at 2
    assert weight_discrepancy(p, q) == 0.75
    pf = DiscreteMeasure(line3, [0, 1], [0.5, 0.5])
    assert weight_discrepancy(p, pf) == 0.0
    assert measures_equal(p, pf, 1e-12)


def test_weight_discrepancy_of_exact_against_float_is_a_float_difference(line3):
    exact = DiscreteMeasure(line3, [0, 1], [Fraction(1, 3), Fraction(2, 3)])
    floats = DiscreteMeasure(line3, [0, 1], [0.1, 0.9])
    expected = max(abs(float(Fraction(1, 3)) - 0.1), abs(float(Fraction(2, 3)) - 0.9))
    # the exact difference rounds to another float
    assert expected != float(max(abs(Fraction(1, 3) - Fraction(0.1)),
                                 abs(Fraction(2, 3) - Fraction(0.9))))
    assert weight_discrepancy(exact, floats) == expected
    assert weight_discrepancy(floats, exact) == expected


def test_exact_weights_within_tolerance_of_one_are_kept_as_given(line3):
    heavy = Fraction(1, 2) + Fraction(1, 10**15)
    p = DiscreteMeasure(line3, [0, 2], [heavy, Fraction(1, 2)])
    assert p.fractions == (heavy, Fraction(1, 2))
    assert sum(p.fractions) == 1 + Fraction(1, 10**15)


@st.composite
def rational_weights(draw):
    den = draw(st.integers(min_value=1, max_value=20))
    cuts = draw(st.lists(st.integers(min_value=0, max_value=den),
                         min_size=2, max_size=2))
    bounds = sorted([0, *cuts, den])
    nums = [bounds[i + 1] - bounds[i] for i in range(3)]
    return den, nums


@given(rational_weights())
@settings(max_examples=60, deadline=None)
def test_weights_always_sum_to_one(case):
    line = __import__("kantorovich").FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    den, nums = case
    p = DiscreteMeasure(line, [0, 1, 2], [Fraction(n, den) for n in nums])
    assert sum(p.fractions) == 1
    assert float(np.sum(p.weights)) == pytest.approx(1.0, abs=1e-12)
    assert all(w > 0 for w in p.fractions)
    assert list(p.support) == sorted(set(p.support))
