import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kantorovich import (TAU_WEIGHT, DiscreteMeasure, FiniteMetricSpace, ValidationError, dirac,
                         first_moment, measures_equal, mixture, pushforward,
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
        with pytest.raises(ValidationError, match="outside"):
            DiscreteMeasure(line3, [0, 1], [bad, 0.5])
        with pytest.raises(ValidationError, match="outside"):
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


def test_support_index_outside_the_space_names_the_smallest(line3):
    with pytest.raises(ValidationError, match="^support index -2 outside space$"):
        DiscreteMeasure(line3, [5, 1, -2, 4, 0], [1, 1, 1, 1, 1], 5)
    with pytest.raises(ValidationError, match="^support index 3 outside space$") as err:
        DiscreteMeasure(line3, [7, 3, 2], [0.25, 0.25, 0.5])
    assert err.value.code == "invariant.measure"


def _fraction_weights(values, code, label, exact=True, keys=None, order=None):
    """The weight check as it stood with one Fraction per weight, before
    exact weights became integers over one denominator: the oracle of the
    integer format."""
    exact = exact and all(isinstance(w, (int, Fraction)) for w in values)
    vals = [(w if type(w) is Fraction else Fraction(w)) if exact else float(w) for w in values]
    for i, w in enumerate(vals):
        if not (exact or math.isfinite(w)):
            raise ValidationError(code, f"{label} {i} is not finite: {w!r}")
        if w < 0:
            raise ValidationError(code, f"{label} {i} is negative: {w!r}")
    add = sum if exact else math.fsum
    if keys is not None:
        groups: dict = {}
        for key, w in zip(keys, vals):
            groups.setdefault(key, []).append(w)
        keys, vals = [], []
        for key in sorted(groups, key=order):
            ws = groups[key]
            w = ws[0] if len(ws) == 1 else add(ws)
            if w != 0:
                keys.append(key)
                vals.append(w)
        keys = tuple(keys)
    total = add(vals)
    if total != 1 and abs(total - 1) > TAU_WEIGHT:
        raise ValidationError(code, f"{label}s sum to {total}, not 1")
    weights = np.array([float(w) for w in vals])
    weights.setflags(write=False)
    if not exact:
        return keys, weights, None
    return keys, weights, tuple(vals)


@st.composite
def keyed_numerators(draw):
    """Keys with repeats and numerators over den: a composition of den with
    zeros, so that some keys merge to zero, then maybe one entry made
    negative or the sum pushed off 1 by at least 1/den."""
    den = draw(st.integers(min_value=1, max_value=40))
    k = draw(st.integers(min_value=1, max_value=8))
    keys = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=k, max_size=k))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=den),
                                min_size=k - 1, max_size=k - 1)))
    nums = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
    fault = draw(st.sampled_from(["none", "none", "negative", "off"]))
    i = draw(st.integers(min_value=0, max_value=k - 1))
    if fault == "negative":
        nums[i] = -draw(st.integers(min_value=1, max_value=den))
    elif fault == "off":
        nums[i] += draw(st.sampled_from([-1, 1])) * draw(st.integers(min_value=1, max_value=den))
    return keys, nums, den


@given(keyed_numerators())
@example(([2, 0, 2, 1], [1, 2, 1, 0], 4))  # key 1 merges to zero, key 2 merges to 1/2
@example(([3, 3], [0, 0], 5))  # every key merges to zero
@settings(max_examples=300, deadline=None)
def test_integer_weights_match_the_fraction_oracle(case):
    keys, nums, den = case
    space = FiniteMetricSpace(np.ones((5, 5)) - np.eye(5))
    fractions = [Fraction(n, den) for n in nums]
    try:
        expected = _fraction_weights(fractions, "invariant.measure", "weight", keys=keys)
    except ValidationError as exc:
        expected = exc
    for build in (lambda: DiscreteMeasure(space, keys, nums, den),
                  lambda: DiscreteMeasure(space, keys, fractions),
                  lambda: DiscreteMeasure.from_rational(space, keys, nums, den)):
        if isinstance(expected, ValidationError):
            with pytest.raises(ValidationError) as err:
                build()
            assert (err.value.code, err.value.message) == (expected.code, expected.message)
            continue
        p = build()
        support, weights, exact = expected
        assert p.support == support
        assert p.weights.tobytes() == weights.tobytes()
        assert p.fractions == exact
        assert p.denominator == math.lcm(*(w.denominator for w in exact))
        assert p.den == p.denominator and math.gcd(p.den, *p.nums) == 1
