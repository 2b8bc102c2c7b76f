import itertools
import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kantorovich import (FinUnifMap, MultiSet, PointTuple,
                         ValidationError, multiset_distance,
                         multiset_distance_bruteforce, power, precompose, quotient,
                         repeat_embedding, tuple_distance, validate_finunif)
from kantorovich.samplers import (random_euclidean_space, random_finunif, random_metric_space,
                                  rng_from)
from kantorovich.tolerances import MAX_ASSIGNMENT_SIZE


def test_tuple_distance_is_average(line3):
    a = PointTuple(line3, [0, 0, 2])
    b = PointTuple(line3, [2, 0, 0])
    assert tuple_distance(a, b) == pytest.approx((2 + 0 + 2) / 3)
    with pytest.raises(ValidationError):
        tuple_distance(a, PointTuple(line3, [0, 1]))  # length mismatch


def test_multiset_canonical_order(line3):
    assert MultiSet(line3, [2, 0, 1]).entries == (0, 1, 2)
    assert MultiSet(line3, [2, 0, 1]) == MultiSet(line3, [1, 2, 0])
    assert hash(MultiSet(line3, [2, 0])) == hash(MultiSet(line3, [0, 2]))


def test_multiset_distance_hand_value(line4):
    # {0,1} vs {2,3}: best is 0->2 (3) and 1->3 (6) = 4.5 avg... check both matchings:
    # 0->2,1->3: (3+6)/2 = 4.5 ; 0->3,1->2: (7+2)/2 = 4.5 -- tie
    a = MultiSet(line4, [0, 1])
    b = MultiSet(line4, [2, 3])
    assert multiset_distance(a, b) == pytest.approx(4.5)
    assert multiset_distance_bruteforce(a, b) == pytest.approx(4.5)


def test_multiset_distance_refuses_sizes_above_the_assignment_cap(line3):
    # n entries cost an n x n table and an O(n^3) assignment.
    big = MultiSet(line3, [i % 3 for i in range(MAX_ASSIGNMENT_SIZE + 1)])
    with pytest.raises(ValidationError, match="exceeds cap") as info:
        multiset_distance(big, big)
    assert info.value.code == "invariant.size_cap"


def test_quotient_is_short(line3):
    a = PointTuple(line3, [0, 2])
    b = PointTuple(line3, [2, 0])
    assert tuple_distance(a, b) == 2.0
    assert multiset_distance(quotient(a), quotient(b)) == 0.0


def test_assignment_matches_bruteforce_oracle():
    for trial in range(40):
        rng = rng_from(101, trial)
        space = random_metric_space(rng, 5)
        n = int(rng.integers(1, 6))
        a = MultiSet(space, rng.integers(0, 5, size=n).tolist())
        b = MultiSet(space, rng.integers(0, 5, size=n).tolist())
        fast = multiset_distance(a, b)
        slow = multiset_distance_bruteforce(a, b)
        assert fast == pytest.approx(slow, abs=1e-9)


def _numpy_scalar_scan(a: MultiSet, b: MultiSet) -> float:
    """The oracle's permutation scan as it read numpy scalars off the table."""
    n = len(a)
    cost = a.space.dist[np.ix_(a.entries, b.entries)]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        total = 0.0
        for i, j in enumerate(perm):
            total += cost[i, j]
            if total >= best:
                break
        else:
            best = total
    return best / n


def test_bruteforce_oracle_keeps_the_bits_of_its_numpy_scan():
    # The oracle adds Python floats where it added numpy scalars: the same
    # additions in the same order, so the same bits. l2 grids give sums that
    # round; entries drawn from 5 points repeat, and repeats tie.
    repeats = 0
    for trial in range(60):
        rng = rng_from(30, 3, trial)
        space = random_euclidean_space(rng, 5, 3, "l2")
        a, b = (MultiSet(space, rng.integers(0, 5, size=trial % 6 + 1).tolist()) for _ in "ab")
        oracle = multiset_distance_bruteforce(a, b)
        assert type(oracle) is float
        assert oracle.hex() == float.hex(_numpy_scalar_scan(a, b)), trial
        repeats += len(set(a.entries)) < len(a)
    assert repeats > 20


def test_bruteforce_minimizes_over_all_matchings(line4):
    a = MultiSet(line4, [0, 1, 2])
    b = MultiSet(line4, [1, 2, 3])
    best = min(
        sum(line4.d(x, y) for x, y in zip(a.entries, perm)) / 3
        for perm in permutations(b.entries))
    assert multiset_distance(a, b) == pytest.approx(best)


def test_repeat_embedding_is_isometric(line4):
    a = MultiSet(line4, [0, 3])
    b = MultiSet(line4, [1, 2])
    base = multiset_distance(a, b)
    for k in (2, 3, 4):
        assert multiset_distance(repeat_embedding(a, k), repeat_embedding(b, k)) \
            == pytest.approx(base, abs=1e-12)


def test_repeat_embedding_refuses_oversized_multisets_before_building(line4, monkeypatch):
    # The cap counts the entries of the result, not the repetition factor.
    # It is checked at a small cap first, so a missing check fails here and
    # not by running out of memory below.
    monkeypatch.setattr(power, "MAX_SAMPLE_SIZE", 6)
    assert repeat_embedding(MultiSet(line4, [0, 3]), 3).entries == (0, 0, 0, 3, 3, 3)
    with pytest.raises(ValidationError, match="sample size 9 exceeds cap 6") as info:
        repeat_embedding(MultiSet(line4, [0, 1, 3]), 3)
    assert info.value.code == "invariant.size_cap"
    for factor in (0, -1):
        with pytest.raises(ValidationError, match="must be positive") as info:
            repeat_embedding(MultiSet(line4, [0, 3]), factor)
        assert info.value.code == "invariant.tuple"
    monkeypatch.undo()
    # 10**9 copies of one entry would take gigabytes; the refusal comes first.
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="sample size 1000000000 exceeds") as info:
            repeat_embedding(MultiSet(line4, [0]), 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.code == "invariant.size_cap"
    assert peak < 100_000


def test_finunif_validation():
    assert validate_finunif([0, 0, 1, 1], 2)
    assert not validate_finunif([0, 0, 0, 1], 2)  # unequal fibers
    assert not validate_finunif([0, 0, 0, 0], 2)  # not surjective
    with pytest.raises(ValidationError):
        FinUnifMap([0, 0, 0, 1], 2)


def test_finunif_refuses_an_empty_codomain():
    assert not validate_finunif([0, 0], 0)
    assert not validate_finunif([-1])  # codomain size max + 1 = 0
    with pytest.raises(ValidationError) as info:
        FinUnifMap([0, 0], 0)
    assert info.value.code == "invariant.finunif"


def test_precompose_isometric(line3):
    phi = FinUnifMap([0, 1, 0, 1], 2)
    a = PointTuple(line3, [0, 2])
    b = PointTuple(line3, [1, 1])
    assert tuple_distance(precompose(phi, a), precompose(phi, b)) \
        == pytest.approx(tuple_distance(a, b), abs=1e-12)


def test_random_finunif_has_uniform_fibers():
    for trial in range(20):
        rng = rng_from(7, trial)
        k = int(rng.integers(1, 5))
        fiber = int(rng.integers(1, 4))
        phi = random_finunif(rng, k, fiber)
        assert validate_finunif(phi.assignment, phi.codomain_size)


@given(st.integers(min_value=0, max_value=624))
@settings(max_examples=30, deadline=None)
def test_multiset_metric_axioms(seed):
    rng = rng_from(202, seed)
    space = random_metric_space(rng, 5)
    size = int(rng.integers(1, 5))
    ms = [MultiSet(space, rng.integers(0, 5, size=size).tolist()) for _ in range(3)]
    a, b, c = ms
    dab, dba = multiset_distance(a, b), multiset_distance(b, a)
    assert dab == pytest.approx(dba, abs=1e-12)
    assert multiset_distance(a, a) == 0.0
    assert dab + multiset_distance(b, c) >= multiset_distance(a, c) - 1e-9
