import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kantorovich import (MultiSet, NestedMultiSet, NestedTuple,
                         ValidationError, check_assoc_square,
                         check_double_quotient, curry_flatten,
                         flatten_multiset, multiset_distance,
                         nested_tuple_distance, quotient_rows, tuple_distance,
                         unit_discrepancy_multiset, unit_discrepancy_tuple)
from kantorovich.samplers import (random_metric_space, random_multiset,
                                  random_nested_tuple,
                                  random_tuple, rng_from)


def test_nested_tuple_must_be_rectangular(line3):
    with pytest.raises(ValidationError):
        NestedTuple(line3, [[0, 1], [2]])


def test_curry_flatten_row_major(line3):
    nt = NestedTuple(line3, [[0, 1], [2, 0]])
    assert curry_flatten(nt).entries == (0, 1, 2, 0)


def test_flatten_multiset_is_union(line3):
    nms = NestedMultiSet(line3, [[2, 0], [1, 1]])
    assert flatten_multiset(nms).entries == (0, 1, 1, 2)


def test_nested_multiset_canonical(line3):
    a = NestedMultiSet(line3, [[2, 0], [1, 1]])
    b = NestedMultiSet(line3, [[1, 1], [0, 2]])
    assert a == b
    assert hash(a) == hash(b)


def test_nested_tuple_distance_averages_rows(line3):
    a = NestedTuple(line3, [[0, 0], [2, 2]])
    b = NestedTuple(line3, [[1, 1], [2, 0]])
    # row distances: (1+1)/2 = 1 and (0+2)/2 = 1 -> (1+1)/2
    assert nested_tuple_distance(a, b) == pytest.approx(1.0)


def test_quotient_rows_forgets_row_order_only(line3):
    nt = NestedTuple(line3, [[0, 1], [2, 0]])
    q = quotient_rows(nt)
    assert q.inners == (MultiSet(line3, [0, 1]).entries, MultiSet(line3, [0, 2]).entries) \
        or q == NestedMultiSet(line3, [[0, 1], [0, 2]])


def test_unit_triangles_random():
    for trial in range(50):
        rng = rng_from(31, trial)
        space = random_metric_space(rng, 5)
        n = int(rng.integers(1, 5))
        assert unit_discrepancy_tuple(random_tuple(rng, space, n)) == 0.0
        assert unit_discrepancy_multiset(random_multiset(rng, space, n)) == 0.0


def test_assoc_square_exact_on_random_grids():
    for trial in range(50):
        rng = rng_from(32, trial)
        space = random_metric_space(rng, 4)
        dims = [int(rng.integers(1, 4)) for _ in range(3)]
        grid3 = [[[int(rng.integers(0, 4)) for _ in range(dims[2])]
                  for _ in range(dims[1])] for _ in range(dims[0])]
        assert check_assoc_square(space, grid3) == 0.0
        assert check_assoc_square(space, grid3, symmetrized=True) == 0.0


def test_double_quotient_commutes_random():
    for trial in range(50):
        rng = rng_from(33, trial)
        space = random_metric_space(rng, 4)
        outer, inner = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        assert check_double_quotient(random_nested_tuple(rng, space, outer, inner)) == 0.0


def test_flatten_is_isometric_onto_its_image():
    # the flattening map from nested tuples with the averaged metric to flat
    # tuples preserves distance
    for trial in range(30):
        rng = rng_from(34, trial)
        space = random_metric_space(rng, 4)
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        rows_a = [[int(rng.integers(0, 4)) for _ in range(m)] for _ in range(n)]
        rows_b = [[int(rng.integers(0, 4)) for _ in range(m)] for _ in range(n)]
        a, b = NestedTuple(space, rows_a), NestedTuple(space, rows_b)
        assert tuple_distance(curry_flatten(a), curry_flatten(b)) \
            == pytest.approx(nested_tuple_distance(a, b), abs=1e-12)


@given(st.integers(min_value=0, max_value=2000))
@settings(max_examples=40, deadline=None)
def test_quotient_of_flatten_never_exceeds_tuple_distance(seed):
    rng = rng_from(35, seed)
    space = random_metric_space(rng, 4)
    n, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    mk = lambda: NestedTuple(space, [[int(rng.integers(0, 4)) for _ in range(m)]
                                     for _ in range(n)])
    a, b = mk(), mk()
    flat = tuple_distance(curry_flatten(a), curry_flatten(b))
    quotiented = multiset_distance(flatten_multiset(quotient_rows(a)),
                                   flatten_multiset(quotient_rows(b)))
    assert quotiented <= flat + 1e-9
