import array
import math

import numpy as np
import pytest

from kantorovich import (DualPotential, EuclideanSpace, FiniteMetricSpace, MetricViolation,
                         ValidationError, check_isometric, check_short,
                         convex_combination_space, product_index,
                         tensor_product, validate_metric, vector_distance)
from kantorovich.samplers import random_metric_space, rng_from


def test_construction_and_lookup(line3):
    assert line3.n == 3
    assert line3.d(0, 2) == 2.0
    assert line3.d(2, 0) == 2.0
    with pytest.raises(ValidationError):
        FiniteMetricSpace([[0, 1], [1, 0], [1, 1]])  # not square


def test_non_finite_tables_rejected():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="non-finite"):
            FiniteMetricSpace([[0, bad], [bad, 0]])
        with pytest.raises(ValidationError, match="non-finite"):
            EuclideanSpace([[0.0], [bad]])


def test_table_is_frozen(line3):
    with pytest.raises(ValueError):
        line3.dist[0, 1] = 99.0


def test_arrays_are_copied_from_buffers_the_caller_keeps():
    table = np.array([[0.0, 1.0], [1.0, 0.0]])
    values = array.array("d", [0.0, 2.0])
    space = FiniteMetricSpace(memoryview(table))
    line = EuclideanSpace(memoryview(table))
    potential = DualPotential((0, 1), values)
    table[0, 1] = values[1] = 99.0
    assert space.dist[0, 1] == line.points[0, 1] == 1.0 and potential.values[1] == 2.0


def test_validate_metric_catches_each_axiom():
    # asymmetry
    bad = FiniteMetricSpace([[0, 1], [2, 0]])
    axioms = {v.axiom for v in validate_metric(bad, 1e-9)}
    assert "symmetry" in axioms

    # triangle violation: d(0,2)=5 > 1+1
    bad = FiniteMetricSpace([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    axioms = {v.axiom for v in validate_metric(bad, 1e-9)}
    assert "triangle" in axioms

    # nonzero diagonal
    bad = FiniteMetricSpace([[1, 1], [1, 0]])
    axioms = {v.axiom for v in validate_metric(bad, 1e-9)}
    assert "reflexivity" in axioms

    # negative entry
    bad = FiniteMetricSpace([[0, -1], [-1, 0]])
    axioms = {v.axiom for v in validate_metric(bad, 1e-9)}
    assert "nonnegativity" in axioms

    # zero distance between distinct points: flagged unless pseudometric_ok
    pseudo = [[0, 0], [0, 0]]
    axioms = {v.axiom for v in validate_metric(FiniteMetricSpace(pseudo), 1e-9)}
    assert "positivity" in axioms
    ok = FiniteMetricSpace(pseudo, pseudometric_ok=True)
    assert validate_metric(ok, 1e-9) == []


def test_validate_metric_refuses_a_nan_tolerance():
    # NaN fails every comparison, so it would switch every check off.
    bad = FiniteMetricSpace([[0, -1], [1, 0]])
    assert validate_metric(bad, 1e-9) != []
    with pytest.raises(ValidationError, match="tolerance") as info:
        validate_metric(bad, math.nan)
    assert info.value.code == "invariant.space"


def test_valid_metric_is_clean(line3, line4):
    assert validate_metric(line3, 1e-9) == []
    assert validate_metric(line4, 1e-9) == []


def test_worst_triangle_violation_is_the_first_of_its_ties():
    # Every distance is 1 but d(0, 1) = d(3, 4) = 10, so both long pairs
    # break the triangle by 8 through every other point: through k = 0
    # only (3, 4) and (4, 3) do, and the first k wins, then the first
    # argmax in row-major order.
    table = np.ones((5, 5)) - np.eye(5)
    table[0, 1] = table[1, 0] = table[3, 4] = table[4, 3] = 10.0
    assert validate_metric(FiniteMetricSpace(table), 1e-9) == [
        MetricViolation("triangle", (3, 0, 4), 8.0)]
    # Every axiom at once, in order; d(0, 1) breaks the triangle by 7
    # through k = 2 and k = 3, in both directions.
    table = np.array([[0.0, 9.0, 1.0, 1.0],
                      [9.0, 0.0, 1.0, 1.0],
                      [1.0, 1.0, 0.5, 1.0],
                      [1.0, 1.0, -0.25, 0.0]])
    assert validate_metric(FiniteMetricSpace(table), 1e-9) == [
        MetricViolation("nonnegativity", (3, 2), 0.25),
        MetricViolation("reflexivity", (2, 2), 0.5),
        MetricViolation("symmetry", (2, 3), 1.25),
        MetricViolation("triangle", (0, 2, 1), 7.0),
        MetricViolation("positivity", (3, 2), -0.25),
    ]


def test_vector_distance_norms():
    u, v = np.array([1.0, -2.0]), np.array([4.0, 2.0])
    assert vector_distance(u, v, "l1") == 7.0
    assert vector_distance(u, v, "l2") == 5.0
    assert vector_distance(u, v, "linf") == 4.0
    with pytest.raises(ValidationError):
        vector_distance(u, v, "l3")


def test_vector_distance_refuses_operands_of_different_shapes():
    # numpy would broadcast [1] against [0, 0, 0] and return 3.0.
    for u, v in (([0, 0, 0], [1]), ([[0, 0]], [0, 0])):
        with pytest.raises(ValidationError, match="different shapes") as info:
            vector_distance(u, v, "l1")
        assert info.value.code == "invariant.space"


def test_euclidean_space_to_metric():
    space = EuclideanSpace([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]], "l2").to_metric()
    assert space.d(0, 1) == 5.0
    assert space.d(0, 2) == 1.0
    assert validate_metric(space, 1e-9) == []
    assert space.coords is not None and space.coords.shape == (3, 2)


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_table_and_vector_distance_agree_bit_for_bit(norm):
    rng = rng_from(61)
    for dim in range(1, 13):
        points = rng.uniform(-8.0, 8.0, size=(6, dim))
        table = EuclideanSpace(points, norm).to_metric().dist
        for i in range(6):
            for j in range(6):
                assert table[i, j] == vector_distance(points[i], points[j], norm)
    # points of dimension 0 all coincide, under every norm
    assert EuclideanSpace(np.zeros((3, 0)), norm).to_metric().dist.tolist() == [[0.0] * 3] * 3


def test_tensor_product_additive(line3):
    prod = tensor_product(line3, line3)
    assert prod.n == 9
    # pair (i,j) lives at index i*3+j; distance adds coordinatewise
    a = product_index([3, 3], [0, 2])
    b = product_index([3, 3], [2, 0])
    assert prod.d(a, b) == line3.d(0, 2) + line3.d(2, 0)
    assert validate_metric(prod, 1e-9) == []


def test_convex_combination_space(line3, line4):
    mixed = convex_combination_space([0.5, 0.5], [line3, line4])
    assert mixed.n == 12
    a = product_index([3, 4], [0, 0])
    b = product_index([3, 4], [2, 3])
    assert mixed.d(a, b) == 0.5 * line3.d(0, 2) + 0.5 * line4.d(0, 3)
    # zero coefficient makes distinct pairs indistinguishable in that slot
    degenerate = convex_combination_space([1.0, 0.0], [line3, line4])
    a = product_index([3, 4], [1, 0])
    b = product_index([3, 4], [1, 3])
    assert degenerate.d(a, b) == 0.0


@pytest.mark.parametrize("multi_index", [(1,), (1, 2, 0), (1, 3), (2, 0), (-1, 0), (0, -1)])
def test_product_index_refuses_a_multi_index_outside_the_shape(multi_index):
    assert product_index((2, 3), (1, 2)) == 5
    with pytest.raises(ValidationError, match="outside shape") as info:
        product_index((2, 3), multi_index)
    assert info.value.code == "invariant.map"


@pytest.mark.parametrize("lam, message", [
    ([math.nan, 0.5], "outside"),
    ([1.0], "one weight per factor"),
    ([1.5, -0.5], "outside"),
    ([0.5, 0.25], "sum to 1"),
])
def test_convex_combination_space_refuses_bad_weights(line3, line4, lam, message):
    with pytest.raises(ValidationError, match=message) as info:
        convex_combination_space(lam, [line3, line4])
    assert info.value.code == "invariant.weights"


def test_convex_combination_space_counts_its_points_exactly():
    # 2**64 points, which an int64 product wraps around to 0.
    two = FiniteMetricSpace([[0, 1], [1, 0]])
    with pytest.raises(ValidationError, match=f"{2 ** 64} points") as info:
        convex_combination_space([1 / 64] * 64, [two] * 64)
    assert info.value.code == "invariant.size_cap"


def test_short_and_isometric_maps(line3, line4):
    # contract everything to one point: short but not isometric
    const = [0, 0, 0]
    assert check_short(const, line3, line3)
    assert not check_isometric(const, line3, line3)
    # identity is isometric
    ident = [0, 1, 2]
    assert check_isometric(ident, line3, line3)
    # 0->0, 1->2 stretches a gap of 1 into 3: not short
    stretch = [0, 2, 3, 3]
    assert not check_short(stretch, line4, line4)


def test_random_tables_are_metric():
    for trial in range(25):
        space = random_metric_space(rng_from(0, trial), 6)
        assert validate_metric(space, 1e-9) == []
