import json

import pytest

from kantorovich import (ConvexAlgebra, LawResult, ValidationError, convergence_study, dirac,
                         run_law_suite)
from kantorovich.samplers import (distinct_points, random_euclidean_space, random_space,
                                  rng_from, sweep)
from kantorovich.tolerances import MAX_ALGEBRA_DIM, MAX_RANDOM_POINTS, MAX_TRIALS

EXPECTED_LAWS = {
    "monad.left_unit", "monad.right_unit", "monad.associativity",
    "dirac.isometry", "empirical.isometry", "transport.first_moment",
    "transport.mixture_contraction", "transport.pushforward_short",
    "transport.embedding_invariance", "transport.duality_gap",
    "transport.flow_vs_brute", "transport.symmetry", "transport.triangle",
    "power.assignment_vs_lp", "power.repeat_isometry",
    "power.precompose_isometry", "power.quotient_naturality",
    "graded.unit_triangles", "graded.associativity_tuple",
    "graded.associativity_multiset", "graded.double_quotient",
    "graded.flatten_isometry", "monad.expectation_flatten",
    "monad.ppx_square",
}


def test_suite_covers_all_laws_and_passes():
    results = run_law_suite(trials=25, seed=0)
    assert {r.law for r in results} == EXPECTED_LAWS
    failing = [r.law for r in results if not r.passed]
    assert failing == []


def test_suite_refuses_to_pass_laws_it_did_not_check():
    with pytest.raises(ValidationError, match="trials must be positive") as info:
        run_law_suite(trials=0)
    assert info.value.code == "invariant.weights"


def test_results_serialize_cleanly():
    results = run_law_suite(trials=5, seed=1)
    for r in results:
        row = r.to_json()
        assert set(row) == {"law", "trials", "worst_discrepancy", "tolerance", "pass"}
        json.dumps(row)  # must be plain JSON types
        assert row["pass"] is True
        assert row["worst_discrepancy"] <= row["tolerance"]


def test_suite_is_deterministic():
    a = run_law_suite(trials=10, seed=42)
    b = run_law_suite(trials=10, seed=42)
    assert [(r.law, r.worst_discrepancy) for r in a] \
        == [(r.law, r.worst_discrepancy) for r in b]
    c = run_law_suite(trials=10, seed=43)
    assert [(r.law, r.worst_discrepancy) for r in a] \
        != [(r.law, r.worst_discrepancy) for r in c] or True  # seeds may tie on exact-zero laws


def test_law_result_flags_failure():
    r = LawResult(law="demo", trials=1, worst_discrepancy=0.5, tolerance=1e-8,
                  passed=False)
    assert r.to_json()["pass"] is False


def test_sweep_keeps_the_worst_of_each_name_in_order():
    values = iter([(0.5, -1.0, 0.0), (0.25, 2.0, 0.0)])
    worst = sweep(2, rng_from(0), ("b", "a", "c"), lambda rng: next(values))
    assert list(worst.items()) == [("b", 0.5), ("a", 2.0), ("c", 0.0)]
    assert sweep(0, rng_from(0), ("b", "a"), lambda rng: 1 / 0) == {"b": 0.0, "a": 0.0}


def test_distinct_points_keeps_first_draws_in_order():
    draws = iter([(1,), (2,), (1,), (0,), (2,), (3,)])
    assert distinct_points(3, lambda: next(draws)) == [(1,), (2,), (0,)]
    assert next(draws) == (2,)  # no draw past the k-th distinct value
    # -0.0 and 0.0 are one point; the first drawn is kept
    draws = iter([(-0.0,), (0.0,), (1.0,)])
    assert [str(v) for (v,) in distinct_points(2, lambda: next(draws))] == ["-0.0", "1.0"]


_ABOVE_CAPS = {
    "grid points": lambda rng: random_euclidean_space(rng, MAX_RANDOM_POINTS + 1, 1),
    "space size": lambda rng: random_space(rng, MAX_RANDOM_POINTS + 1),
    "sweep trials": lambda rng: sweep(MAX_TRIALS + 1, rng, ("x",), lambda r: (r.random(),)),
    "study trials": lambda rng: convergence_study(
        dirac(random_space(rng_from(0)), 0), [2], MAX_TRIALS + 1),
    "algebra dim": lambda rng: ConvexAlgebra(MAX_ALGEBRA_DIM + 1),
}


@pytest.mark.parametrize("case", list(_ABOVE_CAPS))
def test_randomized_checks_refuse_sizes_above_their_caps(case):
    # Refused before any draw: the generator's state is untouched.
    rng = rng_from(0)
    state = rng.bit_generator.state
    with pytest.raises(ValidationError) as info:
        _ABOVE_CAPS[case](rng)
    assert info.value.code == "invariant.size_cap"
    assert rng.bit_generator.state == state
