import hashlib
import heapq
import importlib
import math
import pickle
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain
from operator import itemgetter, sub
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kantorovich import (Coupling, DiscreteMeasure, DualPotential, EuclideanSpace,
                         FiniteMetricSpace, MultiSet, PointTuple, ValidationError,
                         bistochastic_min, coupling_cost, dirac, empirical, empirical_sym,
                         first_moment, mixture, multiset_distance_bruteforce,
                         transport, validate_coupling, validate_metric, w1_assignment,
                         w1_bruteforce, w1_dual_value, w1_flow, wasserstein1)
from kantorovich.measures import _exact_weights
from kantorovich.samplers import (random_euclidean_space, random_measure, random_metric_space,
                                  random_rational_pair, rng_from)
from kantorovich.tolerances import (MAX_ASSIGNMENT_SIZE, MAX_BRUTE_SIZE, MAX_SUPPORT_PAIRS,
                                    TAU_METRIC, TAU_SOLVER)
from kantorovich.transport import _problem, _solve


def test_hand_checked_line_instance(half_half, quarter_three):
    # supplies 1/2@0, 1/2@1; demands 1/4@1, 3/4@2; greedy-on-a-line is optimal
    result = w1_flow(half_half, quarter_three)
    assert result.cost == pytest.approx(1.25, abs=1e-15)
    assert result.gap == 0.0
    assert result.solver == "flow"
    assert w1_bruteforce(half_half, quarter_three) == pytest.approx(1.25, abs=1e-15)


def test_dirac_distance_is_ground_distance(line4):
    for i in range(4):
        for j in range(4):
            r = wasserstein1(dirac(line4, i), dirac(line4, j))
            assert r.cost == line4.d(i, j)
            assert r.gap == 0.0


def test_distance_to_dirac_is_first_moment(line4):
    p = DiscreteMeasure.from_rational(line4, [0, 1, 2, 3], [1, 2, 2, 1], 6)
    for x in range(4):
        r = wasserstein1(p, dirac(line4, x))
        assert r.cost == pytest.approx(first_moment(p, x), abs=1e-12)


def test_coupling_is_a_coupling(half_half, quarter_three):
    result = w1_flow(half_half, quarter_three)
    assert validate_coupling(result.coupling) == []
    assert coupling_cost(result.coupling) == pytest.approx(result.cost, abs=1e-15)


def test_validate_coupling_flags_bad_marginals(half_half, quarter_three):
    bad = Coupling(half_half, quarter_three,
                   np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert validate_coupling(bad) != []
    # NaN fails every comparison, so only the finiteness check reports it
    nan, inf = float("nan"), float("inf")
    for matrix, expected in (
            ([[nan, 0.0], [0.0, 0.5]], ["non-finite entry"]),
            ([[0.25, 0.25], [0.0, inf]],
             ["non-finite entry", "row marginal off by inf", "column marginal off by inf"]),
            ([[0.25, 0.25], [0.0, -inf]],
             ["non-finite entry", "negative entry -inf", "row marginal off by inf",
              "column marginal off by inf"])):
        assert validate_coupling(Coupling(half_half, quarter_three, matrix)) == expected


def test_coupling_cost_refuses_a_matrix_that_does_not_fit_the_supports(line3):
    # A 3 x 3 matrix made numpy raise a bare broadcast error, and a 1 x 1 one
    # was broadcast against the 2 x 1 table to a cost of 2.0.
    p = DiscreteMeasure(line3, [0, 2], [Fraction(1, 2), Fraction(1, 2)])
    q = dirac(line3, 1)
    for matrix, shape in ((np.ones((3, 3)), (3, 3)), ([[1.0]], (1, 1))):
        coupling = Coupling(p, q, matrix)
        with pytest.raises(ValidationError) as info:
            coupling_cost(coupling)
        assert info.value.code == "invariant.measure"
        assert str(shape) in str(info.value)
        assert validate_coupling(coupling) == [f"shape {shape} does not match supports"]
    assert coupling_cost(Coupling(p, q, [[0.5], [0.5]])) == 1.0


def test_validate_coupling_refuses_a_nan_tolerance(line3):
    # NaN fails every comparison, so it would switch every check off.
    empty = Coupling(dirac(line3, 0), dirac(line3, 2), [[0.0]])
    assert validate_coupling(empty) == ["row marginal off by 1.0", "column marginal off by 1.0"]
    with pytest.raises(ValidationError, match="tolerance") as info:
        validate_coupling(empty, math.nan)
    assert info.value.code == "invariant.weights"


def test_dual_potential_certifies(half_half, quarter_three):
    result = w1_flow(half_half, quarter_three)
    value = w1_dual_value(half_half, quarter_three, result.dual)
    assert value == pytest.approx(result.cost, abs=1e-12)


def test_dual_value_rejects_non_lipschitz(line3, half_half, quarter_three):
    # f(0)=0, f(2)=5 stretches distance 2 into 5
    f = DualPotential((0, 1, 2), (0.0, 0.0, 5.0))
    with pytest.raises(ValidationError, match="1-Lipschitz"):
        w1_dual_value(half_half, quarter_three, f)


def _loop_dual_value(p, q, f):
    """w1_dual_value as it was with a Python loop over the pairs, verbatim."""
    fmap = dict(zip(f.points, f.values.tolist()))
    needed = set(p.support) | set(q.support)
    missing = needed - set(f.points)
    if missing:
        raise ValidationError("invariant.dual", f"potential undefined at {sorted(missing)}")
    pts = sorted(needed)
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            if abs(fmap[x] - fmap[y]) > float(p.space.dist[x, y]) + TAU_METRIC:
                raise ValidationError("invariant.dual",
                                      f"potential is not 1-Lipschitz at pair ({x}, {y})")
    plus = math.fsum(w * fmap[x] for x, w in zip(p.support, p.weights))
    minus = math.fsum(w * fmap[y] for y, w in zip(q.support, q.weights))
    return plus - minus


def test_dual_value_matches_the_pair_loop():
    # The Lipschitz check compares all pairs in one array; the value and the
    # first pair refused must be those of the loop. The potentials are the
    # engine's own, some moved at one point by an amount near the slack, and
    # some put in a random order, so that refusals come at varied pairs.
    refused = 0
    for seed in range(60):
        rng = rng_from(seed)
        space = random_euclidean_space(rng, int(rng.integers(2, 12)), 2,
                                       ["l1", "l2", "linf"][seed % 3])
        p, q = (random_measure(rng, space, 6, exact=seed % 2 == 0) for _ in range(2))
        dual = w1_flow(p, q).dual
        points = list(dual.points)
        rng.shuffle(points)
        base = dict(zip(dual.points, dual.values.tolist()))
        values = [base[z] for z in points]
        k = int(rng.integers(len(values)))
        values[k] += float(rng.choice([0.0, TAU_METRIC, 2 * TAU_METRIC, 1e-3, -0.5, 3.0]))
        f = DualPotential(points, values)
        try:
            expected = _loop_dual_value(p, q, f)
        except ValidationError as error:
            refused += 1
            with pytest.raises(ValidationError) as info:
                w1_dual_value(p, q, f)
            assert (info.value.code, str(info.value)) == (error.code, str(error))
        else:
            assert float.hex(w1_dual_value(p, q, f)) == float.hex(expected)
    assert 10 < refused < 50


def test_dual_value_requires_support_coverage(line3, half_half):
    f = DualPotential((0,), (0.0,))
    q = dirac(line3, 2)
    with pytest.raises(ValidationError):
        w1_dual_value(half_half, q, f)


@pytest.mark.parametrize("points", [(0, 0, 1), (1, 0, 1), (0, 1, 1.0), (0, 1, 2.5),
                                    (0, 1, True), (0, 1, "2"), (0, 1, None)])
def test_dual_potential_needs_distinct_integer_points(points):
    # A repeated point holds two values: value_at would read the first and
    # w1_dual_value the last.
    with pytest.raises(ValidationError, match="repeated point|not an integer") as info:
        DualPotential(points, [5.0, 0.0, 1.0])
    assert info.value.code == "invariant.dual"
    f = DualPotential(np.array([2, 0, 1]), [5.0, 0.0, 1.0])
    assert f.points == (2, 0, 1) and {type(z) for z in f.points} == {int}
    assert f.value_at(2) == 5.0


@pytest.mark.parametrize("values", [(0.0, 1.0), (0.0, 1.0, float("nan")),
                                    (0.0, 1.0, float("inf")), ((0.0,), (1.0,), (2.0,))])
def test_dual_potential_needs_one_finite_value_per_point(values):
    # A value short would be a KeyError in w1_dual_value, and a NaN value
    # passes every Lipschitz comparison there.
    with pytest.raises(ValidationError,
                       match="one finite value per point|non-finite entries") as info:
        DualPotential((0, 1, 2), values)
    assert info.value.code == "invariant.dual"


def test_flow_matches_bruteforce_on_random_rational_instances():
    for trial in range(60):
        rng = rng_from(11, trial)
        space = random_metric_space(rng, 5)
        den = int(rng.integers(2, 7))
        p, q = random_rational_pair(rng, space, max_support=4, den=den)
        flow = w1_flow(p, q)
        brute = w1_bruteforce(p, q)
        assert flow.cost == pytest.approx(brute, abs=1e-9)
        assert flow.gap <= 1e-12


def test_rational_and_float_routes_agree():
    # identical instance fed once with exact fractions, once with floats
    for trial in range(40):
        rng = rng_from(12, trial)
        space = random_metric_space(rng, 5)
        p_exact, q_exact = random_rational_pair(rng, space, max_support=4,
                                                den=int(rng.integers(2, 9)))
        p_float = DiscreteMeasure(space, list(p_exact.support),
                                  [float(w) for w in p_exact.fractions])
        q_float = DiscreteMeasure(space, list(q_exact.support),
                                  [float(w) for w in q_exact.fractions])
        assert p_float.fractions is None
        exact_cost = w1_flow(p_exact, q_exact).cost
        float_cost = w1_flow(p_float, q_float).cost
        assert abs(exact_cost - float_cost) <= 1e-9


def test_assignment_route_on_uniform_pairs():
    for trial in range(40):
        rng = rng_from(13, trial)
        space = random_metric_space(rng, 6)
        n = int(rng.integers(1, 6))
        a = MultiSet(space, rng.integers(0, 6, size=n).tolist())
        b = MultiSet(space, rng.integers(0, 6, size=n).tolist())
        p = DiscreteMeasure.from_rational(space, list(range(6)),
                          np.bincount(a.entries, minlength=6).tolist(), n)
        q = DiscreteMeasure.from_rational(space, list(range(6)),
                          np.bincount(b.entries, minlength=6).tolist(), n)
        assign = w1_assignment(p, q)
        flow = w1_flow(p, q)
        assert assign.cost == pytest.approx(flow.cost, abs=1e-9)
        assert validate_coupling(assign.coupling) == []
        assert assign.gap <= 1e-8


def test_auto_solver_picks_assignment_for_uniform(line3):
    p = DiscreteMeasure(line3, [0, 1], [Fraction(1, 2), Fraction(1, 2)])
    q = DiscreteMeasure(line3, [1, 2], [Fraction(1, 2), Fraction(1, 2)])
    assert wasserstein1(p, q).solver == "assignment"
    # mismatched denominators lift to their lcm and still assign
    r = DiscreteMeasure(line3, [0, 1, 2], [Fraction(1, 3)] * 3)
    lifted = wasserstein1(p, r)
    assert lifted.solver == "assignment"
    assert lifted.cost == pytest.approx(w1_flow(p, r).cost, abs=1e-12)
    # non-uniform float weights force the flow route
    s = DiscreteMeasure(line3, [0, 1], [0.3, 0.7])
    assert wasserstein1(s, q).solver == "flow"
    # a huge common multiset size also forces flow
    big = DiscreteMeasure(line3, [0, 1], [Fraction(1, 257), Fraction(256, 257)])
    assert wasserstein1(big, q).solver == "flow"


def test_brute_solver_cross_checks(half_half, quarter_three):
    result = wasserstein1(half_half, quarter_three, solver="brute")
    assert result.solver == "brute"
    assert result.cost == pytest.approx(1.25, abs=1e-15)


def test_solver_name_validation(half_half, quarter_three):
    with pytest.raises(ValidationError, match="unknown solver"):
        wasserstein1(half_half, quarter_three, solver="simplex")


def test_bruteforce_requires_rational(line3):
    p = DiscreteMeasure(line3, [0, 1], [0.3, 0.7])
    q = dirac(line3, 2)
    with pytest.raises(ValidationError, match="exact weights"):
        w1_bruteforce(p, q)


def test_mismatched_spaces_rejected(line3, line4):
    with pytest.raises(ValidationError, match="different spaces"):
        w1_flow(dirac(line3, 0), dirac(line4, 0))


def test_w1_is_a_metric_on_random_instances():
    for trial in range(30):
        rng = rng_from(14, trial)
        space = random_metric_space(rng, 5)
        ms = [random_measure(rng, space, max_support=3) for _ in range(3)]
        p, q, r = ms
        dpq = wasserstein1(p, q).cost
        dqp = wasserstein1(q, p).cost
        assert dpq == pytest.approx(dqp, abs=1e-9)
        assert wasserstein1(p, p).cost <= 1e-12
        dqr = wasserstein1(q, r).cost
        dpr = wasserstein1(p, r).cost
        assert dpr <= dpq + dqr + 1e-9


def test_mixture_contraction():
    # W1(mix(t,p,r), mix(t,q,r)) <= t * W1(p,q): mixing with a common tail contracts
    for trial in range(20):
        rng = rng_from(15, trial)
        space = random_metric_space(rng, 5)
        p, q = random_rational_pair(rng, space, max_support=3, den=4)
        r = random_measure(rng, space, max_support=3)
        lam = Fraction(int(rng.integers(0, 9)), 8)
        left = mixture([lam, 1 - lam], [p, r])
        right = mixture([lam, 1 - lam], [q, r])
        assert wasserstein1(left, right).cost \
            <= float(lam) * wasserstein1(p, q).cost + 1e-9


def test_bistochastic_min_equals_multiset_distance(line4):
    a = MultiSet(line4, [0, 1, 2])
    b = MultiSet(line4, [1, 3, 3])
    from kantorovich import multiset_distance
    assert bistochastic_min(a, b) == pytest.approx(multiset_distance(a, b), abs=1e-9)


@st.composite
def rational_instances(draw):
    seed = draw(st.integers(min_value=0, max_value=9999))
    den = draw(st.integers(min_value=2, max_value=6))
    return seed, den


@given(rational_instances())
@settings(max_examples=50, deadline=None)
def test_duality_gap_property(case):
    seed, den = case
    rng = rng_from(16, seed, den)
    space = random_metric_space(rng, 5)
    p, q = random_rational_pair(rng, space, max_support=4, den=den)
    result = w1_flow(p, q)
    assert 0.0 <= result.gap <= 1e-8
    # the reported dual is feasible and attains the cost
    assert w1_dual_value(p, q, result.dual) == pytest.approx(result.cost, abs=1e-9)


def test_assignment_plan_off_by_rounding_is_certified_not_refused():
    # linear_sum_assignment works in floats; on this l2 instance its plan
    # misses the exact optimum by rounding, which the exact gap reports.
    space = EuclideanSpace([[1, 7], [0, 6], [4, 3], [7, 3], [2, 5], [2, 6], [2, 4], [0, 0],
                            [2, 0], [0, 2], [2, 3], [7, 1], [3, 5], [4, 6], [7, 0], [3, 2]],
                           "l2").to_metric()
    p = empirical_sym(MultiSet(space, [7, 6, 2, 1, 9, 10, 15, 15]))
    q = empirical_sym(MultiSet(space, [14, 13, 15, 13, 3, 3, 12, 2]))
    assert w1_flow(p, q).cost == 3.399271679685392
    for result in (wasserstein1(p, q), w1_assignment(p, q)):
        assert result.solver == "assignment"
        assert result.cost == 3.399271679685392
        assert validate_coupling(result.coupling) == []
        assert result.gap <= TAU_SOLVER


def _grid_space(rng, count: int, norm: str) -> FiniteMetricSpace:
    """``count`` distinct integer grid points; l1 and linf give integer tables."""
    cells = rng.choice(4 * count * count, size=count, replace=False)
    return EuclideanSpace(np.stack(np.divmod(cells, 2 * count), axis=1), norm).to_metric()


def _network_simplex_cost(nx, p: DiscreteMeasure, q: DiscreteMeasure, den: int) -> int:
    """Optimal cost, times den, from networkx on the integer-scaled instance."""
    graph = nx.DiGraph()
    for side, m, sign in (("p", p, -1), ("q", q, 1)):
        for x, w in zip(m.support, m.fractions):
            graph.add_node((side, x), demand=sign * int(w * den))
    for x in p.support:
        for y in q.support:
            graph.add_edge(("p", x), ("q", y), weight=int(p.space.d(x, y)))
    return nx.network_simplex(graph)[0]


def test_flow_matches_network_simplex_beyond_brute_force():
    nx = pytest.importorskip("networkx")
    for trial in range(30):
        rng = rng_from(17, trial)
        n = int(rng.integers(12, 41))
        den = (60, 360, 997)[trial % 3]
        space = _grid_space(rng, 2 * n, ("l1", "linf")[trial % 2])

        def measure():
            support = rng.choice(2 * n, size=n, replace=False).tolist()
            cuts = np.sort(rng.choice(np.arange(1, den), size=n - 1, replace=False))
            return DiscreteMeasure.from_rational(space, support,
                                                 np.diff([0, *cuts, den]).tolist(), den)

        p, q = measure(), measure()
        result = w1_flow(p, q)
        assert result.cost == _network_simplex_cost(nx, p, q, den) / den
        assert result.gap == 0.0


def _scaled_network_simplex_cost(nx, p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """W1 from networkx on an integer instance scaled here from the floats
    and fractions themselves: each cost and weight is the exact fraction it
    stores, the costs over one power of two and the weights over one common
    denominator. The supplies are scaled by q's total and the demands by p's,
    so that they balance exactly, and the optimum is divided out once."""
    costs = [[c.as_integer_ratio() for c in row]
             for row in p.space.dist[np.ix_(p.support, q.support)].tolist()]
    unit = max(d for row in costs for _, d in row)
    a, b = ([Fraction(w) for w in (m.fractions or m.weights.tolist())] for m in (p, q))
    den = math.lcm(*(w.denominator for w in a + b))
    a, b = [int(w * den) for w in a], [int(w * den) for w in b]
    total_a, total_b = sum(a), sum(b)
    graph = nx.DiGraph()
    for i, w in enumerate(a):
        graph.add_node(("p", i), demand=-w * total_b)
    for j, w in enumerate(b):
        graph.add_node(("q", j), demand=w * total_a)
    for i, row in enumerate(costs):
        for j, (num, d) in enumerate(row):
            graph.add_edge(("p", i), ("q", j), weight=num * (unit // d))
    return nx.network_simplex(graph)[0] / (unit * den * total_b)


def test_flow_matches_network_simplex_for_every_weight_pattern():
    # The companion of the test above, up to the engine's cap of 181 x 181
    # support pairs: float l2 and linf tables, float weights, empirical
    # weights of samples with repeated points, and lopsided supports. Exact
    # weights on an integer table (a grid under linf) give a gap of exactly
    # 0; float weights sum to 1 only within a few ulps, and the gap carries
    # that imbalance.
    nx = pytest.importorskip("networkx")
    rng = rng_from(19, 0)

    def floats(space, support):
        w = rng.random(len(support)) + 0.1
        return DiscreteMeasure(space, support, (w / w.sum()).tolist())

    def counts(space, support):
        k = rng.integers(1, 10, size=len(support)).tolist()
        return DiscreteMeasure.from_rational(space, support, k, sum(k))

    def sample(space, points, size):
        return empirical(PointTuple(space, rng.choice(points, size=size).tolist()))

    l2, linf = (EuclideanSpace(rng.uniform(-1.0, 1.0, size=(362, 2)), norm).to_metric()
                for norm in ("l2", "linf"))
    grid = _grid_space(rng, 362, "linf")
    first, second = list(range(181)), list(range(181, 362))
    cases = [
        (floats(l2, first[:32]), floats(l2, second[:32]), False),
        (floats(l2, first), floats(l2, second), False),
        (floats(linf, first[:128]), floats(linf, second[:128]), False),
        (sample(l2, first[:60], 200), sample(l2, second[:60], 150), False),
        (sample(grid, first[:60], 200), sample(grid, first[40:100], 120), True),
        (floats(grid, first[:90]), floats(grid, second[:90]), False),
        (dirac(l2, 0), floats(l2, second), False),
        (counts(grid, first), counts(grid, second[:3]), True),
    ]
    for p, q, zero_gap in cases:
        result = w1_flow(p, q)
        assert result.cost == _scaled_network_simplex_cost(nx, p, q), (len(p.support),
                                                                       len(q.support))
        if zero_gap:
            assert result.gap == 0.0


def test_engine_refuses_work_above_its_budget():
    n = int(MAX_SUPPORT_PAIRS ** 0.5) + 1
    line = np.arange(2 * n, dtype=float)
    space = FiniteMetricSpace(np.abs(line[:, None] - line[None, :]))
    p = DiscreteMeasure(space, list(range(n)), [Fraction(1, n)] * n)
    q = DiscreteMeasure(space, list(range(n, 2 * n)), [Fraction(1, n)] * n)
    for solver in ("flow", "assignment", "auto", "brute"):
        with pytest.raises(ValidationError, match="support pairs") as info:
            wasserstein1(p, q, solver=solver)
        assert info.value.code == "invariant.size_cap"


# Each case: the refusal code, and a call on line4 that must raise it.
_REFUSALS = {
    "assignment of general float weights": ("solver.unsupported", lambda s: wasserstein1(
        DiscreteMeasure(s, [0, 1], [0.25, 0.75]), dirac(s, 3), solver="assignment")),
    "assignment above its cap": ("invariant.size_cap", lambda s: wasserstein1(
        DiscreteMeasure.from_rational(s, [0, 1], [1, MAX_ASSIGNMENT_SIZE],
                                      MAX_ASSIGNMENT_SIZE + 1),
        dirac(s, 3), solver="assignment")),
    "brute above its cap": ("invariant.size_cap", lambda s: wasserstein1(
        DiscreteMeasure.from_rational(s, [0, 1], [1, MAX_BRUTE_SIZE], MAX_BRUTE_SIZE + 1),
        dirac(s, 3), solver="brute")),
    "brute against a wrong oracle": ("solver.disagreement", lambda s: wasserstein1(
        dirac(s, 0), dirac(s, 3), solver="brute")),
    "multiset oracle above its cap": ("invariant.size_cap", lambda s: multiset_distance_bruteforce(
        MultiSet(s, [0] * (MAX_BRUTE_SIZE + 1)), MultiSet(s, [3] * (MAX_BRUTE_SIZE + 1)))),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_routes_refuse_what_they_cannot_do(line4, monkeypatch, case):
    code, call = _REFUSALS[case]
    if code == "solver.disagreement":
        monkeypatch.setattr(transport, "w1_bruteforce", lambda p, q: 1.0)
    with pytest.raises(ValidationError) as info:
        call(line4)
    assert info.value.code == code


def test_results_compare_and_hash_by_identity(half_half, quarter_three):
    # Field-wise equality would compare numpy arrays and raise.
    result = w1_flow(half_half, quarter_three)
    again = w1_flow(half_half, quarter_three)
    assert (result == again) is False
    assert result == result
    for a, b in ((result, again), (result.coupling, again.coupling), (result.dual, again.dual)):
        assert a != b
        assert hash(a) == hash(a)
    assert len({result, again, result.coupling, result.dual}) == 4


def _fraction_plan(p: DiscreteMeasure, q: DiscreteMeasure):
    """The engine's plan as entries (i, j, mass) with ``Fraction`` masses,
    the form the pinned digests hash, and its right-side duals."""
    plan, den, pot = _solve(_problem(p, q))
    return [(i, j, Fraction(k, den)) for (i, j), k in plan.items()], pot[len(p.support):]


def test_results_keep_only_the_nonzero_plan():
    rng = rng_from(18, 0)
    space = _grid_space(rng, 80, "l1")
    counts = rng.integers(1, 10, size=40).tolist()
    p = DiscreteMeasure.from_rational(space, list(range(40)), counts, sum(counts))
    q = DiscreteMeasure(space, list(range(40, 80)), [1 / 40] * 40)
    result = w1_flow(p, q)
    plan = np.zeros((40, 40))
    for i, j, mass in _fraction_plan(p, q)[0]:
        plan[i, j] = float(mass)
    matrix = result.coupling.matrix
    assert not matrix.flags.writeable
    assert matrix.tobytes() == plan.tobytes()
    assert validate_coupling(result.coupling) == []
    assert coupling_cost(result.coupling) == pytest.approx(result.cost, abs=1e-12)
    assert not result.dual.values.flags.writeable
    assert result.dual.value_at(0) == 0.0
    with pytest.raises(ValidationError, match="undefined at 3") as info:
        DualPotential((0, 1, 2), [0.0, 1.0, 2.0]).value_at(3)
    assert info.value.code == "invariant.dual"
    # any dense array round-trips bit for bit, and both checks read it whole
    dense = plan + 1e-3 * rng.random((40, 40)) * (rng.random((40, 40)) < 0.5)
    coupling = Coupling(p, q, dense)
    assert coupling.matrix.tobytes() == dense.tobytes()
    table = space.dist[np.ix_(p.support, q.support)]
    assert coupling_cost(coupling) == float(np.sum(dense * table))
    rows = float(np.max(np.abs(np.sum(dense, axis=1) - p.weights)))
    cols = float(np.max(np.abs(np.sum(dense, axis=0) - q.weights)))
    assert validate_coupling(coupling) == [f"row marginal off by {rows!r}",
                                           f"column marginal off by {cols!r}"]
    # a plan entry whose mass rounds to 0.0 stores nothing: 2**-1100 moves
    # from the point at 3 to the point at 2 of a line
    line = FiniteMetricSpace(np.abs(np.subtract.outer([3.0, 0.0, 1.0, 2.0],
                                                      [3.0, 0.0, 1.0, 2.0])))
    p = DiscreteMeasure.from_rational(line, [0, 1], [1, 2**1100 - 1], 2**1100)
    q = DiscreteMeasure.from_rational(line, [2, 3], [1, 1], 2)
    plan = _fraction_plan(p, q)[0]
    assert (0, 1, Fraction(1, 2**1100)) in plan
    dense = np.zeros((2, 2))
    for i, j, mass in plan:
        dense[i, j] = float(mass)
    assert dense[0, 1] == 0.0
    coupling = w1_flow(p, q).coupling
    assert coupling._index.tolist() == [2, 3]
    assert coupling._index.dtype == np.min_scalar_type(2 * 2)
    assert coupling.matrix.tobytes() == dense.tobytes()


def test_certificate_is_exactly_tight_on_integer_tables():
    # On l1 and linf grid tables every cost is an integer, and so are the
    # engine's potentials, so floats hold them exactly and the certificate
    # is checked with no tolerance: tight on the plan, 1-Lipschitz on the
    # joint support, and a gap of exactly 0 for rational weights.
    for trial in range(32):
        rng = rng_from(19, trial)
        n = int(rng.integers(4, 25))
        space = _grid_space(rng, 2 * n, ("l1", "linf")[trial % 2])
        exact, uniform = trial % 4 < 2, trial % 8 < 4

        def measure():
            k = int(rng.integers(1, n + 1))
            support = rng.choice(2 * n, size=k, replace=False).tolist()
            if uniform:
                return DiscreteMeasure(space, support, [Fraction(1, k) if exact else 1 / k] * k)
            counts = rng.integers(1, 10, size=k).tolist()
            if exact:
                return DiscreteMeasure.from_rational(space, support, counts, sum(counts))
            return DiscreteMeasure(space, support, [c / sum(counts) for c in counts])

        p, q = measure(), measure()
        for solver in ("flow", "auto"):
            result = wasserstein1(p, q, solver=solver)
            f = dict(zip(result.dual.points, result.dual.values.tolist()))
            matrix = result.coupling.matrix
            for i, x in enumerate(p.support):
                for j, y in enumerate(q.support):
                    if matrix[i, j] > 0:
                        assert f[x] - f[y] == space.d(x, y)
            for x in f:
                for y in f:
                    assert abs(f[x] - f[y]) <= space.d(x, y)
            if exact:
                assert result.gap == 0.0


def test_potential_rows_are_reduced_one_at_a_time():
    # A Dirac against 150 other l2 points: the 150 rows of q's support serve
    # only the potential, and a solve that held them all as exact integers
    # would trace about 1.2 MB here. The solve traces about 270 kB, most of
    # it the int64 table; a second copy of that table, such as table - v
    # taken whole, would trace about 460 kB.
    space = random_euclidean_space(rng_from(20), 151, 2, "l2")
    p = dirac(space, 0)
    q = DiscreteMeasure(space, list(range(1, 151)), [Fraction(1, 150)] * 150)
    tracemalloc.start()
    try:
        result = w1_flow(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.gap <= TAU_SOLVER
    assert result.cost == pytest.approx(first_moment(q, 0), abs=1e-12)
    assert peak < 400_000, peak


# Cost entries of five kinds: zeros, integers, floats with full mantissas,
# subnormals, and odd mantissas over some 900 binades. A table of one kind
# fits in int64 scaled, except the last; most tables of two kinds do not.
_COSTS = {"zero": st.just(0.0), "integer": st.integers(0, 2**40).map(float),
          "float": st.floats(0.5, 1e3), "subnormal": st.floats(0.0, 2.0**-1022),
          "binades": st.builds(math.ldexp, st.integers(1, 2**53 - 1).map(float),
                               st.integers(-500, 400))}


def _check_integer_costs(table, left, right):
    """_problem's integer costs and unit against each cost's integer ratio
    over their common denominator."""
    space = FiniteMetricSpace(table)
    p = DiscreteMeasure.from_rational(space, left, [1] * len(left), len(left))
    q = DiscreteMeasure.from_rational(space, right, [1] * len(right), len(right))
    problem = _problem(p, q)
    assert problem.extra == sorted(set(q.support) - set(p.support))
    ratios = [[float(space.dist[z, y]).as_integer_ratio() for y in q.support]
              for z in (*p.support, *problem.extra)]
    unit = max(d for row in ratios for _, d in row)
    assert problem.unit == unit
    assert [*problem.cost, *map(np.ndarray.tolist, problem.table[len(left):])] == \
        [[num * (unit // d) for num, d in row] for row in ratios]
    return problem


@st.composite
def _cost_instances(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_COSTS)), min_size=1, max_size=2, unique=True))
    n = draw(st.integers(4, 12))
    table = draw(st.lists(st.one_of(*(_COSTS[kind] for kind in kinds)),
                          min_size=n * n, max_size=n * n))
    points = draw(st.permutations(range(n)))
    m, k = draw(st.integers(1, n)), draw(st.integers(0, n - 1))
    return np.reshape(table, (n, n)), points[:m], points[k:]


@given(_cost_instances())
@settings(max_examples=150, deadline=None)
def test_problem_costs_are_the_integer_ratios_over_one_unit(case):
    _check_integer_costs(*case)


def test_problem_costs_fill_int64_up_to_two_to_the_63():
    # One low cost sets unit, and the top cost scales to just below 2**63,
    # which int64 holds, or to 2**63 or beyond, which it does not. A table of
    # subnormals fits, over unit 2**1074.
    for top, low, dtype in ((2.0**62 - 512, 0.5, np.int64), (2.0**62, 0.5, object),
                            (2.0**-1022, 2.0**-1074, np.int64),
                            (2.0**-11, 2.0**-1074, object)):
        table = np.full((12, 12), top)
        table[3, 9] = low
        problem = _check_integer_costs(table, list(range(6)), list(range(4, 12)))
        assert problem.unit == low.as_integer_ratio()[1]
        far = problem.table[6:]
        assert far.dtype == dtype and far.shape == (6, 8)
        assert max(map(max, problem.cost)) == Fraction(top) * problem.unit


def _python_certificate(p: DiscreteMeasure, q: DiscreteMeasure):
    """The potential and gap of the reference engine's plan and duals, every
    step in Python ints and Fractions: f(z) = min_j (cost[z][j] - v[j]) over
    the ratio table, normalized to 0 at the first point."""
    plan, v = _reference_plan(p, q)
    weights, den = _exact_weights(p, q)
    a, b = weights[:len(p.support)], weights[len(p.support):]
    points = sorted(set(p.support) | set(q.support))
    ratios = {z: list(map(float.as_integer_ratio, p.space.dist[z].take(q.support).tolist()))
              for z in points}
    unit = max(d for row in ratios.values() for _, d in row)
    raw = {z: min(num * (unit // d) - vj for (num, d), vj in zip(ratios[z], v)) for z in points}
    f = {z: Fraction(raw[z] - raw[points[0]], unit) for z in points}
    primal = sum(mass * Fraction(p.space.dist[p.support[i], q.support[j]])
                 for i, j, mass in plan)
    dual = (sum(w * f[x] for x, w in zip(p.support, a))
            - sum(w * f[y] for y, w in zip(q.support, b))) / den
    return tuple(points), [float(f[z]) for z in points], float(abs(primal - dual)), v


def test_wide_tables_take_the_potential_in_python_ints():
    # Costs from 2**-450 to 2**401 need 852 bits once scaled, and costs up to
    # 9 * 2**62 give duals past 2**63: neither 10 x 5 table is int64, so the
    # potential's rows are reduced in Python ints, and both must match the
    # reference bit for bit.
    tiny, huge = 2.0**-450, 2.0**62
    for line in ([0, tiny, 3 * tiny, 1, 2, 5, 7, 2.0**400, 3 * 2.0**399, 2.0**401],
                 [0, huge, 2 * huge, 3, 4 * huge, 5 * huge, 6 * huge, 7, 8 * huge, 9 * huge]):
        x = np.array(line)
        space = FiniteMetricSpace(np.abs(x[:, None] - x[None, :]))
        p = DiscreteMeasure.from_rational(space, [0, 2, 4, 6, 8], [1, 2, 3, 4, 5], 15)
        q = DiscreteMeasure.from_rational(space, [1, 3, 5, 7, 9], [3, 1, 2, 4, 5], 15)
        problem = _problem(p, q)
        assert problem.table.dtype == object and problem.table.shape == (10, 5)
        points, values, gap, v = _python_certificate(p, q)
        result = w1_flow(p, q)
        assert result.dual.points == points
        assert result.dual.values.tolist() == values
        assert result.gap == gap
    assert max(v) >= 2**63


def _pinned_instances():
    """48 engine instances: l1, linf and l2 grids, exact weights over 60 and
    360, float weights, empirical measures of multisets with repeated points,
    lopsided supports with a Dirac against many points, and a line whose cost
    table is full of ties."""
    line = np.arange(24, dtype=float)
    tied = FiniteMetricSpace(np.abs(line[:, None] - line[None, :]))
    sizes = ((1, 20), (2, 17), (19, 3), (20, 1))
    for trial in range(48):
        rng = rng_from(23, trial)
        norm = ("l1", "linf", "l2")[trial % 3]
        space = tied if trial % 8 == 7 else _grid_space(rng, 24, norm)
        kind = ("exact 60", "exact 360", "float", "empirical")[trial // 3 % 4]
        m, n = sizes[trial // 6 % 4] if trial % 6 == 5 else rng.integers(2, 14, size=2).tolist()

        def measure(k):
            support = rng.choice(24, size=k, replace=False).tolist()
            if kind == "float":
                w = rng.random(k)
                return DiscreteMeasure(space, support, (w / w.sum()).tolist())
            if kind == "empirical":
                return empirical_sym(MultiSet(space, rng.choice(support, size=2 * k).tolist()))
            den = int(kind.split()[1])
            counts = (rng.multinomial(den - k, [1 / k] * k) + 1).tolist()
            return DiscreteMeasure.from_rational(space, support, counts, den)

        yield measure(m), measure(n)


def test_engine_keeps_its_plans_and_duals():
    # The bits of the engine's plans and right-side duals, ties included: a
    # change to the order in which it settles nodes or breaks ties, or to
    # when it sweeps the cost table again, changes this digest.
    instances = list(_pinned_instances())
    assert len(instances) == 48
    digest = hashlib.sha256()
    for p, q in instances:
        plan, v = _fraction_plan(p, q)
        digest.update(repr((sorted(plan), v)).encode())
    assert digest.hexdigest()[:16] == "a95497fb45a8910d"


def _result_digest(instances) -> str:
    """The bits of every reported number: cost, gap, potential and coupling
    masses, from the auto and flow routes. Each field is hashed as text or
    raw float bytes, never pickled, so the digest does not depend on
    pickle's protocol."""
    digest = hashlib.sha256()
    for p, q in instances:
        for solver in ("auto", "flow"):
            result = wasserstein1(p, q, solver)
            digest.update(f"{result.cost.hex()} {result.gap.hex()} {result.solver} "
                          f"{result.dual.points}".encode())
            digest.update(result.dual.values.tobytes())
            digest.update(result.coupling.matrix.tobytes())
    return digest.hexdigest()[:16]


def test_potential_on_p_is_the_full_table_scan_on_the_pins():
    # On p's support the potential is minus the engine's supply potential,
    # with no scan; it must equal the scan of the whole table in Python ints
    # bit for bit, on int64 and object tables, on both routes; the assignment
    # route's plan differs from the engine's, so only flow's gap is compared.
    routes = set()
    for p, q in _pinned_instances():
        points, values, gap, _ = _python_certificate(p, q)
        for solver in ("flow", "auto"):
            result = wasserstein1(p, q, solver)
            assert result.dual.points == points
            assert result.dual.values.tolist() == values
            routes.add((result.solver, _problem(p, q).table.dtype == object))
        assert w1_flow(p, q).gap == gap
    assert routes == {(s, objects) for s in ("flow", "assignment") for objects in (False, True)}


def test_results_keep_their_bits():
    assert _result_digest(_pinned_instances()) == "f72195cb8f05c377"


def _reference_plan(p: DiscreteMeasure, q: DiscreteMeasure):
    """A reference copy of the engine that does every step in full: every
    dry supply scans its whole row, every phase lifts every potential, and a
    dry source's columns are found by a scan of all of ``best``. Returns
    sorted(plan) and the right-side duals, as ``_fraction_plan`` gives them."""
    m, n = len(p.support), len(q.support)
    weights, den = _exact_weights(p, q)
    a, b = weights[:m], weights[m:]
    g = math.gcd(sum(a), sum(b))
    supply = [w * (sum(b) // g) for w in a]
    demand = [w * (sum(a) // g) for w in b]
    scale = den * (sum(b) // g)
    extra = sorted(set(q.support) - set(p.support))
    columns = np.array(q.support)

    def ratios(z):
        return list(map(float.as_integer_ratio, p.space.dist[z].take(columns).tolist()))

    table = [ratios(x) for x in p.support]
    unit = max(max(map(itemgetter(1), row)) for row in chain(table, map(ratios, extra)))
    cost = [[num * (unit // d) for num, d in row] for row in table]
    pot = [0] * (m + n)
    cols = list(zip(*cost))
    live = list(range(m))
    low = [min(col) for col in cols]
    best = [col.index(c) for col, c in zip(cols, low)]
    start = [0] * m
    into = [{} for _ in range(n)]

    while live:
        dist = start + list(map(sub, low, pot[m:]))
        pred = [-1] * m + best
        heap = list(zip(dist[m:], range(m, m + n)))
        heapq.heapify(heap)
        while True:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            if node < m:
                base = d + pot[node]
                for k, c in enumerate(cost[node], m):
                    nd = base + c - pot[k]
                    if nd < dist[k]:
                        dist[k], pred[k] = nd, node
                        heapq.heappush(heap, (nd, k))
            elif demand[node - m]:
                break
            else:
                for i in into[node - m]:
                    if d < dist[i]:
                        dist[i], pred[i] = d, node
                        heapq.heappush(heap, (d, i))
        pot = [u + (du if du < d else d) for u, du in zip(pot, dist)]

        j, theta = node - m, demand[node - m]
        pushes, pulls = [], []
        while True:
            i = pred[m + j]
            pushes.append((i, j))
            if pred[i] < 0:
                break
            j = pred[i] - m
            pulls.append((i, j))
            theta = min(theta, into[j][i])
        source = i
        theta = min(theta, supply[source])
        for i, j in pushes:
            into[j][i] = into[j].get(i, 0) + theta
        for i, j in pulls:
            into[j][i] -= theta
            if not into[j][i]:
                del into[j][i]
        supply[source] -= theta
        demand[node - m] -= theta
        if not supply[source]:
            live.remove(source)
            start[source] = math.inf
            for j, i in enumerate(best):
                if i == source and live:
                    best[j] = min(live, key=cols[j].__getitem__)
                    low[j] = cols[j][best[j]]

    plan = [(i, j, Fraction(f, scale)) for j, col in enumerate(into) for i, f in col.items()]
    return sorted(plan), pot[m:]


def _oracle_instances():
    """150 engine instances beyond the pinned 48: l1, l2 and linf grids up to
    n = 128, exact weights over 60, 360 and 997, float weights, empirical
    measures with repeated points, the 24-point line whose cost table is
    full of ties, and lopsided 1 x k, k x 1, k x 2 and 2 x k supports."""
    line = np.arange(24, dtype=float)
    tied = FiniteMetricSpace(np.abs(line[:, None] - line[None, :]))
    kinds = ("exact 60", "exact 360", "exact 997", "float", "empirical")
    for trial in range(150):
        rng = rng_from(29, trial)
        kind = kinds[trial % 5]
        if trial % 4 == 3:
            points, space = 24, tied
            m, n = rng.integers(1, 25, size=2).tolist()
        else:
            norm = ("l1", "l2", "linf")[trial % 3]
            top = 128 if trial % 10 == 0 else 40
            m, n = rng.integers(2, top + 1, size=2).tolist()
            points = m + n
            space = _grid_space(rng, points, norm)
        if trial % 6 == 5:
            k = int(rng.integers(3, 25))
            m, n = ((1, k), (k, 1), (k, 2), (2, k))[trial // 6 % 4]

        def measure(k):
            support = rng.choice(points, size=k, replace=False).tolist()
            if kind == "float":
                w = rng.random(k)
                return DiscreteMeasure(space, support, (w / w.sum()).tolist())
            if kind == "empirical":
                return empirical_sym(MultiSet(space, rng.choice(support, size=2 * k).tolist()))
            den = int(kind.split()[1])
            k = min(k, den)
            counts = (rng.multinomial(den - k, [1 / k] * k) + 1).tolist()
            return DiscreteMeasure.from_rational(space, support[:k], counts, den)

        yield measure(m), measure(n)


def test_engine_matches_its_reference_on_instances_beyond_the_pins():
    # The engine skips the row entries, lifts and re-sweeps that cannot
    # change what it settles; the reference does all of them. Plans and
    # duals must agree bit for bit, ties included.
    instances = list(_oracle_instances())
    assert len(instances) == 150
    for trial, (p, q) in enumerate(instances):
        plan, v = _fraction_plan(p, q)
        assert (sorted(plan), v) == _reference_plan(p, q), trial


def test_results_keep_their_bits_beyond_the_pins():
    # The pinned instances stay below 21 points; these reach n = 128, where
    # the problem build and the potential run on int64 arrays.
    assert _result_digest(_oracle_instances()) == "78582783e4ee47fc"


def _benchmark_dist_results(monkeypatch, seeds):
    """(p, q, result) of every op of the perfbench dist pools of ``seeds``.
    perfbench is read, never written: no bytecode is cached there."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    return [op.run() for seed in seeds for op in workloads.Dist(seed).ops]


def test_benchmark_dist_pools_keep_their_bits(monkeypatch):
    # Every result of the perfbench dist pools of seeds 3, 5 and 7, hashed as
    # in ROADMAP "Open items". The engine works in integers, so this digest
    # holds on any BLAS, unlike the law digests.
    digest = hashlib.sha256()
    for p, q, r in _benchmark_dist_results(monkeypatch, (3, 5, 7)):
        digest.update(pickle.dumps((r.cost, r.gap, r.solver, r.dual.points,
                                    r.dual.values.tobytes(), r.coupling.matrix.tobytes())))
    assert digest.hexdigest()[:12] == "c330bf18c958"


def _array_bits(array: np.ndarray):
    return array.dtype, array.shape, array.tobytes(), array.flags.writeable


def test_results_equal_what_the_public_constructors_build(monkeypatch):
    # transport builds its couplings and potentials past the guards of the
    # public constructors; every stored field must be what those build from
    # the same numbers, down to the dtype of the flat positions, which the
    # digests above, hashing coupling.matrix, would not see.
    results = [(p, q, wasserstein1(p, q, solver))
               for p, q in _pinned_instances() for solver in ("auto", "flow")]
    results += _benchmark_dist_results(monkeypatch, (3,))
    assert len(results) == 96 + 84
    for p, q, result in results:
        coupling, dual = result.coupling, result.dual
        public = Coupling(p, q, coupling.matrix)
        assert coupling.shape == public.shape == (len(p.support), len(q.support))
        assert _array_bits(coupling._index) == _array_bits(public._index)
        assert _array_bits(coupling._mass) == _array_bits(public._mass)
        again = DualPotential(dual.points, dual.values.tolist())
        assert dual.points == again.points
        assert _array_bits(dual.values) == _array_bits(again.values)
        assert not dual.values.flags.writeable


def _key_width_instances():
    """Instances with m + n = 2**k - 1, 2**k and 2**k + 1 for k = 3, 4 and 5,
    where the node field of the engine's heap keys widens by a bit: on the
    24-point line whose cost table is full of ties, and on a 40-point line
    whose scaled costs need more than 63 bits, exact and float weights."""
    tied = np.arange(24, dtype=float)
    wide = np.array([k * 2.0**-450 for k in range(20)] + [k * 2.0**400 for k in range(1, 21)])
    trial = 0
    for line in (tied, wide):
        space, size = FiniteMetricSpace(np.abs(np.subtract.outer(line, line))), len(line)
        for total in (7, 8, 9, 15, 16, 17, 31, 32, 33):
            for m in sorted({max(1, total - size), total // 2, min(size, total - 1)}):
                rng, trial = rng_from(37, trial), trial + 1

                def measure(k, first):
                    # first, 0 or the last point, spans the wide line's costs
                    rest = [z for z in range(size) if z != first]
                    support = [first, *rng.choice(rest, size=k - 1, replace=False).tolist()]
                    if trial % 2:
                        w = rng.random(k)
                        return DiscreteMeasure(space, support, (w / w.sum()).tolist())
                    counts = (rng.multinomial(997 - k, [1 / k] * k) + 1).tolist()
                    return DiscreteMeasure.from_rational(space, support, counts, 997)

                yield measure(m, 0), measure(total - m, size - 1)


def test_engine_matches_its_reference_at_the_key_width_boundaries():
    # 27 instances on each line; every one on the wide line has a cost that
    # scales past 2**63.
    widths, wide = Counter(), 0
    for p, q in _key_width_instances():
        plan, v = _fraction_plan(p, q)
        assert (sorted(plan), v) == _reference_plan(p, q)
        widths[(len(p.support) + len(q.support)).bit_length()] += 1
        wide += max(map(max, _problem(p, q).cost)) >= 2**63
    assert widths == {3: 6, 4: 18, 5: 18, 6: 12}
    assert wide == 27


def test_point_mass_sides_match_the_reference_engine():
    # _solve couples a point mass with the other side by the product, in
    # closed form. On 1 x 1, 1 x k and k x 1 instances the plan, its
    # denominator and every node potential must be the reference engine's:
    # float weights whose sums differ, which scales supply and demand; the
    # point inside the other support; an l2 grid that breaks the triangle
    # inequality by an ulp; and a line whose scaled costs need Python ints.
    cells = rng_from(30, 1).choice(4 * 24 * 24, size=24, replace=False)
    l2 = EuclideanSpace(np.stack(np.divmod(cells, 48), axis=1), "l2").to_metric()
    assert [v.axiom for v in validate_metric(l2, 0.0)] == ["triangle"]
    wide = np.array([k * 2.0**-450 for k in range(12)] + [k * 2.0**400 for k in range(1, 13)])
    line = FiniteMetricSpace(np.abs(np.subtract.outer(wide, wide)))
    seen = Counter()
    for trial in range(48):
        rng = rng_from(30, 2, trial)
        space, k, kind = (l2, line)[trial % 2], (1, 2, 5, 13)[trial // 2 % 4], trial // 8 % 3
        support = rng.choice(24, size=k, replace=False).tolist()
        x = support[0] if trial // 24 else int(rng.choice(sorted(set(range(24)) - set(support))))
        if kind == 0:
            counts = (rng.multinomial(997 - k, [1 / k] * k) + 1).tolist()
            point, other = dirac(space, x), DiscreteMeasure.from_rational(space, support,
                                                                          counts, 997)
        else:
            w = rng.random(k)
            point = DiscreteMeasure(space, [x], [(1.0, 1 - 2**-53)[kind - 1]])
            other = DiscreteMeasure(space, support, (w / w.sum()).tolist())
        for p, q in ((point, other), (other, point)):
            problem = _problem(p, q)
            plan, den, pot = _solve(problem)
            reference, v = _reference_plan(p, q)
            weights, unit = _exact_weights(p, q)
            a, b = weights[:len(p.support)], weights[len(p.support):]
            assert den == unit * (sum(b) // math.gcd(sum(a), sum(b)))
            assert sorted((i, j, Fraction(f, den)) for (i, j), f in plan.items()) == reference
            assert pot == [max(map(sub, v, row)) for row in problem.cost] + v
            seen["scaled"] += sum(a) != sum(b)
            seen["inside"] += x in other.support
            seen["objects"] += problem.table.dtype == object
            seen[len(p.support), len(q.support)] += 1
    assert seen["scaled"] and seen["inside"] and seen["objects"]
    assert seen[1, 1] == 24 and seen[1, 13] == seen[13, 1] == 12
