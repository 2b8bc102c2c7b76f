"""Wasserstein-1 distance between finitely supported measures.

Three primal routes are provided and cross-certified:

* ``w1_flow``      - the exact transport engine: primal-dual successive
                     shortest paths on the bipartite support graph.
* ``w1_assignment``- optimal assignment for uniform measures of equal
                     multiset size, up to MAX_ASSIGNMENT_SIZE.
* ``w1_bruteforce``- permutation scan over the common-denominator expansion,
                     up to MAX_BRUTE_SIZE; the oracle for the other two.

The engine's node potentials are optimal LP duals, and any optimal dual
satisfies complementary slackness with any optimal plan, so every route
reports them; README's ``flow`` paragraph sets out the engine and the
integers a solve is computed in. Results keep no m x n array: a coupling
stores only its nonzero entries, m + n - 1 where no ties in the cost table
make the optimum degenerate, a few more where ties do.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import itemgetter, sub
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ValidationError
from .measures import DiscreteMeasure, _exact_weights
from .power import _multiset, multiset_distance_bruteforce
from .spaces import _integer, _real, _real_array, _unguarded, same_space
from .tolerances import (AUTO_ASSIGNMENT_SIZE, MAX_ASSIGNMENT_SIZE, MAX_BRUTE_SIZE,
                         MAX_SUPPORT_PAIRS, TAU_METRIC, TAU_SOLVER, TAU_WEIGHT)

SOLVERS = ("auto", "assignment", "flow", "brute")


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Coupling:
    """A joint measure with prescribed marginals, as a support matrix.

    ``matrix[i, j]`` is the mass moved from p.support[i] to q.support[j].
    Only the nonzero entries are stored: their flat positions in the
    matrix, in the smallest unsigned type that holds every position, and
    their masses. ``matrix`` rebuilds the dense read-only array on each
    access, so take it once. The masses must be real numbers (not True or
    "1") in a rectangular array; non-finite ones are kept, for
    ``validate_coupling`` to report.
    """

    p: DiscreteMeasure
    q: DiscreteMeasure
    shape: tuple[int, ...]
    _index: np.ndarray
    _mass: np.ndarray

    def __init__(self, p: DiscreteMeasure, q: DiscreteMeasure, matrix):
        dense = _real_array(matrix, "coupling", "invariant.measure", finite=False)
        index = np.flatnonzero(dense).astype(np.min_scalar_type(dense.size))
        for name, value in (("p", p), ("q", q), ("shape", dense.shape),
                            ("_index", index), ("_mass", dense.ravel()[index])):
            object.__setattr__(self, name, value)

    @property
    def matrix(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense.flat[self._index] = self._mass
        dense.setflags(write=False)
        return dense


@dataclass(frozen=True, slots=True, eq=False)
class DualPotential:
    """A function on the joint support, 1-Lipschitz within tau_metric;
    ``points`` are distinct integers, and ``values`` is a read-only array of
    finite floats aligned with them."""

    points: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        points = tuple(_integer(z, "potential point", "invariant.dual") for z in self.points)
        if len(set(points)) < len(points):
            raise ValidationError("invariant.dual", "potential has a repeated point")
        values = _real_array(self.values, "potential", "invariant.dual")
        if values.shape != (len(points),):
            raise ValidationError("invariant.dual",
                                  "potential needs one finite value per point")
        values.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)

    def value_at(self, index: int) -> float:
        index = _integer(index, "potential point", "invariant.dual")
        if index not in self.points:
            raise ValidationError("invariant.dual", f"potential undefined at {index!r}")
        return float(self.values[self.points.index(index)])


@dataclass(frozen=True, slots=True, eq=False)
class TransportResult:
    cost: float
    coupling: Coupling
    dual: DualPotential
    gap: float
    solver: str


def _require_same_space(p: DiscreteMeasure, q: DiscreteMeasure) -> None:
    if not same_space(p.space, q.space):
        raise ValidationError("invariant.measure", "measures live on different spaces")


# ---------------------------------------------------------------------------
# exact transport engine

# An optimal plan as its nonzero entries {(i, j): k}: k / den of the mass
# moves from p.support[i] to q.support[j], for the den that comes with it.
_Plan = dict[tuple[int, int], int]


class _Problem(NamedTuple):
    """The exact numbers of one transport problem, as integers over common scales."""

    extra: list[int]  # q's support points outside p.support
    cost: list[list[int]]  # d(p.support[i], q.support[j]) * unit
    table: np.ndarray  # cost's rows, then d(extra[r], q.support[j]) * unit; int64 or objects
    unit: int  # a power of two, over the rows of p.support and of extra
    a: list[int]  # p's weights * den
    b: list[int]  # q's weights * den
    den: int


# Tables of up to _SMALL entries skip numpy, whose fixed cost per call outweighs
# their work; larger ones are read _BLOCK entries at a time.
_SMALL, _BLOCK = 32, 2048


def _problem(p: DiscreteMeasure, q: DiscreteMeasure) -> _Problem:
    """The weights of p and q as integers over one denominator, and the costs
    from p's support and from extra to q's support times unit, the least
    power of two that makes them integers; a larger unit scales every cost
    alike, which keeps the engine's plan. The table is read in blocks, so
    that only its int64 copy is held whole: a second whole copy would break
    the peak bound of test_potential_rows_are_reduced_one_at_a_time. A table
    whose scaled costs need more than 63 bits, such as one spanning 900
    binades, takes each float's integer ratio."""
    m, n = len(p.support), len(q.support)
    _integer(m * n, "support pairs", "invariant.size_cap", cap=MAX_SUPPORT_PAIRS)
    weights, den = _exact_weights(p, q)
    extra = sorted(set(q.support) - set(p.support))
    rows = [*p.support, *extra]
    step = max(1, _BLOCK // n)
    starts = range(0, len(rows), step)

    def read(s):
        return p.space.dist.take(rows[s:s + step], axis=0).take(q.support, axis=1)

    held, table = [read(0)] if len(starts) == 1 else None, None
    if len(rows) * n > _SMALL:
        k, top = 0, -math.inf
        for block in held or map(read, starts):
            mant, exp = np.frexp(block)
            # cost = ints * 2**(exp - 53); bit 53 gives a zero cost the lowest bit 1.0
            ints = np.ldexp(mant, 53).astype(np.int64) | (1 << 53)
            lowest = np.ldexp(ints & -ints, exp - 53)
            k = max(k, 1 - math.frexp(lowest.min())[1])
            top = max(top, int(exp.max()))
        if top + k <= 63:  # every |cost| * 2**k is below 2**63
            unit, table = 1 << k, np.empty((len(rows), n), dtype=np.int64)
            for s, block in zip(starts, held or map(read, starts)):
                np.ldexp(block, k, out=table[s:s + step], casting="unsafe")
    if table is None:
        ratios = [list(map(float.as_integer_ratio, row))
                  for block in held or map(read, starts) for row in block.tolist()]
        unit = max(d for row in ratios for _, d in row)
        table = np.array([[num * (unit // d) for num, d in row] for row in ratios], dtype=object)
    return _Problem(extra, table[:m].tolist(), table, unit, weights[:m], weights[m:], den)


def _solve(problem: _Problem) -> tuple[_Plan, int, list[int]]:
    """Optimal plan as integer masses, their one denominator, and the node potentials * unit.

    Primal-dual successive shortest paths (Ahuja, Magnanti & Orlin, *Network
    Flows*, ch. 9) in Python integers. Nodes 0..m-1 are supplies, m..m+n-1
    demands; the node potentials keep every reduced cost
    cost[i][j] + pot[i] - pot[m + j] nonnegative. Each phase runs Dijkstra
    on reduced costs from every supply with mass left, stops at the first
    demand with a deficit, lifts each potential by min(distance, end
    distance) and augments along the path. Heap ties break by node index,
    which makes the plan deterministic. The right-side duals are pot[m:];
    every supply ships mass along a tight arc, so -pot[i] = min_j (cost[i][j] - pot[m + j]).

    The sources' sweep of the cost rows (best, low, reach) is kept across
    phases; potentials and distances are held offset by shift, so a lift
    moves only the nodes settled below its end distance; a dry supply's row
    is scanned cheapest first, up to the bound ub + top; and a heap entry
    (dist, node) is the one int dist << s | node. README's account of the
    ``flow`` route shows that none of this changes the plan or the
    potentials, and that the phases end. Their work grows with the support
    pairs m * n, which are capped at MAX_SUPPORT_PAIRS.
    """
    cost, a, b = problem.cost, problem.a, problem.b
    m, n = len(a), len(b)
    # Float weights sum to 1 only up to a few ulps, and supply must equal
    # demand exactly: each side is scaled by the other side's sum.
    g = math.gcd(sum(a), sum(b))
    supply = [w * (sum(b) // g) for w in a]
    demand = [w * (sum(a) // g) for w in b]
    scale = problem.den * (sum(b) // g)
    if m == 1:  # a point mass couples by the product; README derives the duals
        return {(0, j): k for j, k in enumerate(demand)}, scale, [0, *cost[0]]
    if n == 1:
        v = max(row[0] for row in cost)
        return {(i, 0): k for i, k in enumerate(supply)}, scale, [v - row[0] for row in cost] + [v]
    s = (m + n).bit_length()
    mask = (1 << s) - 1
    pot, shift = [0] * (m + n), 0  # pot[i] of a supply with mass left is never read
    cols = list(zip(*cost))
    live = list(range(m))  # the sources, in index order
    low = [min(col) for col in cols]
    best = [col.index(c) for col, c in zip(cols, low)]
    owned: list[list[int]] = [[] for _ in range(m)]  # owned[i]: columns whose best is i
    for j, i in enumerate(best):
        owned[i].append(j)
    start = [0] * m  # the supplies' distances as a phase starts: 0 is below every distance
    into: list[dict[int, int]] = [{} for _ in range(n)]  # into[j][i]: flow from i to j
    rows: dict[int, list[tuple[int, int]]] = {}  # rows[i]: row i as (cost, node), cheapest first
    reach, top = low[:], 0  # low[j] - pot[m + j], column j's distance; max(pot[m:])

    while live:
        # The sources are settled; each column starts at its reach.
        dist = start + reach
        pred = [-1] * m + best
        ub = min(compress(reach, demand))
        heap = [r << s | k for k, r in enumerate(reach, m) if r <= ub]
        heapify(heap)
        settled = []
        while True:
            key = heappop(heap)
            d, node = key >> s, key & mask
            if d > dist[node]:
                continue  # stale: the node has since been offered less
            if node < m:
                settled.append(node)
                base = d + pot[node]
                limit = ub + top - base
                if node not in rows:
                    rows[node] = sorted(zip(cost[node], range(m, m + n)), key=itemgetter(0))
                for c, k in rows[node]:
                    if c > limit:
                        break  # this offer and every later one exceed ub
                    nd = base + c - pot[k]
                    if nd <= ub and nd < dist[k]:
                        dist[k], pred[k] = nd, node
                        heappush(heap, nd << s | k)
                        if nd < ub and demand[k - m]:
                            ub = nd
                            limit = ub + top - base
            elif demand[node - m]:
                break
            else:
                settled.append(node)
                # Arcs back along positive flow are tight: reduced cost 0.
                for i in into[node - m]:
                    if d < dist[i]:
                        dist[i], pred[i] = d, node
                        heappush(heap, d << s | i)
        # Lift each potential by min(distance, d): shift rises by d - shift,
        # and the nodes settled below d move by their distance - d. At
        # d = shift no potential moves.
        if d > shift:
            fell = False
            for u in settled:
                du = dist[u] - d
                if du < 0:
                    if u >= m:
                        fell = fell or pot[u] == top
                        reach[u - m] -= du
                    pot[u] += du
            if fell:
                top = max(pot[m:])
            shift = d

        # Walk the path back from node to a source: it alternates demand,
        # supply, demand, ..., and each supply on it gains flow towards the
        # demand before it and gives flow up towards the demand after it.
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
            start[source], pot[source] = math.inf, -shift
            for j in owned[source] if live else ():
                best[j] = min(live, key=cols[j].__getitem__)
                low[j] = cols[j][best[j]]
                reach[j] = low[j] - pot[m + j]
                owned[best[j]].append(j)

    plan = {(i, j): f for j, col in enumerate(into) for i, f in col.items()}
    return plan, scale, [u + shift for u in pot]


def _assemble(p: DiscreteMeasure, q: DiscreteMeasure, plan: _Plan, plan_den: int,
              pot: list[int], problem: _Problem, solver: str) -> TransportResult:
    """Result for an optimal plan over plan_den and the engine's optimal node
    potentials pot, every number computed in the integers of ``problem`` and
    the plan up to one correctly rounded division each (int / int).

    The potential min_j(table[z][j] - v[j]), v = pot[m:], is -pot[i] on p's
    rows. On extra's rows it is reduced _BLOCK entries at a time, for the
    same peak bound as _problem's blocks; int64 is exact when max(v) < 2**63,
    since costs and duals are nonnegative, so no difference overflows."""
    m = len(p.support)
    v, table = pot[m:], problem.table[m:]
    mins = [-u for u in pot[:m]]
    if table.dtype != object and max(v) < 2**63:
        right, step = np.array(v, dtype=np.int64), max(1, _BLOCK // len(v))
        for s in range(0, len(table), step):
            mins += (table[s:s + step] - right).min(axis=1).tolist()
    else:
        mins += [min(map(sub, row, v)) for row in table.tolist()]
    raw = dict(zip((*p.support, *problem.extra), mins))
    points = tuple(sorted(raw))
    f = {z: raw[z] - raw[points[0]] for z in points}
    # The plan's cost times plan_den * unit, its dual value times den * unit.
    primal = sum(k * problem.cost[i][j] for (i, j), k in plan.items())
    dual = (sum(w * f[x] for x, w in zip(p.support, problem.a))
            - sum(w * f[y] for y, w in zip(q.support, problem.b)))
    gap = abs(primal * problem.den - dual * plan_den)
    # The coupling's nonzero masses at their flat positions, in order; a mass
    # that rounds to 0.0 is dropped, as the public constructor drops it.
    n, cells = len(q.support), sorted(plan.items())
    masses = [k / plan_den for _, k in cells]
    index = np.array([i * n + j for ((i, j), _), w in zip(cells, masses) if w],
                     dtype=np.min_scalar_type(m * n))
    values = np.array([f[z] / problem.unit for z in points])
    values.setflags(write=False)
    return TransportResult(cost=primal / (plan_den * problem.unit),
                           coupling=_unguarded(Coupling)(p=p, q=q, shape=(m, n), _index=index,
                                                         _mass=np.array([w for w in masses if w])),
                           dual=_unguarded(DualPotential)(points=points, values=values),
                           gap=gap / (plan_den * problem.den * problem.unit), solver=solver)


# ---------------------------------------------------------------------------
# public solvers


def w1_flow(p: DiscreteMeasure, q: DiscreteMeasure) -> TransportResult:
    """Exact W1 from the transport engine; works for any weight pattern."""
    _require_same_space(p, q)
    problem = _problem(p, q)
    return _assemble(p, q, *_solve(problem), problem, "flow")


def _expansion_size(p: DiscreteMeasure) -> int | None:
    """Length of p's point-multiset expansion: the common denominator of
    exact weights, the support size of (near-)uniform float weights, and
    None for any other float weights."""
    if p.den is not None:
        return p.den
    w0 = float(p.weights[0])
    return None if any(abs(float(w) - w0) > TAU_WEIGHT for w in p.weights) else len(p.support)


def _uniform_expansion(p: DiscreteMeasure, size: int) -> list[int]:
    """Positions in p.support repeated by multiplicity (one each for float
    weights), _expansion_size(p) of them, and that list repeated to ``size``,
    a multiple of its length."""
    units = [i for i, k in enumerate(p.nums or [1] * len(p.support)) for _ in range(k)]
    return units * (size // len(units))


def w1_assignment(p: DiscreteMeasure, q: DiscreteMeasure) -> TransportResult:
    """W1 for empirical measures via optimal assignment.

    Both measures must expand to point multisets; replicating a multiset
    leaves the measure fixed, so unequal expansions are lifted to their
    least common size first. The duals come from the transport engine: any
    optimal dual certifies any optimal plan, and the exact gap shows how far
    the float assignment falls short of one.
    """
    _require_same_space(p, q)
    sizes = (_expansion_size(p), _expansion_size(q))
    if None in sizes:
        raise ValidationError("solver.unsupported",
                              "assignment solver needs empirical (uniform) measures")
    n = _integer(math.lcm(*sizes), "common multiset size", "invariant.tuple",
                 cap=MAX_ASSIGNMENT_SIZE)
    problem = _problem(p, q)
    pot = _solve(problem)[2]
    left, right = _uniform_expansion(p, n), _uniform_expansion(q, n)
    table = p.space.dist[np.ix_(p.support, q.support)]
    rows, cols = linear_sum_assignment(table[np.ix_(left, right)])
    plan = Counter((left[r], right[c]) for r, c in zip(rows.tolist(), cols.tolist()))
    return _assemble(p, q, plan, n, pot, problem, "assignment")


def w1_bruteforce(p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Oracle: expand both measures over their common denominator and scan
    all pairings. Requires exact weights; D! work, so D is capped."""
    _require_same_space(p, q)
    if p.den is None or q.den is None:
        raise ValidationError("solver.rational_required", "brute force needs exact weights")
    d = _integer(math.lcm(p.den, q.den), "common denominator", "invariant.measure",
                 cap=MAX_BRUTE_SIZE)
    left, right = ([m.support[i] for i in _uniform_expansion(m, d)] for m in (p, q))
    return multiset_distance_bruteforce(_multiset(p.space, left), _multiset(q.space, right))


def wasserstein1(p: DiscreteMeasure, q: DiscreteMeasure,
                 solver: str = "auto") -> TransportResult:
    """W1 with solver selection.

    ``auto`` picks the assignment route when both measures are uniform with
    equal multiset size and the flow route otherwise. ``brute`` wraps the
    oracle's cost in a full result (duals via the flow machinery).
    """
    if solver not in SOLVERS:
        raise ValidationError("solver.unsupported", f"unknown solver {solver!r}")
    if solver == "assignment":
        return w1_assignment(p, q)
    if solver == "flow":
        return w1_flow(p, q)
    if solver == "brute":
        result = w1_flow(p, q)
        oracle = w1_bruteforce(p, q)
        if abs(oracle - result.cost) > TAU_SOLVER:
            raise ValidationError("solver.disagreement",
                                  f"brute force {oracle!r} != flow {result.cost!r}")
        return replace(result, cost=oracle, solver="brute")
    sizes = (_expansion_size(p), _expansion_size(q))
    if None not in sizes and math.lcm(*sizes) <= AUTO_ASSIGNMENT_SIZE:
        return w1_assignment(p, q)
    return w1_flow(p, q)


# ---------------------------------------------------------------------------
# inspection helpers


def coupling_cost(c: Coupling) -> float:
    """Transport cost sum_ij r_ij d(x_i, y_j) of a coupling."""
    if c.shape != (len(c.p.support), len(c.q.support)):
        raise ValidationError("invariant.measure", f"shape {c.shape} does not match supports")
    table = c.p.space.dist[np.ix_(c.p.support, c.q.support)]
    return float(np.sum(c.matrix * table))


def validate_coupling(c: Coupling, tau_weight: float = TAU_WEIGHT) -> list[str]:
    """Report non-finite, negative and marginal violations; empty list means valid."""
    tau_weight = _real(tau_weight, "tolerance", "invariant.weights", 0.0, math.inf)
    matrix = c.matrix
    out: list[str] = []
    if matrix.shape != (len(c.p.support), len(c.q.support)):
        return [f"shape {matrix.shape} does not match supports"]
    if not np.isfinite(matrix).all():
        out.append("non-finite entry")
    if float(np.min(matrix)) < -tau_weight:
        out.append(f"negative entry {float(np.min(matrix))!r}")
    for name, axis, weights in (("row", 1, c.p.weights), ("column", 0, c.q.weights)):
        worst = float(np.max(np.abs(np.sum(matrix, axis=axis) - weights)))
        if worst > tau_weight:
            out.append(f"{name} marginal off by {worst!r}")
    return out


def w1_dual_value(p: DiscreteMeasure, q: DiscreteMeasure, f: DualPotential) -> float:
    """E_p[f] - E_q[f] for a potential on the joint support; rejects one that
    breaks the Lipschitz invariant there (slack tau_metric)."""
    _require_same_space(p, q)
    fmap = dict(zip(f.points, f.values.tolist()))
    needed = set(p.support) | set(q.support)
    missing = needed - set(f.points)
    if missing:
        raise ValidationError("invariant.dual", f"potential undefined at {sorted(missing)}")
    pts = sorted(needed)
    values = np.array([fmap[z] for z in pts])
    # The refusal names the first pair i < j in row-major order, argwhere's order.
    over = np.abs(values[:, None] - values) > p.space.dist[np.ix_(pts, pts)] + TAU_METRIC
    for i, j in np.argwhere(np.triu(over, 1))[:1].tolist():
        raise ValidationError("invariant.dual",
                              f"potential is not 1-Lipschitz at pair ({pts[i]}, {pts[j]})")
    plus = math.fsum(w * fmap[x] for x, w in zip(p.support, p.weights))
    minus = math.fsum(w * fmap[y] for y, w in zip(q.support, q.weights))
    return plus - minus

