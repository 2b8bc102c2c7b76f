"""Wasserstein-1 distance between finitely supported measures.

Three primal routes are provided and cross-certified:

* ``w1_flow``      - successive shortest paths on the bipartite support
                     graph, run entirely in exact rational arithmetic
                     (floats are exact rationals), so couplings, potentials
                     and the duality gap are certified rather than hoped.
* ``w1_assignment``- optimal assignment for uniform measures of equal
                     multiset size.
* ``w1_bruteforce``- permutation scan over the common-denominator expansion;
                     the oracle the other two are tested against.

Every route reports optimal dual potentials. They are recovered from the
optimal coupling via the complementary-slackness difference constraints
(Bellman-Ford; a negative cycle would certify non-optimality) and folded
into a single 1-Lipschitz function on the joint support by the transform
f(z) = min_j (d(z, y_j) - v_j), normalized to 0 at the first support point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ValidationError
from .measures import DiscreteMeasure
from .power import multiset_distance_bruteforce
from .spaces import same_space
from .tolerances import TAU_METRIC, TAU_SOLVER, TAU_WEIGHT

SOLVERS = ("auto", "assignment", "flow", "brute")


@dataclass(frozen=True)
class Coupling:
    """A joint measure with prescribed marginals, as a support matrix.

    ``matrix[i, j]`` is the mass moved from p.support[i] to q.support[j].
    """

    p: DiscreteMeasure
    q: DiscreteMeasure
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


@dataclass(frozen=True)
class DualPotential:
    """A function on the joint support, 1-Lipschitz within tau_metric."""

    points: tuple[int, ...]
    values: tuple[float, ...]

    def value_at(self, index: int) -> float:
        return self.values[self.points.index(index)]


@dataclass(frozen=True)
class TransportResult:
    cost: float
    coupling: Coupling
    dual: DualPotential
    gap: float
    solver: str


def _exact_weights(p: DiscreteMeasure) -> list[Fraction]:
    if p.fractions is not None:
        return list(p.fractions)
    return [Fraction(float(w)) for w in p.weights]


def _require_same_space(p: DiscreteMeasure, q: DiscreteMeasure) -> None:
    if not same_space(p.space, q.space):
        raise ValidationError("invariant.measure", "measures live on different spaces")


# ---------------------------------------------------------------------------
# exact successive-shortest-paths engine


def _ssp_flow(a: list[Fraction], b: list[Fraction],
              cost: list[list[Fraction]]) -> list[list[Fraction]]:
    """Min-cost transport plan between exact supply and demand vectors.

    Nodes 0..m-1 are supplies, m..m+n-1 demands. Each phase runs Bellman-Ford
    from every supply with mass left (backward arcs carry negative cost, so
    Dijkstra would need reduced costs; exact Bellman-Ford keeps the code
    short and the arithmetic certified) and augments along a shortest path.
    Ties are broken by lowest index throughout, which makes the plan
    deterministic.
    """
    m, n = len(a), len(b)
    arem = list(a)
    brem = list(b)
    flow = [[Fraction(0)] * n for _ in range(m)]
    guard = 4 * (m + n) * (m + n) + 16

    for _ in range(guard):
        if not any(brem):
            return flow
        dist: list[Fraction | None] = [None] * (m + n)
        pred: list[int] = [-1] * (m + n)
        for i in range(m):
            if arem[i] > 0:
                dist[i] = Fraction(0)
        for _round in range(m + n):
            changed = False
            for i in range(m):
                di = dist[i]
                if di is None:
                    continue
                row = cost[i]
                for j in range(n):
                    nd = di + row[j]
                    k = m + j
                    dk = dist[k]
                    if dk is None or nd < dk:
                        dist[k] = nd
                        pred[k] = i
                        changed = True
            for i in range(m):
                row = flow[i]
                for j in range(n):
                    if row[j] > 0 and dist[m + j] is not None:
                        nd = dist[m + j] - cost[i][j]
                        di = dist[i]
                        if di is None or nd < di:
                            dist[i] = nd
                            pred[i] = m + j
                            changed = True
            if not changed:
                break

        target = -1
        for j in range(n):
            if brem[j] > 0 and dist[m + j] is not None:
                if target < 0 or dist[m + j] < dist[m + target]:
                    target = j
        if target < 0:
            raise ValidationError("solver.infeasible", "no augmenting path (unbalanced problem)")

        # Trace predecessor chain back to an untouched supply node.
        arcs: list[tuple[int, int, bool]] = []  # (i, j, forward)
        node = m + target
        while True:
            prev = pred[node]
            if node >= m:
                arcs.append((prev, node - m, True))
                node = prev
            else:
                if prev < 0:
                    break
                arcs.append((node, prev - m, False))
                node = prev

        theta = min(arem[node], brem[target])
        for i, j, forward in arcs:
            if not forward:
                theta = min(theta, flow[i][j])
        for i, j, forward in arcs:
            if forward:
                flow[i][j] += theta
            else:
                flow[i][j] -= theta
        arem[node] -= theta
        brem[target] -= theta

    raise ValidationError("solver.stalled", "augmentation limit exceeded")


def _dual_from_coupling(cost: list[list[Fraction]],
                        flow: list[list[Fraction]]) -> tuple[list[Fraction], list[Fraction]]:
    """Optimal LP duals (u, v) for a given optimal plan.

    Solves the difference-constraint system u_i + v_j <= c_ij (all arcs),
    with equality on support arcs, by Bellman-Ford from a virtual source.
    A remaining relaxation after |V| rounds means a negative cycle, i.e. the
    plan was not optimal; that is reported as a solver fault.
    """
    m, n = len(flow), len(flow[0]) if flow else 0
    dist: list[Fraction] = [Fraction(0)] * (m + n)
    for _round in range(m + n + 1):
        changed = False
        for i in range(m):
            ci = cost[i]
            fi = flow[i]
            for j in range(n):
                # arc Rj -> Li, weight c_ij   (u_i - (-v_j) <= c_ij)
                nd = dist[m + j] + ci[j]
                if nd < dist[i]:
                    dist[i] = nd
                    changed = True
                # arc Li -> Rj, weight -c_ij, present when mass moves on (i,j)
                if fi[j] > 0:
                    nd = dist[i] - ci[j]
                    if nd < dist[m + j]:
                        dist[m + j] = nd
                        changed = True
        if not changed:
            break
    else:
        raise ValidationError("solver.not_optimal", "negative cycle: coupling is not optimal")

    u = [dist[i] for i in range(m)]
    v = [-dist[m + j] for j in range(n)]
    return u, v


def _kantorovich_potential(p: DiscreteMeasure, q: DiscreteMeasure,
                           v: list[Fraction]) -> tuple[tuple[int, ...], list[Fraction]]:
    """1-Lipschitz potential on the joint support from right-side duals."""
    table = p.space.dist
    points = tuple(sorted(set(p.support) | set(q.support)))
    raw = [min(Fraction(float(table[z, y])) - vj for y, vj in zip(q.support, v))
           for z in points]
    base = raw[0]
    return points, [val - base for val in raw]


def _assemble(p: DiscreteMeasure, q: DiscreteMeasure, flow: list[list[Fraction]],
              cost: list[list[Fraction]], solver: str) -> TransportResult:
    a = _exact_weights(p)
    b = _exact_weights(q)
    u, v = _dual_from_coupling(cost, flow)
    points, fvals = _kantorovich_potential(p, q, v)
    fmap = dict(zip(points, fvals))

    cost_exact = sum(flow[i][j] * cost[i][j]
                     for i in range(len(a)) for j in range(len(b)))
    dual_exact = (sum(w * fmap[x] for x, w in zip(p.support, a))
                  - sum(w * fmap[y] for y, w in zip(q.support, b)))
    gap = abs(cost_exact - dual_exact)

    matrix = np.array([[float(f) for f in row] for row in flow])
    coupling = Coupling(p, q, matrix)
    dual = DualPotential(points, tuple(float(f) for f in fvals))
    return TransportResult(cost=float(cost_exact), coupling=coupling, dual=dual,
                           gap=float(gap), solver=solver)


def _cost_table(p: DiscreteMeasure, q: DiscreteMeasure) -> list[list[Fraction]]:
    table = p.space.dist
    return [[Fraction(float(table[i, j])) for j in q.support] for i in p.support]


# ---------------------------------------------------------------------------
# public solvers


def w1_flow(p: DiscreteMeasure, q: DiscreteMeasure) -> TransportResult:
    """Exact W1 via successive shortest paths; works for any weight pattern."""
    _require_same_space(p, q)
    cost = _cost_table(p, q)
    a = _exact_weights(p)
    b = _exact_weights(q)
    # Float weights are exact binary rationals whose sums can differ from one
    # another in the last few ulps; the network needs supply == demand
    # exactly, so rescale one side (a no-op for weights that sum to 1).
    if sum(a) != sum(b):
        scale = sum(a) / sum(b)
        b = [w * scale for w in b]
    flow = _ssp_flow(a, b, cost)
    return _assemble(p, q, flow, cost, "flow")


def _expansion_size(p: DiscreteMeasure) -> int | None:
    """Length of p's point-multiset expansion: the common denominator of
    exact weights, the support size of (near-)uniform float weights, and
    None for any other float weights."""
    if p.fractions is not None:
        return p.denominator
    w0 = float(p.weights[0])
    if any(abs(float(w) - w0) > TAU_WEIGHT for w in p.weights):
        return None
    return len(p.support)


def _uniform_expansion(p: DiscreteMeasure) -> list[int]:
    """Support indices repeated by multiplicity, _expansion_size(p) of them."""
    if p.fractions is None:
        return list(p.support)
    from .monad import multiset_from_measure  # monad imports this module

    return list(multiset_from_measure(p).entries)


def w1_assignment(p: DiscreteMeasure, q: DiscreteMeasure,
                  max_expansion: int = 2048) -> TransportResult:
    """W1 for empirical measures via optimal assignment.

    Both measures must expand to point multisets; replicating a multiset
    leaves the measure fixed, so unequal expansions are lifted to their
    least common size first.
    """
    _require_same_space(p, q)
    sizes = (_expansion_size(p), _expansion_size(q))
    if None in sizes:
        raise ValidationError("solver.unsupported",
                              "assignment solver needs empirical (uniform) measures")
    n = math.lcm(*sizes)
    if n > max_expansion:
        raise ValidationError("invariant.size_cap",
                              f"common multiset size {n} exceeds cap {max_expansion}")
    left = _uniform_expansion(p) * (n // sizes[0])
    right = _uniform_expansion(q) * (n // sizes[1])
    table = p.space.dist
    rows, cols = linear_sum_assignment(table[np.ix_(left, right)])

    pos_p = {x: i for i, x in enumerate(p.support)}
    pos_q = {y: j for j, y in enumerate(q.support)}
    unit = Fraction(1, n)
    flow = [[Fraction(0)] * len(q.support) for _ in p.support]
    for r, c in zip(rows, cols):
        flow[pos_p[left[r]]][pos_q[right[c]]] += unit
    return _assemble(p, q, flow, _cost_table(p, q), "assignment")


def w1_bruteforce(p: DiscreteMeasure, q: DiscreteMeasure, max_expansion: int = 8) -> float:
    """Oracle: expand both measures over their common denominator and scan
    all pairings. Requires exact weights; D! work, so D is capped."""
    _require_same_space(p, q)
    if p.fractions is None or q.fractions is None:
        raise ValidationError("solver.rational_required", "brute force needs exact weights")
    d = math.lcm(p.denominator, q.denominator)
    if d > max_expansion:
        raise ValidationError("invariant.size_cap",
                              f"common denominator {d} exceeds cap {max_expansion}")
    from .monad import multiset_from_measure  # monad imports this module

    return multiset_distance_bruteforce(multiset_from_measure(p, d),
                                        multiset_from_measure(q, d), max_n=d)


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
        return TransportResult(cost=oracle, coupling=result.coupling, dual=result.dual,
                               gap=result.gap, solver="brute")
    sizes = (_expansion_size(p), _expansion_size(q))
    if None not in sizes and math.lcm(*sizes) <= 256:
        return w1_assignment(p, q)
    return w1_flow(p, q)


# ---------------------------------------------------------------------------
# inspection helpers


def coupling_cost(c: Coupling) -> float:
    """Transport cost sum_ij r_ij d(x_i, y_j) of a coupling."""
    table = c.p.space.dist[np.ix_(c.p.support, c.q.support)]
    return float(np.sum(c.matrix * table))


def validate_coupling(c: Coupling, tau_weight: float = TAU_WEIGHT) -> list[str]:
    """Report marginal and positivity violations; empty list means valid."""
    out: list[str] = []
    if c.matrix.shape != (len(c.p.support), len(c.q.support)):
        return [f"shape {c.matrix.shape} does not match supports"]
    if float(np.min(c.matrix)) < -tau_weight:
        out.append(f"negative entry {float(np.min(c.matrix))!r}")
    rows = np.sum(c.matrix, axis=1)
    cols = np.sum(c.matrix, axis=0)
    worst_row = float(np.max(np.abs(rows - c.p.weights)))
    worst_col = float(np.max(np.abs(cols - c.q.weights)))
    if worst_row > tau_weight:
        out.append(f"row marginal off by {worst_row!r}")
    if worst_col > tau_weight:
        out.append(f"column marginal off by {worst_col!r}")
    return out


def w1_dual_value(p: DiscreteMeasure, q: DiscreteMeasure, f: DualPotential) -> float:
    """E_p[f] - E_q[f] for a potential on the joint support.

    Rejects potentials that break the Lipschitz invariant on the joint
    support (slack tau_metric).
    """
    _require_same_space(p, q)
    fmap = dict(zip(f.points, f.values))
    needed = set(p.support) | set(q.support)
    missing = needed - set(f.points)
    if missing:
        raise ValidationError("invariant.dual", f"potential undefined at {sorted(missing)}")
    table = p.space.dist
    pts = sorted(needed)
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            if abs(fmap[x] - fmap[y]) > float(table[x, y]) + TAU_METRIC:
                raise ValidationError("invariant.dual",
                                      f"potential is not 1-Lipschitz at pair ({x}, {y})")
    plus = math.fsum(w * fmap[x] for x, w in zip(p.support, p.weights))
    minus = math.fsum(w * fmap[y] for y, w in zip(q.support, q.weights))
    return plus - minus


def bistochastic_min(a, b) -> float:
    """Relaxed (bistochastic) value of the multiset metric.

    Equals the flow distance between the two uniform empirical measures;
    by Birkhoff-von Neumann it coincides with the assignment optimum.
    """
    from .monad import empirical_sym  # local import to avoid a cycle

    return w1_flow(empirical_sym(a), empirical_sym(b)).cost
