"""Correctness checks for benchmark results, run outside the timed region.

Transport costs are compared with an independent linear program solved by
HiGHS through ``scipy.optimize.linprog``; everything else is compared with
the library's own certificates (coupling marginals, dual value, gap) and,
for empirical measures, with the multiset metric the paper proves equal.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

import kantorovich as K

DUAL_TOL = 1e-8
GAP_TOL = 1e-8


def lp_cost(table: np.ndarray, a, b) -> float:
    """Optimal transport cost between weight vectors a and b under ``table``."""
    m, n = table.shape
    cols = np.arange(m * n)
    rows = np.concatenate([np.repeat(np.arange(m), n), m + np.tile(np.arange(n), m)])
    constraints = csr_matrix((np.ones(2 * m * n), (rows, np.concatenate([cols, cols]))),
                             shape=(m + n, m * n))
    res = linprog(table.ravel(), A_eq=constraints,
                  b_eq=np.concatenate([np.asarray(a, float), np.asarray(b, float)]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


def measure_lp_cost(p, q) -> float:
    return lp_cost(p.space.dist[np.ix_(p.support, q.support)], p.weights, q.weights)


def transport_problems(p, q, result, integer_table: bool, multisets=None) -> list[str]:
    """Every way ``result`` fails to be a certified optimum for (p, q).

    ``integer_table`` marks distance tables with integer entries: with
    rational weights there the duality gap must be exactly 0.0.
    """
    out: list[str] = []
    oracle = measure_lp_cost(p, q)
    if not abs(result.cost - oracle) <= K.TAU_SOLVER:
        out.append(f"cost {result.cost!r} differs from the LP oracle {oracle!r}")
    out += [f"coupling: {v}" for v in K.validate_coupling(result.coupling)]
    try:
        dual = K.w1_dual_value(p, q, result.dual)
    except K.KantorovichError as exc:
        out.append(f"dual potential rejected: {exc.code}: {exc.message}")
    else:
        if not abs(dual - result.cost) <= DUAL_TOL:
            out.append(f"dual value {dual!r} differs from cost {result.cost!r}")
    rational = p.fractions is not None and q.fractions is not None
    if rational and integer_table:
        if result.gap != 0.0:
            out.append(f"gap {result.gap!r} is not exactly 0 for rational weights")
    elif not result.gap <= GAP_TOL:
        out.append(f"gap {result.gap!r} exceeds {GAP_TOL}")
    if multisets is not None:
        direct = K.multiset_distance(*multisets)
        if not abs(direct - result.cost) <= DUAL_TOL:
            out.append(f"cost {result.cost!r} differs from the multiset metric {direct!r}")
    return out
