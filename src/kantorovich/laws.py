"""Randomized law suite: every commuting square and isometry, as one runner.

Each law draws its instances from a dedicated seed stream, reports the worst
observed discrepancy over the requested trials, and passes when that stays
within its tolerance. Structural laws (flattenings, quotients, exact weight
arithmetic) are held to 1e-12; anything crossing a solver boundary gets the
solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .graded import (_discrepancy, check_assoc_square, check_double_quotient, curry_flatten,
                     nested_tuple_distance, unit_discrepancy_multiset, unit_discrepancy_tuple)
from .measures import dirac, first_moment, mixture, pushforward
from .monad import (check_expectation_flatten, check_iota_isometry, check_monad_laws,
                    check_ppx_square, empirical_sym)
from .power import (multiset_distance, multiset_distance_bruteforce, precompose,
                    quotient, repeat_embedding, tuple_distance)
from .samplers import (random_euclidean_space, random_finunif,
                       random_measure, random_multiset, random_nested_multiset,
                       random_nested_tuple, random_rational_pair, random_space,
                       random_tuple, rng_from, sweep)
from .spaces import _integer, _roster, _worst
from .tolerances import EXACT_TOL, TAU_SOLVER
from .transport import w1_bruteforce, w1_flow, wasserstein1


@dataclass(frozen=True)
class LawResult:
    law: str
    trials: int
    worst_discrepancy: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "trials": self.trials,
            "worst_discrepancy": self.worst_discrepancy,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _result(law: str, trials: int, worst: float, tol: float) -> LawResult:
    return LawResult(law, trials, float(worst), tol, bool(worst <= tol))


def run_law_suite(trials: int = 100, seed: int = 0, max_points: int = 6,
                  max_support: int = 4) -> list[LawResult]:
    """Run every law check, trials >= 1; the CLI ``laws`` command is a thin wrapper."""
    trials = _integer(trials, "trials", "invariant.weights", 1)
    monad_worst = check_monad_laws(trials, seed, max_points, max_support)
    out = [_result(f"monad.{law}", trials, worst, EXACT_TOL)
           for law, worst in monad_worst.items()]
    for law, stream, check, tol in _SWEPT_LAWS:
        worst = sweep(trials, rng_from(seed, stream), (law,), lambda rng: (check(rng),))
        out.append(_result(law, trials, worst[law], tol))
    return out


# --- individual checks (each returns one trial's discrepancy) --------------


def _dirac_isometry(rng) -> float:
    space = random_space(rng)
    x, y = (int(rng.integers(0, space.n)) for _ in range(2))
    got = w1_flow(dirac(space, x), dirac(space, y)).cost
    return abs(got - space.d(x, y))


def _empirical_isometry(rng) -> float:
    space = random_space(rng)
    n = int(rng.integers(1, 5))
    return check_iota_isometry(random_multiset(rng, space, n),
                               random_multiset(rng, space, n))


def _first_moment(rng) -> float:
    space = random_space(rng)
    p = random_measure(rng, space)
    x0 = int(rng.integers(0, space.n))
    got = w1_flow(dirac(space, x0), p).cost
    return abs(got - first_moment(p, x0))


def _mixture_contraction(rng) -> float:
    space = random_space(rng)
    q1 = random_measure(rng, space)
    q2 = random_measure(rng, space)
    p = random_measure(rng, space)
    k = int(rng.integers(0, 9))  # lambda = k/8
    lhs = w1_flow(mixture([k, 8 - k], [q1, p], 8),
                  mixture([k, 8 - k], [q2, p], 8)).cost
    rhs = w1_flow(q1, q2).cost
    return abs(lhs - k / 8 * rhs)


def _short_map_instance(rng):
    """X and its image under a coordinatewise-contracted affine map."""
    dim = int(rng.integers(1, 4))
    n = int(rng.integers(2, 7))
    space = random_euclidean_space(rng, n, dim, "l2")
    matrix = rng.uniform(-1.0, 1.0, size=(dim, dim))
    sigma = float(np.linalg.svd(matrix, compute_uv=False)[0])
    if sigma > 0:
        matrix /= (sigma * 1.0000001)
    return space, _roster(space.coords @ matrix.T, "l2")


def _pushed_w1(p, q, target) -> float:
    """W1 of p and q pushed forward along the identity of indices into target."""
    identity = list(range(p.space.n))
    return w1_flow(pushforward(identity, p, target), pushforward(identity, q, target)).cost


def _pushforward_short(rng) -> float:
    space, image_space = _short_map_instance(rng)
    p = random_measure(rng, space)
    q = random_measure(rng, space)
    return _worst(0.0, _pushed_w1(p, q, image_space) - w1_flow(p, q).cost)


def _embedding_invariance(rng) -> float:
    dim = int(rng.integers(1, 4))
    small = int(rng.integers(2, 6))
    extra = int(rng.integers(1, 4))
    big_space = random_euclidean_space(rng, small + extra, dim, "l2")
    small_space = _roster(big_space.coords[:small], "l2")
    p = random_measure(rng, small_space)
    q = random_measure(rng, small_space)
    return abs(w1_flow(p, q).cost - _pushed_w1(p, q, big_space))


def _duality_gap(rng) -> float:
    space = random_space(rng)
    p, q = random_rational_pair(rng, space, den=int(rng.integers(2, 8)))
    return wasserstein1(p, q, "flow").gap


def _flow_vs_brute(rng) -> float:
    space = random_space(rng)
    p, q = random_rational_pair(rng, space, den=int(rng.integers(2, 7)))
    return abs(w1_flow(p, q).cost - w1_bruteforce(p, q))


def _w1_symmetry(rng) -> float:
    space = random_space(rng)
    p = random_measure(rng, space)
    q = random_measure(rng, space)
    return abs(w1_flow(p, q).cost - w1_flow(q, p).cost)


def _w1_triangle(rng) -> float:
    space = random_space(rng)
    p = random_measure(rng, space)
    q = random_measure(rng, space)
    r = random_measure(rng, space)
    return _worst(0.0, w1_flow(p, r).cost - w1_flow(p, q).cost - w1_flow(q, r).cost)


def _assignment_vs_lp(rng) -> float:
    space = random_space(rng)
    n = int(rng.integers(1, 6))
    a = random_multiset(rng, space, n)
    b = random_multiset(rng, space, n)
    lp = w1_flow(empirical_sym(a), empirical_sym(b)).cost
    lsa = multiset_distance(a, b)
    brute = multiset_distance_bruteforce(a, b)
    return _worst(abs(lp - lsa), abs(lsa - brute))


def _repeat_isometry(rng) -> float:
    space = random_space(rng)
    m = int(rng.integers(1, 5))
    reps = int(rng.integers(1, 4))
    a = random_multiset(rng, space, m)
    b = random_multiset(rng, space, m)
    return abs(multiset_distance(repeat_embedding(a, reps), repeat_embedding(b, reps))
               - multiset_distance(a, b))


def _precompose_isometry(rng) -> float:
    space = random_space(rng)
    t_len = int(rng.integers(1, 5))
    fiber = int(rng.integers(1, 4))
    phi = random_finunif(rng, t_len, fiber)
    s = random_tuple(rng, space, t_len)
    t = random_tuple(rng, space, t_len)
    return abs(tuple_distance(precompose(phi, s), precompose(phi, t))
               - tuple_distance(s, t))


def _quotient_naturality(rng) -> float:
    space = random_space(rng)
    t_len = int(rng.integers(1, 5))
    fiber = int(rng.integers(1, 4))
    phi = random_finunif(rng, t_len, fiber)
    t = random_tuple(rng, space, t_len)
    via_precompose = quotient(precompose(phi, t))
    return _discrepancy(via_precompose, repeat_embedding(quotient(t), fiber), multiset_distance)


def _graded_units(rng) -> float:
    space = random_space(rng)
    n = int(rng.integers(1, 5))
    return _worst(unit_discrepancy_tuple(random_tuple(rng, space, n)),
                  unit_discrepancy_multiset(random_multiset(rng, space, n)))


def _associativity(rng, symmetrized: bool) -> float:
    space = random_space(rng)
    outer, mid, inner = (int(rng.integers(1, 4)) for _ in range(3))
    grid3 = [[[int(rng.integers(0, space.n)) for _ in range(inner)]
              for _ in range(mid)] for _ in range(outer)]
    return check_assoc_square(space, grid3, symmetrized)


def _nested(rng, draw):
    """A nesting from ``draw`` on a fresh random space: 1 to 3 by 1 to 3."""
    space = random_space(rng)
    return draw(rng, space, int(rng.integers(1, 4)), int(rng.integers(1, 4)))


def _double_quotient(rng) -> float:
    return check_double_quotient(_nested(rng, random_nested_tuple))


def _flatten_isometry(rng) -> float:
    space = random_space(rng)
    outer, inner = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    a = random_nested_tuple(rng, space, outer, inner)
    b = random_nested_tuple(rng, space, outer, inner)
    return abs(nested_tuple_distance(a, b)
               - tuple_distance(curry_flatten(a), curry_flatten(b)))


def _expectation_flatten(rng) -> float:
    return check_expectation_flatten(_nested(rng, random_nested_multiset))


def _ppx_square(rng) -> float:
    return 0.0 if check_ppx_square(_nested(rng, random_nested_multiset)) else 1.0


# (name, seed stream, one-trial check, tolerance), in report order.
_SWEPT_LAWS = (
    ("dirac.isometry", 11, _dirac_isometry, TAU_SOLVER),
    ("empirical.isometry", 12, _empirical_isometry, TAU_SOLVER),
    ("transport.first_moment", 13, _first_moment, TAU_SOLVER),
    ("transport.mixture_contraction", 14, _mixture_contraction, TAU_SOLVER),
    ("transport.pushforward_short", 15, _pushforward_short, TAU_SOLVER),
    ("transport.embedding_invariance", 16, _embedding_invariance, TAU_SOLVER),
    ("transport.duality_gap", 17, _duality_gap, TAU_SOLVER),
    ("transport.flow_vs_brute", 18, _flow_vs_brute, TAU_SOLVER),
    ("transport.symmetry", 19, _w1_symmetry, TAU_SOLVER),
    ("transport.triangle", 20, _w1_triangle, TAU_SOLVER),
    ("power.assignment_vs_lp", 21, _assignment_vs_lp, TAU_SOLVER),
    ("power.repeat_isometry", 22, _repeat_isometry, TAU_SOLVER),
    ("power.precompose_isometry", 23, _precompose_isometry, EXACT_TOL),
    ("power.quotient_naturality", 24, _quotient_naturality, 0.0),
    ("graded.unit_triangles", 25, _graded_units, 0.0),
    ("graded.associativity_tuple", 26, partial(_associativity, symmetrized=False), 0.0),
    ("graded.associativity_multiset", 27, partial(_associativity, symmetrized=True), 0.0),
    ("graded.double_quotient", 28, _double_quotient, 0.0),
    ("graded.flatten_isometry", 29, _flatten_isometry, EXACT_TOL),
    ("monad.expectation_flatten", 30, _expectation_flatten, 0.0),
    ("monad.ppx_square", 31, _ppx_square, 0.0),
)
