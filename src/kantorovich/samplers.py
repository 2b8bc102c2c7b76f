"""Seeded random generators for spaces, measures, and samples.

Everything is driven by numpy's PCG64 through SeedSequence streams, so any
(seed, stream) pair reproduces bit-identically across runs and platforms.
Random distance tables use integer entries closed under shortest paths:
the metric axioms then hold exactly in float arithmetic, which keeps the
exactness claims of the law checks honest.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .graded import NestedMultiSet, NestedTuple
from .measures import DiscreteMeasure
from .power import FinUnifMap, MultiSet, PointTuple
from .spaces import NORMS, EuclideanSpace, FiniteMetricSpace, _integer
from .tolerances import MAX_RANDOM_POINTS, MAX_TRIALS

RNG_ALGORITHM = "numpy-pcg64"


def rng_from(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for a (seed, stream...) tuple of nonnegative integers."""
    entropy = [_integer(s, "seed", "invariant.weights", 0) for s in (seed, *stream)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def sweep(trials: int, rng: np.random.Generator, names: Sequence[str],
          trial: Callable[[np.random.Generator], Sequence[float]]) -> dict[str, float]:
    """Worst value of each named discrepancy over ``trials`` calls of
    ``trial(rng)``, which returns one value per name, in order. A NaN is
    worse than any number and stays the worst, so no tolerance passes it."""
    trials = _integer(trials, "trials", "invariant.weights", 0, cap=MAX_TRIALS)
    worst = dict.fromkeys(names, 0.0)
    for _ in range(trials):
        for name, value in zip(names, trial(rng)):
            # <= and == are false for NaN: a NaN value gets in, and a NaN
            # worst value (the one float unequal to itself) stays.
            if not value <= worst[name] and worst[name] == worst[name]:
                worst[name] = value
    return worst


def distinct_points(k: int, draw: Callable[[], tuple]) -> list[tuple]:
    """The first ``k`` distinct values of repeated ``draw()`` calls, in the
    order they were first drawn."""
    k = _integer(k, "point count", "invariant.space", 0)
    points: dict[tuple, None] = {}
    while len(points) < k:
        points.setdefault(draw())
    return list(points)


def random_metric_space(rng: np.random.Generator, n_points: int) -> FiniteMetricSpace:
    """Random integer distance table (raw entries 1..9), closed under shortest paths."""
    n = _integer(n_points, "n_points", "invariant.space", 1)
    if n == 1:
        return FiniteMetricSpace([[0.0]])
    raw = rng.integers(1, 10, size=(n, n))
    table = np.minimum(raw, raw.T).astype(np.int64)
    np.fill_diagonal(table, 0)
    for k in range(n):
        table = np.minimum(table, table[:, k:k + 1] + table[k:k + 1, :])
    return FiniteMetricSpace(table.astype(float))


def random_euclidean_space(rng: np.random.Generator, n_points: int, dim: int,
                           norm: str | None = None) -> FiniteMetricSpace:
    """Distinct points of the integer grid [-8, 8]^dim under a random or given norm."""
    dim = _integer(dim, "dim", "invariant.space", 1)
    n_points = _integer(n_points, "n_points", "invariant.space", 1, cap=MAX_RANDOM_POINTS ** dim)
    if norm is None:
        norm = NORMS[int(rng.integers(0, len(NORMS)))]
    points = distinct_points(n_points, lambda: tuple(int(rng.integers(-8, 9)) for _ in range(dim)))
    return EuclideanSpace(np.array(points, dtype=float), norm).to_metric()


def random_space(rng: np.random.Generator, max_points: int = 6) -> FiniteMetricSpace:
    """Either flavor of random space, at a random size >= 2."""
    max_points = _integer(max_points, "max_points", "invariant.space", 2, cap=MAX_RANDOM_POINTS)
    n = int(rng.integers(2, max_points + 1))
    if rng.integers(0, 2) == 0:
        return random_metric_space(rng, n)
    dim = int(rng.integers(1, 4))
    return random_euclidean_space(rng, n, dim)


def simplex_fractions(rng: np.random.Generator, k: int, den: int) -> list[int]:
    """Exact weights in the k-simplex with common denominator den, as their
    k integer numerators summing to den (zeros allowed)."""
    k = _integer(k, "k", "invariant.weights", 1)
    den = _integer(den, "den", "invariant.weights", 1)
    cuts = [0, *sorted(int(rng.integers(0, den + 1)) for _ in range(k - 1)), den]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def simplex_floats(rng: np.random.Generator, k: int) -> list[float]:
    """Strictly positive float weights summing to 1 (up to rounding)."""
    raw = rng.random(_integer(k, "k", "invariant.weights", 1)) + 1e-3
    return list(raw / raw.sum())


def _support(rng: np.random.Generator, space: FiniteMetricSpace, max_support: int) -> list[int]:
    max_support = _integer(max_support, "max_support", "invariant.measure", 1)
    k = int(rng.integers(1, min(max_support, space.n) + 1))
    return [int(i) for i in rng.choice(space.n, size=k, replace=False)]


def random_measure(rng: np.random.Generator, space: FiniteMetricSpace,
                   max_support: int = 4, exact: bool = True) -> DiscreteMeasure:
    """Random measure; exact rational weights (denominator 1..12) by default."""
    support = _support(rng, space, max_support)
    if exact:
        den = int(rng.integers(1, 13))
        return DiscreteMeasure(space, support, simplex_fractions(rng, len(support), den), den)
    return DiscreteMeasure(space, support, simplex_floats(rng, len(support)))


def random_rational_pair(rng: np.random.Generator, space: FiniteMetricSpace,
                         max_support: int = 4, den: int = 6):
    """Two measures sharing one exact common denominator (brute-force ready)."""
    out = []
    for _ in range(2):
        support = _support(rng, space, max_support)
        out.append(DiscreteMeasure(space, support, simplex_fractions(rng, len(support), den), den))
    return out[0], out[1]


def _entries(rng: np.random.Generator, space: FiniteMetricSpace, length: int) -> list[int]:
    length = _integer(length, "tuple length", "invariant.tuple", 1)
    return [int(rng.integers(0, space.n)) for _ in range(length)]


def random_tuple(rng: np.random.Generator, space: FiniteMetricSpace,
                 length: int) -> PointTuple:
    return PointTuple(space, _entries(rng, space, length))


def random_multiset(rng: np.random.Generator, space: FiniteMetricSpace,
                    length: int) -> MultiSet:
    return MultiSet(space, _entries(rng, space, length))


def random_nested_tuple(rng: np.random.Generator, space: FiniteMetricSpace,
                        outer: int, inner: int) -> NestedTuple:
    rows = range(_integer(outer, "outer size", "invariant.tuple", 1))
    return NestedTuple(space, [_entries(rng, space, inner) for _ in rows])


def random_nested_multiset(rng: np.random.Generator, space: FiniteMetricSpace,
                           outer: int, inner: int) -> NestedMultiSet:
    rows = range(_integer(outer, "outer size", "invariant.tuple", 1))
    return NestedMultiSet(space, [_entries(rng, space, inner) for _ in rows])


def random_finunif(rng: np.random.Generator, codomain_size: int,
                   fiber: int) -> FinUnifMap:
    """Uniform-fiber surjection with a shuffled domain."""
    codomain_size = _integer(codomain_size, "codomain size", "invariant.finunif", 1)
    values = np.repeat(np.arange(codomain_size), _integer(fiber, "fiber", "invariant.finunif", 1))
    return FinUnifMap([int(v) for v in rng.permutation(values)], codomain_size)
