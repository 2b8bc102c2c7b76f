"""Finite powers of a space: ordered tuples, multisets, and their metrics.

The tuple metric is the rescaled sum (1/n) sum_i d(a_i, b_i); the multiset
metric is its quotient under relabeling, computed as an optimal assignment.
A brute-force permutation scan is kept as an independent oracle.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ValidationError
from .spaces import FiniteMetricSpace, _integer, _unguarded, same_space
from .tolerances import MAX_ASSIGNMENT_SIZE, MAX_BRUTE_SIZE, MAX_SAMPLE_SIZE


def sample_size(size: int) -> int:
    """The entries of one sample or multiset, refused unless in 1..MAX_SAMPLE_SIZE."""
    return _integer(size, "sample size", "invariant.tuple", 1, cap=MAX_SAMPLE_SIZE)


def _check_entries(space: FiniteMetricSpace, entries: Sequence[int]) -> tuple[int, ...]:
    out = tuple(_integer(i, "entry", "invariant.tuple", 0, space.n - 1) for i in entries)
    if not out:
        raise ValidationError("invariant.tuple", "empty tuple")
    return out


class PointTuple:
    """An ordered finite sample of roster indices."""

    __slots__ = ("space", "entries")

    def __init__(self, space: FiniteMetricSpace, entries: Sequence[int]):
        self.space = space
        self.entries = _check_entries(space, entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"PointTuple({list(self.entries)})"


class MultiSet:
    """An unordered finite sample; entries are kept ascending (canonical form)."""

    __slots__ = ("space", "entries")

    def __init__(self, space: FiniteMetricSpace, entries: Sequence[int]):
        self.space = space
        self.entries = tuple(sorted(_check_entries(space, entries)))

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiSet) and same_space(self.space, other.space)
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"MultiSet({list(self.entries)})"


def _multiset(space: FiniteMetricSpace, entries: Sequence[int]) -> MultiSet:
    """A MultiSet of points of the space that the package made, past the public checks."""
    return _unguarded(MultiSet, space=space, entries=tuple(sorted(entries)))


def tuple_distance(a: PointTuple, b: PointTuple) -> float:
    """(1/n) sum_i d(a_i, b_i) for equal-length tuples on one space."""
    _require_compatible(a, b)
    n = len(a)
    return math.fsum(a.space.d(i, j) for i, j in zip(a.entries, b.entries)) / n


def multiset_distance(a: MultiSet, b: MultiSet) -> float:
    """min over relabelings sigma of (1/n) sum_i d(a_i, b_sigma(i)).

    Solved as an optimal assignment on the n x n cost matrix, n <= MAX_ASSIGNMENT_SIZE.
    """
    _require_compatible(a, b)
    n = _integer(len(a), "multiset size", "invariant.tuple", cap=MAX_ASSIGNMENT_SIZE)
    cost = a.space.dist[np.ix_(a.entries, b.entries)]
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / n


def multiset_distance_bruteforce(a: MultiSet, b: MultiSet) -> float:
    """Permutation-scan oracle for the multiset metric; n! work, n <= MAX_BRUTE_SIZE."""
    _require_compatible(a, b)
    n = _integer(len(a), "multiset size", "invariant.tuple", cap=MAX_BRUTE_SIZE)
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


def _require_compatible(a, b) -> None:
    if not same_space(a.space, b.space):
        raise ValidationError("invariant.tuple", "operands live on different spaces")
    if len(a) != len(b):
        raise ValidationError("invariant.tuple", f"length mismatch {len(a)} vs {len(b)}")


def quotient(t: PointTuple) -> MultiSet:
    """Forget the ordering of a tuple."""
    return _multiset(t.space, t.entries)


def repeat_embedding(ms: MultiSet, n: int) -> MultiSet:
    """n-fold repetition of every entry, n > 0; an isometric embedding of multisets."""
    n = _integer(n, "repetition count", "invariant.tuple")
    sample_size(len(ms) * n)
    return _multiset(ms.space, ms.entries * n)


class FinUnifMap:
    """A map of finite index sets whose fibers all have equal size.

    ``assignment[s]`` is the image of s; every fiber must contain exactly
    ``len(assignment) / codomain_size`` elements, which forces surjectivity.
    """

    __slots__ = ("assignment", "codomain_size")

    def __init__(self, assignment: Sequence[int], codomain_size: int):
        self.assignment = tuple(_integer(v, "map value", "invariant.finunif") for v in assignment)
        self.codomain_size = _integer(codomain_size, "codomain size", "invariant.finunif")
        if not validate_finunif(self.assignment, self.codomain_size):
            raise ValidationError("invariant.finunif", "fibers are not uniform")

    def __repr__(self) -> str:
        return f"FinUnifMap({list(self.assignment)} -> {self.codomain_size})"


def validate_finunif(assignment: Sequence[int], codomain_size: int | None = None) -> bool:
    """True iff the assignment is surjective with equal-sized fibers."""
    counts = Counter(_integer(v, "map value", "invariant.finunif") for v in assignment)
    size = max(counts, default=0) + 1 if codomain_size is None else \
        _integer(codomain_size, "codomain size", "invariant.finunif")
    return (len(counts) == size and sorted(counts) == list(range(size))
            and len(set(counts.values())) == 1)


def precompose(phi: FinUnifMap, t: PointTuple) -> PointTuple:
    """Reindex a tuple along phi: entry s of the result is t[phi(s)].

    For uniform-fiber phi this is an isometric embedding X^T -> X^S.
    """
    if phi.codomain_size != len(t):
        raise ValidationError("invariant.finunif",
                              f"map codomain {phi.codomain_size} != tuple length {len(t)}")
    return _unguarded(PointTuple, space=t.space,
                      entries=tuple(t.entries[v] for v in phi.assignment))
