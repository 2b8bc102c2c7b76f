"""Nested tuples and multisets, flattening maps, and their coherence checks.

Flattening an n-by-m nested tuple is row-major concatenation; flattening a
nested multiset is multiset union. Diagram checks return a numeric
discrepancy (0.0 on success) so failures stay diagnosable.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ValidationError
from .power import (MultiSet, PointTuple, _multiset, multiset_distance, quotient,
                    tuple_distance)
from .spaces import FiniteMetricSpace, _unguarded, _worst, same_space


class NestedTuple:
    """An n-by-m grid of roster indices: n outer rows, each an m-tuple."""

    __slots__ = ("space", "rows")

    def __init__(self, space: FiniteMetricSpace, rows: Sequence[Sequence[int]]):
        if not rows:
            raise ValidationError("invariant.tuple", "empty nesting")
        width = len(rows[0])
        grid = []
        for row in rows:
            if len(row) != width:
                raise ValidationError("invariant.tuple", "ragged nesting")
            grid.append(PointTuple(space, row).entries)
        self.space = space
        self.rows = tuple(grid)

    @property
    def outer(self) -> int:
        return len(self.rows)

    @property
    def inner(self) -> int:
        return len(self.rows[0])

    def __repr__(self) -> str:
        return f"NestedTuple({[list(r) for r in self.rows]})"


class NestedMultiSet:
    """A multiset of equal-size multisets, in canonical (sorted) form."""

    __slots__ = ("space", "inners")

    def __init__(self, space: FiniteMetricSpace, inners: Sequence[Sequence[int]]):
        if not inners:
            raise ValidationError("invariant.tuple", "empty nesting")
        sets = [MultiSet(space, inner) for inner in inners]
        width = len(sets[0])
        for s in sets:
            if len(s) != width:
                raise ValidationError("invariant.tuple", "ragged nesting")
        self.space = space
        self.inners = tuple(sorted(sets, key=lambda s: s.entries))

    @property
    def outer(self) -> int:
        return len(self.inners)

    @property
    def inner(self) -> int:
        return len(self.inners[0])

    def __eq__(self, other) -> bool:
        return (isinstance(other, NestedMultiSet) and same_space(self.space, other.space)
                and tuple(s.entries for s in self.inners)
                == tuple(s.entries for s in other.inners))

    def __hash__(self) -> int:
        return hash(tuple(s.entries for s in self.inners))

    def __repr__(self) -> str:
        return f"NestedMultiSet({[list(s.entries) for s in self.inners]})"


def curry_flatten(nt: NestedTuple) -> PointTuple:
    """(X^m)^n -> X^(m*n): row-major concatenation; an isometry."""
    return _unguarded(PointTuple, space=nt.space, entries=tuple(x for row in nt.rows for x in row))


def flatten_multiset(nms: NestedMultiSet) -> MultiSet:
    """(X_m)_n -> X_(m*n): union of the inner multisets."""
    return _multiset(nms.space, [x for s in nms.inners for x in s.entries])


def quotient_rows(nt: NestedTuple) -> NestedMultiSet:
    """Forget order inside each row, then the order of the rows."""
    return NestedMultiSet(nt.space, [row for row in nt.rows])


def nested_tuple_distance(a: NestedTuple, b: NestedTuple) -> float:
    """(1/n) sum of row tuple distances; equals the flattened distance."""
    if not same_space(a.space, b.space) or a.outer != b.outer or a.inner != b.inner:
        raise ValidationError("invariant.tuple", "shape mismatch")
    total = 0.0
    for ra, rb in zip(a.rows, b.rows):
        total += tuple_distance(PointTuple(a.space, ra), PointTuple(b.space, rb))
    return total / a.outer


# ---------------------------------------------------------------------------
# coherence checks (0.0 on success, metric distance of the two sides else)


# The nesting, flattening and distance of tuples (False) and multisets (True).
_KINDS = {False: (NestedTuple, curry_flatten, tuple_distance),
          True: (NestedMultiSet, flatten_multiset, multiset_distance)}


def _discrepancy(a, b, distance) -> float:
    """0.0 when two samples agree entry for entry, else their distance."""
    return 0.0 if a.entries == b.entries else distance(a, b)


def _unit_discrepancy(sample, symmetrized: bool) -> float:
    """Embed a sample as a single row and as a column of singletons; both
    flatten back to the original sample."""
    nest, flatten, distance = _KINDS[symmetrized]
    return _worst(*(_discrepancy(sample, flatten(nest(sample.space, rows)), distance)
                    for rows in ([sample.entries], [[x] for x in sample.entries])))


def unit_discrepancy_tuple(t: PointTuple) -> float:
    """Unit triangles of tuples."""
    return _unit_discrepancy(t, symmetrized=False)


def unit_discrepancy_multiset(ms: MultiSet) -> float:
    """Multiset version of the unit triangles."""
    return _unit_discrepancy(ms, symmetrized=True)


def check_assoc_square(space: FiniteMetricSpace, grid3: Sequence[Sequence[Sequence[int]]],
                       symmetrized: bool = False) -> float:
    """Flatten a 3-deep nesting inner-first and outer-first; the results must
    coincide. ``grid3`` is an n-outer list of m-middle lists of l-inner index
    lists (rectangular)."""
    nest, flatten, distance = _KINDS[symmetrized]
    inner_first = flatten(nest(space, [flatten(nest(space, block)).entries for block in grid3]))
    outer_first = flatten(nest(space, [row for block in grid3 for row in block]))
    return _discrepancy(inner_first, outer_first, distance)


def check_double_quotient(nt: NestedTuple) -> float:
    """Quotient rows then flatten, against flatten then quotient."""
    via_rows = flatten_multiset(quotient_rows(nt))
    return _discrepancy(via_rows, quotient(curry_flatten(nt)), multiset_distance)
