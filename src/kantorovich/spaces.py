"""Finite metric spaces: distance tables, normed rosters, and products.

A space is an immutable square table of distances. Euclidean rosters carry
their coordinates alongside the induced table so that barycentric code can
read points back off the space.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .tolerances import MAX_TABLE_ENTRIES, TAU_METRIC, TAU_WEIGHT

NORMS = ("l1", "l2", "linf")
_LARGEST = float(np.finfo(float).max)


class FiniteMetricSpace:
    """A finite (pseudo)metric space given by its distance table.

    The constructor checks shape and entries only; axiom checking is the
    job of :func:`validate_metric` so that defective tables can still be
    built, inspected, and reported on.
    """

    __slots__ = ("dist", "pseudometric_ok", "coords")

    def __init__(self, dist, pseudometric_ok: bool = False, coords=None):
        table = _real_array(dist, "distance table", "invariant.space")
        if table.ndim != 2 or table.shape[0] != table.shape[1] or table.size == 0:
            raise ValidationError("invariant.space", "distance table must be non-empty and square")
        table.setflags(write=False)
        self.dist = table
        self.pseudometric_ok = bool(pseudometric_ok)
        if coords is not None:
            coords = _real_array(coords, "coords", "invariant.space")
            if coords.ndim != 2 or len(coords) != len(table):
                raise ValidationError("invariant.space", "coords/table size mismatch")
            coords.setflags(write=False)
        self.coords = coords

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def d(self, i: int, j: int) -> float:
        return float(self.dist[i, j])

    def __repr__(self) -> str:
        kind = "pseudometric" if self.pseudometric_ok else "metric"
        return f"FiniteMetricSpace(n={self.n}, {kind})"


def same_space(a: FiniteMetricSpace, b: FiniteMetricSpace) -> bool:
    """Whether two space values denote the same carrier and table."""
    return a is b or (a.n == b.n and np.array_equal(a.dist, b.dist))


def vector_distance(u, v, norm: str) -> float:
    """Distance between two coordinate vectors under a named norm."""
    if norm not in NORMS:
        raise ValidationError("invariant.space", f"unknown norm {norm!r}")
    u, v = (_real_array(w, "vector", "invariant.space") for w in (u, v))
    if u.shape != v.shape:
        raise ValidationError("invariant.space",
                              f"vectors of different shapes {u.shape} and {v.shape}")
    return float(_norm(u - v, norm))


def _norm(diff: np.ndarray, norm: str):
    """The named norm of ``diff`` over its last axis; 0 on an empty axis."""
    if norm == "l1":
        return np.add.reduce(np.abs(diff), axis=-1)
    if norm == "l2":
        return np.sqrt(np.add.reduce(diff * diff, axis=-1))
    return np.maximum.reduce(np.abs(diff), axis=-1, initial=0.0)


class EuclideanSpace:
    """A finite roster of points in R^dim under an l1/l2/linf norm."""

    __slots__ = ("points", "norm")

    def __init__(self, points, norm: str = "l2"):
        pts = _real_array(points, "roster", "invariant.space")
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValidationError("invariant.space", "roster must be a non-empty 2d array")
        if norm not in NORMS:
            raise ValidationError("invariant.space", f"unknown norm {norm!r}")
        pts.setflags(write=False)
        self.points = pts
        self.norm = norm

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def to_metric(self) -> FiniteMetricSpace:
        """Induced distance table, with coordinates attached."""
        return _roster(self.points, self.norm)

    def __repr__(self) -> str:
        return f"EuclideanSpace(n={self.n}, dim={self.dim}, norm={self.norm!r})"


@dataclass(frozen=True)
class MetricViolation:
    """Worst offender for one violated metric axiom."""

    axiom: str
    where: tuple[int, ...]
    amount: float


def validate_metric(space: FiniteMetricSpace, tau_metric: float = TAU_METRIC) -> list[MetricViolation]:
    """Check the (pseudo)metric axioms on a distance table.

    Returns one entry per violated axiom, each carrying the worst offending
    index pair or triple. An empty list means the table is a pseudometric
    within ``tau_metric``; positivity is only demanded of spaces that do not
    declare ``pseudometric_ok``.
    """
    tau_metric = _real(tau_metric, "tolerance", "invariant.space", 0.0, math.inf)
    table = space.dist
    n = space.n
    out: list[MetricViolation] = []

    neg = np.min(table)
    if neg < -tau_metric:
        i, j = np.unravel_index(int(np.argmin(table)), table.shape)
        out.append(MetricViolation("nonnegativity", (int(i), int(j)), float(-neg)))

    diag = np.abs(np.diag(table))
    if np.max(diag) > tau_metric:
        i = int(np.argmax(diag))
        out.append(MetricViolation("reflexivity", (i, i), float(np.max(diag))))

    asym = np.abs(table - table.T)
    if np.max(asym) > tau_metric:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        out.append(MetricViolation("symmetry", (int(i), int(j)), float(np.max(asym))))

    worst_tri = 0.0
    worst_at = (0, 0, 0)
    slack = np.empty_like(table)  # d(i, j) - d(i, k) - d(k, j), one k at a time
    for k in range(n):
        np.add(table[:, k:k + 1], table[k:k + 1, :], out=slack)
        np.subtract(table, slack, out=slack)
        m = float(slack.max())
        if m > worst_tri:
            i, j = np.unravel_index(int(slack.argmax()), slack.shape)
            worst_tri = m
            worst_at = (int(i), int(k), int(j))
    if worst_tri > tau_metric:
        out.append(MetricViolation("triangle", worst_at, worst_tri))

    if not space.pseudometric_ok:
        off = table + np.where(np.eye(n, dtype=bool), np.inf, 0.0)
        small = float(np.min(off))
        if small <= tau_metric and n > 1:
            i, j = np.unravel_index(int(np.argmin(off)), off.shape)
            out.append(MetricViolation("positivity", (int(i), int(j)), small))

    return out


def _integer(value, what: str, code: str, low: int | None = None, high: int | None = None,
             cap: int | None = None) -> int:
    """An index, count or size as an int: ValidationError(code) unless an integer (not 2.0
    or True) in low..high, high being a space's last point; invariant.size_cap above cap."""
    try:
        value = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValidationError(code, f"{what} {value!r} is not an integer") from None
    if high is not None and not low <= value <= high:
        raise ValidationError(code, f"{what} {value} outside space")
    if low is not None and value < low:
        raise ValidationError(code, f"{what} must be positive" if low == 1
                              else f"{what} {value} is below {low}")
    if cap is not None and value > cap:
        raise ValidationError("invariant.size_cap", f"{what} {value} exceeds cap {cap}")
    return value


def _real(value, what: str, code: str, low: float = -_LARGEST, high: float = _LARGEST) -> float:
    """A real number as a float: ValidationError(code) unless a number (not True or "1")
    in [low, high], the finite floats by default; NaN never is, nor an int beyond the floats."""
    if type(value) is not float and (type(value) is bool or not isinstance(value, numbers.Real)):
        raise ValidationError(code, f"{what} {value!r} is not a number")
    try:
        value = float(value)
    except OverflowError:  # such as 10**400, whose repr can be too long to print
        raise ValidationError(code, f"{what} is an integer too large for a float") from None
    if not low <= value <= high:
        raise ValidationError(code, f"{what} {value!r} outside [{low:g}, {high:g}]")
    return value


def _real_array(values, what: str, code: str, finite: bool = True) -> np.ndarray:
    """A table or carrier point as a new float array: ValidationError(code) unless rectangular
    with real entries, all at most 2**500 in magnitude unless ``finite`` is False (a coupling's
    masses, which ``validate_coupling`` reports on). Entries of an array of objects go through
    _real, which never takes NaN."""
    try:
        arr = np.array(values)
    except ValueError:  # a ragged nesting
        raise ValidationError(code, f"{what} is not a rectangular array") from None
    if arr.dtype.kind in "iuf" and not isinstance(values, np.ndarray):  # [0, True] reads as ints
        entries = np.array(values, dtype=object)
        arr = entries if {bool, np.bool_} & set(map(type, entries.flat)) else arr
    # At most 2**500: sums of up to 2**20 such distances, and squares of differences of such
    # coordinates, stay finite.
    bound = 2.0**500 if finite else math.inf
    if arr.dtype.kind not in "iuf":  # True, "1", 10**400, Fractions: one by one through _real
        arr = np.array([_real(v, f"{what} entry", code, -bound, bound)
                        for v in arr.flat]).reshape(arr.shape)
    arr = arr.astype(float, copy=False)
    if finite and not (np.abs(arr) <= bound).all():  # NaN fails it too
        raise ValidationError(code, f"{what} has non-finite entries or entries above 2**500")
    return arr


def _unguarded(cls, **fields):
    """A ``cls`` with fields the package made in canonical form, past its public guards."""
    made = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(made, name, value)
    return made


def _roster(points: np.ndarray, norm: str) -> FiniteMetricSpace:
    """The metric space of a new float roster that the package made, past the public
    checks; the roster becomes its coordinates and is made read-only in place."""
    points.setflags(write=False)
    dist = _norm(points[:, None, :] - points[None, :, :], norm)
    dist.setflags(write=False)
    return _unguarded(FiniteMetricSpace, dist=dist, pseudometric_ok=False, coords=points)


def _worst(*values: float) -> float:
    """The largest of ``values``, the first of equals; a NaN, unordered, gets in and stays."""
    worst = values[0]
    for value in values[1:]:
        if not value <= worst and worst == worst:
            worst = value
    return worst


def _check_table_cap(n_points: int) -> None:
    if n_points * n_points > MAX_TABLE_ENTRIES:
        raise ValidationError(
            "invariant.size_cap",
            f"a space of {n_points} points needs {n_points * n_points} table entries"
            f" (cap {MAX_TABLE_ENTRIES})",
        )


def tensor_product(x: FiniteMetricSpace, y: FiniteMetricSpace) -> FiniteMetricSpace:
    """Product carrier with additive distances d((a,b),(a',b')) = d(a,a') + d(b,b').

    Carrier indices are row-major pairs: (i, j) lives at i*|Y| + j.
    """
    n = x.n * y.n
    _check_table_cap(n)
    table = (x.dist[:, None, :, None] + y.dist[None, :, None, :]).reshape(n, n)
    return FiniteMetricSpace(table, pseudometric_ok=x.pseudometric_ok or y.pseudometric_ok)


def convex_combination_space(lam: Sequence[float],
                             spaces: Sequence[FiniteMetricSpace]) -> FiniteMetricSpace:
    """Weighted product space: d(x, y) = sum_i lam_i * d_i(x_i, y_i).

    Carrier indices are row-major over the factor carriers (numpy order).
    A zero weight erases the corresponding factor from the distance, so the
    result is flagged as a pseudometric in that case.
    """
    weights = [_real(w, "weight", "invariant.weights", 0.0) for w in lam]
    if len(weights) != len(spaces) or not spaces:
        raise ValidationError("invariant.weights", "need one weight per factor space")
    if abs(sum(weights) - 1.0) > TAU_WEIGHT:
        raise ValidationError("invariant.weights", "weights must sum to 1")

    sizes = [s.n for s in spaces]
    n = math.prod(sizes)
    _check_table_cap(n)

    table = np.zeros((n, n))
    grids = np.unravel_index(np.arange(n), sizes)
    for w, space, g in zip(weights, spaces, grids):
        if w == 0.0:
            continue
        table += w * space.dist[np.ix_(g, g)]

    pseudo = any(w == 0.0 for w in weights) or any(s.pseudometric_ok for s in spaces)
    return FiniteMetricSpace(table, pseudometric_ok=pseudo)


def product_index(sizes: Sequence[int], multi_index: Sequence[int]) -> int:
    """Row-major flat index of a multi-index, matching the product carriers."""
    index = tuple(_integer(i, "multi-index entry", "invariant.map") for i in multi_index)
    shape = tuple(_integer(n, "size", "invariant.map") for n in sizes)
    if len(index) != len(shape) or not all(0 <= i < n for i, n in zip(index, shape)):
        raise ValidationError("invariant.map", f"multi-index {index} outside shape {shape}")
    return sum(i * math.prod(shape[k + 1:]) for k, i in enumerate(index))  # exact in Python ints


def check_short(f: Sequence[int], x: FiniteMetricSpace, y: FiniteMetricSpace,
                tau_metric: float = TAU_METRIC) -> bool:
    """Whether the index map f: X -> Y is distance-nonincreasing."""
    image, tau_metric = _image(f, x, y, tau_metric)
    return bool(np.max(image - x.dist) <= tau_metric)


def check_isometric(f: Sequence[int], x: FiniteMetricSpace, y: FiniteMetricSpace,
                    tau_metric: float = TAU_METRIC) -> bool:
    """Whether the index map f: X -> Y preserves distances exactly (within tau)."""
    image, tau_metric = _image(f, x, y, tau_metric)
    return bool(np.max(np.abs(image - x.dist)) <= tau_metric)


def _image(f, x: FiniteMetricSpace, y: FiniteMetricSpace, tau_metric) -> tuple[np.ndarray, float]:
    idx = np.array([_integer(v, "map value", "invariant.map", 0, y.n - 1) for v in f], dtype=int)
    if idx.shape != (x.n,):
        raise ValidationError("invariant.map", f"index map must have length {x.n}")
    return y.dist[np.ix_(idx, idx)], _real(tau_metric, "tolerance", "invariant.map", 0.0, math.inf)
