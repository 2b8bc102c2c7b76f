"""Convex algebras over normed carriers, barycenters, and their laws.

The carrier is all of R^dim under an l1/l2/linf norm; the structure map of
a measure over registered carrier points is its barycenter. Binary convex
combinations follow the convention c_lambda(x, y) = lambda*x + (1-lambda)*y
(the weight rides on the first argument), which is the reading under which
the parametric associativity identity nu = lambda*(1-mu)/(1-lambda*mu)
holds; the unit laws are then c_1(x, y) = x and c_0(x, y) = y. Axiom checks
take a ``weight_on_first`` flag so the mirrored convention stays testable.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .measures import DiscreteMeasure, _compose, _fractions, _weights, dirac
from .monad import _nested_measure, expectation
from .samplers import (_random_measure, _simplex_fractions, distinct_points, rng_from,
                       simplex_floats, sweep)
from .spaces import NORMS, _integer, _norm, _real, _real_array, _roster, _unguarded, _worst
from .tolerances import MAX_ALGEBRA_DIM


class ConvexAlgebra:
    """R^dim with a named norm and barycentric structure."""

    __slots__ = ("dim", "norm")

    def __init__(self, dim: int, norm: str = "l2"):
        self.dim = _integer(dim, "dimension", "invariant.algebra", 1, cap=MAX_ALGEBRA_DIM)
        if norm not in NORMS:
            raise ValidationError("invariant.algebra", f"unknown norm {norm!r}")
        self.norm = norm

    def _points(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Two points of the carrier as finite float arrays of shape (dim,)."""
        x, y = [_real_array(v, "point", "invariant.algebra") for v in (x, y)]
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValidationError("invariant.algebra", "point dimension mismatch")
        return x, y

    def distance(self, x, y) -> float:
        return self._distance(*self._points(x, y))

    def _distance(self, x, y) -> float:
        return float(_norm(x - y, self.norm))

    def _combine(self, lam: float, x, y) -> np.ndarray:
        return lam * x + (1.0 - lam) * y

    def __repr__(self) -> str:
        return f"ConvexAlgebra(dim={self.dim}, norm={self.norm!r})"


class SimplexWeights:
    """A finite weight vector: nonnegative entries summing to 1.

    Exact entries (ints/Fractions, or integer numerators over ``den``) are
    kept exactly, as ``nums`` over ``den``, mirroring measures.
    """

    __slots__ = ("entries", "nums", "den")

    def __init__(self, entries: Sequence, den: int | None = None):
        _, floats, self.nums, self.den = _weights(entries, "invariant.weights", "weight", den=den)
        self.entries = tuple(floats.tolist())

    @property
    def fractions(self):
        """The exact entries as Fractions, None on the float path."""
        return _fractions(self.nums, self.den)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"SimplexWeights({list(self.entries)})"


def c_lambda(algebra: ConvexAlgebra, lam: float, x, y) -> np.ndarray:
    """Binary convex combination lam*x + (1-lam)*y."""
    lam = _real(lam, "lambda", "invariant.weights", 0.0, 1.0)
    return algebra._combine(lam, *algebra._points(x, y))


def barycenter(algebra: ConvexAlgebra, p: DiscreteMeasure) -> np.ndarray:
    """Structure map: sum_i w_i x_i for a measure over registered points.

    The measure's space must carry coordinates (come from a EuclideanSpace
    roster) of the algebra's dimension.
    """
    coords = p.space.coords
    if coords is None:
        raise ValidationError("invariant.algebra", "measure's space has no registered points")
    if coords.shape[1] != algebra.dim:
        raise ValidationError("invariant.algebra", "carrier dimension mismatch")
    pts = coords[list(p.support)]
    return pts.T @ p.weights


def mean_point(points: Sequence[np.ndarray]) -> np.ndarray:
    """Barycenter of a non-empty multiset of carrier points (uniform weights)."""
    points = _real_array(points, "points", "invariant.algebra")
    if points.ndim != 2 or len(points) == 0:
        raise ValidationError("invariant.algebra", "need a non-empty list of points")
    return _mean(points)


def _mean(points: np.ndarray) -> np.ndarray:
    """The mean of the rows of a non-empty float array."""
    return np.add.reduce(points, axis=0) / len(points)


def operad_compose(nu: SimplexWeights, parts: Sequence[SimplexWeights]) -> SimplexWeights:
    """Substitute the part vectors into nu: entries nu_i * part_i[j], in order."""
    if len(parts) != len(nu):
        raise ValidationError("invariant.weights", "need one part per outer entry")
    return SimplexWeights(*_compose(nu.nums or nu.entries, nu.den,
                                    [(part.nums, part.den, part.entries) for part in parts],
                                    "invariant.weights", "weight"))


# ---------------------------------------------------------------------------
# law checks, on their own finite draws through the unchecked _combine and _distance


def check_metric_compat(algebra: ConvexAlgebra, trials: int, seed: int = 0) -> dict[str, float]:
    """Binary compatibility d(c_lam(x,z), c_lam(y,z)) = lam*d(x,y) (equality
    on normed carriers) and the generalized inequality
    d(bary(lam, xs), bary(lam, ys)) <= sum_i lam_i d(x_i, y_i).

    Returns worst equality discrepancy and worst inequality violation.
    """

    def trial(rng) -> tuple[float, float]:
        x, y, z = rng.uniform(-8.0, 8.0, size=(3, algebra.dim))
        lam = float(rng.random())
        lhs = algebra._distance(algebra._combine(lam, x, z), algebra._combine(lam, y, z))
        n = int(rng.integers(1, 5))
        xs = rng.uniform(-8.0, 8.0, size=(n, algebra.dim))
        ys = rng.uniform(-8.0, 8.0, size=(n, algebra.dim))
        lams = np.array(simplex_floats(rng, n))
        left = algebra._distance(xs.T @ lams, ys.T @ lams)
        right = math.fsum(float(l) * algebra._distance(a, b)
                          for l, a, b in zip(lams, xs, ys))
        return abs(lhs - lam * algebra._distance(x, y)), left - right

    return sweep(trials, rng_from(seed, 201), ("binary_equality", "general_violation"), trial)


def convex_axioms(algebra: ConvexAlgebra, trials: int, seed: int = 0,
                  weight_on_first: bool = True) -> dict[str, float]:
    """Worst discrepancy for the four convex-space axioms under either
    convention for which argument carries the weight."""
    if type(weight_on_first) not in (bool, np.bool_):
        raise ValidationError("invariant.algebra",
                              f"weight_on_first {weight_on_first!r} is not a bool")

    def comb(lam: float, x, y):
        return algebra._combine(lam if weight_on_first else 1.0 - lam, x, y)

    def trial(rng) -> tuple[float, float, float, float]:
        x, y, z = rng.uniform(-8.0, 8.0, size=(3, algebra.dim))
        lam, mu = float(rng.random()), float(rng.random())
        # endpoints: comb(0, x, y) hands back y when the weight rides on the
        # first argument, x under the mirrored reading; comb(1, ..) flips
        at_zero, at_one = (y, x) if weight_on_first else (x, y)
        associativity = 0.0
        if lam * mu < 1.0:
            # weight on first:  comb(l, comb(m, x, y), z) = comb(lm, x, comb(n, y, z))
            # weight on second: the mirror image, with the same reparametrization
            nu = lam * (1.0 - mu) / (1.0 - lam * mu)
            if weight_on_first:
                lhs = comb(lam, comb(mu, x, y), z)
                rhs = comb(lam * mu, x, comb(nu, y, z))
            else:
                lhs = comb(lam, x, comb(mu, y, z))
                rhs = comb(lam * mu, comb(nu, x, y), z)
            associativity = algebra._distance(lhs, rhs)
        return (_worst(algebra._distance(comb(0.0, x, y), at_zero),
                       algebra._distance(comb(1.0, x, y), at_one)),
                algebra._distance(comb(lam, x, x), x),
                algebra._distance(comb(lam, x, y), comb(1.0 - lam, y, x)),
                associativity)

    return sweep(trials, rng_from(seed, 202),
                 ("unitality", "idempotency", "commutativity", "associativity"), trial)


def check_algebra_laws(algebra: ConvexAlgebra, trials: int, seed: int = 0) -> dict[str, float]:
    """Worst discrepancies for the algebra laws of the barycenter map.

    unit:            barycenter of a point mass is the point
    multiplication:  barycenter(expectation(mu)) = weighted barycenters
    power_triangle:  mean of a multiset = mean of its n-fold repetition
    power_square:    mean of block means = global mean (equal blocks)
    affine:          short affine maps commute with barycenters
    """

    def trial(rng) -> tuple[float, float, float, float, float]:
        k = int(rng.integers(2, 7))
        points = np.array(distinct_points(
            k, lambda: tuple(rng.uniform(-8.0, 8.0, size=algebra.dim).round(3).tolist())))
        space = _roster(points, algebra.norm)

        i = int(rng.integers(0, k))
        unit = algebra._distance(barycenter(algebra, dirac(space, i)), points[i])

        n_inner = int(rng.integers(1, 4))
        inner = [_random_measure(rng, space, k) for _ in range(n_inner)]
        den = int(rng.integers(1, 13))
        mu = _nested_measure(space, inner, _simplex_fractions(rng, n_inner, den), den)
        via_points = np.zeros(algebra.dim)
        for w, m in zip(mu.outer_weights, mu.inner):
            via_points += float(w) * barycenter(algebra, m)
        multiplication = algebra._distance(barycenter(algebra, expectation(mu)), via_points)

        m_size = int(rng.integers(1, 5))
        reps = int(rng.integers(1, 4))
        sample = points[[int(rng.integers(0, k)) for _ in range(m_size)]]
        repeated = np.concatenate([sample] * reps, axis=0)
        power_triangle = algebra._distance(_mean(sample), _mean(repeated))

        blocks = [[int(rng.integers(0, k)) for _ in range(m_size)]
                  for _ in range(int(rng.integers(1, 4)))]
        block_means = np.array([_mean(points[b]) for b in blocks])
        power_square = algebra._distance(_mean(block_means),
                                         _mean(points[np.concatenate(blocks)]))

        matrix, offset = _random_short_affine(rng, algebra)
        p = _random_measure(rng, space, k)
        image_measure = _unguarded(DiscreteMeasure)(
            space=_roster(points @ matrix.T + offset, algebra.norm), support=p.support,
            weights=p.weights, nums=p.nums, den=p.den)
        affine = algebra._distance(matrix @ barycenter(algebra, p) + offset,
                                   barycenter(algebra, image_measure))
        return unit, multiplication, power_triangle, power_square, affine

    return sweep(trials, rng_from(seed, 203), ("unit", "multiplication", "power_triangle",
                                               "power_square", "affine_naturality"), trial)


def _random_short_affine(rng: np.random.Generator,
                         algebra: ConvexAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """A random affine map rescaled to be distance-nonincreasing."""
    matrix = rng.uniform(-1.0, 1.0, size=(algebra.dim, algebra.dim))
    if algebra.norm == "l1":
        op = float(np.abs(matrix).sum(axis=0).max())
    elif algebra.norm == "linf":
        op = float(np.abs(matrix).sum(axis=1).max())
    else:
        op = _l2_norm_power_iteration(matrix)
    if op > 0:
        matrix = matrix / op * 0.95
    offset = rng.uniform(-3.0, 3.0, size=algebra.dim)
    return matrix, offset


def _l2_norm_power_iteration(matrix: np.ndarray) -> float:
    """Spectral norm estimate after 60 power steps; rescaling divides by it
    with a 0.95 margin because the estimate can run slightly low. Each step
    depends on the iterate alone, so step 60 is read off the first cycle."""
    gram = matrix.T @ matrix
    v = np.ones(matrix.shape[1]) / math.sqrt(matrix.shape[1])
    w = np.empty_like(v)  # gram @ v; each step writes both buffers in place
    seen = {v.tobytes(): 0}  # the iterates so far, in step order
    for step in range(1, 61):
        gram.dot(v, out=w)
        norm = math.sqrt(w.dot(w))
        if norm == 0.0:
            return 0.0
        np.divide(w, norm, out=v)
        start = seen.setdefault(v.tobytes(), step)
        if start < step:
            v = np.frombuffer(list(seen)[start + (60 - start) % (step - start)])
            break
    return math.sqrt(float(v @ gram @ v))
