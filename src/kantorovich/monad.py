"""The probability monad at finite scale.

Unit: point masses. Multiplication: expected distribution of a measure on
measures. Empirical maps send tuples/multisets to uniform measures, and the
squares tying all of these together are checked here with numeric
discrepancies (exactly 0.0 on the rational path).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Sequence

from .errors import ValidationError
from .graded import NestedMultiSet, flatten_multiset
from .measures import (DiscreteMeasure, _comparable, _compose, _exact_or_float, _fractions,
                       _measure, _weights, dirac, mixture, weight_discrepancy)
from .power import MultiSet, PointTuple, multiset_distance, sample_size
from .samplers import (random_measure, random_space, rng_from, simplex_floats, simplex_fractions,
                       sweep)
from .spaces import FiniteMetricSpace, _unguarded, _worst, same_space
from .transport import w1_flow


class NestedMeasure:
    """A measure over measures: an outer weight vector on a deduplicated,
    canonically ordered roster of inner measures. The exact outer weights
    are ``outer_nums`` over ``outer_den``, both None on the float path;
    given ``den``, the constructor reads ``outer_weights`` as integer
    numerators over it."""

    __slots__ = ("space", "inner", "outer_weights", "outer_nums", "outer_den")

    def __init__(self, space: FiniteMetricSpace, inner: Sequence[DiscreteMeasure],
                 outer_weights: Sequence, den: int | None = None):
        if len(inner) != len(outer_weights) or not inner:
            raise ValidationError("invariant.measure", "need one outer weight per inner measure")
        for m in inner:
            if not same_space(space, m.space):
                raise ValidationError("invariant.measure", "inner measure on a different space")
        keys = [m.canonical_key() for m in inner]
        first: dict = {}
        for key, m in zip(keys, inner):
            first.setdefault(key, m)
        keys, self.outer_weights, self.outer_nums, self.outer_den = _weights(
            outer_weights, "invariant.measure", "outer weight", den=den,
            exact=all(m.den is not None for m in inner), keys=keys, order=_roster_order)
        self.space = space
        self.inner = tuple(first[key] for key in keys)

    @property
    def outer_fractions(self):
        """The exact outer weights as Fractions, None on the float path."""
        return _fractions(self.outer_nums, self.outer_den)

    def __len__(self) -> int:
        return len(self.inner)

    def __repr__(self) -> str:
        return f"NestedMeasure(outer={len(self.inner)})"


def _roster_order(key) -> tuple:
    support, nums, den = key
    return (support, tuple(num / den for num in nums))


def nested_weight_discrepancy(a: NestedMeasure, b: NestedMeasure) -> float:
    """Worst weight difference between two nested measures with matching
    rosters; infinity when the rosters differ as sets."""
    if len(a) != len(b):
        return math.inf
    wa, wb, scale = _comparable((a.outer_nums, a.outer_den, a.outer_weights),
                                (b.outer_nums, b.outer_den, b.outer_weights))
    worst = 0.0
    for ma, mb, na, nb in zip(a.inner, b.inner, wa, wb):
        if ma.support != mb.support:
            return math.inf
        worst = _worst(worst, weight_discrepancy(ma, mb), abs(na - nb) / scale)
    return worst


# ---------------------------------------------------------------------------
# unit, empirical maps, expectation


def empirical(t: PointTuple) -> DiscreteMeasure:
    """Uniform measure of an ordered sample; weights are exact k/n."""
    counts = Counter(t.entries)
    return _measure(t.space, list(counts), list(counts.values()), len(t))


def empirical_sym(ms: MultiSet) -> DiscreteMeasure:
    """Uniform measure of a multiset; the order-free empirical map."""
    return empirical(_unguarded(PointTuple, space=ms.space, entries=ms.entries))


def multiset_from_measure(p: DiscreteMeasure, size: int | None = None) -> MultiSet:
    """Constructive witness that rational measures are empirical: a multiset
    whose empirical distribution is exactly p.

    ``size`` defaults to p's common denominator and must be a multiple of it.
    """
    if p.den is None:
        raise ValidationError("invariant.measure", "measure has no exact weights")
    den = p.den
    n = sample_size(den if size is None else size)
    if n % den != 0:
        raise ValidationError("invariant.measure", f"size {n} is not a multiple of {den}")
    return MultiSet(p.space, [x for x, k in zip(p.support, p.nums) for _ in range(k * (n // den))])


def nested_dirac(p: DiscreteMeasure) -> NestedMeasure:
    """Point mass at a measure (the unit one level up)."""
    return NestedMeasure(p.space, [p], [1], 1)


def dirac_kernel(space: FiniteMetricSpace) -> Callable[[int], DiscreteMeasure]:
    """The kernel x -> delta_x."""
    return lambda i: dirac(space, i)


def kernel_pushforward(kernel: Callable[[int], DiscreteMeasure],
                       p: DiscreteMeasure) -> NestedMeasure:
    """Push p forward along a kernel from points to measures."""
    return NestedMeasure(p.space, [kernel(x) for x in p.support],
                         *_exact_or_float(p.nums, p.den, p.weights))


def expectation(mu: NestedMeasure) -> DiscreteMeasure:
    """Expected distribution: mix the inner measures by the outer weights."""
    coeffs, den = _exact_or_float(mu.outer_nums, mu.outer_den, mu.outer_weights)
    return mixture(coeffs, mu.inner, den)


def nested_expectation_outer(outer_coeffs: Sequence, nested: Sequence[NestedMeasure],
                             den: int | None = None) -> NestedMeasure:
    """Flatten the two outermost layers of a depth-3 measure, leaving the
    innermost layer untouched; given ``den``, the coefficients are integer
    numerators over it."""
    if len(outer_coeffs) != len(nested) or not nested:
        raise ValidationError("invariant.measure", "need one coefficient per nested measure")
    weights, den = _compose(outer_coeffs, den,
                            [(nu.outer_nums, nu.outer_den, nu.outer_weights) for nu in nested],
                            "invariant.measure", "outer coefficient")
    return NestedMeasure(nested[0].space, [m for nu in nested for m in nu.inner], weights, den)


# ---------------------------------------------------------------------------
# commuting squares


def bistochastic_min(a: MultiSet, b: MultiSet) -> float:
    """Relaxed (bistochastic) value of the multiset metric.

    Equals the flow distance between the two uniform empirical measures;
    by Birkhoff-von Neumann it coincides with the assignment optimum.
    """
    return w1_flow(empirical_sym(a), empirical_sym(b)).cost


def check_iota_isometry(a: MultiSet, b: MultiSet) -> float:
    """|W1(empirical a, empirical b) - multiset distance|.

    The two sides are computed by independent solvers (flow vs assignment).
    """
    return abs(bistochastic_min(a, b) - multiset_distance(a, b))


def check_expectation_flatten(nms: NestedMultiSet) -> float:
    """Empirical-then-expectation against flatten-then-empirical.

    Exact 0.0: both sides have weights with denominator outer*inner.
    """
    via_measures = expectation(_ppx_image(nms))
    via_flatten = empirical_sym(flatten_multiset(nms))
    return weight_discrepancy(via_measures, via_flatten)


def _ppx_image(nms: NestedMultiSet) -> NestedMeasure:
    """Empirical measure on empirical measures of the inner multisets."""
    n = nms.outer
    inner = [empirical_sym(s) for s in nms.inners]
    return NestedMeasure(nms.space, inner, [1] * n, n)


def check_ppx_square(nms: NestedMultiSet) -> bool:
    """Both factorizations of multisets-of-multisets into nested measures
    must produce the same nested measure.

    Down-right: empirical over the inner multisets as points, then empirical
    on each point. Right-down: empirical on each inner multiset, then
    empirical over the resulting measures.
    """
    right_down = _ppx_image(nms)

    counts = Counter(nms.inners)
    n = nms.outer
    down_right = NestedMeasure(
        nms.space,
        [empirical_sym(s) for s in counts],
        list(counts.values()), n,
    )
    return nested_weight_discrepancy(right_down, down_right) == 0.0


# ---------------------------------------------------------------------------
# monad laws


def check_monad_laws(trials: int, seed: int = 0, max_points: int = 6,
                     max_support: int = 4, exact: bool = True) -> dict[str, float]:
    """Worst observed discrepancy for the three monad laws.

    Each trial draws a fresh space with ``random_space`` and measures on it
    with ``random_measure``; with exact weights every discrepancy is 0.0.
    """

    def coeffs(rng, k: int) -> tuple[list, int | None]:
        return (simplex_fractions(rng, k, 16), 16) if exact else (simplex_floats(rng, k), None)

    def trial(rng) -> tuple[float, float, float]:
        space = random_space(rng, max_points)
        p = random_measure(rng, space, max_support, exact)
        nested = []
        for _i in range(int(rng.integers(1, 4))):
            js = int(rng.integers(1, 4))
            inner = [random_measure(rng, space, max_support, exact) for _j in range(js)]
            nested.append(NestedMeasure(space, inner, *coeffs(rng, js)))
        outer, den = coeffs(rng, len(nested))
        inner_first = expectation(NestedMeasure(space, [expectation(nu) for nu in nested],
                                                outer, den))
        outer_first = expectation(nested_expectation_outer(outer, nested, den))
        return (weight_discrepancy(expectation(nested_dirac(p)), p),
                weight_discrepancy(expectation(kernel_pushforward(dirac_kernel(space), p)), p),
                weight_discrepancy(inner_first, outer_first))

    return sweep(trials, rng_from(seed), ("left_unit", "right_unit", "associativity"), trial)
