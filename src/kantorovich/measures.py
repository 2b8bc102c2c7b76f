"""Finitely supported probability measures over a finite metric space.

Weights are stored as floats, but constructors accept exact rationals
(``int``/``Fraction`` entries, or integer numerators over a denominator)
and keep the exact values alongside the floats, as integer numerators over
one reduced denominator: a rational measure with denominator N is the
empirical law of an N-point sample. Each weighted operation has one body
for both kinds: exact with exact stays exact, which is what makes the
monad-law checks come out at literally zero, and exact with float is float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .spaces import FiniteMetricSpace, _integer, _real, _unguarded, same_space
from .tolerances import TAU_WEIGHT

# The float weights of a unit mass, shared: read-only, like every weight array.
_UNIT = np.ones(1)
_UNIT.setflags(write=False)


def _weights(values: Sequence, code: str, label: str, exact: bool = True,
             keys: Sequence | None = None, order=None, den: int | None = None):
    """The one exact-or-float weight check behind every weighted object. The weights
    stay exact when every entry is an int or a Fraction, or an integer numerator
    over a given ``den``, unless a caller whose inputs have lost their exact weights
    clears ``exact``. Entries must be finite and nonnegative, else
    ValidationError(code); they are returned as _canonical returns them."""
    if den is None:
        exact = exact and all(type(w) is int or isinstance(w, Fraction) for w in values)
        if exact:
            ratios = [w.as_integer_ratio() for w in values]
            den = math.lcm(*(d for _, d in ratios))
            values = [num * (den // d) for num, d in ratios]
    else:
        den = _integer(den, "denominator", code, 1)
        values = [_integer(num, "numerator", code) for num in values]
        if not exact:
            values = [Fraction(num, den) for num in values]  # num / den could overflow
    if not exact:
        values = [_real(w, f"{label} {i}", code, 0.0) for i, w in enumerate(values)]
    elif min(values, default=0) < 0:
        i, w = next((i, w) for i, w in enumerate(values) if w < 0)
        raise ValidationError(code, f"{label} {i} is negative: {Fraction(w, den)!r}")
    return _canonical(values, den if exact else None, keys, order, code, label)


def _canonical(values: list, den: int | None, keys: Sequence | None = None, order=None,
               code: str = "invariant.measure", label: str = "weight"):
    """Nonnegative weights, integer numerators over den or floats if den is None,
    that sum to 1 within TAU_WEIGHT (else ValidationError(code)), in canonical
    form: (keys, weights, nums, den), with ``keys`` merged, without zero weights
    and sorted by ``order`` (None without keys), read-only float weights, and the
    exact ones over a reduced den (None, None for floats), each float num / den."""
    add = math.fsum if den is None else sum
    if den is not None and len(values) == 1 and values[0] == den:
        # A unit mass, the commonest weight vector of all, is canonical as given.
        return (None if keys is None else (keys[0],)), _UNIT, (1,), 1
    if keys is not None:
        merged = dict(zip(keys, values))
        if len(merged) < len(values):
            groups: dict = {}
            for key, w in zip(keys, values):
                groups.setdefault(key, []).append(w)
            merged = {key: ws[0] if len(ws) == 1 else add(ws) for key, ws in groups.items()}
        keys = sorted(merged, key=order)
        if 0 in merged.values():
            keys = [key for key in keys if merged[key] != 0]
        keys, values = tuple(keys), [merged[key] for key in keys]
    total = add(values)
    if total != (1 if den is None else den):
        # An exact sum stays exact (its float can overflow).
        total = total if den is None else Fraction(total, den)
        if abs(total - 1) > TAU_WEIGHT:
            raise ValidationError(code, f"{label}s sum to {total}, not 1")
    if den is None:
        weights, nums = np.array(values), None
    else:
        g = math.gcd(den, *values)
        den, nums = den // g, tuple(values) if g == 1 else tuple([w // g for w in values])
        weights = np.array([w / den for w in nums])
    weights.setflags(write=False)
    return keys, weights, nums, den


def _measure(space: FiniteMetricSpace, support: Sequence[int], weights: Sequence,
             den: int | None = None) -> DiscreteMeasure:
    """A DiscreteMeasure from a support and weights the package made, past the public checks."""
    support, weights, nums, den = _canonical(weights, den, support)
    return _unguarded(DiscreteMeasure)(space=space, support=support, weights=weights,
                                       nums=nums, den=den)


def _comparable(a: tuple, b: tuple) -> tuple[list, list, int]:
    """Two weight vectors, (nums, den, floats) triples, as numbers whose
    differences are exact: integers over one scale when both are exact,
    else the floats over 1."""
    (nums_a, den_a, floats_a), (nums_b, den_b, floats_b) = a, b
    if den_a is None or den_b is None:
        return floats_a.tolist(), floats_b.tolist(), 1
    return [n * den_b for n in nums_a], [n * den_a for n in nums_b], den_a * den_b


def _fractions(nums, den) -> tuple[Fraction, ...] | None:
    """The exact weights as Fractions, None on the float path."""
    return None if den is None else tuple(Fraction(num, den) for num in nums)


def _compose(coeffs: Sequence, den: int | None, parts: Sequence[tuple],
             code: str, label: str) -> tuple[list, int | None]:
    """Convex composition: each part's weights times its coefficient, in order.

    ``coeffs`` are weights, or integer numerators over ``den``; ``parts``
    are (nums, den, floats) triples. The products stay exact, as integers
    over one denominator, only when every part is exact; otherwise each
    product is float(c) * float(w). Bad coefficients raise
    ValidationError(code). Returns the products and their denominator (None
    for floats), ready for a weighted constructor.
    """
    _, floats, nums, den = _weights(coeffs, code, label, den=den,
                                    exact=all(part[1] is not None for part in parts))
    if den is None:
        return [c * w for c, part in zip(floats.tolist(), parts) for w in part[2]], None
    lcm = math.lcm(*(part[1] for part in parts))
    return ([c * (lcm // part[1]) * w for c, part in zip(nums, parts) for w in part[0]],
            den * lcm)


def _exact_weights(*measures: DiscreteMeasure) -> tuple[list[int], int]:
    """The measures' weights, in order, as integers over their least common
    denominator; a float weight is the binary fraction it stores."""
    views = [_integers(p) for p in measures]
    den = math.lcm(*(d for _, d in views))
    return [num * (den // d) for nums, d in views for num in nums], den


def _integers(p: DiscreteMeasure) -> tuple[tuple[int, ...], int]:
    """p's weights as integers over one reduced denominator: the stored
    ones if exact, else the binary fractions of the floats."""
    if p.den is not None:
        return p.nums, p.den
    ratios = [w.as_integer_ratio() for w in p.weights.tolist()]
    den = max(d for _, d in ratios)  # the lcm of powers of two
    return tuple(num * (den // d) for num, d in ratios), den


class DiscreteMeasure:
    """A probability measure with finite support, in canonical form.

    Canonical form: support indices strictly increasing, weights positive,
    duplicates merged, zero weights dropped. ``nums`` and ``den`` are either
    None (float path) or the exact weights, aligned with ``support``, as
    integer numerators over one reduced denominator. Given ``den``, the
    constructor reads ``weights`` as integer numerators over it.
    """

    __slots__ = ("space", "support", "weights", "nums", "den")

    def __init__(self, space: FiniteMetricSpace, support: Sequence[int], weights: Sequence,
                 den: int | None = None):
        if len(support) != len(weights):
            raise ValidationError("invariant.measure", "support/weights length mismatch")
        if len(support) == 0:
            raise ValidationError("invariant.measure", "empty support")
        keys = [_integer(i, "support index", "invariant.measure") for i in support]
        if min(keys) < 0 or max(keys) >= space.n:
            bad = min(i for i in keys if not 0 <= i < space.n)
            raise ValidationError("invariant.measure", f"support index {bad} outside space")
        self.space = space
        self.support, self.weights, self.nums, self.den = _weights(
            weights, "invariant.measure", "weight", keys=keys, den=den)

    @classmethod
    def from_rational(cls, space: FiniteMetricSpace, support: Sequence[int],
                      numerators: Sequence[int], denominator: int) -> "DiscreteMeasure":
        return cls(space, support, numerators, denominator)

    @property
    def fractions(self) -> tuple[Fraction, ...] | None:
        """The exact weights as Fractions, None on the float path."""
        return _fractions(self.nums, self.den)

    @property
    def denominator(self) -> int | None:
        """Common denominator of the exact weights, None on the float path."""
        return self.den

    def weight_of(self, index: int) -> float:
        index = _integer(index, "point", "invariant.measure", 0, self.space.n - 1)
        try:
            return float(self.weights[self.support.index(index)])
        except ValueError:
            return 0.0

    def fraction_of(self, index: int) -> Fraction:
        if self.den is None:
            raise ValidationError("invariant.measure", "measure has no exact weights")
        index = _integer(index, "point", "invariant.measure", 0, self.space.n - 1)
        try:
            return Fraction(self.nums[self.support.index(index)], self.den)
        except ValueError:
            return Fraction(0)

    def canonical_key(self):
        """Hashable identity used to deduplicate measures in nested rosters:
        the support and the weights as integers over one denominator, so
        that equal weights give equal keys, exact or float."""
        return (self.support, *_integers(self))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{i}:{w:.4g}" for i, w in zip(self.support, self.weights))
        return f"DiscreteMeasure({{{pairs}}})"


def dirac(space: FiniteMetricSpace, x: int) -> DiscreteMeasure:
    """Point mass at roster index x."""
    x = _integer(x, "support index", "invariant.measure", 0, space.n - 1)
    return _measure(space, (x,), (1,), 1)


def pushforward(f: Sequence[int] | Callable[[int], int], p: DiscreteMeasure,
                codomain: FiniteMetricSpace | None = None) -> DiscreteMeasure:
    """Image measure of p under an index map f: X -> Y.

    f is a full index array over X or a callable on indices; the codomain
    defaults to p's own space.
    """
    target = codomain if codomain is not None else p.space
    if callable(f):
        mapped = [f(i) for i in p.support]
    else:
        arr = list(f)
        if len(arr) != p.space.n:
            raise ValidationError("invariant.map", f"index map must have length {p.space.n}")
        mapped = [arr[i] for i in p.support]
    return DiscreteMeasure(target, mapped, p.nums or p.weights, p.den)


def mixture(coeffs: Sequence, measures: Sequence[DiscreteMeasure],
            den: int | None = None) -> DiscreteMeasure:
    """Convex combination sum_k coeffs[k] * measures[k] on a shared space;
    given ``den``, the coefficients are integer numerators over it."""
    if len(coeffs) != len(measures) or not measures:
        raise ValidationError("invariant.weights", "need one coefficient per measure")
    space = measures[0].space
    for m in measures[1:]:
        if not same_space(space, m.space):
            raise ValidationError("invariant.measure", "mixture components live on different spaces")
    weights, den = _compose(coeffs, den, [(m.nums, m.den, m.weights) for m in measures],
                            "invariant.weights", "mixture coefficient")
    return _measure(space, [i for m in measures for i in m.support], weights, den)


def first_moment(p: DiscreteMeasure, x0: int) -> float:
    """Mean distance from x0 to p: sum_i w_i d(x0, x_i)."""
    x0 = _integer(x0, "index", "invariant.measure", 0, p.space.n - 1)
    return math.fsum(w * p.space.d(x0, i) for i, w in zip(p.support, p.weights))


def weight_discrepancy(p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Worst pointwise weight difference over the union of supports.

    Exact (and so exactly 0.0 for equal measures) when both measures carry
    exact weights.
    """
    if not same_space(p.space, q.space):
        return math.inf
    a, b, scale = _comparable((p.nums, p.den, p.weights), (q.nums, q.den, q.weights))
    a, b = dict(zip(p.support, a)), dict(zip(q.support, b))
    return max(abs(a.get(i, 0) - b.get(i, 0)) for i in a.keys() | b.keys()) / scale


def measures_equal(p: DiscreteMeasure, q: DiscreteMeasure,
                   tau_weight: float = TAU_WEIGHT) -> bool:
    """Same support, weights agreeing pointwise within tau_weight."""
    tau_weight = _real(tau_weight, "tolerance", "invariant.weights", 0.0, math.inf)
    return (same_space(p.space, q.space) and p.support == q.support
            and weight_discrepancy(p, q) <= tau_weight)
