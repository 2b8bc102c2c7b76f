"""Finitely supported probability measures over a finite metric space.

Weights are stored as floats, but constructors accept exact rationals
(``int``/``Fraction`` entries, or an explicit numerator/denominator block)
and keep the exact values alongside the floats. Each weighted operation has
one body for both kinds: exact with exact stays exact, which is what makes
the monad-law checks come out at literally zero, and exact with float is float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .spaces import FiniteMetricSpace, same_space
from .tolerances import TAU_WEIGHT


def _weights(values: Sequence, code: str, label: str, exact: bool = True,
             keys: Sequence | None = None, order=None):
    """The one exact-or-float weight check behind every weighted object.

    The weights stay exact (Fractions) when every entry is an int or a
    Fraction and ``exact`` is set; a caller clears ``exact`` when one of its
    inputs has already lost its exact weights. Entries must be finite and
    nonnegative and sum to 1 within TAU_WEIGHT, else ValidationError(code).
    Given ``keys``, the weights of equal keys are merged, zero weights are
    dropped and the keys are sorted by ``order``.

    Returns (keys, weights, fractions): the surviving keys as a tuple (None
    without ``keys``), the weights as a read-only float array, and the exact
    weights as a tuple, or None on the float path.
    """
    exact = exact and all(isinstance(w, (int, Fraction)) for w in values)
    vals = [(w if type(w) is Fraction else Fraction(w)) if exact else float(w) for w in values]
    for i, w in enumerate(vals):
        if not (exact or math.isfinite(w)):
            raise ValidationError(code, f"{label} {i} is not finite: {w!r}")
        if w < 0:
            raise ValidationError(code, f"{label} {i} is negative: {w!r}")
    # An exact sum stays exact (its float can overflow).
    add = sum if exact else math.fsum
    if keys is not None:
        groups: dict = {}
        for key, w in zip(keys, vals):
            groups.setdefault(key, []).append(w)
        keys, vals = [], []
        for key in sorted(groups, key=order):
            ws = groups[key]
            w = ws[0] if len(ws) == 1 else add(ws)
            if w != 0:
                keys.append(key)
                vals.append(w)
        keys = tuple(keys)
    # The != 1 test spares the usual case a slow Fraction-to-float comparison.
    total = add(vals)
    if total != 1 and abs(total - 1) > TAU_WEIGHT:
        raise ValidationError(code, f"{label}s sum to {total}, not 1")
    weights = np.array([float(w) for w in vals])
    weights.setflags(write=False)
    if not exact:
        return keys, weights, None
    # Equal weights share one Fraction: empirical measures repeat k/N often.
    shared: dict = {}
    return keys, weights, tuple(shared.setdefault(w.as_integer_ratio(), w) for w in vals)


def _exact_or_float(fractions, floats):
    """The weights to compute with: the exact ones if any, else the floats.
    Coefficients must be floats whenever any part is, so that every product
    is float(c) * float(w), never float(c * w)."""
    return floats if fractions is None else fractions


def _compose(coeffs: Sequence, parts: Sequence[tuple], code: str, label: str) -> list:
    """Convex composition: each part's weights times its coefficient, in order.

    ``parts`` are (fractions, floats) pairs. The coefficients stay exact only
    when every part is exact, so that each product is exact or
    float(c) * float(w); bad coefficients raise ValidationError(code).
    """
    _, floats, fractions = _weights(coeffs, code, label,
                                    exact=all(part[0] is not None for part in parts))
    return [c * w for c, part in zip(_exact_or_float(fractions, floats), parts)
            for w in _exact_or_float(*part)]


def _exact_weights(*measures: DiscreteMeasure) -> tuple[list[int], int]:
    """The measures' weights, in order, as integers over their least common
    denominator; a float weight is the binary fraction it stores."""
    ratios = [w.as_integer_ratio()
              for p in measures for w in _exact_or_float(p.fractions, p.weights)]
    den = math.lcm(*(d for _, d in ratios))
    return [num * (den // d) for num, d in ratios], den


class DiscreteMeasure:
    """A probability measure with finite support, in canonical form.

    Canonical form: support indices strictly increasing, weights positive,
    duplicates merged, zero weights dropped. ``fractions`` is either None
    (float path) or a tuple of exact weights aligned with ``support``.
    """

    __slots__ = ("space", "support", "weights", "fractions")

    def __init__(self, space: FiniteMetricSpace, support: Sequence[int], weights: Sequence):
        if len(support) != len(weights):
            raise ValidationError("invariant.measure", "support/weights length mismatch")
        if len(support) == 0:
            raise ValidationError("invariant.measure", "empty support")
        keys = [int(i) for i in support]
        for idx in sorted(keys):
            if not 0 <= idx < space.n:
                raise ValidationError("invariant.measure", f"support index {idx} outside space")
        self.space = space
        self.support, self.weights, self.fractions = _weights(
            weights, "invariant.measure", "weight", keys=keys)

    @classmethod
    def from_rational(cls, space: FiniteMetricSpace, support: Sequence[int],
                      numerators: Sequence[int], denominator: int) -> "DiscreteMeasure":
        if denominator <= 0:
            raise ValidationError("invariant.measure", "denominator must be positive")
        weights = [Fraction(int(k), int(denominator)) for k in numerators]
        return cls(space, support, weights)

    @property
    def denominator(self) -> int | None:
        """Common denominator of the exact weights, None on the float path."""
        if self.fractions is None:
            return None
        return _exact_weights(self)[1]

    def weight_of(self, index: int) -> float:
        try:
            return float(self.weights[self.support.index(index)])
        except ValueError:
            return 0.0

    def fraction_of(self, index: int) -> Fraction:
        if self.fractions is None:
            raise ValidationError("invariant.measure", "measure has no exact weights")
        try:
            return self.fractions[self.support.index(index)]
        except ValueError:
            return Fraction(0)

    def canonical_key(self):
        """Hashable identity used to deduplicate measures in nested rosters."""
        return (self.support, tuple(_exact_or_float(self.fractions, self.weights.tolist())))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{i}:{w:.4g}" for i, w in zip(self.support, self.weights))
        return f"DiscreteMeasure({{{pairs}}})"


def dirac(space: FiniteMetricSpace, x: int) -> DiscreteMeasure:
    """Point mass at roster index x."""
    return DiscreteMeasure(space, [x], [Fraction(1)])


def pushforward(f: Sequence[int] | Callable[[int], int], p: DiscreteMeasure,
                codomain: FiniteMetricSpace | None = None) -> DiscreteMeasure:
    """Image measure of p under an index map f: X -> Y.

    f is a full index array over X or a callable on indices; the codomain
    defaults to p's own space.
    """
    target = codomain if codomain is not None else p.space
    if callable(f):
        mapped = [int(f(i)) for i in p.support]
    else:
        arr = list(f)
        if len(arr) != p.space.n:
            raise ValidationError("invariant.map", f"index map must have length {p.space.n}")
        mapped = [int(arr[i]) for i in p.support]
    return DiscreteMeasure(target, mapped, _exact_or_float(p.fractions, p.weights))


def mixture(coeffs: Sequence, measures: Sequence[DiscreteMeasure]) -> DiscreteMeasure:
    """Convex combination sum_k coeffs[k] * measures[k] on a shared space."""
    if len(coeffs) != len(measures) or not measures:
        raise ValidationError("invariant.weights", "need one coefficient per measure")
    space = measures[0].space
    for m in measures[1:]:
        if not same_space(space, m.space):
            raise ValidationError("invariant.measure", "mixture components live on different spaces")
    weights = _compose(coeffs, [(m.fractions, m.weights) for m in measures],
                       "invariant.weights", "mixture coefficient")
    return DiscreteMeasure(space, [i for m in measures for i in m.support], weights)


def first_moment(p: DiscreteMeasure, x0: int) -> float:
    """Mean distance from x0 to p: sum_i w_i d(x0, x_i)."""
    if x0 < 0 or x0 >= p.space.n:
        raise ValidationError("invariant.measure", f"index {x0} outside space")
    return math.fsum(w * p.space.d(x0, i) for i, w in zip(p.support, p.weights))


def weight_discrepancy(p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Worst pointwise weight difference over the union of supports.

    Exact (and so exactly 0.0 for equal measures) when both measures carry
    exact weights.
    """
    if not same_space(p.space, q.space):
        return math.inf
    a = dict(zip(p.support, _exact_or_float(p.fractions, p.weights)))
    b = dict(zip(q.support, _exact_or_float(q.fractions, q.weights)))
    return float(max(abs(a.get(i, 0) - b.get(i, 0)) for i in a.keys() | b.keys()))


def measures_equal(p: DiscreteMeasure, q: DiscreteMeasure,
                   tau_weight: float = TAU_WEIGHT) -> bool:
    """Same support, weights agreeing pointwise within tau_weight."""
    return (same_space(p.space, q.space) and p.support == q.support
            and weight_discrepancy(p, q) <= tau_weight)
