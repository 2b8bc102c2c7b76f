"""Constructive approximation of measures by empirical distributions.

Weight rationalization and ball truncation mirror the two steps of the
density argument for empirical measures; each returns a report carrying the
achieved transport error and, for rationalization, the a-priori bound
(n-1) * epsilon * diam(supp p). Sampling is inverse-CDF over the canonical
support order with a named, seeded generator.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .measures import DiscreteMeasure, _exact_weights
from .monad import empirical_sym
from .power import MultiSet, sample_size
from .samplers import rng_from
from .spaces import _integer, _real
from .tolerances import MAX_SAMPLE_SIZE, MAX_TRIALS
from .transport import w1_flow, wasserstein1

@dataclass(frozen=True)
class ApproximationReport:
    target: DiscreteMeasure
    approximant: DiscreteMeasure
    w1_error: float
    bound: float | None
    params: dict


def rationalize(p: DiscreteMeasure, epsilon: float) -> ApproximationReport:
    """Round weights down to multiples of 1/K, K = ceil(1/epsilon) for epsilon
    in (0, 1], and give the slack to the last support point.

    Each rounded weight loses less than epsilon, so the transport error is
    below (n-1) * epsilon * diam(supp p); the whole construction runs in
    exact arithmetic, hence weights that are already multiples of 1/K come
    back unchanged with error exactly 0.
    """
    epsilon = _real(epsilon, "epsilon", "invariant.weights", math.ulp(0.0), 1.0)
    eps = Fraction(epsilon)
    k = max(1, math.ceil(1 / eps))
    nums, den = _exact_weights(p)

    rounded = [num * k // den for num in nums[:-1]]
    rounded.append(k - sum(rounded))
    q = DiscreteMeasure(p.space, p.support, rounded, k)

    n = len(p.support)
    diam = float(np.max(p.space.dist[np.ix_(p.support, p.support)], initial=0.0))
    bound = Fraction(n - 1) * eps * Fraction(diam)
    error = 0.0 if n == 1 else w1_flow(p, q).cost
    return ApproximationReport(
        target=p, approximant=q, w1_error=error, bound=float(bound),
        params={"epsilon": epsilon, "denominator": k})


def truncate_to_ball(p: DiscreteMeasure, center: int, radius: float) -> ApproximationReport:
    """Move all mass strictly outside the closed ball B(center, radius) onto
    the center.

    The transport error of this move is exactly the outside first moment
    sum_{d(x_i, center) > radius} w_i d(x_i, center); the report carries that
    closed form as ``bound`` and the flow-solver value as ``w1_error`` so the
    two derivations stay cross-checkable.
    """
    center = _integer(center, "center", "invariant.measure", 0, p.space.n - 1)
    radius = _real(radius, "radius", "invariant.measure", 0.0, math.inf)
    nums, den = _exact_weights(p)
    support: list[int] = []
    vals: list[int] = []  # the kept weights, times den
    moved = 0  # the outside mass, and its first moment about the center, times den
    formula = Fraction(0)
    for x, num in zip(p.support, nums):
        if p.space.d(center, x) > radius:
            moved += num
            formula += num * Fraction(p.space.d(center, x))
        else:
            support.append(x)
            vals.append(num)
    if moved > 0:
        support.append(center)
        vals.append(moved)
    q = DiscreteMeasure(p.space, support, vals, den)
    error = w1_flow(p, q).cost if moved > 0 else 0.0
    return ApproximationReport(
        target=p, approximant=q, w1_error=float(error), bound=float(formula / den),
        params={"center": center, "radius": radius})


def _inverse_cdf(p: DiscreteMeasure, size: int, rng: np.random.Generator) -> MultiSet:
    """``size`` independent draws from p by inverse CDF over the canonical
    support order; the size is checked by the caller."""
    picks = np.searchsorted(np.cumsum(p.weights), rng.random(size), side="right")
    picks = np.minimum(picks, len(p.support) - 1)
    return MultiSet(p.space, [p.support[int(i)] for i in picks])


def sample_empirical(p: DiscreteMeasure, size: int, seed: int = 0) -> MultiSet:
    """Draw an empirical sample of the given size by inverse CDF over the
    canonical support order (generator: numpy PCG64)."""
    return _inverse_cdf(p, sample_size(size), rng_from(seed))


def convergence_study(p: DiscreteMeasure, sizes, trials: int, seed: int = 0) -> list[dict]:
    """Median W1 between empirical samples and the target, per sample size.

    Each (size, trial) pair runs on its own seed stream, so studies are
    reproducible point by point.
    """
    trials = _integer(trials, "trials", "invariant.weights", 1, cap=MAX_TRIALS)
    sizes = [sample_size(n) for n in sizes]  # all of them, before the first draw
    if trials * sum(sizes) > MAX_SAMPLE_SIZE:
        raise ValidationError("invariant.size_cap", f"{trials} trials of sizes {sizes} draw "
                              f"{trials * sum(sizes)} points, over cap {MAX_SAMPLE_SIZE}")
    if trials * len(sizes) > MAX_TRIALS:
        raise ValidationError("invariant.size_cap", f"{trials} trials of {len(sizes)} sizes "
                              f"run {trials * len(sizes)} solves, over cap {MAX_TRIALS}")
    rows: list[dict] = []
    for n in sizes:
        values = []
        for t in range(trials):
            sample = _inverse_cdf(p, n, rng_from(seed, n, t))
            values.append(wasserstein1(empirical_sym(sample), p).cost)
        rows.append({"n": n, "median_w1": float(statistics.median(values)),
                     "trials": trials})
    return rows
