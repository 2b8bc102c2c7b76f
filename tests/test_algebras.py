import math
from fractions import Fraction

import numpy as np
import pytest

from kantorovich import (ConvexAlgebra, DiscreteMeasure, EuclideanSpace, NestedMeasure,
                         SimplexWeights, ValidationError, barycenter,
                         c_lambda, check_algebra_laws, check_metric_compat,
                         convex_axioms, dirac, expectation, mean_point, mixture,
                         operad_compose, wasserstein1)
from kantorovich.algebras import _l2_norm_power_iteration
from kantorovich.samplers import (distinct_points, random_measure, rng_from, simplex_fractions,
                                  sweep)


def test_c_lambda_convention_and_range():
    alg = ConvexAlgebra(2, "l2")
    x, y = np.array([1.0, 0.0]), np.array([0.0, 2.0])
    # the weight multiplies the FIRST argument
    assert np.array_equal(c_lambda(alg, 1.0, x, y), x)
    assert np.array_equal(c_lambda(alg, 0.0, x, y), y)
    assert np.allclose(c_lambda(alg, 0.25, x, y), 0.25 * x + 0.75 * y)
    for lam in (1.5, -0.5, float("nan")):
        with pytest.raises(ValidationError, match="outside") as info:
            c_lambda(alg, lam, x, y)
        assert info.value.code == "invariant.weights"
    with pytest.raises(ValidationError):
        c_lambda(alg, 0.5, x, np.array([0.0, 0.0, 0.0]))


def test_distance_refuses_points_outside_the_carrier():
    alg = ConvexAlgebra(2, "l2")
    assert alg.distance([0, 0], [3, 4]) == 5.0
    for x, y in (([0, 0, 0], [3, 4, 0]), ([0, 0], [3]), ([[0, 0]], [3, 4])):
        with pytest.raises(ValidationError, match="dimension") as info:
            alg.distance(x, y)
        assert info.value.code == "invariant.algebra"


def test_barycenter_hand_value():
    alg = ConvexAlgebra(2, "l2")
    space = EuclideanSpace([[0.0, 0.0], [4.0, 0.0], [0.0, 8.0]], "l2").to_metric()
    p = DiscreteMeasure.from_rational(space, [0, 1, 2], [1, 2, 1], 4)
    bary = barycenter(alg, p)
    assert np.allclose(bary, [2.0, 2.0])


def test_barycenter_requires_coordinates(line3):
    alg = ConvexAlgebra(2, "l2")
    with pytest.raises(ValidationError):
        barycenter(alg, dirac(line3, 0))


def test_mean_point():
    pts = [np.array([0.0, 0.0]), np.array([2.0, 4.0])]
    assert np.allclose(mean_point(pts), [1.0, 2.0])


def test_simplex_weights_validation():
    w = SimplexWeights([Fraction(1, 3), Fraction(2, 3)])
    assert w.fractions == (Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(ValidationError):
        SimplexWeights([0.5, 0.6])
    with pytest.raises(ValidationError):
        SimplexWeights([-0.5, 1.5])


def test_operad_compose_exact():
    nu = SimplexWeights([Fraction(1, 2), Fraction(1, 2)])
    parts = [SimplexWeights([Fraction(1, 2), Fraction(1, 2)]),
             SimplexWeights([Fraction(1)])]
    out = operad_compose(nu, parts)
    assert out.fractions == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert len(out.entries) == 3


def test_operad_compose_associates_with_barycenters():
    # composing weight trees then taking one barycenter equals taking
    # barycenters stage by stage
    rng = rng_from(51, 0)
    alg = ConvexAlgebra(3, "l2")
    for _ in range(20):
        k = int(rng.integers(1, 4))
        arities = [int(rng.integers(1, 4)) for _ in range(k)]
        nu = SimplexWeights(simplex_fractions(rng, k, 8), 8)
        parts = [SimplexWeights(simplex_fractions(rng, a, 8), 8) for a in arities]
        pts = [rng.uniform(-5, 5, size=3) for _ in range(sum(arities))]
        composed = operad_compose(nu, parts)
        direct = sum(float(w) * p for w, p in zip(composed.fractions, pts))
        staged = np.zeros(3)
        offset = 0
        for w_outer, part in zip(nu.fractions, parts):
            block = sum(float(w) * pts[offset + i]
                        for i, w in enumerate(part.fractions))
            staged = staged + float(w_outer) * block
            offset += len(part.fractions)
        assert np.allclose(direct, staged, atol=1e-12)


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
@pytest.mark.parametrize("dim", [1, 2, 4])
def test_all_laws_all_norms(norm, dim):
    alg = ConvexAlgebra(dim, norm)
    laws = check_algebra_laws(alg, trials=40, seed=3)
    assert all(v <= 1e-10 for v in laws.values()), laws
    axioms = convex_axioms(alg, trials=40, seed=4)
    assert all(v <= 1e-10 for v in axioms.values()), axioms


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_metric_compatibility(norm):
    alg = ConvexAlgebra(3, norm)
    compat = check_metric_compat(alg, trials=60, seed=5)
    assert compat["binary_equality"] <= 1e-10
    assert compat["general_violation"] == 0.0


def test_convention_flip_is_consistent():
    alg = ConvexAlgebra(2, "l2")
    flipped = convex_axioms(alg, trials=30, seed=6, weight_on_first=False)
    assert all(v <= 1e-10 for v in flipped.values()), flipped


def test_convention_flag_must_be_a_bool():
    # "no" would read as true, and None as false: both are refused.
    alg = ConvexAlgebra(2, "l2")
    for flag in ("no", None, 0, 1, 1.0, [True]):
        with pytest.raises(ValidationError, match="is not a bool") as info:
            convex_axioms(alg, trials=1, weight_on_first=flag)
        assert info.value.code == "invariant.algebra"
    assert (convex_axioms(alg, trials=5, seed=6, weight_on_first=np.False_)
            == convex_axioms(alg, trials=5, seed=6, weight_on_first=False))


def test_barycenter_is_short_map():
    # W1 between measures dominates distance between their barycenters
    rng = rng_from(52, 0)
    alg = ConvexAlgebra(2, "l2")
    for _ in range(25):
        pts = rng.uniform(-5, 5, size=(5, 2))
        space = EuclideanSpace(pts, "l2").to_metric()
        den = int(rng.integers(2, 6))
        cuts_p = simplex_fractions(rng, int(rng.integers(1, 4)), den)
        sup_p = sorted(rng.choice(5, size=len(cuts_p), replace=False).tolist())
        p = DiscreteMeasure(space, sup_p, cuts_p, den)
        cuts_q = simplex_fractions(rng, int(rng.integers(1, 4)), den)
        sup_q = sorted(rng.choice(5, size=len(cuts_q), replace=False).tolist())
        q = DiscreteMeasure(space, sup_q, cuts_q, den)
        gap = alg.distance(barycenter(alg, p), barycenter(alg, q))
        assert gap <= wasserstein1(p, q).cost + 1e-9


def test_free_algebra_structure():
    # measures themselves form a convex algebra under mixtures: the mixture
    # operation satisfies the same axioms, with W1 as the metric
    rng = rng_from(53, 0)
    space = EuclideanSpace(rng.uniform(-4, 4, size=(5, 2)), "l2").to_metric()

    def msr():
        k = int(rng.integers(1, 4))
        sup = sorted(rng.choice(5, size=k, replace=False).tolist())
        return DiscreteMeasure(space, sup, simplex_fractions(rng, k, 8), 8)

    for _ in range(15):
        p, q, r = msr(), msr(), msr()
        lam = Fraction(int(rng.integers(0, 9)), 8)
        mu = Fraction(int(rng.integers(0, 9)), 8)
        # idempotency
        assert wasserstein1(mixture([lam, 1 - lam], [p, p]), p).cost <= 1e-12
        # commutativity
        a = mixture([lam, 1 - lam], [p, q])
        b = mixture([1 - lam, lam], [q, p])
        assert wasserstein1(a, b).cost <= 1e-12
        # associativity (parametric): lam*(p) + (1-lam)*(mu*q + (1-mu)*r)
        lhs = mixture([lam, (1 - lam) * mu, (1 - lam) * (1 - mu)], [p, q, r])
        rhs = mixture([lam, 1 - lam], [p, mixture([mu, 1 - mu], [q, r])])
        assert wasserstein1(lhs, rhs).cost <= 1e-12


def _sixty_step_power_iteration(matrix: np.ndarray) -> float:
    """The reference: the spectral-norm loop that always ran all 60 steps, verbatim."""
    gram = matrix.T @ matrix
    v = np.ones(matrix.shape[1]) / math.sqrt(matrix.shape[1])
    for _ in range(60):
        w = gram @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
    return math.sqrt(float(v @ gram @ v))


def _first_repeat_period(matrix: np.ndarray) -> int | None:
    """Period of the first power iterate that repeats a bit-identical earlier
    one within 60 steps; None when none does (or the iterate vanishes)."""
    gram = matrix.T @ matrix
    v = np.ones(matrix.shape[1]) / math.sqrt(matrix.shape[1])
    seen = [v.tobytes()]
    for _ in range(60):
        w = gram @ v
        if not w.any():
            return None
        v = w / np.linalg.norm(w)
        if v.tobytes() in seen:
            return len(seen) - seen.index(v.tobytes())
        seen.append(v.tobytes())
    return None


def test_power_iteration_keeps_the_bits_of_the_sixty_step_loop():
    rng = rng_from(0, 900)
    matrices = [rng.uniform(-1.0, 1.0, size=(dim, dim)) for dim in range(1, 7) for _ in range(200)]
    matrices += [np.zeros((3, 3)), np.eye(4), np.outer([1.0, -2.0, 0.5], [0.3, 0.7, -1.0])]
    for matrix in matrices:
        got = _l2_norm_power_iteration(matrix)
        assert got.hex() == _sixty_step_power_iteration(matrix).hex()
    # The sample exercises every branch: a fixed point, a longer cycle, and
    # an iteration that never repeats before step 60.
    periods = [_first_repeat_period(matrix) for matrix in matrices]
    assert 1 in periods
    assert any(period is not None and period >= 2 for period in periods)
    assert None in periods


def _guarded_algebra_laws(algebra: ConvexAlgebra, trials: int, seed: int) -> dict[str, float]:
    """The reference: check_algebra_laws as it was before its trial took the
    private path, verbatim but for the public constructors and calls in place
    of the private builders (EuclideanSpace(...).to_metric() for the rosters,
    DiscreteMeasure for the image measure, mean_point for the means,
    ConvexAlgebra.distance for the distances), so that every value goes
    through its guards."""

    def trial(rng):
        k = int(rng.integers(2, 7))
        points = np.array(distinct_points(
            k, lambda: tuple(np.round(rng.uniform(-8.0, 8.0, size=algebra.dim), 3).tolist())))
        space = EuclideanSpace(points, algebra.norm).to_metric()

        i = int(rng.integers(0, k))
        unit = algebra.distance(barycenter(algebra, dirac(space, i)), points[i])

        n_inner = int(rng.integers(1, 4))
        inner = [random_measure(rng, space, space.n) for _ in range(n_inner)]
        den = int(rng.integers(1, 13))
        mu = NestedMeasure(space, inner, simplex_fractions(rng, n_inner, den), den)
        via_points = np.zeros(algebra.dim)
        for w, m in zip(mu.outer_weights, mu.inner):
            via_points += float(w) * barycenter(algebra, m)
        multiplication = algebra.distance(barycenter(algebra, expectation(mu)), via_points)

        m_size = int(rng.integers(1, 5))
        reps = int(rng.integers(1, 4))
        sample = points[[int(rng.integers(0, k)) for _ in range(m_size)]]
        repeated = np.concatenate([sample] * reps, axis=0)
        power_triangle = algebra.distance(mean_point(sample), mean_point(repeated))

        blocks = [[int(rng.integers(0, k)) for _ in range(m_size)]
                  for _ in range(int(rng.integers(1, 4)))]
        block_means = np.array([mean_point(points[b]) for b in blocks])
        power_square = algebra.distance(mean_point(block_means),
                                        mean_point(points[np.concatenate(blocks)]))

        matrix, offset = _guarded_short_affine(rng, algebra)
        p = random_measure(rng, space, space.n)
        image_space = EuclideanSpace(points @ matrix.T + offset, algebra.norm).to_metric()
        image_measure = DiscreteMeasure(image_space, p.support, p.nums, p.den)
        affine = algebra.distance(matrix @ barycenter(algebra, p) + offset,
                                  barycenter(algebra, image_measure))
        return unit, multiplication, power_triangle, power_square, affine

    return sweep(trials, rng_from(seed, 203), ("unit", "multiplication", "power_triangle",
                                               "power_square", "affine_naturality"), trial)


def _guarded_short_affine(rng, algebra: ConvexAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """The reference short affine map, verbatim."""
    matrix = rng.uniform(-1.0, 1.0, size=(algebra.dim, algebra.dim))
    if algebra.norm == "l1":
        op = float(np.max(np.sum(np.abs(matrix), axis=0)))
    elif algebra.norm == "linf":
        op = float(np.max(np.sum(np.abs(matrix), axis=1)))
    else:
        op = _allocating_power_iteration(matrix)
    if op > 0:
        matrix = matrix / op * 0.95
    offset = rng.uniform(-3.0, 3.0, size=algebra.dim)
    return matrix, offset


def _allocating_power_iteration(matrix: np.ndarray) -> float:
    """The reference: the cycle-reading spectral-norm loop that made new
    arrays at each step, verbatim."""
    gram = matrix.T @ matrix
    v = np.ones(matrix.shape[1]) / math.sqrt(matrix.shape[1])
    seen = {v.tobytes(): 0}  # the iterates so far, in step order
    for step in range(1, 61):
        w = gram @ v
        norm = math.sqrt(float(w.dot(w)))
        if norm == 0.0:
            return 0.0
        v = w / norm
        start = seen.setdefault(v.tobytes(), step)
        if start < step:
            v = np.frombuffer(list(seen)[start + (60 - start) % (step - start)])
            break
    return math.sqrt(float(v @ gram @ v))


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_algebra_laws_keep_the_bits_of_the_guarded_trial(norm):
    # The trial draws its measures and nesting through the private path and
    # steps the power iteration in place; the draws, the arithmetic and so
    # every bit of every worst value stay those of the guarded trial.
    for dim in (1, 2, 3, 5):
        algebra = ConvexAlgebra(dim, norm)
        for seed in (0, 3, 11, 2024):
            got = check_algebra_laws(algebra, trials=25, seed=seed)
            want = _guarded_algebra_laws(algebra, trials=25, seed=seed)
            assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


def test_power_iteration_keeps_the_bits_of_the_loop_it_replaced():
    rng = rng_from(0, 901)
    matrices = [rng.uniform(-1.0, 1.0, size=(dim, dim)) for dim in range(1, 9) for _ in range(150)]
    matrices += [np.zeros((3, 3)), np.eye(4), np.outer([1.0, -2.0, 0.5], [0.3, 0.7, -1.0]),
                 np.diag([3.0, -3.0, 1.0]), np.ones((8, 8))]
    for matrix in matrices:
        got = _l2_norm_power_iteration(matrix)
        assert got.hex() == _allocating_power_iteration(matrix).hex()
