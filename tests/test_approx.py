import pytest

from kantorovich import (DiscreteMeasure, ValidationError, approx, convergence_study,
                         dirac, empirical_sym, rationalize, sample_empirical,
                         truncate_to_ball, wasserstein1)
from kantorovich.samplers import random_measure, random_metric_space, rng_from
from kantorovich.tolerances import MAX_SAMPLE_SIZE, MAX_TRIALS


def test_rationalize_error_within_bound(line4):
    p = DiscreteMeasure(line4, [0, 1, 2, 3], [0.137, 0.263, 0.401, 0.199])
    for eps in (0.5, 0.1, 0.01, 1e-4):
        report = rationalize(p, eps)
        assert report.w1_error <= report.bound
        assert report.approximant.fractions is not None
        assert report.params["denominator"] >= 1 / eps
    # error shrinks with epsilon to zero
    tight = rationalize(p, 1e-9)
    assert tight.w1_error <= 1e-6


def test_rationalize_exact_input_is_fixed_point(line4):
    p = DiscreteMeasure.from_rational(line4, [0, 2], [1, 3], 4)
    report = rationalize(p, 0.25)  # denominator 4 representable at k=4
    assert report.w1_error == 0.0


def test_rationalize_rejects_bad_epsilon(line4):
    for epsilon, message in ((0.0, "outside"), (-1.0, "outside"),
                             (float("nan"), "outside"), (float("inf"), "outside"),
                             (float("-inf"), "outside"), (10**400, "too large for a float")):
        with pytest.raises(ValidationError, match=message) as info:
            rationalize(dirac(line4, 0), epsilon)
        assert info.value.code == "invariant.weights"


def test_truncate_formula_matches_flow(line4):
    # mass at distance > radius from the center moves onto the center;
    # the closed-form cost equals the solver's
    p = DiscreteMeasure.from_rational(line4, [0, 1, 2, 3], [1, 1, 1, 1], 4)
    report = truncate_to_ball(p, 0, 2.0)
    # points 2 (distance 3) and 3 (distance 7) move: cost (3+7)/4
    assert report.bound == pytest.approx(2.5)
    assert report.w1_error == pytest.approx(report.bound, abs=1e-9)
    assert list(report.approximant.support) == [0, 1]


def test_truncate_noop_inside_ball(line4):
    p = DiscreteMeasure.from_rational(line4, [0, 1], [1, 1], 2)
    report = truncate_to_ball(p, 0, 1.0)
    assert report.w1_error == 0.0
    assert report.bound == 0.0


def test_truncate_refuses_a_radius_that_is_not_nonnegative(line4):
    # NaN fails every comparison, so a `radius < 0` test alone lets it through.
    p = DiscreteMeasure.from_rational(line4, [0, 3], [1, 1], 2)
    for radius in (-1.0, float("nan")):
        with pytest.raises(ValidationError, match=r"radius .* outside \[0, inf\]") as info:
            truncate_to_ball(p, 0, radius)
        assert info.value.code == "invariant.measure"
    report = truncate_to_ball(p, 0, float("inf"))
    assert report.approximant.support == p.support
    assert report.w1_error == 0.0 and report.bound == 0.0


def test_truncate_random_formula_equals_solver():
    for trial in range(40):
        rng = rng_from(61, trial)
        space = random_metric_space(rng, 6)
        p = random_measure(rng, space, max_support=4)
        center = int(rng.integers(0, 6))
        radius = float(rng.integers(0, 8))
        report = truncate_to_ball(p, center, radius)
        assert report.w1_error <= report.bound + 1e-9
        assert report.w1_error == pytest.approx(report.bound, abs=1e-8)


def test_sampling_is_deterministic_and_supported(line4):
    p = DiscreteMeasure(line4, [0, 2], [0.5, 0.5])
    a = sample_empirical(p, 32, seed=11)
    b = sample_empirical(p, 32, seed=11)
    c = sample_empirical(p, 32, seed=12)
    assert a.entries == b.entries
    assert set(a.entries) <= {0, 2}
    assert len(a.entries) == 32
    assert a.entries != c.entries  # different stream, almost surely different


def test_sample_distribution_converges(line4):
    p = DiscreteMeasure.from_rational(line4, [0, 1, 3], [2, 1, 1], 4)
    big = sample_empirical(p, 4096, seed=3)
    emp = empirical_sym(big)
    assert wasserstein1(emp, p).cost <= 0.5  # loose sanity band


def test_convergence_study_medians_shrink(line4):
    p = DiscreteMeasure.from_rational(line4, [0, 1, 2, 3], [1, 2, 2, 3], 8)
    rows = convergence_study(p, [8, 32, 128], trials=30, seed=0)
    assert [row["n"] for row in rows] == [8, 32, 128]
    medians = [row["median_w1"] for row in rows]
    assert medians[-1] <= medians[0]
    # two identical invocations agree exactly
    again = convergence_study(p, [8, 32, 128], trials=30, seed=0)
    assert rows == again


def test_sample_sizes_above_the_cap_are_refused_before_drawing(line4):
    p = dirac(line4, 1)
    for draw in (lambda: sample_empirical(p, MAX_SAMPLE_SIZE + 1),
                 lambda: convergence_study(p, [8, MAX_SAMPLE_SIZE + 1], trials=1)):
        with pytest.raises(ValidationError, match="exceeds cap") as info:
            draw()
        assert info.value.code == "invariant.size_cap"


def test_study_sizes_below_one_are_refused(line4):
    # A negative size once reached the seed stream and escaped as a ValueError.
    with pytest.raises(ValidationError, match="must be positive") as info:
        convergence_study(dirac(line4, 1), [-3], trials=2)
    assert info.value.code == "invariant.tuple"


@pytest.mark.parametrize("sizes, trials, message", [
    ([MAX_SAMPLE_SIZE // 2, MAX_SAMPLE_SIZE // 2], 2, "points, over cap"),
    ([MAX_SAMPLE_SIZE], 2, "points, over cap"),
    ([1, 2, 3], MAX_TRIALS // 2, "solves, over cap"),
])
def test_study_work_above_its_caps_is_refused_before_drawing(line4, monkeypatch, sizes, trials,
                                                             message):
    # Each factor is within its cap; their product is not.
    def no_draws(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(approx, "_inverse_cdf", no_draws)
    with pytest.raises(ValidationError, match=message) as info:
        convergence_study(dirac(line4, 1), sizes, trials=trials)
    assert info.value.code == "invariant.size_cap"
