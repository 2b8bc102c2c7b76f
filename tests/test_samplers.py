"""The samplers draw small integer batches one value at a time: k scalar
``Generator.integers(low, high)`` calls take the same values from the PCG64
stream as one ``integers(low, high, size=k)`` call and leave the generator
in the same state, so every seeded law check keeps its instances. A numpy
release that breaks this fails here first, not as a moved law digest."""

import json
import math

import numpy as np
import pytest

import kantorovich.cli
import kantorovich.laws
from kantorovich.samplers import rng_from, sweep

# (low, high) of every scalar draw site: simplex cuts (0, den + 1) for the
# denominators 1 to 16, points of spaces of up to 17 points (tuples,
# multisets, nestings, the Dirac pair and the algebra samples and blocks),
# grid coordinates (-8, 9) and the associativity nesting sizes (1, 4).
_RANGES = [(0, high) for high in range(1, 18)] + [(-8, 9), (1, 4)]
# Every count up to 6, and the algebra blocks up to 3 x 4, drawn row by row.
_SHAPES = [(k,) for k in range(7)] + [(rows, cols) for rows in range(1, 4) for cols in range(1, 5)]


@pytest.mark.parametrize("low, high", _RANGES)
def test_scalar_integer_draws_equal_one_sized_draw(low, high):
    sized, scalar = rng_from(high, low + 8), rng_from(high, low + 8)
    for _ in range(10):
        for shape in _SHAPES:
            values = sized.integers(low, high, size=shape).reshape(-1).tolist()
            drawn = [scalar.integers(low, high) for _ in values]
            assert all(type(v) is np.int64 for v in drawn)
            assert [int(v) for v in drawn] == values
            assert scalar.bit_generator.state == sized.bit_generator.state


def test_sweep_keeps_a_nan_as_the_worst_value():
    nan, inf = math.nan, math.inf
    worst = sweep(3, rng_from(0), ("a", "b"), lambda rng: (nan, inf))
    assert math.isnan(worst["a"]) and worst["b"] == inf
    # Numbers before and after the NaN, larger ones too, leave it the worst.
    values = iter([(0.5,), (nan,), (2.0,), (inf,)])
    assert math.isnan(sweep(4, rng_from(0), ("a",), lambda rng: next(values))["a"])
    values = iter([(0.5,), (2.0,), (1.0,)])
    assert sweep(3, rng_from(0), ("a",), lambda rng: next(values)) == {"a": 2.0}


def test_a_nan_trial_fails_its_law_and_the_command(monkeypatch, cli):
    # One law whose second trial yields NaN, and an algebra check that
    # yields NaN: each reads as failed, and the command exits 2.
    values = iter([0.0, math.nan, 0.0])
    monkeypatch.setattr(kantorovich.laws, "_SWEPT_LAWS",
                        (("nan_law", 99, lambda rng: next(values), 1.0),))
    proc = cli("laws", "--trials", "3")
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["all_pass"] is False
    assert [r["pass"] for r in report["results"] if r["law"] == "nan_law"] == [False]

    monkeypatch.setattr(kantorovich.cli, "check_metric_compat",
                        lambda algebra, trials, seed: sweep(trials, rng_from(seed), ("nan",),
                                                            lambda rng: (math.nan,)))
    proc = cli("algebra-check", "--dim", "2", "--trials", "2")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["all_pass"] is False
