"""The samplers draw small integer batches one value at a time: k scalar
``Generator.integers(low, high)`` calls take the same values from the PCG64
stream as one ``integers(low, high, size=k)`` call and leave the generator
in the same state, so every seeded law check keeps its instances. A numpy
release that breaks this fails here first, not as a moved law digest."""

import numpy as np
import pytest

from kantorovich.samplers import rng_from

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
