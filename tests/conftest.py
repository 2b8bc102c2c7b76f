import contextlib
import io
from fractions import Fraction
from typing import NamedTuple

import pytest

from kantorovich import DiscreteMeasure, FiniteMetricSpace
from kantorovich.cli import main


@pytest.fixture
def line3():
    """Three points on a line at coordinates 0, 1, 2."""
    return FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


@pytest.fixture
def line4():
    """Four points on a line at coordinates 0, 1, 3, 7."""
    return FiniteMetricSpace([[0, 1, 3, 7],
                              [1, 0, 2, 6],
                              [3, 2, 0, 4],
                              [7, 6, 4, 0]])


@pytest.fixture
def half_half(line3):
    return DiscreteMeasure(line3, [0, 1], [Fraction(1, 2), Fraction(1, 2)])


@pytest.fixture
def quarter_three(line3):
    return DiscreteMeasure(line3, [1, 2], [Fraction(1, 4), Fraction(3, 4)])


class CliRun(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def cli():
    """The command line in process: ``cli(*args)`` runs ``kantorovich.cli.main``
    on the arguments as strings, with stdout and stderr captured, and returns the
    exit code and both texts. SystemExit gives its code, as the interpreter would.
    Any other exception fails the test, so a warning that ``-W error`` raises
    inside a command is not turned into stderr text."""
    def run(*args) -> CliRun:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([str(arg) for arg in args])
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
        return CliRun(code, out.getvalue(), err.getvalue())
    return run
