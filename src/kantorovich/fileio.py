"""Input parsing and canonical serialization for the command line tools.

Spaces arrive as JSON ({"kind": "matrix", "dist": [[...]]} or
{"kind": "euclidean", "norm": "l1|l2|linf", "points": [[...]]}) or as a bare
CSV square grid. Measures arrive as JSON with a support array plus either
float weights or an exact rational block {"den": D, "num": [...]}, the block
winning when both are present. Serialization sorts keys and keeps float
reprs, so identical invocations produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from .errors import ParseError, ValidationError
from .measures import DiscreteMeasure
from .spaces import EuclideanSpace, FiniteMetricSpace, _check_table_cap, validate_metric


def sha256_file(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _parse(path: str, code: str, build):
    """``build(text)`` on the file at ``path`` read as UTF-8; malformed content
    is ParseError(code) naming the path and the reason, and a KantorovichError
    from ``build`` (an invariant violation) passes unchanged."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError("io.not_found", f"cannot read {path}: {exc}") from exc
    try:
        return build(data.decode("utf-8"))
    except (ValueError, TypeError, KeyError, RecursionError, OverflowError,
            ZeroDivisionError) as exc:
        raise ParseError(code, f"{path}: {type(exc).__name__}: {exc}") from exc


def load_space(path: str, tau_metric: float | None = None) -> FiniteMetricSpace:
    """Read a space file (.json or .csv) and check the metric axioms."""
    space = _parse(path, "parse.space",
                   _space_from_csv if path.endswith(".csv") else _space_from_json)
    if tau_metric is not None:
        violations = validate_metric(space, tau_metric)
        if violations:
            worst = violations[0]
            raise ValidationError(
                "invariant.space",
                f"{path}: {worst.axiom} violated at {worst.where} by {worst.amount!r}")
    return space


def _space_from_csv(text: str) -> FiniteMetricSpace:
    lines = [line for line in text.splitlines() if line.strip()]
    _check_table_cap(len(lines))
    rows = [[float(cell) for cell in line.split(",")] for line in lines]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError("CSV grid is not square")
    return FiniteMetricSpace(rows)


def _space_from_json(text: str) -> FiniteMetricSpace:
    # Integers are read as floats, so that one beyond a float's range is malformed content.
    data = json.loads(text, parse_int=lambda digits: float(int(digits)))
    if not isinstance(data, dict) or "kind" not in data:
        raise TypeError("expected an object with a 'kind' field")
    kind = data["kind"]
    if kind not in ("matrix", "euclidean"):
        raise ValueError(f"unknown space kind {kind!r}")
    rows = data["dist" if kind == "matrix" else "points"]
    _check_table_cap(len(rows))
    if kind == "euclidean":
        return EuclideanSpace(rows, data.get("norm", "l2")).to_metric()
    pseudometric_ok = data.get("pseudometric_ok", False)
    if not isinstance(pseudometric_ok, bool):
        raise TypeError(f"pseudometric_ok must be true or false, not {pseudometric_ok!r}")
    return FiniteMetricSpace(rows, pseudometric_ok=pseudometric_ok)


def _number(value, kind: type):
    """``kind(value)`` for a JSON number, which must be an integer when
    ``kind`` is int; JSON booleans, strings and arrays are not numbers."""
    if isinstance(value, bool):
        raise TypeError(f"boolean {value!r} is not a number")
    if not isinstance(value, int if kind is int else (int, float)):
        raise TypeError(f"{value!r} is not {'an integer' if kind is int else 'a number'}")
    return kind(value)


def load_measure(path: str, space: FiniteMetricSpace) -> DiscreteMeasure:
    """Read a measure file; an exact {den, num} block beats float weights."""
    def build(text: str) -> DiscreteMeasure:
        data = json.loads(text)
        if not isinstance(data, dict) or "support" not in data:
            raise TypeError("expected an object with a 'support' field")
        support = data["support"]
        if not isinstance(support, list):
            raise TypeError("support must be an array")
        if "den" in data or "num" in data:
            den = _number(data["den"], int)
            weights = [Fraction(_number(v, int), den) for v in data["num"]]
        else:
            weights = [_number(v, float) for v in data["weights"]]
        return DiscreteMeasure(space, [_number(i, int) for i in support], weights)

    return _parse(path, "parse.measure", build)


def load_indices(path: str) -> list:
    """Read a non-empty JSON array of integer point indices (a tuple or multiset)."""
    return _parse(path, "parse.indices", _indices_from_json)


def _indices_from_json(text: str) -> list:
    data = json.loads(text)
    if not isinstance(data, list) or not data:
        raise TypeError("expected a non-empty JSON array")
    return [_number(v, int) for v in data]


def measure_to_json(p: DiscreteMeasure) -> dict:
    out: dict = {"support": list(p.support), "weights": [float(w) for w in p.weights]}
    if p.den is not None:
        out["num"], out["den"] = list(p.nums), p.den
    return out


def dump_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, minimal separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
