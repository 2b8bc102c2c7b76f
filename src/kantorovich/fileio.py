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
from .measures import DiscreteMeasure, _exact_weights
from .spaces import EuclideanSpace, FiniteMetricSpace, validate_metric


def sha256_file(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError("io.not_found", f"cannot read {path}: {exc}") from exc


def _read_json(path: str, code: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(code, f"{path} is not valid JSON: {exc}") from exc


def load_space(path: str, tau_metric: float | None = None) -> FiniteMetricSpace:
    """Read a space file (.json or .csv) and check the metric axioms."""
    if path.endswith(".csv"):
        space = _space_from_csv(path)
    else:
        space = _space_from_json(path)
    if tau_metric is not None:
        violations = validate_metric(space, tau_metric)
        if violations:
            worst = violations[0]
            raise ValidationError(
                "invariant.space",
                f"{path}: {worst.axiom} violated at {worst.where} by {worst.amount!r}")
    return space


def _space_from_csv(path: str) -> FiniteMetricSpace:
    rows = []
    for line in _read_text(path).strip().splitlines():
        if not line.strip():
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError as exc:
            raise ParseError("parse.space", f"{path}: non-numeric cell ({exc})") from exc
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ParseError("parse.space", f"{path}: CSV grid is not square")
    return FiniteMetricSpace(rows)


def _space_from_json(path: str) -> FiniteMetricSpace:
    data = _read_json(path, "parse.space")
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("parse.space", f"{path}: expected an object with a 'kind' field")
    kind = data["kind"]
    try:
        if kind == "matrix":
            return FiniteMetricSpace(data["dist"],
                                     pseudometric_ok=bool(data.get("pseudometric_ok", False)))
        if kind == "euclidean":
            return EuclideanSpace(data["points"], data.get("norm", "l2")).to_metric()
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("parse.space", f"{path}: malformed {kind} space: {exc}") from exc
    raise ParseError("parse.space", f"{path}: unknown space kind {kind!r}")


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
    data = _read_json(path, "parse.measure")
    if not isinstance(data, dict) or "support" not in data:
        raise ParseError("parse.measure", f"{path}: expected an object with a 'support' field")
    support = data["support"]
    if not isinstance(support, list):
        raise ParseError("parse.measure", f"{path}: support must be an array")
    try:
        if "den" in data or "num" in data:
            den = _number(data["den"], int)
            weights = [Fraction(_number(v, int), den) for v in data["num"]]
        else:
            weights = [_number(v, float) for v in data["weights"]]
        return DiscreteMeasure(space, [_number(i, int) for i in support], weights)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ParseError("parse.measure", f"{path}: malformed measure: {exc}") from exc


def load_indices(path: str) -> list:
    """Read a non-empty JSON array of integer point indices (a tuple or multiset)."""
    data = _read_json(path, "parse.indices")
    if not isinstance(data, list) or not data:
        raise ParseError("parse.indices", f"{path}: expected a non-empty JSON array")
    try:
        return [_number(v, int) for v in data]
    except TypeError as exc:
        raise ParseError("parse.indices", f"{path}: {exc}") from exc


def measure_to_json(p: DiscreteMeasure) -> dict:
    out: dict = {"support": list(p.support), "weights": [float(w) for w in p.weights]}
    if p.fractions is not None:
        out["num"], out["den"] = _exact_weights(p)
    return out


def dump_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, minimal separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
