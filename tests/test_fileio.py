import json
from fractions import Fraction

import pytest

from kantorovich import ParseError, ValidationError
from kantorovich.fileio import (dump_canonical, load_indices, load_measure,
                                load_space, measure_to_json, sha256_file)


def test_matrix_space_round_trip(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"kind": "matrix",
                                "dist": [[0, 2], [2, 0]]}))
    space = load_space(str(path), tau_metric=1e-9)
    assert space.n == 2 and space.d(0, 1) == 2.0


def test_csv_space(tmp_path):
    path = tmp_path / "space.csv"
    path.write_text("0,1\n1,0\n")
    assert load_space(str(path)).d(0, 1) == 1.0
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0,1\n1\n")
    with pytest.raises(ParseError, match="square"):
        load_space(str(ragged))


def test_euclidean_space(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"kind": "euclidean", "norm": "linf",
                                "points": [[0, 0], [2, 1]]}))
    assert load_space(str(path)).d(0, 1) == 2.0


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"kind": "graph", "edges": []}))
    with pytest.raises(ParseError, match="unknown space kind"):
        load_space(str(path))


def test_metric_validation_on_load(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"kind": "matrix",
                                "dist": [[0, 1, 9], [1, 0, 1], [9, 1, 0]]}))
    load_space(str(path))  # no tau: accepted as raw table
    with pytest.raises(ValidationError, match="triangle"):
        load_space(str(path), tau_metric=1e-9)


def test_measure_rational_block_wins(tmp_path, line3):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"support": [0, 2], "weights": [0.9, 0.1],
                                "den": 4, "num": [1, 3]}))
    p = load_measure(str(path), line3)
    assert p.fractions == (Fraction(1, 4), Fraction(3, 4))


def test_measure_float_weights(tmp_path, line3):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"support": [1], "weights": [1.0]}))
    p = load_measure(str(path), line3)
    assert list(p.support) == [1]


def test_measure_parse_errors(tmp_path, line3):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"weights": [1.0]}))
    with pytest.raises(ParseError, match="support"):
        load_measure(str(path), line3)
    path.write_text(json.dumps({"support": [0], "num": [1]}))  # den missing
    with pytest.raises(ParseError):
        load_measure(str(path), line3)


def test_booleans_are_not_numbers(tmp_path, line3):
    # JSON true is a Python int, so it used to be read as index or weight 1.
    path = tmp_path / "m.json"
    for data in ({"support": [True], "weights": [1.0]},
                 {"support": [0], "weights": [True]},
                 {"support": [0], "den": True, "num": [1]},
                 {"support": [0], "den": 1, "num": [True]}):
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="boolean"):
            load_measure(str(path), line3)
    path.write_text("[0, true]")
    with pytest.raises(ParseError, match="boolean"):
        load_indices(str(path))


def test_indices(tmp_path):
    path = tmp_path / "idx.json"
    path.write_text("[0, 1, 1]")
    assert load_indices(str(path)) == [0, 1, 1]
    path.write_text("[]")
    with pytest.raises(ParseError):
        load_indices(str(path))


def test_measure_to_json_includes_exact_block(line3, half_half):
    out = measure_to_json(half_half)
    assert out == {"support": [0, 1], "weights": [0.5, 0.5],
                   "den": 2, "num": [1, 1]}


def test_dump_canonical_is_stable():
    a = dump_canonical({"b": 1, "a": [1.5, 2]})
    b = dump_canonical({"a": [1.5, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_sha256_matches_content(tmp_path):
    path = tmp_path / "x"
    path.write_text("hello")
    assert sha256_file(str(path)) == (
        "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824")
