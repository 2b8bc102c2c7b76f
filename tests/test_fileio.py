import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kantorovich import KantorovichError, ParseError, ValidationError
from kantorovich.cli import main
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


def test_pseudometric_ok_must_be_a_json_boolean(tmp_path):
    path = tmp_path / "space.json"
    for flag in ("false", "no", {"a": 1}, 1, None):
        path.write_text(json.dumps({"kind": "matrix", "dist": [[0, 0], [0, 0]],
                                    "pseudometric_ok": flag}))
        with pytest.raises(ParseError, match="pseudometric_ok") as info:
            load_space(str(path))
        assert info.value.code == "parse.space"
    path.write_text(json.dumps({"kind": "matrix", "dist": [[0, 0], [0, 0]],
                                "pseudometric_ok": True}))
    assert load_space(str(path), tau_metric=1e-9).pseudometric_ok


def test_spaces_above_a_thousand_points_are_refused(tmp_path):
    # Refused before any cell is converted, any table is built or
    # validate_metric runs: the cells below are not numbers.
    csv = tmp_path / "space.csv"
    csv.write_text("x\n" * 1001)
    euclid = tmp_path / "space.json"
    euclid.write_text(json.dumps({"kind": "euclidean", "points": [[k] for k in range(1001)]}))
    for path in (csv, euclid):
        with pytest.raises(ValidationError, match="1001 points") as info:
            load_space(str(path), tau_metric=1e-9)
        assert info.value.code == "invariant.size_cap"


_DEEP = "[" * 200_000 + "]" * 200_000
_DIGITS = "1" * 5000  # past Python's limit for converting a decimal to an int
_HUGE = "1" * 401  # an integer beyond a float's range
# Files that used to escape the loaders as UnicodeDecodeError, RecursionError,
# ValueError (the digit limit) or OverflowError: the file a loader reads, what
# is wrong with it, and its content.
_HOLES = [
    ("space.json", "utf8", b"\xff{}"),
    ("space.json", "deep", _DEEP),
    ("space.json", "digits", f'{{"kind": "matrix", "dist": [[{_DIGITS}]]}}'),
    ("space.json", "huge", f'{{"kind": "matrix", "dist": [[0, {_HUGE}], [{_HUGE}, 0]]}}'),
    ("space.json", "huge-point", f'{{"kind": "euclidean", "points": [[0], [{_HUGE}]]}}'),
    ("space.csv", "utf8", b"0,1\n1,\xff0\n"),
    ("space.csv", "deep", _DEEP),
    ("p.json", "utf8", b"\xff{}"),
    ("p.json", "deep", _DEEP),
    ("p.json", "digits", f'{{"support": [{_DIGITS}], "weights": [1.0]}}'),
    ("p.json", "huge", f'{{"support": [0], "weights": [{_HUGE}]}}'),
    ("a.json", "utf8", b"\xff[]"),
    ("a.json", "deep", _DEEP),
    ("a.json", "digits", f"[{_DIGITS}]"),
]
_CODES = {"space.json": "parse.space", "space.csv": "parse.space", "p.json": "parse.measure",
          "a.json": "parse.indices"}
_GOOD = {"space.json": '{"kind": "matrix", "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}',
         "p.json": '{"support": [0, 1], "den": 2, "num": [1, 1]}', "a.json": "[0, 1]"}


def _load(name: str, path: str, space):
    if name.startswith("space"):
        return load_space(path, tau_metric=1e-9)
    return load_measure(path, space) if name == "p.json" else load_indices(path)


def _commands(name: str) -> list[list[str]]:
    """The argv of every command that reads the file ``name``, the others good."""
    argvs = [[command, "--space", "space.json", "--p", "p.json", "--q", "p.json"]
             for command in ("dist", "coupling", "dual")]
    argvs += [["power-dist", "--space", "space.json", "--a", "a.json", "--b", "a.json"],
              ["approx", "--space", "space.json", "--p", "p.json", "--mode", "rationalize",
               "--epsilon", "0.1"],
              ["sample", "--space", "space.json", "--p", "p.json", "--size", "3"]]
    target = "space.json" if name == "space.csv" else name
    return [[name if arg == target else arg for arg in argv] for argv in argvs if target in argv]


@pytest.mark.parametrize("name,content", [(name, content) for name, _, content in _HOLES],
                         ids=[f"{name}-{kind}" for name, kind, _ in _HOLES])
def test_malformed_content_is_the_loaders_parse_error(tmp_path, monkeypatch, line3,
                                                      name, content):
    for good, text in _GOOD.items():
        (tmp_path / good).write_text(text)
    path = tmp_path / name
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(ParseError) as info:
        _load(name, str(path), line3)
    assert info.value.code == _CODES[name]
    assert str(path) in info.value.message
    # Every command that reads the file exits 1 with error JSON on stderr.
    monkeypatch.chdir(tmp_path)
    for argv in _commands(name):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 1, argv
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["error"]["code"] == _CODES[name]


def test_csv_cells_beyond_a_float_are_non_finite(tmp_path):
    # A CSV cell is read by float(), which takes a long integer to infinity.
    path = tmp_path / "space.csv"
    for cell in (_DIGITS, _HUGE):
        path.write_text(f"0,{cell}\n{cell},0\n")
        with pytest.raises(ValidationError, match="non-finite") as info:
            load_space(str(path))
        assert info.value.code == "invariant.space"


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=2), inner, max_size=3),
                     max_leaves=10)
_FIELDS = ["kind", "dist", "points", "norm", "pseudometric_ok", "support", "weights", "den", "num"]
_DOCUMENTS = st.one_of(
    _JSON,
    st.dictionaries(st.sampled_from(_FIELDS),
                    st.one_of(st.sampled_from(["matrix", "euclidean", "l1", "linf"]), _JSON)),
    st.fixed_dictionaries({"kind": st.just("matrix"), "dist": st.lists(st.lists(_JSON))}))
_PAYLOADS = st.one_of(
    st.binary(max_size=40),
    _DOCUMENTS.map(lambda data: json.dumps(data).encode()),
    st.text(alphabet="0123456789.,-e \n", max_size=40).map(str.encode))


@given(payload=_PAYLOADS)
@example(payload=b"\xff")
@example(payload=b"[" * 100_000)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_loaders_return_or_raise_their_own_errors(tmp_path, line3, payload):
    # Any bytes at all, as a space (.json and .csv), a measure or an index
    # file: each loader returns, or raises a KantorovichError with a code.
    for name in _CODES:
        path = tmp_path / name
        path.write_bytes(payload)
        try:
            _load(name, str(path), line3)
        except KantorovichError as exc:
            assert exc.code
