import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kantorovich.tolerances import (MAX_ALGEBRA_DIM, MAX_ASSIGNMENT_SIZE, MAX_RANDOM_POINTS,
                                    MAX_SAMPLE_SIZE, MAX_TRIALS)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def fixtures(tmp_path):
    (tmp_path / "space.json").write_text(
        json.dumps({"kind": "matrix", "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
    (tmp_path / "euclid.json").write_text(
        json.dumps({"kind": "euclidean", "norm": "l1",
                    "points": [[0, 0], [1, 0], [1, 1]]}))
    (tmp_path / "space.csv").write_text("0,1,2\n1,0,1\n2,1,0\n")
    (tmp_path / "p.json").write_text(
        json.dumps({"support": [0, 1], "den": 2, "num": [1, 1]}))
    (tmp_path / "q.json").write_text(
        json.dumps({"support": [1, 2], "den": 4, "num": [1, 3]}))
    (tmp_path / "float_p.json").write_text(
        json.dumps({"support": [0, 2], "weights": [0.25, 0.75]}))
    (tmp_path / "a.json").write_text("[0, 1, 2]")
    (tmp_path / "b.json").write_text("[2, 1, 0]")
    return tmp_path


def test_dist_exit_zero_and_report_shape(fixtures, cli):
    proc = cli("dist", "--space", fixtures / "space.json",
               "--p", fixtures / "p.json", "--q", fixtures / "q.json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["cost"] == pytest.approx(1.25)
    assert 0.0 <= report["gap"] <= 1e-8
    assert report["solver"] in {"flow", "assignment"}
    assert report["tolerance"] == 1e-8
    assert set(report["inputs"]) == {"space", "p", "q"}
    assert all(len(v) == 64 for v in report["inputs"].values())


def test_dist_works_from_csv_and_euclidean(fixtures, cli):
    for space in ("space.csv", "euclid.json"):
        proc = cli("dist", "--space", fixtures / space,
                   "--p", fixtures / "p.json", "--q", fixtures / "q.json")
        assert proc.returncode == 0, proc.stderr


def test_solver_flag_is_respected(fixtures, cli):
    for solver in ("flow", "brute", "auto"):
        proc = cli("dist", "--space", fixtures / "space.json",
                   "--p", fixtures / "p.json", "--q", fixtures / "q.json",
                   "--solver", solver)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["cost"] == pytest.approx(1.25)


def test_coupling_report_is_valid_coupling(fixtures, cli):
    proc = cli("coupling", "--space", fixtures / "space.json",
               "--p", fixtures / "p.json", "--q", fixtures / "q.json")
    report = json.loads(proc.stdout)
    matrix = report["coupling"]["matrix"]
    assert report["coupling_violations"] == []
    total = sum(sum(row) for row in matrix)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_dual_certifies_cost(fixtures, cli):
    proc = cli("dual", "--space", fixtures / "space.json",
               "--p", fixtures / "p.json", "--q", fixtures / "q.json")
    report = json.loads(proc.stdout)
    assert report["dual_value"] == pytest.approx(report["cost"], abs=1e-8)
    assert len(report["potential"]["points"]) == len(report["potential"]["values"])


def test_power_dist_both_kinds(fixtures, cli):
    tup = cli("power-dist", "--space", fixtures / "space.json",
              "--a", fixtures / "a.json", "--b", fixtures / "b.json")
    assert json.loads(tup.stdout)["distance"] == pytest.approx(4 / 3)
    ms = cli("power-dist", "--space", fixtures / "space.json",
             "--a", fixtures / "a.json", "--b", fixtures / "b.json",
             "--kind", "multiset")
    assert json.loads(ms.stdout)["distance"] == 0.0


def test_laws_deterministic_and_exit_zero(fixtures, cli):
    first = cli("laws", "--trials", "10", "--seed", "7")
    second = cli("laws", "--trials", "10", "--seed", "7")
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout  # byte-identical
    report = json.loads(first.stdout)
    assert report["all_pass"] is True
    assert len(report["results"]) >= 20


def test_laws_csv_output(cli):
    proc = cli("laws", "--trials", "5", "--seed", "1", "--out", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "law,trials,worst_discrepancy,tolerance,pass"
    assert all(line.endswith("true") for line in lines[1:])


def test_algebra_check_runs_clean(cli):
    proc = cli("algebra-check", "--dim", "2", "--norm", "linf",
               "--trials", "20", "--seed", "3")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["all_pass"] is True
    assert report["carrier"] == {"dim": 2, "norm": "linf"}


def test_approx_rationalize_within_bound(fixtures, cli):
    proc = cli("approx", "--space", fixtures / "space.json",
               "--p", fixtures / "float_p.json",
               "--mode", "rationalize", "--epsilon", "0.05")
    report = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert report["within_bound"] is True
    assert report["w1_error"] <= report["bound"]


def test_approx_truncate(fixtures, cli):
    proc = cli("approx", "--space", fixtures / "space.json",
               "--p", fixtures / "q.json",
               "--mode", "truncate", "--center", "2", "--radius", "0.5")
    report = json.loads(proc.stdout)
    assert proc.returncode == 0
    # the 1/4 mass at point 1 (distance 1 from 2) moves onto the center
    assert report["w1_error"] == pytest.approx(0.25)


def test_approx_study_deterministic_csv(fixtures, cli):
    args = ("approx", "--space", fixtures / "space.json",
            "--p", fixtures / "p.json", "--mode", "study",
            "--sizes", "4,8", "--trials", "6", "--seed", "2", "--out", "csv")
    first, second = cli(*args), cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.splitlines()[0] == "n,median_w1,trials"


def test_sample_deterministic(fixtures, cli):
    args = ("sample", "--space", fixtures / "space.json",
            "--p", fixtures / "p.json", "--size", "10", "--seed", "4")
    first, second = cli(*args), cli(*args)
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert len(report["entries"]) == 10
    assert report["rng"] == "numpy-pcg64"


def test_malformed_measure_exits_one(fixtures, cli):
    bad = fixtures / "bad.json"
    bad.write_text('{"support": [0, 1]}')  # no weights at all
    proc = cli("dist", "--space", fixtures / "space.json",
               "--p", bad, "--q", fixtures / "q.json")
    assert proc.returncode == 1
    assert proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"]["code"] == "parse.measure"


def test_invalid_weights_exit_one(fixtures, cli):
    bad = fixtures / "bad.json"
    bad.write_text('{"support": [0, 1], "weights": [0.9, 0.9]}')
    proc = cli("dist", "--space", fixtures / "space.json",
               "--p", bad, "--q", fixtures / "q.json")
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"]["code"].startswith("invariant.")


def test_missing_file_exits_one(fixtures, cli):
    proc = cli("dist", "--space", fixtures / "space.json",
               "--p", fixtures / "nowhere.json", "--q", fixtures / "q.json")
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"]["code"] == "io.not_found"


def test_non_metric_space_exits_one(fixtures, cli):
    bad = fixtures / "badspace.json"
    bad.write_text(json.dumps({"kind": "matrix",
                               "dist": [[0, 1, 9], [1, 0, 1], [9, 1, 0]]}))
    proc = cli("dist", "--space", bad,
               "--p", fixtures / "p.json", "--q", fixtures / "q.json")
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"]["code"] == "invariant.space"


def test_space_files_that_mix_booleans_with_numbers_exit_one(fixtures, cli):
    # numpy types [0, true] as numbers, so the space guard looks at the
    # entries themselves
    bad = fixtures / "mixed.json"
    for space in ({"kind": "matrix", "dist": [[0, True], [True, 0]]},
                  {"kind": "euclidean", "points": [[0, True], [1, 0]]}):
        bad.write_text(json.dumps(space))
        proc = cli("dist", "--space", bad, "--p", fixtures / "p.json", "--q", fixtures / "p.json")
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["code"] == "invariant.space"


def test_numbers_near_the_float_limit_exit_one_with_error_json(fixtures, cli):
    # Tables and points near the float limit overflowed in the sums and
    # squares of power-dist and dist, and a huge epsilon in rationalize's
    # bound: a traceback, "Infinity" in a report, or a warning before the
    # error JSON. Entries above 2**500 and an epsilon above 1 are refused.
    (fixtures / "huge.json").write_text(json.dumps(
        {"kind": "matrix", "dist": [[0, 1.7e308], [1.7e308, 0]]}))
    (fixtures / "far.json").write_text(json.dumps(
        {"kind": "euclidean", "norm": "l2", "points": [[1e200], [-1e200]]}))
    (fixtures / "zeros.json").write_text("[0, 0]")
    (fixtures / "ones.json").write_text("[1, 1]")
    (fixtures / "float3.json").write_text(
        json.dumps({"support": [0, 1, 2], "weights": [0.2, 0.3, 0.5]}))
    power = ("power-dist", "--space", fixtures / "huge.json",
             "--a", fixtures / "zeros.json", "--b", fixtures / "ones.json")
    cases = (
        (power, "invariant.space"),
        ((*power, "--kind", "multiset"), "invariant.space"),
        (("dist", "--space", fixtures / "far.json", "--p", fixtures / "p.json",
          "--q", fixtures / "p.json"), "invariant.space"),
        (("approx", "--space", fixtures / "space.json", "--p", fixtures / "float3.json",
          "--mode", "rationalize", "--epsilon", "1e308"), "invariant.weights"),
    )
    for argv, code in cases:
        proc = cli(*argv)
        assert proc.returncode == 1, argv
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["code"] == code


def test_console_entry_point_installed():
    # The `kantorovich` executable exists only after an install, so the
    # [project.scripts] target is first run the way a generated
    # console-script wrapper runs it; an installed script, when one is on
    # PATH, is checked the same way.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "kantorovich" in scripts
    module, _, attr = scripts["kantorovich"].partition(":")
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.argv[0] = 'kantorovich'; sys.exit({attr}())")
    commands = [[sys.executable, "-c", wrapper, "--help"]]
    if shutil.which("kantorovich"):
        commands.append(["kantorovich", "--help"])
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: kantorovich ")
        # "dist" or "dual" alone also match the description and "power-dist",
        # so each subcommand is looked up in the {choice,...} list.
        choices = re.search(r"\{([^}]*)\}", proc.stdout).group(1).split(",")
        for sub in ("dist", "coupling", "dual", "power-dist", "laws",
                    "algebra-check", "approx", "sample"):
            assert sub in choices


# ``python -m kantorovich.cli`` runs the module as ``runpy.run_module`` does
# here, with sys.argv set. One child interpreter runs each command so, and
# points file descriptors 1 and 2 at files of its own, so that the bytes
# compared are the bytes the process writes.
_CHILD = """\
import json, os, runpy, sys
work, commands, codes = sys.argv[1], json.loads(sys.argv[2]), []
for i, argv in enumerate(commands):
    with open(os.path.join(work, f"{i}.out"), "wb") as out, \\
            open(os.path.join(work, f"{i}.err"), "wb") as err:
        os.dup2(out.fileno(), 1)
        os.dup2(err.fileno(), 2)
        sys.argv[1:] = argv
        try:
            runpy.run_module("kantorovich.cli", run_name="__main__")
        except SystemExit as exc:
            codes.append(0 if exc.code is None else exc.code)
        sys.stdout.flush()
        sys.stderr.flush()
with open(os.path.join(work, "codes.json"), "w") as fh:
    json.dump(codes, fh)
"""


def test_the_in_process_runner_matches_the_module_entry(fixtures, cli):
    # One command per subcommand, run through the real ``-m`` entry in a
    # child interpreter and through the ``cli`` fixture: the same exit code,
    # stdout bytes and stderr bytes. The child is another process, so this
    # also checks that sample, the approx study and the law suite give the
    # same bytes from one process to the next.
    inputs = ["--space", fixtures / "space.json", "--p", fixtures / "p.json"]
    commands = [
        ["dist", *inputs, "--q", fixtures / "q.json"],
        ["coupling", *inputs, "--q", fixtures / "q.json"],
        ["dual", *inputs, "--q", fixtures / "q.json"],
        ["power-dist", "--space", fixtures / "space.json", "--a", fixtures / "a.json",
         "--b", fixtures / "b.json", "--kind", "multiset"],
        ["laws", "--trials", "10", "--seed", "7"],
        ["algebra-check", "--dim", "2", "--norm", "linf", "--trials", "20", "--seed", "3"],
        ["approx", *inputs, "--mode", "study", "--sizes", "4,8", "--trials", "6",
         "--seed", "2", "--out", "csv"],
        ["sample", *inputs, "--size", "10", "--seed", "4"],
    ]
    commands = [[str(arg) for arg in argv] for argv in commands]
    work = fixtures / "child"
    work.mkdir()
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(work), json.dumps(commands)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads((work / "codes.json").read_text())
    assert len(codes) == len(commands)
    for i, argv in enumerate(commands):
        run = cli(*argv)
        assert codes[i] == run.returncode == 0, argv
        assert (work / f"{i}.out").read_bytes() == run.stdout.encode(), argv
        assert (work / f"{i}.err").read_bytes() == run.stderr.encode(), argv


# sha256 of the stdout of solver reports, so that a change to any bit of a
# cost, gap, coupling or potential fails here. The laws and algebra-check
# reports go through LAPACK and BLAS, whose last bits can vary between
# builds, and are not pinned.
_FIXTURE = ("space.json", "p.json", "q.json")
_GRID = ("grid.json", "grid_p.json", "grid_q.json")
_REPORTS = (
    ("dist", _FIXTURE,
     "667f1d9aa3766b61b702d09cfd3ec105b5d6af5aa83657a898242a2e898f706d"),
    ("dist --solver flow", _FIXTURE,
     "37d970ecbff2859966e0e9074a25d2d898294798354c48856af474fb99c9634b"),
    ("dist --solver brute", _FIXTURE,
     "e9c137fe9589ab8d26704f88f6aa2a92c53f36e4af2b4f5a6bde0f2c9ffe1832"),
    ("coupling", _FIXTURE,
     "5e95448e08cba96384c4d56664f71cb170870bd510c0cc83e148f4ddc6345709"),
    ("dual", _FIXTURE,
     "f07f58614ad1b2f418794248e60f6016399cf8299830eeb343cbcb94cd50ec71"),
    ("coupling", _GRID,
     "e4a2923d86b23dae819c901bb6744517303de141442c3b952f338fb3d5a1ac1b"),
    ("dual", _GRID,
     "97985df36aec155138976b3de24371af7b64b76c3e9a462666c1f5303f41700d"),
)


def test_solver_reports_keep_their_bytes(fixtures, cli):
    # A 6 x 4 grid under l2, with float weights on alternate points.
    (fixtures / "grid.json").write_text(json.dumps(
        {"kind": "euclidean", "norm": "l2",
         "points": [[x, y] for y in range(4) for x in range(6)]}))
    (fixtures / "grid_p.json").write_text(json.dumps(
        {"support": list(range(0, 24, 2)), "weights": [k / 78 for k in range(1, 13)]}))
    (fixtures / "grid_q.json").write_text(json.dumps(
        {"support": list(range(1, 24, 2)), "weights": [(k % 4 + 1) / 30 for k in range(12)]}))
    for command, files, digest in _REPORTS:
        argv = command.split()
        for flag, name in zip(("--space", "--p", "--q"), files):
            argv += [flag, fixtures / name]
        proc = cli(*argv)
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest, (command, files)


# sha256 of the stdout of the other reports that go through no BLAS call, run
# from the fixtures directory: power-dist, approx in each mode and sample.
_STUDY = "approx --space space.json --p p.json --mode study --sizes 4,8 --trials 6 --seed 2"
_SAMPLE = "sample --space space.json --p p.json --size 10 --seed 4"
_OTHER_REPORTS = (
    ("power-dist --space space.json --a a.json --b b.json --kind tuple",
     "796d281ba1feef18d7a2b32ce2f6c7c2aded341b2dd544c7065dcc98c18148c6"),
    ("power-dist --space space.json --a a.json --b b.json --kind multiset",
     "204cd389e1ec28bd3766f61402f1bc99bd4a04165c063247f5de2b3fa473a47d"),
    ("approx --space space.json --p float_p.json --mode rationalize --epsilon 0.05",
     "efe53e9c8192abb754b0553a78552ab2a2b56768fad8f12581831fd36adb58eb"),
    ("approx --space space.json --p q.json --mode truncate --center 2 --radius 0.5",
     "ab902bcfc6ad6c4dc1c4c171a747499a1fa9634a990c7e433dacf414515d0e0e"),
    (_STUDY, "1e7506f22b4e86cfcefaf764c21166d221178fea95222dc393c8295b5491c0f8"),
    (f"{_STUDY} --out csv", "8d98314b0da0ff461f48ca523556d3b798119683d070b353701d605ac5cfeda6"),
    (_SAMPLE, "40fa0e99a617b84f9f19232c4d7123d2896d197a951ca1af3c2bc8924a5b2ae1"),
    (f"{_SAMPLE} --out csv", "605433ac942532c38036a14b78cbfdf31d742fd7d4524a8ba5962c0a2b1ab92d"),
)
# The stderr of refusals, whose messages name the files by the paths given.
_REFUSALS = (
    ("approx --space space.json --p p.json --mode rationalize",
     '{"error":{"code":"cli.arguments","message":"--epsilon is required for rationalize"}}\n'),
    ("approx --space space.json --p p.json --mode truncate --center 0",
     '{"error":{"code":"cli.arguments",'
     '"message":"--center and --radius are required for truncate"}}\n'),
    ("dist --space space.json --p nowhere.json --q q.json",
     '{"error":{"code":"io.not_found","message":"cannot read nowhere.json: '
     "[Errno 2] No such file or directory: 'nowhere.json'\"}}\n"),
    ("dist --space badspace.json --p p.json --q q.json",
     '{"error":{"code":"invariant.space",'
     '"message":"badspace.json: triangle violated at (0, 1, 2) by 7.0"}}\n'),
    ("power-dist --space space.json --a half.json --b b.json",
     '{"error":{"code":"parse.indices","message":"half.json: TypeError: 1.5 is not an integer"}}\n'),
)


def test_other_reports_and_refusals_keep_their_bytes(fixtures, cli, monkeypatch):
    (fixtures / "badspace.json").write_text(json.dumps(
        {"kind": "matrix", "dist": [[0, 1, 9], [1, 0, 1], [9, 1, 0]]}))
    (fixtures / "half.json").write_text("[0, 1.5]")
    monkeypatch.chdir(fixtures)
    for command, digest in _OTHER_REPORTS:
        proc = cli(*command.split())
        assert (proc.returncode, proc.stderr) == (0, ""), command
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest, command
    for command, stderr in _REFUSALS:
        assert cli(*command.split()) == (1, "", stderr), command


def test_power_dist_refuses_multisets_above_the_assignment_cap(fixtures, cli):
    big = fixtures / "big.json"
    big.write_text(json.dumps([i % 3 for i in range(MAX_ASSIGNMENT_SIZE + 1)]))
    proc = cli("power-dist", "--space", fixtures / "space.json", "--a", big, "--b", big,
               "--kind", "multiset")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["code"] == "invariant.size_cap"


def test_usage_errors_exit_one_with_error_json(fixtures, cli):
    # Exit status 2 is reserved for law-suite failures; a bad invocation
    # is a validation failure and must follow the stderr-JSON contract.
    cases = (
        ("power-dist", "--space", str(fixtures / "space.json")),  # missing --a/--b
        ("dist", "--space", str(fixtures / "space.json"),
         "--p", str(fixtures / "p.json"), "--q", str(fixtures / "q.json"),
         "--solver", "simplex"),                                  # bad choice
        ("no-such-command",),                                     # unknown subcommand
    )
    for argv in cases:
        proc = cli(*argv)
        assert proc.returncode == 1, argv
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["code"] == "cli.arguments"


# Malformed inputs for the fuzz test below: NaN, Infinity, booleans, strings,
# nulls and integers of any size (so out-of-range indices), in ragged or empty
# arrays, next to well-formed files that the mutations start from.
_NUMBER = st.one_of(st.integers(-2, 6), st.integers(), st.floats(), st.booleans(),
                    st.text(max_size=2), st.none())
_ARRAY = st.one_of(st.lists(_NUMBER, max_size=4), _NUMBER)
_GRID = st.lists(_ARRAY, max_size=4)
_SPACES = st.one_of(
    st.just({"kind": "matrix", "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}),
    st.fixed_dictionaries({"kind": st.just("matrix"), "dist": _GRID}),
    st.fixed_dictionaries({"kind": st.sampled_from(["euclidean", "graph"]), "points": _GRID,
                           "norm": st.sampled_from(["l1", "l2", "linf", "lp"])}),
    _NUMBER)
_MEASURES = st.one_of(
    st.just({"support": [0, 1], "den": 2, "num": [1, 1]}),
    st.fixed_dictionaries({"support": _ARRAY, "weights": _ARRAY}),
    st.fixed_dictionaries({"support": _ARRAY, "den": _NUMBER, "num": _ARRAY}),
    _NUMBER)
# Index files for power-dist: flat arrays of any entries, and nested arrays.
_INDICES = st.one_of(st.lists(_NUMBER, min_size=1, max_size=4), st.lists(_ARRAY, max_size=3))
# Values of --seed, --epsilon, --radius, --sizes and the law-suite counts.
_OPTION = st.one_of(st.integers(-2, 4).map(str),
                    st.sampled_from(["x", "4,x", "3,2", "0.5", "nan", "inf", "-inf"]))
_GOOD_SPACE = {"kind": "matrix", "dist": [[0, 1], [1, 0]]}
_GOOD_MEASURE = {"support": [1], "weights": [1.0]}
# The least value of each count option, and of each entry of --sizes; a
# lower or non-integer value, or an empty --sizes, is an invocation error.
_COUNTS = {"--trials": 1, "--max-points": 2, "--max-support": 1, "--dim": 1, "--size": 1,
           "--sizes": 1}
# The caps of the options that size a run; a larger value is refused with
# invariant.size_cap before the run starts.
_CAPS = {"--trials": MAX_TRIALS, "--max-points": MAX_RANDOM_POINTS, "--dim": MAX_ALGEBRA_DIM}


def _is_index_array(data) -> bool:
    """A non-empty flat array of JSON integers, as power-dist reads."""
    return isinstance(data, list) and bool(data) and all(type(v) is int for v in data)


def _below_minimum(argv: list[str]) -> bool:
    """Whether a count option in ``argv`` is not an integer at its least value;
    ``--sizes`` holds a non-empty comma-separated list of such counts."""
    for flag, text in zip(argv, argv[1:]):
        if flag in _COUNTS:
            counts = [s for s in text.split(",") if s] if flag == "--sizes" else [text]
            try:
                if not counts or min(int(s) for s in counts) < _COUNTS[flag]:
                    return True
            except ValueError:
                return True
    return False


def _above_cap(argv: list[str]) -> bool:
    """Whether an option in ``argv`` is an integer above its cap."""
    for flag, text in zip(argv, argv[1:]):
        if flag in _CAPS and re.fullmatch(r"\d+", text) and int(text) > _CAPS[flag]:
            return True
    return False


def _has_boolean(data) -> bool:
    if isinstance(data, dict):
        data = list(data.values())
    if isinstance(data, list):
        return any(_has_boolean(v) for v in data)
    return isinstance(data, bool)


@given(command=st.sampled_from(["auto", "flow", "assignment", "brute", "coupling", "dual",
                                "sample", "--size", "laws", "--trials", "--max-points",
                                "--max-support", "algebra-check", "--dim", "tuple", "multiset",
                                "rationalize", "truncate", "study", "study-trials"]),
       space=_SPACES, p=st.one_of(_MEASURES, _INDICES), q=st.one_of(_MEASURES, _INDICES),
       option=_OPTION)
@example(command="auto", space=_GOOD_SPACE,
         p={"support": [0, 1], "weights": [float("nan"), 0.5]}, q=_GOOD_MEASURE, option="0")
@example(command="auto", space={"kind": "matrix", "dist": [[0, float("nan")], [float("nan"), 0]]},
         p={"support": [0], "weights": [1.0]}, q=_GOOD_MEASURE, option="0")
@example(command="auto", space=_GOOD_SPACE, p={"support": [True], "weights": [1.0]},
         q={"support": [0], "weights": [1.0]}, option="0")
@example(command="tuple", space=_GOOD_SPACE, p=[0, "a"], q=[0, 1], option="0")
@example(command="multiset", space=_GOOD_SPACE, p=[[0], [1]], q=[0, 1], option="0")
@example(command="tuple", space=_GOOD_SPACE, p=[0, 1.5], q=[0, 1], option="0")
@example(command="laws", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE, option="-1")
@example(command="sample", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE, option="-1")
@example(command="study", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE, option="4,x")
@example(command="study", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE, option="-1")
@example(command="study", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE,
         option=str(MAX_SAMPLE_SIZE + 1))
@example(command="rationalize", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE,
         option="nan")
@example(command="--trials", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE, option="0")
@example(command="--trials", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE, option="-1")
@example(command="algebra-check", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE,
         option="-1")
@example(command="--max-points", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE,
         option="1")
@example(command="--max-support", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE,
         option="0")
@example(command="--trials", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE,
         option=str(MAX_TRIALS + 1))
@example(command="--max-points", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE,
         option=str(MAX_RANDOM_POINTS + 1))
@example(command="algebra-check", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE,
         option=str(MAX_TRIALS + 1))
@example(command="--dim", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE,
         option=str(MAX_ALGEBRA_DIM + 1))
@example(command="study-trials", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE,
         option=str(MAX_TRIALS + 1))
@example(command="study-trials", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE, option="0")
@example(command="--dim", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE, option="0")
@example(command="--size", space=_GOOD_SPACE, p=_GOOD_MEASURE, q=_GOOD_MEASURE, option="0")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_files_keep_the_exit_contract(tmp_path, cli, command, space, p, q, option):
    # Exit 0, or exit 1 with nothing on stdout and error JSON with a code on stderr.
    # JSON true/false in a measure or index file is no number: such a file
    # is refused, and so is an index file that is not a flat array of
    # integers. ``option`` is the value of the one numeric option a command
    # takes from the fuzzer; the commands named after a law-suite count give
    # it to that count, ``--dim`` to the algebra's dimension, ``--size`` to
    # the sample's size and ``study-trials`` to the study's trials. A count
    # below its least value is refused by the parser, whatever the
    # subcommand, and a size above its cap is refused too.
    paths = {}
    for name, data in (("space", space), ("p", p), ("q", q)):
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(data))
    inputs = ["--space", paths["space"], "--p", paths["p"]]
    read = [p]
    if command == "sample":
        argv = ["sample", *inputs, "--size", "5", "--seed", option]
    elif command == "--size":
        argv = ["sample", *inputs, "--size", option]
    elif command == "laws":
        argv, read = ["laws", "--trials", "1", "--seed", option], []
    elif command == "--dim":
        argv, read = ["algebra-check", "--dim", option, "--trials", "1"], []
    elif command in _COUNTS:
        counts = {"--trials": "1", command: option}  # one trial keeps the run short
        argv, read = ["laws", *(text for item in counts.items() for text in item)], []
    elif command == "algebra-check":
        argv, read = ["algebra-check", "--dim", "2", "--trials", option], []
    elif command in ("tuple", "multiset"):
        argv = ["power-dist", "--space", paths["space"], "--a", paths["p"], "--b", paths["q"],
                "--kind", command]
        read = [p, q]
    elif command == "rationalize":
        argv = ["approx", *inputs, "--mode", command, "--epsilon", option]
    elif command == "truncate":
        argv = ["approx", *inputs, "--mode", command, "--center", "0", "--radius", option]
    elif command == "study":
        argv = ["approx", *inputs, "--mode", command, "--sizes", option, "--trials", "2"]
    elif command == "study-trials":
        argv = ["approx", *inputs, "--mode", "study", "--sizes", "2", "--trials", option]
    elif command in ("coupling", "dual"):
        argv = [command, *inputs, "--q", paths["q"]]
        read = [p, q]
    else:
        argv = ["dist", *inputs, "--q", paths["q"], "--solver", command]
        read = [p, q]
    proc = cli(*argv)
    code = proc.returncode
    assert code in (0, 1)
    if any(_has_boolean(m) for m in read):
        assert code == 1
    if argv[0] == "power-dist" and not all(_is_index_array(m) for m in read):
        assert code == 1
    if _below_minimum(argv):
        assert code == 1
        assert json.loads(proc.stderr)["error"]["code"] == "cli.arguments"
    if _above_cap(argv):
        assert code == 1
        assert json.loads(proc.stderr)["error"]["code"] == "invariant.size_cap"
    if code == 1:
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["code"]
    else:
        json.loads(proc.stdout)
