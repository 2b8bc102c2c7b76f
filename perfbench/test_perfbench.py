"""Self-tests of the benchmark: input determinism, the checker, the metric names.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import kantorovich as K  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work():
    with tempfile.TemporaryDirectory(prefix=".perfbench-test-", dir=run.ROOT) as tmp:
        yield Path(tmp)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_same_input_digest(name, work):
    (work / "a").mkdir()
    (work / "b").mkdir()
    first = workloads.build(name, 5, work / "a").inputs_sha256
    assert workloads.build(name, 5, work / "b").inputs_sha256 == first
    assert workloads.build(name, 6, work / "b").inputs_sha256 != first


def test_checker_fails_perturbed_cost_and_raised_op():
    op = workloads.Dist(5).ops[0]
    p, q, result = op.run()
    perturbed = dataclasses.replace(result, cost=result.cost + 1e-6)
    samples = [run.Sample(op, 0, 0.0, (p, q, result), None),
               run.Sample(op, 1, 0.0, (p, q, perturbed), None),
               run.Sample(op, 2, 0.0, None, K.ValidationError("solver.not_optimal", "cycle")),
               run.Sample(op, 2, 0.0, None, K.ValidationError("solver.not_optimal", "cycle"))]
    failures, failed, wrong = run.check_samples(samples)
    assert wrong == {1}
    assert failed == {1, 2}
    assert len(failures) == 3
    assert "LP oracle" in failures[0]
    assert "solver.not_optimal" in failures[1]


def test_timed_loop_runs_whole_pool_and_counts_failures_per_op(work):
    class Flaky:
        calibrated = False

        def __init__(self):
            def boom():
                raise RuntimeError("boom")
            ok = workloads.Op("a", "ok", lambda: None, lambda _: [])
            self.ops = [ok, workloads.Op("a", "boom", boom, lambda _: []), ok]

    samples, _, passes = run.run_loop(Flaky(), seconds=0.0)
    assert [s.slot for s in samples] == [0, 1, 2]
    assert passes == 1
    _, failed, wrong = run.check_samples(samples + samples)
    assert failed == {1} and not wrong


def test_cli_checker_fails_perturbed_cost(work):
    cli = workloads.Cli(5, work, in_process=True)
    op = cli.ops[0]
    outcome = op.run()
    assert op.check(outcome) == []
    report = json.loads(outcome.stdout)
    report["cost"] += 1e-6
    bad = dataclasses.replace(outcome, stdout=json.dumps(report).encode())
    assert any("LP oracle" in problem for problem in op.check(bad))
    assert op.check(dataclasses.replace(outcome, code=1)) != []


def test_printed_metric_names_match_benchmark_json():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "laws",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert tracing.PER_LAYER == [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert list(tracing.layer_values(tracing.Tracer(), {})) == \
        [m["name"] for m in SPEC["per_layer"]]


def test_refuses_to_run_without_library_sources(work):
    shutil.copy(run.ROOT / "BENCHMARK.json", work)
    shutil.copytree(run.ROOT / "perfbench", work / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dist",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=work)
    assert proc.returncode != 0
    assert proc.stdout == ""
