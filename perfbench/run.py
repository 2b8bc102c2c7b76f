"""Benchmark of the kantorovich library: three closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {dist,laws,cli} --seed N --seconds S --trace {0,1}

``--trace 0`` runs the named workload's pool of ops over and over until S
seconds have passed (and the whole pool ran at least once), checks every
result after the timed loop, and prints the end-to-end metrics. ``attempted``
and ``failed`` count distinct ops of the pool, an op failing if any of its
runs raised or gave a wrong result, so they depend on the seed alone and not
on how many times the host's speed let an op run. ``--trace 1`` runs a fixed
number of ops of every workload, once plain and once with every library
layer wrapped by :mod:`tracing`, and prints the per-layer metrics and the
tracing overhead; the command line is called in-process there. Earlier
stdout lines describe the run (environment, input digest, failures); the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Op times of the in-process workloads (``dist``, ``laws``) are scaled to a
reference host speed: a fixed pure-Python probe runs between ops, and each
op's time is multiplied by CALIBRATION_REF_S over the mean of the probes on
either side of it. On a shared host the speed drifts by up to 1.5x over
minutes, which would otherwise swamp differences between commits. CLI op
times, set-up times and per-layer times are reported as measured, and the
unscaled figures are printed on the info line.

The library is imported from ``src/`` of the checkout; the run refuses to
start without it. BLAS and OpenMP are held to one thread, here and in every
child process.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import hashlib
import importlib.util
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("dist", "laws", "cli")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
# Size of the speed probe, and its time on an idle 2-vCPU x86-64 VM under
# CPython 3.11: the reference speed that scaled times are reported at.
CALIBRATION_LOOP = 12_500
CALIBRATION_REF_S = 0.004
# Fixed work of one traced run: (workload, ops from the start of its pool),
# each run plain then traced.
TRACE_OPS = (("dist", 42), ("laws", 30), ("cli", 8))
IMPORT_REPEATS = 3


@dataclass
class Sample:
    op: Any
    slot: int
    elapsed: float
    outcome: Any
    error: BaseException | None
    scale: float = 1.0

    @property
    def scaled(self) -> float:
        return self.elapsed * self.scale


def calibrate() -> float:
    """Time of a fixed pure-Python probe of the host's current speed.

    Integer arithmetic plus Fraction and dict churn, the mix the library's
    exact code runs, so that the probe slows down with the library.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i % 7
    table = {}
    for i in range(1, CALIBRATION_LOOP // 40):
        x = Fraction(i % 97, 101) * Fraction(i % 89 + 1, 103) + Fraction(1, 7)
        table[i % 53, i % 7] = [x, float(x), str(i)]
    sorted(table)
    return time.perf_counter() - start


def describe(exc: BaseException) -> str:
    code = getattr(exc, "code", None)
    return f"{type(exc).__name__}" + (f" {code}" if isinstance(code, str) else "") + f": {exc}"


def setup(name: str, seed: int, work: Path, in_process: bool = False):
    """Import the library, build the inputs, run one warm-up op per class."""
    start = time.perf_counter()
    import workloads

    workload = workloads.build(name, seed, work, in_process)
    for op in workload.warm_up_ops():
        op.run()
    return workload, time.perf_counter() - start


def run_loop(workload, seconds: float | None = None, count: int | None = None,
             calibrated: bool = False):
    """Closed loop over the workload's pool: ``count`` ops, or ops until ``seconds`` passed.

    A timed loop stops at the first op boundary after ``seconds``, once the
    whole pool ran. With ``calibrated``, the speed probe runs between ops
    and each op's time is scaled by the probes on either side of it.
    """
    probe = calibrate if calibrated else (lambda: CALIBRATION_REF_S)
    pool = workload.ops
    samples: list[Sample] = []
    start = time.perf_counter()
    index = 0
    before = probe()
    while True:
        if count is not None and index >= count:
            break
        if count is None and index >= len(pool) and time.perf_counter() - start >= seconds:
            break
        slot = index % len(pool)
        op = pool[slot]
        t0 = time.perf_counter()
        try:
            outcome, error = op.run(), None
        except Exception as exc:  # a failed op is counted; the loop goes on
            outcome, error = None, exc
        elapsed = time.perf_counter() - t0
        after = probe()
        samples.append(Sample(op, slot, elapsed, outcome, error,
                              CALIBRATION_REF_S * 2 / (before + after)))
        before = after
        index += 1
    return samples, time.perf_counter() - start, index / len(pool)


def check_samples(samples: list[Sample]) -> tuple[list[str], set[int], set[int]]:
    """Failure descriptions for every failed run of an op, and the failed slots.

    Returns the descriptions, the pool slots with any failed run, and the
    slots with any run that returned a wrong result (rather than raising).
    """
    failures: list[str] = []
    failed: set[int] = set()
    wrong: set[int] = set()
    for s in samples:
        if s.error is not None:
            failures.append(f"{s.op.label}: raised {describe(s.error)}")
            failed.add(s.slot)
            continue
        try:
            problems = s.op.check(s.outcome)
        except Exception as exc:  # a check that cannot run marks the op wrong
            problems = [f"check raised {describe(exc)}"]
        if problems:
            failures.append(f"{s.op.label}: " + "; ".join(problems))
            failed.add(s.slot)
            wrong.add(s.slot)
    return failures, failed, wrong


def rate(samples: list[Sample], kind: str | None = None) -> float:
    """Ops (of ``kind``, if given) per second of scaled busy time, in the pool's mix.

    Each slot of the pool counts once, at its mean time, so that a run
    that stopped part-way through a pass is not biased towards its start.
    """
    times: dict[int, list[float]] = {}
    for s in samples:
        if kind is None or s.op.kind == kind:
            times.setdefault(s.slot, []).append(s.scaled)
    return len(times) / sum(statistics.fmean(v) for v in times.values())


def slot_weights(samples: list[Sample]) -> list[float]:
    """Weight of each sample so that every slot of the pool weighs the same."""
    counts = Counter(s.slot for s in samples)
    return [1.0 / counts[s.slot] for s in samples]


def quantile(values: list[float], pct: float, weights: list[float]) -> float:
    """Weighted Harrell-Davis estimate of a percentile.

    A Beta-weighted average of all order statistics, with Kish's effective
    sample size: op latencies cluster by op size, and a single order
    statistic jumps between clusters from run to run where this estimate
    moves smoothly. The weights keep a run that stopped part-way through a
    pass from leaning towards the pool's first ops.
    """
    import numpy as np
    from scipy.special import betainc

    order = np.argsort(values)
    x = np.asarray(values, dtype=float)[order]
    w = np.asarray(weights, dtype=float)[order]
    n = w.sum() ** 2 / (w * w).sum()
    p = pct / 100.0
    cum = np.concatenate(([0.0], np.cumsum(w)[:-1] / w.sum(), [1.0]))
    return float(np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), cum)) @ x)


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, reported by ``--setup-probe``."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                           "--workload", name, "--seed", str(seed)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-500:]}")
    return float(proc.stdout.split()[-1])


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": tree.hexdigest(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def measured(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(name: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    workload, first_setup = setup(name, seed, work)
    import workloads

    samples, wall, passes = run_loop(workload, seconds=seconds,
                                     calibrated=workload.calibrated)
    if name == "cli":
        peak_kb = max(s.outcome.maxrss_kb for s in samples if s.outcome is not None)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures, failed, wrong = check_samples(samples)
    attempted = len(workload.ops)
    setups = [first_setup] + [setup_probe(name, seed) for _ in range(SETUP_REPEATS - 1)]

    latencies = [s.scaled for s in samples]
    raw = [s.elapsed for s in samples]
    weights = slot_weights(samples)
    tail = workloads.TAIL_PERCENTILE[name]
    ops_per_s = rate(samples)
    tail_value = quantile(latencies, tail, weights)
    metrics = {
        "setup_s": measured(statistics.median(setups), "s"),
        "ops_per_s": measured(ops_per_s, "1/s"),
        "latency_p50_ms": measured(quantile(latencies, 50, weights) * 1e3, "ms"),
        "latency_tail_ms": measured(tail_value * 1e3, "ms"),
        "ok_ratio": measured((attempted - len(failed)) / attempted, "ratio"),
        "peak_rss_mb": measured(peak_kb / 1024.0, "MB"),
    }
    for cls in workloads.CLASSES:
        metrics[f"{cls}_ops_per_s"] = measured(rate(samples, cls) if name == "dist"
                                               else ops_per_s, "1/s")
    info = {
        "workload": name,
        "why": next(w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())
                    ["workloads"] if w["name"] == name),
        "seed": seed,
        "inputs_sha256": workload.inputs_sha256,
        "environment": environment(),
        "pool_ops": attempted,
        "pool_passes": passes,
        "measured_s": wall,
        "samples": len(samples),
        "failed_samples": len(failures),
        "tail_percentile": tail,
        "samples_beyond_tail": sum(v > tail_value for v in latencies),
        "setup_samples_s": setups,
        "failed_ratio": len(failed) / attempted,
        "failures": failures[:20],
        "class_split": name == "dist",
        "calibrated": workload.calibrated,
        "host_speed": statistics.median(s.scale for s in samples),
        "unscaled": {
            "ops_per_s": len(raw) / sum(raw),
            "latency_p50_ms": quantile(raw, 50, weights) * 1e3,
            "latency_tail_ms": quantile(raw, tail, weights) * 1e3,
        },
    }
    result = {"correct": not wrong, "attempted": attempted, "failed": len(failed),
              "metrics": metrics}
    return info, result


def import_times() -> dict[str, float]:
    """Import costs in fresh interpreters, each the median of a few runs."""
    def child(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)

    def interpreter() -> float:
        start = time.perf_counter()
        child("-c", "pass")
        return time.perf_counter() - start

    def package() -> float:
        code = ("import time; t = time.perf_counter(); import kantorovich; "
                "print(time.perf_counter() - t)")
        return float(child("-c", code).stdout)

    def scipy_optimize() -> float:
        for line in child("-X", "importtime", "-c", "import kantorovich").stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "scipy.optimize":
                return int(fields[1]) / 1e6
        raise RuntimeError("scipy.optimize not imported by kantorovich")

    return {f"import.{name}": statistics.median(fn() for _ in range(IMPORT_REPEATS))
            for name, fn in (("python_s", interpreter), ("kantorovich_s", package),
                             ("scipy_optimize_s", scipy_optimize))}


def traced_run(seed: int, work: Path) -> tuple[dict, dict]:
    import tracing

    tracer = tracing.Tracer()
    extra: dict[str, float] = {}
    attempted = failed = 0
    correct = True
    all_failures: list[str] = []
    for name, count in TRACE_OPS:
        workload, _ = setup(name, seed, work, in_process=True)
        plain, plain_wall, _ = run_loop(workload, count=count)
        with tracing.traced(tracer):
            spanned, spanned_wall, _ = run_loop(workload, count=count)
        untraced = len(plain) / plain_wall
        traced = len(spanned) / spanned_wall
        extra[f"trace.{name}.untraced_ops_per_s"] = untraced
        extra[f"trace.{name}.traced_ops_per_s"] = traced
        extra[f"trace.{name}.overhead_ops_per_s"] = traced - untraced
        if name == "cli":
            extra["cli.stdout_bytes"] = sum(len(s.outcome.stdout) for s in spanned
                                            if s.outcome is not None)
        failures, failed_slots, wrong = check_samples(plain + spanned)
        attempted += count
        failed += len(failed_slots)
        correct = correct and not wrong
        all_failures += failures
    extra.update(import_times())
    values = tracing.layer_values(tracer, extra)
    metrics = {name: measured(values[name], unit) for name, unit, _ in tracing.PER_LAYER}
    info = {"trace": "per-layer spans of a fixed amount of work of every workload",
            "trace_ops": dict(TRACE_OPS), "seed": seed,
            "environment": environment(), "spans": tracer.table(),
            "counts": dict(tracer.counts), "failures": all_failures[:20]}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return info, result


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kantorovich" / "__init__.py").is_file():
        print(f"no library sources at {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                             os.environ.get("PYTHONPATH")]))
    origin = importlib.util.find_spec("kantorovich").origin
    if not Path(origin).resolve().is_relative_to(SRC):
        print(f"kantorovich would be imported from {origin}, not {SRC}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        if args.setup_probe:
            print(setup(args.workload, args.seed, work)[1])
            return 0
        if args.trace:
            info, result = traced_run(args.seed, work)
        else:
            info, result = timed_run(args.workload, args.seed, args.seconds, work)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
