"""The benchmark's three workloads: ``dist``, ``laws`` and ``cli``.

Each workload is a closed loop: one caller in one process starts the next op
only after the previous one returned, as library and command line callers
do. Each workload is a fixed pool of ops, drawn by :mod:`inputs` from the
run's seed; a run goes through the whole pool at least once and then round
it again until its time is up, so every run with a seed attempts the same
instances in the same mix. An op's ``check`` runs after the timed loop and
returns the problems it found.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable

import numpy as np

import kantorovich as K
import kantorovich.cli

import checks
import inputs
from inputs import NORMS

# Per-class throughput is reported for these op kinds; workloads without a
# class split report their overall throughput under each class name.
CLASSES = ("exact", "float", "empirical")

# Highest percentile with at least ten samples beyond it in a 32-second run
# on a slow host when the benchmark was defined (about 85, 135 and 18 ops;
# the CLI falls just short even at the median); fixed per workload so that
# two commits are compared on the same percentile.
TAIL_PERCENTILE = {"dist": 85, "laws": 90, "cli": 50}


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


# ---------------------------------------------------------------------------
# dist

# The 14 (class, n, denominator) variants, the classes interleaved. Exact
# ops alternate the common denominator: 60 keeps the multiset expansion under
# auto's 256 threshold (assignment route), 360 does not (flow route).
DIST_VARIANTS = (
    ("exact", 8, 60), ("float", 8, None), ("empirical", 32, None),
    ("exact", 16, 360), ("exact", 24, 60), ("float", 16, None), ("empirical", 64, None),
    ("exact", 32, 360), ("exact", 8, 360), ("float", 24, None), ("empirical", 128, None),
    ("exact", 16, 60), ("exact", 24, 360), ("exact", 32, 60),
)
# The pool runs the variants six times, each variant twice under each norm
# (l2 tables cost up to twice as much), so every class sees every norm. One
# pass takes about 22 s at the reference speed, so a 32-second run attempts
# every instance of the pool.
DIST_POOL = len(DIST_VARIANTS) * len(NORMS) * 2


def dist_instance(seed: int, slot: int) -> dict:
    """Roster of 2n distinct grid points; p on the first n, q on the last n."""
    rounds, variant = divmod(slot, len(DIST_VARIANTS))
    kind, n, den = DIST_VARIANTS[variant]
    rng = inputs.generator(seed, 1, slot)
    inst = {"kind": kind, "n": n, "norm": NORMS[(rounds + variant) % len(NORMS)],
            "points": inputs.grid_points(rng, 2 * n, 2)}
    if kind == "exact":
        inst.update(den=den, p=inputs.composition(rng, den, n),
                    q=inputs.composition(rng, den, n))
    elif kind == "float":
        inst.update(p=inputs.float_weights(rng, n), q=inputs.float_weights(rng, n))
    else:
        inst.update(p=rng.integers(0, n, size=n).tolist(),
                    q=(n + rng.integers(0, n, size=n)).tolist())
    return inst


class Dist:
    name = "dist"
    calibrated = True

    def __init__(self, seed: int):
        pool = [dist_instance(seed, s) for s in range(DIST_POOL)]
        self.inputs_sha256 = inputs.digest(pool)
        self.ops = [self._op(inst, K.EuclideanSpace(inst["points"], inst["norm"]).to_metric())
                    for inst in pool]

    def warm_up_ops(self) -> list[Op]:
        first = {}
        for op in self.ops:
            first.setdefault(op.kind, op)
        return list(first.values())

    @staticmethod
    def _op(inst: dict, space) -> Op:
        kind, n = inst["kind"], inst["n"]
        left, right = list(range(n)), list(range(n, 2 * n))

        def measures():
            if kind == "exact":
                return (K.DiscreteMeasure.from_rational(space, left, inst["p"], inst["den"]),
                        K.DiscreteMeasure.from_rational(space, right, inst["q"], inst["den"]))
            if kind == "float":
                return (K.DiscreteMeasure(space, left, inst["p"]),
                        K.DiscreteMeasure(space, right, inst["q"]))
            return (K.empirical_sym(K.MultiSet(space, inst["p"])),
                    K.empirical_sym(K.MultiSet(space, inst["q"])))

        def run():
            p, q = measures()
            return p, q, K.wasserstein1(p, q)

        def check(outcome) -> list[str]:
            p, q, result = outcome
            multisets = None
            if kind == "empirical":
                multisets = (K.MultiSet(space, inst["p"]), K.MultiSet(space, inst["q"]))
            return checks.transport_problems(p, q, result, inst["norm"] != "l2", multisets)

        label = f"{kind} n={n}" + (f" den={inst['den']}" if kind == "exact" else "")
        return Op(kind, f"{label} {inst['norm']}", run, check)


# ---------------------------------------------------------------------------
# laws

# About 18 s a pass at the reference speed: a run attempts the whole pool.
LAWS_POOL_TRIPLES = 40
SUITE_TRIALS = 20
ALGEBRA_DIM = 3
ALGEBRA_TRIALS = 100
ALGEBRA_TOL = 1e-10  # the default tolerance of ``kantorovich algebra-check``


def _suite_op(k: int) -> Op:
    def run():
        return K.run_law_suite(trials=SUITE_TRIALS, seed=k)

    def check(results) -> list[str]:
        return [f"law {r.law} failed: {r.worst_discrepancy!r} > {r.tolerance!r}"
                for r in results if not r.passed]

    return Op("suite", f"run_law_suite seed={k}", run, check)


def _trio_op(norm: str, s: int) -> Op:
    def run():
        algebra = K.ConvexAlgebra(ALGEBRA_DIM, norm)
        return {**K.check_algebra_laws(algebra, trials=ALGEBRA_TRIALS, seed=s),
                **K.convex_axioms(algebra, trials=ALGEBRA_TRIALS, seed=s),
                **K.check_metric_compat(algebra, trials=ALGEBRA_TRIALS, seed=s)}

    def check(worst) -> list[str]:
        return [f"{name} discrepancy {v!r} > {ALGEBRA_TOL}"
                for name, v in worst.items() if not v <= ALGEBRA_TOL]

    return Op("trio", f"algebra trio {norm} seed={s}", run, check)


class Laws:
    """A pool of triples: one law suite and two algebra trios, each with its own seed.

    One suite takes about as long as two trios, so each kind gets about half
    the time, and the median and tail latencies fall inside one kind instead
    of on the boundary between two.
    """

    name = "laws"
    calibrated = True

    def __init__(self, seed: int):
        rng = inputs.generator(seed, 2)
        self.seeds = rng.integers(0, 2 ** 31, size=(LAWS_POOL_TRIPLES + 1, 3)).tolist()
        self.inputs_sha256 = inputs.digest(self.seeds)
        self.ops = [op for index, (k, s1, s2) in enumerate(self.seeds[:LAWS_POOL_TRIPLES])
                    for op in (_suite_op(k), _trio_op(NORMS[(2 * index) % 3], s1),
                               _trio_op(NORMS[(2 * index + 1) % 3], s2))]

    def warm_up_ops(self) -> list[Op]:
        k, s, _ = self.seeds[LAWS_POOL_TRIPLES]
        return [_suite_op(k), _trio_op(NORMS[0], s)]


# ---------------------------------------------------------------------------
# cli

CLI_ROSTER = 400
CLI_SUPPORT = 12
CLI_DEN = 360
SMALL_ROSTER = 64
APPROX_EPSILON = 0.01


@dataclass(frozen=True)
class CliOutcome:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int | None


def spawn_cli(argv: list[str], work: Path) -> CliOutcome:
    """Run ``python -m kantorovich.cli`` in a fresh interpreter.

    The child is reaped with ``wait4`` so that its own peak RSS is known.
    """
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "kantorovich.cli", *argv],
                                stdout=out, stderr=err, cwd=work)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliOutcome(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                      usage.ru_maxrss)


def call_cli(argv: list[str], work: Path) -> CliOutcome:
    """Run ``kantorovich.cli.main`` in this process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = kantorovich.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return CliOutcome(code, out.getvalue().encode(), err.getvalue().encode(), None)


class Cli:
    """Every subcommand once per pass of the pool, with identical arguments each pass.

    ``dist``, ``coupling`` and ``dual`` read a 400-point 3-D l2 roster as a
    matrix CSV; the others read a 64-point euclidean JSON space.
    """

    name = "cli"
    # Process start-up and page faults dominate here, and the in-process
    # speed probe does not track them: scaling by it widened the run-to-run
    # spread of CLI latencies, so CLI times are reported as measured.
    calibrated = False

    def __init__(self, seed: int, work: Path, in_process: bool = False):
        self.work = work
        self.invoke = call_cli if in_process else spawn_cli
        rng = inputs.generator(seed, 3)
        roster = inputs.grid_points(rng, CLI_ROSTER, 3)
        self.table = inputs.distance_table(roster, "l2")
        points = rng.permutation(CLI_ROSTER)[:2 * CLI_SUPPORT].tolist()
        self.p_json = {"support": points[:CLI_SUPPORT], "den": CLI_DEN,
                       "num": inputs.composition(rng, CLI_DEN, CLI_SUPPORT)}
        self.q_json = {"support": points[CLI_SUPPORT:], "den": CLI_DEN,
                       "num": inputs.composition(rng, CLI_DEN, CLI_SUPPORT)}
        self.small_points = inputs.grid_points(rng, SMALL_ROSTER, 2)
        self.a = rng.integers(0, SMALL_ROSTER, size=SMALL_ROSTER).tolist()
        self.b = rng.integers(0, SMALL_ROSTER, size=SMALL_ROSTER).tolist()
        self.m_json = {"support": rng.permutation(SMALL_ROSTER)[:CLI_SUPPORT].tolist(),
                       "weights": inputs.float_weights(rng, CLI_SUPPORT)}
        self.law_seed, self.algebra_seed, self.sample_seed = (
            int(v) for v in rng.integers(0, 2 ** 31, size=3))
        self.algebra_norm = NORMS[int(seed) % 3]

        csv = "".join(",".join(map(repr, row)) + "\n" for row in self.table.tolist())
        files = {
            "space.csv": csv,
            "p.json": json.dumps(self.p_json),
            "q.json": json.dumps(self.q_json),
            "small.json": json.dumps({"kind": "euclidean", "norm": "l1",
                                      "points": self.small_points}),
            "a.json": json.dumps(self.a),
            "b.json": json.dumps(self.b),
            "m.json": json.dumps(self.m_json),
        }
        for name, text in files.items():
            (work / name).write_text(text)
        self.inputs_sha256 = inputs.digest(
            {**files, "seeds": [self.law_seed, self.algebra_seed, self.sample_seed],
             "algebra_norm": self.algebra_norm})

        big = ["--space", str(work / "space.csv"), "--p", str(work / "p.json"),
               "--q", str(work / "q.json")]
        small = ["--space", str(work / "small.json"), "--p", str(work / "m.json")]
        self.argvs = {
            "dist": ["dist", *big],
            "coupling": ["coupling", *big],
            "dual": ["dual", *big],
            "power-dist": ["power-dist", "--space", str(work / "small.json"),
                           "--a", str(work / "a.json"), "--b", str(work / "b.json"),
                           "--kind", "multiset"],
            "laws": ["laws", "--trials", str(SUITE_TRIALS), "--seed", str(self.law_seed)],
            "algebra-check": ["algebra-check", "--norm", self.algebra_norm,
                              "--seed", str(self.algebra_seed)],
            "approx": ["approx", *small, "--mode", "rationalize",
                       "--epsilon", repr(APPROX_EPSILON)],
            "sample": ["sample", *small, "--size", str(SMALL_ROSTER),
                       "--seed", str(self.sample_seed)],
        }
        self.reference_stdout: dict[str, bytes] = {}
        self.ops = [Op(kind, kind, self._runner(argv), self._checker(kind))
                    for kind, argv in self.argvs.items()]

    def warm_up_ops(self) -> list[Op]:
        return self.ops[:1]

    def _runner(self, argv):
        return lambda: self.invoke(argv, self.work)

    def _checker(self, kind):
        def check(outcome: CliOutcome) -> list[str]:
            if outcome.code != 0:
                return [f"exit {outcome.code}: {outcome.stderr.decode(errors='replace')[:200]}"]
            try:
                report = json.loads(outcome.stdout)
            except ValueError as exc:
                return [f"stdout is not JSON: {exc}"]
            problems = getattr(self, "_check_" + kind.replace("-", "_"))(report)
            first = self.reference_stdout.setdefault(kind, outcome.stdout)
            if outcome.stdout != first:
                problems.append("stdout differs from an identical earlier invocation")
            return problems
        return check

    # -- in-process oracle, computed once, after the timed loop --------------

    @cached_property
    def big_space(self):
        return K.FiniteMetricSpace(self.table)

    @cached_property
    def small_space(self):
        return K.EuclideanSpace(self.small_points, "l1").to_metric()

    @cached_property
    def transport(self):
        p = K.DiscreteMeasure.from_rational(self.big_space, self.p_json["support"],
                                            self.p_json["num"], CLI_DEN)
        q = K.DiscreteMeasure.from_rational(self.big_space, self.q_json["support"],
                                            self.q_json["num"], CLI_DEN)
        return p, q, K.wasserstein1(p, q), checks.measure_lp_cost(p, q)

    @cached_property
    def small_measure(self):
        return K.DiscreteMeasure(self.small_space, self.m_json["support"],
                                 self.m_json["weights"])

    def _check_dist(self, report) -> list[str]:
        p, q, result, oracle = self.transport
        out = []
        for name, want in (("LP oracle", oracle), ("in-process cost", result.cost)):
            if not abs(report["cost"] - want) <= K.TAU_SOLVER:
                out.append(f"cost {report['cost']!r} differs from the {name} {want!r}")
        if report["solver"] != result.solver:
            out.append(f"solver {report['solver']} differs from in-process {result.solver}")
        if not 0.0 <= report["gap"] <= checks.GAP_TOL:
            out.append(f"gap {report['gap']!r} exceeds {checks.GAP_TOL}")
        return out

    def _check_coupling(self, report) -> list[str]:
        p, q, _, _ = self.transport
        out = self._check_dist(report)
        out += [f"coupling: {v}" for v in report["coupling_violations"]]
        matrix = np.array(report["coupling"]["matrix"])
        if (report["coupling"]["rows"] != list(p.support)
                or report["coupling"]["cols"] != list(q.support)
                or not np.allclose(matrix.sum(axis=1), p.weights, rtol=0, atol=1e-9)
                or not np.allclose(matrix.sum(axis=0), q.weights, rtol=0, atol=1e-9)):
            out.append("coupling marginals do not match the input measures")
        return out

    def _check_dual(self, report) -> list[str]:
        p, q, _, _ = self.transport
        out = self._check_dist(report)
        if not abs(report["dual_value"] - report["cost"]) <= checks.DUAL_TOL:
            out.append(f"dual value {report['dual_value']!r} differs from cost")
        if report["potential"]["points"] != sorted(set(p.support) | set(q.support)):
            out.append("potential is not defined on the joint support")
        return out

    def _check_power_dist(self, report) -> list[str]:
        a, b = K.MultiSet(self.small_space, self.a), K.MultiSet(self.small_space, self.b)
        uniform = np.full(SMALL_ROSTER, 1.0 / SMALL_ROSTER)
        oracle = checks.lp_cost(self.small_space.dist[np.ix_(self.a, self.b)],
                                uniform, uniform)
        out = []
        for name, want in (("LP oracle", oracle),
                           ("in-process multiset metric", K.multiset_distance(a, b))):
            if not abs(report["distance"] - want) <= K.TAU_SOLVER:
                out.append(f"distance {report['distance']!r} differs from the {name} {want!r}")
        return out

    @cached_property
    def law_results(self):
        return [r.to_json() for r in K.run_law_suite(trials=SUITE_TRIALS, seed=self.law_seed)]

    @cached_property
    def algebra_worst(self):
        algebra = K.ConvexAlgebra(ALGEBRA_DIM, self.algebra_norm)
        s = self.algebra_seed
        return {**K.check_algebra_laws(algebra, trials=ALGEBRA_TRIALS, seed=s),
                **K.convex_axioms(algebra, trials=ALGEBRA_TRIALS, seed=s),
                **K.check_metric_compat(algebra, trials=ALGEBRA_TRIALS, seed=s)}

    @cached_property
    def approx_error(self):
        return K.rationalize(self.small_measure, APPROX_EPSILON).w1_error

    @cached_property
    def sample_entries(self):
        return list(K.sample_empirical(self.small_measure, SMALL_ROSTER,
                                       seed=self.sample_seed).entries)

    def _check_laws(self, report) -> list[str]:
        out = [] if report["all_pass"] else ["law suite reports a failing law"]
        if report["results"] != self.law_results:
            out.append("law results differ from the in-process suite")
        return out

    def _check_algebra_check(self, report) -> list[str]:
        out = [] if report["all_pass"] else ["algebra-check reports a failing law"]
        if report["worst"] != self.algebra_worst:
            out.append("algebra discrepancies differ from the in-process checks")
        return out

    def _check_approx(self, report) -> list[str]:
        out = [] if report["within_bound"] else ["approximation error exceeds its bound"]
        if not abs(report["w1_error"] - self.approx_error) <= K.TAU_SOLVER:
            out.append(f"w1_error {report['w1_error']!r} differs from in-process "
                       f"{self.approx_error!r}")
        return out

    def _check_sample(self, report) -> list[str]:
        if report["entries"] != self.sample_entries:
            return ["sampled entries differ from the in-process sampler"]
        return []


def build(name: str, seed: int, work: Path, in_process: bool = False):
    if name == "dist":
        return Dist(seed)
    if name == "laws":
        return Laws(seed)
    return Cli(seed, work, in_process)
