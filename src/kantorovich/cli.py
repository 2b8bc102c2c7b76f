"""Command line interface.

Every subcommand prints one deterministic JSON report (or CSV, where a table
is the natural shape) on stdout and exits 0. Validation and parse problems
print a machine-readable {"error": {"code", "message"}} object on stderr and
exit 1. The law-suite commands exit 2 when any checked law fails at its
tolerance, so shell scripts can tell "input was bad" from "mathematics broke".

Each subcommand declares in ``build_parser`` the files it reads, in the order
they are read, and a handler that turns the loaded files and the options into
a report and, where it has one, a table. ``main`` alone loads the files,
stamps the report with ``command``, the sha256 of each declared file under
``inputs`` and, where the subcommand takes one, ``tolerance``, and writes it.
"""

from __future__ import annotations

import argparse
import sys

from .algebras import ConvexAlgebra, check_algebra_laws, check_metric_compat, convex_axioms
from .approx import convergence_study, rationalize, sample_empirical, truncate_to_ball
from .errors import KantorovichError
from .fileio import dump_canonical, load_indices, load_measure, load_space, measure_to_json, sha256_file
from .laws import run_law_suite
from .power import MultiSet, PointTuple, multiset_distance, tuple_distance
from .samplers import RNG_ALGORITHM
from .spaces import _real
from .tolerances import TAU_METRIC, TAU_SOLVER
from .transport import SOLVERS, validate_coupling, wasserstein1

# The input files by option name: the option's help, and how ``main`` loads
# the file at a path, given the space read before it. The loaders are looked
# up in this module when called, never stored, so that a tracer that rebinds
# them here (perfbench's does) sees every load.
_FILES = {
    "space": ("space file (.json or .csv)",
              lambda path, space: load_space(path, tau_metric=TAU_METRIC)),
    "p": ("measure p (.json)", lambda path, space: load_measure(path, space)),
    "q": ("measure q (.json)", lambda path, space: load_measure(path, space)),
    "a": ("first index array (.json)", lambda path, space: load_indices(path)),
    "b": ("second index array (.json)", lambda path, space: load_indices(path)),
}


class _Parser(argparse.ArgumentParser):
    """Invocation errors are cli.arguments errors, which ``main`` reports
    like every other validation failure: error JSON on stderr, exit status
    1. Exit status 2 stays reserved for law-suite failures."""

    def error(self, message: str) -> None:  # noqa: D401 (argparse hook)
        raise KantorovichError("cli.arguments", f"{self.prog}: {message}")


def _option(convert, what: str, accept=lambda value: True):
    """argparse type: ``convert(text)`` if that succeeds and passes
    ``accept``, else an invocation error saying the text is not ``what``."""
    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, KantorovichError):
            pass
        else:
            if accept(value):
                return value
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return parse


# Seeds feed a SeedSequence; NaN and the infinities have no JSON form.
_SEED = _option(int, "a nonnegative integer", lambda value: value >= 0)
_FINITE = _option(lambda text: _real(float(text), "value", "cli.arguments"), "a finite number")
_SIZES = _option(lambda text: [int(s) for s in text.split(",") if s],
                 "a comma-separated list of positive integers",
                 lambda sizes: sizes and min(sizes) >= 1)
# Counts: zero trials would check nothing, a space or a sample has at least
# one point, and the law-suite samplers draw spaces of at least two points
# and supports of at least one.
_POSITIVE = _option(int, "a positive integer", lambda value: value >= 1)
_TWO_OR_MORE = _option(int, "an integer of at least 2", lambda value: value >= 2)


def _transport(args, p, q):
    """The solve that dist, coupling and dual share, and the report fields they share."""
    result = wasserstein1(p, q, solver=args.solver)
    return result, {"cost": result.cost, "gap": result.gap, "solver": result.solver}


def _cmd_dist(args, space, p, q):
    return _transport(args, p, q)[1], None


def _cmd_coupling(args, space, p, q):
    result, report = _transport(args, p, q)
    coupling = result.coupling
    matrix = coupling.matrix
    report["coupling"] = {
        "rows": list(coupling.p.support),
        "cols": list(coupling.q.support),
        "matrix": [[float(v) for v in row] for row in matrix],
    }
    report["coupling_violations"] = validate_coupling(coupling, args.tolerance)
    rows = (f"{x},{y},{float(matrix[i, j])!r}"
            for i, x in enumerate(coupling.p.support)
            for j, y in enumerate(coupling.q.support) if matrix[i, j] > 0.0)
    return report, ("row,col,mass", rows)


def _cmd_dual(args, space, p, q):
    result, report = _transport(args, p, q)
    dual = result.dual
    report["potential"] = {"points": list(dual.points),
                           "values": [float(v) for v in dual.values]}
    report["dual_value"] = result.cost - result.gap
    return report, None


def _cmd_power_dist(args, space, a, b):
    if args.kind == "tuple":
        value, solver = tuple_distance(PointTuple(space, a), PointTuple(space, b)), "direct"
    else:
        value, solver = multiset_distance(MultiSet(space, a), MultiSet(space, b)), "assignment"
    return {"kind": args.kind, "distance": value, "length": len(a), "solver": solver}, None


def _cmd_laws(args):
    results = [r.to_json() for r in run_law_suite(
        trials=args.trials, seed=args.seed, max_points=args.max_points,
        max_support=args.max_support)]
    report = {"all_pass": all(r["pass"] for r in results), "results": results,
              "trials": args.trials, "seed": args.seed, "rng": RNG_ALGORITHM}
    rows = (f"{r['law']},{r['trials']},{r['worst_discrepancy']!r},"
            f"{r['tolerance']!r},{str(r['pass']).lower()}" for r in results)
    return report, ("law,trials,worst_discrepancy,tolerance,pass", rows)


def _cmd_algebra_check(args):
    algebra = ConvexAlgebra(args.dim, args.norm)
    laws = check_algebra_laws(algebra, trials=args.trials, seed=args.seed)
    axioms = convex_axioms(algebra, trials=args.trials, seed=args.seed,
                           weight_on_first=not args.weight_on_second)
    compat = check_metric_compat(algebra, trials=args.trials, seed=args.seed)
    worst = {**laws, **axioms, **compat}
    report = {
        "carrier": {"dim": args.dim, "norm": args.norm},
        "weight_on_first": not args.weight_on_second,
        "trials": args.trials,
        "seed": args.seed,
        "rng": RNG_ALGORITHM,
        "worst": worst,
        "all_pass": all(v <= args.tolerance for v in worst.values()),
    }
    rows = (f"{name},{worst[name]!r}" for name in sorted(worst))
    return report, ("check,worst_discrepancy", rows)


def _cmd_approx(args, space, p):
    if args.mode == "study":
        rows = convergence_study(p, args.sizes, trials=args.trials, seed=args.seed)
        lines = (f"{row['n']},{row['median_w1']!r},{row['trials']}" for row in rows)
        return ({"mode": args.mode, "rows": rows, "trials": args.trials, "seed": args.seed,
                 "rng": RNG_ALGORITHM}, ("n,median_w1,trials", lines))
    if args.mode == "rationalize":
        if args.epsilon is None:
            raise KantorovichError("cli.arguments", "--epsilon is required for rationalize")
        made = rationalize(p, args.epsilon)
    else:
        if args.center is None or args.radius is None:
            raise KantorovichError("cli.arguments",
                                   "--center and --radius are required for truncate")
        made = truncate_to_ball(p, args.center, args.radius)
    return {
        "mode": args.mode,
        "w1_error": made.w1_error,
        "bound": made.bound,
        "within_bound": made.w1_error <= made.bound + args.tolerance,
        "params": made.params,
        "approximant": measure_to_json(made.approximant),
    }, None


def _cmd_sample(args, space, p):
    drawn = sample_empirical(p, args.size, seed=args.seed)
    report = {"size": args.size, "seed": args.seed, "rng": RNG_ALGORITHM,
              "entries": list(drawn.entries)}
    return report, ("index", (str(v) for v in drawn.entries))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kantorovich",
        description="Exact optimal transport on finite spaces: distances, "
                    "couplings, dual certificates, and executable law suites.")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, helptext, files=(), seed=False, tolerance=None):
        """Declare a subcommand: its files in read order, --seed, --tolerance and --out."""
        sub = subs.add_parser(name, help=helptext)
        for flag in files:
            sub.add_argument(f"--{flag}", required=True, help=_FILES[flag][0])
        if seed:
            sub.add_argument("--seed", type=_SEED, default=0)
        if tolerance is not None:
            sub.add_argument("--tolerance", type=_FINITE, default=tolerance)
        sub.add_argument("--out", default="json", choices=["json", "csv"])
        sub.set_defaults(handler=handler, files=files)
        return sub

    for name, handler, helptext in [
            ("dist", _cmd_dist, "W1 distance between two measures"),
            ("coupling", _cmd_coupling, "optimal coupling matrix"),
            ("dual", _cmd_dual, "optimal dual potential and certified gap")]:
        sub = command(name, handler, helptext, ("space", "p", "q"), tolerance=TAU_SOLVER)
        sub.add_argument("--solver", default="auto", choices=SOLVERS)

    power = command("power-dist", _cmd_power_dist, "distance between tuples or multisets",
                    ("space", "a", "b"), tolerance=TAU_SOLVER)
    power.add_argument("--kind", default="tuple", choices=["tuple", "multiset"])

    laws = command("laws", _cmd_laws, "run the randomized law suite", seed=True)
    laws.add_argument("--trials", type=_POSITIVE, default=100)
    laws.add_argument("--max-points", type=_TWO_OR_MORE, default=6)
    laws.add_argument("--max-support", type=_POSITIVE, default=4)

    algebra = command("algebra-check", _cmd_algebra_check, "check convex-algebra laws on R^d",
                      seed=True, tolerance=1e-10)
    algebra.add_argument("--dim", type=_POSITIVE, default=3)
    algebra.add_argument("--norm", default="l2", choices=["l1", "l2", "linf"])
    algebra.add_argument("--trials", type=_POSITIVE, default=100)
    algebra.add_argument("--weight-on-second", action="store_true",
                         help="flip the binary-operation convention so the "
                              "weight multiplies the second argument")

    approx = command("approx", _cmd_approx, "approximate a measure and certify the error",
                     ("space", "p"), seed=True, tolerance=TAU_SOLVER)
    approx.add_argument("--mode", required=True, choices=["rationalize", "truncate", "study"])
    approx.add_argument("--epsilon", type=_FINITE, default=None)
    approx.add_argument("--center", type=int, default=None)
    approx.add_argument("--radius", type=_FINITE, default=None)
    approx.add_argument("--sizes", type=_SIZES, default="8,16,32,64,128")
    approx.add_argument("--trials", type=_POSITIVE, default=50)

    sample = command("sample", _cmd_sample, "draw an empirical multiset from a measure",
                     ("space", "p"), seed=True)
    sample.add_argument("--size", type=_POSITIVE, required=True)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        loaded: dict = {}
        for name in args.files:
            loaded[name] = _FILES[name][1](getattr(args, name), loaded.get("space"))
        report, csv = args.handler(args, **loaded)
        report["command"] = args.command
        if args.files:
            report["inputs"] = {name: sha256_file(getattr(args, name)) for name in args.files}
        if "tolerance" in args:
            report["tolerance"] = args.tolerance
    except KantorovichError as exc:
        sys.stderr.write(dump_canonical({"error": {"code": exc.code, "message": exc.message}}))
        return 1
    if args.out == "csv" and csv is not None:
        header, rows = csv
        sys.stdout.write("\n".join([header, *rows]) + "\n")
    else:
        sys.stdout.write(dump_canonical(report))
    return 2 if report.get("all_pass") is False else 0


if __name__ == "__main__":
    sys.exit(main())
