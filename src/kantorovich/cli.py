"""Command line interface.

Every subcommand prints one deterministic JSON report (or CSV, where a table
is the natural shape) on stdout and exits 0. Validation and parse problems
print a machine-readable {"error": {"code", "message"}} object on stderr and
exit 1. The law-suite commands exit 2 when any checked law fails at its
tolerance, so shell scripts can tell "input was bad" from "mathematics broke".
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


def _emit(report: dict, out_format: str, csv=None) -> int:
    """Write the report as canonical JSON, or as CSV text for ``--out csv``
    when the command has a table: ``csv`` is a (header, row strings) pair."""
    if out_format == "csv" and csv is not None:
        header, rows = csv
        sys.stdout.write("\n".join([header, *rows]) + "\n")
    else:
        sys.stdout.write(dump_canonical(report))
    return 0


def _digests(args, *names: str) -> dict:
    """sha256 of each named input file, for the report's ``inputs``."""
    return {name: sha256_file(getattr(args, name)) for name in names}


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


def _common_args(sub: argparse.ArgumentParser, seed: bool = False,
                 tolerance: float | None = None) -> None:
    """The --seed, --tolerance and --out options, for the subcommands that take them."""
    if seed:
        sub.add_argument("--seed", type=_SEED, default=0)
    if tolerance is not None:
        sub.add_argument("--tolerance", type=_FINITE, default=tolerance)
    sub.add_argument("--out", default="json", choices=["json", "csv"])


def _solve(args):
    """Load the space and both measures, solve, and start the report."""
    space = load_space(args.space, tau_metric=TAU_METRIC)
    p = load_measure(args.p, space)
    q = load_measure(args.q, space)
    result = wasserstein1(p, q, solver=args.solver)
    return result, {
        "command": args.command,
        "cost": result.cost,
        "gap": result.gap,
        "solver": result.solver,
        "tolerance": args.tolerance,
        "inputs": _digests(args, "space", "p", "q"),
    }


def _cmd_dist(args) -> int:
    return _emit(_solve(args)[1], args.out)


def _cmd_coupling(args) -> int:
    result, report = _solve(args)
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
    return _emit(report, args.out, ("row,col,mass", rows))


def _cmd_dual(args) -> int:
    result, report = _solve(args)
    dual = result.dual
    report["potential"] = {"points": list(dual.points),
                           "values": [float(v) for v in dual.values]}
    report["dual_value"] = result.cost - result.gap
    return _emit(report, args.out)


def _cmd_power_dist(args) -> int:
    space = load_space(args.space, tau_metric=TAU_METRIC)
    left = load_indices(args.a)
    right = load_indices(args.b)
    digests = _digests(args, "space", "a", "b")
    if args.kind == "tuple":
        value = tuple_distance(PointTuple(space, left), PointTuple(space, right))
        solver = "direct"
    else:
        value = multiset_distance(MultiSet(space, left), MultiSet(space, right))
        solver = "assignment"
    report = {
        "command": "power-dist",
        "kind": args.kind,
        "distance": value,
        "length": len(left),
        "solver": solver,
        "tolerance": args.tolerance,
        "inputs": digests,
    }
    return _emit(report, args.out)


def _cmd_laws(args) -> int:
    results = [r.to_json() for r in run_law_suite(
        trials=args.trials, seed=args.seed, max_points=args.max_points,
        max_support=args.max_support)]
    report = {"command": "laws", "all_pass": all(r["pass"] for r in results),
              "results": results, "trials": args.trials, "seed": args.seed,
              "rng": RNG_ALGORITHM}
    rows = (f"{r['law']},{r['trials']},{r['worst_discrepancy']!r},"
            f"{r['tolerance']!r},{str(r['pass']).lower()}" for r in results)
    code = _emit(report, args.out, ("law,trials,worst_discrepancy,tolerance,pass", rows))
    return code if report["all_pass"] else 2


def _cmd_algebra_check(args) -> int:
    algebra = ConvexAlgebra(args.dim, args.norm)
    laws = check_algebra_laws(algebra, trials=args.trials, seed=args.seed)
    axioms = convex_axioms(algebra, trials=args.trials, seed=args.seed,
                           weight_on_first=not args.weight_on_second)
    compat = check_metric_compat(algebra, trials=args.trials, seed=args.seed)
    worst = {**laws, **axioms, **compat}
    all_pass = all(v <= args.tolerance for v in worst.values())
    report = {
        "command": "algebra-check",
        "carrier": {"dim": args.dim, "norm": args.norm},
        "weight_on_first": not args.weight_on_second,
        "trials": args.trials,
        "seed": args.seed,
        "rng": RNG_ALGORITHM,
        "tolerance": args.tolerance,
        "worst": worst,
        "all_pass": all_pass,
    }
    rows = (f"{name},{worst[name]!r}" for name in sorted(worst))
    code = _emit(report, args.out, ("check,worst_discrepancy", rows))
    return code if all_pass else 2


def _cmd_approx(args) -> int:
    space = load_space(args.space, tau_metric=TAU_METRIC)
    p = load_measure(args.p, space)
    base = {"command": "approx", "mode": args.mode,
            "inputs": _digests(args, "space", "p"), "tolerance": args.tolerance}
    if args.mode == "rationalize":
        if args.epsilon is None:
            raise KantorovichError("cli.arguments", "--epsilon is required for rationalize")
        report_obj = rationalize(p, args.epsilon)
    elif args.mode == "truncate":
        if args.center is None or args.radius is None:
            raise KantorovichError("cli.arguments",
                                   "--center and --radius are required for truncate")
        report_obj = truncate_to_ball(p, args.center, args.radius)
    else:
        rows = convergence_study(p, args.sizes, trials=args.trials, seed=args.seed)
        report = {**base, "rows": rows, "trials": args.trials, "seed": args.seed,
                  "rng": RNG_ALGORITHM}
        lines = (f"{row['n']},{row['median_w1']!r},{row['trials']}" for row in rows)
        return _emit(report, args.out, ("n,median_w1,trials", lines))
    report = {
        **base,
        "w1_error": report_obj.w1_error,
        "bound": report_obj.bound,
        "within_bound": report_obj.w1_error <= report_obj.bound + args.tolerance,
        "params": report_obj.params,
        "approximant": measure_to_json(report_obj.approximant),
    }
    return _emit(report, args.out)


def _cmd_sample(args) -> int:
    space = load_space(args.space, tau_metric=TAU_METRIC)
    p = load_measure(args.p, space)
    drawn = sample_empirical(p, args.size, seed=args.seed)
    report = {
        "command": "sample",
        "size": args.size,
        "seed": args.seed,
        "rng": RNG_ALGORITHM,
        "entries": list(drawn.entries),
        "inputs": _digests(args, "space", "p"),
    }
    return _emit(report, args.out, ("index", (str(v) for v in drawn.entries)))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kantorovich",
        description="Exact optimal transport on finite spaces: distances, "
                    "couplings, dual certificates, and executable law suites.")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, helptext in [("dist", "W1 distance between two measures"),
                           ("coupling", "optimal coupling matrix"),
                           ("dual", "optimal dual potential and certified gap")]:
        sub = subs.add_parser(name, help=helptext)
        sub.add_argument("--space", required=True, help="space file (.json or .csv)")
        sub.add_argument("--p", required=True, help="first measure (.json)")
        sub.add_argument("--q", required=True, help="second measure (.json)")
        sub.add_argument("--solver", default="auto", choices=SOLVERS)
        _common_args(sub, tolerance=TAU_SOLVER)

    power = subs.add_parser("power-dist", help="distance between tuples or multisets")
    power.add_argument("--space", required=True)
    power.add_argument("--a", required=True, help="first index array (.json)")
    power.add_argument("--b", required=True, help="second index array (.json)")
    power.add_argument("--kind", default="tuple", choices=["tuple", "multiset"])
    _common_args(power, tolerance=TAU_SOLVER)

    laws = subs.add_parser("laws", help="run the randomized law suite")
    laws.add_argument("--trials", type=_POSITIVE, default=100)
    laws.add_argument("--max-points", type=_TWO_OR_MORE, default=6)
    laws.add_argument("--max-support", type=_POSITIVE, default=4)
    _common_args(laws, seed=True)

    algebra = subs.add_parser("algebra-check", help="check convex-algebra laws on R^d")
    algebra.add_argument("--dim", type=_POSITIVE, default=3)
    algebra.add_argument("--norm", default="l2", choices=["l1", "l2", "linf"])
    algebra.add_argument("--trials", type=_POSITIVE, default=100)
    algebra.add_argument("--weight-on-second", action="store_true",
                         help="flip the binary-operation convention so the "
                              "weight multiplies the second argument")
    _common_args(algebra, seed=True, tolerance=1e-10)

    approx = subs.add_parser("approx", help="approximate a measure and certify the error")
    approx.add_argument("--space", required=True)
    approx.add_argument("--p", required=True)
    approx.add_argument("--mode", required=True, choices=["rationalize", "truncate", "study"])
    approx.add_argument("--epsilon", type=_FINITE, default=None)
    approx.add_argument("--center", type=int, default=None)
    approx.add_argument("--radius", type=_FINITE, default=None)
    approx.add_argument("--sizes", type=_SIZES, default="8,16,32,64,128")
    approx.add_argument("--trials", type=_POSITIVE, default=50)
    _common_args(approx, seed=True, tolerance=TAU_SOLVER)

    sample = subs.add_parser("sample", help="draw an empirical multiset from a measure")
    sample.add_argument("--space", required=True)
    sample.add_argument("--p", required=True)
    sample.add_argument("--size", type=_POSITIVE, required=True)
    _common_args(sample, seed=True)

    return parser


_HANDLERS = {
    "dist": _cmd_dist,
    "coupling": _cmd_coupling,
    "dual": _cmd_dual,
    "power-dist": _cmd_power_dist,
    "laws": _cmd_laws,
    "algebra-check": _cmd_algebra_check,
    "approx": _cmd_approx,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except KantorovichError as exc:
        sys.stderr.write(dump_canonical({"error": {"code": exc.code, "message": exc.message}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
