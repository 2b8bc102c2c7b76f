"""Acceptance gate: ten criteria, one test (and one printed verdict line) each.

Every criterion pins its own tolerance and instance family. Tolerances here
are contractual — do not loosen them to make a failure go away; a failure
means the library broke.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

from kantorovich import (ConvexAlgebra, DiscreteMeasure, EuclideanSpace,
                         MultiSet,
                         bistochastic_min, check_algebra_laws,
                         check_assoc_square, check_double_quotient,
                         check_expectation_flatten, check_iota_isometry,
                         check_metric_compat, check_monad_laws,
                         check_ppx_square, convergence_study, convex_axioms,
                         curry_flatten, dirac, first_moment, mixture,
                         multiset_distance, multiset_distance_bruteforce,
                         nested_tuple_distance, precompose, pushforward,
                         rationalize, repeat_embedding,
                         truncate_to_ball, tuple_distance,
                         unit_discrepancy_multiset, unit_discrepancy_tuple,
                         w1_bruteforce, w1_dual_value, w1_flow, wasserstein1)
from kantorovich.samplers import (random_euclidean_space, random_finunif,
                                  random_measure, random_metric_space,
                                  random_multiset, random_nested_multiset,
                                  random_nested_tuple, random_rational_pair,
                                  random_space, random_tuple, rng_from)


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {number:2d} — {label}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_flow_equals_bruteforce():
    """200 rational instances (roster <= 8, denominator <= 7), within 1e-8,
    in under 10 seconds."""
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        rng = rng_from(1001, trial)
        space = random_metric_space(rng, int(rng.integers(2, 9)))
        den = int(rng.integers(2, 8))
        p, q = random_rational_pair(rng, space, max_support=4, den=den)
        gap = abs(w1_flow(p, q).cost - w1_bruteforce(p, q))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _verdict(1, "flow equals brute force on 200 rational instances",
             worst <= 1e-8 and elapsed < 10.0,
             f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_duality_gap():
    """200 instances (rational and float weights): certified gap in [0, 1e-8]."""
    worst = -1.0
    negative = False
    for trial in range(200):
        rng = rng_from(1002, trial)
        space = random_space(rng, max_points=7)
        if trial % 2 == 0:
            p, q = random_rational_pair(rng, space, max_support=4,
                                        den=int(rng.integers(2, 10)))
        else:
            p = random_measure(rng, space, max_support=4, exact=False)
            q = random_measure(rng, space, max_support=4, exact=False)
        result = w1_flow(p, q)
        negative = negative or result.gap < 0.0
        worst = max(worst, result.gap)
        # the dual really attains cost - gap
        attained = w1_dual_value(p, q, result.dual)
        worst = max(worst, abs(attained - (result.cost - result.gap)))
    _verdict(2, "duality gap within [0, 1e-8] on 200 instances",
             not negative and worst <= 1e-8, f"worst {worst:.2e}")


def test_criterion_03_multiset_metric_equivalence():
    """200 uniform pairs with n <= 6: assignment = flow = permutation scan."""
    worst = 0.0
    for trial in range(200):
        rng = rng_from(1003, trial)
        space = random_metric_space(rng, 6)
        n = int(rng.integers(1, 7))
        a = MultiSet(space, rng.integers(0, 6, size=n).tolist())
        b = MultiSet(space, rng.integers(0, 6, size=n).tolist())
        via_assignment = multiset_distance(a, b)
        via_flow = bistochastic_min(a, b)
        via_scan = multiset_distance_bruteforce(a, b)
        worst = max(worst, abs(via_assignment - via_flow),
                    abs(via_assignment - via_scan))
    _verdict(3, "assignment = flow = brute on 200 uniform pairs",
             worst <= 1e-8, f"worst {worst:.2e}")


def test_criterion_04_isometry_suite():
    """Five isometric maps, 100 instances each, discrepancy <= 1e-8."""
    worst = {"dirac": 0.0, "empirical": 0.0, "repeat": 0.0,
             "precompose": 0.0, "curry_flatten": 0.0}
    for trial in range(100):
        rng = rng_from(1004, trial)
        space = random_space(rng, max_points=6)

        x, y = (int(v) for v in rng.integers(0, space.n, size=2))
        worst["dirac"] = max(worst["dirac"],
                             abs(wasserstein1(dirac(space, x), dirac(space, y)).cost
                                 - space.d(x, y)))

        n = int(rng.integers(1, 5))
        a = random_multiset(rng, space, n)
        b = random_multiset(rng, space, n)
        worst["empirical"] = max(worst["empirical"], check_iota_isometry(a, b))

        k = int(rng.integers(2, 5))
        worst["repeat"] = max(worst["repeat"],
                              abs(multiset_distance(repeat_embedding(a, k),
                                                    repeat_embedding(b, k))
                                  - multiset_distance(a, b)))

        fiber = int(rng.integers(1, 4))
        phi = random_finunif(rng, n, fiber)
        ta = random_tuple(rng, space, n)
        tb = random_tuple(rng, space, n)
        worst["precompose"] = max(worst["precompose"],
                                  abs(tuple_distance(precompose(phi, ta),
                                                     precompose(phi, tb))
                                      - tuple_distance(ta, tb)))

        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        na = random_nested_tuple(rng, space, rows, cols)
        nb = random_nested_tuple(rng, space, rows, cols)
        worst["curry_flatten"] = max(worst["curry_flatten"],
                                     abs(tuple_distance(curry_flatten(na),
                                                        curry_flatten(nb))
                                         - nested_tuple_distance(na, nb)))
    bad = {k: v for k, v in worst.items() if v > 1e-8}
    _verdict(4, "isometry suite (dirac, empirical, repeat, precompose, flatten)",
             not bad, f"worst {max(worst.values()):.2e}")


def test_criterion_05_monad_laws():
    """100 trials per law: exactly 0 on the rational path, <= 1e-12 on floats."""
    exact = check_monad_laws(trials=100, seed=1005, max_points=6, max_support=4)
    floats = check_monad_laws(trials=100, seed=1005, max_points=6, max_support=4,
                              exact=False)
    ok = all(v == 0.0 for v in exact.values()) \
        and all(v <= 1e-12 for v in floats.values())
    _verdict(5, "monad laws (unit x2, associativity)", ok,
             f"exact {max(exact.values()):.1e}, float {max(floats.values()):.1e}")


def test_criterion_06_graded_coherence():
    """100 random nestings with arities <= 3: every coherence square lands on
    canonical-form equality (exact zeros / exact set equality)."""
    ok = True
    for trial in range(100):
        rng = rng_from(1006, trial)
        space = random_metric_space(rng, 5)
        n = int(rng.integers(1, 4))
        ok &= unit_discrepancy_tuple(random_tuple(rng, space, n)) == 0.0
        ok &= unit_discrepancy_multiset(random_multiset(rng, space, n)) == 0.0
        dims = [int(rng.integers(1, 4)) for _ in range(3)]
        grid3 = [[[int(rng.integers(0, 5)) for _ in range(dims[2])]
                  for _ in range(dims[1])] for _ in range(dims[0])]
        ok &= check_assoc_square(space, grid3) == 0.0
        ok &= check_assoc_square(space, grid3, symmetrized=True) == 0.0
        outer, inner = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        nt = random_nested_tuple(rng, space, outer, inner)
        ok &= check_double_quotient(nt) == 0.0
        nms = random_nested_multiset(rng, space, outer, inner)
        ok &= check_expectation_flatten(nms) == 0.0
        ok &= check_ppx_square(nms)
        if not ok:
            break
    _verdict(6, "graded coherence squares exact on 100 nestings", ok)


def test_criterion_07_closed_form_lemmas():
    """W1 against a point mass is the first moment; mixing with a common
    measure scales W1 by exactly the mixing weight; pushforward along short
    maps contracts; isometric embeddings leave W1 unchanged. 100 each."""
    worst_moment = worst_contract = worst_short = worst_embed = 0.0
    for trial in range(100):
        rng = rng_from(1007, trial)
        space = random_space(rng, max_points=6)
        p = random_measure(rng, space, max_support=4)
        x0 = int(rng.integers(0, space.n))
        worst_moment = max(worst_moment,
                           abs(w1_flow(dirac(space, x0), p).cost
                               - first_moment(p, x0)))

        q1 = random_measure(rng, space, max_support=4)
        q2 = random_measure(rng, space, max_support=4)
        lam = Fraction(int(rng.integers(0, 9)), 8)
        lhs = w1_flow(mixture([lam, 1 - lam], [q1, p]),
                      mixture([lam, 1 - lam], [q2, p])).cost
        worst_contract = max(worst_contract,
                             abs(lhs - float(lam) * w1_flow(q1, q2).cost))

        # coordinatewise shrink: a short map between euclidean rosters
        dim = int(rng.integers(1, 4))
        base = random_euclidean_space(rng, 5, dim, "l2")
        shrunk = EuclideanSpace(base.coords * 0.5, "l2").to_metric()
        pa = random_measure(rng, base, max_support=3)
        pb = random_measure(rng, base, max_support=3)
        ident = list(range(5))
        before = w1_flow(pa, pb).cost
        after = w1_flow(pushforward(ident, pa, shrunk),
                        pushforward(ident, pb, shrunk)).cost
        worst_short = max(worst_short, max(0.0, after - before))

        big = random_euclidean_space(rng, 7, dim, "l2")
        small = EuclideanSpace(big.coords[:4], "l2").to_metric()
        sa = random_measure(rng, small, max_support=3)
        sb = random_measure(rng, small, max_support=3)
        emb = list(range(4))
        worst_embed = max(worst_embed,
                          abs(w1_flow(sa, sb).cost
                              - w1_flow(pushforward(emb, sa, big),
                                        pushforward(emb, sb, big)).cost))
    ok = max(worst_moment, worst_contract, worst_short, worst_embed) <= 1e-8
    _verdict(7, "closed-form lemmas (first moment, contraction, short, embed)",
             ok, f"worst {max(worst_moment, worst_contract, worst_short, worst_embed):.2e}")


def test_criterion_08_algebra_laws():
    """Barycenter algebra laws within 1e-10 on R^d, d <= 4, all three norms;
    metric compatibility equality within 1e-10; the general inequality never
    violated."""
    worst_all = 0.0
    violated = False
    for norm in ("l1", "l2", "linf"):
        for dim in (1, 2, 3, 4):
            algebra = ConvexAlgebra(dim, norm)
            laws = check_algebra_laws(algebra, trials=100, seed=1008)
            axioms = convex_axioms(algebra, trials=100, seed=1008)
            compat = check_metric_compat(algebra, trials=100, seed=1008)
            worst_all = max(worst_all, *laws.values(), *axioms.values(),
                            compat["binary_equality"])
            # the inequality is exact mathematics; float evaluation order can
            # leak a few ulps, so "violated" means beyond the criterion's
            # own 1e-10, not beyond machine epsilon
            violated = violated or compat["general_violation"] > 1e-10
    _verdict(8, "algebra laws on R^d for all norms", worst_all <= 1e-10
             and not violated, f"worst {worst_all:.2e}")


def test_criterion_09_density_steps():
    """Rationalization error within its proof bound on every trial; ball
    truncation's closed formula equals the solver; empirical medians
    nonincreasing (at most one inversion per sweep)."""
    bound_ok = True
    for trial in range(60):
        rng = rng_from(1009, trial)
        space = random_space(rng, max_points=6)
        p = random_measure(rng, space, max_support=4,
                           exact=bool(trial % 2))
        eps = float(rng.choice([0.5, 0.1, 0.01, 1e-3]))
        report = rationalize(p, eps)
        bound_ok &= report.w1_error <= report.bound

    truncate_worst = 0.0
    for trial in range(60):
        rng = rng_from(1019, trial)
        space = random_space(rng, max_points=6)
        p = random_measure(rng, space, max_support=4)
        center = int(rng.integers(0, space.n))
        radius = float(rng.integers(0, 9))
        report = truncate_to_ball(p, center, radius)
        truncate_worst = max(truncate_worst,
                             abs(report.w1_error - report.bound))

    sizes = [8, 16, 32, 64, 128]
    inversions_ok = True
    line = EuclideanSpace([[0.0], [1.0], [2.0], [5.0], [9.0]], "l2").to_metric()
    targets = [
        DiscreteMeasure.from_rational(line, [0, 1, 2, 3, 4], [1, 2, 2, 2, 1], 8),
        DiscreteMeasure.from_rational(line, [0, 4], [3, 1], 4),
    ]
    for idx, target in enumerate(targets):
        rows = convergence_study(target, sizes, trials=50, seed=1009 + idx)
        medians = [row["median_w1"] for row in rows]
        inversions = sum(1 for i in range(len(medians) - 1)
                         if medians[i + 1] > medians[i] + 1e-12)
        inversions_ok &= inversions <= 1
    ok = bound_ok and truncate_worst <= 1e-8 and inversions_ok
    _verdict(9, "approximation: bounds, truncation formula, convergence",
             ok, f"truncate worst {truncate_worst:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    """`laws --seed 7` twice is byte-identical; malformed inputs exit with the
    documented code and machine-readable error objects."""
    cli = [sys.executable, "-m", "kantorovich.cli"]
    first = subprocess.run(cli + ["laws", "--seed", "7", "--trials", "40"],
                           capture_output=True, text=True)
    second = subprocess.run(cli + ["laws", "--seed", "7", "--trials", "40"],
                            capture_output=True, text=True)
    identical = first.stdout == second.stdout and first.returncode == 0

    space = tmp_path / "space.json"
    space.write_text(json.dumps(
        {"kind": "matrix", "dist": [[0, 1], [1, 0]]}))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"support": [0, 1], "den": 2, "num": [1, 1]}))
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    nonmetric = tmp_path / "nonmetric.json"
    nonmetric.write_text(json.dumps(
        {"kind": "matrix", "dist": [[0, 1, 9], [1, 0, 1], [9, 1, 0]]}))

    def run(*args):
        return subprocess.run(cli + list(map(str, args)),
                              capture_output=True, text=True)

    ok_exit = run("dist", "--space", space, "--p", good, "--q", good)
    bad_measure = run("dist", "--space", space, "--p", garbled, "--q", good)
    bad_space = run("dist", "--space", nonmetric, "--p", good, "--q", good)
    missing = run("dist", "--space", space, "--p", tmp_path / "nope.json",
                  "--q", good)
    codes_ok = (
        ok_exit.returncode == 0
        and bad_measure.returncode == 1
        and json.loads(bad_measure.stderr)["error"]["code"] == "parse.measure"
        and bad_space.returncode == 1
        and json.loads(bad_space.stderr)["error"]["code"] == "invariant.space"
        and missing.returncode == 1
        and json.loads(missing.stderr)["error"]["code"] == "io.not_found"
    )
    _verdict(10, "CLI determinism and exit codes", identical and codes_ok)
