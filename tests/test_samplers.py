"""The samplers draw small integer batches one value at a time: k scalar
``Generator.integers(low, high)`` calls take the same values from the PCG64
stream as one ``integers(low, high, size=k)`` call and leave the generator
in the same state, so every seeded law check keeps its instances. A numpy
release that breaks this fails here first, not as a moved law digest."""

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import kantorovich.algebras
import kantorovich.cli
import kantorovich.graded
import kantorovich.laws
import kantorovich.monad
from kantorovich import (ConvexAlgebra, Coupling, DiscreteMeasure, DualPotential, FinUnifMap,
                         FiniteMetricSpace, MultiSet, NestedMeasure, NestedMultiSet, NestedTuple,
                         PointTuple, ValidationError, check_algebra_laws, check_expectation_flatten,
                         check_monad_laws, check_ppx_square, curry_flatten, dirac, empirical,
                         empirical_sym, flatten_multiset, mixture, nested_dirac,
                         nested_weight_discrepancy, precompose, quotient, repeat_embedding,
                         run_law_suite, unit_discrepancy_multiset, unit_discrepancy_tuple, w1_flow)
from kantorovich.samplers import (random_euclidean_space, random_measure, random_metric_space,
                                  random_multiset, random_nested_multiset, random_nested_tuple,
                                  random_rational_pair, random_space, random_tuple, rng_from,
                                  sweep)

# (low, high) of every scalar draw site: simplex cuts (0, den + 1) for the
# denominators 1 to 16, points of spaces of up to 17 points (tuples,
# multisets, nestings, the Dirac pair and the algebra samples and blocks),
# grid coordinates (-8, 9) and the associativity nesting sizes (1, 4).
_RANGES = [(0, high) for high in range(1, 18)] + [(-8, 9), (1, 4)]
# Every count up to 6, and the algebra blocks up to 3 x 4, drawn row by row.
_SHAPES = [(k,) for k in range(7)] + [(rows, cols) for rows in range(1, 4) for cols in range(1, 5)]


@pytest.mark.parametrize("low, high", _RANGES)
def test_scalar_integer_draws_equal_one_sized_draw(low, high):
    sized, scalar = rng_from(high, low + 8), rng_from(high, low + 8)
    for _ in range(10):
        for shape in _SHAPES:
            values = sized.integers(low, high, size=shape).reshape(-1).tolist()
            drawn = [scalar.integers(low, high) for _ in values]
            assert all(type(v) is np.int64 for v in drawn)
            assert [int(v) for v in drawn] == values
            assert scalar.bit_generator.state == sized.bit_generator.state


def test_sweep_keeps_a_nan_as_the_worst_value():
    nan, inf = math.nan, math.inf
    worst = sweep(3, rng_from(0), ("a", "b"), lambda rng: (nan, inf))
    assert math.isnan(worst["a"]) and worst["b"] == inf
    # Numbers before and after the NaN, larger ones too, leave it the worst.
    values = iter([(0.5,), (nan,), (2.0,), (inf,)])
    assert math.isnan(sweep(4, rng_from(0), ("a",), lambda rng: next(values))["a"])
    values = iter([(0.5,), (2.0,), (1.0,)])
    assert sweep(3, rng_from(0), ("a",), lambda rng: next(values)) == {"a": 2.0}


def test_a_nan_trial_fails_its_law_and_the_command(monkeypatch, cli):
    # One law whose second trial yields NaN, and an algebra check that
    # yields NaN: each reads as failed, and the command exits 2.
    values = iter([0.0, math.nan, 0.0])
    monkeypatch.setattr(kantorovich.laws, "_SWEPT_LAWS",
                        (("nan_law", 99, lambda rng: next(values), 1.0),))
    proc = cli("laws", "--trials", "3")
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["all_pass"] is False
    assert [r["pass"] for r in report["results"] if r["law"] == "nan_law"] == [False]

    monkeypatch.setattr(kantorovich.cli, "check_metric_compat",
                        lambda algebra, trials, seed: sweep(trials, rng_from(seed), ("nan",),
                                                            lambda rng: (math.nan,)))
    proc = cli("algebra-check", "--dim", "2", "--trials", "2")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["all_pass"] is False


def test_a_nan_discrepancy_is_not_read_as_zero(monkeypatch):
    # The triangle and short-map laws clip a difference of costs at 0, and the
    # nested-measure and unit-triangle checks take the largest of several
    # discrepancies; a NaN among them must come out as the worst value.
    monkeypatch.setattr(kantorovich.laws, "w1_flow", lambda p, q: SimpleNamespace(cost=math.nan))
    results = {r.law: r for r in run_law_suite(trials=3, seed=0)}
    for law in ("transport.triangle", "transport.pushforward_short"):
        assert math.isnan(results[law].worst_discrepancy) and not results[law].passed

    space = random_space(rng_from(0))
    monkeypatch.setattr(kantorovich.monad, "weight_discrepancy", lambda p, q: math.nan)
    mu = nested_dirac(dirac(space, 0))
    assert math.isnan(nested_weight_discrepancy(mu, mu))  # NaN, then a 0.0 after it
    monkeypatch.setattr(kantorovich.graded, "_discrepancy", lambda a, b, distance: math.nan)
    assert math.isnan(unit_discrepancy_tuple(PointTuple(space, [0, 1])))
    assert math.isnan(unit_discrepancy_multiset(MultiSet(space, [1, 0])))


def _bits(array):
    return None if array is None else (array.dtype, array.shape, array.tobytes(),
                                       array.flags.writeable)


def _types(values):
    return tuple(map(type, values))


def _fields(made):
    """Every stored field of a space, measure, tuple, multiset, nesting,
    nested measure, coupling or potential,
    arrays as dtype, shape, bytes and writeable flag, and the types of the
    indices, next to the same fields of what its public constructor builds
    from them."""
    if isinstance(made, FiniteMetricSpace):
        public = FiniteMetricSpace(made.dist, made.pseudometric_ok, made.coords)
        return [(_bits(s.dist), s.pseudometric_ok, _bits(s.coords)) for s in (made, public)]
    if isinstance(made, DiscreteMeasure):
        weights = (made.weights.tolist(),) if made.den is None else (made.nums, made.den)
        public = DiscreteMeasure(made.space, made.support, *weights)
        return [(p.space, p.support, _types(p.support), _bits(p.weights), p.nums,
                 _types(p.nums or ()), p.den, type(p.den)) for p in (made, public)]
    if isinstance(made, (PointTuple, MultiSet)):
        public = type(made)(made.space, made.entries)
        return [(t.space, t.entries, _types(t.entries)) for t in (made, public)]
    if isinstance(made, NestedTuple):
        public = NestedTuple(made.space, made.rows)
        return [(t.space, t.rows, [_types(row) for row in t.rows]) for t in (made, public)]
    if isinstance(made, NestedMeasure):
        weights = ((made.outer_weights.tolist(),) if made.outer_den is None
                   else (made.outer_nums, made.outer_den))
        public = NestedMeasure(made.space, made.inner, *weights)
        return [(mu.space, mu.inner, _bits(mu.outer_weights), mu.outer_nums,
                 _types(mu.outer_nums or ()), mu.outer_den, type(mu.outer_den))
                for mu in (made, public)]
    if isinstance(made, Coupling):
        public = Coupling(made.p, made.q, made.matrix)
        return [(c.p, c.q, c.shape, _bits(c._index), _bits(c._mass)) for c in (made, public)]
    if isinstance(made, DualPotential):
        public = DualPotential(made.points, made.values.tolist())
        return [(f.points, _types(f.points), _bits(f.values)) for f in (made, public)]
    public = NestedMultiSet(made.space, [s.entries for s in made.inners])
    return [(t.space, [(s.space, s.entries, _types(s.entries)) for s in t.inners])
            for t in (made, public)]


def test_private_path_builds_what_the_public_constructors_build(monkeypatch):
    # The samplers, to_metric, mixture, dirac, the empirical maps, the
    # quotients, embeddings and flattenings, the nested measures of the monad
    # and algebra checks, and W1 results build their values past the public
    # constructors' checks. Each must be in the canonical form those build:
    # sorted support with equal points merged and zero weights dropped, a
    # reduced denominator, a deduplicated roster of inner measures, sorted
    # multisets, read-only arrays.
    nested = []  # every nested measure the law checks take the expectation of or compare

    def recorded(function):
        def record(*args):
            nested.extend(args)
            return function(*args)
        return record

    for module in (kantorovich.monad, kantorovich.algebras):
        monkeypatch.setattr(module, "expectation", recorded(kantorovich.monad.expectation))
    monkeypatch.setattr(kantorovich.monad, "nested_weight_discrepancy",
                        recorded(nested_weight_discrepancy))
    check_monad_laws(30, seed=4)
    check_monad_laws(10, seed=5, exact=False)
    for norm in ("l1", "l2", "linf"):
        check_algebra_laws(ConvexAlgebra(2, norm), 10, seed=6)
    for trial in range(20):
        rng = rng_from(30, trial)
        nms = random_nested_multiset(rng, random_space(rng), trial % 4 + 1, trial % 3 + 1)
        check_expectation_flatten(nms)
        check_ppx_square(nms)
    assert {type(mu) for mu in nested} == {NestedMeasure}
    assert any(mu.outer_den is None for mu in nested) and any(len(mu) > 1 for mu in nested)
    made = [*nested]
    for trial in range(60):
        rng = rng_from(29, trial)
        space = random_space(rng)
        made += [space, random_metric_space(rng, int(rng.integers(1, 7))),
                 *(random_euclidean_space(rng, 4, 2, norm) for norm in ("l1", "l2", "linf"))]
        exact = [random_measure(rng, space) for _ in range(3)]
        floats = [random_measure(rng, space, exact=False) for _ in range(2)]
        k = trial % 9  # 0 and 8 drop a component
        made += [*exact, *floats, *random_rational_pair(rng, space, den=np.int64(trial % 7 + 1)),
                 mixture([k, 8 - k], exact[:2], 8), mixture([k / 8, 1 - k / 8], floats),
                 mixture([0.25, 0.75], [exact[0], floats[0]]),
                 mixture([1, 1, 1], [exact[2]] * 3, 3), dirac(space, trial % space.n)]
        n = trial % 4 + 1
        t, ms = random_tuple(rng, space, n), random_multiset(rng, space, n)
        nt = random_nested_tuple(rng, space, n, trial % 3 + 1)
        nms = random_nested_multiset(rng, space, trial % 3 + 1, n)
        phi = FinUnifMap([v for v in range(n) for _ in range(2)][::-1], n)
        made += [t, ms, nt, nms, empirical(t), empirical_sym(ms), quotient(t),
                 repeat_embedding(ms, 3), precompose(phi, t), curry_flatten(nt),
                 flatten_multiset(nms)]
        result = w1_flow(exact[0], floats[0] if trial % 2 else exact[1])
        made += [result.coupling, result.dual]
    assert {type(m) for m in made} == {FiniteMetricSpace, DiscreteMeasure, PointTuple, MultiSet,
                                       NestedTuple, NestedMultiSet, NestedMeasure, Coupling,
                                       DualPotential}
    assert any(p.den is None for p in made if isinstance(p, DiscreteMeasure))
    for m in made:
        private, public = _fields(m)
        assert private == public
        # Slotted classes keep no __dict__, and a frozen dataclass stays frozen.
        assert not hasattr(m, "__dict__")
        if isinstance(m, (Coupling, DualPotential)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, m.__slots__[0], None)
    # The arguments a caller passes are still checked, as the norm of a roster.
    with pytest.raises(ValidationError, match="unknown norm") as info:
        random_euclidean_space(rng_from(0), 3, 2, "l3")
    assert info.value.code == "invariant.space"
