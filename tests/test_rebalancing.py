"""Turnover accounting, the mixing polytope, and rebalance plans."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given

from conftest import weight_vectors
from old_sampler import old_random_weight_vector
import naivediv.rebalancing
from naivediv.errors import (
    DimensionMismatch,
    LengthMismatch,
    NotInPolytope,
    NotMajorized,
)
from naivediv.fileio import plan_from_dict, plan_to_dict
from naivediv.matrices import (
    DoublyStochasticMatrix,
    SquareMatrix,
    TTransform,
    apply,
    apply_transform,
    compose,
    muirhead_decompose,
    random_doubly_stochastic,
    uniform_mixing_matrix,
)
from naivediv.measures import evaluate, exact_value, get_measure
from naivediv.rebalancing import (
    RebalancePlan,
    example_family,
    frobenius_distance_squared,
    min_permutation_distance_squared,
    minimal_turnover_plan,
    polytope_membership,
    practical_turnover,
    rebalance_to,
    turnover,
)
from naivediv.simplex import (
    WeightVector,
    random_weight_vector,
    uniform_vector,
    weight_vector,
)

REFERENCE = weight_vector(["1/2", "1/3", "1/6"])
SKEWED = weight_vector(["7/10", "1/5", "1/10"])


def polytope_members(w, rng, k):
    """Members of the polytope that rebalances ``w`` to equal weights, each
    one by construction, with no rejection: the Muirhead chain product, that
    product times four random permutations (equal weights relabeled stay
    equal), full mixing, and ``k`` integer-weight mixtures of those six."""
    n = w.n
    chain = compose(muirhead_decompose(w, uniform_vector(n)), n)
    members = [chain, uniform_mixing_matrix(n)]
    for _ in range(4):
        perm = list(range(n))
        rng.shuffle(perm)
        members.append(chain @ SquareMatrix.from_permutation(perm))
    for _ in range(k):
        chosen = rng.sample(members[:6], rng.randint(2, 3))
        weights = [rng.randint(1, 100) for _ in chosen]
        members.append(DoublyStochasticMatrix._mixture(weights, chosen))
    for p in members:
        assert polytope_membership(p, w)
    return members


class TestTurnover:
    def test_reference_value(self):
        assert turnover(REFERENCE) == F(1, 6)

    def test_uniform_needs_no_trades(self):
        assert turnover(uniform_vector(5)) == 0

    def test_skewed_value(self):
        assert turnover(SKEWED) == F(11, 30)

    def test_fully_concentrated(self):
        assert turnover(weight_vector(["1", "0"])) == F(1, 2)

    def test_trade_vector(self):
        # trades are target - source: the slot gaps w - 1/n with signs flipped
        trades = minimal_turnover_plan(REFERENCE).trades
        assert trades == (("w1", F(-1, 6)), ("w2", F(0)), ("w3", F(1, 6)))

    @given(weight_vectors(min_n=2, max_n=6))
    def test_equals_hoover_distance(self, w):
        assert turnover(w) == exact_hoover(w)

    @given(weight_vectors(min_n=2, max_n=6))
    def test_range(self, w):
        n = len(w.weights)
        assert 0 <= turnover(w) <= 1 - F(1, n)


def exact_hoover(w):
    return exact_value(get_measure("hoover"), w)


class TestPolytopeMembership:
    def test_full_mix_always_member(self):
        for n in (2, 3, 5):
            w = random_weight_vector(random.Random(n), n)
            assert polytope_membership(uniform_mixing_matrix(n), w)

    def test_worked_example_member(self):
        assert polytope_membership(example_family(F(0), F(0)), REFERENCE)

    def test_identity_not_member_unless_uniform(self):
        assert not polytope_membership(SquareMatrix.identity(3), REFERENCE)
        assert polytope_membership(SquareMatrix.identity(3), uniform_vector(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            polytope_membership(uniform_mixing_matrix(4), REFERENCE)


class TestExampleFamily:
    def test_corner_matrix(self):
        p = example_family(F(0), F(0))
        assert p.rows == (
            (F(1, 2), F(0), F(1, 2)),
            (F(0), F(1), F(0)),
            (F(1, 2), F(0), F(1, 2)),
        )

    def test_center_is_full_mix(self):
        assert example_family(F(1, 3), F(1, 3)) == uniform_mixing_matrix(3)

    def test_edge_matrix(self):
        p = example_family(F(1, 2), F(0))
        assert p.rows == (
            (F(1, 2), F(1, 2), F(0)),
            (F(0), F(0), F(1)),
            (F(1, 2), F(1, 2), F(0)),
        )
        assert polytope_membership(p, REFERENCE)

    def test_family_members_map_reference_to_uniform(self):
        for i in range(0, 100, 7):
            for j in range(0, 100, 7):
                u, v = F(i, 99), F(j, 99)
                p = example_family(u, v)
                if p is None:
                    continue
                assert apply(REFERENCE, p) == uniform_vector(3)

    def test_negative_entries_excluded(self):
        # u = 0, v = 1 makes row one's first entry 1/2 + 1/2 - 0 fine but
        # row two's third entry 2u - v = -1
        assert example_family(F(0), F(1)) is None


class TestPermutationDistance:
    def test_corner_matrix_distance(self):
        assert min_permutation_distance_squared(example_family(F(0), F(0))) == 1.0

    def test_full_mix_distance(self):
        # every permutation sits at squared distance n - 1 from the full mix
        assert min_permutation_distance_squared(uniform_mixing_matrix(3)) == 2.0

    def test_identity_distance(self):
        assert min_permutation_distance_squared(SquareMatrix.identity(4)) == 0.0

    def test_frobenius_helper(self):
        a = SquareMatrix.identity(2)
        b = SquareMatrix(((F(0), F(1)), (F(1), F(0))))
        assert frobenius_distance_squared(a, b) == 4.0

    def test_large_matrix_uses_assignment_solver(self):
        p = random_doubly_stochastic(11, 9, k=4)
        exact_best = min(
            frobenius_distance_squared(p, perm)
            for perm in _permutations_9_sample(p)
        )
        solved = min_permutation_distance_squared(p)
        assert solved <= exact_best + 1e-9

    def test_matches_enumeration_up_to_order_7(self):
        rng = random.Random(7)
        cases = [
            random_doubly_stochastic(rng.randrange(10**6), n, rng.randint(1, 4))
            for n in range(1, 8)
            for _ in range(3 if n < 7 else 1)
        ]
        # tied entries: full mixing plus a sparse member with repeated values
        cases += [uniform_mixing_matrix(6), example_family(F(1, 2), F(0))]
        for p in cases:
            assert min_permutation_distance_squared(p) == _enumerated_distance(p)

    def test_near_tie_is_decided_exactly(self):
        # (1/2 - eps) I + (1/2 + eps) C for the 6-cycle C: both permutations
        # round to the same float trace, but only C is nearest
        eps = F(1, 10**25)
        n = 6
        shift = [(i + 1) % n for i in range(n)]
        p = SquareMatrix(
            tuple(
                tuple(
                    (F(1, 2) - eps if j == i else 0) + (F(1, 2) + eps if j == shift[i] else 0)
                    for j in range(n)
                )
                for i in range(n)
            )
        )
        nearest = SquareMatrix.from_permutation(shift)
        assert min_permutation_distance_squared(p) == frobenius_distance_squared(p, nearest)
        assert min_permutation_distance_squared(p) == _enumerated_distance(p)


def _enumerated_distance(p):
    # oracle: try every permutation
    n = p.order
    return min(
        frobenius_distance_squared(p, SquareMatrix.from_permutation(perm))
        for perm in itertools.permutations(range(n))
    )


def _permutations_9_sample(p):
    # checking all 9! permutations is too slow; compare against the greedy
    # row-by-row assignment which upper-bounds the optimum
    n = p.order
    taken = set()
    rows = []
    for i in range(n):
        j = max(
            (j for j in range(n) if j not in taken),
            key=lambda j: p.rows[i][j],
        )
        taken.add(j)
        rows.append(tuple(F(1) if k == j else F(0) for k in range(n)))
    yield SquareMatrix(tuple(rows))


class TestPracticalTurnover:
    def test_corner_matrix(self):
        got = practical_turnover(REFERENCE, example_family(F(0), F(0)))
        assert got == pytest.approx(1 / 6, rel=1e-15)

    def test_full_mix(self):
        got = practical_turnover(REFERENCE, uniform_mixing_matrix(3))
        assert math.isclose(got, math.sqrt(2) / 6, rel_tol=1e-12)

    def test_identity_at_uniform(self):
        assert practical_turnover(uniform_vector(4), SquareMatrix.identity(4)) == 0

    def test_rejects_non_members(self):
        with pytest.raises(NotInPolytope):
            practical_turnover(REFERENCE, SquareMatrix.identity(3))

    def test_lower_bound_on_samples(self):
        rng = random.Random(2024)
        for _ in range(40):
            n = rng.randint(2, 5)
            w = random_weight_vector(rng, n)
            for p in polytope_members(w, rng, 3):
                assert practical_turnover(w, p) >= float(turnover(w)) - 1e-12

    def test_lower_bound_on_example_grid(self):
        tau = float(turnover(REFERENCE))
        for i in range(0, 100, 11):
            for j in range(0, 100, 11):
                p = example_family(F(i, 99), F(j, 99))
                if p is None:
                    continue
                assert practical_turnover(REFERENCE, p) >= tau - 1e-12

    def test_two_coordinate_attainment(self):
        # moving weight between two slots only: the bound is tight
        w = weight_vector(["3/4", "1/4"])
        plan = minimal_turnover_plan(w)
        assert plan.practical_turnover == float(turnover(w))


class TestRebalancePlans:
    def test_reference_plan(self):
        plan = minimal_turnover_plan(REFERENCE)
        assert plan.turnover == F(1, 6)
        assert plan.averaging_steps == 1
        assert plan.steps[0].lam == F(1, 2)
        assert plan.practical_turnover == pytest.approx(1 / 6, rel=1e-12)
        assert plan.cost == 0

    def test_uniform_plan_is_empty(self):
        plan = minimal_turnover_plan(uniform_vector(4))
        assert plan.steps == ()
        assert plan.turnover == 0

    def test_skewed_plan_with_costs(self):
        plan = rebalance_to(SKEWED, uniform_vector(3), cost_rate=F(1, 100))
        assert plan.turnover == F(11, 30)
        assert plan.averaging_steps == 2
        assert plan.cost == pytest.approx(11 / 1500, rel=1e-12)

    def test_general_target(self):
        plan = rebalance_to(SKEWED, REFERENCE)
        assert plan.target == REFERENCE
        assert plan.turnover == F(1, 5)
        assert plan.practical_turnover is None  # defined only for the equal target
        assert [(s.j, s.k, s.lam) for s in plan.steps if s.lam != 0] == [
            (0, 2, F(8, 9)),
            (0, 1, F(9, 13)),
        ]

    def test_chain_keeps_n_minus_one_steps_not_fewest(self):
        # the chain takes at most n - 1 averaging steps, not always the
        # fewest: here it takes 3, yet averaging slots 1 and 4 at 1/2, then
        # slots 2 and 3, lands exactly on equal weights in 2
        w = weight_vector(["2/5", "7/20", "3/20", "1/10"])
        equal = uniform_vector(4)
        assert minimal_turnover_plan(w).averaging_steps == 3
        steps = (TTransform(0, 3, F(1, 2)), TTransform(1, 2, F(1, 2)))
        practical = practical_turnover(w, compose(steps, 4))
        shorter = RebalancePlan(w, equal, steps, practical, 0.0, 0.0)
        assert shorter.averaging_steps == 2
        assert shorter.intermediates[-1] == equal

    def test_rebalance_to_uniform_matches_minimal_plan(self):
        for seed in range(5):
            w = random_weight_vector(random.Random(seed), 4)
            assert rebalance_to(w, uniform_vector(4)) == minimal_turnover_plan(w)

    def test_self_target_is_empty(self):
        plan = rebalance_to(REFERENCE, REFERENCE)
        assert plan.steps == ()

    def test_unreachable_target(self):
        with pytest.raises(NotMajorized):
            rebalance_to(REFERENCE, SKEWED)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rebalance_to(REFERENCE, uniform_vector(4))

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0, F(-1, 100)])
    def test_bad_cost_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            rebalance_to(REFERENCE, uniform_vector(3), cost_rate=rate)

    def test_replay_validation_rejects_tampering(self):
        data = plan_to_dict(minimal_turnover_plan(REFERENCE))
        data["intermediates"] = [["1/3", "1/3", "1/3"]] * 2
        with pytest.raises(ValueError, match="one intermediate per step"):
            plan_from_dict(data)

    def test_turnover_field_must_match(self):
        data = plan_to_dict(minimal_turnover_plan(REFERENCE))
        data["turnover"] = "1/2"
        with pytest.raises(ValueError, match="turnover does not match"):
            plan_from_dict(data)

    @pytest.mark.parametrize("name", ["intermediates", "turnover", "trades"])
    def test_derived_fields_are_not_constructor_arguments(self, name):
        plan = minimal_turnover_plan(REFERENCE)
        given = {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan) if f.init}
        assert sorted(given) == sorted(
            ["source", "target", "steps", "practical_turnover", "cost", "cost_rate"]
        )
        assert RebalancePlan(**given) == plan
        with pytest.raises(TypeError):
            RebalancePlan(**given, **{name: getattr(plan, name)})

    def test_rebalance_to_replays_its_chain_once(self, monkeypatch):
        calls = []
        real = naivediv.rebalancing.apply_transform

        def counting(w, t):
            calls.append(t)
            return real(w, t)

        monkeypatch.setattr(naivediv.rebalancing, "apply_transform", counting)
        rng = random.Random(20)
        for n in (3, 8, 16):
            w = random_weight_vector(rng, n)
            for target in (uniform_vector(n), rebalance_to(w, uniform_vector(n)).intermediates[0]):
                calls.clear()
                plan = rebalance_to(w, target, cost_rate=0.01)
                assert len(plan.steps) > 0
                assert calls == list(plan.steps)

    def test_composed_matrix_maps_source_to_target(self):
        plan = rebalance_to(SKEWED, REFERENCE)
        assert apply(SKEWED, plan.composed_matrix()) == REFERENCE

    @given(weight_vectors(min_n=2, max_n=6))
    def test_random_plans_are_valid(self, w):
        plan = minimal_turnover_plan(w)
        n = len(w.weights)
        assert plan.averaging_steps <= n - 1
        assert plan.turnover == turnover(w)
        state = w
        for step, expected in zip(plan.steps, plan.intermediates):
            from naivediv.matrices import apply_transform

            state = apply_transform(state, step)
            assert state == expected
        assert state == plan.target

    def test_trade_identity_on_polytope_members(self):
        # w(I - P) recovers the trade vector whenever P maps w to uniform
        rng = random.Random(99)
        w = random_weight_vector(rng, 4)
        expected = tuple(-delta for _, delta in minimal_turnover_plan(w).trades)
        for p in polytope_members(w, rng, 4):
            moved = tuple(
                w.weights[i]
                - sum(w.weights[j] * p.rows[j][i] for j in range(4))
                for i in range(4)
            )
            assert moved == expected


class TestTradesOnIntegerViews:
    """Trades are built from the two integer views; they equal the Fraction
    subtraction target - source, and a plan whose trade is off by the
    smallest step of those views is still rejected."""

    @staticmethod
    def sources(rng, n):
        counts = [rng.choice([0, 0, 1, 3, 8]) for _ in range(n)]
        counts[rng.randrange(n)] += 1
        lattice = random_weight_vector(rng, n)
        return [
            lattice,
            old_random_weight_vector(rng, n),
            WeightVector(tuple(F(c, sum(counts)) for c in counts)),
            WeightVector(lattice.weights, tuple(f"asset{i}" for i in range(n))),
        ]

    def test_equal_the_fraction_subtraction(self):
        rng = random.Random(23)
        for n in range(2, 10):
            for w in self.sources(rng, n):
                smoothed = w
                for _ in range(n):
                    j, k = rng.sample(range(n), 2)
                    smoothed = apply_transform(smoothed, TTransform(j, k, F(rng.randint(0, 7), 7)))
                for target in (uniform_vector(n), smoothed, w):
                    plan = rebalance_to(w, target)
                    expected = tuple(t - x for x, t in zip(w.weights, target.weights))
                    assert tuple(delta for _, delta in plan.trades) == expected
                    assert all(type(delta) is F for _, delta in plan.trades)

                    data = plan_to_dict(plan)
                    nudged = F(data["trades"][0]["delta"]) + F(1, w._scale * target._scale)
                    data["trades"][0]["delta"] = str(nudged)
                    with pytest.raises(ValueError, match="trades"):
                        plan_from_dict(data)


class TestBulkPlanValidity:
    def test_many_random_sources(self):
        rng = random.Random(515)
        for _ in range(500):
            n = rng.randint(2, 8)
            w = random_weight_vector(rng, n)
            plan = minimal_turnover_plan(w)
            assert plan.averaging_steps <= n - 1
            assert apply(w, plan.composed_matrix()) == uniform_vector(n)
