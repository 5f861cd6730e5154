"""Preference verdicts, the improvement chain, and benchmark-relative ranking."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import majorization_pairs, weight_vectors
from naivediv.errors import LengthMismatch
from naivediv.matrices import (
    TTransform,
    apply_transform,
    d_stochastic_witness,
)
from naivediv.preferences import (
    PreferenceOutcome,
    aversion_squared,
    equal_weights,
    inequality_aversion_coefficient,
    more_is_better_chain,
    naive_prefer,
    relative_naive_prefer,
)
from naivediv.simplex import (
    WeightVector,
    compare,
    random_majorization_pair,
    random_weight_vector,
    uniform_vector,
    weight_vector,
)


class TestNaivePrefer:
    def test_uniform_beats_everything_else(self):
        w = weight_vector(["1/2", "1/3", "1/6"])
        assert naive_prefer(uniform_vector(3), w) is PreferenceOutcome.FIRST_PREFERRED

    def test_rearrangements_are_indifferent(self):
        a = weight_vector(["1/2", "1/6", "1/3"])
        b = weight_vector(["1/3", "1/2", "1/6"])
        assert naive_prefer(a, b) is PreferenceOutcome.INDIFFERENT

    def test_incomparable_pair_is_undecided(self):
        a = weight_vector(["3/5", "1/5", "1/5"])
        b = weight_vector(["1/2", "9/20", "1/20"])
        assert naive_prefer(a, b) is PreferenceOutcome.DEPENDS

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            naive_prefer(uniform_vector(2), uniform_vector(3))

    @given(weight_vectors())
    def test_weak_form_always_holds(self, w):
        # the equal-weight vector is never dominated and never undecided
        outcome = naive_prefer(uniform_vector(w.n), w)
        assert outcome in (
            PreferenceOutcome.FIRST_PREFERRED,
            PreferenceOutcome.INDIFFERENT,
        )


def test_equal_weights_values():
    assert equal_weights(1).weights == (F(1),)
    assert equal_weights(3).weights == (F(1, 3),) * 3
    assert equal_weights(4).weights == (F(1, 4),) * 4


class TestMoreIsBetterChain:
    def test_two_slots(self):
        chain = more_is_better_chain(2)
        assert [c.weights for c in chain] == [(F(1), F(0)), (F(1, 2), F(1, 2))]

    def test_three_slots(self):
        chain = more_is_better_chain(3)
        assert [c.weights for c in chain] == [
            (F(1), F(0), F(0)),
            (F(1, 2), F(1, 2), F(0)),
            (F(1, 3), F(1, 3), F(1, 3)),
        ]

    def test_strictly_improving_for_six(self):
        chain = more_is_better_chain(6)
        for earlier, later in zip(chain, chain[1:]):
            assert naive_prefer(later, earlier) is PreferenceOutcome.FIRST_PREFERRED

    def test_needs_at_least_two(self):
        with pytest.raises(ValueError):
            more_is_better_chain(1)


class TestProperties:
    @given(majorization_pairs(min_n=2, max_n=6), st.integers(0, 10))
    def test_mixtures_stay_dominated(self, pair, numerator):
        # convexity: mixing toward the flatter vector cannot hurt
        alpha, beta = pair
        t = F(numerator, 10)
        mix = WeightVector(
            tuple(t * a + (1 - t) * b for a, b in zip(alpha.weights, beta.weights))
        )
        assert naive_prefer(mix, beta) in (
            PreferenceOutcome.FIRST_PREFERRED,
            PreferenceOutcome.INDIFFERENT,
        )

    @given(weight_vectors(min_n=2), st.data())
    def test_permutation_indifference(self, w, data):
        perm = data.draw(st.permutations(range(w.n)))
        shuffled = WeightVector(tuple(w.weights[i] for i in perm))
        assert naive_prefer(shuffled, w) is PreferenceOutcome.INDIFFERENT

    @given(weight_vectors(min_n=2, max_n=6), st.data())
    def test_transform_always_weakly_improves(self, w, data):
        j = data.draw(st.integers(0, w.n - 1))
        k = data.draw(st.integers(0, w.n - 1).filter(lambda x: x != j))
        lam = F(data.draw(st.integers(0, 8)), 8)
        t = TTransform(j, k, lam)
        out = apply_transform(w, t)
        verdict = naive_prefer(out, w)
        trivial = lam in (0, 1) or w.weights[j] == w.weights[k]
        if trivial:
            assert verdict is PreferenceOutcome.INDIFFERENT
        else:
            assert verdict is PreferenceOutcome.FIRST_PREFERRED


class TestRelativePreference:
    def test_uniform_benchmark_reduces_to_plain_preference(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(2, 4)
            if rng.random() < 0.5:
                alpha, beta = random_majorization_pair(rng, n)
            else:
                alpha = random_weight_vector(rng, n)
                beta = random_weight_vector(rng, n)
            assert relative_naive_prefer(
                alpha, beta, uniform_vector(n)
            ) is naive_prefer(alpha, beta)

    def test_identical_allocations_are_indifferent(self):
        d = weight_vector(["3/5", "1/5", "1/5"])
        w = weight_vector(["1/2", "3/10", "1/5"])
        assert relative_naive_prefer(w, w, d) is PreferenceOutcome.INDIFFERENT

    def test_benchmark_is_reachable_from_anywhere(self):
        # rows of the all-d matrix equal d, so beta @ A = d is feasible
        d = weight_vector(["1/2", "1/4", "1/4"])
        beta = weight_vector(["1/10", "3/5", "3/10"])
        assert relative_naive_prefer(d, beta, d) in (
            PreferenceOutcome.FIRST_PREFERRED,
            PreferenceOutcome.INDIFFERENT,
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            relative_naive_prefer(
                uniform_vector(2), uniform_vector(2), uniform_vector(3)
            )

    def test_agrees_with_the_witness_lp_both_ways(self):
        # The exact LP is the reference: alpha is preferred when a d-fixing
        # stochastic matrix carries beta onto alpha, and the other way round.
        rng = random.Random(2024)

        def small_vector(n, zeros):
            while True:
                parts = [rng.randint(0 if zeros else 1, 4) for _ in range(n)]
                if sum(parts):
                    return WeightVector(tuple(F(p, sum(parts)) for p in parts))

        outcomes = {
            (True, True): PreferenceOutcome.INDIFFERENT,
            (True, False): PreferenceOutcome.FIRST_PREFERRED,
            (False, True): PreferenceOutcome.SECOND_PREFERRED,
            (False, False): PreferenceOutcome.DEPENDS,
        }
        seen = dict.fromkeys(outcomes.values(), 0)
        for case in range(200):
            n = rng.randint(2, 6)
            d = small_vector(n, zeros=case % 2 == 0)
            beta = small_vector(n, zeros=True)
            kind = case % 5
            if kind <= 1:
                alpha = small_vector(n, zeros=True)
            elif kind == 2:
                alpha = beta
            elif kind == 3:
                alpha = d
            else:
                # rows t * e_i + (1 - t) * d fix d and pull beta toward it
                t = F(rng.randint(0, 3), 4)
                alpha = WeightVector(
                    tuple(t * b + (1 - t) * x for b, x in zip(beta.weights, d.weights))
                )
                if case % 2:
                    alpha, beta = beta, alpha
            forward = d_stochastic_witness(beta, alpha, d) is not None
            backward = d_stochastic_witness(alpha, beta, d) is not None
            want = outcomes[forward, backward]
            assert relative_naive_prefer(alpha, beta, d) is want, (alpha, beta, d)
            seen[want] += 1
        assert min(seen.values()) >= 20, seen

    def test_decides_without_the_lp(self, monkeypatch):
        import naivediv.lp

        def no_lp(*args, **kwargs):
            raise AssertionError("the verdict must not solve an LP")

        monkeypatch.setattr(naivediv.lp, "solve_equality_feasibility", no_lp)
        d = weight_vector(["1/2", "1/4", "1/4", "0"])
        beta = weight_vector(["1/10", "3/5", "1/5", "1/10"])
        assert relative_naive_prefer(d, beta, d) is PreferenceOutcome.FIRST_PREFERRED


class TestAversion:
    def test_zero_at_uniform(self):
        assert aversion_squared(uniform_vector(4)) == 0
        assert inequality_aversion_coefficient(uniform_vector(4)) == 0.0

    def test_half_quarter_quarter(self):
        d = weight_vector(["1/2", "1/4", "1/4"])
        assert aversion_squared(d) == F(1, 24)
        # sqrt(1/24) = sqrt(6)/12
        assert math.isclose(
            inequality_aversion_coefficient(d), math.sqrt(6) / 12, rel_tol=1e-15
        )

    def test_two_point_extreme(self):
        d = weight_vector(["1", "0"])
        assert aversion_squared(d) == F(1, 2)
        assert math.isclose(
            inequality_aversion_coefficient(d), math.sqrt(2) / 2, rel_tol=1e-15
        )

    @given(weight_vectors())
    def test_zero_exactly_at_uniform(self, w):
        is_uniform = w.weights == uniform_vector(w.n).weights
        assert (aversion_squared(w) == 0) == is_uniform
