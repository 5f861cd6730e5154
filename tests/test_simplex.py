"""Weight vectors, majorization, and Lorenz curves."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import majorization_pairs, weight_vectors
from naivediv.errors import LengthMismatch
from naivediv.simplex import (
    LorenzCurve,
    MajorizationRelation,
    WeightVector,
    compare,
    decreasing_rearrangement,
    lorenz_curve,
    lorenz_dominates,
    majorizes,
    random_weight_vector,
    uniform_vector,
    weight_vector,
)


def basis(i: int, n: int) -> WeightVector:
    return WeightVector(tuple(F(1) if j == i else F(0) for j in range(n)))


class TestWeightVector:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            weight_vector(["1/2", "2/3", "-1/6"])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            weight_vector(["1/2", "1/3"])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            weight_vector(["1/2", "1/2"], labels=["A", "A"])

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(LengthMismatch):
            weight_vector(["1/2", "1/2"], labels=["A"])

    def test_decimal_strings_parse_exactly(self):
        w = weight_vector(["0.25", "0.5", "0.25"])
        assert w.weights == (F(1, 4), F(1, 2), F(1, 4))

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            weight_vector([0.5, 0.5])


def test_decreasing_rearrangement_sorts():
    w = weight_vector(["1/6", "1/2", "1/3"])
    assert decreasing_rearrangement(w).weights == (F(1, 2), F(1, 3), F(1, 6))


def test_decreasing_rearrangement_fixes_uniform():
    u = uniform_vector(3)
    assert decreasing_rearrangement(u).weights == u.weights


def test_decreasing_rearrangement_basis():
    assert decreasing_rearrangement(basis(1, 3)).weights == (F(1), F(0), F(0))


def test_decreasing_rearrangement_moves_labels_in_lockstep():
    w = weight_vector(["1/6", "1/2", "1/3"], labels=["c", "a", "b"])
    out = decreasing_rearrangement(w)
    assert out.labels == ("a", "b", "c")


@given(weight_vectors())
def test_decreasing_rearrangement_idempotent(w):
    once = decreasing_rearrangement(w)
    assert decreasing_rearrangement(once).weights == once.weights
    assert sorted(once.weights) == sorted(w.weights)


class TestMajorizes:
    def test_extremes(self):
        u = uniform_vector(3)
        assert majorizes(basis(0, 3), u)
        assert majorizes(weight_vector(["1", "0", "0"]), u)

    def test_partial_sum_dominance(self):
        # 3/5 >= 1/2 and 3/5 + 3/10 = 9/10 >= 1/2 + 1/3 = 5/6
        beta = weight_vector(["3/5", "3/10", "1/10"])
        alpha = weight_vector(["1/2", "1/3", "1/6"])
        assert majorizes(beta, alpha)

    def test_failure_at_first_partial_sum(self):
        beta = weight_vector(["1/2", "9/20", "1/20"])
        alpha = weight_vector(["3/5", "1/5", "1/5"])
        assert not majorizes(beta, alpha)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            majorizes(uniform_vector(2), uniform_vector(3))

    @given(weight_vectors())
    def test_everything_majorizes_uniform(self, w):
        assert majorizes(w, uniform_vector(w.n))
        assert majorizes(basis(0, w.n), w)

    @given(weight_vectors())
    def test_reflexive(self, w):
        assert majorizes(w, w)

    @given(majorization_pairs())
    def test_transitive(self, pair):
        alpha, beta = pair
        gamma = uniform_vector(alpha.n)  # bottom element, below alpha
        assert majorizes(beta, alpha)
        assert majorizes(alpha, gamma)
        assert majorizes(beta, gamma)

    @given(weight_vectors(min_n=2), weight_vectors(min_n=2))
    def test_antisymmetric_up_to_sorting(self, a, b):
        if a.n != b.n:
            return
        if majorizes(a, b) and majorizes(b, a):
            assert sorted(a.weights) == sorted(b.weights)


class TestCompare:
    def test_permutations_are_equal(self):
        a = weight_vector(["1/2", "1/6", "1/3"])
        b = weight_vector(["1/6", "1/3", "1/2"])
        assert compare(a, b) is MajorizationRelation.EQUAL_UP_TO_PERMUTATION

    def test_uniform_is_most_equal(self):
        a = uniform_vector(3)
        b = weight_vector(["1/2", "1/3", "1/6"])
        assert compare(a, b) is MajorizationRelation.FIRST_MORE_EQUAL
        assert compare(b, a) is MajorizationRelation.SECOND_MORE_EQUAL

    def test_crossing_partial_sums_are_incomparable(self):
        a = weight_vector(["3/5", "1/5", "1/5"])
        b = weight_vector(["1/2", "9/20", "1/20"])
        assert compare(a, b) is MajorizationRelation.INCOMPARABLE


    @given(
        st.one_of(
            majorization_pairs(min_n=1),
            st.integers(1, 6).flatmap(
                lambda n: st.tuples(
                    weight_vectors(min_n=n, max_n=n), weight_vectors(min_n=n, max_n=n)
                )
            ),
        )
    )
    def test_agrees_with_the_old_definition(self, pair):
        a, b = pair
        b_reversed = WeightVector(tuple(reversed(b.weights)))
        for x, y in ((a, b), (b, a), (b, b_reversed)):
            assert compare(x, y) is compare_by_definition(x, y)


def compare_by_definition(alpha, beta):
    """What compare computed before it walked the partial sums once:
    sorted equality, then majorizes in each direction."""
    if alpha.sorted_descending() == beta.sorted_descending():
        return MajorizationRelation.EQUAL_UP_TO_PERMUTATION
    beta_dominates = majorizes(beta, alpha)
    alpha_dominates = majorizes(alpha, beta)
    if beta_dominates and not alpha_dominates:
        return MajorizationRelation.FIRST_MORE_EQUAL
    if alpha_dominates and not beta_dominates:
        return MajorizationRelation.SECOND_MORE_EQUAL
    return MajorizationRelation.INCOMPARABLE


class TestLorenzCurve:
    def test_uniform_diagonal(self):
        curve = lorenz_curve(uniform_vector(3))
        assert curve.points == (
            (F(0), F(0)),
            (F(1, 3), F(1, 3)),
            (F(2, 3), F(2, 3)),
            (F(1), F(1)),
        )

    def test_ascending_cumulative_shares(self):
        curve = lorenz_curve(weight_vector(["1/2", "1/3", "1/6"]))
        assert curve.points == (
            (F(0), F(0)),
            (F(1, 3), F(1, 6)),
            (F(2, 3), F(1, 2)),
            (F(1), F(1)),
        )

    def test_full_concentration(self):
        curve = lorenz_curve(weight_vector(["1", "0"]))
        assert curve.points == ((F(0), F(0)), (F(1, 2), F(0)), (F(1), F(1)))

    def test_interpolation_is_exact(self):
        curve = lorenz_curve(weight_vector(["1/2", "1/3", "1/6"]))
        # halfway between (1/3, 1/6) and (2/3, 1/2)
        assert curve.value_at(F(1, 2)) == F(1, 3)
        assert curve.value_at("1/3") == F(1, 6)
        assert curve.value_at(0) == 0
        assert curve.value_at(1) == 1

    def test_rejects_concave_kink(self):
        # slopes run 1, 1/2, 2: not convex, even though no point crosses
        # the diagonal
        with pytest.raises(ValueError):
            LorenzCurve(
                (
                    (F(0), F(0)),
                    (F(1, 4), F(1, 4)),
                    (F(3, 4), F(1, 2)),
                    (F(1), F(1)),
                )
            )

    def test_rejects_point_above_diagonal(self):
        with pytest.raises(ValueError):
            LorenzCurve(((F(0), F(0)), (F(1, 2), F(3, 4)), (F(1), F(1))))

    def test_rejects_wrong_endpoints(self):
        with pytest.raises(ValueError):
            LorenzCurve(((F(0), F(0)), (F(1, 2), F(1, 4))))

    @given(weight_vectors())
    def test_curves_from_vectors_always_valid(self, w):
        curve = lorenz_curve(w)  # constructor re-validates every invariant
        xs = [p[0] for p in curve.points]
        ys = [p[1] for p in curve.points]
        assert xs[0] == 0 and ys[0] == 0 and xs[-1] == 1 and ys[-1] == 1
        assert all(y <= x for x, y in curve.points)


class TestLorenzDominates:
    def test_diagonals_of_different_length_are_equal(self):
        a = lorenz_curve(uniform_vector(2))
        b = lorenz_curve(uniform_vector(3))
        assert lorenz_dominates(a, b) is MajorizationRelation.EQUAL_UP_TO_PERMUTATION

    def test_uniform_dominates(self):
        a = lorenz_curve(uniform_vector(3))
        b = lorenz_curve(weight_vector(["1/2", "1/3", "1/6"]))
        assert lorenz_dominates(a, b) is MajorizationRelation.FIRST_MORE_EQUAL

    def test_crossing_curves(self):
        a = lorenz_curve(weight_vector(["3/5", "1/5", "1/5"]))
        b = lorenz_curve(weight_vector(["1/2", "9/20", "1/20"]))
        assert lorenz_dominates(a, b) is MajorizationRelation.INCOMPARABLE

    @given(weight_vectors(min_n=2), weight_vectors(min_n=2))
    def test_consistency_with_compare_on_equal_lengths(self, a, b):
        # Repeating each entry k times and dividing by k leaves the Lorenz
        # curve as it is, so copies of equal length m * n let compare decide
        # for vectors of any lengths n and m.
        def copies(w, k):
            return WeightVector(tuple(x / k for x in w.weights for _ in range(k)))

        expected = compare(copies(a, b.n), copies(b, a.n))
        assert lorenz_dominates(lorenz_curve(a), lorenz_curve(b)) is expected
        if a.n == b.n:
            assert compare(a, b) is expected


def test_random_weight_vector_is_deterministic_and_valid():
    a = random_weight_vector(random.Random(11), 5)
    b = random_weight_vector(random.Random(11), 5)
    assert a.weights == b.weights
    assert sum(a.weights) == 1
    assert all(x > 0 for x in a.weights)
