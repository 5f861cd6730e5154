"""Weight vectors, majorization, and Lorenz curves."""

import copy
import dataclasses
import pickle
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
    _below,
    _from_ints,
    _pick_two,
    _sampler_counts,
    compare,
    decreasing_rearrangement,
    half_l1,
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


LATTICE = 10**6


def fraction_lattice_vector(rng, n):
    """The lattice draw built from Fractions: n - 1 distinct cuts of
    D = 10**6 * n, each gap c becoming the weight c / D."""
    total = LATTICE * n
    cuts = sorted(rng.sample(range(1, total), n - 1))
    gaps = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    return WeightVector(tuple(F(c, total) for c in gaps))


class TestLatticeSampler:
    def test_counts_are_positive_and_sum_to_the_lattice(self):
        for seed in range(50):
            rng = random.Random(seed)
            for n in (1, 2, 3, 8, 40):
                counts = _sampler_counts(rng, n)
                assert len(counts) == n
                assert min(counts) >= 1
                assert sum(counts) == LATTICE * n

    def test_same_seed_same_vector(self):
        for n in (1, 4, 30):
            a = random_weight_vector(random.Random(2016), n)
            b = random_weight_vector(random.Random(2016), n)
            assert a == b
            assert (a._scale, a._nums) == (b._scale, b._nums)

    def test_one_slot(self):
        w = random_weight_vector(random.Random(3), 1)
        assert w.weights == (1,)
        assert (w._scale, w._nums) == (1, (1,))

    def test_every_slot_averages_one_over_n(self):
        rng = random.Random(77)
        draws = 4000
        for n in (2, 3, 5, 8):
            totals = [F(0)] * n
            for _ in range(draws):
                totals = [t + x for t, x in zip(totals, random_weight_vector(rng, n).weights)]
            # a slot's weight has mean 1/n and standard deviation below
            # 1/n, so 1/(10n) is over six standard errors of a 4000-draw mean
            for t in totals:
                assert abs(t / draws - F(1, n)) < F(1, 10 * n)


class TestSamplerAgainstTheFractionSampler:
    def test_same_vectors_views_and_stream(self):
        for seed in range(100):
            new, old = random.Random(seed), random.Random(seed)
            for n in range(1 + seed % 8, 41, 8):
                w = random_weight_vector(new, n)
                expected = fraction_lattice_vector(old, n)
                assert w == expected
                # the view built on ints equals the one built from Fractions
                assert (w._scale, w._nums) == (expected._scale, expected._nums)
                assert new.getstate() == old.getstate()

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="need at least one slot"):
            random_weight_vector(random.Random(0), 0)


def refuse_to_draw(bits):
    raise AssertionError("drew from the stream")


class TestDrawHelpers:
    """The samplers read ``getrandbits`` directly; these helpers must leave
    the same numbers and the same generator state as ``random.Random``'s
    ``randrange`` and ``sample`` built on it."""

    def test_below_is_randrange(self):
        for seed in range(20):
            new, old = random.Random(seed), random.Random(seed)
            for bound in [*range(1, 130), 2**31, 10**6 * 7 - 1, 3**60]:
                assert _below(new.getrandbits, bound) == old.randrange(bound)
                assert new.getstate() == old.getstate()

    def test_pick_two_is_sample(self):
        # up to n = 21 sample swaps through a pool list, beyond it redraws
        # repeats from a set: both branches, and the switch between them
        for seed in range(60):
            new, old = random.Random(seed), random.Random(seed)
            for n in [*range(2, 41), 64, 1000]:
                assert list(_pick_two(new.getrandbits, n)) == old.sample(range(n), 2)
                assert new.getstate() == old.getstate()

    @pytest.mark.parametrize("bound", [0, -1, -(2**40)])
    def test_below_refuses_an_empty_range_without_drawing(self, bound):
        # getrandbits(0) is always 0, so a zero bound would spin forever
        with pytest.raises(ValueError, match="positive bound"):
            _below(refuse_to_draw, bound)

    @pytest.mark.parametrize("n", [1, 0, -2])
    def test_pick_two_refuses_fewer_than_two_slots_without_drawing(self, n):
        with pytest.raises(ValueError, match="at least two slots"):
            _pick_two(refuse_to_draw, n)


def compare_by_partial_sums(alpha, beta):
    """compare from its definition, on Fraction partial sums."""
    gaps, gap = [], F(0)
    for a, b in zip(alpha.sorted_descending(), beta.sorted_descending()):
        gap += a - b
        gaps.append(gap)
    beta_above = any(g < 0 for g in gaps)
    alpha_above = any(g > 0 for g in gaps)
    if beta_above and alpha_above:
        return MajorizationRelation.INCOMPARABLE
    if beta_above:
        return MajorizationRelation.FIRST_MORE_EQUAL
    if alpha_above:
        return MajorizationRelation.SECOND_MORE_EQUAL
    return MajorizationRelation.EQUAL_UP_TO_PERMUTATION


@st.composite
def tie_heavy_vectors(draw, n):
    """Vectors over small counts, so zeros and ties are common, scaled by a
    drawn factor that leaves the weights but not the raw counts alone."""
    parts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
    factor = draw(st.integers(1, 7))
    total = sum(parts) * factor
    return WeightVector(tuple(F(p * factor, total) for p in parts))


class TestCompareOnIntegerViews:
    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.one_of(weight_vectors(min_n=n, max_n=n), tie_heavy_vectors(n)),
                st.one_of(weight_vectors(min_n=n, max_n=n), tie_heavy_vectors(n)),
            )
        )
    )
    def test_matches_the_partial_sum_definition(self, pair):
        a, b = pair
        shuffled = list(b.weights)
        random.Random(len(shuffled)).shuffle(shuffled)
        b_shuffled = WeightVector(tuple(shuffled))
        for x, y in ((a, b), (b, a), (b, b_shuffled), (a, a)):
            assert compare(x, y) is compare_by_partial_sums(x, y)

    def test_scales_differ(self):
        rng = random.Random(3)
        lattice = [F(c, 60) for c in (0, 6, 10, 12, 12, 20)]
        for _ in range(100):
            a = random_weight_vector(rng, 6)
            b = WeightVector(tuple(lattice))
            assert a._scale != b._scale
            assert compare(a, b) is compare_by_partial_sums(a, b)
            assert compare(b, a) is compare_by_partial_sums(b, a)


class TestIntegerView:
    def test_view_matches_the_weights(self):
        w = random_weight_vector(random.Random(9), 7)
        assert all(x == F(num, w._scale) for x, num in zip(w.weights, w._nums))
        assert sum(w._nums) == w._scale

    def test_equal_weights_from_different_routes(self):
        routes = [
            weight_vector(["0.25", "0.5", "0.25"]),
            weight_vector(["1/4", "2/4", "3/12"]),
            WeightVector((F(1, 4), F(1, 2), F(1, 4))),
            WeightVector(("1/4", "1/2", "1/4")),
            WeightVector((F(2, 8), F(50, 100), F(1, 4))),
        ]
        first = routes[0]
        for w in routes:
            assert w == first
            assert hash(w) == hash(first)
            assert repr(w) == repr(first)
        assert len(set(routes)) == 1

    def test_routes_with_and_without_fractions_agree(self):
        labels = ("a", "b", "c")
        routes = [
            _from_ints([1, 2, 1], 4, labels),
            _from_ints([3, 6, 3], 12, labels),
            weight_vector(["1/4", "0.5", "1/4"], labels),
            WeightVector((F(1, 4), F(1, 2), F(1, 4)), labels),
        ]
        assert "weights" not in vars(routes[0])
        for w in routes:
            assert w == routes[0]
            assert hash(w) == hash(routes[0])
            assert repr(w) == repr(routes[0])
            assert (w._scale, w._nums) == (4, (1, 2, 1))
        assert routes[0] != _from_ints([1, 2, 1], 4)  # labels still count
        assert routes[0] != _from_ints([2, 1, 1], 4, labels)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_round_trip_built_or_not(self, clone):
        lazy = _from_ints([1, 2, 3], 6, ("x", "y", "z"))
        built = _from_ints([1, 2, 3], 6, ("x", "y", "z"))
        assert built.weights == (F(1, 6), F(1, 3), F(1, 2))
        assert "weights" not in vars(clone(lazy))
        for w in (lazy, built):
            twin = clone(w)
            assert twin == w and hash(twin) == hash(w)
            assert twin.weights == (F(1, 6), F(1, 3), F(1, 2))
            assert repr(twin) == repr(w)

    def test_replace_on_an_unbuilt_vector(self):
        w = _from_ints([1, 1], 2)
        labeled = dataclasses.replace(w, labels=("a", "b"))
        assert labeled.weights == (F(1, 2), F(1, 2))
        assert labeled == _from_ints([1, 1], 2, ("a", "b"))

    def test_only_weights_is_built_on_demand(self):
        w = _from_ints([1, 1], 2)
        with pytest.raises(AttributeError, match="no attribute 'weight'"):
            w.weight
        assert list(w) == [F(1, 2), F(1, 2)]
        assert (w.n, len(w)) == (2, 2)

    def test_replace_rebuilds_the_view(self):
        w = weight_vector(["1/2", "1/3", "1/6"])
        labeled = dataclasses.replace(w, labels=("a", "b", "c"))
        assert labeled.weights == w.weights
        assert labeled.labels == ("a", "b", "c")
        assert (labeled._scale, labeled._nums) == (w._scale, w._nums)
        moved = dataclasses.replace(w, weights=(F(1, 5), F(4, 5), F(0)))
        assert (moved._scale, moved._nums) == (5, (1, 4, 0))
        with pytest.raises(ValueError, match="sum to exactly 1"):
            dataclasses.replace(w, weights=(F(1, 2), F(1, 2), F(1, 2)))

    def test_large_coprime_denominators_that_sum_to_one(self):
        p, q = 2**127 - 1, 2**89 - 1  # Mersenne primes
        a, b = F(p // 3, p), F(q // 4, q)
        w = WeightVector((a, b, 1 - a - b))
        assert sum(w.weights) == 1
        assert w._scale == p * q

    def test_off_by_a_tiny_amount_is_rejected(self):
        weights = (F(1, 3), F(1, 3), F(1, 3) + F(1, 10**40))
        message = f"weights must sum to exactly 1, got {sum(weights)}"
        with pytest.raises(ValueError) as excinfo:
            WeightVector(weights)
        assert str(excinfo.value) == message

    def test_one_negative_entry_is_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            weight_vector(["3/4", "1/2", "-1/4"])
        assert str(excinfo.value) == "weights must be nonnegative"


@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.one_of(weight_vectors(min_n=n, max_n=n), tie_heavy_vectors(n)),
            st.one_of(weight_vectors(min_n=n, max_n=n), tie_heavy_vectors(n)),
        )
    )
)
def test_half_l1_matches_its_definition(pair):
    a, b = pair
    expected = sum((abs(x - y) for x, y in zip(a.weights, b.weights)), start=F(0)) / 2
    assert half_l1(a, b) == expected
