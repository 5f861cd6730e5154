"""The integer curve form and the one walk behind every order test.

The oracles below are the Fraction code that the integer curves replaced:
the piecewise-linear interpolation and curve comparison of ``simplex``,
the relative-curve builder of ``preferences``, the partial-sum loop that
``compare`` ran on its own, and the five checks of ``LorenzCurve`` with
their messages.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import naivediv.preferences
import naivediv.simplex
from conftest import majorization_pairs, weight_vectors
from old_sampler import old_random_weight_vector
from naivediv.preferences import PreferenceOutcome, relative_naive_prefer
from naivediv.simplex import (
    LorenzCurve,
    MajorizationRelation,
    WeightVector,
    compare,
    lorenz_curve,
    lorenz_dominates,
)

R = MajorizationRelation


# --------------------------------------------------------------------------
# Oracles: the Fraction code the integer curves replaced.
# --------------------------------------------------------------------------


def old_relation(first_higher, second_higher):
    if first_higher and second_higher:
        return R.INCOMPARABLE
    if first_higher:
        return R.FIRST_MORE_EQUAL
    if second_higher:
        return R.SECOND_MORE_EQUAL
    return R.EQUAL_UP_TO_PERMUTATION


def old_curve_values(points, grid):
    segment = 0
    last = len(points) - 2
    for t in grid:
        while segment < last and points[segment + 1][0] < t:
            segment += 1
        (x0, y0), (x1, y1) = points[segment], points[segment + 1]
        yield y1 if t == x1 else y0 + (y1 - y0) * (t - x0) / (x1 - x0)


def old_curve_relation(p, q):
    grid = sorted({x for x, _ in p} | {x for x, _ in q})
    pairs = list(zip(old_curve_values(p, grid), old_curve_values(q, grid)))
    return old_relation(any(a > b for a, b in pairs), any(b > a for a, b in pairs))


def old_relative_curve(w, d):
    jump = sum((wi for wi, di in zip(w, d) if di == 0), F(0))
    points = [(F(0), jump)]
    slots = sorted(((wi / di, di, wi) for wi, di in zip(w, d) if di), reverse=True)
    for _, di, wi in slots:
        x, y = points[-1]
        points.append((x + di, y + wi))
    return points


def old_relative_prefer(alpha, beta, d):
    relation = old_curve_relation(old_relative_curve(beta, d), old_relative_curve(alpha, d))
    return {
        R.EQUAL_UP_TO_PERMUTATION: PreferenceOutcome.INDIFFERENT,
        R.FIRST_MORE_EQUAL: PreferenceOutcome.FIRST_PREFERRED,
        R.SECOND_MORE_EQUAL: PreferenceOutcome.SECOND_PREFERRED,
        R.INCOMPARABLE: PreferenceOutcome.DEPENDS,
    }[relation]


def old_compare(alpha, beta):
    a, b = alpha._scale, beta._scale
    gap = 0
    alpha_above = beta_above = False
    for x, y in zip(sorted(alpha._nums, reverse=True), sorted(beta._nums, reverse=True)):
        gap += x * b - y * a
        if gap > 0:
            alpha_above = True
        elif gap < 0:
            beta_above = True
        if alpha_above and beta_above:
            break
    return old_relation(beta_above, alpha_above)


def old_lorenz_points(w):
    points, running = [(F(0), F(0))], F(0)
    for k, value in enumerate(sorted(w.weights), start=1):
        running += value
        points.append((F(k, w.n), running))
    return tuple(points)


def old_lorenz_error(points):
    """The message the Fraction checks raised for ``points``, or None."""
    pts = tuple((F(x), F(y)) for x, y in points)
    if len(pts) < 2 or pts[0] != (F(0), F(0)) or pts[-1] != (F(1), F(1)):
        return "curve must run from (0,0) to (1,1)"
    xs = [p[0] for p in pts]
    if any(x1 >= x2 for x1, x2 in zip(xs, xs[1:])):
        return "abscissas must strictly increase"
    if any(y1 > y2 for (_, y1), (_, y2) in zip(pts, pts[1:])):
        return "ordinates must not decrease"
    if any(y > x for x, y in pts):
        return "curve must stay weakly below the diagonal"
    slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
    if any(s0 > s1 for s0, s1 in zip(slopes, slopes[1:])):
        return "curve must be convex (slopes non-decreasing)"
    return None


# --------------------------------------------------------------------------
# Inputs.
# --------------------------------------------------------------------------


@st.composite
def counts_vectors(draw, n, high=4):
    """Vectors over small counts, so zeros and ties are common."""
    parts = draw(st.lists(st.integers(0, high), min_size=n, max_size=n).filter(any))
    factor = draw(st.integers(1, 5))
    total = sum(parts) * factor
    return WeightVector(tuple(F(p * factor, total) for p in parts))


def any_vectors(n):
    return st.one_of(weight_vectors(min_n=n, max_n=n), counts_vectors(n))


@st.composite
def convex_curves(draw):
    """Valid Lorenz curves whose abscissas are not of the form k / n."""
    k = draw(st.integers(1, 6))
    runs = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    rises = sorted(draw(st.lists(st.integers(0, 9), min_size=k, max_size=k)))
    if not any(rises):
        rises[-1] = 1
    run_total = sum(runs)
    lengths = [F(r, run_total) for r in runs]
    # slopes rises / norm, scaled so the curve ends at (1, 1)
    norm = sum(F(r) * dx for r, dx in zip(rises, lengths))
    points = [(F(0), F(0))]
    for r, dx in zip(rises, lengths):
        x, y = points[-1]
        points.append((x + dx, y + r / norm * dx))
    return LorenzCurve(tuple(points))


def sampler_vectors(seed, sizes):
    rng = random.Random(seed)
    return [old_random_weight_vector(rng, n) for n in sizes]


# --------------------------------------------------------------------------
# Lorenz curves.
# --------------------------------------------------------------------------


class TestLorenzCurveBuilder:
    @given(weight_vectors(max_n=9))
    def test_points_match_the_fraction_sums(self, w):
        assert lorenz_curve(w).points == old_lorenz_points(w)

    def test_sampler_vectors(self):
        for w in sampler_vectors(5, (1, 2, 7, 40)):
            curve = lorenz_curve(w)
            assert curve.points == old_lorenz_points(w)
            # the cached view is the one a hand-built curve computes
            rebuilt = LorenzCurve(curve.points)
            assert rebuilt == curve
            assert [F(x, rebuilt._view[0]) for x in rebuilt._view[1]] == list(curve.breakpoints())


class TestLorenzDominatesAgainstTheFractionWalk:
    @given(
        st.integers(1, 7).flatmap(any_vectors),
        st.integers(1, 7).flatmap(any_vectors),
    )
    def test_unequal_lengths(self, a, b):
        ca, cb = lorenz_curve(a), lorenz_curve(b)
        assert lorenz_dominates(ca, cb) is old_curve_relation(ca.points, cb.points)
        assert lorenz_dominates(cb, ca) is old_curve_relation(cb.points, ca.points)

    @given(convex_curves(), st.one_of(convex_curves(), weight_vectors(max_n=7).map(lorenz_curve)))
    def test_hand_built_curves(self, p, q):
        assert lorenz_dominates(p, q) is old_curve_relation(p.points, q.points)
        assert lorenz_dominates(q, p) is old_curve_relation(q.points, p.points)
        assert lorenz_dominates(p, p) is R.EQUAL_UP_TO_PERMUTATION

    def test_sampler_vectors_of_unequal_lengths(self):
        vectors = sampler_vectors(11, (2, 3, 5, 8, 13, 21, 30, 45))
        for a in vectors:
            for b in vectors:
                ca, cb = lorenz_curve(a), lorenz_curve(b)
                assert lorenz_dominates(ca, cb) is old_curve_relation(ca.points, cb.points)

    def test_a_curve_against_its_refinement(self):
        # equal curves with different breakpoints are equal, whichever goes first
        w = WeightVector((F(1, 6), F(1, 3), F(1, 2)))
        twice = WeightVector(tuple(x / 2 for x in w.weights for _ in range(2)))
        assert lorenz_dominates(lorenz_curve(w), lorenz_curve(twice)) is R.EQUAL_UP_TO_PERMUTATION
        assert lorenz_dominates(lorenz_curve(twice), lorenz_curve(w)) is R.EQUAL_UP_TO_PERMUTATION


class TestValueAt:
    @given(st.one_of(convex_curves(), weight_vectors(max_n=8).map(lorenz_curve)), st.integers(1, 12))
    def test_at_breakpoints_and_a_grid(self, curve, big_n):
        grid = sorted(set(curve.breakpoints()) | {F(i, big_n) for i in range(big_n + 1)})
        expected = list(old_curve_values(curve.points, grid))
        assert [curve.value_at(t) for t in grid] == expected

    def test_sampler_vector(self):
        (w,) = sampler_vectors(3, (25,))
        curve = lorenz_curve(w)
        grid = sorted(set(curve.breakpoints()) | {F(i, 7) for i in range(8)})
        assert [curve.value_at(t) for t in grid] == list(old_curve_values(curve.points, grid))


class TestLorenzCurveChecks:
    """Each invalid curve is rejected with the message the Fraction checks
    gave, and each valid one is accepted."""

    CASES = [
        ((),),
        (((0, 0),),),
        ((("0", "0"), ("1/2", "1/4")),),
        ((("0", "1/10"), ("1", "1")),),
        ((("0", "0"), ("1", "9/10")),),
        ((("1/10", "0"), ("1", "1")),),
        ((("0", "0"), ("1/2", "0"), ("1/2", "1/4"), ("1", "1")),),
        ((("0", "0"), ("3/4", "1/2"), ("1/2", "1/4"), ("1", "1")),),
        ((("0", "0"), ("1/4", "1/5"), ("1/2", "1/6"), ("1", "1")),),
        ((("0", "0"), ("1/2", "3/4"), ("1", "1")),),
        ((("0", "0"), ("1/4", "1/4"), ("3/4", "1/2"), ("1", "1")),),
        ((("0", "0"), ("1/3", "1/6"), ("2/3", "1/2"), ("1", "1")),),
        ((("0", "0"), ("1/3", "0"), ("1", "1")),),
    ]

    @pytest.mark.parametrize(("points",), CASES)
    def test_hand_picked(self, points):
        self.check(points)

    @given(
        st.lists(
            st.tuples(st.fractions(0, 1, max_denominator=6), st.fractions(0, 1, max_denominator=6)),
            min_size=0,
            max_size=5,
        ),
        st.booleans(),
    )
    def test_random_point_lists(self, middle, pin_ends):
        points = [(F(0), F(0)), *middle, (F(1), F(1))] if pin_ends else middle
        self.check(points)

    @staticmethod
    def check(points):
        message = old_lorenz_error(points)
        if message is None:
            curve = LorenzCurve(tuple(points))
            assert curve.points == tuple((F(x), F(y)) for x, y in points)
        else:
            with pytest.raises(ValueError) as excinfo:
                LorenzCurve(tuple(points))
            assert str(excinfo.value) == message


# --------------------------------------------------------------------------
# compare.
# --------------------------------------------------------------------------


class TestCompareAgainstItsOwnLoop:
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(any_vectors(n), any_vectors(n))))
    def test_ties_and_permutations(self, pair):
        a, b = pair
        shuffled = list(b.weights)
        random.Random(len(shuffled)).shuffle(shuffled)
        b_shuffled = WeightVector(tuple(shuffled))
        for x, y in ((a, b), (b, a), (b, b_shuffled), (a, a)):
            assert compare(x, y) is old_compare(x, y)

    @given(majorization_pairs(max_n=8))
    def test_majorization_pairs(self, pair):
        alpha, beta = pair
        assert compare(alpha, beta) is old_compare(alpha, beta)
        assert compare(beta, alpha) is old_compare(beta, alpha)

    def test_mismatched_scales(self):
        vectors = sampler_vectors(17, (6,) * 20)
        lattice = [
            WeightVector(tuple(F(c, 60) for c in counts))
            for counts in ((0, 6, 10, 12, 12, 20), (10,) * 6, (0, 0, 0, 0, 0, 60), (5, 5, 10, 10, 15, 15))
        ]
        for a in vectors + lattice:
            for b in vectors[:5] + lattice:
                assert compare(a, b) is old_compare(a, b)


# --------------------------------------------------------------------------
# Relative curves.
# --------------------------------------------------------------------------


class TestRelativeAgainstTheFractionCurves:
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(any_vectors(n), any_vectors(n), any_vectors(n))
        )
    )
    def test_zeros_anywhere(self, triple):
        alpha, beta, d = triple
        for x, y in ((alpha, beta), (beta, alpha), (alpha, alpha), (alpha, d), (d, alpha)):
            assert relative_naive_prefer(x, y, d) is old_relative_prefer(x, y, d)

    def test_seeded_cases(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(1, 7)
            alpha, beta, d = (
                WeightVector(tuple(F(c, sum(cs)) for c in cs))
                for cs in (self.counts(rng, n) for _ in range(3))
            )
            assert relative_naive_prefer(alpha, beta, d) is old_relative_prefer(alpha, beta, d)
            assert relative_naive_prefer(alpha, alpha, d) is PreferenceOutcome.INDIFFERENT
            assert relative_naive_prefer(d, beta, d) is old_relative_prefer(d, beta, d)

    @staticmethod
    def counts(rng, n):
        while True:
            cs = [rng.choice((0, 0, 1, 2, 3, 5, 8)) for _ in range(n)]
            if any(cs):
                return cs

    def test_sampler_vectors(self):
        vectors = sampler_vectors(29, (5,) * 12)
        for alpha, beta, d in zip(vectors, vectors[1:], vectors[2:]):
            assert relative_naive_prefer(alpha, beta, d) is old_relative_prefer(alpha, beta, d)


# --------------------------------------------------------------------------
# One walk.
# --------------------------------------------------------------------------


def test_every_order_test_calls_the_walk(monkeypatch):
    real = naivediv.simplex._curve_order
    calls = []

    def counting(p, q):
        calls.append((p, q))
        return real(p, q)

    for module in (naivediv.simplex, naivediv.preferences):
        if hasattr(module, "_curve_order"):
            monkeypatch.setattr(module, "_curve_order", counting)
    a = WeightVector((F(1, 2), F(1, 3), F(1, 6)))
    b = WeightVector((F(1, 4), F(1, 4), F(1, 2)))
    u = WeightVector((F(1, 3),) * 3)

    assert compare(a, b) is R.SECOND_MORE_EQUAL
    assert len(calls) == 1
    assert lorenz_dominates(lorenz_curve(u), lorenz_curve(a)) is R.FIRST_MORE_EQUAL
    assert len(calls) == 2
    assert relative_naive_prefer(u, a, u) is PreferenceOutcome.FIRST_PREFERRED
    assert len(calls) == 3
