"""Preference verdicts induced by the majorization preorder.

An allocator who prefers more evenly spread weights ranks two candidate
allocations by majorization: the less concentrated one wins, equal-up-to-
permutation means indifference, and incomparable pairs stay undecided.
``relative_naive_prefer`` generalizes the benchmark from the equal-weight
vector to an arbitrary reference allocation by comparing exact cumulative
curves taken relative to it.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .errors import LengthMismatch
from .simplex import (
    MajorizationRelation,
    WeightVector,
    _curve_order,
    _from_ints,
    _relative_curve,
    _sum_of_squares,
    compare,
    uniform_vector,
)


class PreferenceOutcome(Enum):
    """Four-way verdict when ranking two allocations."""

    INDIFFERENT = "Indifferent"
    FIRST_PREFERRED = "FirstPreferred"
    SECOND_PREFERRED = "SecondPreferred"
    DEPENDS = "DependsOnAlternatives"


_FROM_RELATION = {
    MajorizationRelation.EQUAL_UP_TO_PERMUTATION: PreferenceOutcome.INDIFFERENT,
    MajorizationRelation.FIRST_MORE_EQUAL: PreferenceOutcome.FIRST_PREFERRED,
    MajorizationRelation.SECOND_MORE_EQUAL: PreferenceOutcome.SECOND_PREFERRED,
    MajorizationRelation.INCOMPARABLE: PreferenceOutcome.DEPENDS,
}


def naive_prefer(alpha: WeightVector, beta: WeightVector) -> PreferenceOutcome:
    """Rank two allocations by spread: the majorized (flatter) one is preferred."""
    return _FROM_RELATION[compare(alpha, beta)]


def equal_weights(n: int) -> WeightVector:
    """The 1/n allocation — the unique maximum of the preference order."""
    return uniform_vector(n)


def more_is_better_chain(n: int) -> list[WeightVector]:
    """A strictly improving chain from fully concentrated to equal weights.

    Element m (1-based) spreads everything evenly over the first m slots;
    each step is strictly preferred to the last, illustrating that adding
    breadth always helps a spread-seeking allocator.
    """
    if n < 2:
        raise ValueError("a chain needs n >= 2")
    return [_from_ints([1] * m + [0] * (n - m), m) for m in range(1, n + 1)]


def relative_naive_prefer(
    alpha: WeightVector, beta: WeightVector, d: WeightVector
) -> PreferenceOutcome:
    """Rank two allocations relative to a benchmark allocation ``d``.

    ``alpha`` improves on ``beta`` when some matrix that fixes ``d`` (rows
    summing to one, nonnegative entries) carries ``beta`` onto ``alpha``:
    alpha is then a d-directed smoothing of beta.  Such a matrix exists
    exactly when beta's curve relative to ``d`` lies weakly above alpha's
    (d-majorization, Veinott 1971), so no LP is solved here;
    ``matrices.d_stochastic_witness`` builds the matrix.  Both ways is
    indifference; neither way leaves the pair undecided.  With ``d``
    uniform this reduces to plain majorization-based preference.
    """
    if alpha.n != beta.n or alpha.n != d.n:
        raise LengthMismatch("all three vectors must share one length")
    # the lower relative curve is the smoother allocation: beta's goes first
    return _FROM_RELATION[
        _curve_order(_relative_curve(beta, d), _relative_curve(alpha, d))
    ]


def aversion_squared(d: WeightVector) -> Fraction:
    """Exact squared Euclidean distance from ``d`` to the equal-weight point.

    Zero exactly when d is uniform; grows as the benchmark concentrates, so
    it scores how much inequality the benchmark itself tolerates.
    """
    # sum of (w_i - 1/n)^2 == sum of w_i^2 - 1/n
    n = d.n
    squares, square_scale = _sum_of_squares(d._scale, d._nums)
    return Fraction(n * squares - square_scale, n * square_scale)


def inequality_aversion_coefficient(d: WeightVector) -> float:
    """Float form of the benchmark's distance to equal weights."""
    return math.sqrt(aversion_squared(d))


__all__ = [
    "PreferenceOutcome",
    "naive_prefer",
    "equal_weights",
    "more_is_better_chain",
    "relative_naive_prefer",
    "aversion_squared",
    "inequality_aversion_coefficient",
]
