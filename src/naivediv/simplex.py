"""Exact-arithmetic weight vectors and the majorization preorder.

All weights are `fractions.Fraction` values, so every ordering decision
(partial sums, Lorenz comparisons) is exact.  Each vector also keeps an
integer view of itself, its numerators over the lcm of its denominators,
so sums and comparisons run on Python ints.  Floats appear only further
downstream, in measure evaluation and report formatting.

A vector ``beta`` majorizes ``alpha`` when both have equal totals and the
descending partial sums of ``beta`` dominate those of ``alpha``:

    sum of k largest of beta >= sum of k largest of alpha   for every k.

Being majorized means being closer to the equal-weight allocation, which
is what a naive diversifier prefers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import LengthMismatch

RationalLike = Union[Fraction, int, str]
#: A piecewise-linear curve: its breakpoints, abscissas strictly increasing.
_Points = Sequence[tuple[Fraction, Fraction]]

_SAMPLER_DENOMINATOR_CAP = 10**6


def as_fraction(value: RationalLike) -> Fraction:
    """Parse an exact rational from 'p/q' or decimal strings, ints or Fractions.

    Floats are rejected on purpose: binary floats smuggle rounding noise into
    what must stay an exact computation.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _integer_view(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """``(scale, a)`` with ``a`` integer and ``rows == a / scale`` entrywise.

    ``scale`` is the lcm of the denominators, so exact sums and comparisons
    of the entries become Python int arithmetic.
    """
    scale = math.lcm(*(e.denominator for row in rows for e in row))
    a = [[e.numerator * (scale // e.denominator) for e in row] for row in rows]
    return scale, a


class MajorizationRelation(Enum):
    EQUAL_UP_TO_PERMUTATION = "EqualUpToPermutation"
    FIRST_MORE_EQUAL = "FirstMoreEqual"
    SECOND_MORE_EQUAL = "SecondMoreEqual"
    INCOMPARABLE = "Incomparable"


@dataclass(frozen=True)
class WeightVector:
    """An allocation of unit mass over n slots, optionally labeled.

    Invariants enforced on construction: nonnegative entries, exact unit sum,
    and labels (when given) unique and matching the length.
    """

    weights: tuple[Fraction, ...]
    labels: tuple[str, ...] | None = None
    # the integer view: weights == _nums / _scale entrywise
    _scale: int = field(init=False, compare=False, repr=False)
    _nums: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        weights = tuple(as_fraction(w) for w in self.weights)
        if not weights:
            raise ValueError("weight vector must have at least one entry")
        scale, (nums,) = _integer_view((weights,))
        if any(x < 0 for x in nums):
            raise ValueError("weights must be nonnegative")
        total = sum(nums)
        if total != scale:
            raise ValueError(
                f"weights must sum to exactly 1, got {Fraction(total, scale)}"
            )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_nums", tuple(nums))
        if self.labels is not None:
            labels = tuple(str(lab) for lab in self.labels)
            if len(labels) != len(weights):
                raise LengthMismatch(
                    f"{len(labels)} labels for {len(weights)} weights"
                )
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be unique")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.weights)

    def sorted_descending(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.weights, reverse=True))

    def as_strings(self) -> tuple[str, ...]:
        return tuple(str(w) for w in self.weights)


def weight_vector(
    values: Iterable[RationalLike], labels: Sequence[str] | None = None
) -> WeightVector:
    """Convenience constructor accepting any mix of rational-like entries."""
    return WeightVector(
        tuple(as_fraction(v) for v in values),
        tuple(labels) if labels is not None else None,
    )


def uniform_vector(n: int) -> WeightVector:
    """The equal-weight allocation 1/n in every slot."""
    if n < 1:
        raise ValueError("need at least one slot")
    return WeightVector(tuple(Fraction(1, n) for _ in range(n)))


def decreasing_rearrangement(w: WeightVector) -> WeightVector:
    """Sort weights in descending order, ties broken by original index.

    Labels, when present, travel with their weights.
    """
    order = sorted(range(w.n), key=lambda i: (-w.weights[i], i))
    weights = tuple(w.weights[i] for i in order)
    labels = tuple(w.labels[i] for i in order) if w.labels is not None else None
    return WeightVector(weights, labels)


def _check_same_length(a: WeightVector, b: WeightVector) -> None:
    if a.n != b.n:
        raise LengthMismatch(f"vector lengths differ: {a.n} vs {b.n}")


def majorizes(beta: WeightVector, alpha: WeightVector) -> bool:
    """True iff ``beta`` majorizes ``alpha`` (exact partial-sum dominance)."""
    return compare(alpha, beta) in (
        MajorizationRelation.FIRST_MORE_EQUAL,
        MajorizationRelation.EQUAL_UP_TO_PERMUTATION,
    )


def compare(alpha: WeightVector, beta: WeightVector) -> MajorizationRelation:
    """Order two allocations by how equal they are.

    FIRST_MORE_EQUAL means ``alpha`` is strictly closer to equal weights,
    i.e. ``beta`` majorizes ``alpha`` and they are not rearrangements of
    one another.
    """
    _check_same_length(alpha, beta)
    # One walk over the gap between the descending partial sums: a positive
    # gap at some k means beta does not majorize alpha, a negative one that
    # alpha does not majorize beta.  Neither means the sorted vectors agree.
    # On the integer views, with scales a and b, the gap is kept times a * b.
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
    # beta's partial sums above alpha's is alpha's Lorenz curve above beta's
    return _relation(beta_above, alpha_above)


def _relation(first_higher: bool, second_higher: bool) -> MajorizationRelation:
    """The verdict from whether each curve lies strictly above the other
    somewhere; the higher Lorenz curve belongs to the more equal allocation."""
    if first_higher and second_higher:
        return MajorizationRelation.INCOMPARABLE
    if first_higher:
        return MajorizationRelation.FIRST_MORE_EQUAL
    if second_higher:
        return MajorizationRelation.SECOND_MORE_EQUAL
    return MajorizationRelation.EQUAL_UP_TO_PERMUTATION


def _curve_values(points: _Points, grid: Iterable[Fraction]) -> Iterator[Fraction]:
    """Exact values at ascending abscissas ``grid`` of the piecewise-linear
    curve through ``points``, in one pass over its segments."""
    segment = 0
    last = len(points) - 2
    for t in grid:
        while segment < last and points[segment + 1][0] < t:
            segment += 1
        (x0, y0), (x1, y1) = points[segment], points[segment + 1]
        yield y1 if t == x1 else y0 + (y1 - y0) * (t - x0) / (x1 - x0)


def _curve_relation(p: _Points, q: _Points) -> MajorizationRelation:
    """FIRST_MORE_EQUAL when curve ``p`` lies weakly above curve ``q`` and
    strictly above it somewhere, and so on.  Both are linear between the
    union of their breakpoints, so comparing there is sufficient."""
    grid = sorted({x for x, _ in p} | {x for x, _ in q})
    pairs = list(zip(_curve_values(p, grid), _curve_values(q, grid)))
    return _relation(any(a > b for a, b in pairs), any(b > a for a, b in pairs))


def _view(ws: WeightVector | Sequence[Fraction]) -> tuple[int, Sequence[int]]:
    """``(scale, nums)`` with ``ws == nums / scale`` entrywise: a weight
    vector's own integer view, or one built for a plain Fraction sequence."""
    if isinstance(ws, WeightVector):
        return ws._scale, ws._nums
    scale, (nums,) = _integer_view((ws,))
    return scale, nums


def half_l1(
    xs: WeightVector | Sequence[Fraction], ys: WeightVector | Sequence[Fraction]
) -> Fraction:
    """Half the l1 distance between two weight sequences, exact.

    Between two allocations this is the mass that has to move to turn one
    into the other; measured from equal weights it is both the turnover and
    the Hoover index.
    """
    (a, xs), (b, ys) = _view(xs), _view(ys)
    return Fraction(sum(abs(x * b - y * a) for x, y in zip(xs, ys)), 2 * a * b)


@dataclass(frozen=True)
class LorenzCurve:
    """Piecewise-linear cumulative-share curve of an allocation.

    Points run from (0, 0) to (1, 1); ordinates are cumulative sums of the
    ascending rearrangement, so the curve is convex and never rises above
    the diagonal.
    """

    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pts = tuple((as_fraction(x), as_fraction(y)) for x, y in self.points)
        if len(pts) < 2 or pts[0] != (Fraction(0), Fraction(0)) or pts[-1] != (
            Fraction(1),
            Fraction(1),
        ):
            raise ValueError("curve must run from (0,0) to (1,1)")
        xs = [p[0] for p in pts]
        if any(x1 >= x2 for x1, x2 in zip(xs, xs[1:])):
            raise ValueError("abscissas must strictly increase")
        if any(y1 > y2 for (_, y1), (_, y2) in zip(pts, pts[1:])):
            raise ValueError("ordinates must not decrease")
        if any(y > x for x, y in pts):
            raise ValueError("curve must stay weakly below the diagonal")
        slopes = [
            (y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(pts, pts[1:])
        ]
        if any(s0 > s1 for s0, s1 in zip(slopes, slopes[1:])):
            raise ValueError("curve must be convex (slopes non-decreasing)")
        object.__setattr__(self, "points", pts)

    def value_at(self, t: RationalLike) -> Fraction:
        """Exact linear interpolation of the curve at abscissa t in [0, 1]."""
        t = as_fraction(t)
        if t < 0 or t > 1:
            raise ValueError("abscissa must lie in [0, 1]")
        return next(_curve_values(self.points, (t,)))

    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(p[0] for p in self.points)


def lorenz_curve(w: WeightVector) -> LorenzCurve:
    """Cumulative shares of the ascending rearrangement of ``w``."""
    ascending = sorted(w.weights)
    n = w.n
    points = [(Fraction(0), Fraction(0))]
    running = Fraction(0)
    for k, value in enumerate(ascending, start=1):
        running += value
        points.append((Fraction(k, n), running))
    return LorenzCurve(tuple(points))


def lorenz_dominates(a: LorenzCurve, b: LorenzCurve) -> MajorizationRelation:
    """Compare two curves pointwise; lengths of the underlying vectors may differ.

    A higher curve belongs to the more equal allocation.
    """
    return _curve_relation(a.points, b.points)


def _snap(x: float, cap: int) -> tuple[int, int]:
    """``(p, q)`` in lowest terms with p / q == Fraction(x).limit_denominator(cap).

    The same continued-fraction walk on Python ints: the last convergent
    with denominator at most ``cap`` or the best semiconvergent past it,
    whichever is closer to x, the convergent on a tie.
    """
    n, den = x.as_integer_ratio()
    if den <= cap:
        return n, den
    d = den
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > cap:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (cap - q0) // q1
    q = q0 + k * q1
    # The two candidates lie on either side of x, 1 / (q1 * q) apart, and
    # p1 / q1 is d / (q1 * den) from x: it is at least as close iff
    # 2 * d * q <= den.
    if 2 * d * q <= den:
        return p1, q1
    return p0 + k * p1, q


def _sampler_counts(rng: random.Random, n: int) -> list[int]:
    """n exponential draws, each snapped to a rational with denominator at
    most the sampler cap (a draw that snaps to 0 becomes 1/cap), as
    numerators over the lcm of their denominators."""
    if n < 1:
        raise ValueError("need at least one slot")
    snapped = []
    for _ in range(n):
        p, q = _snap(rng.expovariate(1.0), _SAMPLER_DENOMINATOR_CAP)
        snapped.append((p, q) if p > 0 else (1, _SAMPLER_DENOMINATOR_CAP))
    scale = math.lcm(*(q for _, q in snapped))
    return [p * (scale // q) for p, q in snapped]


def _counts_vector(counts: Sequence[int]) -> WeightVector:
    """The weight vector proportional to positive integer counts."""
    total = sum(counts)
    return WeightVector(tuple(Fraction(c, total) for c in counts))


def random_weight_vector(rng: random.Random, n: int) -> WeightVector:
    """Draw a weight vector roughly uniformly over the simplex.

    Exponential draws normalized to unit sum give uniform (flat Dirichlet)
    coverage; each draw is snapped to a nearby rational before the exact
    normalization so the result satisfies the unit-sum invariant exactly.
    """
    return _counts_vector(_sampler_counts(rng, n))
