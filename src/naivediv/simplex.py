"""Exact-arithmetic weight vectors and the majorization preorder.

A weight vector's state is its integer view: its numerators over the lcm
of its denominators.  Every ordering decision (partial sums, Lorenz
comparisons) and every exact measure runs on those Python ints, so all of
them are exact.  The `fractions.Fraction` entries, ``weights``, are built
from the view on first read and cached.  Floats appear only further
downstream, in measure evaluation and report formatting.

A vector ``beta`` majorizes ``alpha`` when both have equal totals and the
descending partial sums of ``beta`` dominate those of ``alpha``:

    sum of k largest of beta >= sum of k largest of alpha   for every k.

Being majorized means being closer to the equal-weight allocation, which
is what a naive diversifier prefers.

The seeded samplers live here too: lattice draws (``random_weight_vector``)
and majorized pairs made from them by two-slot transfers (``_t_step``), all
on integer views and reading ``rng.getrandbits`` only.
"""

from __future__ import annotations

import decimal
import functools
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate, pairwise, repeat
from operator import sub
from typing import Iterable, Iterator, Sequence, Union

from .errors import LengthMismatch

RationalLike = Union[Fraction, int, str]
#: A piecewise-linear curve in integer form ``(x_scale, xs, y_scale, ys)``:
#: breakpoints (xs[i] / x_scale, ys[i] / y_scale), abscissas strictly
#: increasing from 0 to 1.
_Curve = tuple[int, Sequence[int], int, Sequence[int]]

#: A vector as its integer view ``(scale, nums)``, its entries nums / scale.
_Ints = tuple[int, Sequence[int]]

#: The sampler draws counts over D = _SAMPLER_LATTICE * n.
_SAMPLER_LATTICE = 10**6


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

    The state is the integer view ``(_scale, _nums)``: ``_scale`` is the lcm
    of the entries' denominators and ``weights == _nums / _scale`` entrywise.
    The view is canonical, so ``==`` and ``hash`` read it and the labels.
    ``weights``, the entries as Fractions, is built on first read and cached
    (``_from_ints`` never builds it; the constructor keeps what it is given).
    """

    weights: tuple[Fraction, ...] = field(compare=False)
    labels: tuple[str, ...] | None = None
    _scale: int = field(init=False, repr=False)
    _nums: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        weights = tuple(as_fraction(w) for w in self.weights)
        scale, (nums,) = _integer_view((weights,))
        self._settle(scale, tuple(nums), self.labels)
        object.__setattr__(self, "weights", weights)

    def _settle(
        self, scale: int, nums: tuple[int, ...], labels: Iterable[str] | None
    ) -> None:
        """Check the invariants on the integer view, then set the view and
        the labels."""
        if not nums:
            raise ValueError("weight vector must have at least one entry")
        if min(nums) < 0:
            raise ValueError("weights must be nonnegative")
        total = sum(nums)
        if total != scale:
            raise ValueError(
                f"weights must sum to exactly 1, got {Fraction(total, scale)}"
            )
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "labels", _checked_labels(labels, len(nums)))

    def __getattr__(self, name: str) -> tuple[Fraction, ...]:
        # reached only when normal lookup fails: ``weights`` not built yet
        view = self.__dict__
        if name != "weights" or "_nums" not in view:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        weights = tuple(map(Fraction, view["_nums"], repeat(view["_scale"])))
        object.__setattr__(self, "weights", weights)
        return weights

    @property
    def n(self) -> int:
        return len(self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.weights)

    def sorted_descending(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.weights, reverse=True))

    def as_strings(self) -> tuple[str, ...]:
        """The entries as ``str(Fraction)`` writes them, ``p/q`` or ``p``,
        from the integer view: one gcd per entry, no Fraction built."""
        return _rational_strings(self._nums, self._scale)


def _rational_strings(nums: Iterable[int], scale: int) -> tuple[str, ...]:
    """Each ``x / scale`` in lowest terms as ``str(Fraction)`` writes it.

    The reduced denominator scale / g is fixed by g = gcd(x, scale), so
    the text of each distinct one ("/q", or "" for q = 1) is written once
    per call: in a Lorenz column most of them repeat.
    """
    tails: dict[int, str] = {}
    out = []
    for x in nums:
        g = math.gcd(x, scale)
        tail = tails.get(g)
        if tail is None:
            tail = tails[g] = "/" + _int_text(scale // g) if g != scale else ""
        p = x // g
        try:
            out.append(f"{p}{tail}")
        except ValueError:  # an int past the int-to-text digit limit
            out.append(_int_text(p) + tail)
    return tuple(out)


def _fraction_text(x: Fraction) -> str:
    """``str(x)``, its integers written by ``_int_text``."""
    p = _int_text(x.numerator)
    return f"{p}/{_int_text(x.denominator)}" if x.denominator != 1 else p


def _int_text(x: int) -> str:
    """``str(x)``, also for an int past CPython's limit on the digits of an
    int-to-text conversion (``sys.set_int_max_str_digits``): ``decimal``
    converts it exactly and has no such limit.  The limit on reading input
    stays."""
    try:
        return str(x)
    except ValueError:
        return str(decimal.Context(prec=decimal.MAX_PREC).create_decimal(x))


def _checked_labels(
    labels: Iterable[str] | None, n: int
) -> tuple[str, ...] | None:
    """``labels`` as a tuple of strings, checked to be n unique names."""
    if labels is None:
        return None
    labels = tuple(str(lab) for lab in labels)
    if len(labels) != n:
        raise LengthMismatch(f"{len(labels)} labels for {n} weights")
    if len(set(labels)) != n:
        raise ValueError("labels must be unique")
    return labels


def _from_ints(
    nums: Sequence[int], scale: int, labels: Iterable[str] | None = None
) -> WeightVector:
    """The weight vector with entries nums / scale, built on ints.

    Dividing out gcd(scale, *nums) leaves the scale equal to the lcm of the
    entries' denominators, the canonical integer view.  No Fraction is made.
    """
    g = math.gcd(scale, *nums)
    if g > 1:
        scale //= g
        nums = [x // g for x in nums]
    w = object.__new__(WeightVector)
    w._settle(scale, tuple(nums), labels)
    return w


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
    return _from_ints((1,) * n, n)


def decreasing_rearrangement(w: WeightVector) -> WeightVector:
    """Sort weights in descending order, ties broken by original index.

    Labels, when present, travel with their weights.
    """
    nums = w._nums
    order = sorted(range(w.n), key=lambda i: (-nums[i], i))
    labels = tuple(w.labels[i] for i in order) if w.labels is not None else None
    return _from_ints([nums[i] for i in order], w._scale, labels)


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
    # beta's descending partial sums above alpha's is alpha's Lorenz curve
    # above beta's, since both totals are 1
    return _curve_order(_lorenz_ints(alpha), _lorenz_ints(beta))


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


def _lorenz_ints(w: WeightVector) -> _Curve:
    """The Lorenz curve of ``w`` in integer form: the ascending cumulative
    sums of its numerators at abscissas k / n."""
    return w.n, range(w.n + 1), w._scale, list(accumulate(sorted(w._nums), initial=0))


def _relative_curve(w: WeightVector, d: WeightVector) -> _Curve:
    """The concave curve through the cumulative sums of (d_i, w_i), slots in
    decreasing order of w_i / d_i; slots with d_i = 0 form a jump at x = 0."""
    pairs = list(zip(w._nums, d._nums))
    jump = sum(x for x, y in pairs if y == 0)
    # on the numerators the scales cancel: slot (x, y) goes before (u, v)
    # when x * v > u * y
    slots = sorted(
        ((x, y) for x, y in pairs if y),
        key=functools.cmp_to_key(lambda s, t: t[0] * s[1] - s[0] * t[1]),
    )
    xs = list(accumulate((y for _, y in slots), initial=0))
    ys = list(accumulate((x for x, _ in slots), initial=jump))
    return d._scale, xs, w._scale, ys


def _curve_order(p: _Curve, q: _Curve) -> MajorizationRelation:
    """FIRST_MORE_EQUAL when curve ``p`` lies weakly above curve ``q`` and
    strictly above it somewhere, and so on.

    Both curves are linear between the union of their breakpoints, so
    comparing there is sufficient.  Curves on the same abscissas are
    compared ordinate by ordinate from x = 1 down, through the largest
    weights first, where two allocations that cross mostly show it early;
    otherwise the breakpoints are merged.  The walk stops once each curve
    has been seen above the other.
    """
    if p[:2] == q[:2]:
        a, b = p[2], q[2]
        pairs = zip(reversed(p[3]), reversed(q[3]))
        gaps: Iterable[int] = (y * b - z * a for y, z in pairs)
    else:
        gaps = _merged_gaps(p, q)
    p_above = q_above = False
    for gap in gaps:
        if gap > 0:
            p_above = True
        elif gap < 0:
            q_above = True
        if p_above and q_above:
            break
    return _relation(p_above, q_above)


def _merged_gaps(p: _Curve, q: _Curve) -> Iterator[int]:
    """At every breakpoint of either curve, in ascending order, an integer
    with the sign of p - q there; abscissas are ordered by cross products."""
    p_xscale, p_xs, p_yscale, p_ys = p
    q_xscale, q_xs, q_yscale, q_ys = q
    i = j = 0
    while i < len(p_xs) and j < len(q_xs):
        order = p_xs[i] * q_xscale - q_xs[j] * p_xscale
        if order == 0:
            yield p_ys[i] * q_yscale - q_ys[j] * p_yscale
            i += 1
            j += 1
        elif order < 0:
            num, den = _chord(q, j, p_xs[i], p_xscale)
            yield p_ys[i] * den - num * p_yscale
            i += 1
        else:
            num, den = _chord(p, i, q_xs[j], q_xscale)
            yield num * q_yscale - q_ys[j] * den
            j += 1


def _chord(curve: _Curve, k: int, x: int, xa: int) -> tuple[int, int]:
    """``(num, den)``, den > 0, with num / den the curve's value at x / xa,
    an abscissa on its segment from breakpoint k - 1 to k."""
    x_scale, xs, y_scale, ys = curve
    x0, y0 = xs[k - 1], ys[k - 1]
    dx, dy = xs[k] - x0, ys[k] - y0
    # (y0 + dy * (x / xa * x_scale - x0) / dx) / y_scale
    return y0 * xa * dx + dy * (x * x_scale - x0 * xa), y_scale * xa * dx


def _sum_of_squares(scale: int, nums: Sequence[int]) -> tuple[int, int]:
    """``(num, den)`` with the sum of the squared weights of the integer view
    ``(scale, nums)`` equal to num / den: the squared numerators over the
    squared scale."""
    return sum(x * x for x in nums), scale * scale


def _slot_gaps(s: int, xs: Iterable[int], u: int, ts: Iterable[int]) -> Iterator[int]:
    """Slot by slot, t / u - x / s over the common denominator s * u: the
    integer t * s - x * u, for the vectors xs / s and ts / u."""
    return (t * s - x * u for x, t in zip(xs, ts))


def _half_l1(s: int, xs: Iterable[int], u: int, ts: Iterable[int]) -> tuple[int, int]:
    """``(num, den)`` with half the l1 distance between xs / s and ts / u
    equal to num / den: the summed slot gaps over 2 * s * u."""
    return sum(map(abs, _slot_gaps(s, xs, u, ts))), 2 * s * u


def half_l1(xs: WeightVector, ys: WeightVector) -> Fraction:
    """Half the l1 distance between two allocations, exact.

    This is the mass that has to move to turn one into the other; measured
    from equal weights it is both the turnover and the Hoover index.
    """
    return Fraction(*_half_l1(xs._scale, xs._nums, ys._scale, ys._nums))


def _hoover_exact(scale: int, nums: Sequence[int]) -> tuple[int, int]:
    """``(num, den)``: half the l1 distance of the integer view
    ``(scale, nums)`` from equal weights (the Hoover index and
    rebalancing.turnover), which enter as the integer view (n, 1 ... 1)."""
    n = len(nums)
    return _half_l1(scale, nums, n, repeat(1, n))


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
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("curve must run from (0,0) to (1,1)")
        x_scale, xs, y_scale, ys = self._view
        if (xs[0], ys[0], xs[-1], ys[-1]) != (0, 0, x_scale, y_scale):
            raise ValueError("curve must run from (0,0) to (1,1)")
        if any(x0 >= x1 for x0, x1 in pairwise(xs)):
            raise ValueError("abscissas must strictly increase")
        if any(y0 > y1 for y0, y1 in pairwise(ys)):
            raise ValueError("ordinates must not decrease")
        if any(y * x_scale > x * y_scale for x, y in zip(xs, ys)):
            raise ValueError("curve must stay weakly below the diagonal")
        steps = [
            (x1 - x0, y1 - y0) for (x0, x1), (y0, y1) in zip(pairwise(xs), pairwise(ys))
        ]
        # slope i above slope i + 1, every run positive
        if any(dy0 * dx1 > dy1 * dx0 for (dx0, dy0), (dx1, dy1) in pairwise(steps)):
            raise ValueError("curve must be convex (slopes non-decreasing)")

    @functools.cached_property
    def _view(self) -> _Curve:
        """The curve in integer form, both coordinates over the lcm of all
        the denominators (``_integer_view``); built once per curve."""
        scale, (xs, ys) = _integer_view(tuple(zip(*self.points)))
        return scale, xs, scale, ys

    def value_at(self, t: RationalLike) -> Fraction:
        """Exact linear interpolation of the curve at abscissa t in [0, 1]."""
        t = as_fraction(t)
        if t < 0 or t > 1:
            raise ValueError("abscissa must lie in [0, 1]")
        x_scale, xs = self._view[:2]
        x, xa = t.numerator, t.denominator
        # the first segment, from breakpoint k - 1 to k, that reaches t
        k = next(k for k in range(1, len(xs)) if xs[k] * xa >= x * x_scale)
        return Fraction(*_chord(self._view, k, x, xa))

    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(p[0] for p in self.points)


def lorenz_curve(w: WeightVector) -> LorenzCurve:
    """Cumulative shares of the ascending rearrangement of ``w``."""
    view = n, xs, scale, ys = _lorenz_ints(w)
    curve = object.__new__(LorenzCurve)
    # the integer view is cached before __init__, so its checks read the
    # sums already made instead of rebuilding them from the Fractions
    curve.__dict__["_view"] = view
    curve.__init__(
        tuple(zip(map(Fraction, xs, repeat(n)), map(Fraction, ys, repeat(scale))))
    )
    return curve


def lorenz_dominates(a: LorenzCurve, b: LorenzCurve) -> MajorizationRelation:
    """Compare two curves pointwise; lengths of the underlying vectors may differ.

    A higher curve belongs to the more equal allocation.
    """
    return _curve_order(a._view, b._view)


def _below(draw, n: int) -> int:
    """A uniform int in 0 .. n - 1 read from ``draw = rng.getrandbits`` the
    way ``random.Random._randbelow`` reads it: n.bit_length() bits a draw,
    redrawn until below n, so it consumes the same stream."""
    if n <= 0:
        # getrandbits(0) is 0 forever, so a zero bound would never return
        raise ValueError("need a positive bound")
    bits = n.bit_length()
    r = draw(bits)
    while r >= n:
        r = draw(bits)
    return r


def _pick_two(draw, n: int) -> tuple[int, int]:
    """Two distinct slots of 0 .. n - 1, drawn from ``draw = rng.getrandbits``
    exactly as ``rng.sample(range(n), 2)`` draws them.

    ``sample`` swaps through a pool list up to n = 21 and redraws repeats
    from a set beyond; both branches are copied, so the stream is the same.
    """
    if n < 2:
        raise ValueError("need at least two slots to pick two")
    j = _below(draw, n)
    if n <= 21:
        # the pool moved slot n - 1 into j's vacancy
        k = _below(draw, n - 1)
        return j, (n - 1 if k == j else k)
    k = _below(draw, n)
    while k == j:
        k = _below(draw, n)
    return j, k


def _sampler_counts(rng: random.Random, n: int) -> list[int]:
    """n positive counts summing to the sampler lattice's D = 10**6 * n: the
    gaps between n - 1 distinct cut points drawn from 1 .. D - 1.

    The cuts are read from ``rng.getrandbits`` exactly as
    ``rng.sample(range(1, D), n - 1)`` reads them: D - 1 is far above
    ``sample``'s small-population cutoff, so that is its set branch, each
    index drawn as ``_randbelow(D - 1)`` and a repeat drawn again.
    """
    if n < 1:
        raise ValueError("need at least one slot")
    total = _SAMPLER_LATTICE * n
    m = total - 1
    bits = m.bit_length()
    draw = rng.getrandbits
    picked: set[int] = set()
    while len(picked) < n - 1:
        r = draw(bits)
        if r < m:
            picked.add(r)
    # index r is cut r + 1; the edges -1 and m stand for the cuts 0 and D
    edges = [-1, *sorted(picked), m]
    return list(map(sub, edges[1:], edges))


def random_weight_vector(rng: random.Random, n: int) -> WeightVector:
    """Draw a weight vector uniformly from the lattice points with
    denominator D = 10**6 * n inside the simplex.

    Every weight is a positive multiple of 1/D, and every such allocation is
    equally likely: a discrete flat Dirichlet, on ints throughout.  It reads
    ``rng.getrandbits`` only, and leaves ``rng`` in the state
    ``rng.sample(range(1, D), n - 1)`` would (see ``_sampler_counts``).
    """
    return _from_ints(_sampler_counts(rng, n), _SAMPLER_LATTICE * n)


def _t_step(scale: int, nums: Sequence[int], j: int, k: int, p: int, q: int) -> _Ints:
    """The transform (j, k, p / q) applied to the vector nums / scale, on ints.

    Slot j becomes (p * a + (q - p) * b) / (scale * q) with a, b the
    numerators of slots j and k, and the other way round for slot k; every
    other numerator is carried over to the scale scale * q.
    """
    out = [x * q for x in nums]
    a, b = nums[j], nums[k]
    out[j] = p * a + (q - p) * b
    out[k] = p * b + (q - p) * a
    return scale * q, out


def _clearly_nonuniform(rng: random.Random, n: int) -> _Ints:
    """A random allocation bounded away from uniform, so zero values are
    real bugs, as the integer view ``(D, counts)`` of a sampler draw.

    The first ``random_weight_vector`` draw, read as its counts over
    D = 10**6 * n, whose Hoover index, half the l1 distance from equal
    weights, is at least 1/(10n).  On the view that reads
    5 * sum |D - n * x_i| >= D, decided on ints.
    """
    total = _SAMPLER_LATTICE * n
    ones = (1,) * n
    while True:
        counts = _sampler_counts(rng, n)
        if 5 * sum(map(abs, _slot_gaps(total, counts, n, ones))) >= total:
            return total, counts


def _majorization_pair_ints(
    rng: random.Random, n: int, transforms: int | None = None
) -> tuple[_Ints, _Ints]:
    """``random_majorization_pair`` on integer views: (alpha, beta) as
    ``(scale, nums)``, beta the sampler's counts over D = 10**6 * n and
    alpha their image under the chain, neither in lowest terms."""
    total = _SAMPLER_LATTICE * n
    counts = _sampler_counts(rng, n)
    draw = rng.getrandbits
    # randint(a, b) is a + _randbelow(b - a + 1)
    count = transforms if transforms is not None else 1 + _below(draw, max(1, n - 1))
    scale, nums = total, counts
    for _ in range(count):
        j, k = _pick_two(draw, n)
        scale, nums = _t_step(scale, nums, j, k, _below(draw, 101), 100)
    return (scale, nums), (total, counts)


def random_majorization_pair(
    rng: random.Random, n: int, transforms: int | None = None
) -> tuple[WeightVector, WeightVector]:
    """Seeded (alpha, beta) with beta majorizing alpha, built constructively.

    ``beta`` is a random simplex point, drawn as ``random_weight_vector``
    draws it; ``alpha`` is its image under a short chain of random
    averaging transforms, run on beta's integer view.  Every draw reads
    ``rng.getrandbits`` and consumes the stream that ``random.Random``'s
    ``randint`` and ``sample(range(n), 2)`` would, so a seed gives the pairs
    it always gave.
    """
    (a_scale, a), (b_scale, b) = _majorization_pair_ints(rng, n, transforms)
    return _from_ints(a, a_scale), _from_ints(b, b_scale)


def _strict_pair_ints(rng: random.Random, n: int) -> tuple[_Ints, _Ints]:
    """``random_strict_majorization_pair`` on integer views: (alpha, beta)
    as ``(scale, nums)``, neither in lowest terms.

    Raises ValueError, before any draw, when n < 2 or when no draw can keep
    every sorted gap at least 1/(20n): with counts over D = 10**6 * n that
    is a gap of at least g = ceil(D / (20n)) counts, and n positive counts
    so spaced sum to at least n + g * n(n - 1)/2, which must not exceed D.
    """
    if n < 2:
        raise ValueError("need at least two slots to pick two")
    total = _SAMPLER_LATTICE * n
    least_gap = -(-total // (20 * n))
    if n + least_gap * (n * (n - 1) // 2) > total:
        raise ValueError(
            f"no strict pair at n = {n}: sorted gaps of at least 1/(20n) "
            "would need weights summing past 1"
        )
    while True:
        counts = _sampler_counts(rng, n)
        ordered = sorted(counts)
        if 20 * n * min(map(sub, ordered[1:], ordered)) >= total:
            break
    draw = rng.getrandbits
    j, k = _pick_two(draw, n)
    return _t_step(total, counts, j, k, 10 + _below(draw, 81), 100), (total, counts)


def random_strict_majorization_pair(
    rng: random.Random, n: int
) -> tuple[WeightVector, WeightVector]:
    """A pair with a comfortable strictness margin for float-based tests.

    The source has well-separated sorted components (every gap at least
    1/(20n)) and the single transfer moves a non-trivial amount of mass, so
    any strictly order-reversing measure separates the two by far more
    than float noise.  Like ``random_majorization_pair`` it reads
    ``rng.getrandbits`` only, in the stream of ``random.Random``'s
    ``sample`` and ``randint``.  From n = 41 no draw can keep those gaps,
    so it raises ValueError there without drawing.
    """
    (a_scale, a), (b_scale, b) = _strict_pair_ints(rng, n)
    return _from_ints(a, a_scale), _from_ints(b, b_scale)
