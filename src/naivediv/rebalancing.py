"""Turnover accounting and minimal-turnover plans toward equal weights.

Turnover is half the l1 distance from the equal-weight allocation: the
fraction of total mass that has to move.  A rebalancing matrix is any
doubly stochastic matrix carrying the current allocation onto equal
weights; those matrices form a polytope, and different members cost
different amounts in practice.  Practical turnover scales theoretical
turnover by the Frobenius distance of the chosen matrix from the nearest
permutation matrix, so pure relabelings are free and the identity is the
cheapest honest executor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Sequence

from .errors import DimensionMismatch, NotInPolytope
from .matrices import (
    DoublyStochasticMatrix,
    SquareMatrix,
    TTransform,
    _carries,
    apply_transform,
    averaging_step_count,
    compose,
    muirhead_decompose,
    uniform_mixing_matrix,
)
from .simplex import (
    RationalLike,
    WeightVector,
    _hoover_exact,
    _slot_gaps,
    as_fraction,
    half_l1,
    uniform_vector,
)


@dataclass(frozen=True)
class TurnoverVector:
    """Signed per-slot imbalances; they always cancel out in total."""

    deltas: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        deltas = tuple(as_fraction(d) for d in self.deltas)
        if sum(deltas) != 0:
            raise ValueError("imbalances must sum to zero")
        object.__setattr__(self, "deltas", deltas)


def turnover_vector(w: WeightVector) -> TurnoverVector:
    """Componentwise distance to the equal share: w - 1/n, exact."""
    gaps = _slot_gaps(w.n, repeat(1, w.n), w._scale, w._nums)
    return TurnoverVector(tuple(map(Fraction, gaps, repeat(w.n * w._scale))))


def turnover(w: WeightVector) -> Fraction:
    """Half the l1 distance from equal weights; the mass that must move.

    This is the Hoover index, and computed as that measure's exact form.
    """
    return Fraction(*_hoover_exact(w._scale, w._nums))


def polytope_membership(p: SquareMatrix, w: WeightVector) -> bool:
    """True iff ``p`` is doubly stochastic and carries ``w`` exactly to 1/n."""
    if p.order != w.n:
        raise DimensionMismatch(f"matrix order {p.order} vs vector length {w.n}")
    ones = (1,) * w.n
    # as (scale, nums): the all-ones pair, then w and 1/n in every slot
    return _carries(p, [((1, ones), (1, ones)), ((w._scale, w._nums), (w.n, ones))])


def example_family(u: RationalLike, v: RationalLike) -> DoublyStochasticMatrix | None:
    """The two-parameter 3x3 family of rebalancers for the (1/2, 1/3, 1/6) case.

    Row and column sums are identically one, so any parameter choice keeping
    every entry nonnegative yields a doubly stochastic member that maps
    (1/2, 1/3, 1/6) to equal weights; other choices return None.  (0, 0)
    gives the single-averaging-step matrix, (1/3, 1/3) gives full mixing.
    """
    uu = as_fraction(u)
    vv = as_fraction(v)
    half = Fraction(1, 2)
    outer = (half - vv / 2, uu, half + vv / 2 - uu)
    middle = (vv, 1 - 2 * uu, 2 * uu - vv)
    if min(*outer, *middle) < 0:
        return None
    return DoublyStochasticMatrix((outer, middle, outer))


def frobenius_distance_squared(a: SquareMatrix, b: SquareMatrix) -> Fraction:
    """Exact squared Frobenius distance between two same-order matrices."""
    if a.order != b.order:
        raise DimensionMismatch(f"orders differ: {a.order} vs {b.order}")
    (s, xs), (u, ys) = a._scaled, b._scaled
    gaps = (_slot_gaps(s, ra, u, rb) for ra, rb in zip(xs, ys))
    return Fraction(sum(g * g for row in gaps for g in row), (s * u) ** 2)


def _max_assignment(a: Sequence[Sequence[int]]) -> int:
    """The largest sum of ``a[i][perm[i]]`` over all permutations, exact.

    Kuhn's Hungarian method in its O(n^3) form with row potentials ``u`` and
    column potentials ``v``, minimizing the negated weights on Python ints.
    Rows are placed one per phase by a shortest augmenting path; index 0 is
    a virtual column that holds the row being placed, so the real rows and
    columns are 1..n.
    """
    n = len(a)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    owner = [0] * (n + 1)  # owner[j]: the row matched to column j, 0 if none
    way = [0] * (n + 1)  # way[j]: the previous column on the path to j
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        minv = [None] * (n + 1)  # least reduced cost into each column so far
        used = [False] * (n + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            row, ui = a[i0 - 1], u[i0]
            delta = None
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                reduced = -row[j - 1] - ui - v[j]
                if minv[j] is None or reduced < minv[j]:
                    minv[j] = reduced
                    way[j] = j0
                if delta is None or minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    return sum(a[owner[j] - 1][j - 1] for j in range(1, n + 1))


def min_permutation_distance_squared(p: SquareMatrix) -> Fraction:
    """Exact squared Frobenius distance from ``p`` to the nearest permutation.

    Minimizing ||p - Pi||^2 is the same as maximizing the trace of p against
    the permutation, an assignment problem.  The entries are scaled to
    integers by the lcm of their denominators and the assignment is solved
    by the Hungarian method on those integers, so the result is exact at
    every order, near-ties included.
    """
    n = p.order
    scale, a = p._scaled
    norm_sq = sum(x * x for row in a for x in row)
    best = _max_assignment(a)
    return Fraction(norm_sq - 2 * best * scale + n * scale * scale, scale * scale)


def practical_turnover(w: WeightVector, p: SquareMatrix) -> float:
    """Theoretical turnover scaled by the executor's distance from a relabeling.

    Requires ``p`` to actually rebalance ``w`` to equal weights.
    """
    if not polytope_membership(p, w):
        raise NotInPolytope("matrix does not rebalance this allocation to 1/n")
    return _practical(turnover(w), p)


def _practical(tau: Fraction, p: SquareMatrix) -> float:
    """Turnover ``tau`` times the distance of ``p`` from a permutation."""
    return float(tau) * math.sqrt(float(min_permutation_distance_squared(p)))


def _is_uniform(w: WeightVector) -> bool:
    # equal entries that sum to one are 1/n each
    return min(w._nums) == max(w._nums)


def _check_cost_field(name: str, value: float) -> None:
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class RebalancePlan:
    """An executable recipe: a chain of transforms, its trades and its costs.

    The plan is its chain.  Construction checks that replaying ``steps`` on
    ``source`` lands exactly on ``target``, and derives ``intermediates``
    (each state of that replay), ``turnover`` and ``trades`` (target minus
    source, under the source's slot labels).  ``practical_turnover`` is
    given exactly for equal-weight targets, where the notion is defined.
    A written plan rounds it and ``cost``, so both are checked against
    bounds, not re-derived: practical turnover at most 4/3 times turnover
    times sqrt(n - 1) (a doubly stochastic P has min ||P - Pi||^2 <= n - 1),
    and cost within a factor 2 of cost_rate times twice the turnover.  The
    factors are the worst case of rounding once to one significant digit.
    """

    source: WeightVector
    target: WeightVector
    steps: tuple[TTransform, ...]
    practical_turnover: float | None
    cost: float
    cost_rate: float
    intermediates: tuple[WeightVector, ...] = field(init=False, compare=False)
    turnover: Fraction = field(init=False, compare=False)
    trades: tuple[tuple[str, Fraction], ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        source, target = self.source, self.target
        chain = tuple(accumulate(self.steps, apply_transform, initial=source))
        # the integer views decide, whatever the labels
        if (chain[-1]._scale, chain[-1]._nums) != (target._scale, target._nums):
            raise ValueError("steps do not reproduce the target")
        tau = half_l1(source, target)
        labels = source.labels or tuple(f"w{i}" for i in range(1, source.n + 1))
        gaps = _slot_gaps(source._scale, source._nums, target._scale, target._nums)
        deltas = map(Fraction, gaps, repeat(source._scale * target._scale))
        object.__setattr__(self, "intermediates", chain[1:])
        object.__setattr__(self, "turnover", tau)
        object.__setattr__(self, "trades", tuple(zip(labels, deltas)))
        _check_cost_field("cost_rate", self.cost_rate)
        _check_cost_field("cost", self.cost)
        charge = float(self.cost_rate) * float(2 * tau)  # as rebalance_to prices
        if not charge / 2 <= self.cost <= 2 * charge:
            raise ValueError(
                f"cost {self.cost} is not within a factor 2 of {charge}, "
                "cost_rate times twice the turnover"
            )
        practical = self.practical_turnover
        if (practical is not None) != _is_uniform(target):
            raise ValueError(
                "practical_turnover must be given exactly when the target is "
                "equal weights"
            )
        if practical is not None:
            _check_cost_field("practical_turnover", practical)
            # practical <= 4/3 turnover sqrt(n - 1), squared and exact
            if 9 * Fraction(practical) ** 2 > 16 * tau**2 * (source.n - 1):
                raise ValueError("practical_turnover exceeds 4/3 turnover sqrt(n - 1)")

    @property
    def averaging_steps(self) -> int:
        """Step count excluding pure relabeling swaps."""
        return averaging_step_count(self.steps)

    def composed_matrix(self) -> DoublyStochasticMatrix:
        """The single doubly stochastic matrix equal to the whole chain."""
        return compose(self.steps, self.source.n)


def rebalance_to(
    w: WeightVector, target: WeightVector, cost_rate: float = 0.0
) -> RebalancePlan:
    """A plan of at most n - 1 averaging steps carrying ``w`` exactly onto a
    flatter ``target``.

    The source must majorize the target.  The plan is the Muirhead chain
    with its cost and, for an equal-weight target, its practical turnover;
    the plan derives the rest.  The chain keeps the n - 1 bound but does
    not always take the fewest steps.  Cost is proportional to total traded
    mass (buys plus sells), i.e. cost_rate times twice the turnover; a
    negative or non-finite rate raises ValueError.
    """
    _check_cost_field("cost_rate", cost_rate)
    steps = tuple(muirhead_decompose(w, target))
    tau = half_l1(w, target)  # prices the plan
    # the chain product is a member by construction: no membership check
    practical = _practical(tau, compose(steps, w.n)) if _is_uniform(target) else None
    return RebalancePlan(
        source=w,
        target=target,
        steps=steps,
        practical_turnover=practical,
        cost=float(cost_rate) * float(2 * tau),
        cost_rate=float(cost_rate),
    )


def minimal_turnover_plan(w: WeightVector, cost_rate: float = 0.0) -> RebalancePlan:
    """The equal-weight rebalancing plan: at most n - 1 averaging steps."""
    return rebalance_to(w, uniform_vector(w.n), cost_rate)


def sample_polytope(
    w: WeightVector, seed: int, k: int
) -> list[DoublyStochasticMatrix]:
    """Draw ``k`` matrices that provably rebalance ``w`` to equal weights.

    Candidates are built from known members — the full-mixing matrix, the
    transform-chain product, and right-multiplications by permutations
    (relabeling after equalizing stays in the polytope) — plus convex
    combinations.  Left-multiplied variants are speculative: membership is
    re-verified exactly and failures are discarded, so everything returned
    is a genuine member.
    """
    if k < 0:
        raise ValueError("sample count must be nonnegative")
    n = w.n
    rng = random.Random(seed)
    full_mix = uniform_mixing_matrix(n)
    chain = minimal_turnover_plan(w).composed_matrix()
    members: list[SquareMatrix] = [full_mix, chain]
    for _ in range(4):
        perm = list(range(n))
        rng.shuffle(perm)
        members.append(chain @ SquareMatrix.from_permutation(perm))

    out: list[DoublyStochasticMatrix] = []
    while len(out) < k:
        kind = rng.randrange(3)
        if kind == 0:
            candidate = members[rng.randrange(len(members))]
        elif kind == 1:
            # Speculative: equalize a relabeled allocation; only sometimes works.
            perm = list(range(n))
            rng.shuffle(perm)
            candidate = SquareMatrix.from_permutation(perm) @ chain
        else:
            chosen = rng.sample(members, min(len(members), 2 + rng.randrange(2)))
            raw = [rng.randint(0, 100) for _ in chosen]
            if sum(raw) == 0:
                continue
            candidate = SquareMatrix._mixture(raw, chosen)
        if polytope_membership(candidate, w):
            scale, a = candidate._scaled
            out.append(DoublyStochasticMatrix._from_ints(a, scale))
    return out


__all__ = [
    "TurnoverVector",
    "turnover_vector",
    "turnover",
    "polytope_membership",
    "example_family",
    "frobenius_distance_squared",
    "min_permutation_distance_squared",
    "practical_turnover",
    "RebalancePlan",
    "rebalance_to",
    "minimal_turnover_plan",
    "sample_polytope",
]
