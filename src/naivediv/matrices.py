"""Doubly stochastic matrices, averaging transforms, and exact witnesses.

The bridge between the majorization preorder and linear algebra: ``alpha``
is majorized by ``beta`` exactly when ``alpha = beta @ P`` for some doubly
stochastic ``P`` (row-vector convention throughout).  The constructive
direction is a chain of two-coordinate averaging transforms

    T = lam * I + (1 - lam) * Pi_jk,   lam in [0, 1],

where ``Pi_jk`` swaps coordinates j and k.  ``muirhead_decompose`` builds
such a chain explicitly, ``compose`` multiplies a chain out, and
``hlp_witness`` does both.

A matrix lives on its integer view, as a weight vector does: its state is
the numerators over the lcm of the denominators, and its Fraction rows are
built only when read.  The chain is built on the vectors' integer views,
``compose`` does O(n) integer work per step, and every membership check
(``_carries``) sums ints.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    LengthMismatch,
    NotMajorized,
)
from .simplex import (
    WeightVector,
    _from_ints,
    _integer_view,
    _Ints,
    _t_step,
    as_fraction,
    majorizes,
)


@dataclass(frozen=True)
class SquareMatrix:
    """An immutable n-by-n matrix of exact rationals.

    The state is the integer view ``_scaled = (scale, a)``: ``a`` holds the
    entries' numerators over ``scale``, the lcm of their denominators, so
    ``rows == a / scale`` entrywise.  The view is canonical, so ``==`` and
    ``hash`` read it.  ``rows``, the entries as Fractions, is built on first
    read and cached (``_from_ints`` never builds it; the constructor keeps
    what it is given).
    """

    rows: tuple[tuple[Fraction, ...], ...] = field(compare=False)
    _scaled: tuple[int, tuple[tuple[int, ...], ...]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows = tuple(tuple(as_fraction(e) for e in row) for row in self.rows)
        self._settle(*_integer_view(rows))
        object.__setattr__(self, "rows", rows)

    def _settle(self, scale: int, a: Sequence[Sequence[int]]) -> None:
        """Check the shape of the integer view, then set it."""
        n = len(a)
        if n == 0:
            raise ValueError("matrix must have at least one row")
        if any(len(row) != n for row in a):
            raise DimensionMismatch("matrix must be square")
        object.__setattr__(self, "_scaled", (scale, tuple(map(tuple, a))))

    @classmethod
    def _from_ints(cls, a: Sequence[Sequence[int]], scale: int) -> "SquareMatrix":
        """The matrix with entries a / scale, built on ints.

        Dividing out the gcd of scale and every entry leaves the scale equal
        to the lcm of the entries' denominators, the canonical view.
        """
        g = math.gcd(scale, *(x for row in a for x in row))
        if g > 1:
            scale //= g
            a = [[x // g for x in row] for row in a]
        m = object.__new__(cls)
        m._settle(scale, a)
        return m

    @classmethod
    def _mixture(
        cls, weights: Sequence[int], members: Sequence["SquareMatrix"]
    ) -> "SquareMatrix":
        """The convex combination sum(c * m) / sum(c) of ``members`` with
        nonnegative int ``weights`` of positive sum, on the integer views."""
        scale = math.lcm(*(m._scaled[0] for m in members))
        factors = [c * (scale // m._scaled[0]) for c, m in zip(weights, members)]
        grids = zip(*(m._scaled[1] for m in members))
        a = [[sum(map(operator.mul, factors, e)) for e in zip(*rows)] for rows in grids]
        return cls._from_ints(a, scale * sum(weights))

    def __getattr__(self, name: str) -> tuple[tuple[Fraction, ...], ...]:
        # reached only when normal lookup fails: ``rows`` not built yet
        view = self.__dict__
        if name != "rows" or "_scaled" not in view:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        scale, a = view["_scaled"]
        rows = tuple(tuple(map(Fraction, row, repeat(scale))) for row in a)
        object.__setattr__(self, "rows", rows)
        return rows

    def __eq__(self, other: object) -> bool:
        # entries decide equality, not the runtime class: a plain matrix and
        # a DoublyStochasticMatrix with the same rows are the same matrix
        if isinstance(other, SquareMatrix):
            return self._scaled == other._scaled
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._scaled)

    @property
    def order(self) -> int:
        return len(self._scaled[1])

    def matmul(self, other: "SquareMatrix") -> "SquareMatrix":
        if self.order != other.order:
            raise DimensionMismatch(
                f"orders differ: {self.order} vs {other.order}"
            )
        (s, a), (t, b) = self._scaled, other._scaled
        cols = list(zip(*b))
        product = [[sum(map(operator.mul, row, col)) for col in cols] for row in a]
        return SquareMatrix._from_ints(product, s * t)

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        return self.matmul(other)

    @staticmethod
    def identity(n: int) -> "SquareMatrix":
        return SquareMatrix.from_permutation(range(n))

    @staticmethod
    def from_permutation(perm: Sequence[int]) -> "SquareMatrix":
        """Matrix sending coordinate i to coordinate perm[i] under w @ M."""
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError("not a permutation of 0..n-1")
        return SquareMatrix._from_ints(
            [[int(perm[i] == j) for j in range(n)] for i in range(n)], 1
        )


class DoublyStochasticMatrix(SquareMatrix):
    """A square matrix with nonnegative entries and all line sums equal to one."""

    def _settle(self, scale: int, a: Sequence[Sequence[int]]) -> None:
        super()._settle(scale, a)
        if not is_doubly_stochastic(self):
            raise ValueError("matrix is not doubly stochastic")


def uniform_mixing_matrix(n: int) -> DoublyStochasticMatrix:
    """The order-n matrix with every entry 1/n (full averaging)."""
    return DoublyStochasticMatrix._from_ints([[1] * n for _ in range(n)], n)


@dataclass(frozen=True)
class TTransform:
    """A two-coordinate averaging step: lam * I + (1 - lam) * swap(j, k).

    Indices are zero-based here; serialized forms are one-based.  ``lam = 0``
    degenerates to a pure swap, ``lam = 1`` to the identity.
    """

    j: int
    k: int
    lam: Fraction

    def __post_init__(self) -> None:
        lam = as_fraction(self.lam)
        if self.j == self.k:
            raise ValueError("transform needs two distinct coordinates")
        if self.j < 0 or self.k < 0:
            raise IndexOutOfRange("coordinate indices must be nonnegative")
        if lam < 0 or lam > 1:
            raise ValueError("mixing weight must lie in [0, 1]")
        object.__setattr__(self, "lam", lam)


def _carries(m: SquareMatrix, pairs: Iterable[tuple[_Ints, _Ints]]) -> bool:
    """Exact check: m >= 0, every row sums to 1, and u @ m == v for each pair.

    Every membership question about mixing matrices has this form: doubly
    stochastic is the pair (1, 1), fixing d is the pair (d, d).  Vectors
    come as integer views and the sums run on ints, so no Fraction is
    built per entry.
    """
    scale, a = m._scaled
    if any(e < 0 for row in a for e in row) or any(sum(row) != scale for row in a):
        return False
    cols = list(zip(*a))
    for (u_scale, us), (v_scale, vs) in pairs:
        # u @ m == v  <=>  (us @ a) * v_scale == vs * u_scale * scale
        unit = u_scale * scale
        for col, x in zip(cols, vs):
            if sum(map(operator.mul, us, col)) * v_scale != x * unit:
                return False
    return True


def is_doubly_stochastic(m: SquareMatrix) -> bool:
    """Exact check: entries >= 0, every row and column sums to 1."""
    ones = (1, (1,) * m.order)
    return _carries(m, [(ones, ones)])


def is_permutation(m: SquareMatrix) -> bool:
    """True iff every entry is 0 or 1 and the matrix is doubly stochastic."""
    if not is_doubly_stochastic(m):
        return False
    scale, a = m._scaled
    return all(e == 0 or e == scale for row in a for e in row)


def is_d_stochastic(m: SquareMatrix, d: WeightVector) -> bool:
    """True iff d is a fixed point of m, rows sum to one, entries >= 0.

    Zero entries in ``d`` are allowed.  With d uniform this coincides with
    double stochasticity.
    """
    if d.n != m.order:
        raise DimensionMismatch(f"matrix order {m.order} vs vector length {d.n}")
    return _carries(m, [((d._scale, d._nums),) * 2])


def apply(w: WeightVector, m: SquareMatrix) -> WeightVector:
    """Row-vector product w @ m, exact.

    The matrix must be doubly stochastic, which makes the result a weight
    vector majorized by ``w``.  Labels carry over: slot j of the result is
    still slot j of the portfolio.
    """
    if w.n != m.order:
        raise LengthMismatch(f"vector length {w.n} vs matrix order {m.order}")
    if not isinstance(m, DoublyStochasticMatrix) and not is_doubly_stochastic(m):
        raise ValueError("matrix is not doubly stochastic")
    scale, a = m._scaled
    mixed = [sum(map(operator.mul, w._nums, col)) for col in zip(*a)]
    return _from_ints(mixed, w._scale * scale, w.labels)


def compose(steps: Iterable[TTransform], n: int) -> DoublyStochasticMatrix:
    """The order-n matrix of a transform chain, I @ T_1 @ ... @ T_m, exact.

    Right-multiplying by one transform mixes only columns j and k, so each
    step is O(n) integer work rather than a dense O(n^3) product.  Each
    column is kept as integers over a scale of its own: a step with weight
    p / q puts columns j and k on lcm(s_j, s_k) * q and mixes them with p
    and q - p.  At the end the columns meet on the lcm of their scales and
    one gcd makes the view canonical.
    """
    scales = [1] * n
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for t in steps:
        j, k = t.j, t.k
        if j >= n or k >= n:
            raise IndexOutOfRange(
                f"transform touches coordinate {max(j, k)} of an order-{n} matrix"
            )
        p, q = t.lam.numerator, t.lam.denominator
        r = q - p
        sj, sk = scales[j], scales[k]
        common = math.lcm(sj, sk)
        fj, fk = common // sj, common // sk
        cj, ck = cols[j], cols[k]
        if fj != 1:
            cj = [x * fj for x in cj]
        if fk != 1:
            ck = [x * fk for x in ck]
        cols[j] = [p * a + r * b for a, b in zip(cj, ck)]
        cols[k] = [p * b + r * a for a, b in zip(cj, ck)]
        scales[j] = scales[k] = common * q
    scale = math.lcm(*scales)
    for j, s in enumerate(scales):
        if s != scale:
            f = scale // s
            cols[j] = [x * f for x in cols[j]]
    return DoublyStochasticMatrix._from_ints(list(zip(*cols)), scale)


def apply_transform(w: WeightVector, t: TTransform) -> WeightVector:
    """Apply a single transform without building the full matrix."""
    if t.j >= w.n or t.k >= w.n:
        raise IndexOutOfRange(
            f"transform touches coordinate {max(t.j, t.k)} of a length-{w.n} vector"
        )
    lam = t.lam
    scale, nums = _t_step(w._scale, w._nums, t.j, t.k, lam.numerator, lam.denominator)
    return _from_ints(nums, scale, w.labels)


def muirhead_decompose(
    beta: WeightVector, alpha: WeightVector
) -> list[TTransform]:
    """A transform chain carrying ``beta`` exactly onto ``alpha``.

    Raises NotMajorized unless ``beta`` majorizes ``alpha``.

    The chain has two phases.  Averaging steps (lam strictly inside (0, 1])
    work on descending-sorted copies: repeatedly move the spare mass sitting
    at the highest-indexed surplus coordinate onto the highest-indexed
    deficit coordinate, which pins at least one coordinate per step and
    therefore needs at most n - 1 steps.  When the target's slot order
    disagrees with the source's, a relabeling phase of pure swaps
    (lam = 0) then routes each value to its final slot; the uniform target
    never needs one.
    """
    if beta.n != alpha.n:
        raise LengthMismatch(f"vector lengths differ: {beta.n} vs {alpha.n}")
    if not majorizes(beta, alpha):
        raise NotMajorized("source does not majorize target")
    n = beta.n
    # both vectors as numerators over one scale; lam is a ratio of two
    # numerator differences, so the scale cancels out of it
    scale = math.lcm(beta._scale, alpha._scale)
    b = [x * (scale // beta._scale) for x in beta._nums]
    a = [x * (scale // alpha._scale) for x in alpha._nums]

    order = sorted(range(n), key=lambda i: (-b[i], i))
    current = [b[i] for i in order]
    goal = sorted(a, reverse=True)

    steps: list[TTransform] = []
    while True:
        surplus = [i for i in range(n) if current[i] > goal[i]]
        deficit = [i for i in range(n) if current[i] < goal[i]]
        if not surplus:
            break
        j = surplus[-1]
        k = deficit[-1]
        delta = min(current[j] - goal[j], goal[k] - current[k])
        gap = current[j] - current[k]
        steps.append(TTransform(order[j], order[k], Fraction(gap - delta, gap)))
        current[j] -= delta
        current[k] += delta

    # Values now sit in the source's sort order; route them to the target's
    # slots with selection-style swaps when the arrangements disagree.
    placed = [0] * n
    for pos, value in zip(order, current):
        placed[pos] = value
    for i in range(n):
        if placed[i] == a[i]:
            continue
        source = next(s for s in range(i + 1, n) if placed[s] == a[i])
        steps.append(TTransform(i, source, Fraction(0)))
        placed[i], placed[source] = placed[source], placed[i]
    return steps


def averaging_step_count(steps: Sequence[TTransform]) -> int:
    """Number of genuine averaging steps, ignoring pure relabeling swaps."""
    return sum(1 for t in steps if t.lam != 0)


def hlp_witness(
    beta: WeightVector, alpha: WeightVector
) -> DoublyStochasticMatrix:
    """A doubly stochastic P with beta @ P == alpha, built from the chain."""
    return compose(muirhead_decompose(beta, alpha), beta.n)


def _confirmed(m: SquareMatrix, pairs: Sequence[tuple[_Ints, _Ints]]) -> SquareMatrix:
    """``m``, once ``_carries`` has confirmed it against every pair."""
    if not _carries(m, pairs):
        raise RuntimeError("witness fails its exact check")
    return m


def _mixing_system(
    pairs: Sequence[tuple[_Ints, _Ints]], n: int
) -> tuple[list[list[int]], list[int]]:
    """The integer equations (rows, rhs) for an order-n P >= 0 whose rows
    sum to 1 with u @ P == v for every pair.

    The unknowns are P's entries in row-major order.  The equations are the
    n row sums, then the first n - 1 column equations of each pair in turn.
    The two vectors of a pair have equal sums, so the row sums imply its
    last column equation: sum_c (u @ P)_c == sum(u) == sum(v).

    Every equation is the rational one times one common scale, the lcm of
    the pairs' scales, so the exact simplex pivots as on the rational
    system (see ``lp``: its phase one weighs each equation as given).
    """
    # a list, not a generator: see lp._integer_view
    scale = math.lcm(*[s for pair in pairs for s, _ in pair])
    rows = [[0] * (r * n) + [scale] * n + [0] * ((n - 1 - r) * n) for r in range(n)]
    rhs = [scale] * n
    for (u_scale, us), (v_scale, vs) in pairs:
        u = [x * (scale // u_scale) for x in us]
        for c in range(n - 1):
            coeffs = [0] * (n * n)
            coeffs[c :: n] = u
            rows.append(coeffs)
            rhs.append(vs[c] * (scale // v_scale))
    return rows, rhs


def _mixing_witness(
    pairs: Sequence[tuple[_Ints, _Ints]],
    n: int,
    kind: type[SquareMatrix] = SquareMatrix,
) -> SquareMatrix | None:
    """An order-n P >= 0 whose rows sum to 1 with u @ P == v for every
    pair, confirmed by ``_carries``; None when no such P exists.

    P comes as a ``kind``, built on the LP's canonical integer view with
    no check of its own: ``_carries`` is the one check, so a
    DoublyStochasticMatrix needs the pair (1, 1) among ``pairs``.

    ``lp.feasible_point`` solves the equations of ``_mixing_system``:
    floats propose a basis, one exact elimination on it gives the point,
    and the exact simplex gives every None and answers whenever the
    proposal fails.  So a witness can be another vertex of the same
    polytope than the exact simplex alone would return.
    """
    rows, rhs = _mixing_system(pairs, n)
    # imported here, not at the top: only the LP builder needs lp, and
    # `naivediv rebalance` loads matrices without it
    from . import lp

    solution = lp.feasible_point(rows, rhs)
    if solution is None:
        return None
    x_scale, xs = solution
    a = [xs[r * n : (r + 1) * n] for r in range(n)]
    witness = object.__new__(kind)
    SquareMatrix._settle(witness, x_scale, a)
    return _confirmed(witness, pairs)


def multivariate_feasible(
    x_rows: Sequence[WeightVector], y_rows: Sequence[WeightVector]
) -> DoublyStochasticMatrix | None:
    """Solve X = Y @ P for doubly stochastic P, exactly.

    ``x_rows`` and ``y_rows`` are d allocations over the same n slots: the
    columns of P mix Y's slots into X's slots simultaneously for every row.
    Returns a witness or None when infeasible.

    X = Y @ P makes each x_a = y_a @ P, which y_a majorizes
    (Hardy-Littlewood-Polya), so a row pair that fails that closed-form
    test decides the question without the LP.  With one row that test is
    the whole answer, and the Muirhead chain (``hlp_witness``) builds the
    witness with no LP either.
    """
    d = len(x_rows)
    if d == 0 or len(y_rows) != d:
        raise DimensionMismatch(
            f"need equally many rows on both sides: {d} rows vs {len(y_rows)}"
        )
    n = x_rows[0].n
    lengths = [sorted({r.n for r in rows}) for rows in (x_rows, y_rows)]
    if lengths != [[n], [n]]:
        raise DimensionMismatch(
            "all rows must share one length: rows of length "
            + " vs ".join(", ".join(map(str, side)) for side in lengths)
        )
    if not all(map(majorizes, y_rows, x_rows)):
        return None
    ones = (1, (1,) * n)
    pairs = [(ones, ones)]
    pairs += [
        ((y._scale, y._nums), (x._scale, x._nums)) for x, y in zip(x_rows, y_rows)
    ]
    if d == 1:
        return _confirmed(hlp_witness(y_rows[0], x_rows[0]), pairs)
    return _mixing_witness(pairs, n, DoublyStochasticMatrix)


def d_stochastic_witness(
    beta: WeightVector, alpha: WeightVector, d: WeightVector
) -> SquareMatrix | None:
    """Find A with d @ A == d, rows of A summing to 1, A >= 0, beta @ A == alpha.

    This is the feasibility question behind preference relative to a fixed
    benchmark allocation ``d``; solved exactly, None when infeasible.
    """
    if beta.n != alpha.n or beta.n != d.n:
        raise LengthMismatch("all three vectors must share one length")
    d_view = d._scale, d._nums
    pairs = [(d_view, d_view), ((beta._scale, beta._nums), (alpha._scale, alpha._nums))]
    return _mixing_witness(pairs, beta.n)


def random_doubly_stochastic(
    seed: int, n: int, k: int = 1
) -> DoublyStochasticMatrix:
    """A seeded convex combination of k random permutation matrices.

    With k = 1 the result is itself a permutation matrix.  Mixing weights
    are exact rationals, so the output passes the exact membership checks.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    rng = random.Random(seed)
    perms = []
    for _ in range(k):
        p = list(range(n))
        rng.shuffle(p)
        perms.append(SquareMatrix.from_permutation(p))
    raw = [rng.randint(1, 1000) for _ in range(k)]
    return DoublyStochasticMatrix._mixture(raw, perms)


__all__ = [
    "SquareMatrix",
    "DoublyStochasticMatrix",
    "TTransform",
    "uniform_mixing_matrix",
    "is_doubly_stochastic",
    "is_permutation",
    "is_d_stochastic",
    "apply",
    "compose",
    "apply_transform",
    "muirhead_decompose",
    "averaging_step_count",
    "hlp_witness",
    "multivariate_feasible",
    "d_stochastic_witness",
    "random_doubly_stochastic",
]
