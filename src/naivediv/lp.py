"""Exact linear feasibility over the integers.

Two entry points answer one question: is there x >= 0 with ``A x = b``?

``solve_equality_feasibility`` is a small exact phase-one simplex:
minimize the sum of artificial variables, with no tolerance anywhere.
It gives every "infeasible" verdict.

``feasible_point`` is the one the library calls.  Floats propose and one
exact elimination decides (as in certified LP: Koch, Oper. Res. Lett.
32:138, 2004; Applegate, Cook, Dash and Espinoza, Oper. Res. Lett.
35:693, 2007).  The same simplex, run on floats, proposes a final basis;
the equations, restricted to that basis's structural columns, are solved
exactly by forward elimination and one back-substitution; the point is
returned when every value is >= 0 and every equation left over from the
elimination reads 0 = 0.  Everything else (a float run that ends
infeasible or at its cap, a singular basis, a negative value, an unsolved
equation) is handed to the exact simplex.  Floats never decide
a verdict: a returned point solves the system exactly, and None comes only
from the exact simplex.  The point can be another vertex than the exact
simplex alone would reach, when float rounding steers a tie another way.

The pivot rule.  The entering column has the most negative reduced cost,
lowest index on ties, except right after a degenerate pivot (one whose
leaving row had right-hand side 0): then the lowest index with a negative
reduced cost enters, as under Bland's rule.  The leaving row has the
minimum ratio, ties broken by the lowest basis index.  The loop is finite:
a pivot that is not degenerate strictly lowers the objective, so a cycle
of bases could hold only degenerate pivots; every pivot in it would then
follow a degenerate one and be a Bland pivot, and Bland's rule cannot
cycle (Bland, Math. Oper. Res. 2:103, 1977).

An artificial variable that leaves the basis is fixed at 0 and its column
deleted.  That cannot change the verdict: when the system is feasible, its
solution with every artificial at 0 is feasible for the restricted phase
one too, so the objective still reaches 0.  An artificial therefore stays
basic until it leaves, and a basic column is a unit column, so the tableau
holds no artificial columns at all: the structural ones and the
right-hand side.

The equations come as rows of ints, and each tableau row, the objective
row included, is kept primitive: divided by the gcd of its entries.  A
pivot replaces a row by ``a * row - f * pivot_row`` and one gcd, with no
denominator to carry.  A positive factor on a row changes no choice: the
ratio test compares a row's right-hand side with its own entry, and the
entering rule reads the one objective row.

Scale matters once: the phase-one objective sums the equations as given,
so a factor on one equation reweighs its artificial and can change the
pivots, though never the verdict.  A caller with rational equations writes
them all over one common denominator; the pivots are then exactly those of
the rational system.

The float run keeps the same pivot rule, with its objective row also
summing the equations as given.  Each row enters divided by its largest
entry, by int true division, so every entry is correctly rounded and at
most 1 in size: no int, however long, overflows a float.  Entries within
``_FLOAT_TOL`` of 0 count as 0, and ratios or reduced costs within it of
each other as ties, so that rounding steers the choices as little as it
can; a wrong choice costs only the fall back to the exact simplex.

The exact step on the float basis keeps the rows primitive and pivots as
above, but clears each column only from the rows not yet used as pivots,
so the pivot rows end upper triangular and are never updated again.  One
back-substitution then reads the point off them over a single common
denominator, which grows only by the part of each pivot that does not
cancel.  A Gauss-Jordan pass would also clear every column from the
earlier pivot rows, for the same point at about three times the row
updates.

The callers ask about order-n mixing matrices: n^2 structural variables
and a few dozen equations at the orders in use, where a dense tableau is
the simplest thing that works.
"""

from __future__ import annotations

import math


#: The float run's zero and tie tolerance.  It steers only the proposal:
#: a basis it gets wrong fails the exact elimination.
_FLOAT_TOL = 1e-9


def feasible_point(
    rows: list[list[int]], rhs: list[int]
) -> tuple[int, list[int]] | None:
    """Find x >= 0 with rows @ x == rhs, or None when the system is infeasible.

    The same question and the same form of answer as
    ``solve_equality_feasibility``, which it calls for every None and
    whenever the float proposal fails (see the module docstring).
    """
    if not rows or len(rhs) != len(rows) or any(len(r) != len(rows[0]) for r in rows):
        # the exact simplex answers an empty system and refuses a ragged one
        return solve_equality_feasibility(rows, rhs)
    nvars = len(rows[0])
    basis = _float_basis(rows, rhs, nvars)
    if basis is not None:
        point = _solve_on(rows, rhs, nvars, [j for j in basis if j < nvars])
        if point is not None:
            return point
    return solve_equality_feasibility(rows, rhs)


def _float_basis(rows: list[list[int]], rhs: list[int], nvars: int) -> list[int] | None:
    """The final basis of the phase-one simplex run on floats, with the
    exact solver's pivot rule; None when the run ends infeasible, finds no
    leaving row or reaches its cap."""
    m = len(rows)
    tableau = []
    for row in _phase_one(rows, rhs):
        top = max(map(abs, row))
        tableau.append([c / top for c in row] if top else [0.0] * (nvars + 1))
    basis = [nvars + i for i in range(m)]
    bland = False
    # the exact run takes about m pivots on the callers' systems; the cap
    # only ends a float run that rounding keeps from finishing
    for _ in range(4 * (m + nvars) + 16):
        costs = tableau[m][:nvars]
        if bland:
            entering = next((j for j, c in enumerate(costs) if c < -_FLOAT_TOL), -1)
        else:
            lowest = min(costs, default=0.0)
            entering = (
                next(j for j, c in enumerate(costs) if c <= lowest + _FLOAT_TOL)
                if lowest < -_FLOAT_TOL
                else -1
            )
        if entering < 0:
            return basis if tableau[m][-1] > -_FLOAT_TOL else None
        leaving = -1
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > _FLOAT_TOL:
                ratio = tableau[i][-1] / coeff
                if leaving < 0 or ratio < best - _FLOAT_TOL or (
                    ratio <= best + _FLOAT_TOL and basis[i] < basis[leaving]
                ):
                    leaving, best = i, ratio
        if leaving < 0:
            return None
        bland = tableau[leaving][-1] <= _FLOAT_TOL
        a = tableau[leaving][entering]
        pivot_row = tableau[leaving] = [e / a for e in tableau[leaving]]
        support = [(j, p) for j, p in enumerate(pivot_row) if p]
        for i, other in enumerate(tableau):
            f = other[entering]
            if i != leaving and abs(f) > _FLOAT_TOL:
                for j, p in support:
                    other[j] -= f * p
        basis[leaving] = entering
    return None


def _solve_on(
    rows: list[list[int]], rhs: list[int], nvars: int, columns: list[int]
) -> tuple[int, list[int]] | None:
    """The integer view of the point whose nonzero entries sit in
    ``columns``, by one exact solve; None unless that point exists, is
    nonnegative and solves every equation.

    The tableau holds only those columns and the right-hand side.  Forward
    elimination takes the columns in turn: each is pivoted on the first
    unused row with a nonzero entry there, negated first when that entry
    is negative, and cleared from the unused rows only.  The unused rows
    must then read 0 = 0.  The pivot rows are left upper triangular, and
    one back-substitution from the last column to the first solves them
    over a single common denominator, stopping at the first negative value.
    """
    tableau = [
        _primitive([row[j] for j in columns] + [b]) for row, b in zip(rows, rhs)
    ]
    free = list(range(len(tableau)))
    upper = []
    for k in range(len(columns)):
        i = next((i for i in free if tableau[i][k]), -1)
        if i < 0:
            return None
        free.remove(i)
        if tableau[i][k] < 0:
            tableau[i] = [-e for e in tableau[i]]
        _pivot(tableau, i, k, free)
        upper.append(tableau[i])
    if any(tableau[i][-1] for i in free):
        return None
    # x_k == nums[k] / den
    den = 1
    nums = [0] * len(upper)
    for k in range(len(upper) - 1, -1, -1):
        row = upper[k]
        t = row[-1] * den - sum(
            [row[j] * nums[j] for j in range(k + 1, len(upper)) if nums[j]]
        )
        if t < 0:
            return None
        if t:
            g = math.gcd(t, row[k])
            f = row[k] // g
            if f > 1:
                den *= f
                nums = [x * f for x in nums]
            nums[k] = t // g
    return _integer_view(nvars, [(j, x, den) for j, x in zip(columns, nums) if x])


def solve_equality_feasibility(
    rows: list[list[int]], rhs: list[int]
) -> tuple[int, list[int]] | None:
    """Find x >= 0 with rows @ x == rhs, or None when the system is infeasible.

    ``rows`` and ``rhs`` are ints.  The solution comes as its integer view
    ``(scale, xs)``: x == xs / scale, with ``scale`` the lcm of the
    entries' denominators.  Redundant equations are fine: their artificial
    variables simply stay basic at zero.
    """
    m = len(rows)
    if m == 0:
        return 1, []
    nvars = len(rows[0])
    if any(len(r) != nvars for r in rows) or len(rhs) != m:
        raise ValueError("ragged constraint system")

    # Tableau columns: structural vars, then rhs; artificial i is basic in
    # row i until it leaves.  Pivots keep the objective row current like
    # any other row.
    tableau = [_primitive(row) for row in _phase_one(rows, rhs)]
    basis = [nvars + i for i in range(m)]

    bland = False
    while True:
        costs = tableau[m][:nvars]
        if bland:
            entering = next((j for j, c in enumerate(costs) if c < 0), -1)
        else:
            lowest = min(costs, default=0)
            entering = costs.index(lowest) if lowest < 0 else -1
        if entering < 0:
            break
        # Row i's ratio is tableau[i][-1] / tableau[i][entering], so the
        # test compares cross products.
        leaving = -1
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                if leaving < 0:
                    leaving = i
                    continue
                here = tableau[i][-1] * tableau[leaving][entering]
                best = tableau[leaving][-1] * coeff
                if here < best or (here == best and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            # A feasibility objective is bounded below by zero, so an
            # unbounded improving direction cannot occur.
            raise RuntimeError("phase-one simplex lost boundedness")
        bland = tableau[leaving][-1] == 0
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering

    if tableau[m][-1] != 0:
        return None
    return _integer_view(
        nvars, ((j, row[-1], row[j]) for j, row in zip(basis, tableau) if j < nvars)
    )


def _phase_one(rows: list[list[int]], rhs: list[int]) -> list[list[int]]:
    """The phase-one tableau before any pivot: each equation with its
    right-hand side made >= 0, then the objective row, the reduced costs of
    the sum of the artificials and, in its rhs cell, minus its value."""
    tableau = [
        [-c for c in row] + [-b] if b < 0 else [*row, b] for row, b in zip(rows, rhs)
    ]
    tableau.append([-sum(col) for col in zip(*tableau)])
    return tableau


def _integer_view(nvars: int, values) -> tuple[int, list[int]]:
    """The point with entry j equal to p / q for each (j, p, q) of
    ``values`` (q > 0) and 0 elsewhere, as its canonical integer view:
    each value in lowest terms, all over the lcm of their denominators."""
    reduced = []
    for j, p, q in values:
        g = math.gcd(p, q)
        reduced.append((j, p // g, q // g))
    # a list, not a generator: CPython builds a star-args tuple from an
    # iterator by resizing it, and every such tuple, once freed, stays in
    # the free list of its size (up to 2,000 a size), so peak RSS would grow
    # with the number of calls
    scale = math.lcm(*[q for _, _, q in reduced])
    xs = [0] * nvars
    for j, p, q in reduced:
        xs[j] = p * (scale // q)
    return scale, xs


def _primitive(row: list[int]) -> list[int]:
    """``row`` divided through by the gcd of its entries."""
    g = math.gcd(*row)
    if g > 1:
        return [e // g for e in row]
    return row


def _pivot(
    tableau: list[list[int]], row: int, col: int, others: list[int] | None = None
) -> None:
    """Pivot the integer-row tableau on entry (row, col), which is positive:
    clear column ``col`` from the rows ``others``, every other row when None."""
    pivot_row = tableau[row]
    a = pivot_row[col]
    support = [(j, p) for j, p in enumerate(pivot_row) if p]
    for i in range(len(tableau)) if others is None else others:
        other = tableau[i]
        f = other[col]
        if i != row and f:
            # a > 0, so this is a positive multiple of other - (f / a) * pivot
            new = [e * a for e in other]
            for j, p in support:
                new[j] -= f * p
            tableau[i] = _primitive(new)
