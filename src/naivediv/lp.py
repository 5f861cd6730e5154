"""Exact linear feasibility over the rationals.

A small phase-one simplex: minimize the sum of artificial variables for
``A x = b, x >= 0``, with no tolerance anywhere.

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

Each tableau row, the objective row included, is a list of Python ints
over one positive denominator of its own, kept in lowest terms.  A pivot
updates a row with integer multiplications and one gcd, where entrywise
`fractions.Fraction` arithmetic would take a gcd per entry.  The values
are exactly those of a Fraction tableau, so the pivots and the solution
are too.  The rows keep their own denominators rather than one shared
determinant (Bareiss): with unrelated thousand-bit denominators in the
input, a shared one grows far larger than any row needs.

The callers ask about order-n mixing matrices: n^2 structural variables
and a few dozen equations at the orders in use, where a dense tableau is
the simplest thing that works.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .simplex import _integer_view


def _reduced(den: int, row: list[int]) -> tuple[int, list[int]]:
    """``(den, row)`` divided through by their gcd; ``den`` stays positive."""
    g = math.gcd(den, *row)
    if g == 1:
        return den, row
    return den // g, [e // g for e in row]


def solve_equality_feasibility(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Find x >= 0 with rows @ x == rhs, or None when the system is infeasible.

    Redundant equations are fine: their artificial variables simply stay
    basic at zero.
    """
    m = len(rows)
    if m == 0:
        return []
    nvars = len(rows[0])
    if any(len(r) != nvars for r in rows) or len(rhs) != m:
        raise ValueError("ragged constraint system")

    # Tableau columns: structural vars, then rhs.  Row i holds the values
    # nums[i][j] / dens[i]; artificial i is basic in row i until it leaves.
    dens: list[int] = []
    nums: list[list[int]] = []
    for i in range(m):
        flip = -1 if rhs[i] < 0 else 1
        den, (coeffs,) = _integer_view(([*rows[i], rhs[i]],))
        dens.append(den)
        nums.append([flip * c for c in coeffs])
    # The last row holds the reduced costs of the phase-one objective (the
    # sum of the artificials) and, in its rhs cell, minus the objective
    # value; pivots keep it current like any other row.
    scale = math.lcm(*dens)
    objective = [
        -sum(scale // den * e for den, e in zip(dens, col)) for col in zip(*nums)
    ]
    obj_den, objective = _reduced(scale, objective)
    dens.append(obj_den)
    nums.append(objective)
    basis = [nvars + i for i in range(m)]

    bland = False
    while True:
        costs = nums[m][:nvars]
        if bland:
            entering = next((j for j, c in enumerate(costs) if c < 0), -1)
        else:
            lowest = min(costs)
            entering = costs.index(lowest) if lowest < 0 else -1
        if entering < 0:
            break
        # Row i's ratio is rhs_i / coeff_i = nums[i][-1] / nums[i][entering]:
        # the row's denominator cancels, so the test compares cross products.
        leaving = -1
        for i in range(m):
            coeff = nums[i][entering]
            if coeff > 0:
                if leaving < 0:
                    leaving = i
                    continue
                here = nums[i][-1] * nums[leaving][entering]
                best = nums[leaving][-1] * coeff
                if here < best or (here == best and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            # A feasibility objective is bounded below by zero, so an
            # unbounded improving direction cannot occur.
            raise RuntimeError("phase-one simplex lost boundedness")
        bland = nums[leaving][-1] == 0
        _pivot(dens, nums, leaving, entering)
        basis[leaving] = entering

    if nums[m][-1] != 0:
        return None
    solution = [Fraction(0)] * nvars
    for i in range(m):
        if basis[i] < nvars:
            solution[basis[i]] = Fraction(nums[i][-1], dens[i])
    return solution


def _pivot(dens: list[int], nums: list[list[int]], row: int, col: int) -> None:
    """Pivot the integer-row tableau on entry (row, col), which is positive."""
    pivot_row = nums[row]
    a = pivot_row[col]
    # Dividing the row's values by a / dens[row] leaves its numerators over a.
    dens[row], pivot_row = _reduced(a, pivot_row)
    nums[row] = pivot_row
    a = dens[row]
    support = [(j, p) for j, p in enumerate(pivot_row) if p]
    for i, other in enumerate(nums):
        f = other[col]
        if i != row and f:
            # other / q - (f / q) * (pivot / a) == (a * other - f * pivot) / (a * q)
            new = [e * a for e in other]
            for j, p in support:
                new[j] -= f * p
            dens[i], nums[i] = _reduced(dens[i] * a, new)
