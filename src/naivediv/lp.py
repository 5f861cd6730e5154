"""Exact linear feasibility over the integers.

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

The callers ask about order-n mixing matrices: n^2 structural variables
and a few dozen equations at the orders in use, where a dense tableau is
the simplest thing that works.
"""

from __future__ import annotations

import math


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
    # row i until it leaves.
    tableau = [
        [-c for c in row] + [-b] if b < 0 else [*row, b] for row, b in zip(rows, rhs)
    ]
    # The last row holds the reduced costs of the phase-one objective (the
    # sum of the artificials) and, in its rhs cell, minus the objective
    # value; pivots keep it current like any other row.
    tableau.append([-sum(col) for col in zip(*tableau)])
    tableau = [_primitive(row) for row in tableau]
    basis = [nvars + i for i in range(m)]

    bland = False
    while True:
        costs = tableau[m][:nvars]
        if bland:
            entering = next((j for j, c in enumerate(costs) if c < 0), -1)
        else:
            lowest = min(costs)
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
    # Each basic value in lowest terms, then all of them over the lcm of
    # their denominators.
    values = []
    for j, row in zip(basis, tableau):
        if j < nvars:
            g = math.gcd(row[-1], row[j])
            values.append((j, row[-1] // g, row[j] // g))
    scale = math.lcm(*(q for _, _, q in values))
    xs = [0] * nvars
    for j, p, q in values:
        xs[j] = p * (scale // q)
    return scale, xs


def _primitive(row: list[int]) -> list[int]:
    """``row`` divided through by the gcd of its entries."""
    g = math.gcd(*row)
    if g > 1:
        return [e // g for e in row]
    return row


def _pivot(tableau: list[list[int]], row: int, col: int) -> None:
    """Pivot the integer-row tableau on entry (row, col), which is positive."""
    pivot_row = tableau[row]
    a = pivot_row[col]
    support = [(j, p) for j, p in enumerate(pivot_row) if p]
    for i, other in enumerate(tableau):
        f = other[col]
        if i != row and f:
            # a > 0, so this is a positive multiple of other - (f / a) * pivot
            new = [e * a for e in other]
            for j, p in support:
                new[j] -= f * p
            tableau[i] = _primitive(new)
