"""Exact linear feasibility over the rationals.

A small phase-one simplex: minimize the sum of artificial variables for
``A x = b, x >= 0`` with every coefficient a `fractions.Fraction`.  Bland's
rule (lowest eligible index enters, ties on the ratio test broken by the
lowest basis index) guarantees termination without any tolerance games.

The callers ask about order-n mixing matrices: n^2 structural variables
plus one artificial per equation, a few hundred tableau columns at the
orders in use, where a dense tableau is the simplest thing that works.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


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

    # Tableau columns: structural vars, artificial vars, rhs.
    tableau: list[list[Fraction]] = []
    for i in range(m):
        flip = -ONE if rhs[i] < 0 else ONE
        row = [flip * c for c in rows[i]]
        row.extend(ONE if j == i else ZERO for j in range(m))
        row.append(flip * rhs[i])
        tableau.append(row)
    # The last row holds the reduced costs of the phase-one objective (the
    # sum of the artificials) and, in its rhs cell, minus the objective
    # value; pivots keep it current like any other row.
    objective = [-sum(col) for col in zip(*tableau)]
    objective[nvars : nvars + m] = [ZERO] * m
    tableau.append(objective)
    basis = [nvars + i for i in range(m)]

    while True:
        entering = next((j for j in range(nvars + m) if objective[j] < 0), -1)
        if entering < 0:
            break
        leaving = -1
        best_ratio = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            # A feasibility objective is bounded below by zero, so an
            # unbounded improving direction cannot occur.
            raise RuntimeError("phase-one simplex lost boundedness")
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering

    if objective[-1] != 0:
        return None
    solution = [ZERO] * nvars
    for i in range(m):
        if basis[i] < nvars:
            solution[basis[i]] = tableau[i][-1]
    return solution


def _pivot(tableau: list[list[Fraction]], row: int, col: int) -> None:
    inv = ONE / tableau[row][col]
    pivot_row = [c * inv for c in tableau[row]]
    tableau[row] = pivot_row
    support = [j for j, p in enumerate(pivot_row) if p]
    for i, other in enumerate(tableau):
        factor = other[col]
        if i != row and factor:
            for j in support:
                other[j] -= factor * pivot_row[j]
