"""The Gauss-Jordan exact step of ``lp.feasible_point``, kept as an oracle.

Before the exact step solved the basis system by forward elimination and
one back-substitution, it pivoted the integer tableau, restricted to the
basis columns, onto those columns: every pivot cleared its column from
every other row, pivot rows included, and each value was read off its
pivot row at the end.  On a fixed column set the point is unique, so the
library's step must give the same answer, None included; this copy is
what it is checked against.
"""

from naivediv.lp import _integer_view, _pivot, _primitive


def old_solve_on(rows, rhs, nvars, columns):
    """The integer view of the point whose nonzero entries sit in
    ``columns``, by Gauss-Jordan elimination; None unless that point
    exists, is nonnegative and solves every equation.

    Each column is pivoted on the first unused row with a nonzero entry
    there, negated first when that entry is negative; the unused rows must
    then read 0 = 0.
    """
    tableau = [
        _primitive([row[j] for j in columns] + [b]) for row, b in zip(rows, rhs)
    ]
    free = list(range(len(tableau)))
    pivots = []
    for k in range(len(columns)):
        i = next((i for i in free if tableau[i][k]), -1)
        if i < 0:
            return None
        free.remove(i)
        if tableau[i][k] < 0:
            tableau[i] = [-e for e in tableau[i]]
        _pivot(tableau, i, k)
        pivots.append(i)
    if any(tableau[i][-1] for i in free):
        return None
    values = [
        (j, tableau[i][-1], tableau[i][k])
        for k, (j, i) in enumerate(zip(columns, pivots))
    ]
    if any(p < 0 for _, p, _ in values):
        return None
    return _integer_view(nvars, values)
