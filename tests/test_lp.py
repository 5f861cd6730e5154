"""Exact phase-one feasibility solver."""

import gc
import math
import random
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from old_elimination import old_solve_on
from old_sampler import old_random_strict_majorization_pair, old_random_weight_vector
from naivediv import lp
from naivediv.lp import feasible_point, solve_equality_feasibility
from naivediv.matrices import (
    _mixing_system,
    apply,
    multivariate_feasible,
    random_doubly_stochastic,
)
from naivediv.simplex import random_weight_vector


def solve(rows, rhs):
    """The solver on a rational system written over one common denominator,
    so that it pivots as on the rational system; its answer as Fractions."""
    den = math.lcm(*(v.denominator for row in [*rows, rhs] for v in row))
    answer = solve_equality_feasibility(
        [[int(v * den) for v in row] for row in rows], [int(b * den) for b in rhs]
    )
    if answer is None:
        return None
    scale, xs = answer
    return [F(x, scale) for x in xs]


def check(rows, rhs, x):
    for row, b in zip(rows, rhs):
        assert sum(c * v for c, v in zip(row, x)) == b
    assert all(v >= 0 for v in x)


def test_single_equation():
    rows = [[F(1), F(1)]]
    rhs = [F(1)]
    x = solve(rows, rhs)
    assert x is not None
    check(rows, rhs, x)


def test_infeasible_sign():
    # x1 + x2 = -1 has no nonnegative solution
    assert solve([[F(1), F(1)]], [F(-1)]) is None


def test_infeasible_conflict():
    rows = [[F(1), F(0)], [F(1), F(0)]]
    rhs = [F(1), F(2)]
    assert solve(rows, rhs) is None


def test_redundant_rows_are_fine():
    rows = [[F(1), F(1)], [F(2), F(2)]]
    rhs = [F(1), F(2)]
    x = solve(rows, rhs)
    assert x is not None
    check(rows, rhs, x)


def test_zero_rhs():
    rows = [[F(1), F(-1)]]
    rhs = [F(0)]
    x = solve(rows, rhs)
    assert x is not None
    check(rows, rhs, x)


def test_exactness_with_awkward_rationals():
    # A system engineered so float arithmetic would hesitate near the boundary.
    eps = F(1, 10**12)
    rows = [[F(1), F(1), F(1)], [F(1), F(0), F(0)]]
    rhs = [F(1), eps]
    x = solve(rows, rhs)
    assert x is not None
    assert x[0] == eps
    check(rows, rhs, x)


def test_answers_come_as_the_integer_view():
    # 2x + 3y = 1: y enters on the more negative cost and takes the value 1/3
    assert solve_equality_feasibility([[2, 3]], [1]) == (3, [0, 1])
    # the lcm of the denominators 2 and 3, and nothing larger
    assert solve_equality_feasibility([[2, 0], [0, 3]], [1, 1]) == (6, [3, 2])
    assert solve_equality_feasibility([], []) == (1, [])


def test_zero_width_rows():
    # no unknowns: 0 = 0 holds at the empty point, 0 = 1 nowhere
    for solver in (solve_equality_feasibility, feasible_point):
        assert solver([[]], [0]) == (1, [])
        assert solver([[]], [1]) is None


def _tableau(rows, rhs):
    """The phase-one Fraction tableau with one artificial column per row."""
    m = len(rows)
    tableau = []
    for i in range(m):
        flip = F(-1) if rhs[i] < 0 else F(1)
        row = [flip * c for c in rows[i]]
        row.extend(F(1) if j == i else F(0) for j in range(m))
        row.append(flip * rhs[i])
        tableau.append(row)
    return tableau


def _leaving(tableau, basis, entering):
    """The minimum-ratio row, ties broken by the lowest basis index."""
    leaving = -1
    best = None
    for i, row in enumerate(tableau):
        coeff = row[entering]
        if coeff > 0:
            ratio = row[-1] / coeff
            if best is None or ratio < best or (
                ratio == best and basis[i] < basis[leaving]
            ):
                best, leaving = ratio, i
    return leaving


def _pivot_on(tableau, leaving, entering):
    inv = 1 / tableau[leaving][entering]
    tableau[leaving] = [c * inv for c in tableau[leaving]]
    pivot = tableau[leaving]
    for i, row in enumerate(tableau):
        factor = row[entering]
        if i != leaving and factor != 0:
            tableau[i] = [c - factor * p for c, p in zip(row, pivot)]


def _reduced_cost(var, j, tableau, basis, nvars):
    """The phase-one reduced cost of ``var``, in tableau column j: its cost
    (1 for an artificial, else 0) less the basic artificials' column entries."""
    return int(var >= nvars) - sum(
        row[j] for b, row in zip(basis, tableau) if b >= nvars
    )


def _solution(tableau, basis, nvars):
    if any(row[-1] for b, row in zip(basis, tableau) if b >= nvars):
        return None
    solution = [F(0)] * nvars
    for i, row in enumerate(tableau):
        if basis[i] < nvars:
            solution[basis[i]] = row[-1]
    return solution


def reference_solve(rows, rhs, pivots=None):
    """The solver's rules on a plain Fraction tableau that keeps its
    artificial columns: the most negative reduced cost enters (lowest index
    on ties), or the lowest eligible index right after a degenerate pivot;
    the minimum ratio leaves, lowest basis index on ties; an artificial
    that leaves the basis is deleted, column and all.  Reduced costs are
    recomputed column by column from the cost vector.  Kept as the oracle
    for the solver's pivot sequence; ``pivots`` gets one entry per pivot,
    True for a Bland pivot."""
    nvars = len(rows[0])
    tableau = _tableau(rows, rhs)
    columns = list(range(nvars + len(rows)))  # the variable in each column
    basis = columns[nvars:]
    bland = False
    while True:
        reduced = [
            _reduced_cost(var, j, tableau, basis, nvars)
            for j, var in enumerate(columns)
        ]
        eligible = [j for j, r in enumerate(reduced) if r < 0]
        if not eligible:
            break
        if bland:
            entering = eligible[0]
        else:
            entering = min(eligible, key=lambda j: (reduced[j], j))
        leaving = _leaving(tableau, basis, entering)
        if pivots is not None:
            pivots.append(bland)
        bland = tableau[leaving][-1] == 0
        _pivot_on(tableau, leaving, entering)
        departed, basis[leaving] = basis[leaving], columns[entering]
        if departed >= nvars:
            gone = columns.index(departed)
            del columns[gone]
            for row in tableau:
                del row[gone]
    return _solution(tableau, basis, nvars)


def bland_solve(rows, rhs, pivots=None):
    """Bland's rule on the full Fraction tableau, as the solver pivoted
    before: the lowest index with a negative reduced cost enters, departed
    artificials included.  Kept as a second oracle for the verdicts and for
    the pivot count; ``pivots`` gets each entering column."""
    m = len(rows)
    nvars = len(rows[0])
    tableau = _tableau(rows, rhs)
    basis = [nvars + i for i in range(m)]
    while True:
        entering = next(
            (
                j
                for j in range(nvars + m)
                if _reduced_cost(j, j, tableau, basis, nvars) < 0
            ),
            -1,
        )
        if entering < 0:
            break
        leaving = _leaving(tableau, basis, entering)
        if pivots is not None:
            pivots.append(entering)
        _pivot_on(tableau, leaving, entering)
        basis[leaving] = entering
    return _solution(tableau, basis, nvars)


def agrees_with_both_oracles(rows, rhs):
    """The solver's answer, once it has matched the new-rule oracle exactly,
    the Bland oracle's verdict, and (when feasible) the system."""
    x = solve(rows, rhs)
    assert x == reference_solve(rows, rhs)
    assert (x is None) == (bland_solve(rows, rhs) is None)
    if x is not None:
        check(rows, rhs, x)
    return x


def test_same_answers_as_the_reference_loop():
    rng = random.Random(2016)
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        m = rng.randint(1, 4)
        nvars = rng.randint(1, 6)
        rows = [
            [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nvars)]
            for _ in range(m)
        ]
        if rng.random() < 0.5:
            # feasible by construction: the image of a nonnegative point
            x0 = [F(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(nvars)]
            rhs = [sum(c * v for c, v in zip(row, x0)) for row in rows]
        else:
            rhs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
        x = agrees_with_both_oracles(rows, rhs)
        outcomes[x is not None] += 1
    assert min(outcomes.values()) >= 50


def degenerate_systems(rng, count):
    """Seeded systems built to pivot degenerately: duplicated rows (some
    scaled), repeated columns, and right-hand sides that are 0 or the image
    of a point with many zero entries."""
    systems = []
    for _ in range(count):
        m = rng.randint(2, 5)
        nvars = rng.randint(2, 6)
        rows = [[F(rng.randint(-2, 2)) for _ in range(nvars)] for _ in range(m)]
        for _ in range(rng.randint(1, 2)):
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            rows[j] = list(rows[i])
            rows.append([rng.choice((1, 2, -1)) * c for c in rows[i]])
        for _ in range(rng.randint(1, 2)):
            j = rng.randrange(nvars)
            for row in rows:
                row.append(row[j])
        width = len(rows[0])
        shape = rng.random()
        if shape < 0.4:
            x0 = [F(rng.randint(0, 2) if rng.random() < 0.3 else 0) for _ in range(width)]
            rhs = [sum(c * v for c, v in zip(row, x0)) for row in rows]
        elif shape < 0.6:
            rhs = [F(0)] * len(rows)
        else:
            rhs = [F(rng.randint(-1, 1)) for _ in rows]
        systems.append((rows, rhs))
    return systems


def test_same_answers_as_the_reference_loop_on_degenerate_systems():
    rng = random.Random(1977)
    outcomes = {True: 0, False: 0}
    bland_pivots = []
    for rows, rhs in degenerate_systems(rng, 300):
        x = agrees_with_both_oracles(rows, rhs)
        outcomes[x is not None] += 1
        reference_solve(rows, rhs, bland_pivots)
    assert min(outcomes.values()) >= 50
    # the set reaches the Bland branch of the entering rule many times
    assert sum(bland_pivots) >= 200


def mixing_systems(rng, count):
    """The integer (rows, rhs) that `_mixing_witness` poses on sampler
    stacks, whose entries have large denominators that differ from entry to
    entry."""

    def view(w):
        return w._scale, w._nums

    systems = []
    for case in range(count):
        n = rng.randint(2, 4)
        d = rng.randint(1, 2)
        ys = [old_random_weight_vector(rng, n) for _ in range(d)]
        if case % 3 == 0:
            # a witness LP: (d, d) and (beta, alpha), often infeasible
            d_, beta = view(ys[0]), view(ys[-1])
            pairs = [(d_, d_), (beta, view(old_random_weight_vector(rng, n)))]
        else:
            k = rng.randint(1, n)
            p = random_doubly_stochastic(rng.randrange(10**9), n, k=k)
            xs = [apply(y, p) for y in ys]
            if case % 3 == 2:
                # sharpen one target: no mixing matrix reaches it
                flat, sharp = old_random_strict_majorization_pair(rng, n)
                ys[-1], xs[-1] = flat, sharp
            ones = (1, (1,) * n)
            pairs = [(ones, ones)]
            pairs += [(view(y), view(x)) for x, y in zip(xs, ys)]
        systems.append(_mixing_system(pairs, n))
    return systems


def test_same_answers_as_the_reference_loop_on_mixing_systems():
    rng = random.Random(1967)
    outcomes = {True: 0, False: 0}
    for rows, rhs in mixing_systems(rng, 45):
        # redundant equations: the sum of two rows, and a row scaled by 3
        i, j = rng.sample(range(len(rows)), 2)
        rows = rows + [
            [a + b for a, b in zip(rows[i], rows[j])],
            [3 * c for c in rows[j]],
        ]
        rhs = rhs + [rhs[i] + rhs[j], 3 * rhs[j]]
        x = agrees_with_both_oracles(rows, rhs)
        outcomes[x is not None] += 1
    assert min(outcomes.values()) >= 10


#: ``lp._pivot`` calls of the exact simplex over the stacks of
#: ``test_pivot_count_is_pinned``
PINNED_PIVOTS = 144
#: The largest bit-length of a tableau entry over the same stacks
PINNED_ENTRY_BITS = 272
#: ``lp._pivot`` calls of ``feasible_point``'s exact step over the same
#: stacks, the rows they update, and the largest bit-length of an entry
#: the step holds.  The Gauss-Jordan step it replaced (``old_elimination``)
#: updated 634 rows with the same pivots and entries.
PINNED_PROPOSAL_PIVOTS = 106
PINNED_PROPOSAL_ROW_UPDATES = 232
PINNED_PROPOSAL_ENTRY_BITS = 153
#: The largest bit-length of a back-substitution numerator or denominator
#: over the same stacks; each stack's is also at most its answer's scale
PINNED_BACK_SUBSTITUTION_BITS = 168


def test_pivot_count_is_pinned(monkeypatch):
    # A deterministic work guard: the pivots over a fixed set of
    # library-built feasible stacks, one for each n in 4..6 and d in 2..3,
    # and the size of the largest integer the tableau holds on the way,
    # for the exact simplex and for the exact step on the float basis.
    # More pivots, more row updates or larger entries fail here on any
    # machine, with no timing noise.
    systems = []
    fallbacks = []
    pivots = []
    updates = []
    bits = []
    carried = []
    propose, solve, pivot = lp.feasible_point, lp.solve_equality_feasibility, lp._pivot
    view = lp._integer_view

    def recorded(rows, rhs):
        systems.append((rows, rhs))
        return propose(rows, rhs)

    def fallback(rows, rhs):
        fallbacks.append((rows, rhs))
        return solve(rows, rhs)

    def largest(tableau):
        return max(abs(e).bit_length() for row in tableau for e in row)

    def counted(tableau, row, col, others=None):
        pivots.append((row, col))
        targets = range(len(tableau)) if others is None else others
        updates.extend(i for i in targets if i != row and tableau[i][col])
        bits.append(largest(tableau))
        pivot(tableau, row, col, others)
        bits.append(largest(tableau))

    def scaled(nvars, values):
        # the back-substitution's numerators and common denominator, at
        # their largest: both only grow on the way
        values = list(values)
        answer = view(nvars, values)
        entry = max(max(abs(p).bit_length(), q.bit_length()) for _, p, q in values)
        carried.append((entry, answer[0].bit_length()))
        return answer

    monkeypatch.setattr(lp, "feasible_point", recorded)
    monkeypatch.setattr(lp, "solve_equality_feasibility", fallback)
    monkeypatch.setattr(lp, "_pivot", counted)
    monkeypatch.setattr(lp, "_integer_view", scaled)
    for seed in range(6):
        rng = random.Random(seed)
        n, d = 4 + seed % 3, 2 + seed // 3
        ys = [random_weight_vector(rng, n) for _ in range(d)]
        p = random_doubly_stochastic(seed, n, k=n)
        assert multivariate_feasible([apply(y, p) for y in ys], ys) is not None
    assert len(systems) == 6
    assert fallbacks == []
    assert (len(pivots), len(updates), max(bits)) == (
        PINNED_PROPOSAL_PIVOTS,
        PINNED_PROPOSAL_ROW_UPDATES,
        PINNED_PROPOSAL_ENTRY_BITS,
    )
    assert len(carried) == 6
    assert all(entry <= scale for entry, scale in carried)
    assert max(entry for entry, _ in carried) == PINNED_BACK_SUBSTITUTION_BITS
    pivots.clear()
    bits.clear()
    for rows, rhs in systems:
        assert solve(rows, rhs) is not None
    assert (len(pivots), max(bits)) == (PINNED_PIVOTS, PINNED_ENTRY_BITS)
    bland = []
    for rows, rhs in systems:
        bland_solve(rows, rhs, bland)
    assert len(pivots) < len(bland)


def test_scaling_equations(monkeypatch):
    # One common factor on every equation leaves the pivots and the
    # solution as they are.  A factor on one equation changes the weight
    # of its artificial in the phase-one objective, so it may change the
    # pivots, but never the verdict.
    rng = random.Random(149)
    systems = mixing_systems(rng, 30)
    systems += [
        ([[int(c) for c in row] for row in rows], [int(b) for b in rhs])
        for rows, rhs in degenerate_systems(rng, 60)
    ]
    pivots = []
    pivot = lp._pivot

    def counted(tableau, row, col):
        pivots.append((row, col))
        pivot(tableau, row, col)

    def run(rows, rhs):
        pivots.clear()
        return solve_equality_feasibility(rows, rhs), list(pivots)

    monkeypatch.setattr(lp, "_pivot", counted)
    moved = 0
    for rows, rhs in systems:
        x, path = run(rows, rhs)
        k = rng.randint(2, 10**9)
        scaled = run([[k * c for c in row] for row in rows], [k * b for b in rhs])
        assert scaled == (x, path)
        i = rng.randrange(len(rows))
        rows_i = [[k * c for c in row] if r == i else row for r, row in enumerate(rows)]
        rhs_i = [k * b if r == i else b for r, b in enumerate(rhs)]
        y, path_i = run(rows_i, rhs_i)
        assert (y is None) == (x is None)
        if y is not None:
            scale, xs = y
            check(rows, rhs, [F(v, scale) for v in xs])
        moved += path_i != path
    # the per-equation scale does steer the pivots, so a caller must
    # choose one common scale to keep them
    assert moved > 0


@pytest.fixture
def fallbacks(monkeypatch):
    """The systems that ``feasible_point`` hands to the exact simplex."""
    calls = []

    def counted(rows, rhs):
        calls.append((rows, rhs))
        return solve_equality_feasibility(rows, rhs)

    monkeypatch.setattr(lp, "solve_equality_feasibility", counted)
    return calls


def agrees_with_the_exact_simplex(rows, rhs, fallbacks):
    """``feasible_point``'s answer, once it has the exact simplex's verdict,
    got any None from the exact simplex, and solves the system exactly in
    the canonical integer view; and whether it fell back."""
    fallbacks.clear()
    point = feasible_point(rows, rhs)
    assert (point is None) == (solve_equality_feasibility(rows, rhs) is None)
    if point is None:
        assert fallbacks == [(rows, rhs)]
    else:
        scale, xs = point
        assert all(x >= 0 for x in xs)
        for row, b in zip(rows, rhs):
            assert sum(c * x for c, x in zip(row, xs)) == b * scale
        assert math.lcm(*(F(x, scale).denominator for x in xs)) == scale
    return point, bool(fallbacks)


def test_feasible_point_on_mixing_systems(fallbacks):
    rng = random.Random(1967)
    outcomes = Counter()
    for rows, rhs in mixing_systems(rng, 45):
        i, j = rng.sample(range(len(rows)), 2)
        redundant = (
            rows + [[a + b for a, b in zip(rows[i], rows[j])]],
            rhs + [rhs[i] + rhs[j]],
        )
        for system in ((rows, rhs), redundant):
            point, fell_back = agrees_with_the_exact_simplex(*system, fallbacks)
            outcomes[point is not None, fell_back] += 1
    # the infeasible systems reach the exact simplex; no feasible one does
    assert outcomes[False, True] >= 20
    assert outcomes[True, False] >= 20
    assert outcomes[True, True] == 0


def test_feasible_point_on_degenerate_systems(fallbacks):
    rng = random.Random(1977)
    outcomes = Counter()
    for rows, rhs in degenerate_systems(rng, 300):
        system = [[int(c) for c in row] for row in rows], [int(b) for b in rhs]
        point, fell_back = agrees_with_the_exact_simplex(*system, fallbacks)
        outcomes[point is not None, fell_back] += 1
    assert outcomes[False, True] >= 50
    assert outcomes[True, False] >= 50


def test_feasible_point_with_awkward_rationals(fallbacks):
    # the system of test_exactness_with_awkward_rationals over its common
    # denominator: floats find the basis, and the elimination gives the
    # exact point
    rows = [[10**12] * 3, [10**12, 0, 0]]
    assert feasible_point(rows, [10**12, 1]) == (10**12, [1, 10**12 - 1, 0])
    assert fallbacks == []
    # its twin with -1e-12 is infeasible; within the float tolerance the
    # float run calls it feasible, the elimination on its basis leaves
    # 0 = -1, and the exact simplex answers
    assert agrees_with_the_exact_simplex(rows, [10**12, -1], fallbacks) == (None, True)


@pytest.mark.parametrize(
    "basis",
    [
        None,  # the float run found no feasible basis
        [0, 0],  # singular
        [0, 1],  # x0 = -1
        [0],  # x0 = 1 leaves 0 = 2
        [],  # leaves 1 = 0 and 2 = 0
    ],
)
def test_a_failed_proposal_goes_to_the_exact_simplex(monkeypatch, fallbacks, basis):
    rows, rhs = [[1, 1, 0], [0, 1, 1]], [1, 2]
    monkeypatch.setattr(lp, "_float_basis", lambda *_: basis)
    assert feasible_point(rows, rhs) == solve_equality_feasibility(rows, rhs)
    assert fallbacks == [(rows, rhs)]


def test_a_good_basis_needs_no_exact_simplex(monkeypatch, fallbacks):
    # the third equation is the sum of the others, so its artificial
    # (column 5) stays basic at 0; only structural columns are eliminated
    rows, rhs = [[1, 1, 0], [0, 1, 1], [1, 2, 1]], [1, 2, 3]
    monkeypatch.setattr(lp, "_float_basis", lambda *_: [2, 1, 5])
    assert feasible_point(rows, rhs) == (1, [0, 1, 1])
    assert fallbacks == []


def column_sets(rng, rows, rhs):
    """Column sets for the exact step: the structural columns of the float
    basis when the float run finds one, the same columns shuffled, and
    random sets, which mostly leave no point."""
    nvars = len(rows[0])
    basis = lp._float_basis(rows, rhs, nvars)
    sets = []
    if basis is not None:
        columns = [j for j in basis if j < nvars]
        sets += [columns, rng.sample(columns, len(columns))]
    for _ in range(3):
        size = rng.randint(0, min(nvars, len(rows)))
        sets.append(rng.sample(range(nvars), size))
    return sets


def test_the_exact_step_matches_gauss_jordan():
    # On a fixed column set the point is unique, so forward elimination
    # with one back-substitution gives what the Gauss-Jordan step gave,
    # None included, whatever the order of the columns.
    rng = random.Random(2007)
    systems = mixing_systems(rng, 45)
    systems += [
        ([[int(c) for c in row] for row in rows], [int(b) for b in rhs])
        for rows, rhs in degenerate_systems(rng, 300)
    ]
    awkward = [[10**12] * 3, [10**12, 0, 0]]
    systems += [(awkward, [10**12, 1]), (awkward, [10**12, -1])]
    outcomes = Counter()
    for rows, rhs in systems:
        nvars = len(rows[0])
        sets = column_sets(rng, rows, rhs)
        for columns in sets:
            point = lp._solve_on(rows, rhs, nvars, columns)
            assert point == old_solve_on(rows, rhs, nvars, columns)
            outcomes[point is not None] += 1
        if lp._float_basis(rows, rhs, nvars) is not None:
            assert lp._solve_on(rows, rhs, nvars, sets[0]) == lp._solve_on(
                rows, rhs, nvars, sets[1]
            )
    assert min(outcomes.values()) >= 200


@pytest.mark.parametrize(
    "rows, rhs, columns, answer",
    [
        # x0 + x2 = 1, x1 + x2 = 1: column 2 is the sum of the others, so
        # no unused row is left to pivot it on
        ([[1, 0, 1], [0, 1, 1]], [1, 1], [0, 1, 2], None),
        # x0 + x1 = 1, x1 + x2 = 2 on columns 0 and 1: x1 = 2, x0 = -1
        ([[1, 1, 0], [0, 1, 1]], [1, 2], [0, 1], None),
        # on column 1 first: the value found last is the negative one
        ([[1, 1, 0], [0, 1, 1]], [1, 2], [1, 0], None),
        # on column 0 alone the second equation reads 0 = 2
        ([[1, 1, 0], [0, 1, 1]], [1, 2], [0], None),
        # on no column at all both equations are left unsolved
        ([[1, 1, 0], [0, 1, 1]], [1, 2], [], None),
        # a negative pivot entry is negated first: x0 = 1/2, x1 = 1/2
        ([[-2, 0], [1, 1]], [-1, 1], [0, 1], (2, [1, 1])),
        # a redundant equation reads 0 = 0 once the others are solved
        ([[1, 1, 0], [0, 1, 1], [1, 2, 1]], [1, 2, 3], [2, 1], (1, [0, 1, 1])),
        # a zero value needs no division: x1 = 0, x0 = 1
        ([[1, 1], [0, 3]], [1, 0], [0, 1], (1, [1, 0])),
    ],
)
def test_the_exact_step_on_chosen_columns(rows, rhs, columns, answer):
    nvars = len(rows[0])
    assert lp._solve_on(rows, rhs, nvars, columns) == answer
    assert old_solve_on(rows, rhs, nvars, columns) == answer


def test_repeated_solves_keep_no_memory():
    # A star-args tuple built from an iterator stays in CPython's tuple free
    # list once freed, one more per call up to 2,000 a size, and the
    # process's peak RSS grows with the number of solves.
    for rows, rhs in mixing_systems(random.Random(1967), 6):
        for solver in (feasible_point, solve_equality_feasibility):
            gc.collect()  # empties the free lists
            gc.disable()
            try:
                for _ in range(100):  # they fill to their working size
                    solver(rows, rhs)
                before = sys.getallocatedblocks()
                for _ in range(200):
                    solver(rows, rhs)
                grown = sys.getallocatedblocks() - before
            finally:
                gc.enable()
            assert grown < 20, (solver.__name__, grown)
