"""Exact phase-one feasibility solver."""

import random
from fractions import Fraction as F

import pytest

from old_sampler import old_random_strict_majorization_pair, old_random_weight_vector
from naivediv import lp
from naivediv.lp import solve_equality_feasibility
from naivediv.matrices import _mixing_witness, apply, random_doubly_stochastic


def check(rows, rhs, x):
    for row, b in zip(rows, rhs):
        assert sum(c * v for c, v in zip(row, x)) == b
    assert all(v >= 0 for v in x)


def test_single_equation():
    rows = [[F(1), F(1)]]
    rhs = [F(1)]
    x = solve_equality_feasibility(rows, rhs)
    assert x is not None
    check(rows, rhs, x)


def test_infeasible_sign():
    # x1 + x2 = -1 has no nonnegative solution
    assert solve_equality_feasibility([[F(1), F(1)]], [F(-1)]) is None


def test_infeasible_conflict():
    rows = [[F(1), F(0)], [F(1), F(0)]]
    rhs = [F(1), F(2)]
    assert solve_equality_feasibility(rows, rhs) is None


def test_redundant_rows_are_fine():
    rows = [[F(1), F(1)], [F(2), F(2)]]
    rhs = [F(1), F(2)]
    x = solve_equality_feasibility(rows, rhs)
    assert x is not None
    check(rows, rhs, x)


def test_zero_rhs():
    rows = [[F(1), F(-1)]]
    rhs = [F(0)]
    x = solve_equality_feasibility(rows, rhs)
    assert x is not None
    check(rows, rhs, x)


def test_exactness_with_awkward_rationals():
    # A system engineered so float arithmetic would hesitate near the boundary.
    eps = F(1, 10**12)
    rows = [[F(1), F(1), F(1)], [F(1), F(0), F(0)]]
    rhs = [F(1), eps]
    x = solve_equality_feasibility(rows, rhs)
    assert x is not None
    assert x[0] == eps
    check(rows, rhs, x)


def reference_solve(rows, rhs):
    """The phase-one loop before the objective row moved into the tableau:
    reduced costs recomputed column by column from a separate cost vector,
    dense row updates.  Kept as the oracle for the solver's pivot sequence."""
    m = len(rows)
    nvars = len(rows[0])
    tableau = []
    for i in range(m):
        flip = F(-1) if rhs[i] < 0 else F(1)
        row = [flip * c for c in rows[i]]
        row.extend(F(1) if j == i else F(0) for j in range(m))
        row.append(flip * rhs[i])
        tableau.append(row)
    basis = [nvars + i for i in range(m)]
    cost = [F(0)] * nvars + [F(1)] * m
    while True:
        entering = -1
        for j in range(nvars + m):
            reduced = cost[j] - sum(cost[basis[i]] * tableau[i][j] for i in range(m))
            if reduced < 0:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best, leaving = ratio, i
        inv = 1 / tableau[leaving][entering]
        tableau[leaving] = [c * inv for c in tableau[leaving]]
        for i in range(m):
            factor = tableau[i][entering]
            if i != leaving and factor != 0:
                pivot = tableau[leaving]
                tableau[i] = [c - factor * p for c, p in zip(tableau[i], pivot)]
        basis[leaving] = entering
    if sum(cost[basis[i]] * tableau[i][-1] for i in range(m)) != 0:
        return None
    solution = [F(0)] * nvars
    for i in range(m):
        if basis[i] < nvars:
            solution[basis[i]] = tableau[i][-1]
    return solution


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
        x = solve_equality_feasibility(rows, rhs)
        assert x == reference_solve(rows, rhs)
        outcomes[x is not None] += 1
        if x is not None:
            check(rows, rhs, x)
    assert min(outcomes.values()) >= 50


def mixing_systems(rng, count):
    """(rows, rhs) as `_mixing_witness` poses them on sampler stacks, whose
    entries have large denominators that differ from entry to entry."""
    systems = []

    def view(w):
        return w._scale, w._nums

    def record(rows, rhs):
        systems.append((rows, rhs))
        return None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "solve_equality_feasibility", record)
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
            _mixing_witness(pairs, n)
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
        x = solve_equality_feasibility(rows, rhs)
        assert x == reference_solve(rows, rhs)
        outcomes[x is not None] += 1
        if x is not None:
            check(rows, rhs, x)
    assert min(outcomes.values()) >= 10
