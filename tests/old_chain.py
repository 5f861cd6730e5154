"""The Fraction chain builder, chain composer and matrix samplers, kept as
oracles.

Before the rebalancing chain ran on integer views, ``muirhead_decompose``
moved mass between Fraction entries and ``compose`` mixed Fraction columns;
``random_doubly_stochastic`` and ``sample_polytope`` mixed matrices entry by
entry in Fractions.  The library's integer versions must give the same
steps and the same matrices; these copies are what they are checked
against.
"""

import random
from fractions import Fraction as F

from naivediv.errors import IndexOutOfRange, LengthMismatch, NotMajorized
from naivediv.matrices import (
    DoublyStochasticMatrix,
    SquareMatrix,
    TTransform,
    uniform_mixing_matrix,
)
from naivediv.rebalancing import minimal_turnover_plan, polytope_membership
from naivediv.simplex import majorizes


def old_muirhead_decompose(beta, alpha):
    """Averaging steps on descending-sorted Fraction copies, then pure swaps
    that route each value to the target's slot."""
    if beta.n != alpha.n:
        raise LengthMismatch(f"vector lengths differ: {beta.n} vs {alpha.n}")
    if not majorizes(beta, alpha):
        raise NotMajorized("source does not majorize target")
    n = beta.n

    order = sorted(range(n), key=lambda i: (-beta.weights[i], i))
    current = [beta.weights[i] for i in order]
    goal = sorted(alpha.weights, reverse=True)

    steps = []
    while True:
        surplus = [i for i in range(n) if current[i] > goal[i]]
        deficit = [i for i in range(n) if current[i] < goal[i]]
        if not surplus:
            break
        j = surplus[-1]
        k = deficit[-1]
        delta = min(current[j] - goal[j], goal[k] - current[k])
        lam = 1 - delta / (current[j] - current[k])
        steps.append(TTransform(order[j], order[k], lam))
        current[j] -= delta
        current[k] += delta

    placed = [F(0)] * n
    for pos, value in zip(order, current):
        placed[pos] = value
    for i in range(n):
        if placed[i] == alpha.weights[i]:
            continue
        source = next(s for s in range(i + 1, n) if placed[s] == alpha.weights[i])
        steps.append(TTransform(i, source, F(0)))
        placed[i], placed[source] = placed[source], placed[i]
    return steps


def old_compose(steps, n):
    """I @ T_1 @ ... @ T_m by mixing two Fraction columns per step, built
    through the public constructor (which validates it)."""
    cols = [[F(int(i == j)) for i in range(n)] for j in range(n)]
    for t in steps:
        if t.j >= n or t.k >= n:
            raise IndexOutOfRange(
                f"transform touches coordinate {max(t.j, t.k)} of an order-{n} matrix"
            )
        lam, rest = t.lam, 1 - t.lam
        cj, ck = cols[t.j], cols[t.k]
        for i, (a, b) in enumerate(zip(cj, ck)):
            if a != b:
                cj[i] = lam * a + rest * b
                ck[i] = lam * b + rest * a
    return DoublyStochasticMatrix(tuple(zip(*cols)))


def _fraction_mixture(coeffs, members, n):
    """sum(c * m) entry by entry over the members' Fraction rows."""
    return tuple(
        tuple(sum(c * m.rows[i][j] for c, m in zip(coeffs, members)) for j in range(n))
        for i in range(n)
    )


def old_random_doubly_stochastic(seed, n, k=1):
    """Random permutations mixed with Fraction weights randint(1, 1000) / total."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    rng = random.Random(seed)
    perms = []
    for _ in range(k):
        p = list(range(n))
        rng.shuffle(p)
        perms.append(SquareMatrix.from_permutation(p))
    raw = [F(rng.randint(1, 1000)) for _ in range(k)]
    total = sum(raw)
    return DoublyStochasticMatrix(_fraction_mixture([x / total for x in raw], perms, n))


def old_sample_polytope(w, seed, k):
    """The polytope sampler with its convex combinations built in Fractions
    and each member rebuilt from its Fraction rows."""
    if k < 0:
        raise ValueError("sample count must be nonnegative")
    n = w.n
    rng = random.Random(seed)
    full_mix = uniform_mixing_matrix(n)
    chain = minimal_turnover_plan(w).composed_matrix()
    members = [full_mix, chain]
    for _ in range(4):
        perm = list(range(n))
        rng.shuffle(perm)
        members.append(chain @ SquareMatrix.from_permutation(perm))

    out = []
    while len(out) < k:
        kind = rng.randrange(3)
        if kind == 0:
            candidate = members[rng.randrange(len(members))]
        elif kind == 1:
            perm = list(range(n))
            rng.shuffle(perm)
            candidate = SquareMatrix.from_permutation(perm) @ chain
        else:
            chosen = rng.sample(members, min(len(members), 2 + rng.randrange(2)))
            raw = [F(rng.randint(0, 100)) for _ in chosen]
            total = sum(raw)
            if total == 0:
                continue
            coeffs = [x / total for x in raw]
            candidate = SquareMatrix(_fraction_mixture(coeffs, chosen, n))
        if polytope_membership(candidate, w):
            out.append(DoublyStochasticMatrix(candidate.rows))
    return out
