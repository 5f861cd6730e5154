"""The Fraction chain builder and chain composer, kept as oracles.

Before the rebalancing chain ran on integer views, ``muirhead_decompose``
moved mass between Fraction entries and ``compose`` mixed Fraction columns.
The library's integer versions must give the same steps and the same
matrix; these copies are what they are checked against.
"""

from fractions import Fraction as F

from naivediv.errors import IndexOutOfRange, LengthMismatch, NotMajorized
from naivediv.matrices import DoublyStochasticMatrix, TTransform
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
