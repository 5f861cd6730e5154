"""The float-snapping sampler and the pair generators built on it.

Before the library sampler drew integer counts on a fixed lattice, it drew
one exponential variate per slot, snapped each to a rational with
denominator at most 10**6 and normalized by their sum, so its denominators
grow with n (over a thousand bits at n = 40).  Tests whose point is large
denominators draw their data here, so they keep the data they were written
for.  The pair generators take the sampler as an argument: with the
library's ``random_weight_vector`` they are the oracles of the library's
own pair generators.
"""

from fractions import Fraction as F

from naivediv.matrices import TTransform, apply_transform
from naivediv.simplex import WeightVector

CAP = 10**6


def old_random_weight_vector(rng, n):
    """Exponential draws snapped with ``limit_denominator(CAP)`` (a draw that
    snaps to 0 becomes 1/CAP), normalized to unit sum with Fractions."""
    raw = []
    for _ in range(n):
        snapped = F(rng.expovariate(1.0)).limit_denominator(CAP)
        if snapped <= 0:
            snapped = F(1, CAP)
        raw.append(snapped)
    total = sum(raw)
    return WeightVector(tuple(x / total for x in raw))


def old_random_majorization_pair(rng, n, transforms=None, sampler=old_random_weight_vector):
    """(alpha, beta): beta drawn by ``sampler``, alpha its image under a chain
    of random transforms applied one ``apply_transform`` at a time."""
    beta = sampler(rng, n)
    count = transforms if transforms is not None else rng.randint(1, max(1, n - 1))
    alpha = beta
    for _ in range(count):
        j, k = rng.sample(range(n), 2)
        lam = F(rng.randint(0, 100), 100)
        alpha = apply_transform(alpha, TTransform(j, k, lam))
    return alpha, beta


def old_random_strict_majorization_pair(rng, n, sampler=old_random_weight_vector):
    """(alpha, beta): beta drawn by ``sampler`` until its sorted weights are at
    least 1/(20n) apart, alpha one transform with lam in [1/10, 9/10] away."""
    gap = F(1, 20 * n)
    while True:
        beta = sampler(rng, n)
        ordered = sorted(beta.weights, reverse=True)
        if all(a - b >= gap for a, b in zip(ordered, ordered[1:])):
            break
    j, k = rng.sample(range(n), 2)
    lam = F(rng.randint(10, 90), 100)
    alpha = apply_transform(beta, TTransform(j, k, lam))
    return alpha, beta
