"""The vector-path axiom harness and the Fraction measure forms, kept as
oracles.

Before the harness ran its pairs on integer views, every sampled pair was
wrapped in two ``WeightVector``s and every rational measure built a
``Fraction`` that ``evaluate`` then turned into a float.  The library's
harness must give the same report, byte for byte, and the library's exact
forms the same values; these copies are what they are checked against.
The pairs come from the old sampler bodies in ``old_sampler``, fed by the
library's ``random_weight_vector``, so no pair code is shared with the
library's cores.
"""

import math
import random
from fractions import Fraction as F

from old_sampler import old_random_majorization_pair, old_random_strict_majorization_pair
from naivediv.errors import DomainError
from naivediv.measures import (
    EQUALITY_TOL,
    AxiomReport,
    AxiomVerdict,
    Direction,
)
from naivediv.simplex import random_weight_vector, uniform_vector

_MAX_RECORDED = 3


def old_gini_exact(w):
    n = w.n
    total = sum((2 * i - n - 1) * x for i, x in enumerate(sorted(w._nums), 1))
    return F(2 * total, n * n * w._scale)


def old_simpson_exact(w):
    return F(sum(x * x for x in w._nums), w._scale * w._scale)


def old_hhi_exact(w):
    n = w.n
    if n < 2:
        raise DomainError("normalized concentration index needs n >= 2")
    squares, square_scale = sum(x * x for x in w._nums), w._scale * w._scale
    return F(n * squares - square_scale, (n - 1) * square_scale)


def old_hoover_exact(w):
    s, n = w._scale, w.n
    return F(sum(abs(s - x * n) for x in w._nums), 2 * s * n)


#: The Fraction forms of the rational measures, by measure id.
OLD_EXACT = {
    "gini_mean_diff": old_gini_exact,
    "hhi": old_hhi_exact,
    "simpson": old_simpson_exact,
    "hoover": old_hoover_exact,
}


def old_evaluate(m, w):
    if m.id in OLD_EXACT:
        return float(OLD_EXACT[m.id](w))
    scale = w._scale
    return m.ambient([x / scale for x in w._nums])


def old_index_value(m, w):
    raw = old_evaluate(m, w)
    return raw if m.direction is Direction.INDEX else -raw


def _verdict(bad):
    return AxiomVerdict(not bad, tuple(bad[:_MAX_RECORDED]))


def old_clearly_nonuniform(rng, n):
    """The first sampler vector whose Hoover index is at least 1/(10n)."""
    floor = F(1, 10 * n)
    while True:
        w = random_weight_vector(rng, n)
        if old_hoover_exact(w) >= floor:
            return w


def old_axiom_suite(m, seed, samples, n=4):
    """The harness with every sample a ``WeightVector`` scored through
    ``Fraction``, as before it ran on integer views."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if n < 2:
        raise ValueError("axioms need at least two slots")
    rng = random.Random(seed)

    points = [uniform_vector(n)]
    points += [random_weight_vector(rng, n) for _ in range(samples)]

    bad_positive = []
    bad_finite = []
    for w in points:
        value = old_evaluate(m, w)
        if not math.isfinite(value):
            bad_finite.append((w.as_strings(),))
            continue
        if value < -EQUALITY_TOL:
            bad_positive.append((w.as_strings(),))

    bad_zero = []
    at_uniform = old_evaluate(m, uniform_vector(n))
    if not (abs(at_uniform) <= EQUALITY_TOL):
        bad_zero.append((uniform_vector(n).as_strings(),))
    for _ in range(samples):
        w = old_clearly_nonuniform(rng, n)
        if abs(old_evaluate(m, w)) <= EQUALITY_TOL:
            bad_zero.append((w.as_strings(),))
            if len(bad_zero) >= _MAX_RECORDED:
                break

    bad_order = []
    for _ in range(samples):
        alpha, beta = old_random_majorization_pair(rng, n, sampler=random_weight_vector)
        if old_index_value(m, alpha) > old_index_value(m, beta) + EQUALITY_TOL:
            bad_order.append((alpha.as_strings(), beta.as_strings()))

    strict = None
    if m.strict:
        bad_strict = []
        for _ in range(samples):
            alpha, beta = old_random_strict_majorization_pair(
                rng, n, sampler=random_weight_vector
            )
            if not (old_index_value(m, beta) - old_index_value(m, alpha) > EQUALITY_TOL):
                bad_strict.append((alpha.as_strings(), beta.as_strings()))
        strict = _verdict(bad_strict)

    return AxiomReport(
        measure_id=m.id,
        seed=seed,
        samples=samples,
        n=n,
        positivity=_verdict(bad_positive),
        zero_at_equality=_verdict(bad_zero),
        boundedness=_verdict(bad_finite),
        order_respecting=_verdict(bad_order),
        strict_monotone=strict,
    )
