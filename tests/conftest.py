"""Shared strategies, helpers and hypothesis configuration."""

import contextlib
import sys
from fractions import Fraction

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from naivediv.matrices import TTransform, apply_transform
from naivediv.simplex import WeightVector

settings.register_profile(
    "suite",
    settings(
        max_examples=60,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    ),
)
settings.load_profile("suite")


@st.composite
def weight_vectors(draw, min_n: int = 1, max_n: int = 6, positive: bool = False):
    """Random exact simplex points; zeros allowed unless ``positive``."""
    n = draw(st.integers(min_n, max_n))
    low = 1 if positive else 0
    parts = draw(
        st.lists(st.integers(low, 1000), min_size=n, max_size=n).filter(
            lambda v: sum(v) > 0
        )
    )
    total = sum(parts)
    return WeightVector(tuple(Fraction(p, total) for p in parts))


@st.composite
def majorization_pairs(draw, min_n: int = 2, max_n: int = 6):
    """(alpha, beta) with beta majorizing alpha, built by averaging beta."""
    beta = draw(weight_vectors(min_n=min_n, max_n=max_n))
    n = beta.n
    steps = draw(st.integers(0, n - 1))
    alpha = beta
    for _ in range(steps):
        j = draw(st.integers(0, n - 1))
        k = draw(st.integers(0, n - 1).filter(lambda x, j=j: x != j))
        lam = Fraction(draw(st.integers(0, 16)), 16)
        alpha = apply_transform(alpha, TTransform(j, k, lam))
    return alpha, beta


def huge_denominator_stack(seed: int):
    """(targets, sources): a d = 2, n = 3 stack whose entries have
    denominators of about 1,790 bits, and its image under the half
    permutation (I + Pi) / 2.  Each source row normalizes three raw
    fractions with 600-bit numerators and denominators, so the mixing
    equations, written over one common scale, hold ints far beyond a
    float's range."""
    import random

    rng = random.Random(seed)
    sources = []
    for _ in range(2):
        raw = [
            Fraction(rng.getrandbits(600) | 1, rng.getrandbits(600) | 1)
            for _ in range(3)
        ]
        sources.append(tuple(r / sum(raw) for r in raw))
    shift = (1, 2, 0)
    targets = [tuple((y[j] + y[shift[j]]) / 2 for j in range(3)) for y in sources]
    return (
        [WeightVector(x) for x in targets],
        [WeightVector(y) for y in sources],
    )


@contextlib.contextmanager
def no_int_text_limit():
    """CPython's limit on the digits of int-text conversions lifted, for
    an oracle that reads or writes longer integers."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
