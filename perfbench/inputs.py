"""Seeded input generators owned by the benchmark.

Nothing here calls the library's samplers, so a change to
``random_weight_vector`` or ``random_majorization_pair`` leaves the inputs
of every workload unchanged.  Vectors are plain lists of Fractions; the
writers turn them into the JSON files the CLI reads.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

#: Lattice files hold integer counts over LATTICE * n, like a book of
#: positions counted in millionths of a share per slot.
LATTICE = 10**6
#: Largest numerator and denominator of a raw entry of a normalized vector.
RAW_MAX = 10**14


def rng_for(workload: str, seed: int, part: str) -> random.Random:
    """An independent stream per workload, seed and input family."""
    return random.Random(f"{workload}/{seed}/{part}")


def composition(rng: random.Random, total: int, n: int) -> list[int]:
    """n positive integers summing to ``total``, uniform over all such tuples."""
    cuts = sorted(rng.sample(range(1, total), n - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def lattice_vector(rng: random.Random, n: int) -> list[Fraction]:
    """Integer counts over the shared denominator LATTICE * n."""
    total = LATTICE * n
    return [Fraction(c, total) for c in composition(rng, total, n)]


def normalized_vector(rng: random.Random, n: int) -> list[Fraction]:
    """Independent rationals scaled to unit sum.

    Each raw entry has its own 14-digit denominator, so the normalized
    entries share no small denominator: at n = 64 they run to about
    2,600 bits.
    """
    raw = [
        Fraction(rng.randint(1, RAW_MAX), rng.randint(1, RAW_MAX)) for _ in range(n)
    ]
    total = sum(raw)
    return [x / total for x in raw]


def interior_vector(rng: random.Random, n: int) -> list[Fraction]:
    """A point well inside the simplex with well-separated coordinates.

    The smallest weight exceeds 1/(4n) and any two weights differ by more
    than 20/sum, far above the finite-difference step of ``schur-check``.
    """
    ranks = list(range(n))
    rng.shuffle(ranks)
    counts = [1000 + 40 * r + rng.randint(0, 20) for r in ranks]
    total = sum(counts)
    return [Fraction(c, total) for c in counts]


def smoothed(rng: random.Random, v: list[Fraction], steps: int) -> list[Fraction]:
    """The image of ``v`` under random averaging steps, so ``v`` majorizes it.

    Each step moves at most half the gap between two slots from the richer
    to the poorer one, in units of 1/(LATTICE * n), which keeps lattice
    vectors on their lattice.
    """
    n = len(v)
    unit = Fraction(1, LATTICE * n)
    out = list(v)
    for _ in range(steps):
        j, k = rng.sample(range(n), 2)
        if out[j] < out[k]:
            j, k = k, j
        room = int((out[j] - out[k]) / unit) // 2
        if room < 1:
            continue
        moved = rng.randint(1, room) * unit
        out[j] -= moved
        out[k] += moved
    return out


def permuted(rng: random.Random, v: list[Fraction]) -> list[Fraction]:
    out = list(v)
    rng.shuffle(out)
    return out


PAIR_KINDS = ("independent", "smoothed", "permuted")


def vector_pair(rng, kind: str, make, n: int) -> tuple[list[Fraction], list[Fraction]]:
    """(first, second) for ``compare``; ``first`` is derived from ``second``."""
    second = make(rng, n)
    if kind == "independent":
        first = make(rng, n)
    elif kind == "smoothed":
        first = smoothed(rng, second, n // 4 + 1)
    else:
        first = permuted(rng, second)
    return first, second


def doubly_stochastic(rng: random.Random, n: int, perms: int = 3) -> list[list[Fraction]]:
    """A convex combination of random permutation matrices, exact."""
    shuffles = [rng.sample(range(n), n) for _ in range(perms)]
    raw = [rng.randint(1, 9) for _ in range(perms)]
    total = sum(raw)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for perm, c in zip(shuffles, raw):
        for i in range(n):
            matrix[i][perm[i]] += Fraction(c, total)
    return matrix


def row_times(row: list[Fraction], matrix: list[list[Fraction]]) -> list[Fraction]:
    n = len(row)
    return [sum(row[i] * matrix[i][j] for i in range(n)) for j in range(n)]


def feasible_stack(rng, n: int, d: int):
    """Sources Y and targets X = Y @ W for a random doubly stochastic W."""
    sources = [lattice_vector(rng, n) for _ in range(d)]
    mixing = doubly_stochastic(rng, n)
    return [row_times(y, mixing) for y in sources], sources


def sharpened_stack(rng, n: int, d: int):
    """Like ``feasible_stack`` but one target row is made more concentrated
    than its source row, which no doubly stochastic mixing can produce."""
    targets, sources = feasible_stack(rng, n, d)
    a = rng.randrange(d)
    row = list(sources[a])
    hi = max(range(n), key=row.__getitem__)
    lo = min(range(n), key=row.__getitem__)
    moved = row[lo] / 2
    row[hi] += moved
    row[lo] -= moved
    targets[a] = row
    return targets, sources


def benchmark_with_zeros(rng: random.Random, n: int, zeros: int) -> list[Fraction]:
    """A non-uniform benchmark allocation with ``zeros`` empty slots."""
    total = LATTICE * n
    counts = composition(rng, total, n - zeros)
    for pos in sorted(rng.sample(range(n), zeros)):
        counts.insert(pos, 0)
    return [Fraction(c, total) for c in counts]


def relative_cases(rng: random.Random, n: int):
    """(label, alpha, beta, d) triples for ``relative_naive_prefer``.

    ``mixed`` has alpha = lam * beta + (1 - lam) * d, a d-smoothing of beta;
    ``reversed`` swaps that pair; ``independent`` draws alpha afresh.
    """
    d = benchmark_with_zeros(rng, n, 1 if n < 6 else 2)
    beta = lattice_vector(rng, n)
    lam = Fraction(rng.randint(1, 9), 10)
    alpha = [lam * b + (1 - lam) * x for b, x in zip(beta, d)]
    return [
        ("mixed", alpha, beta, d),
        ("reversed", beta, alpha, d),
        ("independent", lattice_vector(rng, n), beta, d),
    ]


def den_bits(vectors) -> int:
    """Bit-length of the largest denominator among the vectors' entries."""
    return max(x.denominator.bit_length() for v in vectors for x in v)


def write_weights(path: Path, v: list[Fraction]) -> str:
    path.write_text(json.dumps({"weights": [str(x) for x in v]}))
    return str(path)


def write_rows(path: Path, rows: list[list[Fraction]]) -> str:
    path.write_text(json.dumps({"entries": [[str(x) for x in r] for r in rows]}))
    return str(path)
