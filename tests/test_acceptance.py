"""Acceptance gate: one test per headline claim, with runtime budgets.

Every test prints a single ``ACCEPTANCE n: PASS`` line on success; a failed
assertion (correctness or budget) leaves the criterion marked FAILED by
pytest instead.  Seeds are fixed so reruns are bit-identical.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from old_sampler import old_random_strict_majorization_pair, old_random_weight_vector
from naivediv.matrices import (
    SquareMatrix,
    apply,
    apply_transform,
    averaging_step_count,
    hlp_witness,
    is_d_stochastic,
    is_doubly_stochastic,
    muirhead_decompose,
    multivariate_feasible,
    random_doubly_stochastic,
    uniform_mixing_matrix,
)
from naivediv.measures import (
    LOG_CONTROL,
    ambient_utility,
    axiom_suite,
    get_measure,
    index_value,
    registry,
    schur_ostrowski_check,
)
from naivediv.preferences import (
    PreferenceOutcome,
    aversion_squared,
    inequality_aversion_coefficient,
    more_is_better_chain,
    naive_prefer,
    relative_naive_prefer,
)
from naivediv.rebalancing import (
    example_family,
    frobenius_distance_squared,
    min_permutation_distance_squared,
    polytope_membership,
    practical_turnover,
    turnover,
)
from naivediv.simplex import (
    WeightVector,
    majorizes,
    random_majorization_pair,
    random_strict_majorization_pair,
    random_weight_vector,
    uniform_vector,
    weight_vector,
)

REFERENCE = weight_vector(["1/2", "1/3", "1/6"])


class _Budget:
    """Times a block and enforces the criterion's runtime ceiling."""

    def __init__(self, number: int, label: str, seconds: float | None):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        elapsed = time.perf_counter() - self.start
        if self.seconds is not None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} overran its budget: "
                f"{elapsed:.2f} s >= {self.seconds} s"
            )
        print(f"ACCEPTANCE {self.number}: PASS — {self.label} ({elapsed:.2f} s)")
        return False


def _interior_point(rng, n, min_weight=F(1, 50), min_gap=F(1, 100)):
    while True:
        w = random_weight_vector(rng, n)
        values = sorted(w.weights)
        if values[0] < min_weight:
            continue
        if all(b - a >= min_gap for a, b in zip(values, values[1:])):
            return w


def test_criterion_1_worked_example():
    with _Budget(1, "worked example reproduced exactly", 1.0):
        assert turnover(REFERENCE) == F(1, 6)

        corner = example_family(F(0), F(0))
        assert corner.rows == (
            (F(1, 2), F(0), F(1, 2)),
            (F(0), F(1), F(0)),
            (F(1, 2), F(0), F(1, 2)),
        )
        center = example_family(F(1, 3), F(1, 3))
        assert center == uniform_mixing_matrix(3)
        assert polytope_membership(corner, REFERENCE)
        assert polytope_membership(center, REFERENCE)

        identity = SquareMatrix.identity(3)
        assert frobenius_distance_squared(corner, identity) == F(1)


def test_criterion_2_hlp_equivalence():
    with _Budget(2, "majorization = column mixing, 1000 cases per direction", 30.0):
        rng = random.Random(20240501)
        cases_per_n = 250

        # forward: mixing can only flatten
        for n in range(3, 7):
            for _ in range(cases_per_n):
                beta = random_weight_vector(rng, n)
                p = random_doubly_stochastic(rng.randrange(10**9), n, k=rng.randint(1, n))
                alpha = apply(beta, p)
                assert majorizes(beta, alpha)

        # backward: a flatter vector is reachable by <= n-1 averaging steps
        for n in range(3, 7):
            for _ in range(cases_per_n):
                alpha, beta = random_majorization_pair(rng, n)
                steps = muirhead_decompose(beta, alpha)
                assert averaging_step_count(steps) <= n - 1
                witness = hlp_witness(beta, alpha)
                assert is_doubly_stochastic(witness)
                assert apply(beta, witness) == alpha


def test_criterion_3_schur_monotone_measures():
    with _Budget(3, "registry measures respect the order on 1000 pairs", 30.0):
        rng = random.Random(3717)
        strict_pairs = [random_strict_majorization_pair(rng, 5) for _ in range(1000)]
        weak_pairs = [random_majorization_pair(rng, 5) for _ in range(1000)]

        for m in registry():
            for alpha, beta in strict_pairs:
                lo = index_value(m, alpha)
                hi = index_value(m, beta)
                assert lo <= hi + 1e-12, m.id
                if m.strict:
                    assert hi - lo > 1e-12, m.id
            for alpha, beta in weak_pairs:
                assert index_value(m, alpha) <= index_value(m, beta) + 1e-12, m.id

        # negative control: the log-based measure slopes the wrong way
        report = axiom_suite(LOG_CONTROL, seed=101, samples=150, n=4)
        assert not report.order_respecting.passed
        assert report.order_respecting.counterexamples


def test_criterion_4_schur_ostrowski():
    with _Budget(4, "derivative criterion at 200 interior points", 30.0):
        rng = random.Random(8841)
        points = [_interior_point(rng, 4) for _ in range(200)]
        for mid in ("entropy", "stddev", "variance", "hhi"):
            f = ambient_utility(get_measure(mid))
            for point in points:
                assert schur_ostrowski_check(f, point), (mid, point.as_strings())

        stddev = get_measure("stddev").ambient
        entropy = get_measure("entropy").ambient
        hhi = get_measure("hhi").ambient
        step = 1e-5
        for point in points[:50]:
            xs = [float(v) for v in point.weights]
            n = len(xs)
            sigma = stddev(xs)
            analytic = {
                "stddev": [(x - 1 / n) / (n * sigma) for x in xs],
                "entropy": [-(math.log(x) + 1) for x in xs],
                "hhi": [2 * x / (1 - 1 / n) for x in xs],
            }
            for name, f in (("stddev", stddev), ("entropy", entropy), ("hhi", hhi)):
                for i in range(n):
                    up, down = list(xs), list(xs)
                    up[i] += step
                    down[i] -= step
                    fd = (f(up) - f(down)) / (2 * step)
                    assert abs(fd - analytic[name][i]) <= 1e-6, name


def test_criterion_5_turnover_lower_bound():
    with _Budget(5, "practical turnover bounded below on the example family", 10.0):
        best = None
        argmin = None
        valid = 0
        for i in range(100):
            for j in range(100):
                p = example_family(F(i, 99), F(j, 99))
                if p is None:
                    continue
                valid += 1
                dist_sq = min_permutation_distance_squared(p)
                if best is None or dist_sq < best:
                    best, argmin = dist_sq, (i, j)
        assert valid > 0
        assert best == F(1)
        assert argmin == (0, 0)
        assert practical_turnover(REFERENCE, example_family(F(0), F(0))) == (
            pytest.approx(1 / 6, rel=1e-15)
        )


def test_criterion_6_preference_properties():
    with _Budget(6, "preference properties, 500 cases each", None):
        rng = random.Random(660)

        # averaging two slots is always weakly preferred
        for _ in range(500):
            n = rng.randint(2, 8)
            w = random_weight_vector(rng, n)
            j, k = rng.sample(range(n), 2)
            lam = F(rng.randint(0, 16), 16)
            from naivediv.matrices import TTransform

            moved = apply_transform(w, TTransform(j, k, lam))
            verdict = naive_prefer(moved, w)
            assert verdict in (
                PreferenceOutcome.FIRST_PREFERRED,
                PreferenceOutcome.INDIFFERENT,
            )
            trivial = lam in (F(0), F(1)) or w.weights[j] == w.weights[k]
            assert (verdict is PreferenceOutcome.INDIFFERENT) == trivial

        # relabeling never matters
        for _ in range(500):
            n = rng.randint(2, 8)
            w = random_weight_vector(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = WeightVector(tuple(w.weights[i] for i in perm))
            assert naive_prefer(shuffled, w) is PreferenceOutcome.INDIFFERENT

        # preferred-to sets are convex: mixtures toward the start stay preferred
        for _ in range(500):
            n = rng.randint(2, 6)
            beta = random_weight_vector(rng, n)
            p = random_doubly_stochastic(rng.randrange(10**9), n, k=rng.randint(1, n))
            alpha = apply(beta, p)
            t = F(rng.randint(0, 10), 10)
            mix = WeightVector(
                tuple(t * a + (1 - t) * b for a, b in zip(alpha.weights, beta.weights))
            )
            assert majorizes(beta, mix)
            assert naive_prefer(mix, beta) in (
                PreferenceOutcome.FIRST_PREFERRED,
                PreferenceOutcome.INDIFFERENT,
            )

        # spreading over one more alternative is strictly better
        for _ in range(500):
            n = rng.randint(2, 8)
            chain = more_is_better_chain(n)
            m = rng.randint(1, n - 1)
            assert (
                naive_prefer(chain[m], chain[m - 1])
                is PreferenceOutcome.FIRST_PREFERRED
            )


def test_criterion_7_benchmark_consistency():
    with _Budget(7, "benchmark-relative ranking generalizes the plain one", None):
        rng = random.Random(7070)

        # the two predicates coincide at the equal-weight benchmark
        for case in range(500):
            n = rng.randint(2, 5)
            m = random_doubly_stochastic(rng.randrange(10**9), n, k=rng.randint(1, 4))
            style = rng.randrange(4)
            if style == 1:  # break a row sum
                rows = [list(row) for row in m.rows]
                rows[rng.randrange(n)][rng.randrange(n)] += F(1, rng.randint(2, 9))
                m = SquareMatrix(tuple(tuple(row) for row in rows))
            elif style == 2:  # keep row sums, break a column / nonnegativity
                rows = [list(row) for row in m.rows]
                i = rng.randrange(n)
                j, k = rng.sample(range(n), 2)
                rows[i][j] += F(2)
                rows[i][k] -= F(2)
                m = SquareMatrix(tuple(tuple(row) for row in rows))
            elif style == 3:  # duplicate a row: stochastic but not doubly
                rows = [list(row) for row in m.rows]
                i, j = rng.sample(range(n), 2)
                rows[i] = rows[j]
                m = SquareMatrix(tuple(tuple(row) for row in rows))
            assert is_d_stochastic(m, uniform_vector(n)) == is_doubly_stochastic(m)

        # ranking relative to the equal benchmark = plain naive ranking
        for case in range(300):
            n = rng.randint(2, 5)
            style = rng.randrange(3)
            if style == 0:
                alpha, beta = random_majorization_pair(rng, n)
            elif style == 1:
                beta, alpha = random_majorization_pair(rng, n)
            else:
                alpha = random_weight_vector(rng, n)
                beta = random_weight_vector(rng, n)
            assert relative_naive_prefer(alpha, beta, uniform_vector(n)) == (
                naive_prefer(alpha, beta)
            )

        # pinned distances from the equal-weight point
        assert aversion_squared(uniform_vector(4)) == 0
        assert aversion_squared(weight_vector(["1/2", "1/4", "1/4"])) == F(1, 24)
        assert aversion_squared(weight_vector(["1", "0"])) == F(1, 2)
        assert inequality_aversion_coefficient(
            weight_vector(["1/2", "1/4", "1/4"])
        ) == pytest.approx(math.sqrt(6) / 12, rel=1e-15)
        assert inequality_aversion_coefficient(
            weight_vector(["1", "0"])
        ) == pytest.approx(math.sqrt(2) / 2, rel=1e-15)


def test_criterion_8_multivariate_feasibility():
    with _Budget(8, "simultaneous mixing solved exactly both ways", 60.0):
        rng = random.Random(8808)

        for case in range(100):
            n = rng.randint(2, 6)
            d = rng.randint(1, 3)
            p = random_doubly_stochastic(rng.randrange(10**9), n, k=rng.randint(1, n))
            sources = [old_random_weight_vector(rng, n) for _ in range(d)]
            targets = [apply(y, p) for y in sources]
            witness = multivariate_feasible(targets, sources)
            assert witness is not None
            assert is_doubly_stochastic(witness)
            assert all(
                apply(y, witness) == x for y, x in zip(sources, targets)
            )

        for case in range(100):
            n = rng.randint(3, 6)
            d = rng.randint(1, 3)
            sources = [old_random_weight_vector(rng, n) for _ in range(d)]
            targets = list(sources)
            # make one target strictly sharper than its source: mixing can
            # never unflatten, so the stack is infeasible
            flat, sharp = old_random_strict_majorization_pair(rng, n)
            row = rng.randrange(d)
            sources[row] = flat
            targets[row] = sharp
            assert multivariate_feasible(targets, sources) is None
