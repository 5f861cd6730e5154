"""Measure formulas, the axiom harness, and derivative-based checks."""

import fractions
import json
import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given

import naivediv.measures
import naivediv.simplex
from conftest import weight_vectors
from old_axioms import OLD_EXACT, old_axiom_suite
from old_sampler import old_random_weight_vector
from naivediv.errors import DomainError, UnknownMeasure
from naivediv.measures import (
    EQUALITY_TOL,
    LOG_CONTROL,
    SIGN_PRODUCT_TOL,
    SYMMETRY_TOL,
    Direction,
    MeasureSpec,
    SchurCheckReport,
    ambient_utility,
    axiom_suite,
    evaluate,
    exact_value,
    get_measure,
    index_value,
    registry,
    schur_ostrowski_check,
    schur_ostrowski_report,
)
from naivediv.preferences import aversion_squared
from naivediv.rebalancing import turnover
from naivediv.simplex import (
    WeightVector,
    _from_ints,
    random_weight_vector,
    uniform_vector,
    weight_vector,
)

REFERENCE = weight_vector(["1/2", "1/3", "1/6"])


def interior_point(rng, n, min_weight=F(1, 50), min_gap=F(1, 100)):
    """A random point safely inside the simplex with well-separated weights."""
    while True:
        w = random_weight_vector(rng, n)
        values = sorted(w.weights)
        if values[0] < min_weight:
            continue
        if all(b - a >= min_gap for a, b in zip(values, values[1:])):
            return w


class TestEvaluate:
    def test_entropy_peaks_at_uniform(self):
        assert math.isclose(
            evaluate(get_measure("entropy"), uniform_vector(4)),
            math.log(4),
            rel_tol=1e-12,
        )

    def test_normalized_concentration_value(self):
        m = get_measure("hhi")
        assert exact_value(m, REFERENCE) == F(1, 12)
        assert math.isclose(evaluate(m, REFERENCE), 1 / 12, rel_tol=1e-15)

    def test_normalized_concentration_endpoints(self):
        m = get_measure("hhi")
        basis = weight_vector(["1", "0", "0", "0"])
        assert exact_value(m, basis) == 1
        assert exact_value(m, uniform_vector(5)) == 0

    def test_mean_absolute_pair_difference(self):
        # pairs of (1/2, 1/3, 1/6): gaps 1/6, 1/3, 1/6, both orders -> 4/3;
        # dividing by n^2 = 9 gives 4/27
        assert exact_value(get_measure("gini_mean_diff"), REFERENCE) == F(4, 27)

    def test_sorted_gini_equals_the_pairwise_sum(self):
        def pairwise(ws):
            n = len(ws)
            return sum((abs(a - b) for a in ws for b in ws), start=F(0)) / (n * n)

        rng = random.Random(1987)
        counts = [
            # lattice: one shared denominator
            [500, 250, 125, 125],
            [rng.randint(0, 40) for _ in range(30)],
            # ties, zeros, a single slot, a vertex
            [0, 1, 1, 0, 2],
            [1, 1, 1],
            [1],
            [0, 0, 1],
        ]
        cases = [[F(c, sum(row)) for c in row] for row in counts]
        # denominators whose lcm, 30, is none of them
        cases.append([F(1, 6), F(1, 10), F(1, 15), F(1, 3), F(1, 3)])
        # the sampler: thousand-bit denominators
        cases += [list(old_random_weight_vector(rng, n).weights) for n in (2, 7, 40)]
        gini = get_measure("gini_mean_diff")
        for ws in cases:
            assert exact_value(gini, WeightVector(tuple(ws))) == pairwise(ws)

    def test_sorted_float_gini_matches_the_pairwise_sum(self):
        # the ambient form is probed off the simplex, where the finite
        # differences of schur-check evaluate it
        def pairwise(xs):
            n = len(xs)
            return math.fsum(abs(a - b) for a in xs for b in xs) / (n * n)

        gini = get_measure("gini_mean_diff").ambient
        rng = random.Random(2718)
        for n in (2, 3, 8, 64, 200):
            for _ in range(5):
                xs = [rng.uniform(1e-6, 2.0) / n for _ in range(n)]
                xs[rng.randrange(n)] += 1e-5  # a probe step
                assert math.isclose(gini(xs), pairwise(xs), rel_tol=1e-12)
                shuffled = rng.sample(xs, n)
                assert gini(shuffled) == gini(xs)  # symmetric to the last bit

    def test_half_l1_from_equal_share(self):
        assert exact_value(get_measure("hoover"), REFERENCE) == F(1, 6)

    def test_sum_of_squares(self):
        assert exact_value(get_measure("simpson"), REFERENCE) == F(7, 18)

    def test_spread_values(self):
        # population spread around the equal share 1/3: sqrt(1/54)
        assert math.isclose(
            evaluate(get_measure("stddev"), REFERENCE),
            math.sqrt(1 / 54),
            rel_tol=1e-15,
        )
        assert math.isclose(
            evaluate(get_measure("coeff_variation"), REFERENCE),
            3 * math.sqrt(1 / 54),
            rel_tol=1e-15,
        )

    def test_entropy_handles_zero_weights(self):
        assert evaluate(get_measure("entropy"), weight_vector(["1", "0"])) == 0.0

    def test_atkinson_with_zero_weight(self):
        w = weight_vector(["1/2", "1/2", "0"])
        assert evaluate(get_measure("atkinson(2)"), w) == 1.0
        assert 0 < evaluate(get_measure("atkinson(1/2)"), w) < 1

    def test_index_measures_vanish_at_uniform(self):
        u = uniform_vector(4)
        for m in registry():
            if m.direction is Direction.INDEX and m.id != "simpson":
                assert abs(evaluate(m, u)) <= EQUALITY_TOL

    def test_single_slot_concentration_is_undefined(self):
        with pytest.raises(DomainError):
            evaluate(get_measure("hhi"), weight_vector(["1"]))

    def test_exact_value_only_for_rational_measures(self):
        with pytest.raises(DomainError):
            exact_value(get_measure("entropy"), REFERENCE)

    @given(weight_vectors(min_n=2, max_n=6))
    def test_permutation_invariance(self, w):
        reversed_w = WeightVector(tuple(reversed(w.weights)))
        for m in registry():
            a = evaluate(m, w)
            b = evaluate(m, reversed_w)
            if m.exact is not None:
                assert a == b  # exact rational path: bit-identical
            else:
                assert abs(a - b) <= 1e-12


class TestRegistry:
    def test_ids_and_order(self):
        assert [m.id for m in registry()] == [
            "stddev",
            "variance",
            "coeff_variation",
            "entropy",
            "entropy_index",
            "gini_mean_diff",
            "hhi",
            "simpson",
            "hoover",
            "atkinson(1/2)",
            "atkinson(2)",
        ]

    def test_directions(self):
        directions = {m.id: m.direction for m in registry()}
        assert directions["entropy"] is Direction.UTILITY
        assert directions["entropy_index"] is Direction.INDEX
        assert directions["hhi"] is Direction.INDEX

    def test_only_hoover_is_non_strict(self):
        assert [m.id for m in registry() if not m.strict] == ["hoover"]

    def test_atkinson_parameter_canonicalization(self):
        assert get_measure("atkinson(0.5)") is get_measure("atkinson(1/2)")
        assert get_measure("atkinson(2)").id == "atkinson(2)"
        # off-registry parameters still work, on the fly
        assert get_measure("atkinson(3/2)").id == "atkinson(3/2)"

    def test_atkinson_id_past_the_digit_limit(self):
        # the canonical id's denominator has one digit more than str(int) writes
        limit = sys.get_int_max_str_digits()
        assert get_measure(f"atkinson(1e-{limit})").id == f"atkinson(1/1{'0' * limit})"

    def test_atkinson_rejects_bad_parameters(self):
        for bad in ("atkinson(0)", "atkinson(1)", "atkinson(-2)", "atkinson(x)"):
            with pytest.raises(UnknownMeasure):
                get_measure(bad)

    def test_unknown_measure(self):
        with pytest.raises(UnknownMeasure):
            get_measure("sharpe")

    def test_control_is_reachable_but_unlisted(self):
        assert get_measure("log_control") is LOG_CONTROL
        assert all(m.id != "log_control" for m in registry())


class TestAxiomSuite:
    def test_normalized_concentration_passes_everything(self):
        report = axiom_suite(get_measure("hhi"), seed=101, samples=250, n=4)
        assert report.all_passed()

    def test_entropy_gap_passes_everything(self):
        report = axiom_suite(get_measure("entropy_index"), seed=101, samples=250, n=4)
        assert report.all_passed()

    def test_raw_entropy_fails_only_zero_at_equality(self):
        report = axiom_suite(get_measure("entropy"), seed=101, samples=150, n=4)
        assert not report.zero_at_equality.passed
        assert report.positivity.passed
        assert report.boundedness.passed
        assert report.order_respecting.passed
        assert report.strict_monotone is not None and report.strict_monotone.passed

    def test_sum_of_squares_fails_only_zero_at_equality(self):
        report = axiom_suite(get_measure("simpson"), seed=101, samples=150, n=4)
        assert not report.zero_at_equality.passed
        # the offending input is the equal-weight vector itself
        assert report.zero_at_equality.counterexamples[0] == (("1/4",) * 4,)
        assert report.order_respecting.passed

    def test_weakly_monotone_measure_skips_strictness(self):
        report = axiom_suite(get_measure("hoover"), seed=101, samples=150, n=4)
        assert report.strict_monotone is None
        assert report.order_respecting.passed

    def test_control_fails_monotonicity_with_counterexample(self):
        report = axiom_suite(LOG_CONTROL, seed=101, samples=150, n=4)
        assert not report.order_respecting.passed
        assert report.order_respecting.counterexamples
        assert report.strict_monotone is not None
        assert not report.strict_monotone.passed

    def test_control_counterexample_refails_deterministically(self):
        report = axiom_suite(LOG_CONTROL, seed=101, samples=150, n=4)
        alpha_strings, beta_strings = report.order_respecting.counterexamples[0]
        alpha = weight_vector(alpha_strings)
        beta = weight_vector(beta_strings)
        assert index_value(LOG_CONTROL, alpha) > index_value(LOG_CONTROL, beta) + (
            EQUALITY_TOL
        )

    def test_same_seed_same_report(self):
        a = axiom_suite(get_measure("gini_mean_diff"), seed=7, samples=60, n=5)
        b = axiom_suite(get_measure("gini_mean_diff"), seed=7, samples=60, n=5)
        assert a == b

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_fewer_than_two_slots_refused_before_sampling(self, n, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(naivediv.measures, "random_weight_vector", no_draws)
        for m in (get_measure("entropy"), get_measure("hhi")):
            with pytest.raises(ValueError, match="axioms need at least two slots"):
                axiom_suite(m, seed=1, samples=5, n=n)

    def test_report_json_shape(self):
        report = axiom_suite(get_measure("hoover"), seed=3, samples=30, n=3)
        data = report.to_json_dict()
        assert data["measure"] == "hoover"
        assert data["axioms"]["strict_monotone"] is None
        assert data["axioms"]["positivity"]["passed"] is True

    def test_matches_the_vector_path_harness(self):
        # the harness on integer views gives the report, byte for byte, of
        # the one that wrapped every sample in a WeightVector and scored it
        # through Fraction; sample counts 1 to 40 rotate over the grid
        counts = (1, 2, 3, 5, 8, 13, 21, 30, 40)
        specs = [*registry(), LOG_CONTROL, get_measure("atkinson(3/2)")]
        for i, m in enumerate(specs):
            for n in range(2, 11):
                for j, seed in enumerate((1, 7919, 2**31 - 1)):
                    samples = counts[(i + n + 3 * j) % len(counts)]
                    new = axiom_suite(m, seed=seed, samples=samples, n=n)
                    old = old_axiom_suite(m, seed=seed, samples=samples, n=n)
                    assert json.dumps(new.to_json_dict()) == json.dumps(old.to_json_dict()), (
                        m.id, n, seed, samples,
                    )

    @pytest.mark.parametrize("mid", ["hhi", "simpson", "gini_mean_diff", "hoover"])
    def test_pairs_build_no_vector_and_no_fraction(self, mid, monkeypatch):
        # only the uniform point and the positivity draws become vectors;
        # the nonuniform draws and the pairs stay integer views and the
        # rational measures score them as (num, den), so no Fraction is made
        m, samples = get_measure(mid), 30
        expected = axiom_suite(m, seed=11, samples=samples, n=6)
        built = []
        real = naivediv.simplex._from_ints

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        def refused(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

        with monkeypatch.context() as patch:
            patch.setattr(naivediv.simplex, "_from_ints", counted)
            patch.setattr(fractions.Fraction, "__new__", refused)
            report = axiom_suite(m, seed=11, samples=samples, n=6)
        assert report == expected
        assert len(built) <= samples + 2

    def test_strict_measures_past_the_gap_rule_are_refused(self):
        # from n = 41 no strict pair can be drawn; a weak measure still runs
        with pytest.raises(ValueError, match="n = 41"):
            axiom_suite(get_measure("hhi"), seed=1, samples=3, n=41)
        assert axiom_suite(get_measure("hoover"), seed=1, samples=3, n=41).all_passed()


def fraction_clearly_nonuniform(rng, n):
    """The harness's nonuniform draw decided on Fractions: the first sampler
    vector whose exact Hoover index is at least 1/(10n)."""
    floor = F(1, 10 * n)
    while True:
        w = random_weight_vector(rng, n)
        if hoover_by_definition(w) >= floor:
            return w


def hoover_by_definition(w):
    """Half the l1 distance from equal weights, summed over Fractions."""
    return sum(abs(x - F(1, w.n)) for x in w.weights) / 2


class TestClearlyNonuniform:
    def test_integer_test_matches_the_fraction_test(self):
        for seed in range(60):
            new, old = random.Random(seed), random.Random(seed)
            for n in range(2, 11):
                for _ in range(5):
                    scale, counts = naivediv.simplex._clearly_nonuniform(new, n)
                    assert _from_ints(counts, scale) == fraction_clearly_nonuniform(old, n)
                    assert new.getstate() == old.getstate()

    def test_verdict_at_the_floor(self, monkeypatch):
        # n = 2: (1/2 + h, 1/2 - h) has Hoover index h against a floor of
        # 1/20; on the sampler's counts over 2 * 10**6 a draw one count
        # below is refused, one exactly at it is kept
        total = 2 * 10**6
        below = [1_099_999, 900_001]
        at = [1_100_000, 900_000]
        assert hoover_by_definition(_from_ints(below, total)) < F(1, 20)
        assert hoover_by_definition(_from_ints(at, total)) == F(1, 20)
        draws = iter([[10**6] * 2, below, at, [10**6] * 2])
        monkeypatch.setattr(naivediv.simplex, "_sampler_counts", lambda rng, n: next(draws))
        scale, counts = naivediv.simplex._clearly_nonuniform(random.Random(0), 2)
        assert scale == total and counts is at
        assert next(draws) == [10**6] * 2


class TestSchurOstrowski:
    POINT = weight_vector(["1/2", "3/10", "1/5"])

    def test_negated_spread_passes(self):
        assert schur_ostrowski_check(ambient_utility(get_measure("stddev")), self.POINT)

    def test_entropy_passes(self):
        assert schur_ostrowski_check(ambient_utility(get_measure("entropy")), self.POINT)

    def test_projection_fails_symmetry(self):
        report = schur_ostrowski_report(lambda xs: xs[0], self.POINT)
        assert not report.symmetric
        assert not report.passed

    def test_spread_itself_fails_sign_condition(self):
        # index orientation slopes the wrong way: a genuinely symmetric
        # function can still fail the pairwise product test
        report = schur_ostrowski_report(
            get_measure("stddev").ambient, self.POINT
        )
        assert report.symmetric
        assert not report.sign_condition

    def test_flags_are_read_off_the_figures(self):
        # only the two figures are stored, so a flag cannot disagree with them
        at_tolerances = SchurCheckReport(SYMMETRY_TOL, SIGN_PRODUCT_TOL)
        assert at_tolerances.symmetric and at_tolerances.sign_condition
        assert at_tolerances.passed
        past = SchurCheckReport(2 * SYMMETRY_TOL, 2 * SIGN_PRODUCT_TOL)
        assert not past.symmetric and not past.sign_condition
        assert not past.passed

    def test_boundary_guard(self):
        with pytest.raises(DomainError):
            schur_ostrowski_check(
                ambient_utility(get_measure("entropy")), self.POINT, step=0.25
            )

    def test_strict_registry_measures_pass_at_interior_points(self):
        rng = random.Random(424)
        points = [interior_point(rng, 4) for _ in range(200)]
        for m in registry():
            if not m.strict:
                continue
            f = ambient_utility(m)
            for point in points:
                assert schur_ostrowski_check(f, point), (m.id, point.as_strings())


class TestGradientOracles:
    """Central finite differences must reproduce hand-derived partials."""

    @staticmethod
    def fd_partials(f, xs, step=1e-5):
        out = []
        for i in range(len(xs)):
            up = list(xs)
            down = list(xs)
            up[i] += step
            down[i] -= step
            out.append((f(up) - f(down)) / (2 * step))
        return out

    def test_fd_matches_analytic_partials(self):
        rng = random.Random(77)
        stddev = get_measure("stddev").ambient
        entropy = get_measure("entropy").ambient
        hhi = get_measure("hhi").ambient
        for _ in range(50):
            w = interior_point(rng, 4)
            xs = [float(v) for v in w.weights]
            n = len(xs)

            sigma = stddev(xs)
            expected = [(x - 1 / n) / (n * sigma) for x in xs]
            got = self.fd_partials(stddev, xs)
            assert all(abs(a - b) <= 1e-6 for a, b in zip(expected, got))

            expected = [-(math.log(x) + 1) for x in xs]
            got = self.fd_partials(entropy, xs)
            assert all(abs(a - b) <= 1e-6 for a, b in zip(expected, got))

            expected = [2 * x / (1 - 1 / n) for x in xs]
            got = self.fd_partials(hhi, xs)
            assert all(abs(a - b) <= 1e-6 for a, b in zip(expected, got))


def fraction_formulas(ws):
    """Simpson, HHI, Hoover and Gini from their definitions, on Fractions."""
    n = len(ws)
    simpson = sum((w * w for w in ws), start=F(0))
    share = F(1, n)
    return {
        "simpson": simpson,
        "hhi": (simpson - share) / (1 - share) if n > 1 else None,
        "hoover": sum((abs(w - share) for w in ws), start=F(0)) / 2,
        "gini_mean_diff": sum(abs(a - b) for a in ws for b in ws) / (n * n),
    }


class TestExactFormulasOnIntegerViews:
    def check(self, w):
        expected = fraction_formulas(w.weights)
        for mid, value in expected.items():
            m = get_measure(mid)
            if value is None:
                with pytest.raises(DomainError):
                    exact_value(m, w)
                continue
            assert exact_value(m, w) == value
            # the form on a view not in lowest terms gives the same value
            num, den = m.exact(3 * w._scale, [3 * x for x in w._nums])
            assert F(num, den) == value and num / den == float(value)
            assert evaluate(m, w) == float(value)

    @given(weight_vectors(min_n=1, max_n=7))
    def test_match_the_fraction_definitions(self, w):
        self.check(w)

    def test_sampler_and_lattice_vectors(self):
        rng = random.Random(12)
        for n in (1, 2, 5, 30):
            self.check(old_random_weight_vector(rng, n))
        self.check(weight_vector(["1/6", "1/10", "1/15", "1/3", "1/3"]))
        self.check(weight_vector(["1", "0", "0"]))
        self.check(uniform_vector(6))

    def test_ratio_forms_match_the_fraction_forms(self):
        # every rational measure: its (num, den) form against the Fraction
        # form it replaced, on lattice draws, on normalized vectors of
        # independent 14-digit rationals (about 2,600-bit denominators at
        # n = 64), and on each view scaled out of lowest terms
        assert {m.id for m in registry() if m.exact is not None} == set(OLD_EXACT)
        rng = random.Random(23)
        vectors = [random_weight_vector(rng, n) for n in (2, 3, 8, 40)]
        for n in (32, 64):
            raw = [F(rng.randint(1, 10**14), rng.randint(1, 10**14)) for _ in range(n)]
            vectors.append(WeightVector(tuple(x / sum(raw) for x in raw)))
        assert vectors[-1]._scale.bit_length() > 2500
        for w in vectors:
            for mid, old_form in OLD_EXACT.items():
                m = get_measure(mid)
                value = old_form(w)
                assert exact_value(m, w) == value
                assert evaluate(m, w) == float(exact_value(m, w)) == float(value)
                for g in (1, 6, 2**61 - 1):
                    num, den = m.exact(g * w._scale, [g * x for x in w._nums])
                    assert den > 0 and F(num, den) == value
                    assert num / den == float(value)


def distance_vectors():
    """Sampler, lattice, tied and zero-slot vectors."""
    rng = random.Random(31)
    vectors = [old_random_weight_vector(rng, n) for n in (1, 2, 5, 30, 64)]
    vectors += [WeightVector(tuple(F(c, 10**6 * 9) for c in counts)) for counts in (
        (10**6 * 9 - 8, 1, 1, 1, 1, 1, 1, 1, 1),
        (10**6,) * 9,
    )]
    vectors += [
        weight_vector(["1/4", "1/4", "1/4", "1/8", "1/8"]),
        weight_vector(["1", "0", "0", "0"]),
        weight_vector(["0", "1/3", "0", "2/3"]),
        uniform_vector(7),
    ]
    return vectors


class TestDistancesFromEqualWeights:
    """The sum-of-squares and half-L1 forms against their Fraction
    definitions: aversion is the squared distance to 1/n, turnover and
    Hoover half the l1 distance."""

    def test_against_the_fraction_definitions(self):
        for w in distance_vectors():
            share = F(1, w.n)
            squared = sum(((x - share) ** 2 for x in w.weights), start=F(0))
            moved = sum((abs(x - share) for x in w.weights), start=F(0)) / 2
            assert aversion_squared(w) == squared
            assert turnover(w) == moved
            assert exact_value(get_measure("hoover"), w) == moved

    @given(weight_vectors(min_n=1, max_n=7))
    def test_hypothesis_vectors(self, w):
        share = F(1, w.n)
        assert aversion_squared(w) == sum(((x - share) ** 2 for x in w.weights), start=F(0))
        assert turnover(w) == exact_value(get_measure("hoover"), w)


def floats_seen(w):
    """The floats ``evaluate`` hands a float-only measure."""
    seen = []
    probe = MeasureSpec("probe", Direction.INDEX, True, lambda xs: seen.append(list(xs)) or 0.0)
    evaluate(probe, w)
    (xs,) = seen
    return xs


class TestFloatMeasuresReadTheIntegerView:
    def test_same_floats_as_the_fractions(self):
        tiny = F(1, 2**1100)  # below the smallest subnormal, 2**-1074
        half_tiny = F(3, 2**1076)  # rounds up to the smallest subnormal
        vectors = distance_vectors() + [
            WeightVector((tiny, half_tiny, F(0), 1 - tiny - half_tiny)),
            WeightVector((F(1, 3) - tiny, F(1, 3), F(1, 3) + tiny)),
        ]
        rng = random.Random(5)
        big = [F(rng.randint(1, 10**14), rng.randint(1, 10**14)) for _ in range(40)]
        vectors.append(WeightVector(tuple(x / sum(big) for x in big)))
        assert max(x.denominator.bit_length() for x in vectors[-1].weights) > 1000
        for w in vectors:
            assert floats_seen(w) == [float(x) for x in w.weights]
        assert floats_seen(vectors[-3])[:3] == [0.0, 5e-324, 0.0]
