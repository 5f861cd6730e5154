"""The benchmark's own answer checks agree with how inputs are built and
with exact references, and reject wrong answers."""

import itertools
import json
import random
from fractions import Fraction

from perfbench import inputs, oracles


def test_relation_follows_construction():
    rng = random.Random(1)
    for n in (3, 8, 40):
        base = inputs.lattice_vector(rng, n)
        flatter = inputs.smoothed(rng, base, n)
        assert oracles.relation(flatter, base) == "FirstMoreEqual"
        assert oracles.relation(base, flatter) == "SecondMoreEqual"
        assert oracles.relation(inputs.permuted(rng, base), base) == "EqualUpToPermutation"


def test_relation_matches_library(program):
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(2, 7)
        a, b = inputs.lattice_vector(rng, n), inputs.normalized_vector(rng, n)
        got = program.simplex.compare(
            program.simplex.WeightVector(tuple(a)), program.simplex.WeightVector(tuple(b))
        )
        assert oracles.relation(a, b) == got.value


def test_d_majorization_matches_the_exact_lp(program):
    """The relative-Lorenz oracle agrees with the library's LP, zeros in d included."""
    rng = random.Random(3)
    vec = program.simplex.WeightVector
    verdicts = set()
    for _ in range(60):
        n = rng.randint(3, 5)
        d = inputs.benchmark_with_zeros(rng, n, rng.randint(0, 2))
        beta = inputs.lattice_vector(rng, n)
        alpha = rng.choice(
            [inputs.lattice_vector(rng, n), [(x + y) / 2 for x, y in zip(beta, d)]]
        )
        want = program.matrices.d_stochastic_witness(vec(tuple(beta)), vec(tuple(alpha)), vec(tuple(d)))
        assert oracles.d_majorizes(beta, alpha, d) == (want is not None)
        verdicts.add(want is not None)
    assert verdicts == {True, False}


def test_relative_cases_have_the_built_verdicts():
    rng = random.Random(4)
    for n in (4, 5, 6):
        cases = {label: oracles.relative_preference(a, b, d) for label, a, b, d in inputs.relative_cases(rng, n)}
        assert cases["mixed"] == "FirstPreferred"
        assert cases["reversed"] == "SecondPreferred"


def test_max_assignment_matches_brute_force():
    rng = random.Random(5)
    for n in range(1, 7):
        m = [[rng.random() for _ in range(n)] for _ in range(n)]
        best = max(sum(m[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n)))
        assert abs(oracles.max_assignment(m) - best) < 1e-12


def test_gini_and_lorenz_match_definitions(program):
    rng = random.Random(6)
    w = inputs.normalized_vector(rng, 9)
    pairwise = sum(abs(a - b) for a in w for b in w) / (len(w) ** 2)
    assert oracles.gini_exact(w) == pairwise
    curve = program.simplex.lorenz_curve(program.simplex.WeightVector(tuple(w)))
    points = oracles.lorenz_points(w, 4)
    assert len(points) == 9 + 1 + 3
    for t, value in points:
        assert curve.value_at(t) == value


def _plan(program, source, target, rate):
    vec = program.simplex.WeightVector
    plan = program.rebalancing.rebalance_to(vec(tuple(source)), vec(tuple(target)), rate)
    return json.loads(json.dumps(program.fileio.plan_to_dict(plan)))


def test_check_plan_accepts_real_plans_and_rejects_tampering(program):
    rng = random.Random(7)
    for n in (4, 7):
        source = inputs.lattice_vector(rng, n)
        uniform = [Fraction(1, n)] * n
        good = _plan(program, source, uniform, 0.01)
        assert oracles.check_plan(good, source, uniform, 0.01) is None
        target = inputs.smoothed(rng, source, n)
        assert oracles.check_plan(_plan(program, source, target, 0.0), source, target, 0.0) is None

        for field, value in (("cost", good["cost"] * 2), ("practical_turnover", 0.5)):
            bad = dict(good, **{field: value})
            assert oracles.check_plan(bad, source, uniform, 0.01) is not None
        bad = json.loads(json.dumps(good))
        bad["steps"][0]["lambda"] = "1/3"
        assert oracles.check_plan(bad, source, uniform, 0.01) is not None


def test_check_witness_rejects_a_wrong_matrix():
    rng = random.Random(8)
    targets, sources = inputs.feasible_stack(rng, 4, 2)
    identity = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    assert oracles.check_witness(identity, sources, sources) is None
    assert oracles.check_witness(identity, targets, sources) is not None


def test_sharpened_stacks_are_not_majorized():
    rng = random.Random(9)
    for d in (1, 2, 3):
        targets, sources = inputs.sharpened_stack(rng, 5, d)
        assert not all(oracles.majorizes(y, x) for y, x in zip(sources, targets))


def test_axiom_checks(program):
    measures = program.measures
    report = measures.axiom_suite(measures.get_measure("log_control"), seed=3, samples=30, n=4).to_json_dict()
    report = json.loads(json.dumps(report))
    assert oracles.check_axiom_report(report, "log_control", 4, 30, 3) is None
    flipped = json.loads(json.dumps(report))
    flipped["axioms"]["order_respecting"]["passed"] = True
    assert oracles.check_axiom_report(flipped, "log_control", 4, 30, 3) is not None
    fake = json.loads(json.dumps(report))
    case = fake["axioms"]["order_respecting"]["counterexamples"][0]
    case.reverse()
    assert oracles.check_axiom_report(fake, "log_control", 4, 30, 3) is not None

    good = measures.axiom_suite(measures.get_measure("hoover"), seed=3, samples=30, n=4).to_json_dict()
    assert oracles.check_axiom_report(json.loads(json.dumps(good)), "hoover", 4, 30, 3) is None
