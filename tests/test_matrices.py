"""Doubly stochastic matrices, transforms, decompositions, witnesses."""

import copy
import fractions
import json
import math
import pickle
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import huge_denominator_stack, majorization_pairs, weight_vectors
from old_chain import old_compose, old_muirhead_decompose, old_random_doubly_stochastic
from old_sampler import (
    old_random_majorization_pair,
    old_random_strict_majorization_pair,
    old_random_weight_vector,
)
import naivediv.cli
import naivediv.lp
import naivediv.matrices
import naivediv.measures
import naivediv.rebalancing
import naivediv.simplex
from naivediv.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    LengthMismatch,
    NotMajorized,
)
from naivediv.matrices import (
    DoublyStochasticMatrix,
    SquareMatrix,
    TTransform,
    apply,
    apply_transform,
    averaging_step_count,
    compose,
    d_stochastic_witness,
    hlp_witness,
    is_d_stochastic,
    is_doubly_stochastic,
    is_permutation,
    muirhead_decompose,
    multivariate_feasible,
    random_doubly_stochastic,
    uniform_mixing_matrix,
)
from naivediv.rebalancing import polytope_membership, rebalance_to
from naivediv.simplex import (
    WeightVector,
    _integer_view,
    majorizes,
    random_majorization_pair,
    random_strict_majorization_pair,
    random_weight_vector,
    uniform_vector,
    weight_vector,
)

SWAP2 = SquareMatrix(((F(0), F(1)), (F(1), F(0))))


def full_mix(n):
    return uniform_mixing_matrix(n)


def t_matrix(t, n):
    """The dense matrix of one transform, lam * I + (1 - lam) * (the swap of
    j and k), entry by entry in Fractions and without ``compose``."""
    swap = list(range(n))
    swap[t.j], swap[t.k] = t.k, t.j
    return SquareMatrix(
        tuple(
            tuple(t.lam * (i == c) + (1 - t.lam) * (swap[i] == c) for c in range(n))
            for i in range(n)
        )
    )


def dense_product(a, b):
    """The Fraction definition of a @ b."""
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b.rows))
        for row in a.rows
    )


class TestSquareMatrixIntegerView:
    """A matrix's state is its canonical integer view; the Fraction rows
    are built on first read, and the dataclass contract is unchanged."""

    def test_equal_matrices_built_every_way(self):
        rows = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
        built = [
            SquareMatrix(rows),
            SquareMatrix((("1/2", "0.5"), ("2/4", "1/2"))),
            DoublyStochasticMatrix(rows),
            uniform_mixing_matrix(2),
            compose([TTransform(0, 1, F(1, 2))], 2),
        ]
        for m in built:
            assert m == built[0] and hash(m) == hash(built[0])
            assert m._scaled == (2, ((1, 1), (1, 1)))
            assert m.rows == rows
        assert SquareMatrix.identity(2) != built[0]
        assert SquareMatrix.identity(2) == SquareMatrix(((1, 0), (0, 1)))

    def test_rows_are_built_on_first_read_and_cached(self):
        m = compose([TTransform(0, 2, F(1, 3)), TTransform(1, 2, F(1, 4))], 3)
        assert "rows" not in vars(m)
        rows = m.rows
        assert m.rows is rows and vars(m)["rows"] is rows
        assert all(isinstance(e, F) for row in rows for e in row)
        with pytest.raises(AttributeError):
            m.entries

    def test_repr_pickle_and_copies(self):
        m = compose([TTransform(0, 2, F(1, 3)), TTransform(1, 2, F(1, 4))], 3)
        twins = [pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)]
        assert repr(m) == f"DoublyStochasticMatrix(rows={m.rows!r})"
        plain = SquareMatrix(m.rows)
        assert repr(plain) == f"SquareMatrix(rows={m.rows!r})"
        twins += [pickle.loads(pickle.dumps(m)), copy.deepcopy(m)]
        for twin in twins:
            assert type(twin) is DoublyStochasticMatrix
            assert twin == m and twin.rows == m.rows and twin._scaled == m._scaled

    def test_matmul_matches_the_fraction_product(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(1, 6)
            a = random_doubly_stochastic(rng.randrange(10**6), n, k=rng.randint(1, 3))
            b = SquareMatrix(
                tuple(
                    tuple(F(rng.randint(-3, 5), rng.randint(1, 6)) for _ in range(n))
                    for _ in range(n)
                )
            )
            for x, y in ((a, b), (b, a), (a, a)):
                product = x @ y
                assert type(product) is SquareMatrix
                assert product.rows == dense_product(x, y)
                assert product == SquareMatrix(dense_product(x, y))

    def test_shape_and_stochasticity_are_checked(self):
        with pytest.raises(ValueError, match="at least one row"):
            SquareMatrix(())
        with pytest.raises(DimensionMismatch):
            SquareMatrix(((1, 0),))
        with pytest.raises(ValueError, match="not doubly stochastic"):
            DoublyStochasticMatrix(((1, 1), (0, 0)))


class TestPredicates:
    def test_identity_is_doubly_stochastic(self):
        assert is_doubly_stochastic(SquareMatrix.identity(3))

    def test_full_mixing_matrix(self):
        assert is_doubly_stochastic(full_mix(3))

    def test_bad_row_sum(self):
        m = SquareMatrix(
            ((F(9, 10), F(0)), (F(1, 10), F(1)))
        )  # first row sums to 9/10
        assert not is_doubly_stochastic(m)

    def test_negative_entry(self):
        m = SquareMatrix(((F(3, 2), F(-1, 2)), (F(-1, 2), F(3, 2))))
        assert not is_doubly_stochastic(m)

    def test_permutation_detection(self):
        assert is_permutation(SquareMatrix.identity(3))
        assert is_permutation(SWAP2)
        assert not is_permutation(full_mix(2))

    def test_d_stochastic_examples(self):
        d = weight_vector(["1/2", "1/4", "1/4"])
        assert is_d_stochastic(SquareMatrix.identity(3), d)
        # the swap does not fix (3/4, 1/4)
        skew = weight_vector(["3/4", "1/4"])
        assert not is_d_stochastic(SWAP2, skew)
        # with the uniform vector the notion collapses to doubly stochastic
        assert is_d_stochastic(full_mix(3), uniform_vector(3))

    def test_d_stochastic_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            is_d_stochastic(SquareMatrix.identity(3), uniform_vector(2))

    @given(st.integers(0, 2**32), st.integers(2, 5))
    def test_uniform_d_stochastic_iff_doubly_stochastic(self, seed, n):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            m = random_doubly_stochastic(seed, n, k=rng.randint(1, 4))
            expected = True
        else:
            # break a random entry, then repair the row sum but not the column
            base = [
                [F(rng.randint(0, 4), 4) for _ in range(n)] for _ in range(n)
            ]
            for row in base:
                total = sum(row)
                row[-1] += 1 - total
            m = SquareMatrix(tuple(tuple(row) for row in base))
            expected = is_doubly_stochastic(m)
        assert is_d_stochastic(m, uniform_vector(n)) == expected


def doubly_stochastic_by_definition(m):
    """The Fraction-by-Fraction definition behind is_doubly_stochastic."""
    n = m.order
    return (
        all(e >= 0 for row in m.rows for e in row)
        and all(sum(row) == 1 for row in m.rows)
        and all(sum(m.rows[i][j] for i in range(n)) == 1 for j in range(n))
    )


def d_stochastic_by_definition(m, d):
    """The Fraction-by-Fraction definition behind is_d_stochastic."""
    n = m.order
    return (
        all(e >= 0 for row in m.rows for e in row)
        and all(sum(row) == 1 for row in m.rows)
        and all(
            sum(d.weights[i] * m.rows[i][j] for i in range(n)) == d.weights[j]
            for j in range(n)
        )
    )


def polytope_by_definition(p, w):
    """The Fraction-by-Fraction definition behind polytope_membership."""
    n = p.order
    return doubly_stochastic_by_definition(p) and all(
        sum(w.weights[i] * p.rows[i][j] for i in range(n)) == F(1, n)
        for j in range(n)
    )


TINY = F(1, 10**40)


def shifted(m, i, j, l, e):
    """``m`` with mass ``e`` moved from (i, l) to (i, j): row sums stay,
    columns j and l move by e."""
    rows = [list(row) for row in m.rows]
    rows[i][j] += e
    rows[i][l] -= e
    return SquareMatrix(tuple(tuple(row) for row in rows))


def checker_cases(rng, n):
    """A vector v with zeros likely, and matrices on both sides of each check."""
    parts = [rng.choice([0, 0, 1, 2, 5]) for _ in range(n)]
    parts[rng.randrange(n)] += 1
    v = WeightVector(tuple(F(x, sum(parts)) for x in parts))
    ds = random_doubly_stochastic(rng.randrange(10**6), n, k=rng.randint(1, 3))
    lam = F(rng.randint(0, 4), 4)
    # lam * I + (1 - lam) * (every row v) fixes v
    fixes_v = SquareMatrix(
        tuple(
            tuple(lam * (i == j) + (1 - lam) * v.weights[j] for j in range(n))
            for i in range(n)
        )
    )
    zero_slots = [i for i in range(n) if v.weights[i] == 0]
    if zero_slots:
        # a slot that v leaves empty may send its row anywhere
        rows = [list(row) for row in fixes_v.rows]
        rows[zero_slots[0]] = list(ds.rows[0])
        fixes_v = SquareMatrix(tuple(tuple(row) for row in rows))
    carries_v = hlp_witness(v, uniform_vector(n))
    i, j, l = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    k = rng.randrange(n)
    big = ds.rows[i][l] + F(1, 7)
    cases = [ds, fixes_v, carries_v, uniform_mixing_matrix(n), SquareMatrix.identity(n)]
    if j != l:
        for base in (ds, fixes_v, carries_v):
            cases.append(shifted(base, i, j, l, TINY))  # columns off by 1e-40
        cases.append(shifted(ds, i, j, l, big))  # a negative entry
        if k != i:
            # a 2x2 cycle keeps every line sum but goes negative
            cases.append(shifted(shifted(ds, i, j, l, big), k, l, j, big))
    cases.append(
        SquareMatrix(
            tuple(
                tuple(F(rng.randint(-1, 3), rng.randint(1, 3)) for _ in range(n))
                for _ in range(n)
            )
        )
    )
    return v, cases


class TestCheckersAgainstDefinitions:
    def test_verdicts_match_the_fraction_definitions(self):
        rng = random.Random(1990)
        seen = set()
        for _ in range(150):
            v, cases = checker_cases(rng, rng.randint(2, 6))
            for m in cases:
                verdicts = (
                    ("ds", is_doubly_stochastic(m), doubly_stochastic_by_definition(m)),
                    ("d", is_d_stochastic(m, v), d_stochastic_by_definition(m, v)),
                    (
                        "polytope",
                        polytope_membership(m, v),
                        polytope_by_definition(m, v),
                    ),
                )
                for name, got, want in verdicts:
                    assert got == want, (name, m, v)
                    seen.add((name, got))
        assert len(seen) == 6  # every check answered both ways

    def test_column_sums_off_by_1e_40_are_rejected(self):
        m = shifted(uniform_mixing_matrix(3), 0, 0, 1, TINY)
        assert all(sum(row) == 1 for row in m.rows)
        assert not is_doubly_stochastic(m)
        assert not is_d_stochastic(m, uniform_vector(3))
        assert not polytope_membership(m, uniform_vector(3))

    def test_negative_entry_with_every_line_sum_one_is_rejected(self):
        m = SquareMatrix(((F(-1), F(2)), (F(2), F(-1))))
        assert not is_doubly_stochastic(m)
        assert not is_d_stochastic(m, uniform_vector(2))

    def test_zero_slot_rows_are_free(self):
        d = weight_vector(["1/2", "1/2", "0"])
        m = SquareMatrix(
            ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(1, 5), F(3, 10), F(1, 2)))
        )
        assert is_d_stochastic(m, d)
        assert not is_doubly_stochastic(m)


class TestApply:
    def test_full_mix_hits_uniform(self):
        w = weight_vector(["7/10", "1/5", "1/10"])
        assert apply(w, full_mix(3)).weights == uniform_vector(3).weights

    def test_identity_fixes_everything(self):
        w = weight_vector(["7/10", "1/5", "1/10"])
        assert apply(w, SquareMatrix.identity(3)).weights == w.weights

    def test_single_averaging_matrix(self):
        m = t_matrix(TTransform(0, 2, F(1, 2)), 3)
        w = weight_vector(["1/2", "1/3", "1/6"])
        assert apply(w, m).weights == uniform_vector(3).weights

    def test_rejects_non_doubly_stochastic(self):
        m = SquareMatrix(((F(1), F(1)), (F(0), F(0))))
        with pytest.raises(ValueError):
            apply(uniform_vector(2), m)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            apply(uniform_vector(2), SquareMatrix.identity(3))

    @given(weight_vectors(min_n=2, max_n=5), st.integers(0, 2**32))
    def test_result_is_majorized_by_input(self, w, seed):
        m = random_doubly_stochastic(seed, w.n, k=1 + seed % 4)
        out = apply(w, m)
        assert majorizes(w, out)

    def test_matches_the_fraction_product(self):
        # oracle: sum of w_i * m_ij over Fraction rows; the result is
        # labelled like w and its view canonical
        rng = random.Random(77)
        for _ in range(80):
            n = rng.randint(2, 7)
            v, cases = checker_cases(rng, n)
            labels = [f"s{i}" for i in range(n)] if rng.random() < 0.5 else None
            for w in (random_weight_vector(rng, n), old_random_weight_vector(rng, n), v):
                w = WeightVector(w.weights, labels)
                for m in cases:
                    if not doubly_stochastic_by_definition(m):
                        continue
                    want = tuple(
                        sum((w.weights[i] * m.rows[i][j] for i in range(n)), F(0))
                        for j in range(n)
                    )
                    got = apply(w, m)
                    assert got == WeightVector(want, labels)
                    scale, (nums,) = _integer_view((want,))
                    assert (got._scale, got._nums) == (scale, tuple(nums))

    def test_reads_no_fraction_rows(self):
        w = random_weight_vector(random.Random(5), 8)
        m = hlp_witness(w, uniform_vector(8))
        assert apply(w, m) == uniform_vector(8)
        assert is_permutation(m) is False
        assert "rows" not in vars(m)


def permutation_by_definition(m):
    """The Fraction-by-Fraction definition behind is_permutation."""
    return doubly_stochastic_by_definition(m) and all(
        e == 0 or e == 1 for row in m.rows for e in row
    )


class TestIsPermutationAgainstTheDefinition:
    def test_verdicts_match(self):
        rng = random.Random(2024)
        seen = set()
        for _ in range(100):
            n = rng.randint(1, 6)
            perm = list(range(n))
            rng.shuffle(perm)
            p = SquareMatrix.from_permutation(perm)
            cases = [p, SquareMatrix(p.rows), DoublyStochasticMatrix(p.rows)]
            # 0/1 entries that are not a permutation: a repeated column
            twice = [list(row) for row in p.rows]
            twice[0] = list(twice[-1])
            cases.append(SquareMatrix(tuple(map(tuple, twice))))
            if n > 1:
                cases += checker_cases(rng, n)[1]
                cases.append(SquareMatrix(tuple(tuple(F(2) * e for e in row) for row in p.rows)))
            for m in cases:
                got = is_permutation(m)
                assert got == permutation_by_definition(m), m
                seen.add(got)
        assert seen == {True, False}


class TestTTransform:
    def test_lambda_bounds(self):
        with pytest.raises(ValueError):
            TTransform(0, 1, F(3, 2))
        with pytest.raises(ValueError):
            TTransform(0, 0, F(1, 2))

    def test_identity_matrix_at_lambda_one(self):
        assert compose((TTransform(0, 1, F(1)),), 2).rows == (
            (F(1), F(0)),
            (F(0), F(1)),
        )

    def test_swap_matrix_at_lambda_zero(self):
        assert compose((TTransform(0, 1, F(0)),), 2).rows == SWAP2.rows

    def test_half_mix_matrix(self):
        m = compose((TTransform(0, 2, F(1, 2)),), 3)
        assert m.rows == (
            (F(1, 2), F(0), F(1, 2)),
            (F(0), F(1), F(0)),
            (F(1, 2), F(0), F(1, 2)),
        )

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            compose((TTransform(0, 3, F(1, 2)),), 3)

    @given(weight_vectors(min_n=2, max_n=6), st.data())
    def test_matrix_and_direct_application_agree(self, w, data):
        j = data.draw(st.integers(0, w.n - 1))
        k = data.draw(st.integers(0, w.n - 1).filter(lambda x: x != j))
        lam = F(data.draw(st.integers(0, 12)), 12)
        t = TTransform(j, k, lam)
        assert apply_transform(w, t).weights == apply(w, t_matrix(t, w.n)).weights

    @given(weight_vectors(min_n=2, max_n=6), st.data())
    def test_integer_step_matches_the_fraction_formula(self, w, data):
        n = w.n
        j = data.draw(st.integers(0, n - 1))
        k = data.draw(st.integers(0, n - 1).filter(lambda x: x != j))
        weights = list(w.weights)
        if data.draw(st.booleans()):
            # an empty slot on one side of the transfer
            weights[j], weights[k] = weights[j] + weights[k], F(0)
        labels = data.draw(st.none() | st.just(tuple(f"slot {i}" for i in range(n))))
        w = WeightVector(tuple(weights), labels)
        lam = data.draw(st.sampled_from([F(0), F(1)]) | st.fractions(0, 1, max_denominator=60))
        out = apply_transform(w, TTransform(j, k, lam))
        a, b = weights[j], weights[k]
        weights[j], weights[k] = lam * a + (1 - lam) * b, lam * b + (1 - lam) * a
        assert out.weights == tuple(weights)
        assert out.labels == w.labels
        assert out._scale == math.lcm(*(x.denominator for x in weights))
        assert out._nums == tuple(int(x * out._scale) for x in weights)


@st.composite
def transform_chains(draw, max_n: int = 6, max_steps: int = 10):
    n = draw(st.integers(1, max_n))
    steps = []
    if n >= 2:
        for _ in range(draw(st.integers(0, max_steps))):
            j = draw(st.integers(0, n - 1))
            k = draw(st.integers(0, n - 1).filter(lambda x, j=j: x != j))
            lam = F(draw(st.integers(0, 12)), 12)
            steps.append(TTransform(j, k, lam))
    return steps, n


class TestCompose:
    @given(transform_chains())
    def test_equals_dense_product(self, chain):
        # oracle: the identity multiplied by each step's dense matrix in turn,
        # both built entry by entry in Fractions
        steps, n = chain
        dense = SquareMatrix.identity(n)
        for t in steps:
            dense = SquareMatrix(dense_product(dense, t_matrix(t, n)))
        composed = compose(steps, n)
        assert isinstance(composed, DoublyStochasticMatrix)
        assert composed.rows == dense.rows

    def test_empty_chain_is_identity(self):
        assert compose([], 4).rows == SquareMatrix.identity(4).rows

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRange):
            compose([TTransform(0, 3, F(1, 2))], 3)


def chain_cases(rng, n):
    """(beta, alpha) pairs at order n: sampler and lattice sources, ties,
    zero slots, labels, and targets equal, smoothed, and permuted (so the
    relabelling phase has swaps to make)."""
    sources = [random_weight_vector(rng, n), old_random_weight_vector(rng, n)]
    counts = [rng.choice([0, 0, 1, 1, 3, 8]) for _ in range(n)]
    counts[rng.randrange(n)] += 1
    sources.append(WeightVector(tuple(F(c, sum(counts)) for c in counts)))
    labels = tuple(f"asset{i}" for i in range(n))
    sources.append(WeightVector(sources[0].weights, labels))
    for beta in sources:
        yield beta, uniform_vector(n)
        yield beta, beta
        if n < 2:
            continue
        alpha = beta
        for _ in range(rng.randint(1, n)):
            j, k = rng.sample(range(n), 2)
            alpha = apply_transform(alpha, TTransform(j, k, F(rng.randint(0, 8), 8)))
        yield beta, alpha
        perm = list(range(n))
        rng.shuffle(perm)
        yield beta, WeightVector(tuple(alpha.weights[i] for i in perm))
        yield beta, WeightVector(tuple(beta.weights[i] for i in perm))


class TestChainAgainstTheFractionChain:
    """The integer chain builder and composer give the Fraction versions'
    steps and matrices exactly."""

    def test_same_steps_and_matrices(self):
        rng = random.Random(31)
        swaps = ties = 0
        for n in range(1, 21):
            for beta, alpha in chain_cases(rng, n):
                steps = muirhead_decompose(beta, alpha)
                assert steps == old_muirhead_decompose(beta, alpha)
                product = compose(steps, n)
                oracle = old_compose(steps, n)
                assert product == oracle
                assert product.rows == oracle.rows
                scale, a = _integer_view(oracle.rows)
                assert product._scaled == (scale, tuple(map(tuple, a)))
                assert apply(beta, product).weights == alpha.weights
                swaps += any(t.lam == 0 for t in steps)
                ties += len(set(beta.weights)) < n
        assert swaps > 50 and ties > 20

    @given(majorization_pairs(min_n=1, max_n=7))
    def test_hypothesis_pairs(self, pair):
        alpha, beta = pair
        steps = muirhead_decompose(beta, alpha)
        assert steps == old_muirhead_decompose(beta, alpha)
        assert compose(steps, beta.n) == old_compose(steps, beta.n)

    @given(transform_chains(max_n=8, max_steps=14))
    def test_arbitrary_chains(self, chain):
        steps, n = chain
        assert compose(steps, n).rows == old_compose(steps, n).rows


class TestMuirheadDecompose:
    def test_single_step_to_uniform(self):
        w = weight_vector(["1/2", "1/3", "1/6"])
        steps = muirhead_decompose(w, uniform_vector(3))
        assert [(t.j, t.k, t.lam) for t in steps] == [(0, 2, F(1, 2))]

    def test_two_step_decomposition(self):
        w = weight_vector(["7/10", "1/5", "1/10"])
        steps = muirhead_decompose(w, uniform_vector(3))
        assert [(t.j, t.k, t.lam) for t in steps] == [
            (0, 2, F(11, 18)),
            (0, 1, F(1, 2)),
        ]
        # oracle: multiply the two transform matrices and apply exactly
        product = dense_product(t_matrix(steps[0], 3), t_matrix(steps[1], 3))
        assert apply(w, DoublyStochasticMatrix(product)).weights == (
            uniform_vector(3).weights
        )

    def test_identical_vectors_need_nothing(self):
        w = weight_vector(["2/5", "2/5", "1/5"])
        assert muirhead_decompose(w, w) == []

    def test_not_majorized_is_refused(self):
        w = weight_vector(["1/2", "1/3", "1/6"])
        with pytest.raises(NotMajorized):
            muirhead_decompose(uniform_vector(3), w)
        with pytest.raises(LengthMismatch):
            muirhead_decompose(w, uniform_vector(4))

    def test_permuted_target_reached_exactly(self):
        beta = weight_vector(["7/10", "1/5", "1/10"])
        alpha = weight_vector(["1/6", "1/2", "1/3"])  # scrambled arrangement
        steps = muirhead_decompose(beta, alpha)
        current = beta
        for t in steps:
            current = apply_transform(current, t)
        assert current.weights == alpha.weights
        assert averaging_step_count(steps) <= beta.n - 1

    @given(majorization_pairs(min_n=2, max_n=6))
    def test_chain_reproduces_target_with_bounded_averaging(self, pair):
        alpha, beta = pair
        steps = muirhead_decompose(beta, alpha)
        current = beta
        for t in steps:
            current = apply_transform(current, t)
        assert current.weights == alpha.weights
        assert averaging_step_count(steps) <= beta.n - 1


class TestHlpWitness:
    def test_pinned_witness_matrix(self):
        w = weight_vector(["1/2", "1/3", "1/6"])
        p = hlp_witness(w, uniform_vector(3))
        assert p.rows == (
            (F(1, 2), F(0), F(1, 2)),
            (F(0), F(1), F(0)),
            (F(1, 2), F(0), F(1, 2)),
        )

    def test_identity_for_equal_vectors(self):
        w = weight_vector(["2/5", "2/5", "1/5"])
        assert hlp_witness(w, w).rows == SquareMatrix.identity(3).rows

    @given(majorization_pairs(min_n=2, max_n=5))
    def test_witness_reproduces_target(self, pair):
        alpha, beta = pair
        p = hlp_witness(beta, alpha)
        assert is_doubly_stochastic(p)
        assert apply(beta, p).weights == alpha.weights


class TestMultivariateFeasible:
    def test_feasible_by_construction(self):
        rng = random.Random(3)
        y = [random_weight_vector(rng, 4) for _ in range(3)]
        p = random_doubly_stochastic(99, 4, k=3)
        x = [apply(row, p) for row in y]
        witness = multivariate_feasible(x, y)
        assert witness is not None
        assert is_doubly_stochastic(witness)
        assert all(
            apply(row, witness).weights == target.weights
            for row, target in zip(y, x)
        )

    def test_x_equals_y_is_feasible(self):
        rows = [weight_vector(["1/2", "1/2", "0"]), uniform_vector(3)]
        assert multivariate_feasible(rows, rows) is not None

    def test_row_majorization_violation_is_infeasible(self):
        y = [uniform_vector(3)]
        x = [weight_vector(["1", "0", "0"])]  # strictly majorizes the row of y
        assert multivariate_feasible(x, y) is None

    def test_a_row_that_is_not_majorized_needs_no_lp(self, monkeypatch):
        def no_lp(rows, rhs):
            raise AssertionError("the LP ran")

        monkeypatch.setattr(naivediv.lp, "feasible_point", no_lp)
        monkeypatch.setattr(naivediv.lp, "solve_equality_feasibility", no_lp)
        y = [weight_vector(["1/2", "1/3", "1/6"]), uniform_vector(3)]
        x = [uniform_vector(3), weight_vector(["1/2", "1/2", "0"])]
        assert multivariate_feasible(x, y) is None

    def test_one_row_needs_no_lp(self, monkeypatch):
        # the screen has shown that y majorizes x; the Muirhead chain is
        # the witness
        def no_lp(rows, rhs):
            raise AssertionError("the LP ran")

        monkeypatch.setattr(naivediv.lp, "feasible_point", no_lp)
        monkeypatch.setattr(naivediv.lp, "solve_equality_feasibility", no_lp)
        y = weight_vector(["1/2", "1/3", "1/6"])
        x = weight_vector(["1/3", "1/6", "1/2"])
        witness = multivariate_feasible([x], [y])
        assert witness == hlp_witness(y, x)
        assert isinstance(witness, DoublyStochasticMatrix)
        assert apply(y, witness) == x

    def test_a_wrong_lp_point_is_caught(self, monkeypatch):
        # a nonnegative point with unit row sums that carries no row: the
        # exact check rejects it rather than return it as a witness
        def wrong(rows, *_):
            return 3, [1] * len(rows[0])

        # both the elimination on the float basis and the exact simplex
        monkeypatch.setattr(naivediv.lp, "_solve_on", wrong)
        monkeypatch.setattr(naivediv.lp, "solve_equality_feasibility", wrong)
        y = [weight_vector(["1/2", "1/3", "1/6"]), weight_vector(["1/2", "1/2", "0"])]
        with pytest.raises(RuntimeError, match="exact check"):
            multivariate_feasible(y, y)

    def test_an_lp_witness_is_built_and_checked_once(self, monkeypatch):
        # the witness is a DoublyStochasticMatrix from the start, in the
        # canonical view, and _carries runs once, on every pair at once
        checked = []
        carries = naivediv.matrices._carries

        def counted(m, pairs):
            checked.append(len(pairs))
            return carries(m, pairs)

        rng = random.Random(3)
        y = [random_weight_vector(rng, 4) for _ in range(2)]
        x = [apply(row, random_doubly_stochastic(99, 4, k=3)) for row in y]
        monkeypatch.setattr(naivediv.matrices, "_carries", counted)
        witness = multivariate_feasible(x, y)
        assert checked == [3]  # the pair (1, 1) and one pair a row
        assert isinstance(witness, DoublyStochasticMatrix)
        scale, a = witness._scaled
        assert SquareMatrix._from_ints(a, scale)._scaled == (scale, a)

    def test_a_point_that_is_not_doubly_stochastic_is_caught(self, monkeypatch):
        # every row of P is (1, 0, 0): it carries both rows of y onto x, and
        # only the pair (1, 1) rejects it
        def lopsided(rows, *_):
            return 1, [1, 0, 0] * 3

        monkeypatch.setattr(naivediv.lp, "_solve_on", lopsided)
        y = [weight_vector(["1", "0", "0"])] * 2
        with pytest.raises(RuntimeError, match="exact check"):
            multivariate_feasible(y, y)

    def test_jointly_infeasible_rows_reach_the_lp(self, monkeypatch):
        # each target row is majorized by its source row, but one P would
        # have to send (1, 0, 0) to two different rows; the verdict comes
        # from the exact simplex
        calls = []

        def counted(name):
            solve = getattr(naivediv.lp, name)

            def call(rows, rhs):
                calls.append(name)
                return solve(rows, rhs)

            return call

        for name in ("feasible_point", "solve_equality_feasibility"):
            monkeypatch.setattr(naivediv.lp, name, counted(name))
        y = [weight_vector(["1", "0", "0"])] * 2
        x = [weight_vector(["1/2", "1/2", "0"]), weight_vector(["0", "1/2", "1/2"])]
        assert all(map(majorizes, y, x))
        assert multivariate_feasible(x, y) is None
        assert calls == ["feasible_point", "solve_equality_feasibility"]

    def test_huge_denominators_get_the_exact_verdict(self):
        # every float conversion is an int true division of at most 1 in
        # size: float() of the equations' ints would overflow
        xs, ys = huge_denominator_stack(1790)
        assert 1700 < max(w._scale.bit_length() for w in xs + ys) < 1900
        ones = (1, (1, 1, 1))
        pairs = [(ones, ones)] + [
            ((y._scale, y._nums), (x._scale, x._nums)) for x, y in zip(xs, ys)
        ]
        rows, rhs = naivediv.matrices._mixing_system(pairs, 3)
        with pytest.raises(OverflowError):
            float(max(abs(c) for row in rows for c in row))
        assert naivediv.lp.solve_equality_feasibility(rows, rhs) is not None
        witness = multivariate_feasible(xs, ys)
        assert witness is not None
        assert naivediv.matrices._carries(witness, pairs)

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            multivariate_feasible([uniform_vector(3)], [])
        with pytest.raises(DimensionMismatch):
            multivariate_feasible([uniform_vector(3)], [uniform_vector(4)])

    @given(weight_vectors(min_n=2, max_n=5), weight_vectors(min_n=2, max_n=5))
    def test_single_row_agrees_with_majorization(self, x, y):
        if x.n != y.n:
            return
        witness = multivariate_feasible([x], [y])
        assert (witness is not None) == majorizes(y, x)


class TestDStochasticWitness:
    def test_benchmark_itself_is_reachable(self):
        d = weight_vector(["1/2", "1/4", "1/4"])
        beta = weight_vector(["7/10", "1/5", "1/10"])
        a = d_stochastic_witness(beta, d, d)
        assert a is not None
        assert is_d_stochastic(a, d)
        n = d.n
        reached = tuple(
            sum(beta.weights[i] * a.rows[i][j] for i in range(n)) for j in range(n)
        )
        assert reached == d.weights

    def test_a_wrong_lp_point_is_caught(self, monkeypatch):
        # each row of A sums to 1 and d @ A == d, but beta @ A != alpha
        def wrong(rows, *_):
            return 3, [1] * len(rows[0])

        # both the elimination on the float basis and the exact simplex
        monkeypatch.setattr(naivediv.lp, "_solve_on", wrong)
        monkeypatch.setattr(naivediv.lp, "solve_equality_feasibility", wrong)
        d = uniform_vector(3)
        beta = weight_vector(["1/2", "1/3", "1/6"])
        alpha = weight_vector(["1/2", "1/4", "1/4"])
        with pytest.raises(RuntimeError, match="exact check"):
            d_stochastic_witness(beta, alpha, d)

    def test_infeasible_direction(self):
        d = uniform_vector(3)
        beta = uniform_vector(3)
        alpha = weight_vector(["1/2", "1/3", "1/6"])
        # uniform cannot be spread back out by an averaging matrix
        assert d_stochastic_witness(beta, alpha, d) is None


class TestRandomDoublyStochastic:
    def test_single_extreme_point_is_permutation(self):
        assert is_permutation(random_doubly_stochastic(17, 4, k=1))

    def test_convex_combination_is_doubly_stochastic(self):
        assert is_doubly_stochastic(random_doubly_stochastic(17, 4, k=5))

    def test_same_seed_same_matrix(self):
        a = random_doubly_stochastic(23, 5, k=3)
        b = random_doubly_stochastic(23, 5, k=3)
        assert a.rows == b.rows

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_the_fraction_mixture(self, seed):
        # the integer convex combination draws the same stream and lands on
        # the matrix the entrywise Fraction mixture built
        for n, k in ((1, 1), (3, 2), (5, 4), (7, 3)):
            new = random_doubly_stochastic(seed, n, k)
            old = old_random_doubly_stochastic(seed, n, k)
            assert type(new) is DoublyStochasticMatrix
            assert new._scaled == old._scaled
            assert new.rows == old.rows


def test_random_majorization_pair_is_ordered():
    rng = random.Random(5)
    for _ in range(50):
        alpha, beta = random_majorization_pair(rng, 4)
        assert majorizes(beta, alpha)


def test_composition_of_doubly_stochastic_is_doubly_stochastic():
    a = random_doubly_stochastic(1, 4, k=2)
    b = random_doubly_stochastic(2, 4, k=3)
    assert is_doubly_stochastic(a @ b)


def test_random_majorization_pair_matches_the_chained_transforms():
    # the generator's old body applied one apply_transform per step; the
    # integer chain must give the same pairs from the same random stream.
    # random.sample picks two slots through a pool list up to n = 21 and
    # through a set from n = 22, so both of its branches are covered
    for seed in range(200):
        new, old = random.Random(seed), random.Random(seed)
        # a drawn chain length on most seeds, a fixed one (0 to 4) on some
        transforms = None if seed % 4 else seed % 5
        for n in [*range(2, 9), 21, 22, 23, 40]:
            assert random_majorization_pair(new, n, transforms) == (
                old_random_majorization_pair(old, n, transforms, sampler=random_weight_vector)
            )
            assert new.getstate() == old.getstate()


def test_random_strict_majorization_pair_keeps_its_gap():
    rng = random.Random(20)
    for n in range(2, 9):
        for _ in range(25):
            alpha, beta = random_strict_majorization_pair(rng, n)
            ordered = sorted(beta.weights, reverse=True)
            assert all(a - b >= F(1, 20 * n) for a, b in zip(ordered, ordered[1:]))
            assert majorizes(beta, alpha)


def test_random_strict_majorization_pair_matches_its_old_body():
    for seed in range(200):
        new, old = random.Random(seed), random.Random(seed)
        for n in range(2, 11):
            assert random_strict_majorization_pair(new, n) == (
                old_random_strict_majorization_pair(old, n, sampler=random_weight_vector)
            )
            assert new.getstate() == old.getstate()


def test_strict_pairs_refused_before_drawing_where_no_gap_fits():
    # counts over D = 10**6 * n with every sorted gap at least D / (20n) sum
    # past D from n = 41, so no draw could pass: refuse at once, stream as is
    for n in (41, 42, 64, 1000):
        rng = random.Random(n)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"n = {n}"):
            random_strict_majorization_pair(rng, n)
        assert rng.getstate() == state


def test_strict_pairs_draw_wherever_a_gap_fits():
    class Drew(Exception):
        pass

    class Probe(random.Random):
        def getrandbits(self, k):
            raise Drew

    for n in range(2, 41):
        with pytest.raises(Drew):
            random_strict_majorization_pair(Probe(0), n)
    # at n = 40 the tightest counts 1, 1 + g, 1 + 2g, ... with the rest on
    # the last slot pass the gap test; at n = 41 they already sum past D
    for n, fits in ((40, True), (41, False)):
        total = 10**6 * n
        g = -(-total // (20 * n))
        counts = [1 + g * i for i in range(n)]
        assert (sum(counts) <= total) is fits
        counts[-1] += total - sum(counts)
        if fits:
            assert all(20 * n * (b - a) >= total for a, b in zip(counts, counts[1:]))


@pytest.mark.parametrize(
    "sampler", [random_majorization_pair, random_strict_majorization_pair]
)
def test_pair_samplers_refuse_one_slot(sampler):
    # two distinct slots cannot be picked from one, as random.sample refused
    with pytest.raises(ValueError):
        sampler(random.Random(0), 1)


def test_pair_sampler_with_no_transforms_needs_no_pick():
    # no transform is drawn, so one slot is fine and beta comes back as is
    alpha, beta = random_majorization_pair(random.Random(0), 1, transforms=0)
    assert alpha == beta == weight_vector(["1"])


def test_matrix_integer_view_is_built_once_per_rebalance(monkeypatch):
    # the chain is composed on ints, so no Fraction rows are turned into a
    # view and none are built for the product
    n = 9
    w = random_weight_vector(random.Random(4), n)
    real = naivediv.simplex._integer_view
    matrix_views = []

    def counting(rows):
        if len(rows) == n:
            matrix_views.append(rows)
        return real(rows)

    for module in (naivediv.simplex, naivediv.matrices, naivediv.rebalancing, naivediv.lp, naivediv.measures):
        if hasattr(module, "_integer_view"):
            monkeypatch.setattr(module, "_integer_view", counting)
    products = []

    def recording(steps, order):
        products.append(compose(steps, order))
        return products[-1]

    monkeypatch.setattr(naivediv.rebalancing, "compose", recording)
    plan = rebalance_to(w, uniform_vector(n))
    assert plan.practical_turnover is not None
    assert len(matrix_views) == 0
    (product,) = products
    assert "rows" not in vars(product)


def test_membership_checks_build_no_view_for_their_vectors(monkeypatch):
    # the pair vectors come as the integer views they already hold, so once
    # the matrix's own view is cached no lcm is built at all
    rng = random.Random(8)
    w = random_weight_vector(rng, 6)
    p = hlp_witness(w, uniform_vector(6))
    d = random_weight_vector(rng, 6)
    fixing = SquareMatrix.identity(6)
    for m in (p, fixing):
        m._scaled
    built = []
    real = naivediv.simplex._integer_view

    def counting(rows):
        built.append(rows)
        return real(rows)

    for module in (naivediv.simplex, naivediv.matrices, naivediv.rebalancing):
        if hasattr(module, "_integer_view"):
            monkeypatch.setattr(module, "_integer_view", counting)
    assert is_doubly_stochastic(p)
    assert polytope_membership(p, w)
    assert not polytope_membership(p, d)
    assert is_d_stochastic(fixing, d)
    assert not is_d_stochastic(p, d)
    assert built == []


def test_the_witness_path_builds_no_fraction(monkeypatch, capsys):
    # the stack is read as integer views, the LP runs on int rows and the
    # witness is written from its integer view, so with Fraction refused
    # both witness searches give the same answers
    golden = Path(__file__).parent / "golden"
    argv = [
        "multi-check",
        str(golden / "multi_check_targets.json"),
        str(golden / "multi_check_sources.json"),
        "--format",
        "json",
    ]
    assert naivediv.cli.main(argv) == 0
    expected = capsys.readouterr().out
    assert json.loads(expected)["feasible"] is True
    d = weight_vector(["1/2", "1/4", "1/4"])
    beta = weight_vector(["7/10", "1/5", "1/10"])
    alpha = weight_vector(["3/5", "1/4", "3/20"])
    witness = d_stochastic_witness(beta, alpha, d)
    assert witness is not None

    def refused(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(fractions.Fraction, "__new__", refused)
    with pytest.raises(AssertionError, match="a Fraction was built"):
        F(1)
    assert naivediv.cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    assert d_stochastic_witness(beta, alpha, d) == witness
