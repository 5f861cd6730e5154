"""Weight, allocation, matrix and plan file formats."""

import json
import math
import random
import re
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from naivediv.errors import LengthMismatch
import naivediv.fileio
from naivediv.fileio import (
    _rational_pair,
    _weight_vector,
    format_float,
    json_float,
    load_allocation_rows,
    load_weights,
    matrix_to_dict,
    parse_rational,
    plan_from_dict,
    plan_to_dict,
    weights_from_dict,
    weights_to_dict,
    write_text,
)
import naivediv.rebalancing
from naivediv.matrices import (
    TTransform,
    apply_transform,
    compose,
    hlp_witness,
    random_doubly_stochastic,
    uniform_mixing_matrix,
)
from naivediv.measures import evaluate, get_measure
from naivediv.preferences import aversion_squared, inequality_aversion_coefficient
from naivediv.rebalancing import minimal_turnover_plan, rebalance_to
from naivediv.simplex import (
    WeightVector,
    as_fraction,
    compare,
    random_weight_vector,
    uniform_vector,
    weight_vector,
)
from conftest import no_int_text_limit
from old_sampler import old_random_weight_vector

REFERENCE = weight_vector(["1/2", "1/3", "1/6"])


class TestRationalParsing:
    def test_fraction_strings(self):
        assert parse_rational("1/2") == F(1, 2)
        assert parse_rational("3") == 3

    def test_decimal_strings_are_exact(self):
        assert parse_rational("0.25") == F(1, 4)
        assert parse_rational("0.1") == F(1, 10)  # not the binary float

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("abc")
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_exponent_up_to_the_digit_limit_is_read(self):
        limit = sys.get_int_max_str_digits()
        assert parse_rational(f"1e{limit}") == 10**limit
        assert parse_rational(f"1e-{limit}") == F(1, 10**limit)

    @pytest.mark.parametrize(
        "text", ["1e{over}", "1e-{over}", "2.5E+99999999", "1e9_999_999", "1e" + "9" * 5000]
    )
    def test_exponent_past_the_digit_limit_is_refused_at_once(self, text):
        # Fraction would compute 10**exponent first: minutes for 1e99999999
        text = text.format(over=sys.get_int_max_str_digits() + 1)
        start = time.perf_counter()
        with pytest.raises(ValueError):
            parse_rational(text)
        assert time.perf_counter() - start < 1

    def test_exponent_is_unbounded_when_the_limit_is_lifted(self):
        over = sys.get_int_max_str_digits() + 1
        with no_int_text_limit():
            assert parse_rational(f"1e{over}") == 10**over

    def test_float_formatting(self):
        assert format_float(1 / 3, 12) == "0.333333333333"
        assert format_float(0.25, 3) == "0.25"
        assert json_float(1 / 3, 3) == 0.333


class TestWeightFiles:
    def test_dict_round_trip_with_labels(self):
        w = WeightVector((F(1, 2), F(1, 2)), ("bonds", "stocks"))
        assert weights_from_dict(weights_to_dict(w)) == w

    def test_dict_round_trip_without_labels(self):
        assert weights_from_dict(weights_to_dict(REFERENCE)) == REFERENCE

    def test_missing_field(self):
        with pytest.raises(ValueError):
            weights_from_dict({"labels": ["a"]})

    def test_load_json(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"weights": ["1/2", "1/3", "1/6"]}))
        assert load_weights(path) == REFERENCE

    @pytest.mark.parametrize(
        "weights, expected",
        [
            ("[0.5, 0.5]", (F(1, 2), F(1, 2))),
            ("[1, 0]", (F(1), F(0))),
            ("[5e-1, 0.5]", (F(1, 2), F(1, 2))),
            ("[0.1, 0.9]", (F(1, 10), F(9, 10))),  # not the doubles
        ],
    )
    def test_json_numbers_are_read_as_written(self, tmp_path, weights, expected):
        path = tmp_path / "w.json"
        path.write_text('{"weights": %s}' % weights)
        assert load_weights(path).weights == expected

    def test_a_label_written_as_a_json_number_keeps_its_text(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"labels": [1e2, 7], "weights": ["1/2", "1/2"]}')
        assert load_weights(path).labels == ("1e2", "7")

    def test_load_csv(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("label,weight\na, 1/2\nb, 0.5\n")
        w = load_weights(path)
        assert w.weights == (F(1, 2), F(1, 2))
        assert w.labels == ("a", "b")

    def test_csv_needs_header(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("a,1/2\nb,1/2\n")
        with pytest.raises(ValueError) as exc:
            load_weights(path)
        assert str(exc.value) == f"{path}: weight CSV must start with a 'label,weight' header"

    def test_csv_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("label,weight\na,1/2,extra\n")
        with pytest.raises(ValueError) as exc:
            load_weights(path)
        assert str(exc.value) == (
            f"{path}: weight CSV rows need 2 columns, got ['a', '1/2', 'extra']"
        )


class TestMatrixFiles:
    """A written matrix file has the 'entries' form of an allocation stack,
    and each row of a doubly stochastic matrix is an allocation, so
    ``load_allocation_rows`` reads one back and reports its faults."""

    def test_round_trip(self, tmp_path):
        m = uniform_mixing_matrix(3)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_dict(m)))
        assert json.loads(path.read_text())["order"] == 3
        assert tuple(row.weights for row in load_allocation_rows(path)) == m.rows

    def test_bad_entry_names_the_file_and_row(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"entries": [["1/2", "1/2"], ["1/2", "x"]]}))
        with pytest.raises(ValueError) as excinfo:
            load_allocation_rows(path)
        assert str(excinfo.value) == (
            f"{path}: row 2 of 'entries': not a rational number: 'x'"
        )

    def test_missing_entries(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"order": 2}))
        with pytest.raises(ValueError, match="'entries' field"):
            load_allocation_rows(path)

    @pytest.mark.parametrize(
        "content",
        ["7", json.dumps({"entries": 5}), json.dumps({"entries": [["1"], 1]})],
    )
    def test_wrong_json_shapes(self, tmp_path, content):
        path = tmp_path / "m.json"
        path.write_text(content)
        with pytest.raises(ValueError, match="JSON"):
            load_allocation_rows(path)


class TestAllocationStacks:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "alloc.json"
        path.write_text(
            json.dumps(
                {"entries": [["1/2", "1/3", "1/6"], ["1/3", "1/3", "1/3"]]}
            )
        )
        rows = load_allocation_rows(path)
        assert rows == [REFERENCE, uniform_vector(3)]

    def test_rows_must_be_allocations(self, tmp_path):
        path = tmp_path / "alloc.json"
        path.write_text(json.dumps({"entries": [["1/2", "1/3"]]}))
        with pytest.raises(ValueError):
            load_allocation_rows(path)

    def test_empty_stack(self, tmp_path):
        path = tmp_path / "alloc.json"
        path.write_text(json.dumps({"entries": []}))
        with pytest.raises(ValueError):
            load_allocation_rows(path)


class TestPlanFiles:
    def test_wire_format(self):
        data = plan_to_dict(minimal_turnover_plan(REFERENCE))
        assert data["steps"] == [{"j": 1, "k": 3, "lambda": "1/2"}]  # 1-based
        assert data["turnover"] == "1/6"
        assert data["intermediates"] == [["1/3", "1/3", "1/3"]]
        assert data["trades"][0] == {"label": "w1", "delta": "-1/6"}
        assert data["cost"] == 0.0

    def test_full_precision_round_trip(self):
        plan = minimal_turnover_plan(REFERENCE, cost_rate=0.01)
        data = json.loads(json.dumps(plan_to_dict(plan, precision=17)))
        assert plan_from_dict(data) == plan

    def test_default_precision_keeps_rationals_exact(self):
        plan = rebalance_to(
            weight_vector(["7/10", "1/5", "1/10"]), uniform_vector(3)
        )
        rebuilt = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
        assert rebuilt.steps == plan.steps
        assert rebuilt.turnover == plan.turnover
        assert rebuilt.trades == plan.trades
        assert rebuilt.practical_turnover == pytest.approx(
            plan.practical_turnover, rel=1e-11
        )

    def test_relabeling_plan_round_trip(self):
        plan = rebalance_to(REFERENCE, weight_vector(["1/3", "1/2", "1/6"]))
        assert plan.averaging_steps == 0
        assert plan.turnover == F(1, 6)
        rebuilt = plan_from_dict(plan_to_dict(plan, precision=17))
        assert rebuilt == plan

    def test_tampered_lambda_rejected(self):
        data = plan_to_dict(minimal_turnover_plan(REFERENCE))
        data["steps"][0]["lambda"] = "1/3"
        with pytest.raises(ValueError):
            plan_from_dict(data)

    def test_tampered_turnover_rejected(self):
        data = plan_to_dict(minimal_turnover_plan(REFERENCE))
        data["turnover"] = "1/2"
        with pytest.raises(ValueError):
            plan_from_dict(data)

    def test_tampered_trades_rejected(self):
        data = plan_to_dict(minimal_turnover_plan(REFERENCE))
        data["trades"][0]["delta"] = "0"
        with pytest.raises(ValueError):
            plan_from_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("label", "zzz"),
            ("cost_rate", -5),
            ("cost_rate", "nan"),
            ("cost", -1),
            ("cost", "inf"),
        ],
    )
    def test_tampered_label_and_cost_fields_rejected(self, field, value):
        data = plan_to_dict(minimal_turnover_plan(REFERENCE, cost_rate=0.01))
        if field == "label":
            data["trades"][0]["label"] = value
        else:
            data[field] = value
        with pytest.raises(ValueError):
            plan_from_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("steps", 5),
            ("trades", 3),
            ("steps", [5]),
            ("trades", [1]),
            ("steps", [{"j": 1, "lambda": "1/2"}]),
            ("intermediates", "x"),
            ("intermediates", ["1/3"]),
        ],
    )
    def test_wrongly_typed_fields_rejected(self, field, value):
        data = plan_to_dict(minimal_turnover_plan(REFERENCE))
        data[field] = value
        with pytest.raises(ValueError, match=field):
            plan_from_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("j", 1.5),
            ("j", True),
            ("j", None),
            ("k", "3"),
            ("cost", None),
            ("cost", [1]),
            ("cost", True),
            ("cost_rate", None),
            ("practical_turnover", "0.5"),
            ("practical_turnover", [1]),
        ],
    )
    def test_wrongly_typed_scalars_rejected(self, field, value):
        data = plan_to_dict(minimal_turnover_plan(REFERENCE))
        if field in ("j", "k"):
            data["steps"][0][field] = value
        else:
            data[field] = value
        with pytest.raises(ValueError, match=f"'{field}'"):
            plan_from_dict(data)

    @pytest.mark.parametrize("value", [-5, -1e-300, math.nan, math.inf, -math.inf])
    def test_practical_turnover_must_be_finite_and_nonnegative(self, value):
        data = plan_to_dict(minimal_turnover_plan(REFERENCE))
        data["practical_turnover"] = value
        with pytest.raises(ValueError, match="practical_turnover"):
            plan_from_dict(data)

    def test_practical_turnover_only_for_an_equal_target(self):
        flatter = weight_vector(["2/5", "1/3", "4/15"])
        data = plan_to_dict(rebalance_to(REFERENCE, flatter))
        assert data["practical_turnover"] is None
        data["practical_turnover"] = 0.1
        with pytest.raises(ValueError, match="practical_turnover"):
            plan_from_dict(data)

    def test_practical_turnover_required_for_an_equal_target(self):
        data = plan_to_dict(minimal_turnover_plan(REFERENCE))
        data["practical_turnover"] = None
        with pytest.raises(ValueError, match="practical_turnover"):
            plan_from_dict(data)

    @pytest.mark.parametrize(
        "rate, field, loads, rejected",
        [
            # turnover 1/6 at n = 3: practical at most 4/3 * 1/6 * sqrt(2) = 0.31427
            (0.0, "practical_turnover", 0.314, 0.315),
            (0.0, "practical_turnover", 0.314, 99.0),
            # cost within a factor 2 of 0.01 * 2 * 1/6 = 0.0033333
            (0.01, "cost", 0.0066, 0.0067),
            (0.01, "cost", 0.0017, 0.0016),
            (0.01, "cost", 0.0017, 99.0),
            (0.0, "cost", 0.0, 99.0),
        ],
    )
    def test_practical_turnover_and_cost_are_bounded(self, rate, field, loads, rejected):
        # bounds, not a re-derivation: a written plan rounds both values
        data = plan_to_dict(minimal_turnover_plan(REFERENCE, cost_rate=rate))
        data[field] = loads
        assert getattr(plan_from_dict(data), field) == loads
        data[field] = rejected
        with pytest.raises(ValueError, match=field):
            plan_from_dict(data)

    def test_plans_load_at_every_precision(self):
        rng = random.Random(11)
        for n in (2, 3, 5, 8, 16):
            w = random_weight_vector(rng, n)
            flatter = rebalance_to(w, uniform_vector(n)).intermediates[0]
            for target in (uniform_vector(n), flatter):
                for rate in (0.0, 0.0015, 0.15, 0.25, 0.35, 1.45, 7.0):
                    plan = rebalance_to(w, target, cost_rate=rate)
                    for precision in range(1, 18):
                        data = json.loads(json.dumps(plan_to_dict(plan, precision)))
                        assert plan_from_dict(data).steps == plan.steps

    #: Two steps: intermediates ["3/8", "1/4", "1/8", "1/4"] and ["1/4"] * 4.
    TWO_STEPS = weight_vector(["1/2", "1/4", "1/8", "1/8"])

    def two_step_data(self):
        plan = minimal_turnover_plan(self.TWO_STEPS, cost_rate=0.01)
        data = json.loads(json.dumps(plan_to_dict(plan, precision=17)))
        assert data["intermediates"] == [["3/8", "1/4", "1/8", "1/4"], ["1/4"] * 4]
        return plan, data

    @pytest.mark.parametrize(
        "row",
        [
            ["2/8", "1/4", "0.25", "1/4"],
            ["0.25", "0.250", "+1/4", " 25/100"],
            [0.25, 0.25, 0.25, 0.25],
            ["1/4", 0.25, "1/4", "2/8"],
        ],
    )
    def test_intermediates_in_other_forms_are_read_by_value(self, row):
        plan, data = self.two_step_data()
        data["intermediates"][1] = row
        assert plan_from_dict(data) == plan

    def test_intermediates_as_json_integers(self):
        plan = rebalance_to(weight_vector(["1", "0"]), weight_vector(["0", "1"]))
        data = plan_to_dict(plan)
        assert data["intermediates"] == [["0", "1"]]
        data["intermediates"][0] = [0, 1]
        assert plan_from_dict(data) == plan

    @pytest.mark.parametrize(
        "row",
        [
            ["1/4", "3/8", "1/8", "1/4"],
            ["2/8", "0.375", "1/8", "1/4"],
            ["3/8", "1/4", "1/4", "1/8"],
        ],
    )
    def test_a_changed_intermediate_is_rejected(self, row):
        _, data = self.two_step_data()
        data["intermediates"][0] = row
        with pytest.raises(ValueError) as excinfo:
            plan_from_dict(data)
        assert str(excinfo.value) == "intermediate does not match its step"

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("x", "not a rational number: 'x'"),
            ("1/0", "not a rational number: '1/0'"),
            (None, "not a rational number: None"),
            ("-1/4", "weights must be nonnegative"),
            ("3/4", "weights must sum to exactly 1, got 3/2"),
        ],
    )
    def test_a_malformed_intermediate_names_its_row(self, entry, message):
        _, data = self.two_step_data()
        data["intermediates"][1][2] = entry
        with pytest.raises(ValueError) as excinfo:
            plan_from_dict(data)
        assert str(excinfo.value) == f"plan data: row 2 of 'intermediates': {message}"

    def test_a_malformed_intermediate_is_reported_before_a_plan_fault(self):
        # the rows are read before the plan's own checks run, as they always
        # were; a row that reads but is wrong is compared with the plan after
        # them, so the plan's fault is reported first
        _, data = self.two_step_data()
        data["intermediates"][1][2] = "x"
        data["cost"] = -1
        with pytest.raises(ValueError) as excinfo:
            plan_from_dict(data)
        assert str(excinfo.value) == (
            "plan data: row 2 of 'intermediates': not a rational number: 'x'"
        )
        data["intermediates"][1] = ["3/8", "1/4", "1/8", "1/4"]
        with pytest.raises(ValueError) as excinfo:
            plan_from_dict(data)
        assert str(excinfo.value) == "cost must be finite and nonnegative, got -1.0"

    def test_source_labels_name_the_trades(self):
        source = weight_vector(["1/2", "1/3", "1/6"], ["bonds", "stocks", "cash"])
        data = plan_to_dict(minimal_turnover_plan(source))
        assert [t["label"] for t in data["trades"]] == ["bonds", "stocks", "cash"]
        data["trades"][0]["label"] = "w1"
        with pytest.raises(ValueError):
            plan_from_dict(data)


def fraction_reader(value):
    """The reader the integer parser replaced: one Fraction per entry."""
    try:
        return as_fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {value!r}") from exc


def outcome(read, value):
    """``read(value)`` as a Fraction, or the message of its ValueError."""
    try:
        return F(*read(value)) if read is _rational_pair else read(value)
    except ValueError as exc:
        return f"ValueError: {exc}"


NUMBER_TEXT = st.text(
    alphabet=st.sampled_from("0123456789/+-._eE \t١٢٣１２"), max_size=12
)
JSON_SCALARS = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.lists(st.integers(), max_size=2)
)


#: The golden weight and allocation files (the others are expected outputs).
GOLDEN_INPUTS = [
    path
    for path in sorted((Path(__file__).parent / "golden").glob("*.json"))
    if {"weights", "entries"} & json.loads(path.read_text()).keys()
]


class TestIntegerParserAgainstFractions:
    @pytest.mark.parametrize(
        "value",
        [
            "1/3", "12", "0", "007/010", "2/4", "1_000/3", "0.25", ".5", "1e-3",
            "1E3", "+1/3", "-1/3", "-0", " 1/3 ", "\t2\n", "١٢/٣", "１/３",
            "²/3", "½", "1/0", "1/00", "0/0", "", " ", "/", "/3", "3/", "1/2/3",
            "1 /2", "abc", "inf", "nan", "1/-2",
            1, 0, -1, 10**30, 0.5, 2.5e-3, 1e300, float("nan"), True, False,
            None, [1], {"p": 1},
            # parts past int's 4,300-digit limit on reading text
            pytest.param("1" * 4301 + "/3", id="4301-digit-p/3"),
            pytest.param("1/" + "3" * 4301, id="1/4301-digit-q"),
            pytest.param("1" * 4301, id="4301-digit-p"),
        ],
    )
    def test_hand_picked(self, value):
        assert outcome(_rational_pair, value) == outcome(fraction_reader, value)
        assert outcome(parse_rational, value) == outcome(fraction_reader, value)

    @given(st.one_of(NUMBER_TEXT, JSON_SCALARS))
    def test_drawn(self, value):
        assert outcome(_rational_pair, value) == outcome(fraction_reader, value)

    @given(st.integers(0, 10**40), st.integers(0, 10**40))
    def test_plain_pairs(self, p, q):
        text = f"{p}/{q}"
        assert outcome(_rational_pair, text) == outcome(fraction_reader, text)
        if q:
            assert _rational_pair(text)[1] > 0

    @pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.name)
    def test_golden_inputs_load_as_with_fractions(self, path):
        data = json.loads(path.read_text())
        if "weights" in data:
            got = [load_weights(path)]
            rows = [data["weights"]]
        else:
            got = load_allocation_rows(path)
            rows = data["entries"]
        for w, row in zip(got, rows, strict=True):
            expected = WeightVector(tuple(fraction_reader(x) for x in row))
            assert w == expected
            assert (w._scale, w._nums) == (expected._scale, expected._nums)
            assert w.weights == expected.weights


def fraction_vector(values):
    """The vector the whole-vector reader replaced: every entry read with
    ``fraction_reader``, errors prefixed as ``_weight_vector(values, "w")``
    prefixes them."""
    try:
        return WeightVector(tuple(fraction_reader(x) for x in values))
    except ValueError as exc:
        raise type(exc)(f"w: {exc}") from None


def vector_outcome(read, values):
    """``read(values)``'s integer view, or its exception type and message."""
    try:
        w = read(values)
    except ValueError as exc:
        return type(exc), str(exc)
    return w._scale, w._nums


#: Runs of entries spliced into plain vectors: each could mislead a reader
#: of the joined text, or must reach the per-entry parser.
TRAPS = [
    ["1/2/3", "5"], ["5", "1/2/3"], ["1,2"], ["1/2,3"], [","], ["0"], ["1"],
    ["1/00"], ["0/0"], ["007/010"], [""], ["/3"], ["3/"], ["//"], ["1//2"],
    ["١/٢"], ["１/３"], ["٣"], ["1" * 4301 + "/3"], ["1/" + "3" * 4301],
    ["1" * 4301], [" 1/2"], ["1/2 "], ["1/ 2"], ["+1/2"], ["-1/2"], ["1/-2"],
    ["1/+2"], ["-0"], ["0.5"], ["1e-1"], ["1_0/20"], ["1/2\n"], [1], [0], [0.5],
    [True], [False], [None],
]


@st.composite
def plain_vectors_with_traps(draw):
    """A lattice vector summing to 1, each entry written as ``p/q`` or
    ``p`` in lowest terms, over the lattice or zero-padded; some lists get
    up to two runs of ``TRAPS`` spliced in or swapped for entries."""
    n = draw(st.integers(1, 8))
    lattice = draw(st.integers(1, 60))
    cuts = sorted(draw(st.lists(st.integers(0, lattice), min_size=n - 1, max_size=n - 1)))
    values = []
    for a, b in zip([0, *cuts], [*cuts, lattice]):
        x = F(b - a, lattice)
        form = draw(st.sampled_from(["lowest", "lattice", "padded"]))
        if form == "lowest":
            values.append(str(x))
        elif form == "lattice":
            values.append(f"{b - a}/{lattice}")
        else:
            values.append(f"00{x.numerator}/0{x.denominator}")
    for _ in range(draw(st.integers(0, 2))):
        trap = draw(st.sampled_from(TRAPS))
        i = draw(st.integers(0, len(values) - 1))
        values[i : i + draw(st.integers(0, 1))] = trap
    return values


class TestWholeVectorReader:
    """``_weight_vector`` reads a list of plain entries all at once and hands
    every other list to ``_rational_pair``, entry by entry: either way the
    vector, or the error, is the one per-entry ``Fraction`` parsing gives."""

    @staticmethod
    def check(values):
        assert vector_outcome(lambda v: _weight_vector(v, "w"), values) == (
            vector_outcome(fraction_vector, values)
        )

    @given(plain_vectors_with_traps())
    def test_drawn_against_fractions(self, values):
        self.check(values)

    @pytest.mark.parametrize(
        "values",
        [
            [], ["1,0"], ["1/2", "1/2,0"], ["1", "0", "0"], ["0", "007/014", "1/2"],
            ["1/3", "1/3", "1/3"],
        ],
    )
    def test_hand_picked(self, values):
        self.check(values)

    @pytest.mark.parametrize(
        "trap", TRAPS, ids=lambda t: re.sub(r"\d{9,}", "<digits>", repr(t))
    )
    def test_each_trap(self, trap):
        self.check(["1/4", *trap, "1/2", "1/4"])
        self.check(trap)

    def test_plain_vectors_never_reach_the_entry_parser(self, tmp_path, monkeypatch):
        rng = random.Random(16)
        lattice = 10**6 * 300
        cuts = sorted(rng.sample(range(1, lattice), 299))
        book = [F(b - a, lattice) for a, b in zip([0, *cuts], [*cuts, lattice])]
        raw = [F(rng.randint(1, 10**14), rng.randint(1, 10**14)) for _ in range(64)]
        normalized = [x / sum(raw) for x in raw]
        assert max(x.denominator.bit_length() for x in normalized) > 2500
        vectors = [book, normalized, [F(1), F(0), F(0)], [F(0), F(1, 2), F(1, 2)]]
        paths = []
        for i, v in enumerate(vectors):
            paths.append(tmp_path / f"w{i}.json")
            paths[-1].write_text(json.dumps({"weights": [str(x) for x in v]}))
        csv_path = tmp_path / "w.csv"
        csv_path.write_text("label,weight\n" + "".join(f"s{i},{x}\n" for i, x in enumerate(book)))
        rows_path = tmp_path / "rows.json"
        rows_path.write_text(json.dumps({"entries": [[str(x) for x in v] for v in vectors[2:]]}))

        def refuse(value):
            raise AssertionError(f"{value!r} was read entry by entry")

        monkeypatch.setattr(naivediv.fileio, "_rational_pair", refuse)
        loaded = [load_weights(path) for path in paths]
        assert [w.weights for w in loaded] == [tuple(v) for v in vectors]
        assert load_weights(csv_path).weights == tuple(book)
        assert load_allocation_rows(rows_path) == loaded[2:]


class TestVectorErrorsNameTheField:
    """An invalid vector is reported with its file and field; the text after
    that prefix is the vector's own message."""

    def test_json_weights(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"weights": ["1/2", "1/3"]}))
        with pytest.raises(ValueError) as excinfo:
            load_weights(path)
        assert str(excinfo.value) == f"{path}: 'weights': weights must sum to exactly 1, got 5/6"

    def test_unparseable_entry(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"weights": ["1/2", "half"]}))
        with pytest.raises(ValueError) as excinfo:
            load_weights(path)
        assert str(excinfo.value) == f"{path}: 'weights': not a rational number: 'half'"

    def test_json_labels(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"weights": ["1/2", "1/2"], "labels": ["a", "a"]}))
        with pytest.raises(ValueError) as excinfo:
            load_weights(path)
        assert str(excinfo.value) == f"{path}: 'labels': labels must be unique"

    def test_label_count_keeps_its_type(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"weights": ["1/2", "1/2"], "labels": ["a"]}))
        with pytest.raises(LengthMismatch, match=f"'labels': 1 labels for 2 weights"):
            load_weights(path)

    def test_csv(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("label,weight\na,1/2\nb,-1/2\nc,1\n")
        with pytest.raises(ValueError) as excinfo:
            load_weights(path)
        assert str(excinfo.value) == f"{path}: 'weight' column: weights must be nonnegative"

    def test_allocation_row(self, tmp_path):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps({"entries": [["1/2", "1/2"], ["1/2", "1/4"]]}))
        with pytest.raises(ValueError) as excinfo:
            load_allocation_rows(path)
        assert str(excinfo.value) == (
            f"{path}: row 2 of 'entries': weights must sum to exactly 1, got 3/4"
        )

    @pytest.mark.parametrize(
        "field, prefix",
        [
            ("source", "plan data: 'source': 'weights': "),
            ("target", "plan data: 'target': 'weights': "),
            ("intermediates", "plan data: row 1 of 'intermediates': "),
        ],
    )
    def test_plan_vectors(self, field, prefix):
        data = plan_to_dict(minimal_turnover_plan(REFERENCE))
        if field == "intermediates":
            data[field][0] = ["1/3", "1/3", "1/2"]
        else:
            data[field]["weights"] = ["1/3", "1/3", "1/2"]
        with pytest.raises(ValueError) as excinfo:
            plan_from_dict(data)
        assert str(excinfo.value) == prefix + "weights must sum to exactly 1, got 7/6"


class TestLoadedVectorsStayOnInts:
    """The Fractions of a loaded vector are built only when read, and the
    order questions, the aversion and the exact measures never read them."""

    @pytest.mark.parametrize(
        "name, text",
        [
            ("w.json", json.dumps({"weights": ["1/2", "1/3", "1/6"], "labels": ["a", "b", "c"]})),
            ("w.csv", "label,weight\na,0.25\nb, 1/4\nc,1/2\n"),
        ],
    )
    def test_hot_paths_build_no_fractions(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        w, v = load_weights(path), load_weights(path)
        compare(w, uniform_vector(3))
        compare(w, v)
        aversion_squared(w)
        inequality_aversion_coefficient(w)
        for mid in ("hhi", "hoover", "simpson", "gini_mean_diff"):
            evaluate(get_measure(mid), w)
        assert "weights" not in vars(w) and "weights" not in vars(v)
        assert w.weights == tuple(F(x) for x in w.as_strings())
        assert "weights" in vars(w)

    def test_labeled_plan_round_trips_equal(self):
        # intermediates are read back with the source's labels, as the
        # replay gives them
        source = weight_vector(["1/2", "1/3", "1/6"], ["bonds", "stocks", "cash"])
        targets = (uniform_vector(3), weight_vector(["1/3", "1/2", "1/6"]),
                   weight_vector(["5/12", "1/3", "1/4"]))
        for target in targets:
            plan = rebalance_to(source, target, cost_rate=0.01)
            data = json.loads(json.dumps(plan_to_dict(plan, precision=17)))
            rebuilt = plan_from_dict(data)
            assert rebuilt == plan
            assert all(w.labels == source.labels for w in rebuilt.intermediates)

    def test_rebalancing_builds_no_rows_and_no_intermediate_weights(self, monkeypatch):
        products = []
        real = naivediv.rebalancing.compose

        def recording(steps, n):
            products.append(real(steps, n))
            return products[-1]

        monkeypatch.setattr(naivediv.rebalancing, "compose", recording)
        w = random_weight_vector(random.Random(16), 16)
        plan = rebalance_to(w, uniform_vector(16))
        data = plan_to_dict(plan)
        (product,) = products
        assert plan.practical_turnover is not None
        assert "rows" not in vars(product)
        assert len(plan.intermediates) >= 15
        assert not any("weights" in vars(v) for v in plan.intermediates)
        assert data["intermediates"] == [
            [str(x) for x in v.weights] for v in plan.intermediates
        ]

    def test_labeled_plan_replays_and_validates(self, tmp_path):
        source = weight_vector(["1/2", "1/3", "1/6"], ["bonds", "stocks", "cash"])
        for target in (uniform_vector(3), weight_vector(["1/3", "1/2", "1/6"])):
            plan = rebalance_to(source, target)
            rebuilt = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan, precision=17))))
            assert (rebuilt.source, rebuilt.target) == (plan.source, plan.target)
            assert (rebuilt.steps, rebuilt.trades) == (plan.steps, plan.trades)
            assert [w.weights for w in rebuilt.intermediates] == [
                w.weights for w in plan.intermediates
            ]
        data = plan_to_dict(minimal_turnover_plan(source))
        data["intermediates"][0] = ["1/6", "1/2", "1/3"]
        with pytest.raises(ValueError, match="intermediate does not match its step"):
            plan_from_dict(data)


class TestEntryRenderer:
    """Entries are written from the integer view exactly as str(Fraction)
    writes them."""

    def test_vectors(self):
        rng = random.Random(3)
        vectors = [uniform_vector(1), uniform_vector(7), weight_vector(["0", "1", "0"]),
                   weight_vector(["0", "1/4", "3/4"], ["a", "b", "c"])]
        for n in range(1, 30):
            vectors += [random_weight_vector(rng, n), old_random_weight_vector(rng, n)]
            w = vectors[-2]
            for _ in range(3):
                j, k = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if n > 1:
                    w = apply_transform(w, TTransform(j, k, F(rng.randint(0, 6), 6)))
            vectors.append(w)
        for w in vectors:
            strings = w.as_strings()
            assert strings == tuple(str(x) for x in w.weights)
            assert weights_to_dict(w)["weights"] == list(strings)

    def test_vectors_build_no_fractions(self):
        w = random_weight_vector(random.Random(9), 12)
        w.as_strings()
        weights_to_dict(w)
        assert "weights" not in vars(w)

    def test_matrices(self):
        rng = random.Random(4)
        for n in range(1, 9):
            w = random_weight_vector(rng, n)
            for m in (hlp_witness(w, uniform_vector(n)), uniform_mixing_matrix(n),
                      random_doubly_stochastic(rng.randrange(10**6), n, k=3)):
                assert matrix_to_dict(m)["entries"] == [[str(e) for e in row] for row in m.rows]


class TestWriteText:
    def test_to_stdout(self, capsys):
        write_text("hello", None)
        assert capsys.readouterr().out == "hello\n"

    def test_to_file_adds_trailing_newline(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text("hello", path)
        assert path.read_text() == "hello\n"
