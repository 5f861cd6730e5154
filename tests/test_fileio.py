"""Weight, matrix, and plan file formats."""

import json
from fractions import Fraction as F

import pytest

from naivediv.errors import DimensionMismatch
from naivediv.fileio import (
    format_float,
    json_float,
    load_allocation_rows,
    load_square_matrix,
    load_weights,
    matrix_to_dict,
    parse_rational,
    plan_from_dict,
    plan_to_dict,
    weights_from_dict,
    weights_to_dict,
    write_text,
)
from naivediv.matrices import uniform_mixing_matrix
from naivediv.rebalancing import minimal_turnover_plan, rebalance_to
from naivediv.simplex import WeightVector, uniform_vector, weight_vector

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

    def test_load_csv(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("label,weight\na, 1/2\nb, 0.5\n")
        w = load_weights(path)
        assert w.weights == (F(1, 2), F(1, 2))
        assert w.labels == ("a", "b")

    def test_csv_needs_header(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("a,1/2\nb,1/2\n")
        with pytest.raises(ValueError):
            load_weights(path)

    def test_csv_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("label,weight\na,1/2,extra\n")
        with pytest.raises(ValueError):
            load_weights(path)


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        m = uniform_mixing_matrix(3)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_dict(m)))
        assert load_square_matrix(path) == m

    def test_declared_order_mismatch(self, tmp_path):
        data = matrix_to_dict(uniform_mixing_matrix(2))
        data["order"] = 3
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_square_matrix(path)

    def test_missing_entries(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"order": 2}))
        with pytest.raises(ValueError):
            load_square_matrix(path)

    def test_non_square(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"entries": [["1/2", "1/2"]]}))
        with pytest.raises(DimensionMismatch):
            load_square_matrix(path)

    @pytest.mark.parametrize(
        "content",
        ["7", json.dumps({"entries": 5}), json.dumps({"entries": [["1"], 1]})],
    )
    def test_wrong_json_shapes(self, tmp_path, content):
        path = tmp_path / "m.json"
        path.write_text(content)
        with pytest.raises(ValueError, match="JSON"):
            load_square_matrix(path)


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

    def test_source_labels_name_the_trades(self):
        source = weight_vector(["1/2", "1/3", "1/6"], ["bonds", "stocks", "cash"])
        data = plan_to_dict(minimal_turnover_plan(source))
        assert [t["label"] for t in data["trades"]] == ["bonds", "stocks", "cash"]
        data["trades"][0]["label"] = "w1"
        with pytest.raises(ValueError):
            plan_from_dict(data)


class TestWriteText:
    def test_to_stdout(self, capsys):
        write_text("hello", None)
        assert capsys.readouterr().out == "hello\n"

    def test_to_file_adds_trailing_newline(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text("hello", path)
        assert path.read_text() == "hello\n"
