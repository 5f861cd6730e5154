"""End-to-end command-line behavior, run in-process for speed."""

import contextlib
import json
import math
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import huge_denominator_stack
from naivediv.cli import _render_json, _Rows, main
from naivediv.fileio import plan_from_dict
from naivediv.simplex import (
    LorenzCurve,
    lorenz_curve,
    lorenz_dominates,
    random_weight_vector,
    uniform_vector,
    weight_vector,
)


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def reference_file(tmp_path):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"weights": ["1/2", "1/3", "1/6"]}))
    return str(path)


@pytest.fixture
def skewed_file(tmp_path):
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps({"weights": ["7/10", "1/5", "1/10"]}))
    return str(path)


@pytest.fixture
def uniform_file(tmp_path):
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps({"weights": ["1/3", "1/3", "1/3"]}))
    return str(path)


class TestCompare:
    def test_uniform_more_equal(self, reference_file, uniform_file, capsys):
        code, out, _ = run_cli(["compare", uniform_file, reference_file], capsys)
        assert code == 0
        assert "relation    FirstMoreEqual" in out
        assert "preference  FirstPreferred" in out

    def test_incomparable_pair(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"weights": ["1/2", "1/4", "1/4", "0"]}))
        b.write_text(json.dumps({"weights": ["2/5", "2/5", "1/10", "1/10"]}))
        code, out, _ = run_cli(
            ["compare", str(a), str(b), "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["relation"] == "Incomparable"
        assert payload["preference"] == "DependsOnAlternatives"

    def test_lorenz_allows_unequal_lengths(self, tmp_path, capsys):
        two = tmp_path / "two.json"
        three = tmp_path / "three.json"
        two.write_text(json.dumps({"weights": ["1/2", "1/2"]}))
        three.write_text(json.dumps({"weights": ["1/3", "1/3", "1/3"]}))
        code, out, _ = run_cli(
            ["compare", str(two), str(three), "--lorenz"], capsys
        )
        assert code == 0
        assert "EqualUpToPermutation" in out

    def test_lorenz_verdicts_match_the_fraction_curves(self, tmp_path, capsys, monkeypatch):
        # the verdict is read from the integer curves, with no LorenzCurve
        # built; the oracle compares the Fraction curves
        rng = random.Random(13)
        vectors = [
            uniform_vector(2),
            uniform_vector(3),
            weight_vector(["1/2", "1/4", "1/4", "0"]),
            weight_vector(["1/4", "1/4", "1/8", "1/8", "1/8", "1/8"]),
            weight_vector(["1/8", "1/8", "1/4", "1/2"]),
            *(random_weight_vector(rng, n) for n in (3, 4, 4, 6)),
        ]
        paths = []
        for i, w in enumerate(vectors):
            paths.append(tmp_path / f"w{i}.json")
            paths[-1].write_text(json.dumps({"weights": list(w.as_strings())}))
        expected = {
            (i, j): lorenz_dominates(lorenz_curve(a), lorenz_curve(b)).value
            for i, a in enumerate(vectors)
            for j, b in enumerate(vectors)
        }
        assert len(set(expected.values())) == 4

        def refuse(self):
            raise AssertionError("compare --lorenz built a LorenzCurve")

        monkeypatch.setattr(LorenzCurve, "__post_init__", refuse)
        for (i, j), relation in expected.items():
            argv = ["compare", "--lorenz", str(paths[i]), str(paths[j]), "--format", "json"]
            code, out, err = run_cli(argv, capsys)
            assert (code, err) == (0, "")
            assert json.loads(out) == {"relation": relation}

    def test_plain_compare_rejects_unequal_lengths(self, tmp_path, capsys):
        two = tmp_path / "two.json"
        three = tmp_path / "three.json"
        two.write_text(json.dumps({"weights": ["1/2", "1/2"]}))
        three.write_text(json.dumps({"weights": ["1/3", "1/3", "1/3"]}))
        code, _, err = run_cli(["compare", str(two), str(three)], capsys)
        assert code == 1
        assert "naivediv:" in err

    def test_relation_computed_once_per_request(
        self, reference_file, uniform_file, capsys, monkeypatch
    ):
        import naivediv.cli
        import naivediv.preferences
        from naivediv.simplex import compare

        calls = []

        def counting(alpha, beta):
            calls.append(1)
            return compare(alpha, beta)

        monkeypatch.setattr(naivediv.cli, "compare", counting)
        monkeypatch.setattr(naivediv.preferences, "compare", counting)
        code, out, _ = run_cli(["compare", uniform_file, reference_file], capsys)
        assert code == 0
        assert "preference  FirstPreferred" in out
        assert len(calls) == 1


class TestMeasures:
    def test_json_values(self, reference_file, capsys):
        code, out, _ = run_cli(
            ["measures", reference_file, "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["hhi"] == pytest.approx(1 / 12, rel=1e-11)
        assert payload["gini_mean_diff"] == pytest.approx(4 / 27, rel=1e-11)
        assert payload["hoover"] == pytest.approx(1 / 6, rel=1e-11)
        assert set(payload) == {
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
        }

    def test_selected_measures_csv(self, reference_file, capsys):
        code, out, _ = run_cli(
            [
                "measures",
                reference_file,
                "--measure",
                "hhi",
                "--measure",
                "hoover",
                "--format",
                "csv",
                "--precision",
                "6",
            ],
            capsys,
        )
        assert code == 0
        assert out.splitlines() == [
            "measure,value",
            "hhi,0.0833333",
            "hoover,0.166667",
        ]

    def test_unknown_measure(self, reference_file, capsys):
        code, _, err = run_cli(
            ["measures", reference_file, "--measure", "sharpe"], capsys
        )
        assert code == 1
        assert "sharpe" in err


class TestRebalance:
    def test_plan_to_equal(self, reference_file, capsys):
        code, out, _ = run_cli(["rebalance", reference_file], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["steps"] == [{"j": 1, "k": 3, "lambda": "1/2"}]
        assert payload["turnover"] == "1/6"
        assert payload["practical_turnover"] == pytest.approx(1 / 6, rel=1e-11)
        plan = plan_from_dict(payload)  # replay re-verifies every step
        assert plan.turnover == F(1, 6)
        assert plan.practical_turnover == pytest.approx(1 / 6, rel=1e-11)

    def test_plan_with_costs(self, skewed_file, capsys):
        code, out, _ = run_cli(
            ["rebalance", skewed_file, "--cost-rate", "0.01"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["turnover"] == "11/30"
        assert payload["cost"] == pytest.approx(11 / 1500, rel=1e-11)

    def test_plan_to_general_target(self, skewed_file, reference_file, capsys):
        code, out, _ = run_cli(
            ["rebalance", skewed_file, "--target", reference_file], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["turnover"] == "1/5"
        assert payload["practical_turnover"] is None

    def test_impossible_rebalance_exits_2(
        self, reference_file, skewed_file, capsys
    ):
        code, _, err = run_cli(
            ["rebalance", reference_file, "--target", skewed_file], capsys
        )
        assert code == 2
        assert "does not majorize" in err

    @pytest.mark.parametrize("rate", ["nan", "inf", "-1"])
    def test_bad_cost_rate_exits_1(self, skewed_file, rate, capsys):
        code, out, err = run_cli(
            ["rebalance", skewed_file, "--cost-rate", rate], capsys
        )
        assert code == 1
        assert out == ""
        assert "cost rate" in err

    def test_out_file(self, reference_file, tmp_path, capsys):
        out_path = tmp_path / "plan.json"
        code, out, _ = run_cli(
            ["rebalance", reference_file, "--out", str(out_path)], capsys
        )
        assert code == 0
        assert out == ""
        payload = json.loads(out_path.read_text())
        assert payload["turnover"] == "1/6"


class TestLorenz:
    def test_breakpoints_csv(self, reference_file, capsys):
        code, out, _ = run_cli(
            ["lorenz", reference_file, "--format", "csv", "--precision", "6"],
            capsys,
        )
        assert code == 0
        assert out.splitlines() == [
            "t,L(t)",
            "0,0",
            "0.333333,0.166667",
            "0.666667,0.5",
            "1,1",
        ]

    def test_extra_grid_points(self, reference_file, capsys):
        code, out, _ = run_cli(
            ["lorenz", reference_file, "--points", "2", "--format", "json"],
            capsys,
        )
        assert code == 0
        points = {p["t"]: p["value"] for p in json.loads(out)["points"]}
        assert points["1/2"] == "1/3"  # interpolated between breakpoints
        assert points["1"] == "1"


class TestAxioms:
    def test_passing_measure(self, capsys):
        code, out, _ = run_cli(
            ["axioms", "--measure", "hhi", "--samples", "120"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["measure"] == "hhi"
        assert all(
            axiom is None or axiom["passed"]
            for axiom in payload["axioms"].values()
        )

    def test_failing_control(self, capsys):
        code, out, _ = run_cli(
            ["axioms", "--measure", "log_control", "--samples", "120"], capsys
        )
        assert code == 0  # a negative verdict still computed successfully
        payload = json.loads(out)
        ordering = payload["axioms"]["order_respecting"]
        assert ordering["passed"] is False
        assert ordering["counterexamples"]

    @pytest.mark.parametrize("measure", ["entropy", "hhi"])
    def test_one_slot_exits_1_at_once(self, measure):
        # every one-slot allocation is the uniform one, so no sample can be
        # bounded away from it: the command must refuse, not search forever
        done = subprocess.run(
            [sys.executable, "-m", "naivediv.cli", "axioms", "--measure", measure,
             "--n", "1", "--samples", "5"],
            capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 1
        assert done.stderr == "naivediv: axioms need at least two slots\n"

    def test_strict_measure_past_the_gap_rule_exits_1_at_once(self):
        # from n = 41 no strict pair keeps its sorted gaps of 1/(20n): the
        # command must refuse, naming n, not redraw forever
        done = subprocess.run(
            [sys.executable, "-m", "naivediv.cli", "axioms", "--measure", "hhi",
             "--n", "41", "--samples", "5"],
            capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("naivediv: no strict pair at n = 41")


class TestAversion:
    def test_reference_values(self, reference_file, capsys):
        code, out, _ = run_cli(
            ["aversion", reference_file, "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["aversion_squared"] == "1/18"
        assert float(payload["aversion"]) == pytest.approx(
            (1 / 18) ** 0.5, rel=1e-11
        )


class TestSchurCheck:
    def test_entropy_passes(self, reference_file, capsys):
        code, out, _ = run_cli(
            ["schur-check", reference_file, "--measure", "entropy"], capsys
        )
        assert code == 0
        rows = dict(line.split(None, 1) for line in out.splitlines())
        assert rows["passed"].strip() == "true"
        assert rows["symmetric"].strip() == "true"

    @pytest.mark.parametrize("step", ["nan", "inf", "0"])
    def test_bad_step_exits_1(self, reference_file, step, capsys):
        code, out, err = run_cli(
            ["schur-check", reference_file, "--measure", "entropy", "--step", step],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "step" in err

    def test_point_too_close_to_boundary(self, reference_file, capsys):
        code, _, err = run_cli(
            [
                "schur-check",
                reference_file,
                "--measure",
                "entropy",
                "--step",
                "0.3",
            ],
            capsys,
        )
        assert code == 1
        assert "naivediv:" in err


class TestMultiCheck:
    def test_feasible_stack(self, tmp_path, capsys):
        # both rows arise from the same column mixing (average slots 1 and 3):
        # (1/2,1/3,1/6) -> (1/3,1/3,1/3) and (1/4,1/2,1/4) -> (1/4,1/2,1/4)
        target = tmp_path / "target.json"
        source = tmp_path / "source.json"
        target.write_text(
            json.dumps({"entries": [["1/3", "1/3", "1/3"], ["1/4", "1/2", "1/4"]]})
        )
        source.write_text(
            json.dumps({"entries": [["1/2", "1/3", "1/6"], ["1/4", "1/2", "1/4"]]})
        )
        code, out, _ = run_cli(
            ["multi-check", str(target), str(source), "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert payload["witness"]["order"] == 3

    def test_infeasible_stack(self, tmp_path, capsys):
        target = tmp_path / "target.json"
        source = tmp_path / "source.json"
        # the first row must flatten while the second spreads: no single
        # column mixing can do both
        target.write_text(
            json.dumps({"entries": [["1/3", "1/3", "1/3"], ["1/2", "1/3", "1/6"]]})
        )
        source.write_text(
            json.dumps({"entries": [["1/2", "1/3", "1/6"], ["1/3", "1/3", "1/3"]]})
        )
        code, out, _ = run_cli(["multi-check", str(target), str(source)], capsys)
        assert code == 0
        assert "feasible  false" in out

    def test_huge_denominators(self, tmp_path, capsys):
        # ~1,790-bit denominators: the exact verdict, and a witness that
        # carries each source row onto its target
        targets, sources = huge_denominator_stack(1790)
        paths = []
        for name, rows in (("target", targets), ("source", sources)):
            path = tmp_path / f"{name}.json"
            path.write_text(
                json.dumps({"entries": [[str(v) for v in w.weights] for w in rows]})
            )
            paths.append(str(path))
        code, out, _ = run_cli(["multi-check", *paths, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is True
        p = [[F(e) for e in row] for row in payload["witness"]["entries"]]
        for x, y in zip(targets, sources):
            reached = [sum(y.weights[i] * p[i][j] for i in range(3)) for j in range(3)]
            assert tuple(reached) == x.weights

    def test_witness_is_pinned(self, capsys):
        # The witness is the LP's vertex, so it moves with the pivot rule or
        # the tableau values; a change to either shows up here.  On this
        # stack Bland's rule throughout and last-index entering on ties of
        # the most negative reduced cost each reach another witness.
        golden = Path(__file__).parent / "golden"
        code, out, _ = run_cli(
            [
                "multi-check",
                str(golden / "multi_check_targets.json"),
                str(golden / "multi_check_sources.json"),
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        assert out == (golden / "multi_check_expected.json").read_text()

    def test_row_counts_that_differ_name_both_files(self, tmp_path, capsys):
        target = tmp_path / "target.json"
        source = tmp_path / "source.json"
        target.write_text(json.dumps({"entries": [["1/2", "1/2"], ["1", "0"]]}))
        source.write_text(json.dumps({"entries": [["1/2", "1/2"]]}))
        code, out, err = run_cli(["multi-check", str(target), str(source)], capsys)
        assert code == 1
        assert out == ""
        assert err == (
            f"naivediv: {target} vs {source}: "
            "need equally many rows on both sides: 2 rows vs 1\n"
        )

    def test_row_lengths_that_differ_name_both_files(self, tmp_path, capsys):
        target = tmp_path / "target.json"
        source = tmp_path / "source.json"
        target.write_text(json.dumps({"entries": [["1/2", "1/2"], ["1", "0"]]}))
        source.write_text(
            json.dumps({"entries": [["1/2", "1/2", "0"], ["1", "0"]]})
        )
        code, out, err = run_cli(["multi-check", str(target), str(source)], capsys)
        assert code == 1
        assert out == ""
        assert err == (
            f"naivediv: {target} vs {source}: "
            "all rows must share one length: rows of length 2 vs 2, 3\n"
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


class TestHugeDenominators:
    """A file whose entries share a 4,300-digit denominator, the longest
    integer CPython reads from text by default, loads; so every subcommand
    answers it, even where its output integers run past that limit
    (``aversion`` squares the scale, ``lorenz`` multiplies it by
    lcm(n, N))."""

    Q = 2 * 10**4299 + 3
    NUMS = (Q // 2, Q // 3, Q - Q // 2 - Q // 3)

    @pytest.fixture
    def huge_file(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"weights": [f"{a}/{self.Q}" for a in self.NUMS]}))
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "W", "W"],
            ["compare", "--lorenz", "W", "W"],
            ["rebalance", "W"],
            ["measures", "W"],
            ["aversion", "W"],
            ["lorenz", "W", "--points", "7"],
        ],
        ids=" ".join,
    )
    def test_answers(self, huge_file, argv, capsys):
        argv = [huge_file if a == "W" else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out

    def test_aversion_squared_is_exact(self, huge_file, capsys):
        code, out, err = run_cli(["aversion", huge_file, "--format", "json"], capsys)
        assert (code, err) == (0, "")
        got = json.loads(out)["aversion_squared"]
        assert len(got) > 2 * 4300
        with no_int_text_limit():
            expected = sum((F(a, self.Q) - F(1, 3)) ** 2 for a in self.NUMS)
            assert got == str(expected)

    def test_lorenz_points_are_exact(self, huge_file, capsys):
        argv = ["lorenz", huge_file, "--points", "7", "--format", "json"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        points = json.loads(out)["points"]
        assert max(len(p["value"].partition("/")[2]) for p in points) > 4300
        with no_int_text_limit():
            curve = lorenz_curve(weight_vector([F(a, self.Q) for a in self.NUMS]))
            ts = sorted({F(k, 3) for k in range(4)} | {F(i, 7) for i in range(8)})
            assert points == [
                {"t": str(t), "value": str(curve.value_at(t))} for t in ts
            ]


GOLDEN = Path(__file__).parent / "golden"


class TestImportSets:
    """A fresh process loads only the modules its subcommand runs, and never
    scipy, whether started as ``python -m naivediv.cli`` or through
    ``from naivediv.cli import main``.  The loaded modules are read from
    ``-X importtime``, which lists every module a process imports."""

    #: what the order and distance subcommands, and the measure ones, leave out
    NOT_FOR_ORDER = {"lp", "matrices", "measures", "rebalancing"}
    NOT_FOR_MEASURES = {"lp", "matrices", "rebalancing", "preferences"}

    @pytest.mark.parametrize(
        ("argv", "not_loaded"),
        [
            pytest.param(["compare", "W", "W"], NOT_FOR_ORDER, id="compare"),
            pytest.param(["compare", "--lorenz", "W", "W"], NOT_FOR_ORDER, id="compare-lorenz"),
            pytest.param(["lorenz", "W"], NOT_FOR_ORDER, id="lorenz"),
            pytest.param(["aversion", "W"], NOT_FOR_ORDER, id="aversion"),
            pytest.param(["measures", "W"], NOT_FOR_MEASURES, id="measures"),
            pytest.param(["schur-check", "W", "--measure", "hhi"], NOT_FOR_MEASURES, id="schur-check"),
            pytest.param(
                ["axioms", "--measure", "hhi", "--n", "4", "--samples", "5"],
                NOT_FOR_MEASURES,
                id="axioms",
            ),
            pytest.param(["rebalance", "W"], {"lp", "measures", "preferences"}, id="rebalance"),
            pytest.param(
                ["multi-check", str(GOLDEN / "multi_check_targets.json"),
                 str(GOLDEN / "multi_check_sources.json")],
                {"measures", "rebalancing", "preferences"},
                id="multi-check",
            ),
        ],
    )
    @pytest.mark.parametrize("entry", ["module", "main"])
    def test_loads_only_what_it_runs(self, argv, not_loaded, entry, tmp_path):
        path = tmp_path / "eight.json"
        path.write_text(
            json.dumps({"weights": ["1/3", "1/4", "1/8", "1/12", "1/12", "1/24", "1/24", "1/24"]})
        )
        argv = [str(path) if a == "W" else a for a in argv]
        if entry == "module":
            command = ["-m", "naivediv.cli", *argv]
        else:
            command = ["-c", f"import sys; from naivediv.cli import main; sys.exit(main({argv!r}))"]
        done = subprocess.run(
            [sys.executable, "-X", "importtime", *command],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        loaded = {
            line.rsplit("|", 1)[1].strip()
            for line in done.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert {"naivediv.simplex", "naivediv.fileio"} <= loaded
        assert not loaded & {f"naivediv.{m}" for m in not_loaded}
        assert "scipy" not in loaded
        if argv[0] == "rebalance":
            assert json.loads(done.stdout)["practical_turnover"] is not None


class TestCurveOutputIsPinned:
    """Curve and aversion output, byte for byte: exact values at every
    breakpoint and grid point, verdicts across lengths, and a distance over
    denominators of 2,483 bits."""

    @pytest.mark.parametrize(
        ("expected", "argv"),
        [
            ("lorenz_points7.json", ["lorenz", "lorenz_weights.json", "--points", "7", "--format", "json"]),
            ("lorenz_points7.txt", ["lorenz", "lorenz_weights.json", "--points", "7"]),
            (
                "compare_lorenz.json",
                ["compare", "--lorenz", "lorenz_first.json", "lorenz_second.json", "--format", "json"],
            ),
            ("compare_lorenz_flat.txt", ["compare", "--lorenz", "lorenz_flat.json", "lorenz_lumpy.json"]),
            ("aversion.txt", ["aversion", "aversion_weights.json"]),
        ],
    )
    def test_stdout(self, expected, argv, capsys):
        argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / expected).read_text()


#: The golden file extension of each ``--format``.
EXTENSIONS = {"json": "json", "csv": "csv", "table": "txt"}


class TestLorenzTablesArePinned:
    """``naivediv lorenz`` in all three formats, byte for byte, at --points
    0 and 100: on a 300-slot lattice file, where 100 divides 300 and both
    give one table, and on a 64-slot file whose denominators run to 2,628
    bits, where the grid falls between the breakpoints.  The tables are
    rendered from the integer curve, with no LorenzCurve built."""

    CASES = [
        (f"lorenz_lattice300_points0.{ext}", "lorenz_lattice300.json", points, fmt)
        for points in ("0", "100")
        for fmt, ext in EXTENSIONS.items()
    ] + [
        (f"lorenz_wide64_points{points}.{ext}", "lorenz_wide64.json", points, fmt)
        for points in ("0", "100")
        for fmt, ext in EXTENSIONS.items()
    ]

    def run(self, expected, weights, points, fmt, capsys):
        argv = ["lorenz", str(GOLDEN / weights), "--points", points, "--format", fmt]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / expected).read_text()

    @pytest.mark.parametrize(("expected", "weights", "points", "fmt"), CASES)
    def test_stdout(self, expected, weights, points, fmt, capsys):
        self.run(expected, weights, points, fmt, capsys)

    @pytest.mark.parametrize("fmt", EXTENSIONS)
    def test_builds_no_lorenz_curve(self, fmt, capsys, monkeypatch):
        from naivediv.simplex import LorenzCurve

        def refuse(self):
            raise AssertionError("naivediv lorenz built a LorenzCurve")

        monkeypatch.setattr(LorenzCurve, "__post_init__", refuse)
        ext = EXTENSIONS[fmt]
        self.run(f"lorenz_wide64_points100.{ext}", "lorenz_wide64.json", "100", fmt, capsys)


class TestRebalanceOutputIsPinned:
    """Plans byte for byte: every step weight, intermediate, trade and the
    practical turnover, for an equal-weight target, a target whose slot
    order differs from the source's (relabelling swaps), and a source with
    zero slots and ties."""

    @pytest.mark.parametrize(
        ("expected", "argv"),
        [
            (
                "rebalance_equal.json",
                ["rebalance_source.csv", "--cost-rate", "0.0025"],
            ),
            (
                "rebalance_to_target.json",
                ["rebalance_source.csv", "--target", "rebalance_target.json"],
            ),
            ("rebalance_ties_equal.json", ["rebalance_ties.csv"]),
        ],
    )
    def test_stdout(self, expected, argv, capsys):
        argv = [str(GOLDEN / a) if a.endswith((".json", ".csv")) else a for a in argv]
        code, out, err = run_cli(["rebalance", *argv, "--format", "json"], capsys)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / expected).read_text()


#: ``axioms --format json`` stdout for every measure at n = 4 and 8, keyed
#: "<measure> n=<n>", with --samples 30 --seed 42.
AXIOMS_GOLDEN = json.loads((GOLDEN / "axioms_expected.json").read_text())


class TestAxiomOutputIsPinned:
    """Axiom reports byte for byte: every verdict and counterexample pins
    the sampler's vectors and pairs, and the random stream they are drawn
    from."""

    def test_covers_every_measure_at_both_sizes(self):
        from naivediv.measures import LOG_CONTROL, registry

        ids = [m.id for m in registry()] + [LOG_CONTROL.id]
        assert sorted(AXIOMS_GOLDEN) == sorted(f"{i} n={n}" for i in ids for n in (4, 8))

    @pytest.mark.parametrize("case", sorted(AXIOMS_GOLDEN))
    def test_stdout(self, case, capsys):
        measure, n = case.rsplit(" n=", 1)
        argv = ["axioms", "--measure", measure, "--n", n, "--samples", "30",
                "--seed", "42", "--format", "json"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out == AXIOMS_GOLDEN[case]


class TestMalformedFiles:
    """A field of the wrong JSON type exits 1 naming the file and the field;
    it is never read as some other allocation or left as a traceback."""

    @pytest.mark.parametrize("command", ["measures", "compare"])
    def test_string_weights(self, tmp_path, command, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"weights": "10"}))  # not the allocation (1, 0)
        argv = [command, str(path)] + ([str(path)] if command == "compare" else [])
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert str(path) in err and "'weights' must be a JSON array" in err

    @pytest.mark.parametrize("labels", ["ab", 5])
    def test_labels_not_an_array(self, tmp_path, labels, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"weights": ["1/2", "1/2"], "labels": labels}))
        code, _, err = run_cli(["measures", str(path)], capsys)
        assert code == 1
        assert str(path) in err and "'labels' must be a JSON array" in err

    @pytest.mark.parametrize(
        "content, field",
        [
            (json.dumps({"entries": 5}), "'entries' must be a JSON array"),
            (json.dumps({"entries": [5]}), "row 1 of 'entries' must be a JSON array"),
            ("7", "needs a JSON object"),
        ],
    )
    def test_allocation_stack_shapes(self, tmp_path, content, field, capsys):
        bad = tmp_path / "rows.json"
        bad.write_text(content)
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"entries": [["1/3", "1/3", "1/3"]]}))
        code, _, err = run_cli(["multi-check", str(bad), str(good)], capsys)
        assert code == 1
        assert str(bad) in err and field in err

    def test_json_vector_names_file_and_field(self, tmp_path, reference_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"weights": ["1/2", "1/3"]}))
        code, out, err = run_cli(["compare", str(bad), reference_file], capsys)
        assert (code, out) == (1, "")
        assert err == f"naivediv: {bad}: 'weights': weights must sum to exactly 1, got 5/6\n"

    def test_json_labels_name_file_and_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"weights": ["1/2", "1/2"], "labels": ["x", "x"]}))
        code, _, err = run_cli(["measures", str(bad)], capsys)
        assert code == 1
        assert err == f"naivediv: {bad}: 'labels': labels must be unique\n"

    def test_csv_vector_names_file_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,weight\na,1/2\nb,1/4\n")
        code, _, err = run_cli(["aversion", str(bad)], capsys)
        assert code == 1
        assert err == (
            f"naivediv: {bad}: 'weight' column: weights must sum to exactly 1, got 3/4\n"
        )

    def test_allocation_row_names_file_and_row(self, tmp_path, capsys):
        bad = tmp_path / "rows.json"
        bad.write_text(json.dumps({"entries": [["1/3", "2/3"], ["1/2", "1/3"]]}))
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"entries": [["1/2", "1/2"], ["1/2", "1/2"]]}))
        code, _, err = run_cli(["multi-check", str(bad), str(good)], capsys)
        assert code == 1
        assert err == (
            f"naivediv: {bad}: row 2 of 'entries': weights must sum to exactly 1, got 5/6\n"
        )

    def test_negative_lorenz_points(self, reference_file, capsys):
        code, out, err = run_cli(["lorenz", reference_file, "--points", "-3"], capsys)
        assert code == 1
        assert out == ""
        assert "--points" in err


class TestUsageAndDeterminism:
    def test_missing_subcommand(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["measures", "/no/such/file.json"], capsys)
        assert code == 1

    def test_bad_precision(self, reference_file, capsys):
        code, _, _ = run_cli(
            ["measures", reference_file, "--precision", "99"], capsys
        )
        assert code == 1

    def test_flags_accepted_before_subcommand(self, reference_file, capsys):
        code, out, _ = run_cli(
            ["--format", "csv", "measures", reference_file, "--measure", "hhi"],
            capsys,
        )
        assert code == 0
        assert out.startswith("measure,value")

    def test_byte_identical_reruns(self, reference_file, capsys):
        argv = ["axioms", "--measure", "gini_mean_diff", "--samples", "80"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_installed_entry_point(self, reference_file):
        result = subprocess.run(
            [sys.executable, "-m", "naivediv.cli", "aversion", reference_file],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "aversion_squared  1/18" in result.stdout


class TestParserReuse:
    def test_parser_is_built_once_per_process(self, reference_file, capsys, monkeypatch):
        import naivediv.cli

        builds = []

        class CountingParser(naivediv.cli._CliParser):
            def __init__(self, *args, **kwargs):
                if kwargs.get("prog") == "naivediv":
                    builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(naivediv.cli, "_CliParser", CountingParser)
        naivediv.cli._build_parser.cache_clear()
        try:
            for argv in (
                ["aversion", reference_file],
                ["measures", reference_file, "--format", "json"],
                ["compare", reference_file, reference_file],
                ["measures", reference_file, "--bad-flag"],
            ):
                run_cli(argv, capsys)
        finally:
            naivediv.cli._build_parser.cache_clear()
        assert len(builds) == 1

    def test_options_do_not_leak_into_the_next_call(
        self, reference_file, uniform_file, tmp_path, capsys
    ):
        argv = ["compare", uniform_file, reference_file]
        _, table, _ = run_cli(argv, capsys)
        assert table.startswith("relation    FirstMoreEqual")
        _, as_json, _ = run_cli(argv + ["--format", "json", "--precision", "3"], capsys)
        assert json.loads(as_json)["relation"] == "FirstMoreEqual"
        _, again, _ = run_cli(argv, capsys)
        assert again == table

        out = tmp_path / "out.txt"
        run_cli(argv + ["--out", str(out)], capsys)
        _, printed, _ = run_cli(argv, capsys)
        assert printed == table

        run_cli(["measures", reference_file, "--measure", "hhi"], capsys)
        _, every, _ = run_cli(["measures", reference_file, "--format", "json"], capsys)
        assert len(json.loads(every)) == 11


def _refuse_constant(name):
    raise AssertionError(f"non-standard JSON token {name}")


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON: ``Infinity``, ``-Infinity`` and
    ``NaN`` are refused."""
    return json.loads(text, parse_constant=_refuse_constant)


#: Every JSON file under golden/, input or expected output, and every
#: pinned ``axioms`` output.
GOLDEN_JSON = {path.name: path.read_text() for path in sorted(GOLDEN.glob("*.json"))}
GOLDEN_JSON.update({f"axioms {case}": out for case, out in AXIOMS_GOLDEN.items()})

#: Characters that the string encoder escapes or must pass through: quotes,
#: backslashes, control characters, non-ASCII (also past the BMP) and the
#: ``%`` of the row templates.
TRICKY = st.text(st.sampled_from('a/1 %s%d"\\\n\t\x00\x1f\x7fé€😀') | st.characters(), max_size=6)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | TRICKY
)


@st.composite
def shared_key_rows(draw, values):
    """A list of objects that all have the same keys in the same order."""
    keys = draw(st.lists(TRICKY, min_size=1, max_size=3, unique=True))
    return draw(st.lists(st.fixed_dictionaries({k: values for k in keys}), max_size=4))


PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(TRICKY, inner, max_size=4)
        | shared_key_rows(SCALARS)
        | shared_key_rows(inner)
        | st.lists(st.dictionaries(TRICKY, SCALARS, max_size=2), max_size=3)
    ),
    max_leaves=25,
)


class TestJsonWriter:
    """``_render_json`` writes what ``json.dumps(..., indent=2)`` writes,
    byte for byte, except for non-finite floats, which become the strings
    that csv and table print."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
    def test_matches_json_dumps_on_the_goldens(self, name):
        payload = json.loads(GOLDEN_JSON[name])
        assert _render_json(payload) == json.dumps(payload, indent=2)

    @given(PAYLOADS)
    def test_matches_json_dumps(self, payload):
        assert _render_json(payload) == json.dumps(payload, indent=2)

    @given(st.lists(SCALARS, max_size=5), st.lists(SCALARS, max_size=5))
    def test_columns_match_the_list_of_dicts(self, first, second):
        rows = list(zip(first, second))
        columns = _Rows(("t", "%s"), ([a for a, _ in rows], [b for _, b in rows]))
        dicts = [{"t": a, "%s": b} for a, b in rows]
        assert _render_json({"points": columns}) == json.dumps({"points": dicts}, indent=2)

    def test_matches_json_dumps_on_a_wide_lorenz(self, tmp_path, capsys):
        rng = random.Random(10_000)
        counts = [rng.randrange(1, 1000) for _ in range(10_000)]
        total = sum(counts)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"weights": [f"{c}/{total}" for c in counts]}))
        code, out, err = run_cli(["lorenz", str(path), "--points", "7", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        points = json.loads(out)["points"]
        assert len(points) == 10_000 + 1 + 6
        assert out == json.dumps({"points": points}, indent=2) + "\n"

    @pytest.mark.parametrize(
        ("value", "text"),
        [(math.inf, '"inf"'), (-math.inf, '"-inf"'), (math.nan, '"nan"'), (-math.nan, '"nan"')],
    )
    def test_non_finite_floats_are_strings(self, value, text):
        assert _render_json([value]) == f"[\n  {text}\n]"
        assert strict_json(_render_json({"x": value}))["x"] == text.strip('"')

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "lorenz_first.json", "rebalance_target.json"],
            ["compare", "--lorenz", "lorenz_first.json", "lorenz_second.json"],
            ["lorenz", "lorenz_weights.json", "--points", "7"],
            ["measures", "lorenz_weights.json"],
            ["aversion", "aversion_weights.json"],
            ["schur-check", "rebalance_target.json", "--measure", "entropy"],
            ["axioms", "--measure", "log_control", "--n", "4", "--samples", "30"],
            ["rebalance", "rebalance_source.csv", "--target", "rebalance_target.json"],
            ["rebalance", "rebalance_ties.csv"],
            ["multi-check", "multi_check_targets.json", "multi_check_sources.json"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_every_subcommand_writes_standard_json(self, argv, capsys):
        argv = [str(GOLDEN / a) if a.endswith((".json", ".csv")) else a for a in argv]
        code, out, err = run_cli([*argv, "--format", "json"], capsys)
        assert (code, err) == (0, "")
        strict_json(out)

    def test_an_infinite_measure_is_written_as_a_string(self, tmp_path, capsys):
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"weights": ["1/2", "1/2", "0"]}))
        argv = ["measures", str(path), "--measure", "log_control"]
        code, out, err = run_cli([*argv, "--format", "json"], capsys)
        assert (code, err) == (0, "")
        assert strict_json(out) == {"log_control": "inf"}
        _, csv, _ = run_cli([*argv, "--format", "csv"], capsys)
        assert csv == "measure,value\nlog_control,inf\n"
        code, out, _ = run_cli(["measures", str(path), "--format", "json"], capsys)
        assert code == 0
        strict_json(out)
