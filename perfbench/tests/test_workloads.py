"""Workload inputs are the benchmark's own, deterministic in the seed, and
match the records kept in workloads.json and BENCHMARK.json."""

import json
from pathlib import Path

import pytest

from perfbench import run, workloads

ROOT = Path(__file__).resolve().parents[2]
RECORDS = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(directory: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(directory.glob("*.json"))}


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_record_matches_generated_inputs(name, program, tmp_path):
    work = workloads.BUILDERS[name](RECORDS["record_seed"], tmp_path, program)
    record = RECORDS["workloads"][name]
    assert work.record == {key: record[key] for key in work.record}
    cli_mix: dict[str, int] = {}
    for op in sorted(work.cli, key=lambda op: op.kind):
        cli_mix[op.kind] = cli_mix.get(op.kind, 0) + 1
    assert cli_mix == record["subprocess_ops_per_cycle"]
    assert (record["loop"], record["callers"]) == ("closed", 1)


def test_benchmark_json_lists_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(RECORDS["workloads"])
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_inputs_depend_on_the_seed_only(name, program, tmp_path):
    first, again, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (first, again, other):
        d.mkdir()
    workloads.BUILDERS[name](5, first, program)
    workloads.BUILDERS[name](5, again, program)
    workloads.BUILDERS[name](RECORDS["held_out_seed"], other, program)
    assert _files(first) == _files(again)
    assert _files(first) != _files(other)


def test_inputs_do_not_use_the_library_samplers(program, tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("benchmark inputs must not come from the library sampler")

    for module in (program.simplex, program.matrices, program.measures, program.package):
        for attr in ("random_weight_vector", "random_majorization_pair", "random_doubly_stochastic"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, forbidden)
    for name, build in workloads.BUILDERS.items():
        (tmp_path / name).mkdir()
        build(1, tmp_path / name, program)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_small_workloads_answer_correctly(name, program, tmp_path):
    work = workloads.BUILDERS[name](3, tmp_path, program, small=True)
    runner = run.Runner(program)
    for op in work.cycle:
        runner.in_process(op)
    runner.verify()
    assert runner.failures == []
    assert runner.attempted == len(work.cycle)
