"""The runner counts wrong answers, errors and non-zero exits as failures,
and refuses to run without the program's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from perfbench import run, workloads

ROOT = Path(__file__).resolve().parents[2]


def _compare_op(program, tmp_path):
    work = workloads.order_wide(1, tmp_path, program, small=True)
    return next(op for op in work.cycle if op.kind == "compare/book")


def _fake_program(program, main):
    return SimpleNamespace(**{**vars(program), "cli": SimpleNamespace(main=main)})


def test_right_answers_pass(program, tmp_path):
    runner = run.Runner(program)
    runner.in_process(_compare_op(program, tmp_path))
    runner.verify()
    assert (runner.attempted, runner.failed) == (1, 0)


def test_wrong_answer_is_a_failure(program, tmp_path):
    op = _compare_op(program, tmp_path)

    def wrong(argv):
        print(json.dumps({"relation": "Incomparable", "preference": "Indifferent"}))
        return 0

    runner = run.Runner(_fake_program(program, wrong))
    for _ in range(3):
        runner.in_process(op)
    assert runner.failed == 0
    runner.verify()
    assert (runner.attempted, runner.failed) == (3, 3)


def test_errors_and_exit_codes_are_failures(program, tmp_path):
    op = _compare_op(program, tmp_path)

    def raises(argv):
        raise ValueError("boom")

    def exits(argv):
        return 1

    for main in (raises, exits):
        runner = run.Runner(_fake_program(program, main))
        runner.in_process(op)
        runner.verify()
        assert (runner.attempted, runner.failed) == (1, 1)


def test_subprocess_answers_are_checked(program, tmp_path):
    op = _compare_op(program, tmp_path)
    runner = run.Runner(program)
    runner.fresh_process(op)
    broken = workloads.Op(op.key + "-broken", op.kind, lambda text: "wrong", argv=op.argv)
    runner.fresh_process(broken)
    runner.verify()
    assert (runner.attempted, runner.failed) == (2, 1)


def test_drive_wraps_the_cycle_and_mixes_in_subprocesses(program, tmp_path):
    work = workloads.order_wide(1, tmp_path, program, small=True)
    runner = run.Runner(program)
    latencies, walls, ran, _ = runner.drive(work.cycle, work.cli[:1], 0.0, len(work.cycle) + 2, 2)
    assert ran == work.cycle + work.cycle[:2]
    assert len(latencies) == len(ran)
    assert len(walls) == 2
    runner.verify()
    assert runner.failures == []


def test_drive_gives_subprocesses_their_share(program, tmp_path):
    work = workloads.order_wide(1, tmp_path, program, small=True)
    runner = run.Runner(program)
    latencies, walls, _, spent = runner.drive(work.cycle, work.cli, 2.0, 1, 1)
    assert spent >= 2.0
    assert run.CLI_SHARE * spent - max(walls) <= sum(walls) <= run.CLI_SHARE * spent + max(walls)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rebalance", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
