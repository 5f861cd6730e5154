#!/usr/bin/env python3
"""Benchmark naivediv end to end (``--trace 0``) or layer by layer (``--trace 1``).

Usage, from the repository root:

    python3 perfbench/run.py --workload order-wide --seed 1 --seconds 28 --trace 0

The load is a closed loop with one caller: one operation in flight at a
time, in process through ``naivediv.cli.main`` (or the library where no
subcommand exists), with ``naivediv`` subprocesses mixed in one at a
time.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; progress goes to
standard error.  The program is loaded from ``src/`` next to this
directory, and the run fails when that source tree is missing.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import inputs, tracing, workloads  # noqa: E402

#: Scratch space inside the checkout; every run removes its own directory.
WORK = ROOT / ".perfbench"
#: Share of ``--seconds`` for the untraced pass of a traced run; the traced
#: pass repeats the same operations.
TRACE_PASS_SHARE = 0.3
#: Enough operations for ten samples beyond the 90th percentile.
MIN_OPS = 100
MIN_CLI_SAMPLES = 10
#: Share of the measured time given to fresh subprocesses.
CLI_SHARE = 0.3
#: Set-ups per run (this process plus fresh child processes); the median is reported.
SETUPS = 5
IMPORT_SAMPLES = 5
CLI_TIMEOUT_S = 120
#: Sizes n for the growth exponents; each is measured at n and 2n.
GROWTH_N = {
    "simplex.compare": 2000,
    "simplex.lorenz_dominates": 200,
    "measures.evaluate.gini_mean_diff": 200,
    "rebalancing.rebalance_to": 8,
}
GROWTH_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "cli_p50_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def _self_ms(name):
    return lambda agg, t, ops: agg[name][0] * 1000 / ops


def _calls(name):
    return lambda agg, t, ops: agg[name][1] / ops


def _per_call(total, name):
    return lambda agg, t, ops: t.totals[total] / agg[name][1] if agg[name][1] else 0.0


def _maximum(key):
    return lambda agg, t, ops: t.maxima[key]


#: name -> (unit, how it is computed from the aggregated spans ``agg``, the
#: tracer ``t`` and the number of operations in the traced pass).  Metrics
#: that are not span aggregates (spawn, import, overhead, growth) are
#: filled in by ``traced_run``.
PER_LAYER = {
    "simplex.compare.self_ms": ("ms", _self_ms("simplex.compare")),
    "simplex.compare.calls": ("count", _calls("simplex.compare")),
    "simplex.majorizes.self_ms": ("ms", _self_ms("simplex.majorizes")),
    "simplex.majorizes.calls": ("count", _calls("simplex.majorizes")),
    "simplex.lorenz_curve.self_ms": ("ms", _self_ms("simplex.lorenz_curve")),
    "simplex.lorenz_dominates.self_ms": ("ms", _self_ms("simplex.lorenz_dominates")),
    "simplex.input_n": ("count", _maximum("simplex.input_n")),
    "simplex.input_den_bits": ("bits", _maximum("simplex.input_den_bits")),
    "simplex.random_weight_vector.self_ms": ("ms", _self_ms("simplex.random_weight_vector")),
    "simplex.random_weight_vector.calls": ("count", _calls("simplex.random_weight_vector")),
    "matrices.random_majorization_pair.self_ms": ("ms", _self_ms("matrices.random_majorization_pair")),
    "matrices.random_strict_majorization_pair.self_ms": ("ms", _self_ms("matrices.random_strict_majorization_pair")),
    "measures.evaluate.self_ms": ("ms", _self_ms("measures.evaluate")),
    "measures.evaluate.calls": ("count", _calls("measures.evaluate")),
    "measures.evaluate.gini_mean_diff.self_ms": ("ms", _self_ms("measures.evaluate.gini_mean_diff")),
    "measures.evaluate.hhi.self_ms": ("ms", _self_ms("measures.evaluate.hhi")),
    "measures.evaluate.simpson.self_ms": ("ms", _self_ms("measures.evaluate.simpson")),
    "measures.evaluate.hoover.self_ms": ("ms", _self_ms("measures.evaluate.hoover")),
    "measures.evaluate.float.self_ms": ("ms", _self_ms("measures.evaluate.float")),
    "measures.axiom_suite.self_ms": ("ms", _self_ms("measures.axiom_suite")),
    "measures.schur_ostrowski_report.self_ms": ("ms", _self_ms("measures.schur_ostrowski_report")),
    "fileio.load_weights.self_ms": ("ms", _self_ms("fileio.load_weights")),
    "fileio.load_weights.calls": ("count", _calls("fileio.load_weights")),
    "fileio.load_weights.bytes": ("B", lambda agg, t, ops: t.totals["fileio.load_weights.bytes"] / ops),
    "fileio.load_allocation_rows.self_ms": ("ms", _self_ms("fileio.load_allocation_rows")),
    "fileio.plan_to_dict.self_ms": ("ms", _self_ms("fileio.plan_to_dict")),
    "fileio.plan_from_dict.self_ms": ("ms", _self_ms("fileio.plan_from_dict")),
    "lp.solve_equality_feasibility.self_ms": ("ms", _self_ms("lp.solve_equality_feasibility")),
    "lp.solve_equality_feasibility.calls": ("count", _calls("lp.solve_equality_feasibility")),
    "lp.tableau_cells": ("count", _per_call("lp.tableau_cells", "lp.solve_equality_feasibility")),
    "lp.feasible_frac": ("ratio", _per_call("lp.feasible", "lp.solve_equality_feasibility")),
    "matrices.multivariate_feasible.self_ms": ("ms", _self_ms("matrices.multivariate_feasible")),
    "matrices.d_stochastic_witness.self_ms": ("ms", _self_ms("matrices.d_stochastic_witness")),
    "matrices.witness_den_bits": ("bits", _maximum("matrices.witness_den_bits")),
    "matrices.muirhead_decompose.self_ms": ("ms", _self_ms("matrices.muirhead_decompose")),
    "matrices.muirhead_decompose.steps": ("count", _per_call("matrices.muirhead_decompose.steps", "matrices.muirhead_decompose")),
    "matrices.t_to_matrix.calls": ("count", _calls("matrices.t_to_matrix")),
    "matrices.apply_transform.self_ms": ("ms", _self_ms("matrices.apply_transform")),
    "matrices.apply_transform.calls": ("count", _calls("matrices.apply_transform")),
    "preferences.naive_prefer.self_ms": ("ms", _self_ms("preferences.naive_prefer")),
    "preferences.naive_prefer.calls": ("count", _calls("preferences.naive_prefer")),
    "preferences.relative_naive_prefer.self_ms": ("ms", _self_ms("preferences.relative_naive_prefer")),
    "preferences.relative_naive_prefer.calls": ("count", _calls("preferences.relative_naive_prefer")),
    "preferences.aversion_squared.self_ms": ("ms", _self_ms("preferences.aversion_squared")),
    "rebalancing.rebalance_to.self_ms": ("ms", _self_ms("rebalancing.rebalance_to")),
    "rebalancing.min_permutation_distance_squared.self_ms": ("ms", _self_ms("rebalancing.min_permutation_distance_squared")),
    "rebalancing.min_permutation_distance_squared.calls": ("count", _calls("rebalancing.min_permutation_distance_squared")),
    "rebalancing.float_assignment_frac": ("ratio", None),
    "rebalancing.assignment_den_bits": ("bits", _maximum("rebalancing.assignment_den_bits")),
    "cli.main.self_ms": ("ms", _self_ms("cli.main")),
    "cli.spawn_ms": ("ms", None),
    "cli.import_ms": ("ms", None),
    "trace.overhead_frac": ("ratio", None),
    **{f"{name}.growth": ("log2", None) for name in GROWTH_N},
}


# --------------------------------------------------------------------------
# Loading the program and running one operation.
# --------------------------------------------------------------------------


def require_sources() -> None:
    if not (ROOT / "src" / "naivediv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no naivediv sources in {ROOT / 'src'}")


def load_program() -> SimpleNamespace:
    """Import naivediv from ``src/`` of this checkout, never from elsewhere."""
    require_sources()
    src = ROOT / "src"
    package_dir = src / "naivediv"
    sys.path.insert(0, str(src))
    package = importlib.import_module("naivediv")
    if Path(package.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"perfbench: imported naivediv from {package.__file__}, not {src}")
    modules = {name: importlib.import_module(f"naivediv.{name}") for name in tracing.TRACED_MODULES}
    return SimpleNamespace(package=package, **modules)


class Runner:
    """Runs operations and counts failures.

    Answers are checked only in ``verify``, after the timed loop: a check
    allocates heavily, and its garbage would otherwise be collected during,
    and charged to, the operations that follow it.  Each distinct answer of
    an operation is checked once.
    """

    def __init__(self, program) -> None:
        self.program = program
        self.outputs: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._ops: dict[str, object] = {}
        self._answers: dict[str, list[list]] = {}
        self.env = dict(os.environ)
        paths = [str(ROOT / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)

    def _fail(self, key: str, error: str, count: int) -> None:
        self.failed += count
        self.failures.append(f"{key}: {error}")
        if len(self.failures) <= 5:
            print(f"perfbench: FAILED {key}: {error}", file=sys.stderr)

    def _record(self, op, result, error) -> None:
        self.attempted += 1
        if error is not None:
            self._fail(op.key, error, 1)
            return
        self._ops[op.key] = op
        answers = self._answers.setdefault(op.key, [])
        for answer in answers:
            if answer[0] == result:
                answer[1] += 1
                return
        answers.append([result, 1])

    def verify(self) -> None:
        """Check every distinct answer recorded so far."""
        for key, answers in self._answers.items():
            for result, count in answers:
                error = self._ops[key].check(result)
                if error is not None:
                    self._fail(key, error, count)
        self._answers.clear()

    def in_process(self, op, count: bool = True) -> float:
        """Run one operation in this process; returns its latency in seconds."""
        out, err = io.StringIO(), io.StringIO()
        error = result = None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if op.argv is not None:
                    code = self.program.cli.main(op.argv)
                    result = out.getvalue()
                else:
                    code = 0
                    result = op.call(self.program, self.outputs)
        except (Exception, SystemExit) as exc:  # a raising operation is a failed one
            code, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if error is None and code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[:200]}"
        if error is None:
            self.outputs[op.key] = result
        if count:
            self._record(op, result, error)
        return elapsed

    def fresh_process(self, op) -> float:
        """Run one operation as a fresh ``naivediv`` process; returns its wall time."""
        command = [sys.executable, "-m", "naivediv.cli", *op.argv]
        error = result = None
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=CLI_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            error = f"timed out after {CLI_TIMEOUT_S} s"
        wall = time.perf_counter() - start
        if error is None:
            result = proc.stdout
            if proc.returncode != 0:
                error = f"exit code {proc.returncode}: {proc.stderr.strip()[:200]}"
        self._record(op, result, error)
        return wall

    def drive(self, cycle, cli, budget: float, min_ops: int, min_cli: int, tracer=None, side=()):
        """Run the cycle's operations in order, wrapping round, with the
        ``cli`` operations run as subprocesses in turn whenever they have had
        less than CLI_SHARE of the time so far, until the budget is spent
        and both sample counts are reached.  ``side`` holds (seconds, task)
        pairs: each task runs once the run is that far in, between two
        operations, and its time counts toward the budget only.

        Returns the in-process latencies, the subprocess wall times, the
        in-process operations in the order they ran, and the time spent.
        """
        latencies: list[float] = []
        walls: list[float] = []
        ran: list = []
        side = sorted(side, key=lambda item: item[0])
        side_time = 0.0
        start = time.perf_counter()
        while True:
            spent = time.perf_counter() - start
            if side and spent >= side[0][0]:
                side.pop(0)[1]()
                side_time += time.perf_counter() - start - spent
                continue
            over = spent >= budget
            if over and not side and len(latencies) >= min_ops and len(walls) >= min_cli:
                return latencies, walls, ran, spent
            if cli and (sum(walls) < CLI_SHARE * (spent - side_time) or (over and len(walls) < min_cli)):
                walls.append(self.fresh_process(cli[len(walls) % len(cli)]))
            else:
                op = cycle[len(ran) % len(cycle)]
                if tracer is not None:
                    tracer.op_id = len(ran)
                latencies.append(self.in_process(op))
                ran.append(op)


# --------------------------------------------------------------------------
# Set-up, measured run and traced run.
# --------------------------------------------------------------------------


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program, build the inputs and warm up every operation kind.

    The warm-up runs the first operation of each kind once, on a small
    instance of the same workload, so lazy imports and first-call costs
    are paid here and not in the timed loop.
    """
    program = load_program()
    build = workloads.BUILDERS[workload]
    work = build(seed, workdir, program)
    warm_dir = workdir / "warm-up"
    warm_dir.mkdir()
    small = build(seed, warm_dir, program, small=True)
    runner = Runner(program)
    seen = set()
    for op in small.cycle:
        if op.kind not in seen:
            seen.add(op.kind)
            runner.in_process(op, count=False)
    return program, work


def child_setup(args) -> float:
    """Set-up time of a fresh process doing the whole set-up again."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0", "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=CLI_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measured_run(args, program, work, setup_s: float) -> tuple[Runner, dict]:
    """The end-to-end metrics.  The repeated set-ups are spread through the
    run, so their median sees the machine over the whole run, not at one
    moment."""
    runner = Runner(program)
    setups = [setup_s]
    repeats = SETUPS - 1
    side = [((k + 0.5) * args.seconds / repeats, lambda: setups.append(child_setup(args))) for k in range(repeats)]
    latencies, walls, _, spent = runner.drive(
        work.cycle, work.cli, args.seconds, MIN_OPS, MIN_CLI_SAMPLES, side=side
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.verify()
    print(
        f"perfbench: {args.workload}: {len(latencies)} in-process ops and "
        f"{len(walls)} subprocess ops in {spent:.1f} s, set-ups {[round(s, 3) for s in setups]}",
        file=sys.stderr,
    )
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1000,
        "ops_per_s": len(latencies) / sum(latencies),
        "cli_p50_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": (runner.attempted - runner.failed) / runner.attempted,
    }
    return runner, {name: (values[name], unit) for name, unit in END_TO_END.items()}


def import_ms(runner: Runner) -> float:
    """Median time a fresh interpreter spends in ``import naivediv.cli``."""
    code = "import time; t = time.perf_counter(); import naivediv.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=runner.env, cwd=ROOT, timeout=CLI_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout) * 1000)
    return statistics.median(times)


def growth(workload: str, seed: int, program) -> dict[str, float]:
    """log2 of the self-time ratio of each growth function between n and 2n,
    on inputs from the workload's own generator."""
    make = workloads.vector_generator(workload)
    vec = program.simplex.WeightVector
    calls = {
        "simplex.compare": lambda a, b: program.simplex.compare(a, b),
        "simplex.lorenz_dominates": lambda a, b: program.simplex.lorenz_dominates(
            program.simplex.lorenz_curve(a), program.simplex.lorenz_curve(b)
        ),
        "measures.evaluate.gini_mean_diff": lambda a, b: program.measures.evaluate(
            program.measures.get_measure("gini_mean_diff"), a
        ),
        "rebalancing.rebalance_to": lambda a, b: program.rebalancing.rebalance_to(
            a, program.simplex.uniform_vector(a.n)
        ),
    }
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, program.package)
    out = {}
    try:
        for name, base in GROWTH_N.items():
            medians = []
            for n in (base, 2 * base):
                rng = inputs.rng_for(workload, seed, f"growth-{name}-{n}")
                a, b = vec(tuple(make(rng, n))), vec(tuple(make(rng, n)))
                times = []
                for _ in range(GROWTH_REPEATS):
                    tracer.op_id += 1
                    calls[name](a, b)
                    times.append(tracer.aggregate({tracer.op_id})[name][0])
                medians.append(statistics.median(times))
            out[f"{name}.growth"] = math.log2(medians[1] / medians[0])
    finally:
        undo()
    return out


def traced_run(args, program, work) -> tuple[Runner, dict]:
    """Per-layer metrics from a traced pass over the same operations as an
    untraced pass; the difference between the two is the tracing overhead."""
    runner = Runner(program)
    untraced, _, ran, _ = runner.drive(work.cycle, [], TRACE_PASS_SHARE * args.seconds, 1, 0)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, program.package)
    try:
        traced, _, _, _ = runner.drive(ran, [], 0.0, len(ran), 0, tracer=tracer)
    finally:
        undo()
    _, walls, _, _ = runner.drive(work.cycle, work.cli, 0.0, 0, MIN_CLI_SAMPLES)
    same_ops = [runner.in_process(op) for op in work.cli]
    runner.verify()

    ops = len(traced)
    agg = tracer.aggregate()
    values = {}
    for name, (unit, compute) in PER_LAYER.items():
        if compute is not None:
            values[name] = compute(agg, tracer, ops)
    assignments = tracer.spans_named("rebalancing.min_permutation_distance_squared")
    floated = tracer.parents_of(tracing.SCIPY_ASSIGNMENT)
    values["rebalancing.float_assignment_frac"] = (
        sum(i in floated for i in assignments) / len(assignments) if assignments else 0.0
    )
    values["cli.spawn_ms"] = (statistics.median(walls) - statistics.median(same_ops)) * 1000
    values["cli.import_ms"] = import_ms(runner)
    values["trace.overhead_frac"] = (sum(traced) - sum(untraced)) / sum(untraced)
    values.update(growth(args.workload, args.seed, program))

    trace_file = WORK / "traces" / f"{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(trace_file)
    print(
        f"perfbench: {args.workload}: traced {ops} ops, "
        f"{len(tracer.start)} spans written to {trace_file.relative_to(ROOT)}",
        file=sys.stderr,
    )
    return runner, {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="only set up, then print the set-up time (used for the repeated set-ups)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    require_sources()
    start = time.perf_counter()
    workdir = WORK / f"run-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        program, work = set_up(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            runner, metrics = traced_run(args, program, work)
        else:
            runner, metrics = measured_run(args, program, work, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
