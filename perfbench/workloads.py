"""The four workloads: their inputs, operation cycles and answer checks.

A workload is a fixed cycle of operations built from ``--seed``: a few
blocks, each the full operation mix on its own inputs, so every run sees
the same mix whether or not it ends on a block boundary.
An operation is one CLI request (run through ``naivediv.cli.main`` in
process, or as a fresh subprocess) or, where no subcommand exists, one
library call.  Every operation carries a check that returns an error
message for a wrong answer; the checks live in ``oracles`` and never ask
the function under test.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import inputs, oracles

Check = Callable[[object], "str | None"]


@dataclass
class Op:
    """One operation of a workload cycle.

    ``argv`` is the CLI form; ``call`` the library form, given the loaded
    program and the outputs of earlier operations in the cycle, by key.
    """

    key: str
    kind: str
    check: Check
    argv: list[str] | None = None
    call: Callable[[object, dict], object] | None = None


@dataclass
class Workload:
    name: str
    cycle: list[Op]
    #: Operations also timed as fresh ``naivediv`` subprocesses.
    cli: list[Op]
    #: Operation mix, n, d and largest denominator bit-length of the inputs.
    record: dict


def _json_check(expect: Callable[[dict], "str | None"]) -> Check:
    def check(text):
        try:
            payload = json.loads(text)
        except (TypeError, ValueError):
            return "output is not JSON"
        return expect(payload)

    return check


def spread(lo: int, hi: int, k: int) -> tuple[int, ...]:
    """k sizes from lo to hi in equal ratios, so costs form a continuum
    instead of clusters whose boundary a percentile could jump across."""
    if k == 1:
        return (lo,)
    return tuple(round(lo * (hi / lo) ** (i / (k - 1))) for i in range(k))


def _workload(name: str, blocks: list[list[list[Op]]], cli: list[Op], ns, ds, vectors) -> Workload:
    """Join the blocks into one cycle.

    A block is one full operation mix on its own inputs; its units are
    shuffled so that every kind is spread over the block, and a run that
    stops part-way through a block still sees the whole mix.  The order
    does not depend on the seed, only the inputs do.  A unit keeps an
    operation together with the ones that read its output.
    """
    cycle: list[Op] = []
    for b, units in enumerate(blocks):
        inputs.rng_for(name, 0, f"order-{b}").shuffle(units)
        cycle.extend(op for unit in units for op in unit)
    position = {op.key: i for i, op in enumerate(cycle)}
    cli = sorted(cli, key=lambda op: position[op.key])
    return Workload(name, cycle, cli, _record(cycle, ns, ds, vectors))


def _record(mix: list[Op], ns, ds, vectors) -> dict:
    kinds: dict[str, int] = {}
    for op in sorted(mix, key=lambda op: op.kind):
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    return {
        "ops_per_cycle": kinds,
        "n": sorted(set(ns)),
        "d": sorted(set(ds)),
        "max_den_bits": inputs.den_bits(vectors),
    }


# --------------------------------------------------------------------------
# order-wide
# --------------------------------------------------------------------------

#: Per file tier, the pairs of one block: their sizes n and the operations
#: each runs.  Sizes are spread over a range so the cheap operations form
#: a continuum of costs; the quadratic Lorenz and full-registry paths run
#: at sizes where one operation stays a small share of a block.
ORDER_WIDE = {
    "book": [
        *[(n, ("compare", "aversion")) for n in spread(100, 1000, 16)],
        *[(n, ("compare-lorenz", "lorenz")) for n in spread(100, 300, 4)],
        *[(n, ("measures",)) for n in (100, 160)],
    ],
    "normalized": [
        *[(n, ("compare", "aversion")) for n in spread(32, 64, 4)],
        *[(n, ("compare-lorenz", "lorenz")) for n in (48, 64)],
        (48, ("measures",)),
    ],
    "universe": [(5000, ("compare", "measures"))],
}
ORDER_WIDE_SMALL = {
    tier: [(16 if tier == "universe" else 8, ops) for ops in dict.fromkeys(ops for _, ops in pairs)]
    for tier, pairs in ORDER_WIDE.items()
}
#: Blocks per cycle, each on its own inputs.
ORDER_WIDE_BLOCKS = 4
#: Every CLI_EVERY-th pair of a tier in the first block is also timed as
#: fresh subprocesses, except the kinds in ORDER_WIDE_NO_CLI.
CLI_EVERY = 4
TIER_VECTORS = {
    "book": inputs.lattice_vector,
    "normalized": inputs.normalized_vector,
    "universe": inputs.lattice_vector,
}
LORENZ_POINTS = 100
UNIVERSE_MEASURES = ("hhi", "hoover", "simpson", "entropy")
#: The costliest kinds are left out of the subprocess timing, so that its
#: median stays near the cost of a typical request.
ORDER_WIDE_NO_CLI = {"measures/book", "measures/normalized", "compare/universe"}


def _compare_op(key, tier, first_path, second_path, first, second, lorenz=False):
    want = functools.cache(lambda: oracles.relation(first, second))

    def expect(payload):
        if payload.get("relation") != want():
            return f"relation {payload.get('relation')} != {want()}"
        if not lorenz and payload.get("preference") != oracles.RELATION_PREFERENCE[want()]:
            return "preference does not follow the relation"
        return None

    argv = ["compare", first_path, second_path, "--format", "json"]
    if lorenz:
        argv.insert(1, "--lorenz")
    kind = ("compare-lorenz/" if lorenz else "compare/") + tier
    return Op(key, kind, _json_check(expect), argv=argv)


def _lorenz_op(key, tier, path, w, points):
    want = functools.cache(
        lambda: [{"t": str(t), "value": str(v)} for t, v in oracles.lorenz_points(w, points)]
    )

    def expect(payload):
        return None if payload.get("points") == want() else "Lorenz points differ"

    argv = ["lorenz", path, "--points", str(points), "--format", "json"]
    return Op(key, "lorenz/" + tier, _json_check(expect), argv=argv)


def _measures_op(key, tier, path, w, ids):
    want = functools.cache(lambda: oracles.measure_values(w))

    def expect(payload):
        if list(payload) != list(ids):
            return "measure ids differ"
        for mid in ids:
            if not oracles.close(payload[mid], want()[mid]):
                return f"{mid} = {payload[mid]}, want {want()[mid]}"
        return None

    argv = ["measures", path, "--format", "json"]
    if tier == "universe":
        for mid in ids:
            argv += ["--measure", mid]
    return Op(key, "measures/" + tier, _json_check(expect), argv=argv)


def _aversion_op(key, tier, path, w):
    want = functools.cache(lambda: oracles.aversion_squared(w))

    def expect(payload):
        if Fraction(payload["aversion_squared"]) != want():
            return "aversion_squared differs"
        if not oracles.close(float(payload["aversion"]), float(want()) ** 0.5):
            return "aversion differs"
        return None

    return Op(key, "aversion/" + tier, _json_check(expect), argv=["aversion", path, "--format", "json"])


def order_wide(seed: int, workdir: Path, program, small: bool = False) -> Workload:
    tiers = ORDER_WIDE_SMALL if small else ORDER_WIDE
    blocks: list[list[list[Op]]] = []
    cli: list[Op] = []
    vectors = []
    ns = []
    for block in range(1 if small else ORDER_WIDE_BLOCKS):
        units: list[list[Op]] = []
        for tier, pairs in tiers.items():
            rng = inputs.rng_for("order-wide", seed, f"{tier}-{block}")
            ids = UNIVERSE_MEASURES if tier == "universe" else oracles.REGISTRY_IDS
            for i, (n, kinds) in enumerate(pairs):
                ns.append(n)
                kind = inputs.PAIR_KINDS[i % len(inputs.PAIR_KINDS)]
                first, second = inputs.vector_pair(rng, kind, TIER_VECTORS[tier], n)
                vectors.extend((first, second))
                tag = f"{tier}-{block}-{i}"
                a = inputs.write_weights(workdir / f"{tag}-a.json", first)
                b = inputs.write_weights(workdir / f"{tag}-b.json", second)
                ops = {
                    "compare": lambda: _compare_op(f"{tag}-compare", tier, a, b, first, second),
                    "aversion": lambda: _aversion_op(f"{tag}-aversion", tier, a, first),
                    "compare-lorenz": lambda: _compare_op(
                        f"{tag}-lorenz-compare", tier, a, b, first, second, lorenz=True
                    ),
                    "lorenz": lambda: _lorenz_op(f"{tag}-lorenz", tier, a, first, LORENZ_POINTS),
                    "measures": lambda: _measures_op(f"{tag}-measures", tier, a, first, ids),
                }
                made = [ops[k]() for k in kinds]
                units.extend([op] for op in made)
                if block == 0 and i % CLI_EVERY == 0:
                    cli.extend(op for op in made if op.kind not in ORDER_WIDE_NO_CLI)
        blocks.append(units)
    return _workload("order-wide", blocks, cli, ns, [1], vectors)


# --------------------------------------------------------------------------
# exact-lp
# --------------------------------------------------------------------------

#: Per block: ``instances[n]`` feasible and as many infeasible stacks for
#: every n and d, and as many sets of relative cases per n; the cheaper
#: small sizes come more often, so a run holds more operations.
#: Subprocess timing covers the first block's stacks with n = ``cli_n``.
EXACT_LP = {"blocks": 4, "n": (4, 5, 6), "d": (1, 2, 3), "instances": {4: 3, 5: 2, 6: 1}, "cli_n": 4}
EXACT_LP_SMALL = {"blocks": 1, "n": (4,), "d": (2,), "instances": {4: 1}, "cli_n": 4}


def _multi_check_op(key, kind, target_path, source_path, targets, sources, feasible):
    def expect(payload):
        if payload.get("feasible") is not feasible:
            return f"feasible = {payload.get('feasible')}, built to be {feasible}"
        if feasible:
            return oracles.check_witness(payload["witness"]["entries"], targets, sources)
        return None if payload.get("witness") is None else "witness on an infeasible stack"

    argv = ["multi-check", target_path, source_path, "--format", "json"]
    return Op(key, kind, _json_check(expect), argv=argv)


def _relative_op(key, label, alpha, beta, d, program):
    vec = program.simplex.WeightVector
    args = (vec(tuple(alpha)), vec(tuple(beta)), vec(tuple(d)))
    want = functools.cache(lambda: oracles.relative_preference(alpha, beta, d))

    def check(outcome):
        got = getattr(outcome, "value", outcome)
        return None if got == want() else f"verdict {got} != {want()}"

    def call(prog, _outputs):
        return prog.preferences.relative_naive_prefer(*args)

    return Op(key, "relative/" + label, check, call=call)


def exact_lp(seed: int, workdir: Path, program, small: bool = False) -> Workload:
    size = EXACT_LP_SMALL if small else EXACT_LP
    blocks: list[list[list[Op]]] = []
    cli: list[Op] = []
    vectors = []
    for block in range(size["blocks"]):
        units: list[list[Op]] = []
        rng = inputs.rng_for("exact-lp", seed, f"stacks-{block}")
        for n in size["n"]:
            for d in size["d"]:
                for i in range(size["instances"][n]):
                    for feasible in (True, False):
                        build = inputs.feasible_stack if feasible else inputs.sharpened_stack
                        targets, sources = build(rng, n, d)
                        if not feasible and all(
                            oracles.majorizes(y, x) for y, x in zip(sources, targets)
                        ):
                            raise RuntimeError("sharpened stack is not infeasible")
                        vectors.extend(targets + sources)
                        tag = f"{block}-n{n}-d{d}-{i}-{'feasible' if feasible else 'infeasible'}"
                        tp = inputs.write_rows(workdir / f"{tag}-targets.json", targets)
                        sp = inputs.write_rows(workdir / f"{tag}-sources.json", sources)
                        kind = "multi-check/" + ("feasible" if feasible else "infeasible")
                        op = _multi_check_op(tag, kind, tp, sp, targets, sources, feasible)
                        units.append([op])
                        if block == 0 and n == size["cli_n"]:
                            cli.append(op)
        rng = inputs.rng_for("exact-lp", seed, f"relative-{block}")
        for n in size["n"]:
            for i in range(size["instances"][n]):
                for label, alpha, beta, d in inputs.relative_cases(rng, n):
                    vectors.extend((alpha, beta, d))
                    key = f"relative-{block}-n{n}-{i}-{label}"
                    units.append([_relative_op(key, label, alpha, beta, d, program)])
        blocks.append(units)
    return _workload("exact-lp", blocks, cli, size["n"], size["d"], vectors)


# --------------------------------------------------------------------------
# rebalance
# --------------------------------------------------------------------------

#: Every n from 4 to 16 once per block, so the chain's steep growth in n
#: gives a continuum of costs; subprocess timing covers the first two
#: blocks' equal-weight rebalances with n in ``cli_n``, all past the
#: n <= 5 cutoff where the float assignment (and its scipy import) starts.
REBALANCE = {"blocks": 10, "n": tuple(range(4, 17)), "cli_blocks": 2, "cli_n": (6, 7, 8, 9)}
REBALANCE_SMALL = {"blocks": 1, "n": (8,), "cli_blocks": 1, "cli_n": (8,)}
COST_RATE = 0.0025


def _rebalance_op(key, kind, source_path, source, target, target_path=None):
    rate = 0.0 if target_path else COST_RATE

    def expect(payload):
        return oracles.check_plan(payload, source, target, rate)

    argv = ["rebalance", source_path, "--format", "json"]
    argv += ["--target", target_path] if target_path else ["--cost-rate", str(rate)]
    return Op(key, kind, _json_check(expect), argv=argv)


def _roundtrip_op(key, source_key):
    """Read the CLI's plan back (which re-verifies every step) and write it
    out again; the text must come back byte for byte."""

    def call(prog, outputs):
        text = outputs[source_key].rstrip("\n")
        plan = prog.fileio.plan_from_dict(json.loads(text))
        return text, json.dumps(prog.fileio.plan_to_dict(plan), indent=2)

    def check(result):
        text, again = result
        return None if again == text else "plan did not survive the round trip"

    return Op(key, "plan-roundtrip", check, call=call)


def rebalance(seed: int, workdir: Path, program, small: bool = False) -> Workload:
    size = REBALANCE_SMALL if small else REBALANCE
    blocks: list[list[list[Op]]] = []
    cli: list[Op] = []
    vectors = []
    for block in range(size["blocks"]):
        units: list[list[Op]] = []
        rng = inputs.rng_for("rebalance", seed, f"sources-{block}")
        for n in size["n"]:
            source = inputs.lattice_vector(rng, n)
            target = inputs.smoothed(rng, source, 2 * n)
            vectors.extend((source, target))
            tag = f"{block}-n{n}"
            sp = inputs.write_weights(workdir / f"{tag}-source.json", source)
            tp = inputs.write_weights(workdir / f"{tag}-target.json", target)
            equal = _rebalance_op(f"{tag}-equal", "rebalance/equal", sp, source, [Fraction(1, n)] * n)
            units.append([equal, _roundtrip_op(f"{tag}-roundtrip", equal.key)])
            units.append([_rebalance_op(f"{tag}-target", "rebalance/target", sp, source, target, tp)])
            if block < size["cli_blocks"] and n in size["cli_n"]:
                cli.append(equal)
        blocks.append(units)
    return _workload("rebalance", blocks, cli, size["n"], [1], vectors)


# --------------------------------------------------------------------------
# measure-audit
# --------------------------------------------------------------------------

#: Per block: ``axioms`` for every id at every n in ``axiom_n`` (n from 4 to
#: 8, so costs form a continuum), each on its own sampler seed, and one
#: ``schur-check`` per id.  Subprocess timing covers the first block's
#: axioms at n = 4 and its schur-checks with n >= ``cli_schur_min_n``.
MEASURE_AUDIT = {
    "blocks": 8, "axiom_n": (4, 5, 6, 7, 8), "samples": 30, "schur_n": (4, 8, 16, 32, 64),
    "cli_schur_min_n": 32,
}
MEASURE_AUDIT_SMALL = dict(MEASURE_AUDIT, blocks=1, axiom_n=(4,), samples=10, schur_n=(4,))
AUDIT_IDS = [*oracles.REGISTRY_IDS, oracles.CONTROL]


def _axioms_op(key, mid, n, samples, seed):
    def expect(payload):
        return oracles.check_axiom_report(payload, mid, n, samples, seed)

    argv = ["axioms", "--measure", mid, "--n", str(n), "--samples", str(samples),
            "--seed", str(seed), "--format", "json"]
    return Op(key, "axioms", _json_check(expect), argv=argv)


def _schur_op(key, mid, path, seed):
    want = "true" if oracles.expected_schur(mid) else "false"

    def expect(payload):
        if payload.get("measure") != mid or payload.get("symmetric") != "true":
            return "schur-check reports the wrong measure or an asymmetry"
        return None if payload.get("passed") == want else f"passed = {payload.get('passed')}, want {want}"

    argv = ["schur-check", path, "--measure", mid, "--seed", str(seed), "--format", "json"]
    return Op(key, "schur-check", _json_check(expect), argv=argv)


def measure_audit(seed: int, workdir: Path, program, small: bool = False) -> Workload:
    size = MEASURE_AUDIT_SMALL if small else MEASURE_AUDIT
    blocks: list[list[list[Op]]] = []
    cli: list[Op] = []
    vectors = []
    for block in range(size["blocks"]):
        units: list[list[Op]] = []
        rng = inputs.rng_for("measure-audit", seed, f"points-{block}")
        for n in size["axiom_n"]:
            for mid in AUDIT_IDS:
                op = _axioms_op(f"axioms-{block}-{mid}-n{n}", mid, n, size["samples"], rng.randrange(2**31))
                units.append([op])
                if block == 0 and n == size["axiom_n"][0]:
                    cli.append(op)
        for i, mid in enumerate(AUDIT_IDS):
            n = size["schur_n"][i % len(size["schur_n"])]
            point = inputs.interior_vector(rng, n)
            vectors.append(point)
            path = inputs.write_weights(workdir / f"point-{block}-{i}.json", point)
            op = _schur_op(f"schur-{block}-{mid}-n{n}", mid, path, rng.randrange(2**31))
            units.append([op])
            if block == 0 and n >= size["cli_schur_min_n"]:
                cli.append(op)
        blocks.append(units)
    ns = list(size["axiom_n"]) + list(size["schur_n"])
    return _workload("measure-audit", blocks, cli, ns, [1], vectors)


BUILDERS = {
    "order-wide": order_wide,
    "exact-lp": exact_lp,
    "rebalance": rebalance,
    "measure-audit": measure_audit,
}


def vector_generator(workload: str):
    """The workload's own vector generator, used for the growth exponents."""
    if workload == "measure-audit":
        return inputs.interior_vector
    return inputs.lattice_vector
