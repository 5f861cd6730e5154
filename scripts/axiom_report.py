#!/usr/bin/env python3
"""Stress every registered concentration measure against the five axioms.

Prints one row per measure: pass/fail per axiom, with '-' where an axiom
does not apply (strictness for weakly monotone measures).  The log-based
control measure can be added to show what a failing report looks like.

Usage:
    python3 scripts/axiom_report.py --n 4 --samples 400 --include-control
"""

import argparse
import json
import sys

from naivediv.measures import LOG_CONTROL, axiom_suite, registry

AXIOMS = (
    "positivity",
    "zero_at_equality",
    "boundedness",
    "order_respecting",
    "strict_monotone",
)


def verdict_cell(verdict) -> str:
    if verdict is None:
        return "-"
    return "pass" if verdict.passed else "FAIL"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=4, help="allocation length")
    parser.add_argument(
        "--samples", type=int, default=400, help="sampled cases per axiom"
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--include-control",
        action="store_true",
        help="also run the deliberately non-monotone log measure",
    )
    parser.add_argument("--json", dest="json_out", help="write full reports as JSON")
    args = parser.parse_args(argv)

    measures = list(registry())
    if args.include_control:
        measures.append(LOG_CONTROL)

    try:
        reports = [
            axiom_suite(measure, seed=args.seed, samples=args.samples, n=args.n)
            for measure in measures
        ]
    except ValueError as exc:
        print(f"axiom_report: {exc}", file=sys.stderr)
        return 1

    width = max(len(m.id) for m in measures)
    header = f"{'measure':<{width}}  " + "  ".join(f"{a:>17}" for a in AXIOMS)
    print(header)
    print("-" * len(header))
    for measure, report in zip(measures, reports):
        cells = "  ".join(
            f"{verdict_cell(getattr(report, a)):>17}" for a in AXIOMS
        )
        print(f"{measure.id:<{width}}  {cells}")

    failures = [
        (m.id, a)
        for m, r in zip(measures, reports)
        for a in AXIOMS
        if getattr(r, a) is not None and not getattr(r, a).passed
    ]
    if failures:
        print()
        for mid, axiom in failures:
            print(f"failed: {mid} / {axiom}")

    if args.json_out:
        payload = [r.to_json_dict() for r in reports]
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote {len(payload)} reports to {args.json_out}")

    # the control is supposed to fail; only registry failures are alarming
    registry_failures = [f for f in failures if f[0] != LOG_CONTROL.id]
    expected = {("entropy", "zero_at_equality"), ("simpson", "zero_at_equality")}
    surprises = [f for f in registry_failures if f not in expected]
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main())
