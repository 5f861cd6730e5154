"""Command-line front end.

One binary, eight subcommands, three output formats.  Machine formats
(json, csv) keep rationals as exact strings; the table format is for
reading at a terminal.  Exit codes: 0 for any successfully computed
verdict (including negative ones), 1 for input or usage problems, 2 when
a requested rebalance is mathematically impossible because the source
does not majorize the target.

Every process loads this module, ``fileio``, ``simplex`` and ``errors``;
each handler imports the rest of what it runs, so a subcommand loads only
its own modules:

    compare                preferences (none with --lorenz)
    lorenz                 none
    aversion               preferences
    measures, schur-check  measures
    axioms                 measures
    rebalance              rebalancing, matrices
    multi-check            matrices, lp

Every JSON answer is written by ``_render_json``, byte for byte as
``json.dumps(payload, indent=2)`` writes it, but with the C string
encoder ``json.encoder.encode_basestring_ascii`` mapped over whole
columns: a list of objects that share their keys (plan steps, trades,
Lorenz points) is written from one row template filled once per row, and
``lorenz`` hands its two columns over as ``_Rows`` without building a
dict per point.  The one departure from ``json.dumps``: a non-finite
float is written as the string csv and table print, "inf", "-inf" or
"nan", not as the non-standard ``Infinity`` or ``NaN``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from heapq import merge
from itertools import groupby
from operator import itemgetter
from typing import Sequence

from . import fileio
from .errors import DimensionMismatch, NotMajorized
from .simplex import (
    _curve_order,
    _fraction_text,
    _lorenz_ints,
    _rational_strings,
    compare,
    uniform_vector,
)


@dataclass
class CliConfig:
    """Global rendering and sampling options shared by every subcommand."""

    format: str = "table"
    precision: int = 12
    seed: int = 42
    out: str | None = None


class _CliParser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves 2
    for violated mathematical preconditions, so usage errors become 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _precision_arg(text: str) -> int:
    value = int(text)
    if not 1 <= value <= 17:
        raise argparse.ArgumentTypeError("precision must be between 1 and 17")
    return value


def _nonnegative_int_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _cost_rate_arg(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError("cost rate must be finite and nonnegative")
    return value


def _step_arg(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError("step must be finite and positive")
    return value


@functools.cache
def _build_parser() -> _CliParser:
    """The whole parser, built once per process: parsing keeps no state on
    it (every option's default is SUPPRESS, None or immutable)."""
    common = _CliParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "csv", "table"),
        default=argparse.SUPPRESS,
        help="output format (default: table)",
    )
    common.add_argument(
        "--precision",
        type=_precision_arg,
        default=argparse.SUPPRESS,
        help="significant digits for decimal output, 1-17 (default: 12)",
    )
    common.add_argument(
        "--seed",
        type=_nonnegative_int_arg,
        default=argparse.SUPPRESS,
        help="seed for randomized checks (default: 42)",
    )
    common.add_argument(
        "--out",
        default=argparse.SUPPRESS,
        help="write output to this path instead of stdout",
    )

    parser = _CliParser(
        prog="naivediv",
        description="Equal-weight allocation toolkit: orderings, measures, plans.",
        parents=[common],
    )
    # Global options stay SUPPRESS-defaulted so they can be given before or
    # after the subcommand; calling set_defaults here would overwrite the
    # shared parent actions' defaults and make the subparser pass clobber
    # values already parsed.  main() fills in the gaps instead.
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CliParser)

    p = sub.add_parser(
        "compare",
        parents=[common],
        help="order two allocations by concentration",
    )
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument(
        "--lorenz",
        action="store_true",
        help="compare cumulative-share curves (lengths may differ)",
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "measures", parents=[common], help="evaluate concentration measures"
    )
    p.add_argument("weights")
    p.add_argument(
        "--measure",
        action="append",
        dest="measures",
        metavar="ID",
        help="measure id (repeatable; default: the whole registry)",
    )
    p.set_defaults(func=_cmd_measures)

    p = sub.add_parser(
        "rebalance",
        parents=[common],
        help="plan at most n - 1 averaging steps to a flatter allocation",
    )
    p.add_argument("weights")
    p.add_argument(
        "--target",
        default="equal",
        help="'equal' or a weight file majorized by the source (default: equal)",
    )
    p.add_argument(
        "--cost-rate",
        type=_cost_rate_arg,
        default=0.0,
        help="proportional cost per unit of traded mass (default: 0)",
    )
    p.set_defaults(func=_cmd_rebalance)

    p = sub.add_parser(
        "lorenz", parents=[common], help="tabulate the cumulative-share curve"
    )
    p.add_argument("weights")
    p.add_argument(
        "--points",
        type=_nonnegative_int_arg,
        default=0,
        metavar="N",
        help="also sample the curve at i/N for i = 0..N",
    )
    p.set_defaults(func=_cmd_lorenz)

    p = sub.add_parser(
        "axioms", parents=[common], help="stress a measure against the five axioms"
    )
    p.add_argument("--measure", required=True, metavar="ID")
    p.add_argument("--n", type=int, default=4, help="allocation length (default: 4)")
    p.add_argument(
        "--samples", type=int, default=400, help="cases per axiom (default: 400)"
    )
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser(
        "aversion",
        parents=[common],
        help="distance of a benchmark allocation from equal weights",
    )
    p.add_argument("weights")
    p.set_defaults(func=_cmd_aversion)

    p = sub.add_parser(
        "schur-check",
        parents=[common],
        help="finite-difference spread-seeking check at a point",
    )
    p.add_argument("weights")
    p.add_argument("--measure", required=True, metavar="ID")
    p.add_argument(
        "--step", type=_step_arg, default=1e-5, help="finite-difference step"
    )
    p.set_defaults(func=_cmd_schur_check)

    p = sub.add_parser(
        "multi-check",
        parents=[common],
        help="simultaneous-mixing feasibility between two allocation stacks",
    )
    p.add_argument("target_rows", help="file with the rows to reach")
    p.add_argument("source_rows", help="file with the rows to mix")
    p.set_defaults(func=_cmd_multi_check)

    return parser


# --------------------------------------------------------------------------
# Rendering helpers.
# --------------------------------------------------------------------------


def _emit(text: str, config: CliConfig) -> None:
    fileio.write_text(text, config.out)


#: A str as a JSON string literal, in C: the encoder ``json.dumps`` uses
#: for every string under its default ``ensure_ascii``.
_quote = json.encoder.encode_basestring_ascii

#: The C writer of every value of each of these types, alone or in a column.
_C_TEXT = {str: _quote, int: int.__repr__}


class _Rows:
    """A JSON array of objects that each have the fields ``keys`` (at least
    one), in that order, given as one column of values per field.  A plain
    class, as a dataclass would run its generated code at every start-up."""

    __slots__ = ("keys", "columns")

    def __init__(self, keys: tuple[str, ...], columns: tuple[Sequence, ...]) -> None:
        self.keys = keys
        self.columns = columns


_CONTAINERS = (dict, list, tuple, _Rows)


def _render_json(payload) -> str:
    """``json.dumps(payload, indent=2)`` for a payload of str-keyed dicts,
    lists, tuples, ``_Rows`` and JSON scalars, except that a non-finite
    float is written as a string (``_scalar_text``)."""
    return _json_text(payload, "\n")


def _json_text(value, newline: str) -> str:
    """``value`` as indented JSON; ``newline`` starts each line of it."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        fields = (f"{_quote(k)}: {_json_text(v, inner)}" for k, v in value.items())
        return "{" + inner + ("," + inner).join(fields) + newline + "}"
    if not isinstance(value, _CONTAINERS):
        return _scalar_text(value)
    inner = newline + "  "
    if isinstance(value, _Rows):
        items = _row_texts(value, inner)
    else:
        items = _scalar_texts(value)
        if items is None and (rows := _as_rows(value)) is not None:
            items = _row_texts(rows, inner)
        if items is None:
            items = [_json_text(x, inner) for x in value]
    text = ("," + inner).join(items)
    return "[" + inner + text + newline + "]" if text else "[]"


def _scalar_text(value) -> str:
    """A JSON scalar as ``json.dumps`` writes it; a non-finite float as the
    string csv and table print, "inf", "-inf" or "nan", because RFC 8259
    has no ``Infinity`` or ``NaN``."""
    write = _C_TEXT.get(type(value))
    if write is not None:
        return write(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else _quote(f"{value:g}")
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _scalar_texts(values: Sequence):
    """The texts of ``values``, an iterator, or None when one of them is a
    container; a column of strings or of ints goes through one C writer."""
    kinds = set(map(type, values))
    if len(kinds) == 1 and (kind := next(iter(kinds))) in _C_TEXT:
        return map(_C_TEXT[kind], values)
    if any(issubclass(kind, _CONTAINERS) for kind in kinds):
        return None
    return map(_scalar_text, values)


def _as_rows(items: Sequence) -> _Rows | None:
    """``items`` as columns when they are dicts that share their keys."""
    first = items[0]
    if set(map(type, items)) != {dict} or not first:
        return None
    keys = tuple(first)
    if not all(map(keys.__eq__, map(tuple, items))):
        return None
    return _Rows(keys, tuple(list(map(itemgetter(key), items)) for key in keys))


def _row_texts(rows: _Rows, newline: str):
    """The text of each object of ``rows``, an iterator that fills one row
    template per row, or None when a column holds a container."""
    columns = [_scalar_texts(column) for column in rows.columns]
    if None in columns:
        return None
    return map(_row_template(rows.keys, newline).__mod__, zip(*columns))


@functools.lru_cache(maxsize=32)
def _row_template(keys: tuple[str, ...], newline: str) -> str:
    """An object of the fields ``keys`` with a ``%s`` for each value."""
    inner = newline + "  "
    fields = (_quote(key).replace("%", "%%") + ": %s" for key in keys)
    return "{" + inner + ("," + inner).join(fields) + newline + "}"


def _render_pairs(pairs: list[tuple[str, str]], config: CliConfig) -> str:
    if config.format == "json":
        return _render_json(dict(pairs))
    if config.format == "csv":
        lines = ["key,value"]
        lines += [f"{k},{v}" for k, v in pairs]
        return "\n".join(lines)
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in pairs)


def _fmt(value: float, config: CliConfig) -> str:
    return fileio.format_float(value, config.precision)


# --------------------------------------------------------------------------
# Subcommands.
# --------------------------------------------------------------------------


def _cmd_compare(args, config: CliConfig) -> int:
    first = fileio.load_weights(args.first)
    second = fileio.load_weights(args.second)
    if args.lorenz:
        # the integer curves: no LorenzCurve of Fraction points is built
        relation = _curve_order(_lorenz_ints(first), _lorenz_ints(second))
        pairs = [("relation", relation.value)]
    else:
        from .preferences import _FROM_RELATION

        relation = compare(first, second)
        pairs = [
            ("relation", relation.value),
            ("preference", _FROM_RELATION[relation].value),
        ]
    _emit(_render_pairs(pairs, config), config)
    return 0


def _cmd_measures(args, config: CliConfig) -> int:
    from .measures import evaluate, get_measure, registry

    w = fileio.load_weights(args.weights)
    ids = args.measures if args.measures else [m.id for m in registry()]
    values = [(mid, evaluate(get_measure(mid), w)) for mid in ids]
    if config.format == "json":
        _emit(
            _render_json(
                {mid: fileio.json_float(v, config.precision) for mid, v in values}
            ),
            config,
        )
        return 0
    if config.format == "csv":
        lines = ["measure,value"]
        lines += [f"{mid},{_fmt(v, config)}" for mid, v in values]
        _emit("\n".join(lines), config)
        return 0
    width = max(len(mid) for mid, _ in values)
    _emit(
        "\n".join(f"{mid:<{width}}  {_fmt(v, config)}" for mid, v in values),
        config,
    )
    return 0


def _cmd_rebalance(args, config: CliConfig) -> int:
    from .rebalancing import rebalance_to

    source = fileio.load_weights(args.weights)
    if args.target == "equal":
        target = uniform_vector(source.n)
    else:
        target = fileio.load_weights(args.target)
    plan = rebalance_to(source, target, args.cost_rate)
    _emit(_render_json(fileio.plan_to_dict(plan, config.precision)), config)
    return 0


def _cmd_lorenz(args, config: CliConfig) -> int:
    w = fileio.load_weights(args.weights)
    n, _, scale, ys = _lorenz_ints(w)
    # Abscissas count 1/L with L = lcm(n, N): breakpoint k sits at k * L / n
    # and grid point i at i * L / N.  With no grid, N = 1 adds only the two
    # end points, which are breakpoints already.
    grid = args.points or 1
    span = math.lcm(n, grid)
    progressions = (range(0, span + 1, span // m) for m in (n, grid))
    ticks = [x for x, _ in groupby(merge(*progressions))]
    # the value at x / L, over scale * L, on the segment from breakpoint k
    values = []
    for x in ticks:
        k, r = divmod(x * n, span)
        values.append(ys[k] * span + (ys[k + 1] - ys[k]) * r if r else ys[k] * span)
    columns = (ticks, span), (values, scale * span)
    if config.format == "json":
        points = _Rows(("t", "value"), tuple(_rational_strings(*c) for c in columns))
        _emit(_render_json({"points": points}), config)
        return 0
    ts, vs = ([_fmt(x / s, config) for x in xs] for xs, s in columns)
    sep = "," if config.format == "csv" else "  "
    lines = ["t,L(t)"] if config.format == "csv" else []
    _emit("\n".join(lines + [f"{t}{sep}{v}" for t, v in zip(ts, vs)]), config)
    return 0


def _cmd_axioms(args, config: CliConfig) -> int:
    from .measures import axiom_suite, get_measure

    measure = get_measure(args.measure)
    report = axiom_suite(measure, seed=config.seed, samples=args.samples, n=args.n)
    _emit(_render_json(report.to_json_dict()), config)
    return 0


def _cmd_aversion(args, config: CliConfig) -> int:
    from .preferences import aversion_squared, inequality_aversion_coefficient

    d = fileio.load_weights(args.weights)
    squared = aversion_squared(d)
    coefficient = inequality_aversion_coefficient(d)
    _emit(
        _render_pairs(
            [
                ("aversion_squared", _fraction_text(squared)),
                ("aversion", _fmt(coefficient, config)),
            ],
            config,
        ),
        config,
    )
    return 0


def _cmd_schur_check(args, config: CliConfig) -> int:
    from .measures import ambient_utility, get_measure, schur_ostrowski_report

    measure = get_measure(args.measure)
    point = fileio.load_weights(args.weights)
    report = schur_ostrowski_report(
        ambient_utility(measure), point, step=args.step, seed=config.seed
    )
    _emit(
        _render_pairs(
            [
                ("measure", measure.id),
                ("symmetric", str(report.symmetric).lower()),
                ("sign_condition", str(report.sign_condition).lower()),
                ("passed", str(report.passed).lower()),
                ("max_sign_product", _fmt(report.max_sign_product, config)),
            ],
            config,
        ),
        config,
    )
    return 0


def _cmd_multi_check(args, config: CliConfig) -> int:
    from .matrices import multivariate_feasible

    target_rows = fileio.load_allocation_rows(args.target_rows)
    source_rows = fileio.load_allocation_rows(args.source_rows)
    try:
        witness = multivariate_feasible(target_rows, source_rows)
    except DimensionMismatch as exc:
        # the counts or lengths in the message are given in this order
        raise DimensionMismatch(
            f"{args.target_rows} vs {args.source_rows}: {exc}"
        ) from None
    if config.format == "json":
        payload = {
            "feasible": witness is not None,
            "witness": fileio.matrix_to_dict(witness) if witness is not None else None,
        }
        _emit(_render_json(payload), config)
        return 0
    pairs = [("feasible", str(witness is not None).lower())]
    if witness is not None:
        pairs.append(
            ("witness", json.dumps(fileio.matrix_to_dict(witness)["entries"]))
        )
    _emit(_render_pairs(pairs, config), config)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    defaults = CliConfig()
    config = CliConfig(
        format=getattr(args, "format", defaults.format),
        precision=getattr(args, "precision", defaults.precision),
        seed=getattr(args, "seed", defaults.seed),
        out=getattr(args, "out", defaults.out),
    )
    try:
        return args.func(args, config)
    except NotMajorized as exc:
        print(f"naivediv: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"naivediv: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
