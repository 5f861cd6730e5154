"""Readers for weight, allocation and plan files; writers for weights, matrices, plans.

Machine formats keep every number as an exact rational string ("1/2",
"0.25" -> exactly 1/4); floats appear only in explicitly decimal fields
like practical turnover and cost.  Weight files are JSON by default, CSV
when the path ends in .csv.  Every file is read in one go as bytes and
decoded as UTF-8, and a JSON file must be RFC 8259 JSON text: a file that
is not is reported with its path.

Every weight vector, allocation row and plan intermediate is built on
ints by ``_weight_vector``; its Fraction entries are made only when
something reads them.  A list whose entries are all plain ASCII ``p/q``
or ``p`` is read whole (``_plain_view``): joined and checked once, split
into numerator and denominator columns that go to ``int`` through
``map``, and put over the lcm of the distinct denominators.  Any other
list, and any that fails there (a zero denominator, a part past ``int``'s
4,300-digit limit), goes entry by entry through ``_rational_pair``, the
one parser of single numbers: a plain ASCII ``p/q`` or ``p`` goes
straight to ``int``, and every other form (signs, whitespace, decimals,
exponents, underscores, non-ASCII digits, non-string JSON values) through
``Fraction``.  Both accept exactly what ``Fraction`` accepts, with the
same values and the same errors.  A vector that breaks an invariant is
reported with its file and field, e.g. ``w.json: 'weights': weights must
sum to exactly 1, ...``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from itertools import islice
from operator import mul
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .simplex import (
    WeightVector,
    _checked_labels,
    _fraction_text,
    _from_ints,
    _rational_strings,
    as_fraction,
)

# Only annotations name these types here; the plan reader imports what it
# builds in its body, so that loading weights does not load matrices.
if TYPE_CHECKING:
    from .matrices import SquareMatrix
    from .rebalancing import RebalancePlan


def _rational_pair(value: object) -> tuple[int, int]:
    """``(p, q)`` with q > 0 and p / q the exact value of a number in a file."""
    try:
        if isinstance(value, str) and value.isascii():
            p, slash, q = value.partition("/")
            if p.isdigit() and (q.isdigit() or not slash):
                q = int(q) if slash else 1
                if q:
                    return int(p), q
        x = as_fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {value!r}") from exc
    return x.numerator, x.denominator


def parse_rational(text: str) -> Fraction:
    """'p/q' or decimal literal -> exact Fraction."""
    return Fraction(*_rational_pair(text))


def _weight_vector(
    values: Sequence[object],
    where: str,
    labels: Sequence[object] | None = None,
    labels_where: str = "",
) -> WeightVector:
    """The weight vector of the numbers ``values``, built on ints over the
    lcm of their denominators; a ValueError names ``where`` (a file and a
    field), or ``labels_where`` when the labels are at fault."""
    if labels is not None:
        try:
            labels = _checked_labels(labels, len(values))
        except ValueError as exc:
            raise type(exc)(f"{labels_where}: {exc}") from None
    try:
        nums, scale = _plain_view(values) or _over_lcm(
            [_rational_pair(x) for x in values]
        )
        return _from_ints(nums, scale, labels)
    except ValueError as exc:
        raise type(exc)(f"{where}: {exc}") from None


#: Deletes the ASCII digits: what a vector of plain entries joined by
#: commas keeps is its separators.
_DIGITS = str.maketrans("", "", "0123456789")


def _plain_view(values: Sequence[object]) -> tuple[list[int], int] | None:
    """``_over_lcm`` of the entries, read from the whole list at once when
    every entry is a plain ASCII ``p/q`` or ``p``; None for any other list,
    or when an entry fails (a zero denominator, a part past ``int``'s digit
    limit), so that ``_rational_pair`` decides every entry.

    The lcm is taken over the distinct denominators, and each one's
    multiplier is computed once.  A function of its own so that the joined
    text and the split cells are freed before the vector is built.
    """
    if not values:
        return None
    try:
        text = ",".join(values)
    except TypeError:  # a value that is not a string
        return None
    # Once the digits are gone, the n - 1 commas must be all that is left
    # besides at most one slash per entry; then no entry can shift the
    # stride of the cells split below (an empty cell fails in int).
    seps = text.translate(_DIGITS)
    if seps.replace("/", "") != "," * (len(values) - 1) or "//" in seps:
        return None
    if seps.count("/") < len(values):  # a bare p: it is p/1
        values = [v if "/" in v else v + "/1" for v in values]
    del text, seps
    cells = "/".join(values).split("/")
    try:
        dens = {q: int(q) for q in set(islice(cells, 1, None, 2))}
        if not all(dens.values()):
            return None
        scale = math.lcm(*dens.values())
        multiplier = {q: scale // d for q, d in dens.items()}
        nums = list(
            map(
                mul,
                map(int, islice(cells, 0, None, 2)),
                map(multiplier.__getitem__, islice(cells, 1, None, 2)),
            )
        )
    except ValueError:
        return None
    return nums, scale


def _over_lcm(pairs: list[tuple[int, int]]) -> tuple[list[int], int]:
    """The numerators of the fractions p / q of ``pairs`` over the lcm of
    the q's, and that lcm.  A function of its own so that the caller's list
    of pairs is freed before the vector is built."""
    scale = math.lcm(*(q for _, q in pairs))
    return [p * (scale // q) for p, q in pairs], scale


def format_float(value: float, precision: int) -> str:
    """Render a float with the configured number of significant digits."""
    return f"{value:.{precision}g}"


def json_float(value: float, precision: int) -> float:
    """Round a float through the configured precision for JSON emission."""
    return float(format_float(value, precision))


def weights_to_dict(w: WeightVector) -> dict:
    out: dict = {}
    if w.labels is not None:
        out["labels"] = list(w.labels)
    out["weights"] = list(w.as_strings())
    return out


def _json_array(value: object, what: str, where: str | Path) -> list:
    """``value``, which must be a JSON array; ``what`` names it in the error."""
    if not isinstance(value, list):
        raise ValueError(
            f"{where}: {what} must be a JSON array, got {type(value).__name__}"
        )
    return value


def _json_rows(value: object, field: str, where: str | Path) -> list[list]:
    """``value``, the ``field`` of a file, which must be a JSON array of arrays."""
    rows = _json_array(value, repr(field), where)
    return [
        _json_array(row, f"row {i} of {field!r}", where)
        for i, row in enumerate(rows, 1)
    ]


def _weights_from_dict(data: object, where: str | Path) -> WeightVector:
    if not isinstance(data, dict) or "weights" not in data:
        raise ValueError(f"{where}: needs a JSON object with a 'weights' field")
    values = _json_array(data["weights"], "'weights'", where)
    labels = data.get("labels")
    if labels is not None:
        labels = _json_array(labels, "'labels'", where)
    return _weight_vector(values, f"{where}: 'weights'", labels, f"{where}: 'labels'")


def weights_from_dict(data: dict) -> WeightVector:
    return _weights_from_dict(data, "weight data")


def _load_weights_csv(text: str, where: Path) -> WeightVector:
    # newline=None: any line ending reads as one, as when reading in text mode
    reader = csv.reader(io.StringIO(text, newline=None))
    rows = [row for row in reader if row]
    if not rows or [cell.strip() for cell in rows[0]] != ["label", "weight"]:
        raise ValueError(
            f"{where}: weight CSV must start with a 'label,weight' header"
        )
    labels = []
    weights = []
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"{where}: weight CSV rows need 2 columns, got {row!r}")
        labels.append(row[0].strip())
        weights.append(row[1])
    return _weight_vector(
        weights, f"{where}: 'weight' column", labels, f"{where}: 'label' column"
    )


def _read_text(path: Path) -> str:
    """The file at ``path``, read in one go as bytes and decoded as UTF-8;
    an invalid byte is reported with the path."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


#: Reads a JSON number with a fraction or an exponent as the text the file
#: holds, so that ``_rational_pair`` reads its exact value and not a double.
_JSON_DECODER = json.JSONDecoder(parse_float=str)


def _read_json(path: Path) -> object:
    """The JSON value in the file at ``path``, read as UTF-8 JSON text (RFC
    8259); malformed text, a byte-order mark, nesting too deep to decode and
    an integer past ``int``'s digit limit included, is reported with the
    path."""
    text = _read_text(path)
    try:
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0
            )
        return _JSON_DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_weights(path: str | Path) -> WeightVector:
    """Read a weight allocation from a JSON (default) or .csv file.

    Both are read as UTF-8, JSON as RFC 8259 JSON text; a file that is not
    is reported with its path.
    """
    p = Path(path)
    if p.suffix.lower() == ".csv":
        return _load_weights_csv(_read_text(p), p)
    return _weights_from_dict(_read_json(p), p)


def matrix_to_dict(m: SquareMatrix) -> dict:
    scale, a = m._scaled
    return {
        "order": m.order,
        "entries": [list(_rational_strings(row, scale)) for row in a],
    }


def _entries(path: Path) -> list[list]:
    """The 'entries' grid of a JSON object file, such as an allocation stack."""
    data = _read_json(path)
    if not isinstance(data, dict) or "entries" not in data:
        raise ValueError(f"{path}: needs a JSON object with an 'entries' field")
    return _json_rows(data["entries"], "entries", path)


def load_allocation_rows(path: str | Path) -> list[WeightVector]:
    """Read a d x n stack of allocations (each row sums to 1) from JSON."""
    p = Path(path)
    grid = _entries(p)
    rows = [
        _weight_vector(row, f"{p}: row {i} of 'entries'")
        for i, row in enumerate(grid, 1)
    ]
    if not rows:
        raise ValueError(f"{p}: allocation file has no rows")
    return rows


def _chain_strings(plan: RebalancePlan) -> list[list[str]]:
    """Each intermediate's entries as ``as_strings`` writes them, each list
    made from the one before: a step changes the values of its slots j and
    k only, so only those two are written anew, O(n) text for the plan."""
    row = list(plan.source.as_strings())
    rows = []
    for t, w in zip(plan.steps, plan.intermediates):
        row = row.copy()
        nums = w._nums
        row[t.j], row[t.k] = _rational_strings((nums[t.j], nums[t.k]), w._scale)
        rows.append(row)
    return rows


def plan_to_dict(plan: RebalancePlan, precision: int = 12) -> dict:
    """Serialize a plan; transform indices go out 1-based."""
    practical = plan.practical_turnover
    return {
        "source": weights_to_dict(plan.source),
        "target": weights_to_dict(plan.target),
        "steps": [
            {"j": t.j + 1, "k": t.k + 1, "lambda": _fraction_text(t.lam)}
            for t in plan.steps
        ],
        "intermediates": _chain_strings(plan),
        "turnover": _fraction_text(plan.turnover),
        "practical_turnover": (
            json_float(practical, precision) if practical is not None else None
        ),
        "trades": [
            {"label": label, "delta": _fraction_text(delta)}
            for label, delta in plan.trades
        ],
        "cost": json_float(plan.cost, precision),
        "cost_rate": json_float(plan.cost_rate, precision),
    }


def _json_objects(value: object, field: str, keys: tuple[str, ...]) -> list[dict]:
    """A plan's ``field``: a JSON array of objects that each hold ``keys``."""
    items = _json_array(value, repr(field), "plan data")
    if not all(isinstance(x, dict) and all(k in x for k in keys) for x in items):
        raise ValueError(
            f"plan data: each item of {field!r} must be a JSON object with "
            f"the fields {', '.join(keys)}"
        )
    return items


def _plan_scalar(value: object, what: str, kind: str) -> int | float:
    """``value``, which must be a JSON ``kind``: "integer" or "number".

    Python reads JSON ``true`` as an int; it is neither kind here.
    """
    types = int if kind == "integer" else (int, float)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(
            f"plan data: {what} must be a JSON {kind}, got {type(value).__name__}"
        )
    return value


def plan_from_dict(data: dict) -> RebalancePlan:
    """Rebuild a plan from its JSON form; the file's intermediates, turnover
    and trades must equal the ones the plan derives from its chain."""
    from .matrices import TTransform
    from .rebalancing import RebalancePlan

    source = _weights_from_dict(data["source"], "plan data: 'source'")
    target = _weights_from_dict(data["target"], "plan data: 'target'")
    steps = tuple(
        TTransform(
            _plan_scalar(s["j"], "'j' of a step", "integer") - 1,
            _plan_scalar(s["k"], "'k' of a step", "integer") - 1,
            parse_rational(s["lambda"]),
        )
        for s in _json_objects(data["steps"], "steps", ("j", "k", "lambda"))
    )
    rows = _json_rows(data["intermediates"], "intermediates", "plan data")
    practical = data.get("practical_turnover")
    # The plan is built before the rows are read, so that a row equal to
    # the plan's own text needs no parse; whatever building raises, of any
    # type, is raised after the rows and the other fields are read, where
    # it always was, so a malformed row is still reported first.
    try:
        plan = RebalancePlan(
            source=source,
            target=target,
            steps=steps,
            practical_turnover=(
                float(_plan_scalar(practical, "'practical_turnover'", "number"))
                if practical is not None
                else None
            ),
            cost=float(_plan_scalar(data["cost"], "'cost'", "number")),
            cost_rate=float(_plan_scalar(data["cost_rate"], "'cost_rate'", "number")),
        )
    except Exception as exc:
        fault, chain = exc, []
    else:
        fault, chain = None, _chain_strings(plan)
    # any other row ("2/4", a JSON number, a tampered entry) is parsed and
    # compared by value; every intermediate carries the source's labels, as
    # replaying the steps on the source does
    parsed = {}
    for i, row in enumerate(rows):
        if i >= len(chain) or row != chain[i]:
            where = f"plan data: row {i + 1} of 'intermediates'"
            parsed[i] = _weight_vector(row, where, source.labels, where)
    turnover = parse_rational(data["turnover"])
    trades = [
        (t["label"], parse_rational(t["delta"]))
        for t in _json_objects(data["trades"], "trades", ("label", "delta"))
    ]
    if not 0 <= turnover <= 1:
        raise ValueError("turnover must lie in [0, 1]")
    if len(rows) != len(steps):
        raise ValueError("need exactly one intermediate per step")
    if fault is not None:
        raise fault
    # both carry the source's labels, so the integer views decide
    if any(w != plan.intermediates[i] for i, w in parsed.items()):
        raise ValueError("intermediate does not match its step")
    if turnover != plan.turnover:
        raise ValueError("turnover does not match source and target")
    if [delta for _, delta in trades] != [delta for _, delta in plan.trades]:
        raise ValueError("trades must equal target minus source")
    if [label for label, _ in trades] != [label for label, _ in plan.trades]:
        raise ValueError("trade labels must be the source's slot labels")
    return plan


def write_text(text: str, out: str | Path | None) -> None:
    """Send rendered output to a file or stdout."""
    if out is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


__all__ = [
    "parse_rational",
    "format_float",
    "json_float",
    "weights_to_dict",
    "weights_from_dict",
    "load_weights",
    "matrix_to_dict",
    "load_allocation_rows",
    "plan_to_dict",
    "plan_from_dict",
    "write_text",
]
