"""Spans around naivediv's public functions, installed from outside the library.

``install`` wraps every public function of the traced modules and rebinds
the wrapper in every namespace of the package that holds the function.
``from .x import f`` copies the binding, so a module that imported ``f``
would otherwise call the bare function: the child span would go missing
and its time would be charged to the caller.

A span records its name, start, end, parent span and operation id.  Spans
live in column arrays while the run lasts and are written out at the end.
Counters that the per-layer metrics need (input sizes, denominator
bit-lengths, LP tableau sizes) are read from the call's arguments and
result after the span has closed, so they do not count as its time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

TRACED_MODULES = (
    "cli", "fileio", "simplex", "matrices", "lp", "measures", "preferences", "rebalancing",
)
#: Per-entry scalar helpers run once for every number read or written; a
#: span each would cost more than the work it measures, so they stay bare.
UNTRACED = {"simplex.as_fraction", "fileio.parse_rational", "fileio.format_float", "fileio.json_float"}
#: The float assignment solver; a span here under
#: ``min_permutation_distance_squared`` means floats picked the permutation.
SCIPY_ASSIGNMENT = "scipy.optimize.linear_sum_assignment"


def _den_bits(values) -> int:
    return max((x.denominator.bit_length() for x in values), default=0)


def _vector_sizes(tracer, idx, args, result):
    for w in args[:2]:
        tracer.maxima["simplex.input_n"] = max(tracer.maxima["simplex.input_n"], w.n)
        tracer.maxima["simplex.input_den_bits"] = max(
            tracer.maxima["simplex.input_den_bits"], _den_bits(w.weights)
        )


def _measure_tag(tracer, idx, args, result):
    spec = args[0]
    tracer.tags[idx] = spec.id if spec.exact is not None else "float"


def _file_bytes(tracer, idx, args, result):
    tracer.totals["fileio.load_weights.bytes"] += os.path.getsize(args[0])


def _tableau(tracer, idx, args, result):
    rows = args[0]
    m = len(rows)
    nvars = len(rows[0]) if m else 0
    tracer.totals["lp.tableau_cells"] += m * (nvars + m + 1)
    tracer.totals["lp.feasible"] += result is not None


def _witness_bits(tracer, idx, args, result):
    if result is not None:
        bits = _den_bits(e for row in result.rows for e in row)
        tracer.maxima["matrices.witness_den_bits"] = max(tracer.maxima["matrices.witness_den_bits"], bits)


def _chain_steps(tracer, idx, args, result):
    tracer.totals["matrices.muirhead_decompose.steps"] += len(result)


def _assignment_bits(tracer, idx, args, result):
    bits = _den_bits(e for row in args[0].rows for e in row)
    key = "rebalancing.assignment_den_bits"
    tracer.maxima[key] = max(tracer.maxima[key], bits)


OBSERVERS = {
    "simplex.compare": _vector_sizes,
    "simplex.majorizes": _vector_sizes,
    "simplex.lorenz_curve": _vector_sizes,
    "measures.evaluate": _measure_tag,
    "fileio.load_weights": _file_bytes,
    "lp.solve_equality_feasibility": _tableau,
    "matrices.multivariate_feasible": _witness_bits,
    "matrices.d_stochastic_witness": _witness_bits,
    "matrices.muirhead_decompose": _chain_steps,
    "rebalancing.min_permutation_distance_squared": _assignment_bits,
}


class Tracer:
    """In-memory span store; ``op_id`` is set by the caller before each operation."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, str] = {}
        self.maxima: dict[str, int] = defaultdict(int)
        self.totals: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, idx, args, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [e - s - c for s, e, c in zip(self.start, self.end, child)]

    def aggregate(self, ops: set[int] | None = None) -> dict[str, list[float]]:
        """name -> [self seconds, calls]; tagged spans also add to ``name.tag``."""
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        for i, own in enumerate(self.self_times()):
            if ops is not None and self.op[i] not in ops:
                continue
            name = self.names[self.name[i]]
            for key in (name, f"{name}.{self.tags[i]}" if i in self.tags else None):
                if key is not None:
                    out[key][0] += own
                    out[key][1] += 1
        return out

    def parents_of(self, child_name: str) -> set[int]:
        """Indices of spans that have a direct child named ``child_name``."""
        if child_name not in self._name_ids:
            return set()
        cid = self._name_ids[child_name]
        return {self.parent[i] for i, n in enumerate(self.name) if n == cid}

    def spans_named(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        return [i for i, n in enumerate(self.name) if n == nid]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\top\tparent\tname\ttag\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.op[i]}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.tags.get(i, '')}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def traced_functions(package) -> dict:
    """Every public function defined in a traced module, by span name,
    except the scalar helpers in UNTRACED."""
    out = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"{package.__name__}.{short}"]
        for attr, obj in vars(module).items():
            name = f"{short}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in UNTRACED
            ):
                out[name] = obj
    return out


def package_namespaces(package) -> list:
    prefix = package.__name__ + "."
    return [package] + [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)]


def install(tracer: Tracer, package):
    """Wrap the traced functions in every namespace that binds them.

    Returns a function that puts the original bindings back.
    """
    wrappers = {
        fn: tracer.wrap(name, fn, OBSERVERS.get(name))
        for name, fn in traced_functions(package).items()
    }
    patches = []
    for namespace in package_namespaces(package):
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(namespace, attr, wrappers[obj])
                patches.append((namespace, attr, obj))
    try:
        import scipy.optimize as optimize
    except ImportError:
        optimize = None
    if optimize is not None:
        original = optimize.linear_sum_assignment
        optimize.linear_sum_assignment = tracer.wrap(SCIPY_ASSIGNMENT, original)
        patches.append((optimize, "linear_sum_assignment", original))

    def undo() -> None:
        for namespace, attr, obj in reversed(patches):
            setattr(namespace, attr, obj)

    return undo


def unwrapped_bindings(package, originals) -> list[str]:
    """Bindings that still point at one of ``originals``, the bare functions
    that ``traced_functions`` returned before ``install``."""
    originals = set(originals)
    return [
        f"{namespace.__name__}.{attr}"
        for namespace in package_namespaces(package)
        for attr, obj in vars(namespace).items()
        if inspect.isfunction(obj) and obj in originals
    ]
