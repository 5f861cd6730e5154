"""The package namespace: its public names, read from their defining
modules on access, and an import that loads none of those modules."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import naivediv

PUBLIC = [
    # errors
    "DimensionMismatch", "DomainError", "IndexOutOfRange", "LengthMismatch",
    "NotInPolytope", "NotMajorized", "UnknownMeasure",
    # matrices
    "DoublyStochasticMatrix", "SquareMatrix", "TTransform", "apply", "apply_transform",
    "averaging_step_count", "compose", "d_stochastic_witness", "hlp_witness",
    "is_d_stochastic", "is_doubly_stochastic", "is_permutation", "muirhead_decompose",
    "multivariate_feasible", "random_doubly_stochastic", "uniform_mixing_matrix",
    # measures
    "AxiomReport", "Direction", "MeasureSpec", "axiom_suite", "evaluate", "exact_value",
    "get_measure", "index_value", "registry", "schur_ostrowski_check",
    "schur_ostrowski_report",
    # preferences
    "PreferenceOutcome", "aversion_squared", "inequality_aversion_coefficient",
    "more_is_better_chain", "naive_prefer", "relative_naive_prefer",
    # rebalancing
    "RebalancePlan", "example_family", "frobenius_distance_squared",
    "min_permutation_distance_squared", "minimal_turnover_plan", "polytope_membership",
    "practical_turnover", "rebalance_to", "turnover",
    # simplex
    "LorenzCurve", "MajorizationRelation", "WeightVector", "compare",
    "decreasing_rearrangement", "lorenz_curve", "lorenz_dominates", "majorizes",
    "random_majorization_pair", "random_weight_vector", "uniform_vector", "weight_vector",
]


def test_all_is_pinned():
    assert naivediv.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_its_defining_modules_binding(name):
    obj = getattr(naivediv, name)
    assert obj.__module__.startswith("naivediv.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_and_dir_expose_every_name():
    namespace = {}
    exec("from naivediv import *", namespace)
    assert all(namespace[name] is getattr(naivediv, name) for name in PUBLIC)
    listed = dir(naivediv)
    assert set(PUBLIC) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(naivediv, "no_such_name")
    with pytest.raises(ImportError):
        exec("from naivediv import no_such_name", {})


def test_patch_on_the_defining_module_shows_through(monkeypatch):
    import naivediv.simplex

    original = naivediv.simplex.compare

    def patched(alpha, beta):
        return original(alpha, beta)

    monkeypatch.setattr(naivediv.simplex, "compare", patched)
    assert naivediv.compare is patched
    monkeypatch.undo()
    assert naivediv.compare is original
    # nothing was cached in the package that could outlive the patch
    assert "compare" not in vars(naivediv)


@pytest.mark.parametrize(
    ("statement", "loaded"),
    [
        ("import naivediv", ["naivediv"]),
        ("import naivediv.simplex", ["naivediv", "naivediv.errors", "naivediv.simplex"]),
    ],
)
def test_import_loads_only_the_named_module(statement, loaded):
    script = (
        f"{statement}; import sys; "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'naivediv'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == loaded


SOURCES = Path(naivediv.__file__).parent
#: the lattice sampler's private parts, which only its own module may name
SAMPLER_PRIVATES = {"_sampler_counts", "_below", "_pick_two", "_SAMPLER_LATTICE"}


def _identifiers(tree):
    """Every name a module's syntax mentions: variables, attributes, imported
    names and definitions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def _imported_modules(tree):
    """Each module an import names, also inside a function: ``from .x import
    y`` gives ``x`` and ``x.y``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}".lstrip(".") for alias in node.names)


def test_only_simplex_names_the_sampler_privates():
    naming = {
        path.name
        for path in SOURCES.glob("*.py")
        if SAMPLER_PRIVATES & set(_identifiers(ast.parse(path.read_text())))
    }
    assert naming == {"simplex.py"}


def test_measures_imports_nothing_from_matrices():
    tree = ast.parse((SOURCES / "measures.py").read_text())
    imported = list(_imported_modules(tree))
    assert "simplex" in imported
    assert not any("matrices" in name.split(".") for name in imported)


def _callee(call):
    """The name a call calls: ``f`` of ``f(x)`` and of ``m.f(x)``."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


#: The json functions that can write indented text.
JSON_WRITERS = {"dump", "dumps", "JSONEncoder"}


def _indented_json_writers(tree):
    """The name of the function around each call of a json writer with an
    ``indent`` argument ("" at module level)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            name = _callee(node)
            if name in JSON_WRITERS and any(k.arg in ("indent", None) for k in node.keywords):
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_the_checker_sees_an_indented_json_writer():
    source = "import json\ndef f(x):\n    return json.dumps(x, indent=2)\n"
    assert _indented_json_writers(ast.parse(source)) == ["f"]
    assert _indented_json_writers(ast.parse("json.dumps(x)")) == []


def test_only_the_cli_writer_writes_indented_json():
    # every JSON answer goes through cli._render_json, which writes it
    # without json.dumps; a compact json.dumps (multi-check's witness in
    # table and csv format) stays allowed
    writers = {
        (path.name, where)
        for path in SOURCES.glob("*.py")
        for where in _indented_json_writers(ast.parse(path.read_text()))
    }
    assert writers <= {("cli.py", "_render_json")}


#: The calls that write text out.
OUTPUT_WRITERS = {"print", "write_text", "_emit"}


def _output_calls(tree):
    """(function, callee) for each call of an output writer in a top-level
    function of ``tree``."""
    return [
        (function.name, _callee(node))
        for function in tree.body
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and _callee(node) in OUTPUT_WRITERS
    ]


def test_only_main_writes_an_answer():
    # each subcommand returns its answer as text and main writes it once;
    # main prints only error messages
    tree = ast.parse((SOURCES / "cli.py").read_text())
    handlers = [
        f.name for f in tree.body
        if isinstance(f, ast.FunctionDef) and f.name.startswith("_cmd_")
    ]
    assert len(handlers) == 8
    calls = _output_calls(tree)
    assert not [call for call in calls if call[0] in handlers]
    assert [call for call in calls if call[1] == "write_text"] == [("main", "write_text")]
    source = "def _cmd_x(args):\n    print(args)\ndef main():\n    fileio.write_text(1, 2)\n"
    assert _output_calls(ast.parse(source)) == [("_cmd_x", "print"), ("main", "write_text")]
