"""The package namespace: its public names, read from their defining
modules on access, and an import that loads none of those modules."""

import subprocess
import sys

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
    "multivariate_feasible", "random_doubly_stochastic", "random_majorization_pair",
    "t_to_matrix", "uniform_mixing_matrix",
    # measures
    "AxiomReport", "Direction", "MeasureSpec", "axiom_suite", "concave_sum_rank",
    "evaluate", "exact_value", "get_measure", "index_value", "registry",
    "schur_ostrowski_check", "schur_ostrowski_report",
    # preferences
    "PreferenceOutcome", "aversion_squared", "equal_weights",
    "inequality_aversion_coefficient", "more_is_better_chain", "naive_prefer",
    "relative_naive_prefer",
    # rebalancing
    "RebalancePlan", "TurnoverVector", "example_family", "frobenius_distance_squared",
    "min_permutation_distance_squared", "minimal_turnover_plan", "polytope_membership",
    "practical_turnover", "rebalance_to", "sample_polytope", "turnover", "turnover_vector",
    # simplex
    "LorenzCurve", "MajorizationRelation", "WeightVector", "compare",
    "decreasing_rearrangement", "lorenz_curve", "lorenz_dominates", "majorizes",
    "random_weight_vector", "uniform_vector", "weight_vector",
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
