"""naivediv: exact-arithmetic toolkit for equal-weight allocation preferences.

The core objects are rational weight vectors on the simplex, the
majorization preorder that ranks them by concentration, doubly stochastic
matrices as the averaging operators realizing that order, concentration
measures with an axiom harness, and minimal-turnover rebalancing plans.

Importing the package loads none of its modules.  Each public name is
read from its defining module on every access (PEP 562 ``__getattr__``),
so a process loads only what it uses, and a name patched on its module
is seen patched here too.
"""

import importlib

#: Each public name of the package, by the module that defines it.
_EXPORTS = {
    "errors": (
        "DimensionMismatch",
        "DomainError",
        "IndexOutOfRange",
        "LengthMismatch",
        "NotInPolytope",
        "NotMajorized",
        "UnknownMeasure",
    ),
    "matrices": (
        "DoublyStochasticMatrix",
        "SquareMatrix",
        "TTransform",
        "apply",
        "apply_transform",
        "averaging_step_count",
        "compose",
        "d_stochastic_witness",
        "hlp_witness",
        "is_d_stochastic",
        "is_doubly_stochastic",
        "is_permutation",
        "muirhead_decompose",
        "multivariate_feasible",
        "random_doubly_stochastic",
        "uniform_mixing_matrix",
    ),
    "measures": (
        "AxiomReport",
        "Direction",
        "MeasureSpec",
        "axiom_suite",
        "evaluate",
        "exact_value",
        "get_measure",
        "index_value",
        "registry",
        "schur_ostrowski_check",
        "schur_ostrowski_report",
    ),
    "preferences": (
        "PreferenceOutcome",
        "aversion_squared",
        "inequality_aversion_coefficient",
        "more_is_better_chain",
        "naive_prefer",
        "relative_naive_prefer",
    ),
    "rebalancing": (
        "RebalancePlan",
        "example_family",
        "frobenius_distance_squared",
        "min_permutation_distance_squared",
        "minimal_turnover_plan",
        "polytope_membership",
        "practical_turnover",
        "rebalance_to",
        "turnover",
    ),
    "simplex": (
        "LorenzCurve",
        "MajorizationRelation",
        "WeightVector",
        "compare",
        "decreasing_rearrangement",
        "lorenz_curve",
        "lorenz_dominates",
        "majorizes",
        "random_majorization_pair",
        "random_weight_vector",
        "uniform_vector",
        "weight_vector",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached in the package's globals: the defining module's binding is
    # read each time, so a wrapper patched onto it and later removed cannot
    # outlive the patch here.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
