"""naivediv: exact-arithmetic toolkit for equal-weight allocation preferences.

The core objects are rational weight vectors on the simplex, the
majorization preorder that ranks them by concentration, doubly stochastic
matrices as the averaging operators realizing that order, concentration
measures with an axiom harness, and minimal-turnover rebalancing plans.
"""

from .errors import (
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
    LengthMismatch,
    NotInPolytope,
    NotMajorized,
    UnknownMeasure,
)
from .matrices import (
    DoublyStochasticMatrix,
    SquareMatrix,
    TTransform,
    apply,
    apply_transform,
    averaging_step_count,
    compose,
    d_stochastic_witness,
    hlp_witness,
    is_d_stochastic,
    is_doubly_stochastic,
    is_permutation,
    muirhead_decompose,
    multivariate_feasible,
    random_doubly_stochastic,
    random_majorization_pair,
    t_to_matrix,
    uniform_mixing_matrix,
)
from .measures import (
    AxiomReport,
    Direction,
    MeasureSpec,
    axiom_suite,
    concave_sum_rank,
    evaluate,
    exact_value,
    get_measure,
    index_value,
    registry,
    schur_ostrowski_check,
    schur_ostrowski_report,
)
from .preferences import (
    PreferenceOutcome,
    aversion_squared,
    equal_weights,
    inequality_aversion_coefficient,
    more_is_better_chain,
    naive_prefer,
    relative_naive_prefer,
)
from .rebalancing import (
    RebalancePlan,
    TurnoverVector,
    example_family,
    frobenius_distance_squared,
    min_permutation_distance_squared,
    minimal_turnover_plan,
    polytope_membership,
    practical_turnover,
    rebalance_to,
    sample_polytope,
    turnover,
    turnover_vector,
)
from .simplex import (
    LorenzCurve,
    MajorizationRelation,
    WeightVector,
    compare,
    decreasing_rearrangement,
    lorenz_curve,
    lorenz_dominates,
    majorizes,
    random_weight_vector,
    uniform_vector,
    weight_vector,
)

__version__ = "0.1.0"
