"""Commuting-isometry pairs on truncated spaces: cocycle index, commutants,
unitary equivalence, and grid-induced translation semigroups."""

from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    adjoint_kernel,
    intertwiner_space,
    kron,
    matrix_from_json,
    matrix_to_json,
    nullspace,
    numerical_rank,
)
from .repmodel import (
    IsoRep2,
    ProjectionFamily,
    PurityReport,
    TruncationParams,
    ValidationReport,
    build_projection_family_rep,
    build_reflection_rep,
    default_truncation,
    direct_sum_family,
    reflection_family,
    rep_from_config,
    reparametrize,
    sigma_power,
    strong_purity_check,
    truncated_infinite_reflection_family,
    truncated_shift,
    uniform_profile,
    validate,
)
from .cocycle import (
    Cocycle2,
    CocycleSpace,
    IndexResult,
    InconsistentCocycleError,
    cocycle_space,
    evaluate,
    extend_cocycle,
    family_cocycle_from_vector,
    family_witness_residual,
    index,
    index_formula_projection_family,
    restrict_to_subsemigroup,
)
from .commutant import (
    EquivalenceVerdict,
    are_unitarily_equivalent,
    is_irreducible,
    star_commutant_basis,
    structured_commutant_basis,
    structured_commutant_dim,
    truncated_commutant_oracle,
)
from .induced import (
    GridRep1,
    GridRep2,
    InducedCommutantReport,
    StepCocycle1,
    StepCocycle2,
    adjoint_1d,
    adjoint_2d,
    discrete_cocycle_values,
    grid_cocycle_space_1d,
    induce_1d,
    induce_2d,
    induced_commutant_check_2d,
    lift_cocycle_1d,
    lift_cocycle_2d,
    shift_fiber,
)
from .suites import CheckResult, SuiteReport, induce_report, verify_suite

__version__ = "0.1.0"
