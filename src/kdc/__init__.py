"""Distributed kernel regression with SGM and spectral algorithms on
synthetic problems whose excess risk is computable in closed form."""
from ._version import __version__
from .errors import (
    ConstraintViolationError,
    DegenerateInputError,
    DivergenceError,
    DomainError,
    EigendecompositionError,
    IndivisibleDataError,
    InsufficientDataError,
    InvalidParameterError,
    InvalidRegimeError,
    KdcError,
    KernelMismatchError,
)
from .evaluation import (
    DecompositionReport,
    RateFit,
    decompose_error,
    excess_risk_exact,
    fit_rate,
    mode_projection,
    theory_exponent,
)
from .filters import (
    FilterSpec,
    FilterValidationReport,
    apply_filter,
    filter_from_tag,
    filter_value,
    landweber,
    validate_filter,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    emit_rate_table,
    records_from_csv,
    records_to_csv,
    resolve_m,
    run_experiment,
)
from .kernels import (
    KernelSpec,
    gram,
    kernel_cross,
    spectral_kernel,
    sym_eigendecompose,
)
from .seeding import derive_seed, partition_stream_seed, splitmix64
from .spectral_model import (
    Dataset,
    SpectralProblem,
    basis_matrix,
    build_problem,
    capacity_certificate,
    dataset_to_csv,
    effective_dimension,
    problem_from_json,
    problem_to_json,
    regression_value,
    sample_dataset,
    sup_norm_bound,
)
from .trainers import (
    Constant,
    Model,
    SgmConfig,
    StepConditionReport,
    TrainPlan,
    average_models,
    check_step_condition,
    distributed_sa,
    distributed_sgm,
    gm_local,
    partition_data,
    plan_parameters,
    predict,
    resolve_schedule,
    sa_local,
    sgm_local,
)
