"""State-vector simulator, analytics and verification suite for Grover search."""

from .factorization import (
    CurvePoint,
    FactorResult,
    MultipleSolutionsError,
    NoSolutionError,
    build_factor_instance,
    curve_to_csv,
    probability_curve,
    run_factor_search,
)
from .grover import (
    GroverAngles,
    GroverInstance,
    OptimalIterations,
    closed_form_state,
    diffusion,
    grover_angles,
    grover_operator,
    max_t_in_period,
    monotonic_decrease_range,
    monotonic_increase_range,
    optimal_iterations,
    oracle,
    state_after_iterations,
    success_probability,
    tau_perp,
    uniform_superposition,
)
from .linalg import (
    DimensionMismatchError,
    is_unitary,
    matmul,
    tensor_product_list,
)
from .states import (
    NormalizationError,
    QState,
    basis_state,
    hadamard,
    make_qstate,
    measurement_probability,
    projector,
    sample_measurement,
)
from .verification import (
    CHECK_IDS,
    CheckResult,
    VerificationConfig,
    VerificationReport,
    run_all,
    run_check,
)

__version__ = "0.1.0"
