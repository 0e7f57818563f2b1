"""Quantum discord, classical correlation and correlation bounds for two-qubit states."""

from .bounds import (
    BoundReport,
    ScanRow,
    perp_subspace,
    rows_to_csv,
    t0_squared,
    theorem1_bounds,
)
from .closed_forms import (
    ABState,
    BellDiagonalDiscord,
    ClassTag,
    StateKind,
    ab_discord,
    ab_q,
    ab_state,
    bell_diagonal_discord,
    bell_diagonal_state,
    classify,
    kernel_class_min_entropy,
    sample_bell_diagonal,
    sample_kernel_class,
    x_subclass_discord,
)
from .entropy import (
    binary_entropy,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    shannon_entropy,
    von_neumann_entropy,
)
from .errors import NotAStateError, ValidationError, WrongClassError, ZeroProbabilityError
from .measurement import (
    MeasurementDirection,
    MeasurementProbabilities,
    PostMeasurementState,
    conditional_entropy,
    conditional_entropy_batch,
    conditional_entropy_direct,
    direction_from_angles,
    joint_probabilities,
    outcome_probabilities,
    post_measurement_state,
    projector_bloch,
)
from .optimize import (
    DiscordReport,
    StationaryDiagnostics,
    StationaryPoint,
    bound_comparison_scan,
    classical_correlation,
    grid_minimize,
    minimize_conditional_entropy,
    quantum_discord,
    refine_minimum,
    stationary_scan,
    stationary_vector,
)
from .states import (
    BlochTriple,
    CanonicalForm,
    StateDiagnostics,
    apply_local_rotations,
    bloch_rotation,
    canonicalize,
    marginals,
    matrix_from_triple,
    mutual_information,
    random_state,
    random_unitary,
    reduced_states,
    triple_from_matrix,
    validate,
)

__version__ = "0.1.0"
