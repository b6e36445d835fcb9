"""Penalty-continuation solver for constrained geodesics and drift controls.

The package splits along the pipeline: ``geometry`` defines metric fields,
frames, and projections; ``functionals`` the discrete paths and energies;
``optimizer`` the quasi-Newton solver and continuation loop; ``drift`` the
flow lift that turns steering problems into geodesic ones; ``diagnostics``
the convergence witnesses; ``problems`` the built-in benchmarks; ``cli`` the
batch front end.
"""

__version__ = "0.1.0"

from .diagnostics import (
    CauchyReport,
    CauchyStep,
    ConvergenceReport,
    NotHorizontalError,
    QRecord,
    distance_chain_report,
    minimizer_cauchy_report,
    pointwise_affine_check,
    recovery_sequence_check,
)
from .drift import (
    DriftField,
    DriftSolveResult,
    FlowMap,
    LiftedStructure,
    build_lifted_structure,
    constant_drift,
    linear_drift,
    solve_drift_problem,
    zero_drift,
)
from .functionals import (
    DiscretePath,
    FunctionalValue,
    energy,
    horizontality_defect,
    length,
    limit_energy,
    semimetric_rho,
)
from .geometry import (
    DegenerateFrameError,
    FrameField,
    MetricField,
    SubRiemannianStructure,
    check_penalty,
    field_jacobian,
    lie_bracket,
    penalized_forms,
    penalized_gram,
    project_horizontal,
    validate_bracket_generating,
    validate_structure,
)
from .optimizer import (
    ContinuationSchedule,
    SolveResult,
    SolverConfig,
    StepUnderflowError,
    continuation_solve,
    energy_gradient,
    minimize_energy,
)
from .problems import (
    Problem,
    euclidean_structure,
    get_problem,
    heisenberg_structure,
    heisenberg_vertical_distance,
    martinet_structure,
    problem_names,
    sinusoidal_deflection,
    vertical_heisenberg_problem,
)

__all__ = [
    "__version__",
    "CauchyReport",
    "CauchyStep",
    "ConvergenceReport",
    "NotHorizontalError",
    "QRecord",
    "distance_chain_report",
    "minimizer_cauchy_report",
    "pointwise_affine_check",
    "recovery_sequence_check",
    "DriftField",
    "DriftSolveResult",
    "FlowMap",
    "LiftedStructure",
    "build_lifted_structure",
    "constant_drift",
    "linear_drift",
    "solve_drift_problem",
    "zero_drift",
    "DiscretePath",
    "FunctionalValue",
    "energy",
    "horizontality_defect",
    "length",
    "limit_energy",
    "semimetric_rho",
    "DegenerateFrameError",
    "FrameField",
    "MetricField",
    "SubRiemannianStructure",
    "check_penalty",
    "field_jacobian",
    "lie_bracket",
    "penalized_forms",
    "penalized_gram",
    "project_horizontal",
    "validate_bracket_generating",
    "validate_structure",
    "ContinuationSchedule",
    "SolveResult",
    "SolverConfig",
    "StepUnderflowError",
    "continuation_solve",
    "energy_gradient",
    "minimize_energy",
    "Problem",
    "euclidean_structure",
    "get_problem",
    "heisenberg_structure",
    "heisenberg_vertical_distance",
    "martinet_structure",
    "problem_names",
    "sinusoidal_deflection",
    "vertical_heisenberg_problem",
]
