"""Pseudo-Hermitian invariants for time-dependent generalized Swanson
Hamiltonians: closed-form metric, invariant eigenstates and phases, plus
brute-force propagation oracles and residual meters for every identity."""

from ._version import __version__
from .errors import (
    ConfigError,
    DomainError,
    FormatError,
    GuardError,
    InputError,
    InstabilityError,
    NumericsError,
    TruncationWarning,
)
from .fock import interior_norm, tail_support
from .metric import build_eta, build_rho, build_rho_inverse
from .model import (
    MetricState,
    MetricTrajectory,
    assemble_solution,
    constraint_residuals,
    integrate_metric,
)
from .position import (
    GaussianShape,
    PositionGrid,
    cross_representation_residual,
    orthonormality_matrix,
)
from .propagator import (
    convergence_probe,
    dyson_residual,
    hermitian_image_check,
    hermitian_side_check,
    invariant_residual,
    propagate,
    schrodinger_residual,
)
from .runner import run_scenario, verify_artifacts
from .scenario import (
    DEFAULT_TOLERANCES,
    ScenarioConfig,
    demo_scenarios,
    parse_scenario,
)

__all__ = [
    "ConfigError",
    "DomainError",
    "FormatError",
    "GuardError",
    "InputError",
    "InstabilityError",
    "NumericsError",
    "TruncationWarning",
    "interior_norm",
    "tail_support",
    "build_eta",
    "build_rho",
    "build_rho_inverse",
    "MetricState",
    "MetricTrajectory",
    "assemble_solution",
    "constraint_residuals",
    "integrate_metric",
    "GaussianShape",
    "PositionGrid",
    "cross_representation_residual",
    "orthonormality_matrix",
    "convergence_probe",
    "dyson_residual",
    "hermitian_image_check",
    "hermitian_side_check",
    "invariant_residual",
    "propagate",
    "schrodinger_residual",
    "run_scenario",
    "verify_artifacts",
    "DEFAULT_TOLERANCES",
    "ScenarioConfig",
    "demo_scenarios",
    "parse_scenario",
]
