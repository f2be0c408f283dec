"""Numerical solver and verification suite for second-order quadratic
mean-field games with an aggregating local coupling -sigma * m^alpha.

The solver iterates the Hopf-Cole fixed-point map (a backward linear heat
equation for the transformed value, a forward Fokker-Planck march for the
density) and reports convergence as a verdict. Diagnostics check the
conserved energy, the second-moment identities, and the analytic
non-existence certificates that rule out classical solutions beyond a
critical horizon.
"""

from .diagnostics import (
    AprioriReport,
    Certificate,
    EnergyReport,
    MomentReport,
    PlanningCertificate,
    check_moment_identity,
    compute_apriori,
    compute_e0,
    compute_energy,
    compute_nonexistence_certificate,
    compute_planning_certificate,
    e0_terms,
    nonexistence_horizon,
    planning_horizon,
)
from .discretization import Grid, integrate, integrate_space_time
from .errors import (
    ConfigError,
    KernelNormDivergenceError,
    PositivityError,
    SchemeViolationError,
    SolverError,
)
from .parabolic import (
    HeatKernelQuery,
    KernelNormResult,
    analytic_kernel_exponent,
    heat_kernel_spacetime_norm,
    solve_backward_heat,
    solve_fokker_planck,
)
from .problem import (
    ConditionReport,
    CouplingSpec,
    DataSpec,
    GaussianMixture,
    PotentialSpec,
    ProblemSpec,
    TerminalCostSpec,
    check_structural_conditions,
    sample_on_grid,
)
from .solver import (
    SolveOutcome,
    SolverConfig,
    hopf_cole,
    inverse_hopf_cole,
    picard_map,
    self_consistency_residual,
    solve,
)

__version__ = "1.0.0"

__all__ = [
    "AprioriReport",
    "Certificate",
    "ConditionReport",
    "ConfigError",
    "CouplingSpec",
    "DataSpec",
    "EnergyReport",
    "GaussianMixture",
    "Grid",
    "HeatKernelQuery",
    "KernelNormDivergenceError",
    "KernelNormResult",
    "MomentReport",
    "PlanningCertificate",
    "PositivityError",
    "PotentialSpec",
    "ProblemSpec",
    "SchemeViolationError",
    "SolveOutcome",
    "SolverConfig",
    "SolverError",
    "TerminalCostSpec",
    "analytic_kernel_exponent",
    "check_moment_identity",
    "check_structural_conditions",
    "compute_apriori",
    "compute_e0",
    "compute_energy",
    "compute_nonexistence_certificate",
    "compute_planning_certificate",
    "e0_terms",
    "heat_kernel_spacetime_norm",
    "hopf_cole",
    "integrate",
    "integrate_space_time",
    "inverse_hopf_cole",
    "nonexistence_horizon",
    "picard_map",
    "planning_horizon",
    "sample_on_grid",
    "self_consistency_residual",
    "solve",
    "solve_backward_heat",
    "solve_fokker_planck",
]
