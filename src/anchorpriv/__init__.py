"""Utility-optimal perturbation mechanisms under lp-norm metric privacy.

Anchor tables are optimized by linear programming on a cell partition of
the secret domain, extended to the continuum by log-convex interpolation,
and compared against closed-form baselines with empirical ratio audits,
task-based utility losses, and a universal lower bound.
"""

from .apo import (
    BudgetVector,
    OutputDomain,
    PerturbationTable,
    SurrogateCoefficients,
    build_aipo_relaxed,
    build_approx_apo,
    build_coarse_lp,
    check_budget,
    lower_bound,
    solve_approx_apo,
    surrogate_coefficients,
)
from .audit import AuditReport, ppr_histogram, violation_ratio
from .budget import equal_split, feasible_allocations, optimize_allocation
from .errors import ConfigError, OutOfDomainError, SolverError
from .evaluation import (
    Instance,
    InstanceSpec,
    LossModel,
    PriorModel,
    RoadGraph,
    expected_loss,
    load_instance,
    save_instance,
    shortest_paths,
    synth_instance,
    task_loss,
)
from .geometry import (
    Partition,
    axis_neighbors,
    corner_weights,
    locate_cells,
    lp_distance_matrix,
)
from .interpolation import Mechanism
from .lpcore import LinearProgram, LpSolution, solve_lp
from .mechanisms import (
    CoarseLpMechanism,
    ExponentialMechanism,
    PlanarLaplaceMechanism,
    RemappedMechanism,
    TruncatedExponentialMechanism,
    bayesian_remap,
)

__version__ = "0.1.0"
