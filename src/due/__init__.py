"""Dynamic user equilibrium with simultaneous route and departure-time choice.

Layers:
  space     discretized path-flow profiles, projections, residuals
  network   instance data model and CSV ingestion
  loading   kinematic-wave dynamic network loading and path delays
  operators delay-operator abstraction plus synthetic test operators
  solvers   FB / FBF / IFBF fixed-point iterations
  metrics   gap and convergence diagnostics
  cli       batch experiment driver
"""

from .loading import effective_delay, run_dnl
from .metrics import ConvergenceLog, od_gap, relative_energy
from .network import Network, load_network, load_network_dir, save_network
from .operators import affine_operator, dnl_operator, scaled_pseudo_monotone
from .solvers import SolverConfig, solve, uniform_start
from .space import (
    DelayProfile,
    ODLayout,
    PathFlowProfile,
    TimeGrid,
    TripTable,
    inner,
    norm,
    project_feasible,
    residual_norm,
)

__all__ = [
    "ConvergenceLog",
    "DelayProfile",
    "Network",
    "ODLayout",
    "PathFlowProfile",
    "SolverConfig",
    "TimeGrid",
    "TripTable",
    "affine_operator",
    "dnl_operator",
    "effective_delay",
    "inner",
    "load_network",
    "load_network_dir",
    "norm",
    "od_gap",
    "project_feasible",
    "relative_energy",
    "residual_norm",
    "run_dnl",
    "save_network",
    "scaled_pseudo_monotone",
    "solve",
    "uniform_start",
]

__version__ = "0.1.0"
