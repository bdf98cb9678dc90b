"""Spacecraft proximity-operations sandbox.

Relative-motion dynamics, a waypoint-tracking control environment, a small
policy-gradient trainer, a CBF-based runtime-assurance filter with its QP
solver, and a multi-agent scenario harness.
"""

from .dynamics import (
    ChiefOrbit,
    InertialState,
    PropagationError,
    RelativeState,
    VehicleParams,
    cwh_closed_form,
    propagate_cwh,
    propagate_inertial,
)
from .env import EpisodeConfig, Status
from .harness import (
    MetricsReport,
    ScenarioSpec,
    TrajectoryLog,
    baseline_stats,
    run,
    single_agent_passes,
    three_agent_standoff,
)
from .policy import MlpPolicy, baseline_act, load_policy, save_policy
from .qp import QpProblem, QpSolution, solve
from .rta import RtaDecision, RtaParams, filter_actions
from .training import TrainerConfig, evaluate_policy, train

__version__ = "0.1.0"

__all__ = [
    "ChiefOrbit",
    "EpisodeConfig",
    "InertialState",
    "MetricsReport",
    "MlpPolicy",
    "PropagationError",
    "QpProblem",
    "QpSolution",
    "RelativeState",
    "RtaDecision",
    "RtaParams",
    "ScenarioSpec",
    "Status",
    "TrainerConfig",
    "TrajectoryLog",
    "VehicleParams",
    "baseline_act",
    "baseline_stats",
    "cwh_closed_form",
    "evaluate_policy",
    "filter_actions",
    "load_policy",
    "propagate_cwh",
    "propagate_inertial",
    "run",
    "save_policy",
    "single_agent_passes",
    "solve",
    "three_agent_standoff",
    "train",
]
