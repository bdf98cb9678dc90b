"""Waypoint-tracking control environment on the relative-motion dynamics.

A deputy must fly to a goal point fixed in the Hill frame.  Actions are
per-axis thrust commands in [-1, 1] scaled by the vehicle thrust bound and
held for one control interval.  Episodes end on arrival, on leaving the
station-keeping box, or on timeout.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    ChiefOrbit,
    RelativeState,
    VehicleParams,
    propagate_cwh,
)

TRAINING_ACCEPTANCE_RADIUS = 10.0
"""Arrival radius used during training, m."""

DEFAULT_TIMEOUT = 500.0
"""Episode wall-clock limit, s."""

DEFAULT_BOUNDS = (561.6, 1200.0, 480.0)
"""Half-extent of the allowed station-keeping box per axis, m."""

DEFAULT_SCALE_VECTOR = (1.17, 2.5, 1.0)
"""Per-axis stretch applied to sampled start and goal positions."""

DEFAULT_SAMPLE_HALF_EXTENT = 240.0
"""Half-extent of the uniform cube sampled before stretching, m."""

OBS_POSITION_SCALE = 1000.0
"""Divisor applied to the goal offset in observations, m."""


class Status(enum.Enum):
    RUNNING = "running"
    REACHED = "reached"
    OUT_OF_BOUNDS = "out_of_bounds"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class RewardParams:
    """Coefficients of the shaped tracking reward.

    The reward is goal_weight / (d + 1) plus progress_weight times the
    decrease in goal distance, minus speed_penalty_weight times the 1-norm of
    velocity whenever speed exceeds the distance-proportional limit
    speed_limit_margin * speed_limit_slope * d.
    """

    goal_weight: float = 1e-3
    progress_weight: float = 1e-2
    speed_penalty_weight: float = 1e-2
    speed_limit_slope: float = 0.308
    speed_limit_margin: float = 1.0


@dataclass
class WaypointTask:
    """A single goal point with its arrival radius and time budget."""

    goal: np.ndarray
    acceptance_radius: float = TRAINING_ACCEPTANCE_RADIUS
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        self.goal = np.asarray(self.goal, dtype=float)
        if self.goal.shape != (3,):
            raise ValueError("goal must be a 3-vector")
        if self.acceptance_radius <= 0.0:
            raise ValueError("acceptance_radius must be positive")
        if self.timeout <= 0.0:
            raise ValueError("timeout must be positive")


@dataclass
class EpisodeConfig:
    """Episode timing, sampling geometry, and reward coefficients."""

    dt: float = 1.0
    timeout: float = DEFAULT_TIMEOUT
    scale_vector: tuple = DEFAULT_SCALE_VECTOR
    sample_half_extent: float = DEFAULT_SAMPLE_HALF_EXTENT
    bounds: tuple = DEFAULT_BOUNDS
    reward: RewardParams = field(default_factory=RewardParams)
    substeps: int = 1

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.timeout <= 0.0:
            raise ValueError("timeout must be positive")
        if len(self.scale_vector) != 3 or len(self.bounds) != 3:
            raise ValueError("scale_vector and bounds must have 3 entries")


@dataclass
class Observation:
    """Policy input: goal offset scaled to ~unit range, plus raw velocity."""

    scaled_delta: np.ndarray
    vel: np.ndarray

    def vector(self) -> np.ndarray:
        return np.concatenate([self.scaled_delta, self.vel])


@dataclass
class StepOutcome:
    state: RelativeState
    obs: Observation
    reward: float
    status: Status


def sample_episode(rng: np.random.Generator, cfg: EpisodeConfig):
    """Draw a start state (at rest) and a goal position.

    Both are uniform over a cube of half-extent ``cfg.sample_half_extent``
    stretched per-axis by ``cfg.scale_vector``.
    """
    scale = np.asarray(cfg.scale_vector, dtype=float)
    ext = cfg.sample_half_extent
    start = scale * rng.uniform(-ext, ext, 3)
    goal = scale * rng.uniform(-ext, ext, 3)
    return RelativeState(start, np.zeros(3)), goal


def observe(state: RelativeState, goal) -> Observation:
    goal = np.asarray(goal, dtype=float)
    return Observation((state.pos - goal) / OBS_POSITION_SCALE, state.vel.copy())


def _norm(vec: np.ndarray) -> float:
    """Euclidean norm of a float vector, as np.linalg.norm computes it."""
    return math.sqrt(vec.dot(vec))


def _reward(dist: float, prev_dist: float, vel: np.ndarray,
            params: RewardParams) -> float:
    value = params.goal_weight / (dist + 1.0)
    value += params.progress_weight * (prev_dist - dist)
    speed_limit = params.speed_limit_margin * params.speed_limit_slope * dist
    if _norm(vel) > speed_limit:
        value -= params.speed_penalty_weight * float(np.sum(np.abs(vel)))
    return value


def reward(cur_pos, prev_pos, vel, goal, params: RewardParams) -> float:
    """Shaped tracking reward; see :class:`RewardParams` for the terms."""
    goal = np.asarray(goal, dtype=float)
    return _reward(_norm(np.asarray(cur_pos, dtype=float) - goal),
                   _norm(np.asarray(prev_pos, dtype=float) - goal),
                   np.asarray(vel, dtype=float), params)


def step(state: RelativeState, action, task: WaypointTask, cfg: EpisodeConfig,
         orbit: ChiefOrbit, veh: VehicleParams, elapsed: float) -> StepOutcome:
    """Advance one control interval under a clamped thrust command.

    ``elapsed`` is the episode time before this step; the timeout check uses
    elapsed + dt so an episode never runs past the task's time budget.
    Termination precedence: Reached beats OutOfBounds beats Timeout.
    """
    action = np.clip(np.asarray(action, dtype=float), -1.0, 1.0)
    thrust = veh.thrust_bound * action
    nxt = propagate_cwh(state, thrust, cfg.dt, orbit, veh, substeps=cfg.substeps)
    dist = _norm(nxt.pos - task.goal)
    value = _reward(dist, _norm(state.pos - task.goal), nxt.vel, cfg.reward)

    if dist < task.acceptance_radius:
        status = Status.REACHED
    elif any(abs(p) > b for p, b in zip(nxt.pos.tolist(), cfg.bounds)):
        status = Status.OUT_OF_BOUNDS
    elif elapsed + cfg.dt >= task.timeout:
        status = Status.TIMEOUT
    else:
        status = Status.RUNNING
    return StepOutcome(nxt, observe(nxt, task.goal), value, status)


def rollout(controller, state: RelativeState, task: WaypointTask,
            cfg: EpisodeConfig, orbit: ChiefOrbit, veh: VehicleParams):
    """Run ``controller`` (Observation -> action) until the episode ends.

    Returns (final status, elapsed seconds, final state).
    """
    elapsed = 0.0
    status = Status.RUNNING
    obs = observe(state, task.goal)
    while status is Status.RUNNING:
        out = step(state, controller(obs), task, cfg, orbit, veh, elapsed)
        state, obs, status = out.state, out.obs, out.status
        elapsed += cfg.dt
    return status, elapsed, state
