"""Waypoint-tracking control environment on the relative-motion dynamics.

A deputy must fly to a goal point fixed in the Hill frame.  Actions are
per-axis thrust commands in [-1, 1] scaled by the vehicle thrust bound and
held for one control interval.  Episodes end on arrival, on leaving the
station-keeping box, or on timeout.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import (  # noqa: F401 - propagate_cwh stays an env attribute for perfbench's tracer
    ChiefOrbit,
    RelativeState,
    VehicleParams,
    propagate_cwh,
    propagate_cwh_zoh,
)

TRAINING_ACCEPTANCE_RADIUS = 10.0
"""Arrival radius of a sampled waypoint episode, m."""

DEFAULT_TIMEOUT = 500.0
"""Default time budget of an episode or scenario leg, simulated s."""

DEFAULT_BOUNDS = np.array([561.6, 1200.0, 480.0])
"""Half-extent of the allowed station-keeping box per axis, m."""

DEFAULT_SCALE_VECTOR = (1.17, 2.5, 1.0)
"""Per-axis stretch applied to sampled start and goal positions."""

DEFAULT_SAMPLE_HALF_EXTENT = 240.0
"""Half-extent of the uniform cube sampled before stretching, m."""

OBS_POSITION_SCALE = 1000.0
"""Divisor applied to the goal offset in observations, m."""


class Status(enum.IntEnum):
    """Episode status; :func:`advance` gives one int64 code per episode."""

    RUNNING = 0
    REACHED = 1
    OUT_OF_BOUNDS = 2
    TIMEOUT = 3


# The codes as plain ints for numpy calls, which convert an IntEnum member
# anew each time (about 4 us a call).
RUNNING, REACHED, OUT_OF_BOUNDS, TIMEOUT = (s.value for s in Status)


# The shaped tracking reward of a step that ends d metres from the goal:
# GOAL_WEIGHT / (d + 1) plus PROGRESS_WEIGHT times the decrease in goal
# distance, minus SPEED_PENALTY times the 1-norm of velocity whenever speed
# exceeds the distance-proportional limit SPEED_LIMIT_SLOPE * d.
GOAL_WEIGHT = 1e-3
PROGRESS_WEIGHT = 1e-2
SPEED_PENALTY = 1e-2
SPEED_LIMIT_SLOPE = 0.308


@dataclass(frozen=True)
class EpisodeConfig:
    """Episode timing: the control interval ``dt`` and the time budget
    ``timeout`` of one episode, s."""

    dt: float = 1.0
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        for name, value in (("dt", self.dt), ("timeout", self.timeout)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass
class StepOutcome:
    state: RelativeState
    obs: np.ndarray  # (6,) observation of ``state``
    reward: float
    status: Status


@dataclass
class EpisodeResults:
    """Outcome of each episode of :func:`run_episodes`, in input order."""

    status: np.ndarray        # (K,) int64 final Status code
    elapsed: np.ndarray       # (K,) episode time, s
    final: np.ndarray         # (K, 6) final position and velocity
    path_length: np.ndarray   # (K,) summed lengths of position increments, m


def sample_episodes(rng: np.random.Generator, n: int):
    """Draw ``n`` episodes: starts (n, 6) at rest and goals (n, 3).

    Positions are uniform over a cube of half-extent
    ``DEFAULT_SAMPLE_HALF_EXTENT`` stretched per axis by
    ``DEFAULT_SCALE_VECTOR``, drawn episode by episode, start then goal, so
    one call for n episodes draws what n calls for one episode do.
    """
    ext = DEFAULT_SAMPLE_HALF_EXTENT
    pos = np.asarray(DEFAULT_SCALE_VECTOR) * rng.uniform(-ext, ext, (n, 2, 3))
    return np.concatenate([pos[:, 0], np.zeros((n, 3))], axis=1), pos[:, 1]


def observe(states, goals) -> np.ndarray:
    """Controller input of (6,) or (K, 6) ``states`` toward (3,) or (K, 3)
    ``goals``: the goal offset over ``OBS_POSITION_SCALE``, then the velocity,
    in a new (6,) or (K, 6) array."""
    states = np.asarray(states, dtype=float)
    return np.concatenate([(states[..., :3] - goals) / OBS_POSITION_SCALE,
                           states[..., 3:]], axis=-1)


def norms(vecs: np.ndarray) -> np.ndarray:
    """Euclidean norms of the last axis of (..., 3) ``vecs``.

    Each norm equals ``np.linalg.norm`` of its row bit for bit: a stacked
    matrix product sums a row's squares in the same order as a dot product
    (``einsum`` and ``sum(axis=-1)`` do not).
    """
    return np.sqrt((vecs[..., None, :] @ vecs[..., :, None])[..., 0, 0])


def shaped_reward(dist, prev_dist, vel):
    """Shaped tracking reward of each step that ends ``dist`` metres from its
    goal, ``prev_dist`` metres before it, at (..., 3) velocity ``vel``; the
    terms are described above ``GOAL_WEIGHT``."""
    value = GOAL_WEIGHT / (dist + 1.0) + PROGRESS_WEIGHT * (prev_dist - dist)
    penalty = SPEED_PENALTY * np.abs(vel).sum(axis=-1)
    return np.where(norms(vel) > SPEED_LIMIT_SLOPE * dist, value - penalty, value)[()]


def reward(cur_pos, prev_pos, vel, goal):
    """:func:`shaped_reward` of each row of (..., 3) positions, velocity and
    goal."""
    cur_pos, prev_pos, vel, goal = (np.asarray(a, dtype=float)
                                    for a in (cur_pos, prev_pos, vel, goal))
    return shaped_reward(norms(cur_pos - goal), norms(prev_pos - goal), vel)


def advance(states, goals, actions, elapsed, cfg: EpisodeConfig,
            orbit: ChiefOrbit, veh: VehicleParams):
    """Advance K episodes, one per row of ``states`` (K, 6), ``goals`` and
    ``actions`` (K, 3), one control interval under clamped thrust commands.

    Returns next states (K, 6), their goal distances (K,) and int64
    :class:`Status` codes (K,); each row gets the bits it would get alone.
    ``elapsed`` (scalar or (K,)) is the time before this step; timeout is
    elapsed + dt >= cfg.timeout.  Termination precedence: Reached beats
    OutOfBounds beats Timeout.
    """
    actions = np.asarray(actions, dtype=float)
    thrust = veh.thrust_bound * np.minimum(np.maximum(actions, -1.0), 1.0)
    nxt = propagate_cwh_zoh(states, thrust, cfg.dt, orbit, veh)
    dist = norms(nxt[:, :3] - goals)
    out = (np.abs(nxt[:, :3]) > DEFAULT_BOUNDS).any(axis=1)
    timed_out = elapsed + cfg.dt >= cfg.timeout
    status = np.where(dist < TRAINING_ACCEPTANCE_RADIUS, REACHED, np.where(
        out, OUT_OF_BOUNDS, np.where(timed_out, TIMEOUT, RUNNING)))
    return nxt, dist, status


def step_batch(states, goals, actions, elapsed, cfg: EpisodeConfig,
               orbit: ChiefOrbit, veh: VehicleParams):
    """:func:`advance`, returning next states (K, 6), rewards (K,) and int64
    :class:`Status` codes (K,)."""
    nxt, dist, status = advance(states, goals, actions, elapsed, cfg, orbit, veh)
    rewards = shaped_reward(dist, norms(states[:, :3] - goals), nxt[:, 3:])
    return nxt, rewards, status


def step(state: RelativeState, action, goal, cfg: EpisodeConfig,
         orbit: ChiefOrbit, veh: VehicleParams, elapsed: float) -> StepOutcome:
    """:func:`step_batch` on one episode toward ``goal``."""
    goal = np.asarray(goal, dtype=float)
    if goal.shape != (3,):
        raise ValueError("goal must be a 3-vector")
    nxt, rewards, status = step_batch(state.as_vector()[None], goal[None], [action],
                                      elapsed, cfg, orbit, veh)
    return StepOutcome(RelativeState.from_vector(nxt[0]), observe(nxt[0], goal),
                       float(rewards[0]), Status(int(status[0])))


def run_episodes(controller, starts, goals, cfg: EpisodeConfig,
                 orbit: ChiefOrbit, veh: VehicleParams) -> EpisodeResults:
    """Step K episodes in lock-step until every one has ended.

    ``starts`` (K, 6) holds start positions and velocities and ``goals``
    (K, 3) goal positions.  ``controller`` maps the (L, 6) :func:`observe`
    rows of the live episodes to (L, 3) actions.  Each tick makes one
    controller call and one :func:`advance`, which computes no reward, then
    drops the episodes that ended.  Each episode's status, elapsed time,
    final state and path length equal those of stepping it alone with
    :func:`step`, bit for bit.
    """
    states = np.array(starts, dtype=float).reshape(-1, 6)
    goals = np.array(goals, dtype=float).reshape(-1, 3)
    n = states.shape[0]
    results = EpisodeResults(np.full(n, RUNNING), np.zeros(n), np.empty((n, 6)), np.zeros(n))
    live = np.arange(n)
    path = np.zeros(n)
    elapsed = 0.0
    while live.size:
        nxt, _, status = advance(states, goals, controller(observe(states, goals)),
                                 elapsed, cfg, orbit, veh)
        path += norms(nxt[:, :3] - states[:, :3])
        states = nxt
        elapsed += cfg.dt
        ended = status != RUNNING
        if not ended.any():
            continue
        done = live[ended]
        results.status[done] = status[ended]
        results.elapsed[done] = elapsed
        results.final[done] = states[ended]
        results.path_length[done] = path[ended]
        keep = ~ended
        live, states, goals, path = live[keep], states[keep], goals[keep], path[keep]
    return results


@dataclass(frozen=True)
class EpisodeStats:
    """The success rate of :func:`evaluate`, then the mean and sample SD of the
    arrived episodes' times and path lengths and the mean excess of path
    length over the start-to-goal line, each 0.0 where no episode defines it."""

    n_trials: int
    success_rate: float
    mean_time: float
    sd_time: float
    mean_distance: float
    sd_distance: float
    mean_excess: float

    def as_dict(self) -> dict:
        return asdict(self)


def evaluate(controller, n_episodes: int, seed: int = 0) -> EpisodeStats:
    """:func:`run_episodes` of ``controller`` on ``n_episodes`` episodes drawn
    by :func:`sample_episodes` from ``seed``, with the default episode, orbit
    and vehicle settings, summarised as :class:`EpisodeStats`."""
    if n_episodes < 0:
        raise ValueError("n_episodes must be nonnegative")
    starts, goals = sample_episodes(np.random.default_rng(seed), n_episodes)
    res = run_episodes(controller, starts, goals, EpisodeConfig(), ChiefOrbit(),
                       VehicleParams())
    reached = res.status == REACHED
    straight = norms(starts[:, :3] - goals)
    lined = reached & (straight > 0.0)  # a zero line has no excess
    times, dists = res.elapsed[reached], res.path_length[reached]

    def mean(xs):
        return float(np.mean(xs)) if xs.size else 0.0

    def sd(xs):
        return float(np.std(xs, ddof=1)) if xs.size > 1 else 0.0

    return EpisodeStats(n_episodes, times.size / n_episodes if n_episodes else 0.0,
                        mean(times), sd(times), mean(dists), sd(dists),
                        mean(res.path_length[lined] / straight[lined] - 1.0))
