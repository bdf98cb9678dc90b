"""Scenario harness: multi-agent control loop, metrics, and trajectory logs.

A scenario assigns each deputy a waypoint queue and a controller.  The run
loop advances all agents on a shared clock: controllers fire every
``control_dt`` seconds with zero-order-hold thrust, dynamics integrate at
``sim_dt``, and the optional runtime-assurance filter rewrites commands
before they are applied.  Waypoints are accepted at tick boundaries and
velocity carries over between legs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    ChiefOrbit,
    PropagationError,
    RelativeState,
    VehicleParams,
    cwh_drift_accel,
    default_orbit,
    default_vehicle,
    propagate_cwh,
)
from .env import (  # noqa: F401 - step stays a harness attribute for perfbench's tracer
    DEFAULT_TIMEOUT,
    EpisodeConfig,
    Status,
    norms,
    observe,
    run_episodes,
    sample_episodes,
    step,
)
from .policy import BaselineGains, baseline_act, load_policy, policy_act
from .rta import AgentSnapshot, RtaParams, filter_actions

HARNESS_ACCEPTANCE_RADIUS = 15.0
INTERVENTION_TOL = 1e-6

MAX_SUBSTEPS_PER_TICK = 1000
"""Most dynamics substeps (control_dt / sim_dt) a scenario may take per tick."""

MAX_SUBSTEP_PHASE = 0.1
"""Largest orbital phase mean_motion * sim_dt one RK4 substep may span, rad.

About 90 s on the default orbit.  One RK4 step that long is within 1e-6 of
the closed-form solution, relative to the state with velocities scaled by
1 / mean_motion; steps far beyond it make RK4 diverge.
"""

CSV_HEADER = ("t,agent,rx,ry,rz,vx,vy,vz,ux_des,uy_des,uz_des,ux,uy,uz,"
              "rta_active,slack_pos,slack_vel,slack_acc,slack_u1,slack_u2,"
              "slack_u3,dist_goal")


@dataclass(frozen=True)
class AgentSpec:
    """One deputy: start state, waypoint queue, controller choice.

    ``controller`` is either ``"baseline"`` or ``"policy:<path>"``.
    """

    start: RelativeState
    waypoints: tuple
    controller: str = "baseline"

    def __post_init__(self):
        if len(self.waypoints) == 0:
            raise ValueError("waypoint sequence must be nonempty")
        object.__setattr__(self, "waypoints",
                           tuple(np.asarray(w, dtype=float) for w in self.waypoints))
        for w in self.waypoints:
            if w.shape != (3,):
                raise ValueError("waypoints must be 3-vectors")


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    agents: tuple
    rta_enabled: bool = False
    control_dt: float = 1.0
    sim_dt: float = 0.1
    acceptance_radius: float = HARNESS_ACCEPTANCE_RADIUS
    leg_timeout: float = DEFAULT_TIMEOUT
    orbit: ChiefOrbit = field(default_factory=default_orbit)
    vehicle: VehicleParams = field(default_factory=default_vehicle)
    rta_params: RtaParams = field(default_factory=RtaParams)

    def __post_init__(self):
        if not self.agents:
            raise ValueError("scenario needs at least one agent")
        if not (math.isfinite(self.control_dt) and math.isfinite(self.sim_dt)
                and self.control_dt > 0.0 and self.sim_dt > 0.0):
            raise ValueError("time steps must be finite and positive")
        if self.sim_dt > self.control_dt:
            raise ValueError("sim_dt must not exceed control_dt")
        if self.orbit.mean_motion * self.sim_dt > MAX_SUBSTEP_PHASE:
            raise ValueError(f"sim_dt {self.sim_dt:g} s exceeds "
                             f"{MAX_SUBSTEP_PHASE / self.orbit.mean_motion:g} s, "
                             f"{MAX_SUBSTEP_PHASE} rad of the chief orbit")
        ratio = self.control_dt / self.sim_dt
        if ratio >= MAX_SUBSTEPS_PER_TICK + 0.5:  # rounds above the maximum
            raise ValueError(f"control_dt / sim_dt = {ratio:g} exceeds "
                             f"{MAX_SUBSTEPS_PER_TICK} substeps per tick")
        if abs(ratio - round(ratio)) > 1e-9 * ratio:  # roundoff: 0.1 divides 0.3
            raise ValueError(f"sim_dt {self.sim_dt:g} does not divide "
                             f"control_dt {self.control_dt:g}")
        if self.acceptance_radius <= 0.0 or self.leg_timeout <= 0.0:
            raise ValueError("acceptance radius and timeout must be positive")
        object.__setattr__(self, "agents", tuple(self.agents))

    @property
    def substeps(self) -> int:
        """Dynamics substeps per control tick: control_dt / sim_dt."""
        return round(self.control_dt / self.sim_dt)


@dataclass(frozen=True)
class TickRecord:
    """One agent's snapshot at one control tick (pre-propagation state)."""

    t: float
    agent: int
    pos: np.ndarray
    vel: np.ndarray
    u_des: np.ndarray
    u: np.ndarray
    rta_active: bool
    slack_pos: float
    slack_vel: float
    slack_acc: float
    slack_u: np.ndarray
    dist_goal: float


@dataclass
class TrajectoryLog:
    """Per-tick records plus the run metadata metrics need."""

    records: list
    n_agents: int
    control_dt: float
    mass: float
    waypoints_assigned: list
    targets_reached: list
    completion_times: list
    aborted: bool = False
    timed_out: bool = False

    def agent_records(self, k: int) -> list:
        return [r for r in self.records if r.agent == k]


@dataclass(frozen=True)
class AgentMetrics:
    targets_reached: int
    time_taken: float
    distance_traveled: float
    delta_v: float

    def as_dict(self) -> dict:
        return {"targets_reached": self.targets_reached,
                "time_taken": self.time_taken,
                "distance_traveled": self.distance_traveled,
                "delta_v": self.delta_v}


@dataclass(frozen=True)
class MetricsReport:
    per_agent: tuple
    aggregate: AgentMetrics
    aborted: bool = False
    timed_out: bool = False

    def as_dict(self) -> dict:
        return {"per_agent": [m.as_dict() for m in self.per_agent],
                "aggregate": self.aggregate.as_dict(),
                "aborted": self.aborted,
                "timed_out": self.timed_out}


def single_agent_passes(rta_enabled: bool = False) -> ScenarioSpec:
    """Two back-and-forth passes along the radial axis, 2300 m straight-line."""
    agent = AgentSpec(start=RelativeState([-200.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
                      waypoints=((300.0, 0.0, 0.0), (-300.0, 0.0, 0.0),
                                 (300.0, 0.0, 0.0), (-300.0, 0.0, 0.0)))
    return ScenarioSpec(name="single", agents=(agent,), rta_enabled=rta_enabled)


def three_agent_standoff(rta_enabled: bool = True) -> ScenarioSpec:
    """Two deputies on orthogonal crossing paths through the chief at origin.

    Every nominal straight-line leg passes through the origin, so without
    the filter the deputies conflict with each other and the chief.
    """
    agent1 = AgentSpec(start=RelativeState([-200.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
                       waypoints=((300.0, 0.0, 0.0), (-300.0, 0.0, 0.0),
                                  (300.0, 0.0, 0.0), (-300.0, 0.0, 0.0)))
    agent2 = AgentSpec(start=RelativeState([0.0, -200.0, 0.0], [0.0, 0.0, 0.0]),
                       waypoints=((0.0, 300.0, 0.0), (0.0, -300.0, 0.0),
                                  (0.0, 300.0, 0.0), (0.0, -300.0, 0.0)))
    return ScenarioSpec(name="standoff", agents=(agent1, agent2),
                        rta_enabled=rta_enabled)


def builtin_scenario(name: str, rta_enabled: bool | None = None) -> ScenarioSpec:
    if name == "single":
        return single_agent_passes(bool(rta_enabled))
    if name == "standoff":
        return three_agent_standoff(True if rta_enabled is None else rta_enabled)
    raise KeyError(f"unknown scenario {name!r}")


def make_controller(choice: str, vehicle: VehicleParams):
    """Resolve a controller choice string to a callable obs -> action."""
    if choice == "baseline":
        gains = BaselineGains()
        return lambda obs: baseline_act(obs, gains, vehicle.mass,
                                        vehicle.thrust_bound)
    if choice.startswith("policy:"):
        policy = load_policy(choice[len("policy:"):])
        return lambda obs: policy_act(policy, obs)
    raise ValueError(f"unknown controller {choice!r}")


def _slack_summary(decision, n_pairs: int):
    """Collapse per-row slacks into the six logged columns.

    The position column reports the worst (most negative) pair slack.
    """
    s = decision.slacks
    slack_pos = float(np.min(s[:n_pairs])) if n_pairs else 0.0
    return (slack_pos, float(s[n_pairs]), float(s[n_pairs + 1]),
            np.array(s[n_pairs + 2:n_pairs + 5], dtype=float))


def run(spec: ScenarioSpec):
    """Execute a scenario; returns (MetricsReport, TrajectoryLog)."""
    n = len(spec.agents)
    states = [a.start.copy() for a in spec.agents]
    queues = [list(a.waypoints) for a in spec.agents]
    controllers = [make_controller(a.controller, spec.vehicle) for a in spec.agents]
    final_goals = [np.asarray(a.waypoints[-1], dtype=float) for a in spec.agents]
    accel_est = [np.zeros(3) for _ in range(n)]
    leg_start = [0.0] * n
    mass = spec.vehicle.mass
    bound = spec.vehicle.thrust_bound

    log = TrajectoryLog(records=[], n_agents=n, control_dt=spec.control_dt,
                        mass=mass,
                        waypoints_assigned=[len(a.waypoints) for a in spec.agents],
                        targets_reached=[0] * n,
                        completion_times=[None] * n)

    def emit(t, k, u_des, u, decision, n_pairs):
        if decision is None:
            slack_pos = slack_vel = slack_acc = 0.0
            slack_u = np.zeros(3)
            active = False
        else:
            slack_pos, slack_vel, slack_acc, slack_u = _slack_summary(decision, n_pairs)
            active = decision.fallback or decision.intervened(u_des, INTERVENTION_TOL)
        goal = queues[k][0] if queues[k] else final_goals[k]
        log.records.append(TickRecord(
            t=t, agent=k, pos=states[k].pos.copy(), vel=states[k].vel.copy(),
            u_des=np.asarray(u_des, dtype=float).copy(),
            u=np.asarray(u, dtype=float).copy(), rta_active=active,
            slack_pos=slack_pos, slack_vel=slack_vel, slack_acc=slack_acc,
            slack_u=slack_u,
            dist_goal=float(np.linalg.norm(states[k].pos - goal))))

    tick = 0
    while True:
        t = tick * spec.control_dt
        for k in range(n):
            while queues[k] and (np.linalg.norm(states[k].pos - queues[k][0])
                                 <= spec.acceptance_radius):
                queues[k].pop(0)
                log.targets_reached[k] += 1
                leg_start[k] = t
                if not queues[k]:
                    log.completion_times[k] = t

        done = all(not q for q in queues)
        timed_out = any(q and t - leg_start[k] >= spec.leg_timeout
                        for k, q in enumerate(queues))
        if done or timed_out:
            zeros = np.zeros(3)
            for k in range(n):
                emit(t, k, zeros, zeros, None, 0)
            log.timed_out = timed_out and not done
            break

        desired = []
        for k in range(n):
            if queues[k]:
                action = controllers[k](observe(states[k], queues[k][0]))
                desired.append(np.asarray(action, dtype=float) * bound)
            else:
                desired.append(np.zeros(3))

        if spec.rta_enabled:
            snaps = [AgentSnapshot(states[k], accel_est[k], spec.vehicle)
                     for k in range(n)]
            decisions = filter_actions(snaps, desired, spec.orbit, spec.rta_params)
            applied = [d.u_safe for d in decisions]
            n_pairs = n  # n-1 peers plus the chief
        else:
            decisions = [None] * n
            applied = desired
            n_pairs = 0

        for k in range(n):
            emit(t, k, desired[k], applied[k], decisions[k], n_pairs)

        try:
            for k in range(n):
                accel_est[k] = cwh_drift_accel(states[k], spec.orbit) + applied[k] / mass
                states[k] = propagate_cwh(states[k], applied[k], spec.control_dt, spec.orbit,
                                          spec.vehicle, substeps=spec.substeps)
        except PropagationError:
            log.aborted = True
            break
        tick += 1

    return compute_metrics(log), log


def compute_metrics(log: TrajectoryLog) -> MetricsReport:
    """Per-agent and aggregate counts, times, path lengths, and fuel use.

    Distance sums position increments between consecutive records; delta-v
    charges the 1-norm of the applied thrust over each hold interval.  An
    agent's time is its queue-completion tick, or the last record time when
    it never finished.  Aggregate values are the per-agent sums.
    """
    per_agent = []
    for k in range(log.n_agents):
        recs = log.agent_records(k)
        dist = 0.0
        dv = 0.0
        for prev, cur in zip(recs, recs[1:]):
            dist += float(np.linalg.norm(cur.pos - prev.pos))
        for r in recs:
            dv += float(np.sum(np.abs(r.u))) / log.mass * log.control_dt
        if log.completion_times[k] is not None:
            time_taken = float(log.completion_times[k])
        else:
            time_taken = float(recs[-1].t) if recs else 0.0
        per_agent.append(AgentMetrics(targets_reached=log.targets_reached[k],
                                      time_taken=time_taken,
                                      distance_traveled=dist, delta_v=dv))
    agg = AgentMetrics(
        targets_reached=sum(m.targets_reached for m in per_agent),
        time_taken=sum(m.time_taken for m in per_agent),
        distance_traveled=sum(m.distance_traveled for m in per_agent),
        delta_v=sum(m.delta_v for m in per_agent))
    return MetricsReport(per_agent=tuple(per_agent), aggregate=agg,
                         aborted=log.aborted, timed_out=log.timed_out)


def write_csv(log: TrajectoryLog, path) -> None:
    """Write the trajectory log with the fixed column schema (SI units)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for r in log.records:
            writer.writerow([repr(float(r.t)), r.agent,
                             *(repr(float(v)) for v in r.pos),
                             *(repr(float(v)) for v in r.vel),
                             *(repr(float(v)) for v in r.u_des),
                             *(repr(float(v)) for v in r.u),
                             int(r.rta_active),
                             repr(float(r.slack_pos)), repr(float(r.slack_vel)),
                             repr(float(r.slack_acc)),
                             *(repr(float(v)) for v in r.slack_u),
                             repr(float(r.dist_goal))])


def pair_distances(log: TrajectoryLog, include_chief: bool = True) -> dict:
    """Time series of pairwise separations, keyed "i-j" and "i-chief"."""
    by_time: dict = {}
    for r in log.records:
        by_time.setdefault(r.t, {})[r.agent] = r.pos
    times = sorted(by_time)
    series: dict = {}
    for i in range(log.n_agents):
        for j in range(i + 1, log.n_agents):
            key = f"{i}-{j}"
            series[key] = [(t, float(np.linalg.norm(by_time[t][i] - by_time[t][j])))
                           for t in times if i in by_time[t] and j in by_time[t]]
        if include_chief:
            key = f"{i}-chief"
            series[key] = [(t, float(np.linalg.norm(by_time[t][i])))
                           for t in times if i in by_time[t]]
    return series


def local_minima(distances: dict) -> dict:
    """Strict local minima of each (t, distance) series in ``distances``."""
    return {key: [b for a, b, c in zip(series, series[1:], series[2:])
                  if b[1] < a[1] and b[1] < c[1]]
            for key, series in distances.items()}


def crossing_times(log: TrajectoryLog, include_chief: bool = True) -> dict:
    """Strict local minima of each pairwise-distance series: (t, distance)."""
    return local_minima(pair_distances(log, include_chief))


@dataclass(frozen=True)
class BaselineStats:
    n_trials: int
    success_rate: float
    mean_time: float
    sd_time: float
    mean_distance: float
    sd_distance: float
    mean_excess: float

    def as_dict(self) -> dict:
        return {"n_trials": self.n_trials, "success_rate": self.success_rate,
                "mean_time": self.mean_time, "sd_time": self.sd_time,
                "mean_distance": self.mean_distance,
                "sd_distance": self.sd_distance, "mean_excess": self.mean_excess}


def baseline_stats(n_trials: int, seed: int = 0,
                   cfg: EpisodeConfig | None = None,
                   orbit: ChiefOrbit | None = None,
                   vehicle: VehicleParams | None = None) -> BaselineStats:
    """Run the baseline controller on sampled training episodes.

    All trials step in lock-step through :func:`env.run_episodes`.

    Reports success rate plus mean and sample-SD of completion time and
    path length, and the mean excess of path length over the start-to-goal
    straight line (successful trials only).
    """
    if n_trials < 0:
        raise ValueError("n_trials must be nonnegative")
    if n_trials == 0:
        return BaselineStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    cfg = cfg if cfg is not None else EpisodeConfig()
    orbit = orbit if orbit is not None else default_orbit()
    vehicle = vehicle if vehicle is not None else default_vehicle()
    gains = BaselineGains()
    rng = np.random.default_rng(seed)
    starts, goals = sample_episodes(rng, cfg, n_trials)
    res = run_episodes(
        lambda obs: baseline_act(obs, gains, vehicle.mass, vehicle.thrust_bound),
        starts, goals, cfg, orbit, vehicle)

    times, dists, excesses = [], [], []
    for k, straight in enumerate(norms(starts[:, :3] - goals).tolist()):
        if res.status[k] is Status.REACHED:
            times.append(res.elapsed[k])
            dists.append(res.path_length[k])
            if straight > 0.0:
                excesses.append(res.path_length[k] / straight - 1.0)

    def _mean(xs):
        return float(np.mean(xs)) if xs else 0.0

    def _sd(xs):
        return float(np.std(xs, ddof=1)) if len(xs) > 1 else 0.0

    return BaselineStats(n_trials=n_trials,
                         success_rate=len(times) / n_trials,
                         mean_time=_mean(times), sd_time=_sd(times),
                         mean_distance=_mean(dists), sd_distance=_sd(dists),
                         mean_excess=_mean(excesses))
