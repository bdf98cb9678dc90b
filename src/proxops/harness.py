"""Scenario harness: multi-agent control loop, metrics, and trajectory logs.

A scenario assigns each deputy a waypoint queue and a controller.  The run
loop advances all agents on a shared clock, one array tick at a time:
controllers fire every ``control_dt`` seconds, the optional runtime-assurance
filter rewrites their commands, and the exact zero-order-hold CWH map steps
every agent under its held thrust.  Waypoints are accepted at tick boundaries
and velocity carries over between legs.  The log is columnar: (T, N, ...)
arrays, one row per tick.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .dynamics import (  # noqa: F401 - propagate_cwh stays a harness attribute for perfbench's tracer
    ChiefOrbit,
    PropagationError,
    RelativeState,
    VehicleParams,
    propagate_cwh,
    propagate_cwh_zoh,
)
from .env import (  # noqa: F401 - step stays a harness attribute for perfbench's tracer
    DEFAULT_TIMEOUT,
    EpisodeStats,
    evaluate,
    norms,
    observe,
    step,
)
from .policy import baseline_act, brief, load_policy, policy_act
from .rta import INTERVENTION_TOL, RtaParams, filter_actions

HARNESS_ACCEPTANCE_RADIUS = 15.0

MAX_TICKS_PER_LEG = 100_000
"""Most control ticks (leg_timeout / control_dt) one waypoint leg may take."""

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
    """A scenario's agents and settings.  ``sim_dt`` must be finite, positive
    and at most ``control_dt``, so configurations naming it still load, but
    nothing reads it: each tick is one exact zero-order-hold step."""

    name: str
    agents: tuple
    rta_enabled: bool = False
    control_dt: float = 1.0
    sim_dt: float = 0.1
    acceptance_radius: float = HARNESS_ACCEPTANCE_RADIUS
    leg_timeout: float = DEFAULT_TIMEOUT
    orbit: ChiefOrbit = field(default_factory=ChiefOrbit)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    rta_params: RtaParams = field(default_factory=RtaParams)

    def __post_init__(self):
        if not self.agents:
            raise ValueError("scenario needs at least one agent")
        if not (math.isfinite(self.control_dt) and math.isfinite(self.sim_dt)
                and self.control_dt > 0.0 and self.sim_dt > 0.0):
            raise ValueError("time steps must be finite and positive")
        if self.sim_dt > self.control_dt:
            raise ValueError("sim_dt must not exceed control_dt")
        if not (math.isfinite(self.acceptance_radius) and self.acceptance_radius > 0.0):
            raise ValueError("acceptance radius must be finite and positive")
        ticks = self.leg_timeout / self.control_dt
        if not 1.0 <= ticks <= MAX_TICKS_PER_LEG:  # also rejects NaN
            raise ValueError(f"leg_timeout / control_dt = {ticks:g} ticks per leg; "
                             f"it must be from 1 to {MAX_TICKS_PER_LEG}")
        object.__setattr__(self, "agents", tuple(self.agents))


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
    """Columnar run log plus the run metadata metrics need.

    Row i of each array is tick i, at time ``t[i]``, before that tick's
    propagation; axis 1 is the agent.  ``slack`` holds the six logged slack
    columns: the worst pair slack, then velocity, acceleration and the three
    thrust axes.
    """

    t: np.ndarray           # (T,) s
    pos: np.ndarray         # (T, N, 3) m
    vel: np.ndarray         # (T, N, 3) m/s
    u_des: np.ndarray       # (T, N, 3) N, controller command
    u: np.ndarray           # (T, N, 3) N, applied thrust
    rta_active: np.ndarray  # (T, N) bool
    slack: np.ndarray       # (T, N, 6)
    dist_goal: np.ndarray   # (T, N) m
    control_dt: float
    mass: float
    targets_reached: list
    completion_times: list
    aborted: bool = False
    timed_out: bool = False

    @property
    def n_agents(self) -> int:
        return self.pos.shape[1]

    @property
    def records(self) -> list:
        """Tick-major :class:`TickRecord` view of the arrays, built on access."""
        return [TickRecord(t=t, agent=k, pos=self.pos[i, k], vel=self.vel[i, k],
                           u_des=self.u_des[i, k], u=self.u[i, k],
                           rta_active=bool(self.rta_active[i, k]), slack_pos=float(s[0]),
                           slack_vel=float(s[1]), slack_acc=float(s[2]), slack_u=s[3:],
                           dist_goal=float(self.dist_goal[i, k]))
                for i, t in enumerate(self.t.tolist()) for k, s in enumerate(self.slack[i])]


@dataclass(frozen=True)
class AgentMetrics:
    targets_reached: int
    time_taken: float
    distance_traveled: float
    delta_v: float


@dataclass(frozen=True)
class MetricsReport:
    per_agent: tuple
    aggregate: AgentMetrics
    aborted: bool = False
    timed_out: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


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
    raise KeyError(f"unknown scenario {brief(name)}")


def make_controller(choice: str, vehicle: VehicleParams):
    """Resolve a controller choice string to a callable obs -> action."""
    if choice == "baseline":
        return lambda obs: baseline_act(obs, vehicle.mass, vehicle.thrust_bound)
    if choice.startswith("policy:"):
        policy = load_policy(choice[len("policy:"):])
        return lambda obs: policy_act(policy, obs)
    raise ValueError(f"unknown controller {brief(choice)}")


def run(spec: ScenarioSpec):
    """Execute a scenario; returns (MetricsReport, TrajectoryLog).

    Each tick accepts every waypoint within the acceptance radius, makes one
    controller call per controller choice on the stacked observations of all
    its agents, zeroes the commands of agents with no waypoint left, filters
    the commands when RTA is on, clipping the filter's thrust to the thrust
    bound, and steps all agents with one :func:`propagate_cwh_zoh`.  The
    filter's solver starts from the binding rows of the run's previous tick,
    which changes its step count and its answer only by roundoff.  Each
    agent's rows get the bits they would get alone, so without RTA a joint
    run matches each agent's solo run exactly.
    """
    n = len(spec.agents)
    dt, mass, bound = spec.control_dt, spec.vehicle.mass, spec.vehicle.thrust_bound
    states = np.array([a.start.as_vector() for a in spec.agents])
    lengths = np.array([len(a.waypoints) for a in spec.agents])
    # Each queue padded with its last waypoint, which stays the goal once the queue is done.
    queues = np.array([a.waypoints + a.waypoints[-1:] * (lengths.max() + 1 - len(a.waypoints))
                       for a in spec.agents])
    agents, reached = np.arange(n), np.zeros(n, dtype=int)  # reached: waypoints accepted
    goals, live = queues[:, 0], np.ones(n, dtype=bool)  # live: agents with waypoints left
    idle = agents[:0]  # agents with no waypoint left
    choices = [a.controller for a in spec.agents]
    controllers = [(make_controller(c, spec.vehicle), np.flatnonzero([c == d for d in choices]))
                   for c in dict.fromkeys(choices)]
    accel_est = np.zeros((n, 3))
    leg_start = np.zeros(n)  # a done agent's last leg started when it finished
    oldest_leg = 0.0  # start of the oldest open leg; inf once every agent is done
    rows = []  # per tick: states, u_des, u, rta_active, slack, dist_goal
    no_u, no_slack, no_active = np.zeros((n, 3)), np.zeros((n, 6)), np.zeros(n, dtype=bool)
    aborted = False
    warm = None  # the last tick's binding rows: the guess at this tick's working sets

    tick = 0
    while True:
        t = tick * dt
        dist = norms(states[:, :3] - goals)
        arrived = live & (dist <= spec.acceptance_radius)
        while arrived.any():  # several waypoints may go in one tick
            reached += arrived
            leg_start[arrived] = t
            live = reached < lengths
            goals = queues[agents, reached]
            dist = norms(states[:, :3] - goals)
            arrived = live & (dist <= spec.acceptance_radius)
            idle = agents[~live]
            # Rounding keeps t - x monotone in x, so the oldest leg times out first.
            oldest_leg = float(leg_start[live].min(initial=math.inf))

        timed_out = t - oldest_leg >= spec.leg_timeout
        if timed_out or oldest_leg == math.inf:
            rows.append((states, no_u, no_u, no_active, no_slack, dist))
            break

        obs = observe(states, goals)
        if len(controllers) == 1:
            u_des = controllers[0][0](obs) * bound
        else:
            u_des = np.empty((n, 3))
            for controller, members in controllers:
                u_des[members] = controller(obs[members]) * bound
        if idle.size:
            u_des[idle] = 0.0

        # The controllers' actions are in [-1, 1], so u_des is inside the actuator box.
        u, active, slack = u_des, no_active, no_slack
        if spec.rta_enabled:
            decision = filter_actions(states, u_des, accel_est, spec.orbit,
                                      spec.rta_params, spec.vehicle, warm=warm)
            warm, u_safe, slacks = decision.active, decision.u_safe, decision.slacks
            active = decision.fallback | (np.abs(u_safe - u_des).max(axis=1) > INTERVENTION_TOL)
            slack = np.concatenate([slacks[:, :n].min(axis=1, keepdims=True), slacks[:, n:]], 1)
            u = np.minimum(np.maximum(u_safe, -bound), bound)  # the actuator box, whatever it returns
            accel_est = decision.drift + u / mass

        rows.append((states, u_des, u, active, slack, dist))
        try:
            states = propagate_cwh_zoh(states, u, dt, spec.orbit, spec.vehicle)
        except PropagationError:
            aborted = True
            break
        tick += 1

    state, u_des, u, active, slack, dist = (np.array(column) for column in zip(*rows))
    log = TrajectoryLog(t=np.arange(len(rows)) * dt, pos=state[..., :3],
                        vel=state[..., 3:], u_des=u_des, u=u, rta_active=active,
                        slack=slack, dist_goal=dist, control_dt=dt, mass=mass,
                        targets_reached=reached.tolist(),
                        completion_times=[None if on else t
                                          for on, t in zip(live.tolist(), leg_start.tolist())],
                        aborted=aborted, timed_out=timed_out)
    return compute_metrics(log), log


def compute_metrics(log: TrajectoryLog) -> MetricsReport:
    """Per-agent and aggregate counts, times, path lengths, and fuel use.

    Distance sums position increments between consecutive ticks; delta-v
    charges the 1-norm of the applied thrust over each hold interval.  An
    agent's time is its queue-completion tick, or the last tick's time when
    it never finished.  Aggregate values are the per-agent sums.
    """
    dists = norms(np.diff(log.pos, axis=0)).sum(axis=0).tolist()
    dvs = (np.abs(log.u).sum(axis=-1) / log.mass * log.control_dt).sum(axis=0).tolist()
    last_t = float(log.t[-1]) if len(log.t) else 0.0
    per_agent = tuple(
        AgentMetrics(targets_reached=log.targets_reached[k],
                     time_taken=last_t if done is None else float(done),
                     distance_traveled=dists[k], delta_v=dvs[k])
        for k, done in enumerate(log.completion_times))
    agg = AgentMetrics(
        targets_reached=sum(m.targets_reached for m in per_agent),
        time_taken=sum(m.time_taken for m in per_agent),
        distance_traveled=sum(m.distance_traveled for m in per_agent),
        delta_v=sum(m.delta_v for m in per_agent))
    return MetricsReport(per_agent=per_agent, aggregate=agg,
                         aborted=log.aborted, timed_out=log.timed_out)


def write_csv(log: TrajectoryLog, path) -> None:
    """Write the trajectory log with the fixed column schema (SI units).

    Rows are tick-major and end in CRLF, as ``csv.writer`` writes them; every
    float is written as ``repr`` of its Python float, the agent index and
    ``rta_active`` as integers.  No field needs quoting, so a row is one line.
    A thrust bit-equal to its command, and six +0.0 slacks, reuse their text.
    """
    state = np.concatenate([log.pos, log.vel], axis=-1)
    same_u = (log.u.view(np.int64) == log.u_des.view(np.int64)).all(axis=-1)
    zero_slack = ~log.slack.view(np.int64).any(axis=-1)
    cols = (state, log.u_des, log.u, same_u, log.rta_active, log.slack, zero_slack, log.dist_goal)
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\r\n")
        for i, t in enumerate(log.t.tolist()):  # one tick at a time keeps memory small
            for k, (x, ud, u, same, a, s, zero, d) in enumerate(zip(*(c[i].tolist() for c in cols))):
                ud = ",".join(map(repr, ud))
                fh.write(f"{t!r},{k},{','.join(map(repr, x))},{ud},"
                         f"{ud if same else ','.join(map(repr, u))},{a:d},"
                         f"{'0.0,0.0,0.0,0.0,0.0,0.0' if zero else ','.join(map(repr, s))},{d!r}\r\n")


def pair_distances(log: TrajectoryLog) -> dict:
    """Pairwise separations on ``log.t``'s ticks, (T,) arrays keyed "i-j" and "i-chief"."""
    series: dict = {}
    for i in range(log.n_agents):
        for j in range(i + 1, log.n_agents):
            series[f"{i}-{j}"] = norms(log.pos[:, i] - log.pos[:, j])
        series[f"{i}-chief"] = norms(log.pos[:, i])
    return series


def local_minima(t: np.ndarray, distances: dict) -> dict:
    """``[[t, d], ...]`` at each (T,) series' strict local minima, the inner
    ticks whose distance is below both neighbours'."""
    return {key: np.column_stack([t, d])[1:-1][(d[1:-1] < d[:-2]) & (d[1:-1] < d[2:])].tolist()
            for key, d in distances.items()}


def baseline_stats(n_trials: int, seed: int = 0) -> EpisodeStats:
    """:func:`env.evaluate` of the PD baseline on ``n_trials`` sampled
    training episodes."""
    return evaluate(make_controller("baseline", VehicleParams()), n_trials, seed)
