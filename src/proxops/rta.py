"""Runtime assurance for relative-motion waypoint control.

A minimally invasive filter built from control barrier functions: each agent
solves a small slack-relaxed QP that keeps its thrust close to the desired
command while enforcing

* pairwise collision avoidance against every peer and the chief (a
  second-order barrier on separation, driven through a two-gain chain),
* a hard speed ceiling,
* a commanded-acceleration ceiling, and
* the per-axis thrust box.

Constraints are affine in the thrust because the relative dynamics are
control-affine.  Peer accelerations are not observable, so callers supply an
estimate (the harness uses each peer's previous realized acceleration).
Every row carries a slack variable with a large quadratic penalty; slacks
stay at zero unless the hard constraints are momentarily incompatible.

:func:`qp_arrays` builds every agent's rows in one numpy pass, and one
:func:`qp.solve_batch` call solves every agent's QP in lock-step.  The filter
fails closed: non-finite data or a failed solve gives zero thrust, flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import ChiefOrbit, RelativeState, VehicleParams, cwh_drift_rows
from . import qp as qp_mod

N_SHARED_SLACKS = 5  # velocity, acceleration, and one per thrust axis
INTERVENTION_TOL = 1e-6  # N; the filter intervened when a thrust axis moved further
ACTIVE_TOL = 1e-7  # a row binds when its margin at the solution is at most this
# Thrust-box rows sign * u[axis] <= vehicle.thrust_bound, in +x, -x, +y, -y, +z, -z order.
_INPUT_COEFFS = np.kron(np.eye(3), [[1.0], [-1.0]])
_INPUT_LABELS = [f"input:{tag}{name}" for name in "xyz" for tag in "+-"]


@dataclass(frozen=True)
class RtaParams:
    """Safety limits and filter gains.

    ``pos_gain_inner`` and ``pos_gain_outer`` chain the separation barrier
    down to an acceleration condition; both 0.1/s gives an alert horizon of
    roughly 100 m at scenario speeds of a few m/s.  ``slack_penalty``
    multiplies the squared slacks in the QP objective.  The thrust box comes
    from the vehicle's :class:`VehicleParams`, not from here.
    """

    collision_radius: float = 50.0
    max_speed: float = 3.0
    max_accel: float = 1.732
    pos_gain_inner: float = 0.1
    pos_gain_outer: float = 0.1
    vel_gain: float = 1.0
    slack_penalty: float = 1e6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{f.name} must be finite and positive")


@dataclass
class AgentSnapshot:
    """One agent's state, an estimate of its current acceleration, and its
    actuation parameters.  ``veh`` may be omitted for peers (only their state
    and acceleration enter another agent's constraints)."""

    state: RelativeState
    accel_est: np.ndarray = field(default_factory=lambda: np.zeros(3))
    veh: VehicleParams | None = None

    def __post_init__(self):
        self.accel_est = np.asarray(self.accel_est, dtype=float)
        if self.accel_est.shape != (3,):
            raise ValueError("accel_est must be a 3-vector")


def chief_snapshot() -> AgentSnapshot:
    """The chief as seen by the filter: fixed at the Hill-frame origin."""
    return AgentSnapshot(RelativeState(np.zeros(3), np.zeros(3)), np.zeros(3))


@dataclass
class ConstraintRow:
    """One affine condition coeff_u . u + rhs >= slack[slack_index]."""

    coeff_u: np.ndarray
    rhs: float
    slack_index: int
    label: str

    def evaluate(self, u) -> float:
        """Constraint margin at thrust ``u`` with the slack at zero."""
        return float(self.coeff_u @ np.asarray(u, dtype=float)) + self.rhs


@dataclass
class RtaDecision:
    """Filter output for one agent."""

    u_safe: np.ndarray
    slacks: np.ndarray
    active: np.ndarray
    fallback: bool = False
    iterations: int = 0  # solver iterations on this agent's QP; 0 if it was not solved
    kkt_residual: float = math.inf  # the solution's KKT residual; inf if it was not solved


def _dot(a, b):
    return (a * b).sum(axis=-1)


def _pos_barrier(d, collision_radius):
    return 0.5 * (_dot(d, d) - collision_radius**2)


def pos_barrier(state_i: RelativeState, state_j: RelativeState,
                collision_radius: float) -> float:
    """Half the squared separation in excess of the collision radius."""
    return float(_pos_barrier(state_i.pos - state_j.pos, collision_radius))


def pos_barrier_dot(state_i: RelativeState, state_j: RelativeState) -> float:
    """Time derivative of :func:`pos_barrier` along the joint motion."""
    return float(_dot(state_i.pos - state_j.pos, state_i.vel - state_j.vel))


def qp_arrays(kin, peer_kin, orbit: ChiefOrbit, params: RtaParams, vehicle: VehicleParams):
    """Every agent's QP rows, ``coeffs[i, k] . [u, slacks] <= rhs[i, k]``.

    ``kin`` (N, 3, 3) holds each filtered agent's position, velocity and
    acceleration estimate; ``peer_kin`` (N, P, 3, 3) the same for each
    agent's P peers.  The m = P + 8 variables are the thrust, one slack per
    peer and the shared slacks.  The m rows are P pair rows (second-order
    barriers on separation), a first-order barrier on speed, a bound on
    commanded acceleration along the agent's estimate, and the thrust box at
    ``vehicle.thrust_bound``.
    """
    pos, vel, accel = np.asarray(kin, dtype=float).transpose(1, 0, 2)
    drift = cwh_drift_rows(np.concatenate([pos, vel], axis=-1), orbit)
    d = pos[:, None] - peer_kin[:, :, 0]
    dv = vel[:, None] - peer_kin[:, :, 1]
    gain_sum = params.pos_gain_inner + params.pos_gain_outer
    gain_prod = params.pos_gain_inner * params.pos_gain_outer
    pair_rhs = (_dot(dv, dv) - _dot(d, peer_kin[:, :, 2]) + _dot(d, drift[:, None])
                + gain_sum * _dot(d, dv)
                + gain_prod * _pos_barrier(d, params.collision_radius))
    vel_rhs = (-_dot(vel, drift)
               + params.vel_gain * 0.5 * (params.max_speed**2 - _dot(vel, vel)))
    acc_rhs = params.max_accel**2 - _dot(accel, drift)
    n, p = d.shape[:2]
    coeffs = np.zeros((n, p + 8, p + 8))
    coeffs[:, :p + 2, :3] = np.concatenate([-d, vel[:, None], accel[:, None]], 1) / vehicle.mass
    coeffs[:, p + 2:, :3] = _INPUT_COEFFS
    # Each row has its own slack, except that an axis's two box rows share one.
    slack = np.concatenate([np.arange(p + 2), p + 2 + np.arange(6) // 2])
    coeffs[:, :, 3:] = slack[:, None] == np.arange(p + N_SHARED_SLACKS)
    rhs = np.concatenate([pair_rhs, vel_rhs[:, None], acc_rhs[:, None],
                          np.full((n, 6), vehicle.thrust_bound)], axis=1)
    return coeffs, rhs


def _costs(desired, m: int, params: RtaParams):
    """Weights and centres, (N, m): thrust close to ``desired`` (N, 3), slacks
    close to zero under their penalty."""
    weights = np.full((len(desired), m), params.slack_penalty)
    weights[:, :3] = 1.0
    centres = np.zeros((len(desired), m))
    centres[:, :3] = desired
    return weights, centres


def _one_agent(agent: AgentSnapshot, peers):
    """One agent's kinematics (see :func:`qp_arrays`), (1, 3, 3), and its peers'."""
    if agent.veh is None:
        raise ValueError("the filtered agent needs vehicle parameters")
    kin = np.array([(s.state.pos, s.state.vel, s.accel_est) for s in [agent, *peers]])
    return kin[:1], kin[None, 1:]


def build_rows(agent: AgentSnapshot, peers, orbit: ChiefOrbit, params: RtaParams) -> list:
    """All constraint rows for one agent, pair rows first."""
    return build_qp(agent, peers, np.zeros(3), orbit, params)[1]


def build_qp(agent: AgentSnapshot, peers, desired, orbit: ChiefOrbit, params: RtaParams):
    """The slack-relaxed QP for one agent (see :func:`qp_arrays`) and its rows,
    labelled ``pos:k`` for peer k, then ``vel``, ``acc`` and the box rows."""
    coeffs, rhs = qp_arrays(*_one_agent(agent, peers), orbit, params, agent.veh)
    labels = [*(f"pos:{k}" for k in range(len(peers))), "vel", "acc", *_INPUT_LABELS]
    rows = [ConstraintRow(-a[:3], float(b), int(a[3:].argmax()), label)
            for a, b, label in zip(coeffs[0], rhs[0], labels)]
    weights, centres = _costs(np.reshape(desired, (1, 3)), len(rhs[0]), params)
    return qp_mod.QpProblem.from_arrays(weights[0], centres[0], coeffs[0], rhs[0]), rows


def _filter(kin, peer_kin, desired, orbit: ChiefOrbit, params: RtaParams,
            vehicle: VehicleParams, warm=None) -> list:
    """One decision per agent from one batched solve, warm-started from the
    (N, m) guess ``warm``; zero thrust and ``fallback`` on non-finite data, a
    non-optimal status or a non-finite solution."""
    coeffs, rhs = qp_arrays(kin, peer_kin, orbit, params, vehicle)
    n, m = rhs.shape
    desired = np.asarray(desired, dtype=float).reshape(n, 3)
    weights, centres = _costs(desired, m, params)
    finite = (np.isfinite(coeffs).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
              & np.isfinite(desired).all(axis=1))
    keep = slice(None) if finite.all() else finite
    solution = qp_mod.solve_batch(weights[keep], centres[keep], coeffs[keep], rhs[keep],
                                  None if warm is None else warm[keep])
    x, solved = np.zeros((n, m)), np.zeros(n, dtype=bool)
    iterations, kkt = np.zeros(n, dtype=int), np.full(n, math.inf)
    x[keep], iterations[keep], kkt[keep] = solution.x, solution.iterations, solution.kkt_residual
    solved[keep] = solution.status == qp_mod.OPTIMAL
    fallback = ~(solved & np.isfinite(x).all(axis=1))
    x[fallback] = 0.0
    active = ~fallback[:, None] & (np.abs(rhs - (coeffs @ x[..., None])[..., 0]) <= ACTIVE_TOL)
    return [RtaDecision(*fields) for fields in zip(
        x[:, :3], x[:, 3:], active, fallback.tolist(), iterations.tolist(), kkt.tolist())]


def filter_agent(agent: AgentSnapshot, peers, desired, orbit: ChiefOrbit,
                 params: RtaParams) -> RtaDecision:
    """Filter one agent's desired thrust against its constraint rows."""
    return _filter(*_one_agent(agent, peers), [desired], orbit, params, agent.veh)[0]


def filter_actions(states, desired, accel, orbit: ChiefOrbit, params: RtaParams,
                   vehicle: VehicleParams, warm=None) -> list:
    """Filter every agent's desired thrust against the others and the chief.

    ``states`` (N, 6) holds positions and velocities, ``desired`` (N, 3) the
    commanded thrusts in newtons and ``accel`` (N, 3) each agent's
    acceleration estimate; every agent flies ``vehicle``.  Each agent's peers
    are the other agents, then the chief, motionless at the origin.
    ``warm``, if given, is an (N, N + 8) boolean guess of each agent's binding
    rows, such as the last tick's :attr:`RtaDecision.active` masks.  It changes
    how many solver steps the decisions take, and the decisions only by
    roundoff.
    """
    states, n = np.asarray(states, dtype=float), len(states)
    if states.shape != (n, 6) or np.shape(desired) != (n, 3) or np.shape(accel) != (n, 3):
        raise ValueError("states, desired and accel must be (N, 6), (N, 3) and (N, 3)")
    kin = np.concatenate([states.reshape(n, 2, 3), np.reshape(accel, (n, 1, 3))], axis=1)
    everyone = np.concatenate([kin, np.zeros((1, 3, 3))])  # the agents, then the chief
    peer_kin = everyone[np.arange(n) + (np.arange(n) >= np.arange(n)[:, None])]  # all but i
    if warm is not None:
        warm = np.asarray(warm, dtype=bool)
        if warm.shape != (n, n + 8):
            raise ValueError("warm must be an (N, N + 8) boolean mask")
    return _filter(kin, peer_kin, desired, orbit, params, vehicle, warm)
