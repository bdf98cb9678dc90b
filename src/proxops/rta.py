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

:func:`qp_arrays` builds every agent's rows in one numpy pass.  The filter
fails closed: non-finite data or a failed solve gives zero thrust, flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import ChiefOrbit, RelativeState, VehicleParams, cwh_drift_accel
from . import qp as qp_mod

N_SHARED_SLACKS = 5  # velocity, acceleration, and one per thrust axis
# Thrust-box rows sign * u[axis] <= thrust_bound, in +x, -x, +y, -y, +z, -z order.
_INPUT_COEFFS = np.kron(np.eye(3), [[1.0], [-1.0]])
_INPUT_LABELS = [f"input:{tag}{name}" for name in "xyz" for tag in "+-"]


@dataclass(frozen=True)
class RtaParams:
    """Safety limits and filter gains.

    ``pos_gain_inner`` and ``pos_gain_outer`` chain the separation barrier
    down to an acceleration condition; both 0.1/s gives an alert horizon of
    roughly 100 m at scenario speeds of a few m/s.  ``slack_penalty``
    multiplies the squared slacks in the QP objective.
    """

    collision_radius: float = 50.0
    max_speed: float = 3.0
    max_accel: float = 1.732
    thrust_bound: float = 1.0
    pos_gain_inner: float = 0.1
    pos_gain_outer: float = 0.1
    vel_gain: float = 1.0
    slack_penalty: float = 1e6

    def __post_init__(self):
        for name in ("collision_radius", "max_speed", "max_accel", "thrust_bound",
                     "pos_gain_inner", "pos_gain_outer", "vel_gain", "slack_penalty"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


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
    margins: np.ndarray
    active: np.ndarray
    labels: list
    fallback: bool = False

    def intervened(self, desired, tol: float = 1e-6) -> bool:
        return bool(np.max(np.abs(self.u_safe - np.asarray(desired, dtype=float))) > tol)


def _dot(a, b):
    return (a * b).sum(axis=-1)


def _kinematics(snaps) -> np.ndarray:
    """Positions, velocities and acceleration estimates as a (k, 3, 3) array."""
    return np.array([(s.state.pos, s.state.vel, s.accel_est) for s in snaps]).reshape(-1, 3, 3)


def _pos_barrier(d, collision_radius):
    return 0.5 * (_dot(d, d) - collision_radius**2)


def pos_barrier(state_i: RelativeState, state_j: RelativeState,
                collision_radius: float) -> float:
    """Half the squared separation in excess of the collision radius."""
    return float(_pos_barrier(state_i.pos - state_j.pos, collision_radius))


def pos_barrier_dot(state_i: RelativeState, state_j: RelativeState) -> float:
    """Time derivative of :func:`pos_barrier` along the joint motion."""
    return float(_dot(state_i.pos - state_j.pos, state_i.vel - state_j.vel))


def qp_arrays(agents, peer_kin, orbit: ChiefOrbit, params: RtaParams):
    """Every agent's QP rows, ``coeffs[i, k] . [u, slacks] <= rhs[i, k]``.

    ``agents`` are N snapshots with vehicle parameters; ``peer_kin`` (N, P, 3,
    3) holds the position, velocity and acceleration estimate of each agent's
    P peers.  The m = P + 8 variables are the thrust, one slack per peer and
    the shared slacks.  The m rows are P pair rows (second-order barriers on
    separation), a first-order barrier on speed, a bound on commanded
    acceleration along the agent's estimate, and the thrust box.
    """
    if any(agent.veh is None for agent in agents):
        raise ValueError("the filtered agent needs vehicle parameters")
    pos, vel, accel = _kinematics(agents).transpose(1, 0, 2)
    mass = np.array([agent.veh.mass for agent in agents])[:, None]
    drift = np.array([cwh_drift_accel(a.state, orbit) for a in agents]).reshape(-1, 3)
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
    coeffs[:, :p + 2, :3] = np.concatenate([-d, vel[:, None], accel[:, None]], 1) / mass[:, None]
    coeffs[:, p + 2:, :3] = _INPUT_COEFFS
    # Each row has its own slack, except that an axis's two box rows share one.
    slack = np.concatenate([np.arange(p + 2), p + 2 + np.arange(6) // 2])
    coeffs[:, :, 3:] = slack[:, None] == np.arange(p + N_SHARED_SLACKS)
    rhs = np.concatenate([pair_rhs, vel_rhs[:, None], acc_rhs[:, None],
                          np.full((n, 6), params.thrust_bound)], axis=1)
    return coeffs, rhs


def _labels(peer_labels, n_peers: int) -> list:
    return [*(peer_labels or [f"pos:{k}" for k in range(n_peers)]), "vel", "acc", *_INPUT_LABELS]


def _problem(coeffs, rhs, desired, params: RtaParams) -> qp_mod.QpProblem:
    """Thrust close to ``desired``, slacks close to zero under their penalty."""
    weights = np.concatenate([np.ones(3), np.full(len(rhs) - 3, params.slack_penalty)])
    center = np.concatenate([desired, np.zeros(len(rhs) - 3)])
    return qp_mod.QpProblem.from_arrays(weights, center, coeffs, rhs)


def build_rows(agent: AgentSnapshot, peers, orbit: ChiefOrbit,
               params: RtaParams, peer_labels=None) -> list:
    """All constraint rows for one agent, pair rows first."""
    return build_qp(agent, peers, np.zeros(3), orbit, params, peer_labels)[1]


def pos_hocbf_row(agent: AgentSnapshot, peer: AgentSnapshot, orbit: ChiefOrbit,
                  params: RtaParams, slack_index: int, label: str) -> ConstraintRow:
    """Second-order barrier condition on separation from one peer."""
    return replace(build_rows(agent, [peer], orbit, params)[0],
                   slack_index=slack_index, label=label)


def vel_row(agent: AgentSnapshot, orbit: ChiefOrbit, params: RtaParams,
            slack_index: int) -> ConstraintRow:
    """First-order barrier condition keeping speed below ``max_speed``."""
    return replace(build_rows(agent, [], orbit, params)[0], slack_index=slack_index)


def acc_row(agent: AgentSnapshot, orbit: ChiefOrbit, params: RtaParams,
            slack_index: int) -> ConstraintRow:
    """Bound on commanded acceleration along the current acceleration estimate."""
    return replace(build_rows(agent, [], orbit, params)[1], slack_index=slack_index)


def input_rows(params: RtaParams, first_slack_index: int) -> list:
    """Per-axis thrust box, two rows per axis sharing one slack."""
    return [ConstraintRow(-a, params.thrust_bound, first_slack_index + k // 2, label)
            for k, (a, label) in enumerate(zip(_INPUT_COEFFS, _INPUT_LABELS))]


def build_qp(agent: AgentSnapshot, peers, desired, orbit: ChiefOrbit,
             params: RtaParams, peer_labels=None):
    """The slack-relaxed QP for one agent (see :func:`qp_arrays`) and its rows."""
    coeffs, rhs = qp_arrays([agent], _kinematics(peers)[None], orbit, params)
    rows = [ConstraintRow(-a[:3], float(b), int(a[3:].argmax()), label)
            for a, b, label in zip(coeffs[0], rhs[0], _labels(peer_labels, len(peers)))]
    return _problem(coeffs[0], rhs[0], np.asarray(desired, dtype=float), params), rows


def _filter(agents, peer_kin, desired, orbit: ChiefOrbit, params: RtaParams, labels,
            active_tol: float) -> list:
    """One decision per agent; zero thrust and ``fallback`` on non-finite data,
    a non-optimal status or a non-finite solution."""
    coeffs, rhs = qp_arrays(agents, peer_kin, orbit, params)
    desired = np.asarray(desired, dtype=float).reshape(len(rhs), 3)
    finite = (np.isfinite(coeffs).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
              & np.isfinite(desired).all(axis=1))
    decisions = []
    for a, b, u, ok, names in zip(coeffs, rhs, desired, finite, labels):
        solution = qp_mod.solve(_problem(a, b, u, params)) if ok else None
        fallback = (solution is None or solution.status != qp_mod.OPTIMAL
                    or not np.isfinite(solution.x).all())
        x = np.zeros(len(b)) if fallback else solution.x
        active = (not fallback) & (np.abs(b - a @ x) <= active_tol)
        decisions.append(RtaDecision(x[:3], x[3:], b - a[:, :3] @ x[:3], active,
                                     names, fallback))
    return decisions


def filter_agent(agent: AgentSnapshot, peers, desired, orbit: ChiefOrbit,
                 params: RtaParams, peer_labels=None,
                 active_tol: float = 1e-7) -> RtaDecision:
    """Filter one agent's desired thrust against its constraint rows."""
    return _filter([agent], _kinematics(peers)[None], [desired], orbit, params,
                   [_labels(peer_labels, len(peers))], active_tol)[0]


def filter_actions(agents, desired_actions, orbit: ChiefOrbit,
                   params: RtaParams, include_chief: bool = True) -> list:
    """Filter every agent's desired thrust, treating the others as peers.

    ``agents`` is a list of AgentSnapshot; ``desired_actions`` the matching
    thrust commands in newtons.  When ``include_chief`` is set, a motionless
    chief at the origin joins each agent's peer list.
    """
    if len(agents) != len(desired_actions):
        raise ValueError("agents and desired_actions must align")
    everyone = [*agents, chief_snapshot()] if include_chief else list(agents)
    n, total = len(agents), len(everyone)
    peer_kin = np.broadcast_to(_kinematics(everyone), (n, total, 3, 3))[
        ~np.eye(n, total, dtype=bool)].reshape(n, max(total - 1, 0), 3, 3)
    names = [f"pos:peer{j}" for j in range(n)] + ["pos:chief"] * include_chief
    return _filter(agents, peer_kin, desired_actions, orbit, params,
                   [_labels(names[:i] + names[i + 1:], 0) for i in range(n)], 1e-7)
