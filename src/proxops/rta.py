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
:func:`qp.solve_batch` call solves every agent's QP in lock-step;
:func:`build_qp` is one agent's QP from the same arrays.  The filter fails
closed: non-finite data or a failed solve gives zero thrust, flagged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import ChiefOrbit, VehicleParams, cwh_drift_rows
from . import qp as qp_mod

N_SHARED_SLACKS = 5  # velocity, acceleration, and one per thrust axis
INTERVENTION_TOL = 1e-6  # N; the filter intervened when a thrust axis moved further
ACTIVE_TOL = 1e-7  # a row binds when its margin at the solution is at most this
# Thrust-box rows sign * u[axis] <= vehicle.thrust_bound, in +x, -x, +y, -y, +z, -z order.
_INPUT_COEFFS = np.kron(np.eye(3), [[1.0], [-1.0]])


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


@functools.lru_cache(maxsize=16)
def _fixed_coeffs(p: int) -> np.ndarray:
    """The read-only (1, m, m) coefficients of :func:`qp_arrays` that depend
    only on the peer count P: the thrust box's thrust columns and every row's
    slack column, with zeros where the P + 2 barrier rows' thrust goes."""
    coeffs = np.zeros((1, p + 8, p + 8))
    coeffs[0, p + 2:, :3] = _INPUT_COEFFS
    # Each row has its own slack, except that an axis's two box rows share one.
    slack = np.concatenate([np.arange(p + 2), p + 2 + np.arange(6) // 2])
    coeffs[0, :, 3:] = slack[:, None] == np.arange(p + N_SHARED_SLACKS)
    coeffs.flags.writeable = False
    return coeffs


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
    kin = np.asarray(kin, dtype=float)
    n, p = peer_kin.shape[:2]
    vel, accel = kin[:, 1], kin[:, 2]
    drift = cwh_drift_rows(kin[:, :2].reshape(n, 6), orbit)
    d, dv = (kin[:, None, :2] - peer_kin[:, :, :2]).transpose(2, 0, 1, 3)
    gain_sum = params.pos_gain_inner + params.pos_gain_outer
    gain_prod = params.pos_gain_inner * params.pos_gain_outer
    rhs = np.empty((n, p + 8))
    rhs[:, :p] = (_dot(dv, dv) - _dot(d, peer_kin[:, :, 2]) + _dot(d, drift[:, None])
                  + gain_sum * _dot(d, dv)
                  + gain_prod * _pos_barrier(d, params.collision_radius))
    rhs[:, p] = (-_dot(vel, drift)
                 + params.vel_gain * 0.5 * (params.max_speed**2 - _dot(vel, vel)))
    rhs[:, p + 1] = params.max_accel**2 - _dot(accel, drift)
    rhs[:, p + 2:] = vehicle.thrust_bound
    coeffs = _fixed_coeffs(p).repeat(n, axis=0)
    coeffs[:, :p, :3] = d / -vehicle.mass
    coeffs[:, p:p + 2, :3] = kin[:, 1:] / vehicle.mass  # the speed row, then the acceleration row
    return coeffs, rhs


def _costs(desired, m: int, params: RtaParams):
    """Weights and centres, (N, m): thrust close to ``desired`` (N, 3), slacks
    close to zero under their penalty."""
    weights = np.full((len(desired), m), params.slack_penalty)
    weights[:, :3] = 1.0
    centres = np.zeros((len(desired), m))
    centres[:, :3] = desired
    return weights, centres


@functools.lru_cache(maxsize=16)
def _peer_index(n: int) -> np.ndarray:
    """The read-only (N, N) index of each agent's peers among the N agents
    and the chief (index N): the other agents in index order, then the chief."""
    index = np.arange(n) + (np.arange(n) >= np.arange(n)[:, None])
    index.flags.writeable = False
    return index


def _kinematics(states, desired, accel):
    """Each agent's kinematics, its peers' (see :func:`qp_arrays`) and the
    desired thrusts from the arrays :func:`filter_actions` takes.  Agent i's
    peers are the other agents in index order, then the chief, motionless at
    the origin."""
    states, n = np.asarray(states, dtype=float), len(states)
    if states.shape != (n, 6) or np.shape(desired) != (n, 3) or np.shape(accel) != (n, 3):
        raise ValueError("states, desired and accel must be (N, 6), (N, 3) and (N, 3)")
    everyone = np.zeros((n + 1, 3, 3))  # the agents, then the chief
    everyone[:n, :2] = states.reshape(n, 2, 3)
    everyone[:n, 2] = accel
    return everyone[:n], everyone[_peer_index(n)], np.asarray(desired, dtype=float)


def build_qp(states, desired, accel, orbit: ChiefOrbit, params: RtaParams,
             vehicle: VehicleParams, k: int) -> tuple:
    """Agent ``k``'s slack-relaxed QP as the ``(weights, centres, coeffs, rhs)``
    that :func:`qp.solve` takes: the one :func:`filter_actions` solves for
    agent ``k`` from the same arguments, with the rows of :func:`qp_arrays`."""
    kin, peer_kin, desired = _kinematics(states, desired, accel)
    coeffs, rhs = qp_arrays(kin[[k]], peer_kin[[k]], orbit, params, vehicle)
    weights, centres = _costs(desired[[k]], rhs.shape[1], params)
    return weights[0], centres[0], coeffs[0], rhs[0]


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

    One batched solve gives every decision.  An agent gets zero thrust and
    ``fallback`` on non-finite data in its rows or command, a non-optimal
    status or a non-finite solution; a non-finite peer makes the rows of
    every agent that sees it non-finite, so none of them is certified.
    """
    kin, peer_kin, desired = _kinematics(states, desired, accel)
    n = len(kin)
    if warm is not None:
        warm = np.asarray(warm, dtype=bool)
        if warm.shape != (n, n + 8):
            raise ValueError("warm must be an (N, N + 8) boolean mask")
    coeffs, rhs = qp_arrays(kin, peer_kin, orbit, params, vehicle)
    weights, centres = _costs(desired, rhs.shape[1], params)
    unsolved = ~(np.isfinite(coeffs).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
                 & np.isfinite(desired).all(axis=1))
    # Non-finite data never reach the solver: such an agent's QP becomes zero
    # rows with negative right-hand sides and a zero centre, which the solver
    # rejects as infeasible before its first step, with x = 0, no iterations
    # and an infinite residual.
    coeffs[unsolved], rhs[unsolved], centres[unsolved] = 0.0, -1.0, 0.0
    solution = qp_mod.solve_batch(weights, centres, coeffs, rhs, warm)
    x = solution.x
    fallback = ~((solution.status == qp_mod.OPTIMAL) & np.isfinite(x).all(axis=1))
    x[fallback] = 0.0
    active = ~fallback[:, None] & (np.abs(rhs - (coeffs @ x[..., None])[..., 0]) <= ACTIVE_TOL)
    return [RtaDecision(*fields) for fields in zip(
        x[:, :3], x[:, 3:], active, fallback.tolist(), solution.iterations.tolist(),
        solution.kkt_residual.tolist())]
