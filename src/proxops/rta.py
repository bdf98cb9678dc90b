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
:func:`build_qp` is one agent's row of that same stack.  The filter fails
closed: a QP the solver refuses or cannot solve gives zero thrust, flagged.
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
# The separation barrier's two-gain chain down to an acceleration condition,
# 1/s: both 0.1/s gives an alert horizon of about 100 m at a few m/s.
POS_GAIN_INNER = 0.1
POS_GAIN_OUTER = 0.1
VEL_GAIN = 1.0  # 1/s, the speed barrier's decay rate
SLACK_PENALTY = 1e6  # weight of each squared slack: slacks stay at zero unless rows conflict
# Thrust-box rows sign * u[axis] <= vehicle.thrust_bound, in +x, -x, +y, -y, +z, -z order.
_INPUT_COEFFS = np.kron(np.eye(3), [[1.0], [-1.0]])


@dataclass(frozen=True)
class RtaParams:
    """Safety limits: the separation from every peer and the chief (m), the
    speed ceiling (m/s) and the commanded-acceleration ceiling (m/s^2).  The
    thrust box comes from the vehicle's :class:`VehicleParams`, and the
    barrier gains and slack penalty are module constants."""

    collision_radius: float = 50.0
    max_speed: float = 3.0
    max_accel: float = 1.732

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{f.name} must be finite and positive")


@dataclass
class RtaDecision(qp_mod.Stack):
    """The filter's output for N agents, for m = N + 8 rows (see
    :class:`qp.Stack`); ``decision[k]`` is agent k's, with row k of each."""

    u_safe: np.ndarray        # (N, 3) N, the filtered thrust
    slacks: np.ndarray        # (N, m - 3): one per peer, then the shared five
    active: np.ndarray        # (N, m) bool, the rows that bind at the solution
    fallback: np.ndarray      # (N,) bool, zero thrust for want of a certified solve
    iterations: np.ndarray    # (N,) int, solver iterations; 0 if the QP was not solved
    kkt_residual: np.ndarray  # (N,) float, the solution's KKT residual; inf if not solved
    drift: np.ndarray         # (N, 3) m/s^2, cwh_drift_rows of the states the rows are built at


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


def qp_arrays(kin, peer_kin, drift, params: RtaParams, vehicle: VehicleParams):
    """Every agent's QP rows, ``coeffs[i, k] . [u, slacks] <= rhs[i, k]``.

    ``kin`` (N, 3, 3) holds each filtered agent's position, velocity and
    acceleration estimate; ``peer_kin`` (N, P, 3, 3) the same for each
    agent's P peers, and ``drift`` (N, 3) each agent's :func:`cwh_drift_rows`.
    The m = P + 8 variables are the thrust, one slack per peer and the shared
    slacks.  The m rows are P pair rows (second-order barriers on separation),
    a first-order barrier on speed, a bound on commanded acceleration along
    the agent's estimate, and the thrust box at ``vehicle.thrust_bound``.
    """
    kin = np.asarray(kin, dtype=float)
    n, p = peer_kin.shape[:2]
    vel, accel = kin[:, 1], kin[:, 2]
    d, dv = (kin[:, None, :2] - peer_kin[:, :, :2]).transpose(2, 0, 1, 3)
    rhs = np.empty((n, p + 8))
    rhs[:, :p] = (_dot(dv, dv) - _dot(d, peer_kin[:, :, 2]) + _dot(d, drift[:, None])
                  + (POS_GAIN_INNER + POS_GAIN_OUTER) * _dot(d, dv)
                  + POS_GAIN_INNER * POS_GAIN_OUTER * _pos_barrier(d, params.collision_radius))
    rhs[:, p] = (-_dot(vel, drift)
                 + VEL_GAIN * 0.5 * (params.max_speed**2 - _dot(vel, vel)))
    rhs[:, p + 1] = params.max_accel**2 - _dot(accel, drift)
    rhs[:, p + 2:] = vehicle.thrust_bound
    coeffs = _fixed_coeffs(p).repeat(n, axis=0)
    coeffs[:, :p, :3] = d / -vehicle.mass
    coeffs[:, p:p + 2, :3] = kin[:, 1:] / vehicle.mass  # the speed row, then the acceleration row
    return coeffs, rhs


def _costs(desired, m: int):
    """Weights and centres, (N, m): thrust close to ``desired`` (N, 3), slacks
    close to zero under their penalty."""
    weights = np.full((len(desired), m), SLACK_PENALTY)
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
        raise ValueError("states must be (N, 6), and desired and accel (N, 3)")
    everyone = np.zeros((n + 1, 3, 3))  # the agents, then the chief
    everyone[:n, :2] = states.reshape(n, 2, 3)
    everyone[:n, 2] = accel
    return everyone[:n], everyone[_peer_index(n)], np.asarray(desired, dtype=float)


def _assemble(states, desired, accel, orbit: ChiefOrbit, params: RtaParams,
              vehicle: VehicleParams) -> tuple:
    """Every agent's QP as the ``(weights, centres, coeffs, rhs)`` that
    :func:`qp.solve_batch` takes, and the drift the rows are built at."""
    kin, peer_kin, desired = _kinematics(states, desired, accel)
    with np.errstate(over="ignore", invalid="ignore"):  # hostile data overflow here
        drift = cwh_drift_rows(kin[:, :2].reshape(len(kin), 6), orbit)
        coeffs, rhs = qp_arrays(kin, peer_kin, drift, params, vehicle)
    return (*_costs(desired, rhs.shape[1]), coeffs, rhs), drift


def build_qp(states, desired, accel, orbit: ChiefOrbit, params: RtaParams,
             vehicle: VehicleParams, k: int) -> tuple:
    """Agent ``k``'s slack-relaxed QP as the ``(weights, centres, coeffs, rhs)``
    that :func:`qp.solve` takes: row ``k`` of the stack :func:`filter_actions`
    solves from the same arguments, with the rows of :func:`qp_arrays`."""
    problems, _ = _assemble(states, desired, accel, orbit, params, vehicle)
    return tuple(v[k] for v in problems)


def filter_actions(states, desired, accel, orbit: ChiefOrbit, params: RtaParams,
                   vehicle: VehicleParams, warm=None) -> RtaDecision:
    """Filter every agent's desired thrust against the others and the chief.

    ``states`` (N, 6) holds positions and velocities, ``desired`` (N, 3) the
    commanded thrusts in newtons and ``accel`` (N, 3) each agent's
    acceleration estimate; every agent flies ``vehicle``.  Each agent's peers
    are the other agents, then the chief, motionless at the origin.  The
    decision's ``drift`` is the ``cwh_drift_rows(states, orbit)`` its rows are
    built at, which the caller's next acceleration estimates can reuse.
    ``warm``, if given, is an (N, N + 8) boolean guess of each agent's binding
    rows, such as the last tick's :attr:`RtaDecision.active` (any other shape
    raises ``ValueError`` in :func:`qp.solve_batch`).  It changes how many
    solver steps the decision takes, and the decision only by roundoff.

    One batched solve gives every agent's row of the decision.  An agent gets
    zero thrust and ``fallback`` when its QP is not optimal or its solution
    not finite, which includes every QP the solver refuses (see
    :func:`qp.solve_batch`): non-finite rows or command, or a row entry past
    :data:`qp.DATA_LIMIT`.  A non-finite peer makes the rows of every agent
    that sees it non-finite, so none of them is certified.
    """
    problems, drift = _assemble(states, desired, accel, orbit, params, vehicle)
    solution = qp_mod.solve_batch(*problems, warm)
    x = solution.x
    fallback = ~((solution.status == qp_mod.OPTIMAL) & np.isfinite(x).all(axis=1))
    x[fallback] = 0.0
    active = ~fallback[:, None] & (np.abs(solution.margins) <= ACTIVE_TOL)
    return RtaDecision(x[:, :3], x[:, 3:], active, fallback, solution.iterations,
                       solution.kkt_residual, drift)
