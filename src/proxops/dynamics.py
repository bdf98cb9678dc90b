"""Relative-motion and inertial dynamics for chief/deputy proximity operations.

All states are expressed either in an Earth-centered inertial (ECI) frame or
in the chief-centered Hill frame with x radial (outward from Earth), y
along-track, and z along the chief's orbital angular momentum.  Units are
meters, seconds, kilograms, and newtons throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

MU_EARTH = 3.986004418e14
"""Earth gravitational parameter, m^3/s^2."""

J2_EARTH = 1.08262668e-3
"""Earth J2 zonal harmonic coefficient, dimensionless."""

R_EARTH = 6378137.0
"""Earth equatorial radius, m."""

DEFAULT_SEMI_MAJOR_AXIS = 6878137.0
"""Chief circular orbit radius used by default (about 500 km altitude), m."""

DEFAULT_INERTIAL_SUBSTEP = 1.0
"""Default RK4 step for inertial propagation, s."""


class PropagationError(RuntimeError):
    """Raised when numerical propagation produces an invalid state."""


def _vec3(value) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    if out.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {out.shape}")
    return out


@dataclass
class RelativeState:
    """Deputy position and velocity relative to the chief, Hill frame."""

    pos: np.ndarray
    vel: np.ndarray

    def __post_init__(self):
        self.pos = _vec3(self.pos)
        self.vel = _vec3(self.vel)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.pos, self.vel])

    @classmethod
    def from_vector(cls, vec) -> "RelativeState":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (6,):
            raise ValueError(f"expected a 6-vector, got shape {vec.shape}")
        return cls(vec[:3], vec[3:])


@dataclass
class InertialState:
    """Absolute position and velocity in the ECI frame."""

    pos: np.ndarray
    vel: np.ndarray

    def __post_init__(self):
        self.pos = _vec3(self.pos)
        self.vel = _vec3(self.vel)


@dataclass(frozen=True)
class ChiefOrbit:
    """Circular chief orbit of radius ``semi_major_axis`` (m) about the Earth.

    Its mean motion sqrt(MU_EARTH / semi_major_axis^3), rad/s, is the Hill
    frame's rate, derived when the orbit is made.  ``j2_enabled`` adds the
    Earth's J2 term to the inertial dynamics.
    """

    semi_major_axis: float = DEFAULT_SEMI_MAJOR_AXIS
    j2_enabled: bool = False
    mean_motion: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.semi_major_axis) and self.semi_major_axis > 0.0):
            raise ValueError("semi_major_axis must be finite and positive")
        object.__setattr__(self, "mean_motion", math.sqrt(MU_EARTH / self.semi_major_axis**3))


@dataclass(frozen=True)
class VehicleParams:
    """Deputy actuation limits: mass in kg, per-axis thrust bound in N."""

    mass: float = 1.0
    thrust_bound: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ValueError("mass must be finite and positive")
        if not (math.isfinite(self.thrust_bound) and self.thrust_bound > 0.0):
            raise ValueError("thrust_bound must be finite and positive")


def cwh_drift_rows(states: np.ndarray, orbit: ChiefOrbit) -> np.ndarray:
    """Unforced Clohessy-Wiltshire acceleration, m/s^2, of each row of
    ``states`` (..., 6), position then velocity; each row gets the bits it
    would get alone.  Thrust enters separately as u / mass."""
    n = orbit.mean_motion
    x, _, z, vx, vy, _ = states.T
    return np.array([3.0 * n * n * x + 2.0 * n * vy, -2.0 * n * vx, -n * n * z]).T


def _rk4(deriv, state, h, substeps: int) -> tuple:
    """``substeps`` classical RK4 steps of size ``h`` from the six float
    components of ``state`` (position, then velocity).

    ``deriv`` maps the six components to their six time derivatives.
    """
    x, y, z, vx, vy, vz = state
    half = 0.5 * h
    sixth = h / 6.0
    for _ in range(substeps):
        k1 = deriv(x, y, z, vx, vy, vz)
        k2 = deriv(x + half * k1[0], y + half * k1[1], z + half * k1[2],
                   vx + half * k1[3], vy + half * k1[4], vz + half * k1[5])
        k3 = deriv(x + half * k2[0], y + half * k2[1], z + half * k2[2],
                   vx + half * k2[3], vy + half * k2[4], vz + half * k2[5])
        k4 = deriv(x + h * k3[0], y + h * k3[1], z + h * k3[2],
                   vx + h * k3[3], vy + h * k3[4], vz + h * k3[5])
        x = x + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        y = y + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        z = z + sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        vx = vx + sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
        vy = vy + sixth * (k1[4] + 2.0 * k2[4] + 2.0 * k3[4] + k4[4])
        vz = vz + sixth * (k1[5] + 2.0 * k2[5] + 2.0 * k3[5] + k4[5])
    return x, y, z, vx, vy, vz


def _check_rk4_steps(dt: float, substeps: int) -> None:
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be finite and positive")
    if substeps < 1:
        raise ValueError("substeps must be at least 1")


def propagate_cwh(state: RelativeState, u, dt: float, orbit: ChiefOrbit,
                  veh: VehicleParams, substeps: int) -> RelativeState:
    """Propagate the CWH dynamics for ``dt`` > 0 seconds under thrust ``u`` (N)
    held constant, by ``substeps`` >= 1 classical RK4 steps.  Scenarios and
    episodes step with the exact map :func:`propagate_cwh_zoh`; tests check
    that map and the closed form against this integrator.

    Raises PropagationError if the propagated state stops being finite.
    """
    _check_rk4_steps(dt, substeps)
    n, inv_m = orbit.mean_motion, 1.0 / veh.mass
    n2 = n * n
    ax_u, ay_u, az_u = (v * inv_m for v in np.asarray(u, dtype=float).tolist())

    def deriv(x, y, z, vx, vy, vz):  # Python floats: no array allocation in the hot loop
        return (vx, vy, vz, 3.0 * n2 * x + 2.0 * n * vy + ax_u,
                -2.0 * n * vx + ay_u, -n2 * z + az_u)

    out = _rk4(deriv, state.pos.tolist() + state.vel.tolist(), dt / substeps, substeps)
    if not all(math.isfinite(v) for v in out):
        raise PropagationError("relative-motion propagation diverged to non-finite state")
    return RelativeState(np.array(out[:3]), np.array(out[3:]))


def cwh_zoh(dt: float, orbit: ChiefOrbit, veh: VehicleParams) -> np.ndarray:
    """Exact CWH map over ``dt`` s of thrust held constant (zero-order hold):
    the read-only (9, 6) matrix G = [Phi Gamma]^T, with x(t + dt) = Phi x(t) +
    Gamma u = [x, u] G, computed on first use per dt, mean motion and mass.

    Phi and Gamma are the top rows of the exponential of [[A, B/m], [0, 0]] dt
    (Van Loan 1978): scaled to 1-norm 1/2 or less, 18 Taylor terms, squared back.
    """
    return _zoh_map(dt, orbit.mean_motion, veh.mass)[0]


@functools.lru_cache(maxsize=16)
def _zoh_map(dt: float, n: float, mass: float) -> tuple:
    """The map G of :func:`cwh_zoh` and the step's input limit: inputs no
    larger in magnitude give products of at most 1e300, so every step whose
    inputs pass is finite and raises no floating-point warning."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be finite and positive")
    aug = np.zeros((9, 9))  # d/dt [x, u] = aug [x, u]: velocity, CWH drift plus u/m, u held
    aug[:6, 3:] = np.diag([1.0, 1.0, 1.0] + [1.0 / mass] * 3)
    aug[3, 0], aug[3, 4], aug[4, 3], aug[5, 2] = 3.0 * n * n, 2.0 * n, -2.0 * n, -n * n
    squarings = max(0, math.ceil(math.log2(2.0 * dt * np.abs(aug).sum(axis=0).max())))
    x = aug * (dt / 2.0**squarings)
    term = out = np.eye(9)
    for k in range(1, 19):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    out = np.ascontiguousarray(out[:6].T)
    out.flags.writeable = False  # one cached array serves every caller
    return out, 1e300 / max(1.0, float(np.abs(out).sum(axis=0).max()))


def propagate_cwh_zoh(states: np.ndarray, u: np.ndarray, dt: float,
                      orbit: ChiefOrbit, veh: VehicleParams) -> np.ndarray:
    """Exact CWH step (:func:`cwh_zoh`) of each row of ``states`` (K, 6) under
    its held thrust ``u`` (K, 3), N.  Rows go through the map as one-row
    products, so each gets the bits it would get alone (a (K, 9) matrix
    product rounds differently per K).

    Raises PropagationError before stepping when a state or thrust entry is
    NaN or larger in magnitude than the map's input limit (about 4e299 at
    dt = 1 s), so every result is finite and no step warns.
    """
    xu = np.concatenate([states, u], axis=-1)[..., None, :]
    zoh, limit = _zoh_map(dt, orbit.mean_motion, veh.mass)
    if not np.abs(xu).max(initial=0.0) <= limit:  # NaN fails the comparison too
        raise PropagationError("relative-motion step input is NaN or past the step's limit")
    return (xu @ zoh)[..., 0, :]


def cwh_closed_form(state: RelativeState, dt: float, orbit: ChiefOrbit) -> RelativeState:
    """Exact unforced CWH solution after ``dt`` seconds.

    Uses the closed-form state transition matrix of the linearized relative
    motion; valid for any dt, including zero and negative values.
    """
    n = orbit.mean_motion
    nt = n * dt
    c = math.cos(nt)
    s = math.sin(nt)

    phi_rr = np.array([
        [4.0 - 3.0 * c, 0.0, 0.0],
        [6.0 * (s - nt), 1.0, 0.0],
        [0.0, 0.0, c],
    ])
    phi_rv = np.array([
        [s / n, 2.0 * (1.0 - c) / n, 0.0],
        [2.0 * (c - 1.0) / n, (4.0 * s - 3.0 * nt) / n, 0.0],
        [0.0, 0.0, s / n],
    ])
    phi_vr = np.array([
        [3.0 * n * s, 0.0, 0.0],
        [6.0 * n * (c - 1.0), 0.0, 0.0],
        [0.0, 0.0, -n * s],
    ])
    phi_vv = np.array([
        [c, 2.0 * s, 0.0],
        [-2.0 * s, 4.0 * c - 3.0, 0.0],
        [0.0, 0.0, c],
    ])

    pos = phi_rr @ state.pos + phi_rv @ state.vel
    vel = phi_vr @ state.pos + phi_vv @ state.vel
    return RelativeState(pos, vel)


def propagate_inertial(state: InertialState, dt: float, orbit: ChiefOrbit,
                       substeps: int | None = None) -> InertialState:
    """RK4 propagation of the two-body (+J2) dynamics for ``dt`` seconds.

    Raises PropagationError if the trajectory leaves the valid domain
    (non-finite values or descent below the body radius).
    """
    _check_rk4_steps(dt, 1 if substeps is None else substeps)
    if substeps is None:
        substeps = max(1, int(round(dt / DEFAULT_INERTIAL_SUBSTEP)))
    j2_on = orbit.j2_enabled
    j2k = -1.5 * J2_EARTH * MU_EARTH * R_EARTH**2

    def deriv(x, y, z, vx, vy, vz):
        r2 = x * x + y * y + z * z
        rn = math.sqrt(r2)
        g = -MU_EARTH / (r2 * rn)
        ax, ay, az = g * x, g * y, g * z
        if j2_on:
            k = j2k / (r2 * r2 * rn)
            z2_r2 = z * z / r2
            ax += k * x * (1.0 - 5.0 * z2_r2)
            ay += k * y * (1.0 - 5.0 * z2_r2)
            az += k * z * (3.0 - 5.0 * z2_r2)
        return (vx, vy, vz, ax, ay, az)

    h = dt / substeps
    out = state.pos.tolist() + state.vel.tolist()
    x, y, z = out[:3]
    if x * x + y * y + z * z < R_EARTH**2:
        raise PropagationError("inertial propagation starts below the body radius")
    for _ in range(substeps):  # one RK4 step at a time, each one checked
        out = _rk4(deriv, out, h, 1)
        x, y, z, vx = out[:4]
        if not (math.isfinite(x) and math.isfinite(vx)):
            raise PropagationError("inertial propagation diverged to non-finite state")
        if x * x + y * y + z * z < R_EARTH**2:
            raise PropagationError("inertial propagation descended below the body radius")

    return InertialState(np.array(out[:3]), np.array(out[3:]))


def _hill_basis(chief: InertialState):
    """Rotation matrix (rows = Hill axes in ECI) and frame rate about z."""
    r0 = chief.pos
    v0 = chief.vel
    rn = float(np.linalg.norm(r0))
    h = np.cross(r0, v0)
    hn = float(np.linalg.norm(h))
    if rn == 0.0 or hn == 0.0:
        raise ValueError("chief state is degenerate: zero radius or angular momentum")
    x_hat = r0 / rn
    z_hat = h / hn
    y_hat = np.cross(z_hat, x_hat)
    rot = np.vstack([x_hat, y_hat, z_hat])
    omega_z = hn / (rn * rn)
    return rot, omega_z


def eci_to_hill(chief: InertialState, deputy: InertialState) -> RelativeState:
    """Express the deputy state relative to the chief in the Hill frame.

    The transformation rotates the position difference into the Hill axes and
    removes the frame rotation from the velocity difference (transport term).
    """
    rot, omega_z = _hill_basis(chief)
    dpos = rot @ (deputy.pos - chief.pos)
    dvel = rot @ (deputy.vel - chief.vel)
    omega = np.array([0.0, 0.0, omega_z])
    return RelativeState(dpos, dvel - np.cross(omega, dpos))


def hill_to_eci(chief: InertialState, rel: RelativeState) -> InertialState:
    """Inverse of :func:`eci_to_hill` about the same chief state."""
    rot, omega_z = _hill_basis(chief)
    omega = np.array([0.0, 0.0, omega_z])
    pos = chief.pos + rot.T @ rel.pos
    vel = chief.vel + rot.T @ (rel.vel + np.cross(omega, rel.pos))
    return InertialState(pos, vel)


def circular_chief_state(orbit: ChiefOrbit, phase: float = 0.0) -> InertialState:
    """ECI state of the chief on its circular equatorial orbit at ``phase`` rad."""
    a = orbit.semi_major_axis
    speed = orbit.mean_motion * a
    c, s = math.cos(phase), math.sin(phase)
    return InertialState(np.array([a * c, a * s, 0.0]),
                         np.array([-speed * s, speed * c, 0.0]))
