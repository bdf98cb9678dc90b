import math

import numpy as np
import pytest

from proxops import dynamics
from proxops.dynamics import (
    DEFAULT_SEMI_MAJOR_AXIS,
    J2_EARTH,
    MU_EARTH,
    R_EARTH,
    ChiefOrbit,
    InertialState,
    PropagationError,
    RelativeState,
    VehicleParams,
    circular_chief_state,
    cwh_closed_form,
    cwh_drift_rows,
    cwh_zoh,
    eci_to_hill,
    hill_to_eci,
    propagate_cwh,
    propagate_cwh_zoh,
    propagate_inertial,
)

ORBIT = ChiefOrbit()
VEH = VehicleParams()
N = ORBIT.mean_motion


def random_state(rng):
    return RelativeState(rng.uniform(-500.0, 500.0, 3), rng.uniform(-5.0, 5.0, 3))


def test_zero_state_zero_thrust_has_zero_derivative():
    assert np.array_equal(cwh_drift_rows(np.zeros(6), ORBIT), np.zeros(3))
    zero = np.zeros((1, 6))
    assert np.array_equal(propagate_cwh_zoh(zero, np.zeros((1, 3)), 1.0, ORBIT, VEH), zero)


def test_pure_radial_offset_accelerates_radially():
    accel = cwh_drift_rows(np.array([100.0, 0, 0, 0, 0, 0]), ORBIT)
    assert accel[0] == pytest.approx(3.0 * N * N * 100.0, rel=1e-15)
    assert accel[1] == 0.0 and accel[2] == 0.0


def test_cross_track_is_a_pure_oscillator():
    accel = cwh_drift_rows(np.array([0, 0, 80.0, 0, 0, 0]), ORBIT)
    assert accel[2] == pytest.approx(-N * N * 80.0, rel=1e-15)
    assert accel[0] == 0.0 and accel[1] == 0.0


def zoh_step(state, u, veh=VEH, dt=1.0):
    """One exact CWH step of one (6,) state under the held thrust ``u``."""
    return propagate_cwh_zoh(np.reshape(state, (1, 6)), np.reshape(u, (1, 3)), dt, ORBIT, veh)[0]


def test_thrust_enters_affinely():
    # On the map scenarios step with: from the zero state only thrust moves
    # the vehicle, and the step is affine in the thrust up to roundoff.
    zero = np.zeros(6)
    u1 = np.array([0.5, -0.25, 1.0])
    u2 = np.array([-1.0, 0.5, 0.25])
    for dt in (1.0, 10.0):
        lhs = zoh_step(zero, u1 + u2, dt=dt) - zoh_step(zero, u2, dt=dt)
        rhs = zoh_step(zero, u1, dt=dt) - zoh_step(zero, np.zeros(3), dt=dt)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-15)

    rng = np.random.default_rng(7)
    for _ in range(20):
        st = random_state(rng).as_vector()
        ua, ub = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        lhs = zoh_step(st, ua + ub) - zoh_step(st, ub)
        rhs = zoh_step(st, ua) - zoh_step(st, np.zeros(3))
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_derivative_mass_scaling():
    # Thrust enters the step as u / mass: a 4 kg vehicle under u moves as the
    # 1 kg vehicle under u / 4.
    heavy = VehicleParams(mass=4.0)
    u = np.array([1.0, -0.5, 0.25])
    for dt in (1.0, 10.0):
        np.testing.assert_allclose(zoh_step(np.zeros(6), u, heavy, dt),
                                   zoh_step(np.zeros(6), u / 4.0, VEH, dt), rtol=1e-15, atol=0)


def test_propagate_matches_derivative_for_small_dt():
    rng = np.random.default_rng(11)
    for _ in range(10):
        st = random_state(rng)
        u = rng.uniform(-1, 1, 3)
        accel = cwh_drift_rows(st.as_vector(), ORBIT) + u / VEH.mass
        # First-order truncation leaves an O(accel * dt / 2) gap.
        dt = 1e-4
        nxt = propagate_cwh(st, u, dt, ORBIT, VEH, substeps=1)
        np.testing.assert_allclose((nxt.pos - st.pos) / dt, st.vel, rtol=1e-6, atol=dt)
        np.testing.assert_allclose((nxt.vel - st.vel) / dt, accel, rtol=1e-6, atol=dt)


def test_propagation_composes():
    rng = np.random.default_rng(3)
    st = random_state(rng)
    u = np.array([0.2, -0.1, 0.05])
    whole = propagate_cwh(st, u, 50.0, ORBIT, VEH, substeps=100)
    half = propagate_cwh(st, u, 25.0, ORBIT, VEH, substeps=50)
    split = propagate_cwh(half, u, 25.0, ORBIT, VEH, substeps=50)
    np.testing.assert_allclose(split.as_vector(), whole.as_vector(), rtol=1e-9, atol=1e-9)


def test_cross_track_half_period_flips_sign():
    # Closed-form z solution: z(t) = z0 cos(n t), so z(pi/n) = -z0.
    st = RelativeState([0, 0, 10.0], [0, 0, 0])
    half = math.pi / N
    got = propagate_cwh(st, [0, 0, 0], half, ORBIT, VEH, substeps=int(half / 0.1))
    np.testing.assert_allclose(got.pos, [0.0, 0.0, -10.0], atol=1e-6)
    np.testing.assert_allclose(got.vel, [0.0, 0.0, 0.0], atol=1e-8)


def test_closed_form_identity_at_zero_dt():
    st = RelativeState([12.0, -7.0, 3.0], [0.4, 0.1, -0.2])
    got = cwh_closed_form(st, 0.0, ORBIT)
    assert np.array_equal(got.pos, st.pos)
    assert np.array_equal(got.vel, st.vel)


def test_unforced_propagation_matches_closed_form():
    rng = np.random.default_rng(42)
    for _ in range(25):
        st = random_state(rng)
        dt = float(rng.uniform(1.0, 500.0))
        rk = propagate_cwh(st, [0, 0, 0], dt, ORBIT, VEH, substeps=max(1, int(dt)))
        cf = cwh_closed_form(st, dt, ORBIT)
        scale = max(1.0, float(np.max(np.abs(cf.as_vector()))))
        assert np.max(np.abs(rk.as_vector() - cf.as_vector())) / scale < 1e-6


@pytest.mark.parametrize("dt", [0.5, 1.0, 2.0, 60.0])
def test_zoh_map_without_thrust_is_the_closed_form(dt):
    rng = np.random.default_rng(5)
    phi = cwh_zoh(dt, ORBIT, VEH)[:6].T
    for _ in range(50):
        st = random_state(rng)
        exact = cwh_closed_form(st, dt, ORBIT).as_vector()
        for got in (phi @ st.as_vector(),
                    propagate_cwh_zoh(st.as_vector(), np.zeros(3), dt, ORBIT, VEH)):
            assert np.linalg.norm(got - exact) <= 1e-12 * np.linalg.norm(exact)


@pytest.mark.parametrize("dt", [0.5, 1.0, 2.0, 60.0])
def test_zoh_map_with_thrust_matches_fine_rk4(dt):
    rng = np.random.default_rng(6)
    veh = VehicleParams(mass=4.0, thrust_bound=2.0)
    for _ in range(50):
        st, u = random_state(rng), rng.uniform(-2.0, 2.0, 3)
        rk = propagate_cwh(st, u, dt, ORBIT, veh, substeps=50).as_vector()
        got = propagate_cwh_zoh(st.as_vector(), u, dt, ORBIT, veh)
        assert np.linalg.norm(got - rk) <= 1e-9 * np.linalg.norm(rk)


def test_zoh_map_is_cached_and_read_only():
    # One map per dt, mean motion and mass: equal but distinct orbits and
    # vehicles, a J2 flag and a thrust bound (neither enters it) share it.
    first = cwh_zoh(1.0, ORBIT, VEH)
    assert not first.flags.writeable
    rng = np.random.default_rng(8)
    states, u = rng.normal(0.0, 100.0, (4, 6)), rng.uniform(-1.0, 1.0, (4, 3))
    stepped = propagate_cwh_zoh(states, u, 1.0, ORBIT, VEH)
    for orbit, veh in ((ChiefOrbit(), VehicleParams()),
                       (ChiefOrbit(j2_enabled=True), VehicleParams(thrust_bound=2.0))):
        assert cwh_zoh(1.0, orbit, veh) is first
        assert propagate_cwh_zoh(states, u, 1.0, orbit, veh).tobytes() == stepped.tobytes()
    with pytest.raises(ValueError):
        cwh_zoh(float("nan"), ORBIT, VEH)


def test_propagate_rejects_bad_arguments():
    st = RelativeState([0, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError):
        propagate_cwh(st, [0, 0, 0], 0.0, ORBIT, VEH, substeps=1)
    with pytest.raises(ValueError):
        propagate_cwh(st, [0, 0, 0], -1.0, ORBIT, VEH, substeps=1)
    with pytest.raises(ValueError):
        propagate_cwh(st, [0, 0, 0], 1.0, ORBIT, VEH, substeps=0)


def test_propagate_flags_numerical_blowup():
    st = RelativeState([0, 0, 0], [0, 0, 0])
    with pytest.raises(PropagationError):
        propagate_cwh(st, [1e308, 0, 0], 10.0, ORBIT, VEH, substeps=2)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_rk4_oracles_reject_a_non_finite_dt(dt):
    # One ValueError, before any RK4 step or default substep count.
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        propagate_cwh(RelativeState([1, 0, 0], [0, 0, 0]), [0, 0, 0], dt, ORBIT, VEH, substeps=1)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        propagate_inertial(circular_chief_state(ORBIT), dt, ORBIT)


def _stacked_product(states, u, dt):
    xu = np.concatenate([states, u], axis=-1)[..., None, :]
    return (xu @ cwh_zoh(dt, ORBIT, VEH))[..., 0, :]


@pytest.mark.filterwarnings("error")
def test_exact_step_input_limit():
    # Inputs up to the map's limit step silently to finite results; one
    # entry past it, NaN or infinite raises before the product.
    limit = dynamics._zoh_map(1.0, N, VEH.mass)[1]
    assert 1e299 < limit < 1e300
    assert dynamics._zoh_map(500.0, N, VEH.mass)[1] >= 1e294
    rng = np.random.default_rng(11)
    states, u = rng.choice([-1e200, 1e200], (4, 6)), rng.choice([-1e200, 1e200], (4, 3))
    stepped = propagate_cwh_zoh(states, u, 1.0, ORBIT, VEH)
    assert stepped.tobytes() == _stacked_product(states, u, 1.0).tobytes()
    assert np.isfinite(propagate_cwh_zoh(np.full((2, 6), limit), np.full((2, 3), -limit),
                                         1.0, ORBIT, VEH)).all()
    past = math.nextafter(limit, math.inf)
    for bad in (past, -past, math.nan, math.inf, -math.inf):
        for column in (2, 7):  # a state entry, then a thrust entry
            xu = np.zeros((3, 9))
            xu[1, column] = bad
            with pytest.raises(PropagationError):
                propagate_cwh_zoh(xu[:, :6], xu[:, 6:], 1.0, ORBIT, VEH)
    assert propagate_cwh_zoh(np.zeros((0, 6)), np.zeros((0, 3)), 1.0, ORBIT, VEH).shape == (0, 6)


def test_mean_motion_consistency_is_enforced():
    # The mean motion is derived from the radius, so it cannot disagree with it.
    assert ChiefOrbit().mean_motion == math.sqrt(MU_EARTH / DEFAULT_SEMI_MAJOR_AXIS**3)
    assert ChiefOrbit(7e6).mean_motion == math.sqrt(MU_EARTH / 7e6**3)


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -7e6],
                         ids=["a_nan", "a_inf", "a_zero", "a_negative"])
def test_orbit_rejects_non_finite_fields(radius):
    with pytest.raises(ValueError, match="finite and positive"):
        ChiefOrbit(radius)


def test_two_body_circular_orbit_closes():
    # Analytic oracle: a circular two-body orbit returns to its initial state
    # after one period T = 2 pi sqrt(a^3 / mu).
    chief = circular_chief_state(ORBIT)
    period = 2.0 * math.pi / N
    end = propagate_inertial(chief, period, ORBIT, substeps=int(period))
    assert np.linalg.norm(end.pos - chief.pos) / np.linalg.norm(chief.pos) < 1e-6
    assert np.linalg.norm(end.vel - chief.vel) / np.linalg.norm(chief.vel) < 1e-6


@pytest.mark.parametrize("radius", [0.0, 1e5])
def test_inertial_start_below_the_body_radius_raises_before_stepping(monkeypatch, radius):
    def no_step(*args):
        raise AssertionError("stepped from below the body radius")

    monkeypatch.setattr(dynamics, "_rk4", no_step)
    start = InertialState([radius, 0.0, 0.0], [0.0, 7000.0, 0.0])
    with pytest.raises(PropagationError, match="body radius"):
        propagate_inertial(start, 10.0, ORBIT)


def test_j2_term_is_radial_on_the_equator():
    # One short step on the equator with J2 on and off: J2 adds a pull toward
    # the body of 1.5 J2 mu R^2 / r^4, in the orbit plane.
    a = ORBIT.semi_major_axis
    st = InertialState([a, 0.0, 0.0], [0.0, N * a, 0.0])
    dt = 1.0
    with_j2 = propagate_inertial(st, dt, ChiefOrbit(j2_enabled=True), substeps=1)
    without = propagate_inertial(st, dt, ORBIT, substeps=1)
    delta = with_j2.vel - without.vel
    pull = 1.5 * J2_EARTH * MU_EARTH * R_EARTH**2 / a**4
    assert delta[0] == pytest.approx(-pull * dt, rel=1e-3)  # toward the body
    # the step turns the radial direction by N dt rad, so half of that remains
    assert abs(delta[1]) <= N * dt * abs(delta[0])
    assert delta[2] == 0.0


def test_hill_transform_of_chief_is_zero():
    chief = circular_chief_state(ORBIT)
    rel = eci_to_hill(chief, chief)
    assert np.array_equal(rel.pos, np.zeros(3))
    np.testing.assert_allclose(rel.vel, np.zeros(3), atol=1e-12)


def test_hill_round_trip():
    rng = np.random.default_rng(5)
    chief = circular_chief_state(ORBIT, phase=0.37)
    for _ in range(10):
        rel = random_state(rng)
        back = eci_to_hill(chief, hill_to_eci(chief, rel))
        np.testing.assert_allclose(back.pos, rel.pos, rtol=0, atol=1e-6)
        np.testing.assert_allclose(back.vel, rel.vel, rtol=0, atol=1e-9)


def test_hill_transform_rejects_degenerate_chief():
    with pytest.raises(ValueError):
        eci_to_hill(InertialState([0, 0, 0], [0, 0, 0]),
                    InertialState([1, 0, 0], [0, 1, 0]))
    # radial velocity only: zero angular momentum
    with pytest.raises(ValueError):
        eci_to_hill(InertialState([7e6, 0, 0], [100.0, 0, 0]),
                    InertialState([7e6, 10, 0], [100.0, 0, 0]))


def test_linearization_tracks_nonlinear_coast():
    # Nonlinear two-body propagation as the oracle: a coasting deputy 200 m
    # from the chief must stay within 1% of separation of the CWH prediction
    # over 500 s.  Measured residual is about 1.4 mm.
    chief = circular_chief_state(ORBIT)
    rel0 = RelativeState([120.0, -160.0, 0.0], [0.0, 0.0, 0.0])
    deputy = hill_to_eci(chief, rel0)
    lin = RelativeState(rel0.pos.copy(), rel0.vel.copy())
    c, d = chief, deputy
    worst = 0.0
    for _ in range(50):
        c = propagate_inertial(c, 10.0, ORBIT, substeps=100)
        d = propagate_inertial(d, 10.0, ORBIT, substeps=100)
        lin = propagate_cwh(lin, [0, 0, 0], 10.0, ORBIT, VEH, substeps=100)
        rel = eci_to_hill(c, d)
        worst = max(worst, float(np.linalg.norm(rel.pos - lin.pos)))
    assert worst < 0.01 * 200.0
    assert worst < 0.01  # measured headroom, guards frame-convention slips


def test_vehicle_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(mass=0.0)
    for bound in (-1.0, 0.0):
        with pytest.raises(ValueError, match="thrust_bound"):
            VehicleParams(thrust_bound=bound)
    for field in ("mass", "thrust_bound"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=field):
                VehicleParams(**{field: bad})
