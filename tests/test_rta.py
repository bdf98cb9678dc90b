import dataclasses

import numpy as np
import pytest

import proxops.qp as qp_mod
from proxops.dynamics import (
    ChiefOrbit,
    RelativeState,
    VehicleParams,
    cwh_drift_rows,
    propagate_cwh,
)
from proxops.rta import (
    RtaParams,
    _fixed_coeffs,
    _kinematics,
    _peer_index,
    _pos_barrier,
    build_qp,
    filter_actions,
    qp_arrays,
)

ORBIT = ChiefOrbit()
VEH = VehicleParams()
PARAMS = RtaParams()


def margins(problem, u):
    """Each row's margin at thrust ``u`` with every slack at zero."""
    _, _, coeffs, rhs = problem
    return rhs - coeffs[:, :3] @ np.asarray(u, dtype=float)


def lone_qp(pos, vel, accel=(0, 0, 0), veh=VEH):
    """The QP of one agent flying alone with the chief: rows ``pos:chief``,
    ``vel``, ``acc``, then the thrust box."""
    return build_qp([[*pos, *vel]], np.zeros((1, 3)), [accel], ORBIT, PARAMS, veh, 0)


def test_pos_barrier_zero_at_the_collision_radius():
    assert _pos_barrier(np.array([50.0, 0, 0]), PARAMS.collision_radius) == 0.0


def test_pos_barrier_value_at_100m():
    assert _pos_barrier(np.array([100.0, 0, 0]), 50.0) == pytest.approx(3750.0, abs=0)


def test_pos_hocbf_row_matches_numeric_differentiation():
    # Oracle: the row's margin at thrust u must equal hddot + (g0+g1) hdot +
    # g0 g1 h with hdot and hddot measured by differences of the barrier along
    # the jointly propagated motion.
    rng = np.random.default_rng(42)
    for _ in range(10):
        si = RelativeState(rng.uniform(-300, 300, 3), rng.uniform(-3, 3, 3))
        sj = RelativeState(rng.uniform(-300, 300, 3), rng.uniform(-3, 3, 3))
        ui, uj = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        peer_accel = cwh_drift_rows(sj.as_vector(), ORBIT) + uj / VEH.mass
        states = np.array([si.as_vector(), sj.as_vector()])
        accel = np.array([np.zeros(3), peer_accel])
        problem = build_qp(states, np.zeros((2, 3)), accel, ORBIT, PARAMS, VEH, 0)

        delta = 1e-2
        def h_at(tau):
            a = propagate_cwh(si, ui, tau, ORBIT, VEH, substeps=2)
            b = propagate_cwh(sj, uj, tau, ORBIT, VEH, substeps=2)
            return _pos_barrier(a.pos - b.pos, PARAMS.collision_radius)
        h0 = _pos_barrier(si.pos - sj.pos, PARAMS.collision_radius)
        h1, h2 = h_at(delta), h_at(2 * delta)
        hdot = (4.0 * h1 - 3.0 * h0 - h2) / (2.0 * delta)
        hddot = (h2 - 2.0 * h1 + h0) / delta**2
        gain_sum = PARAMS.pos_gain_inner + PARAMS.pos_gain_outer
        gain_prod = PARAMS.pos_gain_inner * PARAMS.pos_gain_outer
        expected = hddot + gain_sum * hdot + gain_prod * h0
        # second differences carry O(delta) truncation from the third
        # derivative, which scales with velocity * acceleration here
        assert margins(problem, ui)[0] == pytest.approx(expected, abs=0.5, rel=1e-3)


def test_rows_are_affine_in_the_thrust():
    # The thrust is a QP variable, so every row is affine in it; the desired
    # thrust moves only the cost's centre, never a row.
    states = np.array([[100.0, -50.0, 20.0, 1.0, -0.5, 0.2], [-80.0, 40.0, 0.0, 0.0, 0.3, 0.0]])
    accel = np.array([[0.1, 0.0, -0.05], [0.0, 0.02, 0.0]])
    _, _, rest_coeffs, rest_rhs = build_qp(states, np.zeros((2, 3)), accel, ORBIT, PARAMS, VEH, 0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        desired = rng.uniform(-2, 2, (2, 3))
        _, centres, coeffs, rhs = build_qp(states, desired, accel, ORBIT, PARAMS, VEH, 0)
        assert np.array_equal(coeffs, rest_coeffs)
        assert np.array_equal(rhs, rest_rhs)
        assert np.array_equal(centres[:3], desired[0])
        assert not centres[3:].any()


def test_vel_row_at_rest_reduces_to_the_static_margin():
    _, _, coeffs, rhs = lone_qp([10.0, 0, 0], [0, 0, 0])
    assert np.array_equal(coeffs[1, :3], np.zeros(3))
    assert rhs[1] == pytest.approx(PARAMS.vel_gain * 0.5 * PARAMS.max_speed**2, rel=1e-12)


def test_vel_row_blocks_acceleration_at_the_speed_limit():
    # moving along +y at exactly max_speed: any thrust along +y violates
    state = [0.0, 0, 0, 0.0, PARAMS.max_speed, 0]
    _, _, coeffs, rhs = lone_qp(state[:3], state[3:])
    assert coeffs[1, 1] > 0.0
    # barrier itself is zero, so the margin at zero thrust is just the drift term
    drift = cwh_drift_rows(np.array(state), ORBIT)
    assert rhs[1] == pytest.approx(-PARAMS.max_speed * drift[1], rel=1e-9, abs=1e-12)


def test_acc_row_with_zero_estimate_is_vacuous_for_thrust():
    _, _, coeffs, rhs = lone_qp([50.0, 0, 0], [0.5, 0, 0], accel=[0, 0, 0])
    assert np.array_equal(coeffs[2, :3], np.zeros(3))
    assert rhs[2] == pytest.approx(PARAMS.max_accel**2, rel=1e-12)


def test_acc_row_binds_at_the_acceleration_ceiling():
    # accelerating along +x at the ceiling: commanding the same again binds
    est = np.array([PARAMS.max_accel, 0.0, 0.0])
    problem = lone_qp([0.0, 0, 0], [0, 0, 0], accel=est)
    u_aligned = est * VEH.mass  # thrust producing exactly the estimate
    drift = cwh_drift_rows(np.zeros(6), ORBIT)
    assert margins(problem, u_aligned)[2] == pytest.approx(-float(est @ drift) * 2.0, abs=1e-9)


def test_input_rows_pair_per_axis():
    for veh in (VEH, VehicleParams(thrust_bound=2.0)):
        problem = lone_qp([0.0, 0, 0], [0, 0, 0], veh=veh)
        box = problem[2][3:]
        assert len(box) == 6
        assert box[:, 3:].argmax(axis=1).tolist() == [3, 3, 4, 4, 5, 5]
        assert margins(problem, np.zeros(3))[3:].tolist() == [veh.thrust_bound] * 6
        at_bound = np.array([veh.thrust_bound, 0.0, 0.0])
        assert sorted(margins(problem, at_bound)[3:5]) == [0.0, 2.0 * veh.thrust_bound]


def test_build_qp_dimensions():
    weights, centres, coeffs, rhs = lone_qp([100.0, 0, 0], [0, 0, 0])
    assert weights.shape == centres.shape == rhs.shape == (9,) and coeffs.shape == (9, 9)
    states = np.array([[100.0, 0, 0, 0, 0, 0], [300.0, 0, 0, 0, 0, 0]])
    for k in (0, 1):
        two_peers = build_qp(states, np.zeros((2, 3)), np.zeros((2, 3)), ORBIT, PARAMS, VEH, k)
        assert [v.shape for v in two_peers] == [(10,), (10,), (10, 10), (10,)]
    # slack weights carry the penalty, thrust weights stay at one
    assert np.all(weights[:3] == 1.0)
    assert np.all(weights[3:] == PARAMS.slack_penalty)
    with pytest.raises(IndexError):
        build_qp(states, np.zeros((2, 3)), np.zeros((2, 3)), ORBIT, PARAMS, VEH, 2)


def test_filter_leaves_safe_commands_alone():
    # Minimal intervention: whenever every row holds strictly at the desired
    # thrust with zero slack, the filter must return the command unchanged.
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(200):
        pos, vel, est = (rng.uniform(-200, 200, 3), rng.uniform(-1.5, 1.5, 3),
                         rng.uniform(-0.2, 0.2, 3))
        peer_pos = pos + rng.uniform(200, 400) * _unit(rng)
        states = np.array([[*pos, *vel], [*peer_pos, *rng.uniform(-1.5, 1.5, 3)]])
        desired = np.array([rng.uniform(-0.8, 0.8, 3), np.zeros(3)])
        accel = np.array([est, np.zeros(3)])
        problem = build_qp(states, desired, accel, ORBIT, PARAMS, VEH, 0)
        if margins(problem, desired[0]).min() <= 1e-3:
            continue
        checked += 1
        decision = filter_actions(states, desired, accel, ORBIT, PARAMS, VEH)[0]
        assert not decision.fallback
        np.testing.assert_allclose(decision.u_safe, desired[0], rtol=0, atol=1e-6)
        np.testing.assert_allclose(decision.slacks, np.zeros_like(decision.slacks),
                                   rtol=0, atol=1e-9)
    assert checked > 50


def test_filter_clamps_oversized_commands():
    # At rest, far from the chief: only the thrust box can bind, so the
    # filtered command is the componentwise clamp up to the slack penalty.
    desired = np.array([1.8, -0.4, 0.2])
    decision = filter_actions([[0.0, 0, 400.0, 0, 0, 0]], [desired], np.zeros((1, 3)),
                              ORBIT, PARAMS, VEH)[0]
    clamp = np.clip(desired, -VEH.thrust_bound, VEH.thrust_bound)
    np.testing.assert_allclose(decision.u_safe, clamp, rtol=0, atol=5e-6)


def test_filter_certifies_the_vehicle_thrust_bound():
    # The box rows sit at the vehicle's bound, the one the actuator applies.
    weak = VehicleParams(thrust_bound=0.5)
    desired = np.array([0.8, -0.8, 0.3])
    decision = filter_actions([[0.0, 0, 400.0, 0, 0, 0]], [desired], np.zeros((1, 3)),
                              ORBIT, PARAMS, weak)[0]
    np.testing.assert_allclose(decision.u_safe, [0.5, -0.5, 0.3], rtol=0, atol=5e-6)
    assert decision.active[3:].sum() == 2  # the +x and -y box rows bind
    far = np.array([[0.0, 0, 0, 0, 0, 0], [0.0, 0, 400.0, 0, 0, 0]])
    for d in filter_actions(far, [desired, -desired], np.zeros((2, 3)), ORBIT, PARAMS, weak):
        np.testing.assert_allclose(np.abs(d.u_safe), [0.5, 0.5, 0.3], rtol=0, atol=5e-6)


def test_thrust_bound_holds_up_to_slack():
    rng = np.random.default_rng(23)
    for _ in range(100):
        pos, vel, est = rng.uniform(-300, 300, 3), rng.uniform(-4, 4, 3), rng.uniform(-1, 1, 3)
        states = np.array([[*pos, *vel], [*rng.uniform(-300, 300, 3), *rng.uniform(-4, 4, 3)]])
        accel = np.array([est, np.zeros(3)])
        desired = np.array([rng.uniform(-2, 2, 3), np.zeros(3)])
        decision = filter_actions(states, desired, accel, ORBIT, PARAMS, VEH)[0]
        input_slacks = decision.slacks[-3:]
        for axis in range(3):
            assert abs(decision.u_safe[axis]) <= (VEH.thrust_bound
                                                  + abs(input_slacks[axis]) + 1e-6)


def test_coincident_positions_do_not_break_the_filter():
    # Degenerate geometry: zero separation zeroes the pair row's thrust
    # coefficients; the slack absorbs the (already violated) barrier.
    states = np.array([[10.0, 0, 400.0, 0, 0, 0]] * 2)
    decision = filter_actions(states, np.zeros((2, 3)), np.zeros((2, 3)), ORBIT, PARAMS, VEH)[0]
    assert not decision.fallback
    assert decision.slacks[0] < 0.0


def _break_solver(monkeypatch, how):
    """Make every batched solve report ``how`` applied to its real solution."""
    real_solve = qp_mod.solve_batch

    def broken_solve(*args, **kwargs):
        sol = real_solve(*args, **kwargs)
        how(sol)
        return sol

    monkeypatch.setattr("proxops.rta.qp_mod.solve_batch", broken_solve)


def test_solver_failure_falls_back_to_zero_thrust(monkeypatch):
    _break_solver(monkeypatch, lambda sol: sol.status.fill(qp_mod.MAX_ITER))
    decision = filter_actions([[100.0, 0, 0, 0, 0, 0]], [[0.5, 0, 0]], np.zeros((1, 3)),
                              ORBIT, PARAMS, VEH)[0]
    assert decision.fallback
    assert np.array_equal(decision.u_safe, np.zeros(3))


def test_filter_actions_symmetry():
    # Head-on geometry mirrored by a half turn about z, which maps the CWH
    # dynamics and the chief at the origin onto themselves, must produce
    # mirrored decisions.  The pair sits 400 m off the chief along z, so the
    # pair rows, not the chief's, shape the answer.
    states = np.array([[-100.0, 0, 400.0, 2.0, 0, 0], [100.0, 0, 400.0, -2.0, 0, 0]])
    decisions = filter_actions(states, [[0.5, 0, 0], [-0.5, 0, 0]], np.zeros((2, 3)),
                               ORBIT, PARAMS, VEH)
    assert decisions[0].active[0]  # the pair row binds
    np.testing.assert_allclose(decisions[0].u_safe, decisions[1].u_safe * [-1, -1, 1],
                               atol=1e-7)


def test_head_on_approach_keeps_separation():
    # Closed loop: both agents stubbornly thrust toward each other at 1 Hz;
    # the filter must keep them outside 90% of the collision radius.  The
    # pair flies 400 m off the chief along z, clear of the chief's rows.
    dt = 1.0
    states = [RelativeState([-150.0, 3.0, 400.0], [2.5, 0.0, 0.0]),
              RelativeState([150.0, -3.0, 400.0], [-2.5, 0.0, 0.0])]
    accel_est = np.zeros((2, 3))
    min_sep = np.inf
    for _ in range(240):
        vectors = np.array([s.as_vector() for s in states])
        decisions = filter_actions(vectors, [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], accel_est,
                                   ORBIT, PARAMS, VEH)
        u_safe = np.array([d.u_safe for d in decisions])
        accel_est = cwh_drift_rows(vectors, ORBIT) + u_safe / VEH.mass
        states = [propagate_cwh(s, u, dt, ORBIT, VEH, substeps=10)
                  for s, u in zip(states, u_safe)]
        min_sep = min(min_sep, float(np.linalg.norm(states[0].pos - states[1].pos)))
    assert min_sep >= 0.9 * PARAMS.collision_radius


def test_speed_limit_holds_in_closed_loop():
    # 400 m off the chief along z, clear of the chief's rows
    dt = 1.0
    state = RelativeState([0.0, 0.0, 400.0], [0.0, 0.0, 0.0])
    accel_est = np.zeros((1, 3))
    top_speed = 0.0
    for _ in range(60):
        desired = np.array([[1.0, 0.0, 0.0]])
        decision = filter_actions([state.as_vector()], desired, accel_est, ORBIT, PARAMS, VEH)[0]
        accel_est = cwh_drift_rows(state.as_vector(), ORBIT)[None] + decision.u_safe / VEH.mass
        state = propagate_cwh(state, decision.u_safe, dt, ORBIT, VEH, substeps=10)
        top_speed = max(top_speed, float(np.linalg.norm(state.vel)))
    assert top_speed <= 1.1 * PARAMS.max_speed
    assert top_speed > 0.8 * PARAMS.max_speed  # it does make progress


def test_params_validation():
    with pytest.raises(ValueError):
        RtaParams(collision_radius=0.0)
    with pytest.raises(ValueError):
        RtaParams(slack_penalty=-1.0)
    # NaN slips past a "<= 0" check; an infinite penalty fails every QP later.
    for field in dataclasses.fields(RtaParams):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=field.name):
                RtaParams(**{field.name: bad})


def test_filter_actions_rejects_misshapen_arrays():
    states, commands = np.zeros((2, 6)), np.zeros((2, 3))
    for args in ((states, commands[:1], commands), (states, commands, commands[:, :2]),
                 (states[:, :3], commands, commands)):
        with pytest.raises(ValueError):
            filter_actions(*args, ORBIT, PARAMS, VEH)
        with pytest.raises(ValueError):
            build_qp(*args, ORBIT, PARAMS, VEH, 0)


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_agents(rng, n, spread=300.0):
    """(N, 6) states and (N, 3) acceleration estimates, drawn agent by agent."""
    draws = [(rng.uniform(-spread, spread, 3), rng.uniform(-3, 3, 3),
              rng.uniform(-0.5, 0.5, 3)) for _ in range(n)]
    return np.array([[*pos, *vel] for pos, vel, _ in draws]), np.array([a for *_, a in draws])


def test_filter_actions_matches_one_agent_filters():
    # The batched pass against one solve per agent of the QP build_qp gives,
    # with the filter's fallback rule.
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        for _ in range(3):
            states, accel = _random_agents(rng, n, spread=40.0 * n + 60.0)
            desired = rng.uniform(-1.5, 1.5, (n, 3))
            batched = filter_actions(states, desired, accel, ORBIT, PARAMS, VEH)
            assert len(batched) == n
            for k, decision in enumerate(batched):
                alone = qp_mod.solve(*build_qp(states, desired, accel, ORBIT, PARAMS, VEH, k))
                fallback = alone.status != qp_mod.OPTIMAL or not np.isfinite(alone.x).all()
                u_alone = np.zeros(3) if fallback else alone.x[:3]
                np.testing.assert_allclose(decision.u_safe, u_alone, rtol=0, atol=1e-7)
                assert decision.fallback == fallback
                assert len(decision.slacks) == n + 5  # the other agents, the chief, shared


def test_warm_guesses_change_no_decision():
    # The guess changes the solver's step count, never its answer: all rows,
    # random masks, a stale mask from another tick and a guess that holds a
    # duplicated peer's rows all give the cold decisions.
    rng = np.random.default_rng(15)
    stale = None
    for n in (2, 4, 6):
        for _ in range(4):
            states, accel = _random_agents(rng, n, spread=30.0 * n + 40.0)
            # a duplicated peer: two equal pair rows for the others
            states[-1], accel[-1] = states[0], accel[0]
            desired = rng.uniform(-1.5, 1.5, (n, 3))
            cold = filter_actions(states, desired, accel, ORBIT, PARAMS, VEH)
            binding = np.array([d.active for d in cold])
            guesses = [np.ones_like(binding), rng.random(binding.shape) < 0.5, binding]
            if stale is not None and stale.shape == binding.shape:
                guesses.append(stale)
            for guess in guesses:
                warm = filter_actions(states, desired, accel, ORBIT, PARAMS, VEH, warm=guess)
                for w, c in zip(warm, cold):
                    np.testing.assert_allclose(w.u_safe, c.u_safe, rtol=0, atol=1e-9)
                    assert w.fallback == c.fallback
            stale = binding
    with pytest.raises(ValueError):
        filter_actions(states, desired, accel, ORBIT, PARAMS, VEH, warm=binding[:, :-1])


def test_decisions_report_the_solver_certificate():
    states, accel = _random_agents(np.random.default_rng(2), 3, spread=80.0)
    for decision in filter_actions(states, [[1.0, 0, 0]] * 3, accel, ORBIT, PARAMS, VEH):
        assert not decision.fallback
        assert decision.iterations >= 1
        assert 0.0 <= decision.kkt_residual <= 1e-7
    bad = filter_actions([[np.nan, 0, 0, 0, 0, 0]], np.zeros((1, 3)), np.zeros((1, 3)),
                         ORBIT, PARAMS, VEH)[0]
    assert bad.fallback and bad.iterations == 0 and bad.kkt_residual == np.inf


def test_solver_failure_falls_back_for_every_agent(monkeypatch):
    _break_solver(monkeypatch, lambda sol: sol.status.fill(qp_mod.MAX_ITER))
    states, accel = _random_agents(np.random.default_rng(4), 4)
    decisions = filter_actions(states, [[0.5, 0, 0]] * 4, accel, ORBIT, PARAMS, VEH)
    assert [d.fallback for d in decisions] == [True] * 4
    for decision in decisions:
        assert np.array_equal(decision.u_safe, np.zeros(3))
        assert not decision.active.any()


def test_non_finite_solution_falls_back(monkeypatch):
    _break_solver(monkeypatch, lambda sol: sol.x.fill(np.nan))
    decision = filter_actions([[100.0, 0, 0, 0, 0, 0]], [[0.5, 0, 0]], np.zeros((1, 3)),
                              ORBIT, PARAMS, VEH)[0]
    assert decision.fallback
    assert np.array_equal(decision.u_safe, np.zeros(3))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("field", ["desired", "pos", "vel", "accel"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_inputs_fail_closed(field, bad):
    # A NaN or infinite command, state or acceleration estimate must never
    # reach the thrusters: the filter returns zero thrust, flagged.
    values = {"pos": [120.0, -40.0, 10.0], "vel": [0.5, 0.2, 0.0],
              "accel": [0.01, 0.0, 0.0], "desired": [0.3, -0.2, 0.1]}
    values[field] = list(values[field])
    values[field][1] = bad
    state = [*values["pos"], *values["vel"]]
    desired = np.array(values["desired"])
    decision = filter_actions([state], [desired], [values["accel"]], ORBIT, PARAMS, VEH)[0]
    assert decision.fallback
    assert np.array_equal(decision.u_safe, np.zeros(3))

    states = np.array([state, [-150.0, 30.0, 0.0, 0.0, -0.3, 0.0]])
    decisions = filter_actions(states, [desired, np.zeros(3)], [values["accel"], np.zeros(3)],
                               ORBIT, PARAMS, VEH)
    assert decisions[0].fallback
    assert np.array_equal(decisions[0].u_safe, np.zeros(3))
    for d in decisions:
        assert np.all(np.isfinite(d.u_safe))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("column", range(6))
def test_a_peer_of_unknown_state_fails_every_agent_closed(column):
    # No agent can be certified against a peer whose position or velocity is
    # unknown, so one agent's NaN state sends every agent to zero thrust.
    states, accel = _random_agents(np.random.default_rng(6), 3, spread=200.0)
    states[1, column] = np.nan
    decisions = filter_actions(states, np.full((3, 3), 0.3), accel, ORBIT, PARAMS, VEH)
    for d in decisions:
        assert d.fallback
        assert np.array_equal(d.u_safe, np.zeros(3))
        assert np.all(np.isfinite(d.u_safe))


def test_kkt_residual_stays_small_with_penalized_active_pair_rows():
    # Ring-like crowding: pair rows inside the collision radius bind with
    # slack, so their multipliers approach the 1e6 slack penalty.  The
    # residual must not scale with those multipliers.
    rng = np.random.default_rng(0)
    penalized = 0
    for _ in range(200):
        pos = 45.0 * _unit(rng)
        kin = [(pos, rng.uniform(-2.5, 2.5, 3), rng.uniform(-0.5, 0.5, 3))]
        kin += [(pos + rng.uniform(45, 85) * _unit(rng), rng.uniform(-2.5, 2.5, 3),
                 rng.uniform(-0.5, 0.5, 3)) for _ in range(3)]
        states = np.array([[*p, *v] for p, v, _ in kin])
        accel = np.array([a for *_, a in kin])
        desired = np.zeros((4, 3))
        desired[0] = rng.uniform(-1, 1, 3)
        problem = build_qp(states, desired, accel, ORBIT, PARAMS, VEH, 0)
        sol = qp_mod.solve(*problem)
        assert sol.status == qp_mod.OPTIMAL
        assert sol.kkt_residual <= 1e-6
        assert qp_mod.kkt_residual(*problem, sol.x, sol.multipliers) == sol.kkt_residual
        penalized += int(np.sum(sol.multipliers[:4] > 1e5))
    assert penalized >= 10


def test_returned_arrays_share_nothing_with_later_calls():
    # Writing into what one call returns must not reach the next call's output.
    states, accel = _random_agents(np.random.default_rng(9), 3, spread=60.0)
    desired = np.full((3, 3), 0.4)
    kin, peer_kin, _ = _kinematics(states, desired, accel)
    coeffs, rhs = qp_arrays(kin, peer_kin, ORBIT, PARAMS, VEH)
    expected = coeffs.copy(), rhs.copy()
    coeffs[...], rhs[...] = 7.0, 7.0
    for got, want in zip(qp_arrays(kin, peer_kin, ORBIT, PARAMS, VEH), expected):
        assert np.array_equal(got, want)
    # the blocks cached per peer count and per agent count cannot be written
    for cached in (_fixed_coeffs(peer_kin.shape[1]), _peer_index(len(states))):
        with pytest.raises(ValueError):
            cached[...] = 0

    first = filter_actions(states, desired, accel, ORBIT, PARAMS, VEH)
    expected = [(d.u_safe.copy(), d.slacks.copy(), d.active.copy()) for d in first]
    assert any(d.active.any() for d in first)
    for d in first:
        d.u_safe[...], d.slacks[...], d.active[...] = 7.0, 7.0, True
    again = filter_actions(states, desired, accel, ORBIT, PARAMS, VEH)
    for d, (u_safe, slacks, active) in zip(again, expected):
        assert np.array_equal(d.u_safe, u_safe) and np.array_equal(d.slacks, slacks)
        assert np.array_equal(d.active, active)


def _degenerate_agents(rng, n):
    """(N, 6) states, (N, 3) commands and (N, 3) acceleration estimates with
    random degeneracies: coincident agents, an agent at the chief, a speed of
    exactly ``max_speed``, a zero acceleration estimate, and sometimes one
    non-finite entry."""
    states = np.concatenate([rng.uniform(-150, 150, (n, 3)), rng.uniform(-3, 3, (n, 3))], 1)
    desired, accel = rng.uniform(-1.5, 1.5, (n, 3)), rng.uniform(-0.5, 0.5, (n, 3))
    for k in range(n):
        kind = rng.integers(5)
        if kind == 0 and n > 1:
            other = (k + 1 + rng.integers(n - 1)) % n
            width = 3 * (1 + rng.integers(2))  # the position, or the whole state
            states[k, :width] = states[other, :width]
        elif kind == 1:
            states[k, :3] = 0.0
        elif kind == 2:
            states[k, 3:] = 0.0
            states[k, 3 + rng.integers(3)] = rng.choice([-1.0, 1.0]) * PARAMS.max_speed
        elif kind == 3:
            accel[k] = 0.0
    if rng.random() < 0.3:
        target = [states, desired, accel][rng.integers(3)]
        target[rng.integers(n), rng.integers(target.shape[1])] = rng.choice([np.nan, np.inf, -np.inf])
    return states, desired, accel


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_degenerate_inputs_match_one_agent_solves():
    # Seeded property: on degenerate inputs the batch equals one build_qp and
    # one qp.solve per agent, no decision without fallback carries a
    # non-finite number, and fallback is set exactly where the data are not
    # finite: the agent's own state, command or estimate, or a peer's state
    # or estimate.
    rng = np.random.default_rng(2024)
    fallbacks = 0
    for n in range(1, 6):
        for _ in range(12):
            states, desired, accel = _degenerate_agents(rng, n)
            bad = ~np.isfinite(states).all(1) | ~np.isfinite(accel).all(1)
            decisions = filter_actions(states, desired, accel, ORBIT, PARAMS, VEH)
            for k, d in enumerate(decisions):
                problem = build_qp(states, desired, accel, ORBIT, PARAMS, VEH, k)
                finite = all(np.isfinite(v).all() for v in problem)
                assert finite == (not bad.any() and np.isfinite(desired[k]).all())
                assert d.fallback == (not finite)
                fallbacks += d.fallback
                if d.fallback:
                    assert np.array_equal(d.u_safe, np.zeros(3)) and not d.active.any()
                    continue
                alone = qp_mod.solve(*problem)
                assert alone.status == qp_mod.OPTIMAL
                np.testing.assert_allclose(d.u_safe, alone.x[:3], rtol=0, atol=1e-9)
                np.testing.assert_allclose(d.slacks, alone.x[3:], rtol=0, atol=1e-9)
                assert all(np.isfinite(v).all() for v in (d.u_safe, d.slacks, d.kkt_residual))
    assert fallbacks > 0
