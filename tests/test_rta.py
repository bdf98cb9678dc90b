import dataclasses

import numpy as np
import pytest

import proxops.qp as qp_mod
from proxops.dynamics import (
    RelativeState,
    VehicleParams,
    cwh_drift_accel,
    default_orbit,
    default_vehicle,
    propagate_cwh,
)
from proxops.rta import (
    AgentSnapshot,
    RtaParams,
    build_qp,
    build_rows,
    chief_snapshot,
    filter_actions,
    filter_agent,
    pos_barrier,
    pos_barrier_dot,
)

ORBIT = default_orbit()
VEH = default_vehicle()
PARAMS = RtaParams()


def snap(pos, vel, accel=(0, 0, 0), veh=VEH):
    return AgentSnapshot(RelativeState(pos, vel), np.asarray(accel, dtype=float), veh)


def filter_snapshots(snaps, desired, veh=VEH):
    """``filter_actions`` on the (N, 6) states and (N, 3) estimates of ``snaps``."""
    states = np.array([s.state.as_vector() for s in snaps])
    accel = np.array([s.accel_est for s in snaps])
    return filter_actions(states, np.array(desired, dtype=float), accel, ORBIT, PARAMS, veh)


def test_pos_barrier_zero_at_the_collision_radius():
    a = RelativeState([50.0, 0, 0], [0, 0, 0])
    b = RelativeState([0.0, 0, 0], [0, 0, 0])
    assert pos_barrier(a, b, PARAMS.collision_radius) == 0.0


def test_pos_barrier_value_at_100m():
    a = RelativeState([100.0, 0, 0], [0, 0, 0])
    b = RelativeState([0.0, 0, 0], [0, 0, 0])
    assert pos_barrier(a, b, 50.0) == pytest.approx(3750.0, abs=0)


def test_pos_barrier_dot_sign_matches_closing_speed():
    a = RelativeState([100.0, 0, 0], [-1.0, 0, 0])
    b = RelativeState([0.0, 0, 0], [0.0, 0, 0])
    assert pos_barrier_dot(a, b) == pytest.approx(-100.0, abs=0)
    a_open = RelativeState([100.0, 0, 0], [2.0, 0, 0])
    assert pos_barrier_dot(a_open, b) == pytest.approx(200.0, abs=0)


def test_pos_barrier_dot_matches_finite_differences():
    # Oracle: differentiate the barrier numerically along the true motion of
    # both vehicles under constant thrusts.
    rng = np.random.default_rng(12)
    for _ in range(10):
        si = RelativeState(rng.uniform(-200, 200, 3), rng.uniform(-2, 2, 3))
        sj = RelativeState(rng.uniform(-200, 200, 3), rng.uniform(-2, 2, 3))
        ui, uj = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        delta = 1e-3
        def h_at(tau):
            a = propagate_cwh(si, ui, tau, ORBIT, VEH, substeps=1)
            b = propagate_cwh(sj, uj, tau, ORBIT, VEH, substeps=1)
            return pos_barrier(a, b, PARAMS.collision_radius)
        # forward difference about t=0 carries O(delta * hddot) truncation
        fd = (h_at(delta) - pos_barrier(si, sj, PARAMS.collision_radius)) / delta
        assert fd == pytest.approx(pos_barrier_dot(si, sj), abs=2e-2, rel=1e-3)


def test_pos_hocbf_row_matches_numeric_differentiation():
    # Oracle: the row's margin at thrust u must equal hddot + (g0+g1) hdot +
    # g0 g1 h with hddot measured by second differences of the barrier along
    # the jointly propagated motion.
    rng = np.random.default_rng(42)
    for _ in range(10):
        si = RelativeState(rng.uniform(-300, 300, 3), rng.uniform(-3, 3, 3))
        sj = RelativeState(rng.uniform(-300, 300, 3), rng.uniform(-3, 3, 3))
        ui, uj = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        peer_accel = cwh_drift_accel(sj, ORBIT) + uj / VEH.mass
        agent = AgentSnapshot(si, np.zeros(3), VEH)
        peer = AgentSnapshot(sj, peer_accel)
        row = build_rows(agent, [peer], ORBIT, PARAMS)[0]

        delta = 1e-2
        def h_at(tau):
            a = propagate_cwh(si, ui, tau, ORBIT, VEH, substeps=2)
            b = propagate_cwh(sj, uj, tau, ORBIT, VEH, substeps=2)
            return pos_barrier(a, b, PARAMS.collision_radius)
        h0 = pos_barrier(si, sj, PARAMS.collision_radius)
        hddot = (h_at(2 * delta) - 2.0 * h_at(delta) + h0) / delta**2
        hdot = pos_barrier_dot(si, sj)
        gain_sum = PARAMS.pos_gain_inner + PARAMS.pos_gain_outer
        gain_prod = PARAMS.pos_gain_inner * PARAMS.pos_gain_outer
        expected = hddot + gain_sum * hdot + gain_prod * h0
        # second differences carry O(delta) truncation from the third
        # derivative, which scales with velocity * acceleration here
        assert row.evaluate(ui) == pytest.approx(expected, abs=0.5, rel=1e-3)


def test_rows_are_affine_in_the_thrust():
    agent = snap([100.0, -50.0, 20.0], [1.0, -0.5, 0.2], accel=[0.1, 0.0, -0.05])
    rows = build_rows(agent, [chief_snapshot()], ORBIT, PARAMS)
    rng = np.random.default_rng(3)
    for row in rows:
        for _ in range(5):
            u = rng.uniform(-2, 2, 3)
            assert row.evaluate(u) == row.evaluate(np.zeros(3)) + float(row.coeff_u @ u)


def test_vel_row_at_rest_reduces_to_the_static_margin():
    agent = snap([10.0, 0, 0], [0, 0, 0])
    row = build_rows(agent, [], ORBIT, PARAMS)[0]
    assert np.array_equal(row.coeff_u, np.zeros(3))
    assert row.rhs == pytest.approx(PARAMS.vel_gain * 0.5 * PARAMS.max_speed**2, rel=1e-12)


def test_vel_row_blocks_acceleration_at_the_speed_limit():
    # moving along +y at exactly max_speed: any thrust along +y violates
    agent = snap([0.0, 0, 0], [0.0, PARAMS.max_speed, 0])
    row = build_rows(agent, [], ORBIT, PARAMS)[0]
    assert row.coeff_u[1] < 0.0
    # barrier itself is zero, so the margin at zero thrust is just the drift term
    drift = cwh_drift_accel(agent.state, ORBIT)
    assert row.rhs == pytest.approx(-PARAMS.max_speed * drift[1], rel=1e-9, abs=1e-12)


def test_acc_row_with_zero_estimate_is_vacuous_for_thrust():
    agent = snap([50.0, 0, 0], [0.5, 0, 0], accel=[0, 0, 0])
    row = build_rows(agent, [], ORBIT, PARAMS)[1]
    assert np.array_equal(row.coeff_u, np.zeros(3))
    assert row.rhs == pytest.approx(PARAMS.max_accel**2, rel=1e-12)


def test_acc_row_binds_at_the_acceleration_ceiling():
    # accelerating along +x at the ceiling: commanding the same again binds
    est = np.array([PARAMS.max_accel, 0.0, 0.0])
    agent = snap([0.0, 0, 0], [0, 0, 0], accel=est)
    row = build_rows(agent, [], ORBIT, PARAMS)[1]
    u_aligned = est * VEH.mass  # thrust producing exactly the estimate
    drift = cwh_drift_accel(agent.state, ORBIT)
    margin = row.evaluate(u_aligned)
    assert margin == pytest.approx(-float(est @ drift) * 2.0, abs=1e-9)


def test_input_rows_pair_per_axis():
    for veh in (VEH, VehicleParams(thrust_bound=2.0)):
        rows = build_rows(snap([0.0, 0, 0], [0, 0, 0], veh=veh), [], ORBIT, PARAMS)[2:]
        assert len(rows) == 6
        assert [r.slack_index for r in rows] == [2, 2, 3, 3, 4, 4]
        for row in rows:
            assert row.evaluate(np.zeros(3)) == veh.thrust_bound
        at_bound = np.array([veh.thrust_bound, 0.0, 0.0])
        margins = sorted(r.evaluate(at_bound) for r in rows[:2])
        assert margins[0] == pytest.approx(0.0, abs=0)
        assert margins[1] == pytest.approx(2.0 * veh.thrust_bound, abs=0)


def test_build_qp_dimensions():
    agent = snap([100.0, 0, 0], [0, 0, 0])
    one_peer, rows1 = build_qp(agent, [chief_snapshot()], np.zeros(3), ORBIT, PARAMS)
    assert one_peer.dim == 9 and len(one_peer.rows) == 9 and len(rows1) == 9
    two_peers, rows2 = build_qp(agent, [chief_snapshot(), snap([300.0, 0, 0], [0, 0, 0])],
                                np.zeros(3), ORBIT, PARAMS)
    assert two_peers.dim == 10 and len(two_peers.rows) == 10 and len(rows2) == 10
    # slack weights carry the penalty, thrust weights stay at one
    assert np.all(one_peer.cost_weights[:3] == 1.0)
    assert np.all(one_peer.cost_weights[3:] == PARAMS.slack_penalty)


def test_filter_leaves_safe_commands_alone():
    # Minimal intervention: whenever every row holds strictly at the desired
    # thrust with zero slack, the filter must return the command unchanged.
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(200):
        agent = snap(rng.uniform(-200, 200, 3), rng.uniform(-1.5, 1.5, 3),
                     accel=rng.uniform(-0.2, 0.2, 3))
        peer_pos = agent.state.pos + rng.uniform(200, 400) * _unit(rng)
        peer = snap(peer_pos, rng.uniform(-1.5, 1.5, 3))
        desired = rng.uniform(-0.8, 0.8, 3)
        rows = build_rows(agent, [peer, chief_snapshot()], ORBIT, PARAMS)
        if min(row.evaluate(desired) for row in rows) <= 1e-3:
            continue
        checked += 1
        decision = filter_agent(agent, [peer, chief_snapshot()], desired, ORBIT, PARAMS)
        assert not decision.fallback
        np.testing.assert_allclose(decision.u_safe, desired, rtol=0, atol=1e-6)
        np.testing.assert_allclose(decision.slacks, np.zeros_like(decision.slacks),
                                   rtol=0, atol=1e-9)
    assert checked > 50


def test_filter_clamps_oversized_commands():
    # At rest, far from everything: only the thrust box can bind, so the
    # filtered command is the componentwise clamp up to the slack penalty.
    agent = snap([0.0, 0, 0], [0, 0, 0])
    desired = np.array([1.8, -0.4, 0.2])
    decision = filter_agent(agent, [], desired, ORBIT, PARAMS)
    clamp = np.clip(desired, -VEH.thrust_bound, VEH.thrust_bound)
    np.testing.assert_allclose(decision.u_safe, clamp, rtol=0, atol=5e-6)


def test_filter_certifies_the_vehicle_thrust_bound():
    # The box rows sit at the vehicle's bound, the one the actuator applies.
    weak = VehicleParams(thrust_bound=0.5)
    desired = np.array([0.8, -0.8, 0.3])
    decision = filter_agent(snap([0.0, 0, 0], [0, 0, 0], veh=weak), [], desired,
                            ORBIT, PARAMS)
    np.testing.assert_allclose(decision.u_safe, [0.5, -0.5, 0.3], rtol=0, atol=5e-6)
    assert decision.active[2:].sum() == 2  # the +x and -y box rows bind
    far = [snap([0.0, 0, 0], [0, 0, 0]), snap([0.0, 0, 400.0], [0, 0, 0])]
    for d in filter_snapshots(far, [desired, -desired], weak):
        np.testing.assert_allclose(np.abs(d.u_safe), [0.5, 0.5, 0.3], rtol=0, atol=5e-6)


def test_thrust_bound_holds_up_to_slack():
    rng = np.random.default_rng(23)
    for _ in range(100):
        agent = snap(rng.uniform(-300, 300, 3), rng.uniform(-4, 4, 3),
                     accel=rng.uniform(-1, 1, 3))
        peer = snap(rng.uniform(-300, 300, 3), rng.uniform(-4, 4, 3))
        desired = rng.uniform(-2, 2, 3)
        decision = filter_agent(agent, [peer, chief_snapshot()], desired, ORBIT, PARAMS)
        input_slacks = decision.slacks[-3:]
        for axis in range(3):
            assert abs(decision.u_safe[axis]) <= (VEH.thrust_bound
                                                  + abs(input_slacks[axis]) + 1e-6)


def test_coincident_positions_do_not_break_the_filter():
    # Degenerate geometry: zero separation zeroes the pair row's thrust
    # coefficients; the slack absorbs the (already violated) barrier.
    agent = snap([10.0, 0, 0], [0, 0, 0])
    peer = snap([10.0, 0, 0], [0, 0, 0])
    decision = filter_agent(agent, [peer], np.zeros(3), ORBIT, PARAMS)
    assert not decision.fallback
    assert decision.slacks[0] < 0.0


def test_solver_failure_falls_back_to_zero_thrust(monkeypatch):
    agent = snap([100.0, 0, 0], [0, 0, 0])

    real_solve = qp_mod.solve_batch

    def broken_solve(*args, **kwargs):
        sol = real_solve(*args, **kwargs)
        sol.status[:] = qp_mod.MAX_ITER
        return sol

    monkeypatch.setattr("proxops.rta.qp_mod.solve_batch", broken_solve)
    decision = filter_agent(agent, [chief_snapshot()], np.array([0.5, 0, 0]), ORBIT, PARAMS)
    assert decision.fallback
    assert np.array_equal(decision.u_safe, np.zeros(3))


def test_filter_actions_symmetry():
    # Head-on geometry mirrored by a half turn about z, which maps the CWH
    # dynamics and the chief at the origin onto themselves, must produce
    # mirrored decisions.  The pair sits 400 m off the chief along z, so the
    # pair rows, not the chief's, shape the answer.
    a = snap([-100.0, 0, 400.0], [2.0, 0, 0])
    b = snap([100.0, 0, 400.0], [-2.0, 0, 0])
    decisions = filter_snapshots([a, b], [[0.5, 0, 0], [-0.5, 0, 0]])
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
    accel_est = [np.zeros(3), np.zeros(3)]
    min_sep = np.inf
    for _ in range(240):
        snaps = [AgentSnapshot(states[k], accel_est[k], VEH) for k in range(2)]
        decisions = filter_snapshots(snaps, [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        for k in range(2):
            drift = cwh_drift_accel(states[k], ORBIT)
            accel_est[k] = drift + decisions[k].u_safe / VEH.mass
            states[k] = propagate_cwh(states[k], decisions[k].u_safe, dt, ORBIT, VEH, substeps=10)
        min_sep = min(min_sep, float(np.linalg.norm(states[0].pos - states[1].pos)))
    assert min_sep >= 0.9 * PARAMS.collision_radius


def test_speed_limit_holds_in_closed_loop():
    dt = 1.0
    state = RelativeState([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    accel_est = np.zeros(3)
    top_speed = 0.0
    for _ in range(60):
        desired = np.array([1.0, 0.0, 0.0])
        decision = filter_agent(AgentSnapshot(state, accel_est, VEH), [], desired,
                                ORBIT, PARAMS)
        drift = cwh_drift_accel(state, ORBIT)
        accel_est = drift + decision.u_safe / VEH.mass
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


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_snapshots(rng, n, spread=300.0):
    return [snap(rng.uniform(-spread, spread, 3), rng.uniform(-3, 3, 3),
                 accel=rng.uniform(-0.5, 0.5, 3)) for _ in range(n)]


def test_filter_actions_matches_one_agent_filters():
    # The batched pass against per-agent calls that list each agent's peers.
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        for _ in range(3):
            snaps = _random_snapshots(rng, n, spread=40.0 * n + 60.0)
            desired = rng.uniform(-1.5, 1.5, (n, 3))
            batched = filter_snapshots(snaps, desired)
            assert len(batched) == n
            for i, decision in enumerate(batched):
                peers = [s for j, s in enumerate(snaps) if j != i] + [chief_snapshot()]
                alone = filter_agent(snaps[i], peers, desired[i], ORBIT, PARAMS)
                np.testing.assert_allclose(decision.u_safe, alone.u_safe,
                                           rtol=0, atol=1e-7)
                assert decision.fallback == alone.fallback
                assert len(decision.slacks) == len(peers) + 5


def test_warm_guesses_change_no_decision():
    # The guess changes the solver's step count, never its answer: all rows,
    # random masks, a stale mask from another tick and a guess that holds a
    # duplicated peer's rows all give the cold decisions.
    rng = np.random.default_rng(15)
    stale = None
    for n in (2, 4, 6):
        for _ in range(4):
            snaps = _random_snapshots(rng, n, spread=30.0 * n + 40.0)
            snaps[-1] = snaps[0]  # a duplicated peer: two equal pair rows for the others
            desired = rng.uniform(-1.5, 1.5, (n, 3))
            cold = filter_snapshots(snaps, desired)
            binding = np.array([d.active for d in cold])
            guesses = [np.ones_like(binding), rng.random(binding.shape) < 0.5, binding]
            if stale is not None and stale.shape == binding.shape:
                guesses.append(stale)
            for guess in guesses:
                states = np.array([s.state.as_vector() for s in snaps])
                accel = np.array([s.accel_est for s in snaps])
                warm = filter_actions(states, desired, accel, ORBIT, PARAMS, VEH, warm=guess)
                for w, c in zip(warm, cold):
                    np.testing.assert_allclose(w.u_safe, c.u_safe, rtol=0, atol=1e-9)
                    assert w.fallback == c.fallback
            stale = binding
    with pytest.raises(ValueError):
        filter_actions(states, desired, accel, ORBIT, PARAMS, VEH, warm=binding[:, :-1])


def test_decisions_report_the_solver_certificate():
    snaps = _random_snapshots(np.random.default_rng(2), 3, spread=80.0)
    for decision in filter_snapshots(snaps, [[1.0, 0, 0]] * 3):
        assert not decision.fallback
        assert decision.iterations >= 1
        assert 0.0 <= decision.kkt_residual <= 1e-7
    bad = filter_agent(snap([np.nan, 0, 0], [0, 0, 0]), [chief_snapshot()], np.zeros(3),
                       ORBIT, PARAMS)
    assert bad.fallback and bad.iterations == 0 and bad.kkt_residual == np.inf


def test_solver_failure_falls_back_for_every_agent(monkeypatch):
    real_solve = qp_mod.solve_batch

    def broken_solve(*args, **kwargs):
        sol = real_solve(*args, **kwargs)
        sol.status[:] = qp_mod.MAX_ITER
        return sol

    monkeypatch.setattr("proxops.rta.qp_mod.solve_batch", broken_solve)
    snaps = _random_snapshots(np.random.default_rng(4), 4)
    decisions = filter_snapshots(snaps, [[0.5, 0, 0]] * 4)
    assert [d.fallback for d in decisions] == [True] * 4
    for decision in decisions:
        assert np.array_equal(decision.u_safe, np.zeros(3))
        assert not decision.active.any()


def test_non_finite_solution_falls_back(monkeypatch):
    real_solve = qp_mod.solve_batch

    def nan_solve(*args, **kwargs):
        sol = real_solve(*args, **kwargs)
        sol.x = np.full_like(sol.x, np.nan)
        return sol

    monkeypatch.setattr("proxops.rta.qp_mod.solve_batch", nan_solve)
    decision = filter_agent(snap([100.0, 0, 0], [0, 0, 0]), [chief_snapshot()],
                            np.array([0.5, 0, 0]), ORBIT, PARAMS)
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
    agent = snap(values["pos"], values["vel"], accel=values["accel"])
    desired = np.array(values["desired"])
    decision = filter_agent(agent, [chief_snapshot()], desired, ORBIT, PARAMS)
    assert decision.fallback
    assert np.array_equal(decision.u_safe, np.zeros(3))

    other = snap([-150.0, 30.0, 0.0], [0.0, -0.3, 0.0])
    decisions = filter_snapshots([agent, other], [desired, np.zeros(3)])
    assert decisions[0].fallback
    assert np.array_equal(decisions[0].u_safe, np.zeros(3))
    for d in decisions:
        assert np.all(np.isfinite(d.u_safe))


def test_kkt_residual_stays_small_with_penalized_active_pair_rows():
    # Ring-like crowding: pair rows inside the collision radius bind with
    # slack, so their multipliers approach the 1e6 slack penalty.  The
    # residual must not scale with those multipliers.
    rng = np.random.default_rng(0)
    penalized = 0
    for _ in range(200):
        agent = snap(45.0 * _unit(rng), rng.uniform(-2.5, 2.5, 3),
                     accel=rng.uniform(-0.5, 0.5, 3))
        peers = [snap(agent.state.pos + rng.uniform(45, 85) * _unit(rng),
                      rng.uniform(-2.5, 2.5, 3), accel=rng.uniform(-0.5, 0.5, 3))
                 for _ in range(3)] + [chief_snapshot()]
        problem, _ = build_qp(agent, peers, rng.uniform(-1, 1, 3), ORBIT, PARAMS)
        sol = qp_mod.solve(problem)
        assert sol.status == qp_mod.OPTIMAL
        assert sol.kkt_residual <= 1e-6
        assert qp_mod.kkt_residual(problem, sol.x, sol.multipliers) == sol.kkt_residual
        penalized += int(np.sum(sol.multipliers[:4] > 1e5))
    assert penalized >= 10
