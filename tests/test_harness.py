import csv
import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from proxops import env, harness
from proxops.dynamics import (
    RelativeState,
    VehicleParams,
    cwh_drift_rows,
    propagate_cwh_zoh,
)
from proxops.env import EpisodeConfig, norms
from proxops.harness import (
    CSV_BLOCK_TICKS,
    CSV_HEADER,
    MAX_TICKS_PER_LEG,
    AgentSpec,
    ScenarioSpec,
    TrajectoryLog,
    baseline_stats,
    builtin_scenario,
    compute_metrics,
    local_minima,
    make_controller,
    pair_distances,
    run,
    single_agent_passes,
    three_agent_standoff,
    write_csv,
)
from proxops.policy import MlpPolicy, save_policy


def test_single_scenario_shape():
    spec = single_agent_passes()
    assert len(spec.agents) == 1
    agent = spec.agents[0]
    assert len(agent.waypoints) == 4
    pts = [agent.start.pos] + list(agent.waypoints)
    legs = [float(np.linalg.norm(b - a)) for a, b in zip(pts, pts[1:])]
    assert legs == [500.0, 600.0, 600.0, 600.0]
    assert sum(legs) == 2300.0
    assert spec.acceptance_radius == 15.0
    assert not spec.rta_enabled


def test_standoff_scenario_shape():
    spec = three_agent_standoff(rta_enabled=True)
    assert len(spec.agents) == 2
    assert sum(len(a.waypoints) for a in spec.agents) == 8
    first_leg = np.linalg.norm(spec.agents[1].waypoints[0] - spec.agents[1].start.pos)
    assert first_leg == 500.0
    # every nominal leg runs straight through the chief at the origin
    for agent in spec.agents:
        pts = [agent.start.pos] + list(agent.waypoints)
        for a, b in zip(pts, pts[1:]):
            seg = b - a
            t = -float(a @ seg) / float(seg @ seg)
            assert 0.0 < t < 1.0
            assert np.linalg.norm(a + t * seg) == pytest.approx(0.0, abs=1e-12)


def test_builtin_scenario_lookup():
    assert builtin_scenario("single").name == "single"
    assert builtin_scenario("standoff", rta_enabled=False).rta_enabled is False
    with pytest.raises(ValueError):
        builtin_scenario("nope")


def test_spec_validation():
    agent = AgentSpec(RelativeState([0, 0, 0], [0, 0, 0]), ((1.0, 0, 0),))
    for control_dt in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="control_dt must be finite and positive"):
            ScenarioSpec(name="x", agents=(agent,), control_dt=control_dt)
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", agents=())
    with pytest.raises(ValueError):
        AgentSpec(RelativeState([0, 0, 0], [0, 0, 0]), ())
    # A NaN radius accepts no waypoint, so the run would idle out its legs.
    for radius in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="acceptance radius"):
            ScenarioSpec(name="x", agents=(agent,), acceptance_radius=radius)


def test_ticks_per_leg_and_their_maximum():
    agent = AgentSpec(RelativeState([0, 0, 0], [0, 0, 0]), ((1.0, 0, 0),))
    # 0.05 s is below the retired 0.1 s integration step, which bounded control_dt
    for control_dt, leg_timeout in ((0.3, 500.0), (0.05, 500.0), (500.0, 500.0),
                                    (1.0, float(MAX_TICKS_PER_LEG))):
        ScenarioSpec(name="x", agents=(agent,), control_dt=control_dt, leg_timeout=leg_timeout)
    # 1e-6 s ticks would take 5e8 ticks per 500 s leg; the other legs take
    # under one tick, over the maximum, or NaN ticks.
    for control_dt, leg_timeout in ((1e-6, 500.0), (1.0, MAX_TICKS_PER_LEG + 1.0),
                                    (501.0, 500.0), (1.0, 0.5), (1.0, -5.0),
                                    (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError, match="ticks per leg"):
            ScenarioSpec(name="x", agents=(agent,), control_dt=control_dt,
                         leg_timeout=leg_timeout)


def test_all_waypoints_already_inside_finish_at_time_zero():
    agent = AgentSpec(RelativeState([0.0, 0, 0], [0, 0, 0]),
                      ((1.0, 0, 0), (-2.0, 0, 0), (3.0, 0, 0)))
    spec = ScenarioSpec(name="x", agents=(agent,), acceptance_radius=15.0)
    report, log = run(spec)
    assert report.aggregate.targets_reached == 3
    assert report.aggregate.time_taken == 0.0
    assert report.aggregate.distance_traveled == 0.0
    assert report.aggregate.delta_v == 0.0
    assert [r.t for r in log.records] == [0.0]


def _synthetic_log(positions, thrusts, mass=1.0, dt=1.0):
    pos = np.asarray(positions, dtype=float).reshape(-1, 1, 3)
    u = np.asarray(thrusts, dtype=float).reshape(-1, 1, 3)
    ticks = len(pos)
    return TrajectoryLog(t=np.arange(ticks) * dt, pos=pos, vel=np.zeros_like(pos),
                         u_des=u, u=u, rta_active=np.zeros((ticks, 1), dtype=bool),
                         slack=np.zeros((ticks, 1, 6)), dist_goal=np.zeros((ticks, 1)),
                         control_dt=dt, mass=mass, targets_reached=[0], completion_times=[None])


def test_metrics_zero_thrust_stationary():
    log = _synthetic_log([(0, 0, 0)] * 5, [(0, 0, 0)] * 5)
    rep = compute_metrics(log)
    assert rep.aggregate.distance_traveled == 0.0
    assert rep.aggregate.delta_v == 0.0


def test_metrics_single_tick_delta_v():
    log = _synthetic_log([(0, 0, 0)], [(1.0, 1.0, 1.0)])
    assert compute_metrics(log).aggregate.delta_v == pytest.approx(3.0, abs=0)


def test_metrics_straight_leg_distance():
    xs = np.linspace(0.0, 100.0, 101)
    log = _synthetic_log([(x, 0, 0) for x in xs], [(0, 0, 0)] * 101)
    assert compute_metrics(log).aggregate.distance_traveled == pytest.approx(100.0, rel=1e-12)


def test_metrics_additivity_and_target_caps():
    report, _ = run(three_agent_standoff(rta_enabled=False))
    agg = report.aggregate
    assert agg.targets_reached == sum(m.targets_reached for m in report.per_agent)
    assert agg.time_taken == sum(m.time_taken for m in report.per_agent)
    assert agg.distance_traveled == sum(m.distance_traveled for m in report.per_agent)
    assert agg.delta_v == sum(m.delta_v for m in report.per_agent)
    for m, assigned in zip(report.per_agent, (4, 4)):
        assert 0 <= m.targets_reached <= assigned


def test_single_agent_run_reaches_everything():
    report, log = run(single_agent_passes())
    assert report.aggregate.targets_reached == 4
    assert not report.timed_out and not report.aborted
    assert report.aggregate.distance_traveled <= 1.25 * 2300.0
    # one record per agent per tick, monotone time
    times = [r.t for r in log.records]
    assert times == sorted(times)
    assert len(set(times)) == len(times)


def _assert_agents_match_their_solo_runs(standoff):
    # With the filter off and peer-blind controllers nothing couples the
    # agents, so each joint trajectory must match that agent's solo run.
    _, joint = run(standoff)
    for k, agent in enumerate(standoff.agents):
        solo_spec = ScenarioSpec(name="solo", agents=(agent,),
                                 rta_enabled=False,
                                 control_dt=standoff.control_dt,
                                 acceptance_radius=standoff.acceptance_radius,
                                 leg_timeout=standoff.leg_timeout)
        _, solo = run(solo_spec)
        m = min(len(joint.t), len(solo.t))
        for column in ("pos", "vel", "u_des", "u", "dist_goal"):
            np.testing.assert_array_equal(getattr(joint, column)[:m, k],
                                          getattr(solo, column)[:m, 0])
    return joint


def test_no_interaction_without_rta():
    _assert_agents_match_their_solo_runs(three_agent_standoff(rta_enabled=False))


def test_no_interaction_without_rta_with_an_early_finisher():
    # An early finisher leaves the one baseline group while the others fly on.
    standoff = three_agent_standoff(rta_enabled=False)
    standoff = dataclasses.replace(standoff, agents=standoff.agents + (
        AgentSpec(RelativeState([0.0, 0, 150.0], [0.1, 0, 0]), ((0.0, 0, -150.0),)),))
    joint = _assert_agents_match_their_solo_runs(standoff)
    done = joint.completion_times[2]
    assert done < min(joint.completion_times[:2])
    assert not joint.u_des[joint.t >= done, 2].any()


def test_mixed_controllers_match_their_solo_runs(tmp_path):
    # One stacked call per controller choice: the two baseline agents share
    # one, the policy agent has its own, and each flies as it does alone.
    path = tmp_path / "p.json"
    save_policy(MlpPolicy.initialize(np.random.default_rng(0)), path)
    first, second = three_agent_standoff(rta_enabled=False).agents
    agents = (first, dataclasses.replace(second, controller=f"policy:{path}"),
              AgentSpec(RelativeState([0.0, 0, 150.0], [0.1, 0, 0]),
                        ((0.0, 0, -150.0), (0.0, 0, 150.0))))
    spec = ScenarioSpec(name="mixed", agents=agents)
    _, joint = run(spec)
    for k, agent in enumerate(agents):
        _, solo = run(dataclasses.replace(spec, agents=(agent,)))
        ticks = min(len(joint.t), len(solo.t))
        assert ticks > 100
        np.testing.assert_array_equal(joint.pos[:ticks, k], solo.pos[:ticks, 0])
        np.testing.assert_array_equal(joint.vel[:ticks, k], solo.vel[:ticks, 0])
    # The third agent finishes and leaves its group while the first flies
    # on; from its completion tick on, it commands zero thrust.
    done = joint.completion_times[2]
    assert done is not None and joint.completion_times[0] is None
    assert joint.u_des[joint.t < done, 2].any()
    assert not joint.u_des[joint.t >= done, 2].any()
    assert joint.u_des[joint.t >= done, 0].any()


def test_applied_thrust_stays_in_the_actuator_box(monkeypatch):
    # A filter command beyond the 1 N bound is clipped before it is applied;
    # the clipped thrust is logged, charged as delta-v and enters the next
    # tick's acceleration estimates.
    real_filter = harness.filter_actions
    estimates = []

    def overdrive(states, desired, accel, orbit, params, vehicle, warm=None):
        estimates.append(accel.copy())
        decision = real_filter(states, desired, accel, orbit, params, vehicle, warm=warm)
        decision.u_safe[:] = [3.0, -3.0, 0.5]
        return decision

    monkeypatch.setattr(harness, "filter_actions", overdrive)
    spec = dataclasses.replace(three_agent_standoff(rta_enabled=True), leg_timeout=5.0)
    report, log = run(spec)
    applied = np.array([1.0, -1.0, 0.5])
    assert report.timed_out and len(log.t) == 6
    np.testing.assert_array_equal(log.u[:-1], np.broadcast_to(applied, (5, 2, 3)))
    assert np.abs(log.u_des).max() <= 1.0 and log.rta_active[:-1].all()
    assert report.aggregate.delta_v == 2 * 5 * 2.5
    states = np.concatenate([log.pos, log.vel], axis=-1)
    np.testing.assert_array_equal(
        states[1], propagate_cwh_zoh(states[0], log.u[0], 1.0, spec.orbit, spec.vehicle))
    for k in range(2):
        drift = cwh_drift_rows(states[0, k], spec.orbit)
        np.testing.assert_array_equal(estimates[1][k], drift + applied / spec.vehicle.mass)


def test_the_next_estimate_is_the_decision_drift_plus_thrust_over_mass(monkeypatch):
    # Each RTA tick's acceleration estimates are the last decision's drift
    # plus the applied thrust over the mass, to the bit, and that drift is
    # cwh_drift_rows of the states the last tick filtered.
    real_filter = harness.filter_actions
    calls, decisions = [], []

    def spy(*args, warm=None):
        calls.append(args)
        decisions.append(real_filter(*args, warm=warm))
        return decisions[-1]

    monkeypatch.setattr(harness, "filter_actions", spy)
    spec = dataclasses.replace(three_agent_standoff(rta_enabled=True), leg_timeout=30.0)
    _, log = run(spec)
    assert len(calls) == 30 and not calls[0][2].any()
    for tick in range(1, 30):
        previous = decisions[tick - 1].drift
        expected = cwh_drift_rows(calls[tick - 1][0], spec.orbit)
        assert previous.shape == (2, 3)
        assert np.array_equal(previous.view(np.int64), expected.view(np.int64))
        estimate = previous + log.u[tick - 1] / spec.vehicle.mass
        assert np.array_equal(calls[tick][2].view(np.int64), estimate.view(np.int64))


def _ring(n_agents, phase):
    """N deputies on chords through the chief, each out to 300 m and back twice."""
    agents = []
    for k in range(n_agents):
        theta = phase + k * math.pi / n_agents
        chord = np.array([math.cos(theta), math.sin(theta), 0.0])
        agents.append(AgentSpec(RelativeState(-200.0 * chord, np.zeros(3)),
                                tuple(sign * 300.0 * chord for sign in (1, -1, 1, -1))))
    return ScenarioSpec(name="ring", agents=tuple(agents), rta_enabled=True)


def test_filter_certifies_the_thrust_the_vehicle_applies(monkeypatch):
    # With a 0.5 N vehicle, the six-deputy ring at phase 0.3 pushes one
    # agent's box rows into their slack at t = 143 s.  The box rows sit at the
    # vehicle's bound, so the filter returns at most that bound plus the slack.
    # A 1 N box of the filter's own would return 1.0002 N there, and the
    # harness would clip it to a command no barrier row was checked against.
    real_filter = harness.filter_actions
    peaks = []

    def spy(*args, warm=None):
        decisions = real_filter(*args, warm=warm)
        peaks.append(max(np.abs(d.u_safe).max() for d in decisions))
        return decisions

    monkeypatch.setattr(harness, "filter_actions", spy)
    spec = dataclasses.replace(_ring(6, 0.3), vehicle=VehicleParams(thrust_bound=0.5),
                               leg_timeout=150.0)
    _, log = run(spec)
    assert len(peaks) == 150 and max(peaks) > 0.5
    assert max(peaks) <= 0.5 + 1e-3
    assert np.abs(log.u).max() == 0.5


def test_warm_started_ring_solves_are_certified(monkeypatch):
    # Each tick's solves start from the last tick's binding rows; every one of
    # the six-deputy ring's decisions still comes with a small KKT residual.
    real_filter = harness.filter_actions
    decisions, guesses = [], []

    def spy(*args, warm=None):
        guesses.append(warm)
        out = real_filter(*args, warm=warm)
        decisions.extend(out)
        return out

    monkeypatch.setattr(harness, "filter_actions", spy)
    run(dataclasses.replace(_ring(6, 0.1), leg_timeout=150.0))
    assert len(decisions) == 6 * 150
    assert guesses[0] is None and all(g.shape == (6, 14) for g in guesses[1:])
    assert not any(d.fallback for d in decisions)
    assert max(d.kkt_residual for d in decisions) <= 1e-7


def test_no_warm_state_leaks_between_runs(tmp_path):
    # A ring run between two standoff runs leaves the second standoff run's
    # trajectory byte-identical to the first.
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    write_csv(run(three_agent_standoff(rta_enabled=True))[1], paths[0])
    run(dataclasses.replace(_ring(6, 0.1), leg_timeout=150.0))
    write_csv(run(three_agent_standoff(rta_enabled=True))[1], paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _digest(arrays):
    """The first 16 hex digits of the SHA-256 of the arrays' bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# RTA runs to the last bit: aggregate metrics, logged ticks, RTA-active
# agent-ticks, a digest of every logged array and one of six decision fields
# (u_safe, slacks, active, fallback, iterations, kkt_residual) of every tick;
# the seventh, drift, has its own test in test_rta.py.
# Recorded with numpy 2.4.6; the same under single- and multi-threaded BLAS.
RTA_GOLDEN = {
    "standoff": ({"targets_reached": 8, "time_taken": 2205.0,
                  "distance_traveled": 4631.688083101734, "delta_v": 128.72913457589817},
                 1104, 1809, "dfe62190957e1d94", "a53a2841d8da860f"),
    "ring4": ({"targets_reached": 16, "time_taken": 4559.0,
               "distance_traveled": 9600.064490564373, "delta_v": 361.57830708943357},
              1204, 3699, "57395fbb53ede984", "c5ea26adafec231a"),
}


@pytest.mark.parametrize("name", sorted(RTA_GOLDEN))
def test_rta_runs_match_their_goldens(monkeypatch, name):
    real_filter = harness.filter_actions
    decisions = []

    def spy(*args, warm=None):
        out = real_filter(*args, warm=warm)
        decisions.extend(out)
        return out

    monkeypatch.setattr(harness, "filter_actions", spy)
    report, log = run(three_agent_standoff(True) if name == "standoff" else _ring(4, 0.1))
    fields = [np.array([getattr(d, field) for d in decisions])
              for field in ("u_safe", "slacks", "active", "fallback", "iterations", "kkt_residual")]
    logged = [log.pos, log.vel, log.u_des, log.u, log.rta_active, log.slack, log.dist_goal]
    assert (report.as_dict()["aggregate"], len(log.t), int(log.rta_active.sum()),
            _digest(logged), _digest(fields)) == RTA_GOLDEN[name]


def test_records_are_views_of_the_arrays():
    _, log = run(dataclasses.replace(three_agent_standoff(rta_enabled=True),
                                     leg_timeout=60.0))
    ticks, n = log.dist_goal.shape
    assert (ticks, n) == (61, 2) and log.rta_active.any()

    def fields(r):
        return (r.t, r.agent, *r.pos, *r.vel, *r.u_des, *r.u, r.rta_active,
                r.slack_pos, r.slack_vel, r.slack_acc, *r.slack_u, r.dist_goal)

    records = log.records
    assert len(records) == ticks * n
    for i in range(ticks):
        for k in range(n):
            expected = (log.t[i], k, *log.pos[i, k], *log.vel[i, k], *log.u_des[i, k],
                        *log.u[i, k], log.rta_active[i, k], *log.slack[i, k],
                        log.dist_goal[i, k])
            assert fields(records[i * n + k]) == expected


def test_array_metrics_equal_the_record_loops():
    # Reference: sums and norms over the record views, one record at a time.
    report, log = run(three_agent_standoff(rta_enabled=False))
    for k, m in enumerate(report.per_agent):
        recs = log.records[k::log.n_agents]
        dist = dv = 0.0
        for prev, cur in zip(recs, recs[1:]):
            dist += float(np.linalg.norm(cur.pos - prev.pos))
        for r in recs:
            dv += float(np.sum(np.abs(r.u))) / log.mass * log.control_dt
        assert (m.distance_traveled, m.delta_v) == (dist, dv)
    by_time = {}
    for r in log.records:
        by_time.setdefault(r.t, {})[r.agent] = r.pos
    distances = pair_distances(log)
    assert list(by_time) == log.t.tolist()
    assert list(distances) == ["0-1", "0-chief", "1-chief"]
    assert {key: d.tolist() for key, d in distances.items()} == {
        "0-1": [float(np.linalg.norm(p[0] - p[1])) for p in by_time.values()],
        "0-chief": [float(np.linalg.norm(p[0])) for p in by_time.values()],
        "1-chief": [float(np.linalg.norm(p[1])) for p in by_time.values()]}


# Per agent: targets, time taken, distance and delta-v of each built-in run
# under the 10-substep RK4 integrator (sim_dt 0.1 s) the harness stepped with
# before the exact zero-order-hold map.
RK4_GOLDENS = {
    "single": (single_agent_passes(),
               [(4, 653.0, 2200.3286928182097, 36.72789599684194)]),
    "standoff-off": (three_agent_standoff(rta_enabled=False),
                     [(4, 653.0, 2203.8431211568945, 36.72789599684194),
                      (4, 657.0, 2204.5637004011264, 36.42099160220735)]),
    "standoff-on": (three_agent_standoff(rta_enabled=True),
                    [(4, 1103.0, 2315.047272773006, 64.56048301552325),
                     (4, 1102.0, 2316.640810328723, 64.16865156037471)]),
}


@pytest.mark.parametrize("name", RK4_GOLDENS)
def test_runs_agree_with_rk4_goldens(name):
    spec, goldens = RK4_GOLDENS[name]
    report, _ = run(spec)
    assert not report.aborted and not report.timed_out
    assert len(report.per_agent) == len(goldens)
    for m, (targets, time_taken, distance, delta_v) in zip(report.per_agent, goldens):
        assert (m.targets_reached, m.time_taken) == (targets, time_taken)
        assert m.distance_traveled == pytest.approx(distance, rel=1e-9, abs=0)
        assert m.delta_v == pytest.approx(delta_v, rel=1e-9, abs=0)


def test_standoff_without_rta_has_designed_conflicts():
    _, log = run(three_agent_standoff(rta_enabled=False))
    mins = {k: float(d.min()) for k, d in pair_distances(log).items()}
    assert min(mins.values()) < 50.0


def test_standoff_with_rta_keeps_safety_margins():
    report, log = run(three_agent_standoff(rta_enabled=True))
    assert report.aggregate.targets_reached == 8
    assert not report.timed_out
    for d in pair_distances(log).values():
        assert d.min() >= 0.9 * 50.0
    assert norms(log.vel[log.t >= 30.0]).max() <= 1.1 * 3.0


def test_halving_sim_dt_barely_moves_metrics(tmp_path):
    # The exact zero-order-hold step does not read sim_dt at all.
    texts = []
    for sim_dt in (0.1, 0.05):
        _, log = run(dataclasses.replace(single_agent_passes(), sim_dt=sim_dt))
        path = tmp_path / f"{sim_dt}.csv"
        write_csv(log, path)
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]


def _replay_waypoints(spec, log):
    """Waypoint acceptance replayed agent by agent with plain lists over
    ``log.pos``: (dist_goal rows, targets reached, completion times, timed
    out, most waypoints one agent accepted in one tick after t = 0)."""
    n = len(spec.agents)
    reached, done, leg_start = [0] * n, [None] * n, [0.0] * n
    dist, most = [], 0
    for i, t in enumerate(log.t.tolist()):
        row = []
        for k, agent in enumerate(spec.agents):
            wps, before = agent.waypoints, reached[k]
            while reached[k] < len(wps) and norms(log.pos[i, k] - wps[reached[k]]) <= spec.acceptance_radius:
                reached[k] += 1
                leg_start[k] = t
                if reached[k] == len(wps):
                    done[k] = t
            most = max(most, reached[k] - before) if t > 0 else most
            row.append(norms(log.pos[i, k] - wps[min(reached[k], len(wps) - 1)]))
        dist.append(row)
        open_legs = [s for s, d in zip(leg_start, done) if d is None]
        ended = not open_legs or t - min(open_legs) >= spec.leg_timeout
        assert ended == (i == len(log.t) - 1)
    return np.array(dist), reached, done, bool(open_legs), most


@pytest.mark.parametrize("seed", range(3))
def test_waypoint_bookkeeping_matches_a_plain_replay(seed):
    # Unequal queues of clustered waypoints, so one agent takes several in
    # one tick, and a leg timeout short enough to end some runs early.
    rng = np.random.default_rng(seed)
    agents = []
    for k in range(4):
        waypoints = []
        for _ in range(1 + k):
            centre = rng.uniform(-150.0, 150.0, 3)
            waypoints += [centre + rng.uniform(-0.5, 0.5, 3) for _ in range(rng.integers(1, 4))]
        agents.append(AgentSpec(RelativeState(rng.uniform(-150.0, 150.0, 3), [0.0, 0, 0]),
                                tuple(waypoints)))
    agents.append(AgentSpec(RelativeState([0.0, 0, 0], [0, 0, 0]), ((0.0, 0, 0), (0.0, 0, 0))))
    timeout = (80.0, 200.0, 500.0)[seed]
    spec = ScenarioSpec(name="replay", agents=tuple(agents), leg_timeout=timeout)
    report, log = run(spec)
    dist, reached, done, timed_out, most = _replay_waypoints(spec, log)
    assert dist.tobytes() == log.dist_goal.tobytes()
    assert log.targets_reached == reached and log.completion_times == done
    assert all(type(c) is float for c in done if c is not None)
    assert report.timed_out == log.timed_out == timed_out
    assert most >= 2 and done[-1] == 0.0
    assert timed_out == (None in done) == (seed == 0)


def test_leg_timeout_ends_the_run():
    agent = AgentSpec(RelativeState([0.0, 0, 0], [0, 0, 0]), ((0.0, 1000.0, 0),))
    spec = ScenarioSpec(name="x", agents=(agent,), leg_timeout=5.0)
    report, log = run(spec)
    assert report.timed_out
    assert report.aggregate.targets_reached == 0
    assert report.aggregate.time_taken == 5.0
    assert log.records[-1].t == 5.0


def test_propagation_blowup_aborts_with_partial_log():
    # velocity near the float ceiling overflows the very first integration
    agent = AgentSpec(RelativeState([1.5e308, 0, 0], [1e308, 0, 0]),
                      ((500.0, 0, 0),))
    spec = ScenarioSpec(name="x", agents=(agent,))
    with pytest.warns(RuntimeWarning, match="overflow"):
        report, log = run(spec)
    assert report.aborted
    assert len(log.records) >= 1


def test_csv_schema_and_round_trip(tmp_path):
    _, log = run(single_agent_passes())
    path = tmp_path / "traj.csv"
    write_csv(log, path)
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert len(text) == len(log.records) + 1
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    r0 = rows[0]
    assert float(r0["t"]) == 0.0
    assert int(r0["agent"]) == 0
    assert float(r0["rx"]) == -200.0
    assert r0["rta_active"] == "0"
    assert float(rows[-1]["dist_goal"]) <= 15.0
    # tick-major rows, each float as repr of its Python float
    assert text[1:] == [",".join([repr(r.t), str(r.agent),
                                  *(repr(float(v)) for v in (*r.pos, *r.vel, *r.u_des, *r.u)),
                                  str(int(r.rta_active)),
                                  *(repr(v) for v in (r.slack_pos, r.slack_vel, r.slack_acc)),
                                  *(repr(float(v)) for v in r.slack_u), repr(r.dist_goal)])
                        for r in log.records]


# SHA-256 of trajectory.csv from `proxops run` on each built-in run, recorded
# when csv.writer wrote the rows; writing each row as one line keeps the bytes.
CSV_GOLDENS = {
    ("single", False): "5eee38658018e8e5385fad028d4e2108dbf532b3c59b39cbeddea295d52fc54a",
    ("standoff", False): "7ce6a1803d9a59acb5d2d8ad452856fc67ffec487cc6c7223d4919f8ab024088",
    ("standoff", True): "a7c841fa531a5ebbbd7a5b08eccd62a4dce1114398b6d40afabdb65dc3e941eb",
}


@pytest.mark.parametrize("scenario, rta", CSV_GOLDENS,
                         ids=["single", "standoff-rta-off", "standoff-rta-on"])
def test_csv_matches_its_golden(tmp_path, scenario, rta):
    path = tmp_path / "trajectory.csv"
    write_csv(run(builtin_scenario(scenario, rta_enabled=rta))[1], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_GOLDENS[scenario, rta]


def _reference_csv(log, path):
    """The trajectory CSV through ``csv.writer``, one Python list per row."""
    motion = np.concatenate([log.pos, log.vel, log.u_des, log.u], axis=-1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for i, t in enumerate(log.t.tolist()):
            columns = (motion[i], log.rta_active[i], log.slack[i], log.dist_goal[i])
            writer.writerows([t, k, *m, int(a), *s, d] for k, (m, a, s, d)
                             in enumerate(zip(*(c.tolist() for c in columns))))


SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, -1e-5, 0.1)


def _hand_built_log(n_agents, ticks=5):
    """A log whose every float column cycles through ``SPECIAL_FLOATS``,
    with every third entry a random one."""
    rng = np.random.default_rng(n_agents)

    def column(*shape):
        size = math.prod(shape)
        cycle = np.resize(np.array(SPECIAL_FLOATS), size)
        return np.where(np.arange(size) % 3 == 2, rng.normal(size=size) * 1e3,
                        cycle).reshape(shape)

    return TrajectoryLog(
        t=np.array([0.0, 1.0, 2.5, 1e16, -0.0])[:ticks], pos=column(ticks, n_agents, 3),
        vel=column(ticks, n_agents, 3), u_des=column(ticks, n_agents, 3),
        u=column(ticks, n_agents, 3), rta_active=rng.random((ticks, n_agents)) < 0.5,
        slack=column(ticks, n_agents, 6), dist_goal=column(ticks, n_agents),
        control_dt=1.0, mass=12.0, targets_reached=[0] * n_agents,
        completion_times=[None] * n_agents)


@pytest.mark.parametrize("n_agents", [1, 3])
def test_csv_bytes_match_the_csv_module_on_special_floats(tmp_path, n_agents):
    log = _hand_built_log(n_agents)
    write_csv(log, tmp_path / "fast.csv")
    _reference_csv(log, tmp_path / "reference.csv")
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "reference.csv").read_bytes()
    for token in (b",nan,", b",inf,", b",-inf,", b",-0.0,", b",5e-324,", b",1e+16,", b",1e-05,"):
        assert token in fast


def test_csv_reuses_text_only_for_bit_equal_thrust_and_positive_zero_slack(tmp_path):
    # The applied thrust reuses the command's text only when the two are
    # bit-equal, and a slack block is one constant string only when all six
    # values are +0.0: -0.0 and any nonzero value still print as themselves.
    log = _hand_built_log(3)
    log.u = log.u_des.copy()  # bit-equal, NaNs included, as with RTA off
    log.u_des[1, 0], log.u[1, 0] = [0.5, -0.0, 2.0], [0.5, 0.0, 2.0]
    log.slack[:] = 0.0
    log.slack[1, 1, 4], log.slack[2, 2, 0] = -0.0, 1e-3
    write_csv(log, tmp_path / "fast.csv")
    _reference_csv(log, tmp_path / "reference.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_csv_bytes_match_the_csv_module_on_a_blown_up_run(tmp_path):
    agent = AgentSpec(RelativeState([1.5e308, 0, 0], [1e308, 0, 0]), ((500.0, 0, 0),))
    with pytest.warns(RuntimeWarning, match="overflow"):
        report, log = run(ScenarioSpec(name="x", agents=(agent,)))
    assert report.aborted
    write_csv(log, tmp_path / "fast.csv")
    _reference_csv(log, tmp_path / "reference.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_csv_bytes_match_the_csv_module_at_block_edges(tmp_path):
    # The ticks on both sides of each block edge, and a last block of one
    # tick, hold special floats, thrust bit-equal to its command, +0.0 against
    # -0.0 thrust, and -0.0 slacks; the ticks between them are random.
    ticks, n_agents = 2 * CSV_BLOCK_TICKS + 1, 3
    edges = [CSV_BLOCK_TICKS - 1, CSV_BLOCK_TICKS, 2 * CSV_BLOCK_TICKS - 1, 2 * CSV_BLOCK_TICKS]
    rng = np.random.default_rng(35)

    def column(*shape):
        out = rng.normal(size=(ticks, n_agents, *shape)) * 1e3
        out[edges] = np.resize(np.array(SPECIAL_FLOATS), (len(edges), n_agents, *shape))
        return out

    log = TrajectoryLog(
        t=np.arange(ticks) * 0.1, pos=column(3), vel=column(3), u_des=column(3), u=column(3),
        rta_active=rng.random((ticks, n_agents)) < 0.5, slack=np.zeros((ticks, n_agents, 6)),
        dist_goal=column(), control_dt=0.1, mass=12.0, targets_reached=[0] * n_agents,
        completion_times=[None] * n_agents)
    log.t[edges] = [1e16, -0.0, math.nan, 5e-324]
    log.u[:, 0] = log.u_des[:, 0]  # bit-equal, NaNs included
    log.u_des[edges, 1], log.u[edges, 1] = [0.5, -0.0, 0.0], [0.5, 0.0, -0.0]
    log.slack[edges, 1, 4] = -0.0
    log.slack[edges, 2] = column(6)[edges, 2]
    write_csv(log, tmp_path / "fast.csv")
    _reference_csv(log, tmp_path / "reference.csv")
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "reference.csv").read_bytes()
    assert fast.count(b"\r\n") == ticks * n_agents + 1
    for token in (b"1e+16,0,", b"-0.0,2,", b"nan,1,", b"5e-324,0,", b",inf,", b",-0.0,"):
        assert token in fast


def test_csv_writer_streams_one_tick_at_a_time(tmp_path):
    # Formatting the whole six-deputy ring log at once peaks near 5 MB of
    # Python objects; one tick at a time, near the 0.7 MB motion array.
    _, log = run(_ring(6, 0.1))
    tracemalloc.start()
    try:
        write_csv(log, tmp_path / "ring.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_crossing_times_catch_the_conflicts():
    _, log = run(three_agent_standoff(rta_enabled=False))
    crossings = local_minima(log.t, pair_distances(log))
    assert len(crossings["0-1"]) >= 1
    assert min(d for _, d in crossings["0-1"]) < 50.0
    assert all(len(v) >= 1 for v in crossings.values())


def _strict_minima(t, d):
    """Reference: every inner index whose value is below both neighbours'."""
    return [[t[i], d[i]] for i in range(1, len(d) - 1) if d[i] < d[i - 1] and d[i] < d[i + 1]]


def test_local_minima_match_a_plain_loop_on_ties_and_short_series():
    rng = np.random.default_rng(7)
    series = {
        # few distinct values: plateaus and equal neighbours throughout
        "ties": rng.integers(0, 3, 200).astype(float),
        "plateau": np.array([5.0, 3.0, 3.0, 5.0, 2.0, 2.0, 2.0, 4.0, 1.0, 6.0]),
        "ends": np.array([0.0, 4.0, 1.0, 4.0, 0.0]),  # the ends are lowest, yet no minima
        "noise": rng.normal(100.0, 10.0, 300),
        "T=0": np.zeros(0),
        "T=1": np.array([1.0]),
        "T=2": np.array([2.0, 1.0]),
        "T=3": np.array([2.0, 1.0, 3.0]),
        "T=3 tie": np.array([1.0, 1.0, 3.0]),
    }
    for key, d in series.items():
        t = np.arange(len(d)) * 0.5 + rng.normal(size=len(d))
        minima = local_minima(t, {key: d})
        assert list(minima) == [key]
        assert minima[key] == _strict_minima(t.tolist(), d.tolist()), key
    assert local_minima(np.arange(10.0), {"p": series["plateau"]})["p"] == [[8.0, 1.0]]
    assert local_minima(np.arange(5.0), {"e": series["ends"]})["e"] == [[2.0, 1.0]]
    assert local_minima(np.arange(3.0), {"s": series["T=3"]})["s"] == [[1.0, 1.0]]
    for key in ("T=0", "T=1", "T=2", "T=3 tie"):
        assert local_minima(np.arange(len(series[key])) * 1.0, {key: series[key]})[key] == []


def test_make_controller_choices(tmp_path):
    veh = VehicleParams()
    base = make_controller("baseline", veh)
    policy = MlpPolicy.initialize(np.random.default_rng(0))
    path = tmp_path / "p.json"
    save_policy(policy, path)
    pol = make_controller(f"policy:{path}", veh)
    from proxops.env import observe
    obs = observe(np.array([100.0, 0, 0, 0, 0, 0]), np.zeros(3))
    for ctrl in (base, pol):
        action = np.asarray(ctrl(obs), dtype=float)
        assert action.shape == (3,)
        assert np.all(np.abs(action) <= 1.0)
    with pytest.raises(ValueError):
        make_controller("mystery", veh)


def test_commands_times_a_thrust_bound_are_their_own_clamp(tmp_path):
    # Without RTA the harness applies action * thrust_bound unclamped: the
    # controllers' actions are in [-1, 1], so the product is inside the box
    # bit for bit, also where the actions saturate and the bound is not 1.
    veh = VehicleParams(thrust_bound=2.5)
    rng = np.random.default_rng(0)
    extremes = np.array(np.meshgrid(*[[-1e300, 0.0, 1e300]] * 6)).reshape(6, -1).T
    obs = np.concatenate([extremes, rng.normal(size=(300, 6)) * np.logspace(-3, 3, 300)[:, None]])
    path = tmp_path / "p.json"
    weights = [rng.normal(0.0, 1e6, (8, 6)), rng.normal(0.0, 1e6, (3, 8))]
    save_policy(MlpPolicy(weights, [np.zeros(8), np.zeros(3)]), path)
    for choice in ("baseline", f"policy:{path}"):
        with np.errstate(over="ignore"):  # squares of 1e300 positions overflow the distance
            action = make_controller(choice, veh)(obs)
        assert (action == 1.0).any() and (action == -1.0).any()
        u = action * veh.thrust_bound
        clamped = np.minimum(np.maximum(u, -veh.thrust_bound), veh.thrust_bound)
        assert u.tobytes() == clamped.tobytes()


def test_baseline_stats_empty_and_deterministic():
    empty = baseline_stats(0)
    assert empty.n_trials == 0 and empty.success_rate == 0.0
    a = baseline_stats(5, seed=3)
    b = baseline_stats(5, seed=3)
    assert a == b
    c = baseline_stats(5, seed=4)
    assert c != a


def test_baseline_stats_values_are_sane():
    stats = baseline_stats(20, seed=0)
    assert stats.success_rate == 1.0
    assert 0.0 < stats.mean_time < 500.0
    assert stats.sd_time >= 0.0
    assert stats.mean_distance > 0.0
    # near-straight flight: the acceptance ball can even make this slightly
    # negative, but the magnitude stays small
    assert abs(stats.mean_excess) < 0.25


def test_baseline_stats_honours_the_episode_time_budget(monkeypatch):
    # Under the default 500 s budget all five trials arrive, 194.2 s on average.
    monkeypatch.setattr(env, "EpisodeConfig", lambda: EpisodeConfig(timeout=20.0))
    stats = baseline_stats(5, seed=1)
    assert stats.mean_time <= 20.0
    assert stats.success_rate < 1.0
