import csv

import numpy as np
import pytest

from proxops.dynamics import RelativeState, VehicleParams, default_vehicle
from proxops.env import EpisodeConfig
from proxops.harness import (
    CSV_HEADER,
    MAX_SUBSTEPS_PER_TICK,
    AgentSpec,
    ScenarioSpec,
    TickRecord,
    TrajectoryLog,
    baseline_stats,
    builtin_scenario,
    compute_metrics,
    crossing_times,
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
    with pytest.raises(KeyError):
        builtin_scenario("nope")


def test_spec_validation():
    agent = AgentSpec(RelativeState([0, 0, 0], [0, 0, 0]), ((1.0, 0, 0),))
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", agents=(agent,), control_dt=0.5, sim_dt=1.0)
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", agents=())
    with pytest.raises(ValueError):
        AgentSpec(RelativeState([0, 0, 0], [0, 0, 0]), ())


def test_substeps_per_tick_and_their_maximum():
    agent = AgentSpec(RelativeState([0, 0, 0], [0, 0, 0]), ((1.0, 0, 0),))
    assert ScenarioSpec(name="x", agents=(agent,), control_dt=0.3,
                        sim_dt=0.1).substeps == 3
    dt = 1.0 / MAX_SUBSTEPS_PER_TICK
    assert ScenarioSpec(name="x", agents=(agent,), sim_dt=dt).substeps == \
        MAX_SUBSTEPS_PER_TICK
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", agents=(agent,),
                     sim_dt=1.0 / (MAX_SUBSTEPS_PER_TICK + 1))


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
    records = [TickRecord(t=float(i * dt), agent=0,
                          pos=np.asarray(p, dtype=float),
                          vel=np.zeros(3), u_des=np.asarray(u, dtype=float),
                          u=np.asarray(u, dtype=float), rta_active=False,
                          slack_pos=0.0, slack_vel=0.0, slack_acc=0.0,
                          slack_u=np.zeros(3), dist_goal=0.0)
               for i, (p, u) in enumerate(zip(positions, thrusts))]
    return TrajectoryLog(records=records, n_agents=1, control_dt=dt, mass=mass,
                         waypoints_assigned=[1], targets_reached=[0],
                         completion_times=[None])


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


def test_no_interaction_without_rta():
    # Each agent's standoff trajectory must match its solo run: with the
    # filter off and peer-blind controllers nothing couples the agents.
    standoff = three_agent_standoff(rta_enabled=False)
    _, joint = run(standoff)
    for k, agent in enumerate(standoff.agents):
        solo_spec = ScenarioSpec(name="solo", agents=(agent,),
                                 rta_enabled=False,
                                 control_dt=standoff.control_dt,
                                 sim_dt=standoff.sim_dt,
                                 acceptance_radius=standoff.acceptance_radius,
                                 leg_timeout=standoff.leg_timeout)
        _, solo = run(solo_spec)
        joint_recs = joint.agent_records(k)
        solo_recs = solo.agent_records(0)
        for jr, sr in zip(joint_recs, solo_recs):
            np.testing.assert_allclose(jr.pos, sr.pos, rtol=0, atol=1e-9)
            np.testing.assert_allclose(jr.vel, sr.vel, rtol=0, atol=1e-9)


def test_standoff_without_rta_has_designed_conflicts():
    _, log = run(three_agent_standoff(rta_enabled=False))
    mins = {k: min(d for _, d in v) for k, v in pair_distances(log).items()}
    assert min(mins.values()) < 50.0


def test_standoff_with_rta_keeps_safety_margins():
    report, log = run(three_agent_standoff(rta_enabled=True))
    assert report.aggregate.targets_reached == 8
    assert not report.timed_out
    for series in pair_distances(log).values():
        assert min(d for _, d in series) >= 0.9 * 50.0
    speeds = [float(np.linalg.norm(r.vel)) for r in log.records if r.t >= 30.0]
    assert max(speeds) <= 1.1 * 3.0


def test_halving_sim_dt_barely_moves_metrics():
    coarse, _ = run(single_agent_passes())
    spec = single_agent_passes()
    fine, _ = run(ScenarioSpec(name=spec.name, agents=spec.agents,
                               control_dt=spec.control_dt, sim_dt=0.05))
    for attr in ("time_taken", "distance_traveled", "delta_v"):
        a = getattr(coarse.aggregate, attr)
        b = getattr(fine.aggregate, attr)
        assert abs(a - b) <= 0.005 * max(abs(a), abs(b))


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


def test_crossing_times_catch_the_conflicts():
    _, log = run(three_agent_standoff(rta_enabled=False))
    crossings = crossing_times(log)
    assert len(crossings["0-1"]) >= 1
    assert min(d for _, d in crossings["0-1"]) < 50.0
    assert all(len(v) >= 1 for v in crossings.values())


def test_make_controller_choices(tmp_path):
    veh = default_vehicle()
    base = make_controller("baseline", veh)
    policy = MlpPolicy.initialize(np.random.default_rng(0))
    path = tmp_path / "p.json"
    save_policy(policy, path)
    pol = make_controller(f"policy:{path}", veh)
    from proxops.env import observe
    obs = observe(RelativeState([100.0, 0, 0], [0, 0, 0]), np.zeros(3))
    for ctrl in (base, pol):
        action = np.asarray(ctrl(obs), dtype=float)
        assert action.shape == (3,)
        assert np.all(np.abs(action) <= 1.0)
    with pytest.raises(ValueError):
        make_controller("mystery", veh)


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


def test_baseline_stats_honours_the_episode_time_budget():
    # Under the default 500 s budget all five trials arrive, 194.2 s on average.
    stats = baseline_stats(5, seed=1, cfg=EpisodeConfig(timeout=20.0))
    assert stats.mean_time <= 20.0
    assert stats.success_rate < 1.0
