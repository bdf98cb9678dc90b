"""The lock-step episode loop against one-episode stepping, and golden outputs."""

import numpy as np
import pytest

from proxops import env
from proxops.dynamics import (
    ChiefOrbit,
    PropagationError,
    RelativeState,
    VehicleParams,
    propagate_cwh_zoh,
)
from proxops.env import (
    SPEED_LIMIT_SLOPE,
    EpisodeConfig,
    Status,
    observe,
    reward,
    run_episodes,
    sample_episodes,
    step,
    step_batch,
)
from proxops.harness import baseline_stats
from proxops.policy import MlpPolicy, baseline_act, policy_act
from proxops.training import evaluate_policy

ORBIT = ChiefOrbit()
VEH = VehicleParams()


def small_policy() -> MlpPolicy:
    """A fixed 6-6-3 network acting roughly like a PD law: over the sampled
    episodes of seed 1 some reach the goal, most leave the box, one times out."""
    rng = np.random.default_rng(5)
    w1 = 0.5 * np.eye(6) + 0.01 * rng.standard_normal((6, 6))
    w2 = np.hstack([-10.0 * np.eye(3), -1.0 * np.eye(3)]) + 0.01 * rng.standard_normal((3, 6))
    return MlpPolicy([w1, w2], [np.zeros(6), np.zeros(3)])


def plain_episode(controller, start, goal, cfg):
    """One episode stepped with env.step: (status, elapsed, final state, path)."""
    state = RelativeState.from_vector(start)
    obs = observe(start, goal)
    elapsed = path = 0.0
    while True:
        out = step(state, controller(obs), goal, cfg, ORBIT, VEH, elapsed)
        path += float(np.linalg.norm(out.state.pos - state.pos))
        state, obs = out.state, out.obs
        elapsed += cfg.dt
        if out.status is not Status.RUNNING:
            return out.status, elapsed, state.as_vector(), path


POLICY = small_policy()
CONTROLLERS = {
    "baseline": lambda obs: baseline_act(obs),
    "policy": lambda obs: policy_act(POLICY, obs),
}


# Each id names the controller, the config, the arrival radius and the time budget.
@pytest.mark.parametrize("name, cfg", [
    pytest.param("baseline", EpisodeConfig(), id="baseline-cfg0-10.0-500.0"),
    pytest.param("baseline", EpisodeConfig(timeout=120.0), id="baseline-cfg1-10.0-120.0"),
    pytest.param("baseline", EpisodeConfig(dt=2.0), id="baseline-cfg2-10.0-500.0"),
    pytest.param("policy", EpisodeConfig(), id="policy-cfg3-10.0-500.0"),
])
def test_each_episode_matches_a_plain_step_loop(name, cfg):
    controller = CONTROLLERS[name]
    starts, goals = sample_episodes(np.random.default_rng(1), 20)
    res = run_episodes(controller, starts, goals, cfg, ORBIT, VEH)
    assert res.status.dtype == np.int64
    for k in range(len(starts)):
        status, elapsed, final, path = plain_episode(controller, starts[k], goals[k], cfg)
        assert res.status[k] == status
        assert res.elapsed[k] == elapsed
        assert np.array_equal(res.final[k], final)
        assert res.path_length[k] == path


def test_the_compared_batches_cover_every_ending():
    seen = set()
    for name, timeout in (("baseline", 120.0), ("policy", 500.0)):
        cfg = EpisodeConfig(timeout=timeout)
        starts, goals = sample_episodes(np.random.default_rng(1), 20)
        seen |= set(run_episodes(CONTROLLERS[name], starts, goals, cfg, ORBIT, VEH).status.tolist())
    assert seen == {Status.REACHED, Status.OUT_OF_BOUNDS, Status.TIMEOUT}


def test_termination_precedence_within_one_tick():
    # One tick that is also the last: row 0 lands inside the acceptance ball
    # of a goal outside the box, row 1 is outside the box, row 2 only runs
    # out of time.
    starts = np.array([[599.0, 0, 0, 0, 0, 0],
                       [700.0, 0, 0, 0, 0, 0],
                       [0.0, 0, 0, 0, 0, 0]])
    goals = np.array([[600.0, 0, 0], [0.0, 0, 0], [300.0, 0, 0]])
    coast = lambda obs: np.zeros_like(obs[..., 3:])
    cfg = EpisodeConfig(timeout=1.0)
    res = run_episodes(coast, starts, goals, cfg, ORBIT, VEH)
    assert res.status.tolist() == [Status.REACHED, Status.OUT_OF_BOUNDS, Status.TIMEOUT]
    assert np.array_equal(res.elapsed, [1.0, 1.0, 1.0])
    for k in range(3):
        assert res.status[k] == plain_episode(coast, starts[k], goals[k], cfg)[0]


def test_no_episodes_never_call_the_controller():
    def controller(obs):
        raise AssertionError("called")
    res = run_episodes(controller, np.empty((0, 6)), np.empty((0, 3)),
                       EpisodeConfig(), ORBIT, VEH)
    assert res.status.shape == (0,)
    assert res.elapsed.shape == (0,) and res.final.shape == (0, 6)
    assert evaluate_policy(POLICY, 0) == (0.0, pytest.approx(float("nan"), nan_ok=True))


def test_evaluate_without_arrivals_gives_finite_zeros():
    # a zero network commands zero thrust, so no sampled episode arrives
    zero = MlpPolicy([np.zeros((3, 6))], [np.zeros(3)])
    coast = lambda obs: np.zeros_like(obs[..., 3:])
    stats = env.evaluate(coast, 12, seed=4)
    assert stats.as_dict() == {"n_trials": 12, "success_rate": 0.0, "mean_time": 0.0,
                               "sd_time": 0.0, "mean_distance": 0.0, "sd_distance": 0.0,
                               "mean_excess": 0.0}
    assert env.evaluate(lambda obs: policy_act(zero, obs), 12, seed=4) == stats
    rate, mean_time = evaluate_policy(zero, 12, seed=4)
    assert rate == 0.0 and np.isnan(mean_time)


@pytest.mark.parametrize("n, seed", [(0, 0), (1, 2), (7, 3)])
def test_baseline_stats_are_the_evaluation_of_the_pd_controller(n, seed):
    assert baseline_stats(n, seed) == env.evaluate(baseline_act, n, seed)


def test_negative_episode_counts_raise():
    for evaluation in (lambda n: env.evaluate(baseline_act, n), baseline_stats,
                       lambda n: evaluate_policy(POLICY, n)):
        with pytest.raises(ValueError, match="nonnegative"):
            evaluation(-1)


def test_policy_with_wrong_input_width_raises():
    policy = MlpPolicy.initialize(np.random.default_rng(0), layer_dims=(4, 8, 3))
    with pytest.raises(ValueError):
        evaluate_policy(policy, 3)


def test_stacked_controllers_match_one_row_calls():
    rng = np.random.default_rng(2)
    delta = rng.uniform(-1, 1, (64, 3))
    delta[0] = 0.0            # at the goal
    delta[1] = [0.0, -0.0, 1e-3]
    vel = rng.uniform(-5, 5, (64, 3))
    obs = np.concatenate([delta, vel], axis=1)
    stacked_pd = baseline_act(obs)
    stacked_mlp = policy_act(POLICY, obs)
    for k in range(64):
        one = obs[k]
        assert np.array_equal(stacked_pd[k], baseline_act(one))
        assert np.array_equal(stacked_mlp[k], policy_act(POLICY, one))


@pytest.mark.parametrize("ticks", [1, 10])
def test_batched_propagation_matches_each_row(ticks):
    rng = np.random.default_rng(3)
    states = rng.uniform(-500, 500, (16, 6))
    thrust = rng.uniform(-1, 1, (16, 3))
    got = states
    for _ in range(ticks):
        got = propagate_cwh_zoh(got, thrust, 1.0, ORBIT, VEH)
    for k in range(16):
        alone, single = states[k], states[k:k + 1]
        for _ in range(ticks):
            alone = propagate_cwh_zoh(alone, thrust[k], 1.0, ORBIT, VEH)
            single = propagate_cwh_zoh(single, thrust[k:k + 1], 1.0, ORBIT, VEH)
        assert np.array_equal(got[k], alone)
        assert np.array_equal(got[k], single[0])
    with pytest.raises(PropagationError):
        propagate_cwh_zoh(states, np.full((16, 3), 1e308), 10.0, ORBIT, VEH)


def test_step_batch_rows_equal_one_row_steps():
    rng = np.random.default_rng(4)
    cfg = EpisodeConfig(timeout=100.0)
    states = np.zeros((32, 6))
    states[:, :3] = rng.uniform(-600, 600, (32, 3))
    states[:, 3:] = rng.uniform(-3, 3, (32, 3))
    goals = states[:, :3] + rng.uniform(-20, 20, (32, 3))
    actions = rng.uniform(-1.5, 1.5, (32, 3))
    elapsed = rng.choice([0.0, 98.0, 99.5], 32)
    nxt, rewards, status = step_batch(states, goals, actions, elapsed, cfg, ORBIT, VEH)
    assert set(status.tolist()) == set(Status)
    for k in range(32):
        out = step(RelativeState.from_vector(states[k]), actions[k], goals[k], cfg,
                   ORBIT, VEH, elapsed[k])
        assert np.array_equal(nxt[k], out.state.as_vector())
        assert rewards[k] == out.reward
        assert status[k] == out.status


def test_step_batch_rewards_are_the_reward_formula_and_codes_are_statuses():
    rng = np.random.default_rng(6)
    cfg = EpisodeConfig(timeout=100.0)
    states = np.zeros((40, 6))
    states[:, :3] = rng.uniform(-600, 600, (40, 3))
    states[:, 3:] = rng.uniform(-3, 3, (40, 3))
    goals = states[:, :3] + rng.uniform(-20, 20, (40, 3))
    actions = rng.uniform(-1.5, 1.5, (40, 3))
    elapsed = rng.choice([0.0, 98.0, 99.5], 40)
    coast = propagate_cwh_zoh(states, np.zeros((40, 3)), cfg.dt, ORBIT, VEH)
    actions[:8] = 0.0
    goals[:2] = coast[:2, :3]      # the step ends at the goal
    goals[2] = states[2, :3]       # the step starts at the goal
    # steps ending at the speed limit, give or take the last bits of rounding
    speeds = np.linalg.norm(coast[3:8, 3:], axis=1) / SPEED_LIMIT_SLOPE
    goals[3:8] = coast[3:8, :3]
    goals[3:8, 0] += speeds * np.array([1.0, 1.0 + 1e-15, 1.0 - 1e-15, 1.0 + 1e-9, 1.0 - 1e-9])
    nxt, rewards, status = step_batch(states, goals, actions, elapsed, cfg, ORBIT, VEH)
    assert np.array_equal(nxt[:8], coast[:8])
    assert rewards.shape == (40,) and status.dtype == np.int64
    for k in range(40):
        assert rewards[k] == reward(nxt[k, :3], states[k, :3], nxt[k, 3:], goals[k])
    assert {Status(code) for code in status.tolist()} == set(Status)
    for member in Status:
        assert (status == member).any()


def test_run_episodes_computes_no_reward(monkeypatch):
    expected = baseline_stats(5)

    def refuse(*args):
        raise AssertionError("a reward was computed")

    monkeypatch.setattr(env, "shaped_reward", refuse)
    starts, goals = sample_episodes(np.random.default_rng(0), 2)
    with pytest.raises(AssertionError, match="reward"):  # step_batch calls the patched function
        step_batch(starts, goals, np.zeros((2, 3)), 0.0, EpisodeConfig(), ORBIT, VEH)
    assert baseline_stats(5) == expected


@pytest.mark.parametrize("bad", ["state", "thrust"])
def test_non_finite_step_inputs_raise(bad):
    states = np.zeros((3, 6))
    thrust = np.zeros((3, 3))
    (states if bad == "state" else thrust)[1, 2] = np.inf if bad == "thrust" else np.nan
    with pytest.raises(PropagationError):
        propagate_cwh_zoh(states, thrust, 1.0, ORBIT, VEH)


# Outputs of the exact zero-order-hold step, to the last bit.
BASELINE_GOLDEN = {
    0: {"n_trials": 50, "success_rate": 1.0, "mean_time": 147.92,
        "sd_time": 53.26707448780903, "mean_distance": 468.6268966847228,
        "sd_distance": 213.0732676931716, "mean_excess": -0.02524305349462706},
    3: {"n_trials": 50, "success_rate": 1.0, "mean_time": 147.92,
        "sd_time": 58.674070342973856, "mean_distance": 468.28091084424153,
        "sd_distance": 235.27016795108278, "mean_excess": -0.026469562356332018},
    4: {"n_trials": 50, "success_rate": 1.0, "mean_time": 166.46,
        "sd_time": 64.02015307698038, "mean_distance": 542.3505944805057,
        "sd_distance": 256.5858693097611, "mean_excess": -0.023261598156407003},
}

# The same statistics from one-substep RK4 steps, before the exact map.
BASELINE_RK4 = {
    0: {"n_trials": 50, "success_rate": 1.0, "mean_time": 147.92,
        "sd_time": 53.26707448780903, "mean_distance": 468.62689668472444,
        "sd_distance": 213.07326769317174, "mean_excess": -0.02524305349462317},
    3: {"n_trials": 50, "success_rate": 1.0, "mean_time": 147.92,
        "sd_time": 58.674070342973856, "mean_distance": 468.2809108442432,
        "sd_distance": 235.27016795108295, "mean_excess": -0.02646956235632775},
    4: {"n_trials": 50, "success_rate": 1.0, "mean_time": 166.46,
        "sd_time": 64.02015307698038, "mean_distance": 542.3505944805073,
        "sd_distance": 256.5858693097612, "mean_excess": -0.02326159815640337},
}


@pytest.mark.parametrize("seed", sorted(BASELINE_GOLDEN))
def test_baseline_stats_golden(seed):
    assert baseline_stats(50, seed=seed).as_dict() == BASELINE_GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(BASELINE_RK4))
def test_baseline_stats_agree_with_rk4_steps(seed):
    new, old = BASELINE_GOLDEN[seed], BASELINE_RK4[seed]
    for key in ("n_trials", "success_rate", "mean_time", "sd_time"):
        assert new[key] == old[key]
    for key in ("mean_distance", "sd_distance", "mean_excess"):
        assert new[key] == pytest.approx(old[key], rel=1e-9, abs=0)


def test_evaluate_policy_golden():
    # unchanged from one-substep RK4 steps, to the last bit
    assert evaluate_policy(small_policy(), 20, seed=1) == (0.15, 294.6666666666667)
