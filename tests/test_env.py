import dataclasses

import numpy as np
import pytest

from proxops.dynamics import ChiefOrbit, RelativeState, VehicleParams
from proxops.env import (
    DEFAULT_SAMPLE_HALF_EXTENT,
    DEFAULT_SCALE_VECTOR,
    GOAL_WEIGHT,
    SPEED_LIMIT_SLOPE,
    SPEED_PENALTY,
    EpisodeConfig,
    TRAINING_ACCEPTANCE_RADIUS,
    Status,
    observe,
    reward,
    run_episodes,
    sample_episodes,
    step,
)
from proxops.policy import baseline_act

ORBIT = ChiefOrbit()
VEH = VehicleParams()


def test_sampled_episodes_start_at_rest_inside_the_scaled_box():
    rng = np.random.default_rng(0)
    extents = np.array(DEFAULT_SCALE_VECTOR) * DEFAULT_SAMPLE_HALF_EXTENT
    states, goals = sample_episodes(rng, 1000)
    assert states.shape == (1000, 6) and goals.shape == (1000, 3)
    assert np.array_equal(states[:, 3:], np.zeros((1000, 3)))
    starts = states[:, :3]
    assert np.all(np.abs(starts) <= extents)
    assert np.all(np.abs(goals) <= extents)
    # Sampling oracle: uniform over the box, so means sit near zero and the
    # extremes approach the box edges.
    assert np.all(np.abs(starts.mean(axis=0)) < 0.1 * extents)
    assert np.all(np.abs(goals.mean(axis=0)) < 0.1 * extents)
    assert np.all(np.abs(starts).max(axis=0) > 0.9 * extents)


@pytest.mark.parametrize("n", [0, 1, 3, 16])
def test_sample_episodes_draws_episode_by_episode(n):
    # Training stays byte-identical only if one call for n episodes draws the
    # doubles of n one-episode calls, start then goal, and no more.
    scale = np.array(DEFAULT_SCALE_VECTOR)
    ext = DEFAULT_SAMPLE_HALF_EXTENT
    at_once, one_by_one, by_hand = (np.random.default_rng(7) for _ in range(3))
    starts, goals = sample_episodes(at_once, n)
    singles = [sample_episodes(one_by_one, 1) for _ in range(n)]
    pairs = [(scale * by_hand.uniform(-ext, ext, 3), scale * by_hand.uniform(-ext, ext, 3))
             for _ in range(n)]
    assert starts.shape == (n, 6) and goals.shape == (n, 3)
    for k in range(n):
        assert np.array_equal(starts[k], singles[k][0][0])
        assert np.array_equal(goals[k], singles[k][1][0])
        assert np.array_equal(starts[k], np.concatenate([pairs[k][0], np.zeros(3)]))
        assert np.array_equal(goals[k], pairs[k][1])
    state = at_once.bit_generator.state
    assert state == one_by_one.bit_generator.state == by_hand.bit_generator.state
    if n == 0:
        assert state == np.random.default_rng(7).bit_generator.state


def test_observation_is_zero_at_the_goal():
    obs = observe(np.array([50.0, -20.0, 5.0, 0, 0, 0]), [50.0, -20.0, 5.0])
    assert obs.shape == (6,)
    assert np.array_equal(obs, np.zeros(6))


def test_observation_scales_position_by_1000():
    obs = observe(np.array([1000.0, 0.0, 0.0, 0.5, 0.0, 0.0]), [0.0, 0.0, 0.0])
    np.testing.assert_allclose(obs, [1.0, 0.0, 0.0, 0.5, 0.0, 0.0], atol=0)


def test_observing_a_stack_observes_each_row_in_a_new_array():
    rng = np.random.default_rng(3)
    states = rng.uniform(-500, 500, (7, 6))
    goals = rng.uniform(-500, 500, (7, 3))
    obs = observe(states, goals)
    assert obs.shape == (7, 6)
    assert not np.shares_memory(obs, states) and not np.shares_memory(obs, goals)
    for k in range(7):
        assert np.array_equal(obs[k], observe(states[k], goals[k]))


def test_a_controller_writing_its_observation_leaves_the_run_unchanged():
    starts, goals = sample_episodes(np.random.default_rng(5), 8)

    def scribbler(obs):
        action = baseline_act(obs)
        obs[...] = 0.0
        return action

    cfg = EpisodeConfig()
    clean = run_episodes(baseline_act, starts, goals, cfg, ORBIT, VEH)
    dirty = run_episodes(scribbler, starts, goals, cfg, ORBIT, VEH)
    assert np.array_equal(dirty.status, clean.status)
    assert np.array_equal(dirty.elapsed, clean.elapsed)
    assert np.array_equal(dirty.final, clean.final)
    assert np.array_equal(dirty.path_length, clean.path_length)
    assert np.abs(clean.final[:, 3:]).max() > 0.0  # a write into the states would show


def test_reward_at_goal_with_zero_velocity():
    value = reward([0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0])
    assert value == pytest.approx(1e-3, abs=1e-12)


def test_reward_one_meter_of_progress():
    goal = np.zeros(3)
    value = reward([100.0, 0, 0], [101.0, 0, 0], [0.1, 0, 0], goal)
    assert value == pytest.approx(0.01000990099009901, abs=1e-12)


def test_reward_speeding_near_the_goal_is_penalized():
    goal = np.zeros(3)
    value = reward([1.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], goal)
    assert value == pytest.approx(-0.0195, abs=1e-12)


def test_reward_proximity_term_is_bounded_by_its_weight():
    rng = np.random.default_rng(4)
    for _ in range(200):
        pos = rng.uniform(-500, 500, 3)
        goal = rng.uniform(-500, 500, 3)
        value = reward(pos, pos, np.zeros(3), goal)
        assert 0.0 < value <= GOAL_WEIGHT


def test_reward_progress_term_is_antisymmetric():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = rng.uniform(-400, 400, 3)
        b = rng.uniform(-400, 400, 3)
        goal = rng.uniform(-400, 400, 3)
        fwd = reward(b, a, np.zeros(3), goal) - reward(b, b, np.zeros(3), goal)
        rev = reward(a, b, np.zeros(3), goal) - reward(a, a, np.zeros(3), goal)
        assert fwd == pytest.approx(-rev, abs=1e-12)


def test_speed_penalty_threshold_is_strict():
    goal = np.zeros(3)
    d = 10.0
    limit = SPEED_LIMIT_SLOPE * d
    at_limit = reward([d, 0, 0], [d, 0, 0], [limit, 0, 0], goal)
    above = reward([d, 0, 0], [d, 0, 0], [limit + 1e-9, 0, 0], goal)
    assert at_limit == pytest.approx(GOAL_WEIGHT / (d + 1.0), abs=1e-15)
    assert above < at_limit - SPEED_PENALTY * limit * 0.9


def test_step_clamps_actions_to_the_unit_box():
    cfg = EpisodeConfig()
    goal = [400.0, 0, 0]
    state = RelativeState([0, 0, 0], [0, 0, 0])
    big = step(state, [10.0, -7.0, 3.0], goal, cfg, ORBIT, VEH, 0.0)
    unit = step(state, [1.0, -1.0, 1.0], goal, cfg, ORBIT, VEH, 0.0)
    np.testing.assert_array_equal(big.state.as_vector(), unit.state.as_vector())


def test_step_termination_statuses():
    cfg = EpisodeConfig()
    # arrival
    out = step(RelativeState([4.0, 0, 0], [0, 0, 0]), [0, 0, 0], [5.0, 0, 0], cfg, ORBIT, VEH, 0.0)
    assert out.status is Status.REACHED
    # out of bounds
    far = [0.0, 0, 0]
    out = step(RelativeState([561.7, 0, 0], [0, 0, 0]), [0, 0, 0], far, cfg, ORBIT, VEH, 0.0)
    assert out.status is Status.OUT_OF_BOUNDS
    # timeout: elapsed + dt crosses the budget
    out = step(RelativeState([100.0, 0, 0], [0, 0, 0]), [0, 0, 0], far, cfg, ORBIT, VEH, 499.5)
    assert out.status is Status.TIMEOUT
    # still running just before the budget
    out = step(RelativeState([100.0, 0, 0], [0, 0, 0]), [0, 0, 0], far, cfg, ORBIT, VEH, 498.0)
    assert out.status is Status.RUNNING


def test_step_reads_the_time_budget_from_the_config():
    cfg = EpisodeConfig(timeout=100.0)
    state = RelativeState([100.0, 0, 0], [0, 0, 0])
    assert step(state, [0, 0, 0], [0.0, 0, 0], cfg, ORBIT, VEH, 99.5).status is Status.TIMEOUT
    assert step(state, [0, 0, 0], [0.0, 0, 0], cfg, ORBIT, VEH, 98.0).status is Status.RUNNING


def test_reached_takes_precedence_over_other_terminations():
    cfg = EpisodeConfig()
    # goal outside the allowed box: landing next to it is still an arrival
    out = step(RelativeState([599.0, 0, 0], [0, 0, 0]), [0, 0, 0], [600.0, 0, 0], cfg, ORBIT,
               VEH, 499.5)
    assert out.status is Status.REACHED


def test_zero_thrust_never_reaches_a_sampled_goal():
    # Drift alone should not complete episodes; arrival requires control
    # unless the start is sampled inside the acceptance ball.
    cfg = EpisodeConfig()
    starts, goals = sample_episodes(np.random.default_rng(21), 25)
    coast = lambda obs: np.zeros_like(obs[..., 3:])
    res = run_episodes(coast, starts, goals, cfg, ORBIT, VEH)
    for start, goal, status in zip(starts, goals, res.status):
        started_inside = np.linalg.norm(start[:3] - goal) < TRAINING_ACCEPTANCE_RADIUS
        if not started_inside:
            assert status != Status.REACHED


def test_config_validation():
    with pytest.raises(ValueError):
        EpisodeConfig(dt=0.0)
    with pytest.raises(ValueError):
        EpisodeConfig(timeout=0.0)
    with pytest.raises(ValueError):
        step(RelativeState([0, 0, 0], [0, 0, 0]), [0, 0, 0], [0, 0], EpisodeConfig(),
             ORBIT, VEH, 0.0)


@pytest.mark.parametrize("field", ["dt", "timeout"])
def test_a_checked_config_cannot_be_changed(field):
    # a budget set to NaN afterwards would never end a deputy coasting in the box
    cfg = EpisodeConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, float("nan"))
    assert (cfg.dt, cfg.timeout) == (1.0, 500.0)


@pytest.mark.parametrize("field", ["dt", "timeout"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_times(field, value):
    # an infinite budget would never end an episode that stays in the box
    with pytest.raises(ValueError, match="finite"):
        EpisodeConfig(**{field: value})
