import json

import numpy as np
import pytest

from proxops.dynamics import ChiefOrbit, VehicleParams
from proxops.env import (
    SPEED_LIMIT_SLOPE,
    EpisodeConfig,
    Status,
    observe,
    run_episodes,
    sample_episodes,
)
from proxops.policy import (
    BASELINE_KV,
    BASELINE_SPEED_CAP,
    MlpPolicy,
    PolicyFileError,
    UnsupportedPolicyVersion,
    baseline_act,
    load_policy,
    mlp_forward,
    policy_act,
    save_policy,
)

ORBIT = ChiefOrbit()
VEH = VehicleParams()


def test_baseline_is_quiet_at_the_goal():
    obs = np.zeros(6)
    assert np.array_equal(baseline_act(obs), np.zeros(3))


def test_baseline_pushes_toward_the_goal():
    # goal 200 m in +x, at rest: thrust must point along +x only
    obs = observe(np.zeros(6), [200.0, 0.0, 0.0])
    action = baseline_act(obs)
    assert action[0] > 0.0
    assert action[1] == 0.0 and action[2] == 0.0


def test_baseline_brakes_excess_velocity():
    obs = np.array([0.0, 0.0, 0.0, 2.0, 0.0, 0.0])
    action = baseline_act(obs)
    assert action[0] < 0.0


def test_baseline_actions_stay_in_the_unit_box():
    rng = np.random.default_rng(13)
    for _ in range(200):
        obs = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-10, 10, 3)])
        action = baseline_act(obs)
        assert np.all(np.abs(action) <= 1.0)


def test_baseline_commanded_speed_respects_the_reward_limit():
    for dist in (5.0, 20.0, 100.0, 700.0):
        obs = observe(np.array([dist, 0, 0, 0, 0, 0]), [0.0, 0.0, 0.0])
        # recover the commanded velocity from the proportional term
        action = baseline_act(obs)
        vel_des = action / BASELINE_KV  # at rest, action = kv * vel_des (mass 1)
        limit = SPEED_LIMIT_SLOPE * dist
        assert np.linalg.norm(vel_des) <= min(limit, BASELINE_SPEED_CAP) + 1e-9


def test_baseline_reaches_sampled_waypoints_within_the_budget():
    cfg = EpisodeConfig()
    starts, goals = sample_episodes(np.random.default_rng(2), 50)
    res = run_episodes(baseline_act, starts, goals, cfg, ORBIT, VEH)
    assert res.status.tolist() == [Status.REACHED] * 50
    assert np.all(res.elapsed <= cfg.timeout)


def test_zero_network_gives_zero_action():
    policy = MlpPolicy([np.zeros((4, 6)), np.zeros((3, 4))],
                       [np.zeros(4), np.zeros(3)])
    obs = np.array([0.3, -0.2, 0.1, 1.0, 0.0, -2.0])
    assert np.array_equal(policy_act(policy, obs), np.zeros(3))


def test_policy_act_is_deterministic_without_rng():
    rng = np.random.default_rng(8)
    policy = MlpPolicy.initialize(rng)
    obs = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-3, 3, 3)])
    first = policy_act(policy, obs)
    second = policy_act(policy, obs)
    assert np.array_equal(first, second)


def test_policy_actions_stay_in_the_open_unit_box():
    rng = np.random.default_rng(17)
    policy = MlpPolicy.initialize(rng)
    for _ in range(200):
        obs = np.concatenate([rng.uniform(-2, 2, 3), rng.uniform(-10, 10, 3)])
        action = policy_act(policy, obs)
        assert np.all(np.abs(action) < 1.0)


@pytest.mark.parametrize("shape", [(64, 6), (5, 1, 6)])
def test_mlp_forward_is_the_plain_layer_formula_and_writes_no_input(shape):
    rng = np.random.default_rng(21)
    policy = MlpPolicy.initialize(rng)
    x = rng.uniform(-1, 1, shape)
    inputs = [x, *policy.weights, *policy.biases]
    before = [a.copy() for a in inputs]
    out, hs = mlp_forward(policy.weights, policy.biases, x)
    for a, b in zip(inputs, before):
        np.testing.assert_array_equal(a, b)
    assert hs[0] is x
    assert len(hs) == len(policy.weights)
    for k, (w, b) in enumerate(zip(policy.weights, policy.biases)):
        expected = hs[k] @ w.T + b
        if k + 1 < len(hs):
            expected = np.tanh(expected)
            assert not any(np.shares_memory(hs[k + 1], a) for a in [*inputs, *hs[:k + 1]])
            np.testing.assert_array_equal(hs[k + 1], expected)
    np.testing.assert_array_equal(out, expected)
    assert not any(np.shares_memory(out, a) for a in [*inputs, *hs])


def test_policy_rejects_wrong_observation_size():
    rng = np.random.default_rng(3)
    policy = MlpPolicy.initialize(rng, layer_dims=(4, 8, 3))
    obs = np.zeros(6)
    with pytest.raises(ValueError):
        policy_act(policy, obs)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    policy = MlpPolicy.initialize(rng)
    path = tmp_path / "policy.json"
    save_policy(policy, path)
    loaded = load_policy(path)
    assert loaded.layer_dims == policy.layer_dims
    obs = np.array([0.25, -0.5, 0.75, 1.5, -0.5, 0.0])
    assert np.array_equal(policy_act(loaded, obs), policy_act(policy, obs))
    assert np.array_equal(loaded.log_std, policy.log_std)


def test_truncated_policy_file_raises(tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "policy.json"
    save_policy(MlpPolicy.initialize(rng), path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(PolicyFileError):
        load_policy(path)


def test_unsupported_version_raises(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "policy.json"
    save_policy(MlpPolicy.initialize(rng), path)
    payload = json.loads(path.read_text())
    payload["version"] = 999
    path.write_text(json.dumps(payload))
    with pytest.raises(UnsupportedPolicyVersion):
        load_policy(path)


def test_wrong_format_raises(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(PolicyFileError):
        load_policy(path)


@pytest.mark.parametrize("dims", [(4, 8, 3), (6, 8, 2)])
def test_policy_file_must_map_6_inputs_to_3_outputs(tmp_path, dims):
    path = tmp_path / "policy.json"
    save_policy(MlpPolicy.initialize(np.random.default_rng(0), layer_dims=dims), path)
    with pytest.raises(PolicyFileError, match="not 6 to 3"):
        load_policy(path)
    save_policy(MlpPolicy.initialize(np.random.default_rng(0), layer_dims=(6, 8, 8, 3)), path)
    assert load_policy(path).layer_dims == (6, 8, 8, 3)


@pytest.mark.parametrize("field, keep, message", [("biases", -1, "layer count"),
                                                   ("log_std", 2, "log_std")])
def test_inconsistent_policy_file_raises(tmp_path, field, keep, message):
    # one bias vector fewer than layers, or two log_std entries for three outputs
    path = tmp_path / "p.json"
    save_policy(MlpPolicy.initialize(np.random.default_rng(0)), path)
    payload = json.loads(path.read_text())
    payload[field] = payload[field][:keep]
    path.write_text(json.dumps(payload))
    with pytest.raises(PolicyFileError, match=message):
        load_policy(path)


def test_layer_shape_validation():
    with pytest.raises(ValueError):
        MlpPolicy([np.zeros((4, 6)), np.zeros((3, 5))], [np.zeros(4), np.zeros(3)])
    with pytest.raises(ValueError):
        MlpPolicy([np.zeros((4, 6))], [np.zeros(3)])


def test_save_policy_rejects_non_finite_weights_before_writing(tmp_path):
    policy = MlpPolicy.initialize(np.random.default_rng(0))
    policy.weights[0][0, 0] = np.nan
    path = tmp_path / "p.json"
    with pytest.raises(ValueError):
        save_policy(policy, path)
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_policy_rejects_non_finite_parameters(bad):
    policy = MlpPolicy.initialize(np.random.default_rng(0))
    biases = [b.copy() for b in policy.biases]
    biases[0][0] = bad
    with pytest.raises(ValueError, match="finite"):
        MlpPolicy(policy.weights, biases, policy.log_std)
    with pytest.raises(ValueError, match="finite"):
        MlpPolicy(policy.weights, policy.biases, [0.0, bad, 0.0])


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_load_policy_rejects_non_finite_parameters(tmp_path, token):
    # json reads NaN and Infinity, which save_policy never writes
    path = tmp_path / "p.json"
    save_policy(MlpPolicy.initialize(np.random.default_rng(0)), path)
    payload = json.loads(path.read_text())
    payload["biases"][0][0] = "BAD"
    path.write_text(json.dumps(payload).replace('"BAD"', token))
    with pytest.raises(PolicyFileError, match="finite"):
        load_policy(path)


@pytest.mark.parametrize("content", [
    pytest.param(b'{"format": "\xe9"}\n', id="not-utf8"),
    pytest.param(b"[" * 2000 + b"]" * 2000, id="nested-2000-deep"),
])
def test_unreadable_policy_json_raises_policy_file_error(tmp_path, content):
    path = tmp_path / "p.json"
    path.write_bytes(content)
    with pytest.raises(PolicyFileError, match="cannot parse"):
        load_policy(path)


@pytest.mark.parametrize("dims", [[6, -1, 3], [6, 8, -1], [6, 0, 3], [6, True, 3], [6, 8.0, 3]])
def test_load_policy_rejects_layer_dims_that_are_not_positive_integers(tmp_path, dims):
    # numpy's reshape would infer a -1 from the weights and load a 6-8-3 network
    path = tmp_path / "p.json"
    save_policy(MlpPolicy.initialize(np.random.default_rng(0), layer_dims=(6, 8, 3)), path)
    payload = json.loads(path.read_text())
    payload["layer_dims"] = dims
    path.write_text(json.dumps(payload))
    with pytest.raises(PolicyFileError, match="positive integers"):
        load_policy(path)
