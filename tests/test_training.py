import contextlib
import itertools
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from proxops import training
from proxops.dynamics import ChiefOrbit, VehicleParams
from proxops.env import EpisodeConfig, RelativeState, Status, observe, step
from proxops.policy import MlpPolicy, init_layers, load_policy, save_policy
from proxops.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    _clip_grad,
    CurvePoint,
    N_STREAMS,
    TrainerConfig,
    TrainingDivergence,
    curve_rows,
    evaluate_policy,
    gae,
    gaussian_logp,
    surrogate_loss_and_grad,
    train,
    value_loss_and_grad,
)


def test_gaussian_logp_standard_normal():
    z = np.array([[0.7, -0.3, 0.0]])
    expected = float(-0.5 * np.sum(z**2) - 1.5 * math.log(2 * math.pi))
    got = gaussian_logp(z, np.zeros((1, 3)), np.zeros(3))
    assert got[0] == pytest.approx(expected, rel=1e-12)


def _bandit_batch(policy, rng, n=24):
    """One-step bandit version of the env: fixed start, reward is the payoff;
    returns (obs, z, logp_old, adv).

    The stored old log-probs are offset so the importance ratios sit well
    away from the clip kinks on both sides.
    """
    orbit, veh = ChiefOrbit(), VehicleParams()
    cfg = EpisodeConfig()
    start = RelativeState([150.0, -80.0, 40.0], [0.0, 0.0, 0.0])
    goal = np.zeros(3)
    obs_vec = observe(start.as_vector(), goal)

    obs = np.tile(obs_vec, (n, 1))
    mean = policy.pre_squash(obs)
    z = mean + np.exp(policy.log_std) * rng.standard_normal((n, 3))
    rewards = np.array([
        step(start, np.tanh(zk), goal, cfg, orbit, veh, 0.0).reward for zk in z])
    adv = rewards - rewards.mean()
    offsets = rng.choice([-0.4, -0.05, 0.05, 0.4], size=n)
    logp_old = gaussian_logp(z, mean, policy.log_std) - np.log1p(offsets)
    return obs, z, logp_old, adv


def _check_gradient(loss_at, arrays, grads, eps=1e-6):
    """Central differences on a sample of each array's entries against ``grads``."""
    for arr, g in zip(arrays, grads):
        flat, gflat = arr.ravel(), g.ravel()
        assert np.shares_memory(flat, arr)
        for k in range(0, flat.size, max(1, flat.size // 8)):
            orig = flat[k]
            flat[k] = orig + eps
            lp = loss_at()
            flat[k] = orig - eps
            lm = loss_at()
            flat[k] = orig
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(gflat[k]), 1e-8)
            assert abs(fd - gflat[k]) / denom < 1e-4


def test_surrogate_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for trial in range(3):
        policy = MlpPolicy.initialize(rng, layer_dims=(6, 8, 8, 3))
        batch = _bandit_batch(policy, rng)
        params = (policy.weights, policy.biases, policy.log_std)
        scratch = policy.unflatten(np.empty_like(policy.params))
        g_w, g_b, g_log_std = grads = policy.unflatten(np.empty_like(policy.params))
        surrogate_loss_and_grad(params, *batch, grads)
        _check_gradient(lambda: surrogate_loss_and_grad(params, *batch, scratch),
                        [*policy.weights, *policy.biases, policy.log_std],
                        [*g_w, *g_b, g_log_std])


def test_value_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    weights, biases = params = init_layers(rng, (6, 8, 8, 1))
    obs = rng.uniform(-1, 1, (16, 6))
    target = rng.normal(size=16)

    def empty_like_params():
        return [np.empty_like(w) for w in weights], [np.empty_like(b) for b in biases]

    g_w, g_b = grads = empty_like_params()
    value_loss_and_grad(params, obs, target, grads)
    scratch = empty_like_params()
    _check_gradient(lambda: value_loss_and_grad(params, obs, target, scratch),
                    [*weights, *biases], [*g_w, *g_b])


def test_adam_first_step_is_signed_lr():
    p = np.array([1.0, -2.0])
    opt = Adam(p, lr=0.01)
    opt.step(p, np.array([0.5, -3.0]))
    np.testing.assert_allclose(p, [1.0 - 0.01, -2.0 + 0.01], atol=1e-9)


def test_folded_adam_matches_the_textbook_update():
    # Kingma & Ba 2015, Algorithm 1, with the bias-corrected moments spelled out;
    # a zero vector stepped each time receives the update itself
    rng = np.random.default_rng(9)
    n, lr = 64, 3e-4
    opt = Adam(np.zeros(n), lr)
    m, v = np.zeros(n), np.zeros(n)
    for t in range(1, 301):
        grad = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 3, n)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        update = np.zeros(n)
        opt.step(update, grad)
        np.testing.assert_allclose(update, -lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS),
                                   rtol=1e-12, atol=0.0)


def test_one_adam_over_a_concatenation_equals_one_adam_per_part():
    # so one Adam per network, each in its own process, trains as one joint Adam would
    rng = np.random.default_rng(6)
    joint = rng.normal(size=67)
    parts = [joint[:37].copy(), joint[37:].copy()]
    joint_opt = Adam(joint, lr=3e-4)
    part_opts = [Adam(part, lr=3e-4) for part in parts]
    for _ in range(30):
        grad = rng.normal(size=67) * 10.0 ** rng.uniform(-8, 3, 67)
        joint_opt.step(joint, grad)
        for part, opt, g in zip(parts, part_opts, (grad[:37], grad[37:])):
            opt.step(part, g)
    np.testing.assert_array_equal(joint, np.concatenate(parts))


def _clip_per_array(grads, max_norm):
    """Gradient clipping over a list of arrays, the rule the flat clip keeps."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    return [g * (max_norm / total) for g in grads] if total > max_norm else grads


@pytest.mark.parametrize("norm_fraction", [0.5, 2.0])
def test_flat_clipping_matches_per_array_clipping(norm_fraction):
    rng = np.random.default_rng(4)
    policy = MlpPolicy.initialize(rng, layer_dims=(6, 8, 8, 3))
    grad = np.empty_like(policy.params)
    g_w, g_b, g_log_std = grads = policy.unflatten(grad)
    surrogate_loss_and_grad((policy.weights, policy.biases, policy.log_std),
                            *_bandit_batch(policy, rng), grads)
    arrays = [*g_w, *g_b, g_log_std]
    assert all(np.shares_memory(a, grad) for a in arrays)
    max_norm = norm_fraction * math.sqrt(sum(float(np.sum(g * g)) for g in arrays))
    expected = np.concatenate([g.ravel() for g in _clip_per_array(arrays, max_norm)])
    _clip_grad(grad, max_norm)
    # one dot product sums the squares in another order than the per-array sums
    np.testing.assert_allclose(grad, expected, rtol=1e-14, atol=0.0)


def test_clipping_the_policy_segment_leaves_the_value_segment_unchanged():
    # each network's gradient is clipped alone, as two segments of one vector would be
    rng = np.random.default_rng(5)
    joint = rng.normal(size=500)
    n_pol, value_before = 300, joint[300:].copy()
    policy_norm = math.sqrt(float(np.sum(joint[:n_pol] ** 2)))
    _clip_grad(joint[:n_pol], 0.1 * policy_norm)
    np.testing.assert_array_equal(joint[n_pol:], value_before)
    assert math.sqrt(float(np.sum(joint[:n_pol] ** 2))) == pytest.approx(
        0.1 * policy_norm, rel=1e-14)


def test_policy_arrays_are_views_into_one_flat_vector():
    policy = MlpPolicy.initialize(np.random.default_rng(0), layer_dims=(6, 8, 8, 3))
    arrays = [*policy.weights, *policy.biases, policy.log_std]
    np.testing.assert_array_equal(
        policy.params, np.concatenate([a.ravel() for a in arrays]))
    policy.params[:] = np.arange(policy.params.size)
    assert policy.weights[0][0, 1] == 1.0
    assert policy.log_std[-1] == policy.params.size - 1


def _short_training(seed, init_policy=None):
    cfg = TrainerConfig(total_steps=1024, batch_size=512, seed=seed)
    return train(trainer_cfg=cfg, init_policy=init_policy)[0]


def test_train_leaves_init_policy_unchanged():
    start = MlpPolicy.initialize(np.random.default_rng(2))
    before = start.params.copy()
    trained = _short_training(1, init_policy=start)
    np.testing.assert_array_equal(start.params, before)
    assert not np.array_equal(trained.params, before)


def test_trained_policy_copy_and_file_round_trip_are_exact(tmp_path):
    trained = _short_training(3)
    save_policy(trained, tmp_path / "p.json")
    for other in (trained.copy(), load_policy(tmp_path / "p.json")):
        assert not np.shares_memory(other.params, trained.params)
        np.testing.assert_array_equal(other.params, trained.params)
        for a, b in zip([*other.weights, *other.biases, other.log_std],
                        [*trained.weights, *trained.biases, trained.log_std]):
            assert np.shares_memory(a, other.params)
            np.testing.assert_array_equal(a, b)


def test_zero_total_steps_returns_initial_policy_and_empty_curve():
    policy, curve = train(trainer_cfg=TrainerConfig(total_steps=0, seed=5))
    assert curve == []
    reference = MlpPolicy.initialize(np.random.default_rng(5))
    for a, b in zip(policy.weights, reference.weights):
        np.testing.assert_array_equal(a, b)


def test_identical_seeds_give_identical_curves():
    cfg = TrainerConfig(total_steps=2048, batch_size=512, seed=11)
    p1, c1 = train(trainer_cfg=cfg)
    p2, c2 = train(trainer_cfg=cfg)
    assert c1 == c2
    for a, b in zip(p1.weights, p2.weights):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(p1.log_std, p2.log_std)


def test_returns_improve_early():
    policy, curve = train(trainer_cfg=TrainerConfig(total_steps=30_000, seed=0))
    head = np.mean([p.mean_return for p in curve[:3]])
    tail = np.mean([p.mean_return for p in curve[-3:]])
    assert tail > head
    assert all(b.steps > a.steps for a, b in zip(curve, curve[1:]))
    for p in curve:
        assert math.isnan(p.success_rate) or 0.0 <= p.success_rate <= 1.0


def _scalar_gae(rewards, values, next_values, statuses, discount, lam):
    """One stream's advantages by the scalar recursion, as a plain loop."""
    adv, acc = [0.0] * len(rewards), 0.0
    for t in range(len(rewards) - 1, -1, -1):
        ended = statuses[t] is not Status.RUNNING
        bootstrap = 0.0 if ended and statuses[t] is not Status.TIMEOUT else 1.0
        delta = rewards[t] + discount * next_values[t] * bootstrap - values[t]
        acc = adv[t] = delta + (0.0 if ended else discount * lam) * acc
    return adv


@pytest.mark.parametrize("n", [60, 57])
def test_gae_runs_the_scalar_recursion_on_each_stream(n):
    # 12 ticks of 5 streams, tick-major; at n = 57 the last tick steps 2 streams
    rng = np.random.default_rng(8)
    ticks, streams = 12, 5
    rewards, values, next_values = rng.normal(size=(3, ticks, streams))
    statuses = np.full((ticks, streams), Status.RUNNING)
    statuses[3, 0] = Status.REACHED
    statuses[5, 1] = Status.OUT_OF_BOUNDS
    statuses[4, 2] = Status.TIMEOUT
    statuses[[2, 7], 3] = [Status.TIMEOUT, Status.REACHED]
    flat = [a.reshape(-1)[:n] for a in (rewards, values, next_values, statuses)]
    adv = np.full(ticks * streams, np.nan)
    adv[:n] = gae(*flat, 0.99, 0.95, streams)
    adv = adv.reshape(ticks, streams)
    for k in range(streams):
        t_end = ticks if k < n - (ticks - 1) * streams else ticks - 1
        column = [Status(int(code)) for code in statuses[:t_end, k]]
        expected = _scalar_gae(rewards[:t_end, k], values[:t_end, k],
                               next_values[:t_end, k], column, 0.99, 0.95)
        np.testing.assert_array_equal(adv[:t_end, k], expected)
    # an episode end restarts the recursion, and only a timeout bootstraps
    assert adv[3, 0] == rewards[3, 0] - values[3, 0]
    assert adv[4, 2] == rewards[4, 2] + 0.99 * next_values[4, 2] - values[4, 2]


@pytest.mark.parametrize("batch_size", [100, 8])
def test_every_batch_holds_exactly_its_transitions(monkeypatch, batch_size):
    assert batch_size % N_STREAMS or batch_size < N_STREAMS
    stepped = []
    real_step_batch = training.step_batch

    def counting_step_batch(states, *args):
        stepped.append(len(states))
        return real_step_batch(states, *args)

    monkeypatch.setattr(training, "step_batch", counting_step_batch)
    cfg = TrainerConfig(total_steps=3000, batch_size=batch_size, seed=2)
    _, curve = train(trainer_cfg=cfg)
    assert curve[-1].steps == 3000 == sum(stepped)
    assert [p.steps for p in curve] == [min(3000, (i + 1) * batch_size)
                                        for i in range(len(curve))]
    assert max(stepped) == min(batch_size, N_STREAMS)
    for p in curve:
        assert math.isfinite(p.mean_return) and 0.0 <= p.success_rate <= 1.0


def test_each_tick_steps_every_stream_and_observes_afresh_only_where_restarted(monkeypatch):
    # Per full tick: one step_batch call on all N_STREAMS rows, one observe of
    # the stepped rows, and a second observe only of the streams whose episode
    # ended, whose fresh states the next tick steps.  A 500 s episode outlasts
    # the run's 64 ticks, so each episode starts with a random radial speed
    # that carries it out of the box within tens of ticks, which ends some
    # streams' episodes on most ticks.
    calls = []
    real_step_batch, real_observe = training.step_batch, training.observe
    real_sample_episodes, speeds = training.sample_episodes, np.random.default_rng(5)

    def drifting_out(rng, n):
        states, goals = real_sample_episodes(rng, n)
        states[:, 3] = speeds.uniform(-40.0, 40.0, n)
        return states, goals

    def recording_step_batch(states, *args):
        out = real_step_batch(states, *args)
        calls.append(("step", states.copy(), out[0].copy(), out[2].copy()))
        return out

    def recording_observe(states, goals):
        calls.append(("observe", states.copy()))
        return real_observe(states, goals)

    monkeypatch.setattr(training, "step_batch", recording_step_batch)
    monkeypatch.setattr(training, "observe", recording_observe)
    monkeypatch.setattr(training, "sample_episodes", drifting_out)
    train(trainer_cfg=TrainerConfig(total_steps=2 * 2048, batch_size=2048, seed=4))
    assert calls[0][0] == "observe" and len(calls[0][1]) == N_STREAMS
    ticks = [i for i, call in enumerate(calls) if call[0] == "step"]
    assert len(ticks) == 2 * 2048 // N_STREAMS
    restarted = 0
    for i, j in zip(ticks, ticks[1:] + [len(calls)]):
        _, stepped, after, status = calls[i]
        ended = status != training.RUNNING
        observed = calls[i + 1:j]
        assert len(stepped) == N_STREAMS
        assert [call[0] for call in observed] == ["observe"] * (1 + ended.any())
        assert np.array_equal(observed[0][1], after)
        if ended.any():
            assert len(observed[1][1]) == ended.sum()
            restarted += 0 < ended.sum() < N_STREAMS
        if j < len(calls):
            next_stepped = calls[j][1]
            assert np.array_equal(next_stepped[~ended], after[~ended])
            if ended.any():
                assert np.array_equal(next_stepped[ended], observed[1][1])
    assert restarted > len(ticks) // 2  # ticks where some streams, not all, restarted


def test_a_batch_without_episode_ends_reports_the_running_episodes():
    cfg = TrainerConfig(total_steps=2 * N_STREAMS, batch_size=N_STREAMS, seed=3)
    _, curve = train(trainer_cfg=cfg)
    assert [p.success_rate for p in curve] == [0.0, 0.0]
    assert all(math.isfinite(p.mean_return) for p in curve)
    assert curve[0].mean_return != curve[1].mean_return


def _divergent_start():
    # exp(800) overflows, so the exploration noise and the losses are not finite
    start = MlpPolicy.initialize(np.random.default_rng(0))
    start.log_std[:] = 800.0
    return start


def test_divergent_policy_raises():
    cfg = TrainerConfig(total_steps=1024, batch_size=512, seed=0)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergence, match="step 512"):
        train(trainer_cfg=cfg, init_policy=_divergent_start())


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, rather than hang, if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _interrupt(*args):
    raise KeyboardInterrupt


def test_no_worker_process_outlives_train(monkeypatch):
    cfg = TrainerConfig(total_steps=1024, batch_size=512, seed=0)
    with _deadline(120):
        train(trainer_cfg=cfg)
        assert multiprocessing.active_children() == []
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergence):
            train(trainer_cfg=cfg, init_policy=_divergent_start())
        assert multiprocessing.active_children() == []
        # an interrupt in the policy update, with the worker mid-batch
        monkeypatch.setattr(training, "surrogate_loss_and_grad", _interrupt)
        with pytest.raises(KeyboardInterrupt):
            train(trainer_cfg=cfg)
        assert multiprocessing.active_children() == []


def _exit_at_once(*args):
    os._exit(0)


def test_a_worker_that_exits_early_raises_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(training, "_value_init", _exit_at_once)
    for batch_size in (64, 2048):  # a small first batch, and a full one
        cfg = TrainerConfig(total_steps=batch_size, batch_size=batch_size, seed=0)
        with _deadline(60), pytest.raises(RuntimeError, match="BrokenProcessPool"):
            train(trainer_cfg=cfg)
        assert multiprocessing.active_children() == []


_real_value_fit = training._value_fit
_fits = itertools.count()  # counts the worker's fits, in the worker's copy


def _exit_on_second_fit(*args):
    if next(_fits):
        os._exit(0)
    return _real_value_fit(*args)


def test_a_worker_that_dies_mid_run_raises_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(training, "_value_fit", _exit_on_second_fit)
    cfg = TrainerConfig(total_steps=1024, batch_size=512, seed=0)
    with _deadline(60), pytest.raises(RuntimeError, match="BrokenProcessPool"):
        train(trainer_cfg=cfg)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("to_group, sig", [
    (True, signal.SIGINT), (False, signal.SIGTERM), (False, signal.SIGKILL)],
    ids=["ctrl-c", "sigterm", "sigkill"])
def test_a_signal_to_the_trainer_ends_the_whole_run(tmp_path, to_group, sig):
    # Ctrl-C reaches the worker too; a trainer killed outright cannot shut it down
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(training.__file__))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "proxops.cli", "train", "--steps", "300000",
         "--out", str(tmp_path)], env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        time.sleep(2.0)  # past the first batch, so the worker is running
        (os.killpg if to_group else os.kill)(proc.pid, sig)
        # stderr reads EOF only once the worker, which shares it, has exited too
        proc.communicate(timeout=30)
        if to_group:  # the trainer joined its worker: no process of the group is left
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def _broken_value_loss(*args):
    raise ValueError("value net broke")


def test_an_error_in_the_value_worker_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(training, "value_loss_and_grad", _broken_value_loss)
    cfg = TrainerConfig(total_steps=64, batch_size=64, seed=0)
    with _deadline(60), pytest.raises(RuntimeError, match="ValueError: value net broke"):
        train(trainer_cfg=cfg)
    assert multiprocessing.active_children() == []


def test_config_validation():
    with pytest.raises(ValueError, match="total_steps"):
        TrainerConfig(total_steps=-1)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        TrainerConfig(seed=-1)
    for batch_size in (0, -5):
        with pytest.raises(ValueError, match="batch_size"):
            TrainerConfig(batch_size=batch_size)


def test_config_values_must_be_integers():
    # Checked at construction: a NaN step count would train nothing without an
    # error, and a float would fail only inside the trainer, after its worker forked.
    for name in ("total_steps", "batch_size", "seed"):
        for value in (True, False, np.True_, float("nan"), 100.5, 64.0, "64", None):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                TrainerConfig(**{name: value})
    for value in (64, np.int64(64), np.int32(64), np.uint16(64)):
        cfg = TrainerConfig(total_steps=value, batch_size=value, seed=value)
        assert (cfg.total_steps, cfg.batch_size, cfg.seed) == (64, 64, 64)
    _, curve = train(trainer_cfg=TrainerConfig(total_steps=np.int64(64),
                                               batch_size=np.int64(64), seed=np.int64(0)))
    assert [point.steps for point in curve] == [64]


def test_evaluate_zero_policy_never_reaches():
    policy = MlpPolicy.initialize(np.random.default_rng(0))
    for w in policy.weights:
        w[:] = 0.0
    for b in policy.biases:
        b[:] = 0.0
    rate, mean_time = evaluate_policy(policy, 5, seed=2)
    assert rate == 0.0
    assert math.isnan(mean_time)


def test_evaluate_negative_episode_count_raises():
    policy = MlpPolicy.initialize(np.random.default_rng(0))
    with pytest.raises(ValueError):
        evaluate_policy(policy, -1)


def test_curve_rows_format():
    curve = [CurvePoint(10, 1.5, 0.5), CurvePoint(20, 2.5, 1.0)]
    assert curve_rows(curve) == [(10, 1.5, 0.5), (20, 2.5, 1.0)]
