"""Desk-scale clipped-surrogate policy-gradient trainer for the waypoint task.

Pure-numpy PPO: a Gaussian acts on the pre-squash network output, actions are
tanh-squashed, and advantages come from generalized advantage estimation over
fixed-size rollout batches collected from N_STREAMS env streams stepped in
lock-step.
The tanh change-of-variables term depends only on the stored sample, so it
cancels from the importance ratio and never needs computing.
The policy and the value net share no parameter and Adam is elementwise, so
each batch's update splits exactly: the value net trains in a one-process
executor (:func:`_value_init`, :func:`_value_predict`, :func:`_value_fit`)
while the calling process trains the policy.
"""

from __future__ import annotations

import math
import os
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .dynamics import ChiefOrbit, VehicleParams
from .env import (  # noqa: F401 - step stays a training attribute for perfbench's tracer
    REACHED,
    RUNNING,
    TIMEOUT,
    EpisodeConfig,
    evaluate,
    observe,
    sample_episodes,
    step,
    step_batch,
)
from .policy import MlpPolicy, brief, flat_views, init_layers, mlp_forward, policy_act

LOG_2PI = math.log(2.0 * math.pi)

N_STREAMS = 64
"""Env streams the trainer steps in lock-step, one policy call per tick for all:
a 2,048-sample batch takes 32 ticks.  Part of the recipe, not only of the
speed: 64 passes criterion 9 at training seeds 0 to 5, where 32 and 128 each
failed it at one seed."""

# The PPO recipe (Schulman et al. 2017), fixed for every run.
LEARNING_RATE = 3e-4
DISCOUNT = 0.99
GAE_LAMBDA = 0.95
CLIP_RATIO = 0.2
EPOCHS_PER_BATCH = 10
MINIBATCH_SIZE = 64
GRAD_CLIP = 0.5  # largest norm of one network's gradient per minibatch
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDivergence(RuntimeError):
    """Raised when the loss or the parameters stop being finite."""


@dataclass(frozen=True)
class TrainerConfig:
    """The run length in env steps, the seed and the rollout batch size; the
    rest of the recipe is the module constants."""

    total_steps: int = 300_000
    batch_size: int = 2048
    seed: int = 0

    def __post_init__(self):
        for name in ("total_steps", "batch_size", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {brief(value)}")
        if self.total_steps < 0:
            raise ValueError("total_steps must be nonnegative")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError("seed must be nonnegative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")


@dataclass(frozen=True)
class CurvePoint:
    """One training iteration: env steps so far and the stats of the episodes
    that ended in its batch (if none did, of those in progress, returns so far)."""

    steps: int
    mean_return: float
    success_rate: float


def _gaussian_terms(z: np.ndarray, mean: np.ndarray, log_std: np.ndarray):
    """(z - mean, 1 / variance, their scaled squares, row-wise log density) of
    independent Gaussians (z, mean: (N, d)); the loss gradient reuses the first
    three."""
    diff = z - mean
    inv_var = np.exp(-2.0 * log_std)
    sq = diff ** 2 * inv_var
    logp = -(0.5 * sq.sum(axis=-1) + log_std.sum() + 0.5 * z.shape[-1] * LOG_2PI)
    return diff, inv_var, sq, logp


def gaussian_logp(z: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Row-wise log density of independent Gaussians (z, mean: (N, d))."""
    return _gaussian_terms(z, mean, log_std)[3]


def gae(rewards, values, next_values, statuses, streams: int) -> np.ndarray:
    """Generalized advantage estimates (DISCOUNT, GAE_LAMBDA) of tick-major
    transitions: row i + streams is row i's env stream one tick on.  Each
    stream's recursion runs backwards alone and restarts after every episode
    end; only a TIMEOUT end (a budget truncation) still bootstraps from the
    next value."""
    ended = statuses != RUNNING
    bootstrap = ~ended | (statuses == TIMEOUT)
    deltas = rewards + DISCOUNT * next_values * bootstrap - values
    decays = DISCOUNT * GAE_LAMBDA * ~ended
    n = len(deltas)
    adv = np.zeros(n + streams)  # zeros past the batch end
    for lo in reversed(range(0, n, streams)):
        hi = min(lo + streams, n)
        adv[lo:hi] = deltas[lo:hi] + decays[lo:hi] * adv[lo + streams:hi + streams]
    return adv[:n]


def _backprop(weights, hs, g_out, g_w, g_b) -> None:
    """Tanh MLP gradients for output gradient g_out (N, n_out), into g_w, g_b."""
    g = g_out
    for layer in range(len(weights) - 1, -1, -1):
        np.matmul(g.T, hs[layer], out=g_w[layer])
        g.sum(axis=0, out=g_b[layer])
        if layer > 0:
            d = np.square(hs[layer])
            g = g @ weights[layer]
            g *= np.subtract(1.0, d, out=d)


def surrogate_loss_and_grad(params, obs: np.ndarray, z: np.ndarray,
                            logp_old: np.ndarray, adv: np.ndarray, grads) -> float:
    """Clipped-surrogate loss of the policy views ``params`` = (weights, biases,
    log_std) on observations ``obs`` (N, obs_dim), pre-squash samples ``z``
    (N, act_dim), their old log densities ``logp_old`` and normalized
    advantages ``adv`` (N,); its exact gradient goes into ``grads``, views of
    the same shapes as ``params``."""
    weights, biases, log_std = params
    g_w, g_b, g_log_std = grads
    mean, hs = mlp_forward(weights, biases, obs)
    diff, inv_var, sq, logp = _gaussian_terms(z, mean, log_std)
    ratio = np.exp(logp - logp_old)
    surr = ratio * adv
    # np.clip, less overhead
    surr_clipped = np.minimum(np.maximum(ratio, 1.0 - CLIP_RATIO), 1.0 + CLIP_RATIO) * adv
    n = obs.shape[0]
    loss = -float(np.minimum(surr, surr_clipped).sum()) / n

    # gradient flows only where the unclipped branch attains the minimum
    d_logp = surr * (surr <= surr_clipped)
    d_logp /= -n

    g_mean = d_logp[:, None] * diff * inv_var
    (d_logp[:, None] * (sq - 1.0)).sum(axis=0, out=g_log_std)
    _backprop(weights, hs, g_mean, g_w, g_b)
    return loss


def value_loss_and_grad(params, obs: np.ndarray, target: np.ndarray,
                        grads) -> float:
    """Half mean squared error of the value-net views ``params`` = (weights,
    biases); its gradient goes into ``grads`` as above."""
    weights, biases = params
    v, hs = mlp_forward(weights, biases, obs)
    err = v[:, 0] - target
    loss = 0.5 * (float(np.square(err).sum()) / err.size)
    g_out = (err / err.size)[:, None]
    _backprop(weights, hs, g_out, *grads)
    return loss


class Adam:
    """Plain Adam on one parameter array, updated in place, with the bias
    corrections folded into the step size and epsilon (Kingma & Ba 2015)."""

    def __init__(self, params: np.ndarray, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = np.empty_like(params)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        root_b2c = math.sqrt(1.0 - ADAM_BETA2 ** self.t)
        step_size = self.lr * root_b2c / (1.0 - ADAM_BETA1 ** self.t)
        m, v, tmp = self.m, self.v, self._scratch
        m *= ADAM_BETA1
        m += np.multiply(grad, 1.0 - ADAM_BETA1, out=tmp)
        v *= ADAM_BETA2
        np.multiply(grad, 1.0 - ADAM_BETA2, out=tmp)
        v += np.multiply(tmp, grad, out=tmp)
        np.sqrt(v, out=tmp)
        tmp += ADAM_EPS * root_b2c
        np.divide(m, tmp, out=tmp)
        tmp *= step_size
        params -= tmp


def _clip_grad(grad: np.ndarray, max_norm: float) -> None:
    """Scale one network's contiguous gradient in place to norm max_norm if longer."""
    total = math.sqrt(grad @ grad)
    if total > max_norm:
        grad *= max_norm / total


def _fit(loss_and_grad, params: np.ndarray, grad: np.ndarray, opt: Adam,
         arrays, orders) -> list:
    """One network's minibatch steps over a batch: for each epoch's order,
    ``loss_and_grad`` of each MINIBATCH_SIZE slice of the shuffled ``arrays``
    fills ``grad``, which is clipped and stepped into ``params``.  Returns the
    losses, stopping after the first one that is not finite."""
    losses = []
    for order in orders:
        shuffled = [a[order] for a in arrays]
        for lo in range(0, len(order), MINIBATCH_SIZE):
            losses.append(loss_and_grad(*[a[lo:lo + MINIBATCH_SIZE] for a in shuffled]))
            if not math.isfinite(losses[-1]):
                return losses
            _clip_grad(grad, GRAD_CLIP)
            opt.step(params, grad)
    return losses


_value_state = None  # (params, grad, views, gradient views, Adam), in the worker only


def _value_init(params: np.ndarray, shapes) -> None:
    """Start the value-net worker: it owns the net's parameter vector
    ``params``, its gradient vector and their views, and its Adam.  It ignores
    Ctrl-C, which reaches it too, so that the trainer alone shuts it down, and
    exits as soon as the trainer does, even a trainer killed outright."""
    global _value_state
    import multiprocessing

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    trainer = multiprocessing.parent_process()
    threading.Thread(target=lambda: (trainer.join(), os._exit(1)), daemon=True).start()
    grad = np.empty_like(params)
    layers = len(shapes) // 2
    w_b, g_w_b = flat_views(params, shapes), flat_views(grad, shapes)
    _value_state = (params, grad, (w_b[:layers], w_b[layers:]),
                    (g_w_b[:layers], g_w_b[layers:]), Adam(params, LEARNING_RATE))


def _value_predict(obs: np.ndarray, next_obs: np.ndarray):
    """The worker's values of a batch's observations and next observations."""
    val = _value_state[2]
    return mlp_forward(*val, obs)[0][:, 0], mlp_forward(*val, next_obs)[0][:, 0]


def _value_fit(obs: np.ndarray, v_target: np.ndarray, orders):
    """The worker's fit of the value targets over a batch's epoch orders: the
    losses, and whether its parameters stayed finite."""
    params, grad, val, val_grad, opt = _value_state
    losses = _fit(lambda o, t: value_loss_and_grad(val, o, t, val_grad),
                  params, grad, opt, (obs, v_target), orders)
    return losses, bool(np.isfinite(params).all())


def _result(future):
    """The worker's answer; RuntimeError if the worker raised or died."""
    try:
        return future.result()
    except Exception as exc:  # the worker's own error, or BrokenProcessPool
        raise RuntimeError(
            f"value-net worker failed: {type(exc).__name__}: {exc}") from exc


def train(trainer_cfg: TrainerConfig | None = None,
          init_policy: MlpPolicy | None = None):
    """Train a waypoint policy; returns (MlpPolicy, list of CurvePoint).

    Deterministic given trainer_cfg.seed.  ``init_policy`` resumes from an
    existing network instead of a fresh initialization.  Raises
    TrainingDivergence when a loss or parameter turns non-finite, and
    RuntimeError when the value-net worker fails or dies.  The worker is gone
    when this returns or raises.
    """
    # imported here so that importing the package does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cfg = trainer_cfg if trainer_cfg is not None else TrainerConfig()
    rng = np.random.default_rng(cfg.seed)
    policy = init_policy if init_policy is not None else MlpPolicy.initialize(rng)
    value_w, value_b = init_layers(rng, (policy.layer_dims[0], 64, 64, 1))
    value = np.concatenate([a.ravel() for a in (*value_w, *value_b)])
    value_shapes = [a.shape for a in (*value_w, *value_b)]

    # fork where the platform has it: it starts in milliseconds, where spawn
    # imports numpy again (CI checks it under a threaded OpenBLAS too)
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    with ProcessPoolExecutor(1, mp_context=ctx, initializer=_value_init,
                             initargs=(value, value_shapes)) as worker:
        return _train_policy(cfg, rng, policy, worker)


def _train_policy(cfg: TrainerConfig, rng: np.random.Generator, policy: MlpPolicy,
                  worker):
    """The policy's half of :func:`train`: the rollouts and the update of a
    copy of ``policy``, with the value net's half submitted to ``worker``."""
    env_cfg, orbit, veh = EpisodeConfig(), ChiefOrbit(), VehicleParams()
    params = policy.params.copy()
    grad = np.empty_like(params)
    pol, pol_grad = policy.unflatten(params), policy.unflatten(grad)
    log_std = pol[2]
    opt = Adam(params, LEARNING_RATE)
    curve: list = []

    states, goals = sample_episodes(rng, N_STREAMS)
    obs = observe(states, goals)  # every stream's current observation
    elapsed, ep_return = np.zeros(N_STREAMS), np.zeros(N_STREAMS)
    steps_done = 0

    while steps_done < cfg.total_steps:
        n = min(cfg.batch_size, cfg.total_steps - steps_done)
        rows, ep_returns, ep_successes = [], [], []
        std = np.exp(log_std)
        for lo in range(0, n, N_STREAMS):
            # a short last tick steps the first m streams; the rest resume next batch
            m = min(N_STREAMS, n - lo)
            mean = mlp_forward(*pol[:2], obs[:m])[0]
            z = mean + std * rng.standard_normal(mean.shape)
            states[:m], rew, status = step_batch(states[:m], goals[:m], np.tanh(z),
                                                 elapsed[:m], env_cfg, orbit, veh)
            next_obs = observe(states[:m], goals[:m])
            rows.append((obs[:m], mean, z, rew, status, next_obs))
            obs = np.concatenate((next_obs, obs[m:]))
            elapsed[:m] += env_cfg.dt
            ep_return[:m] += rew
            ended = np.flatnonzero(status != RUNNING)
            if ended.size:
                ep_returns += ep_return[ended].tolist()
                ep_successes += (status[ended] == REACHED).tolist()
                states[ended], goals[ended] = sample_episodes(rng, ended.size)
                obs[ended] = observe(states[ended], goals[ended])
                elapsed[ended] = ep_return[ended] = 0.0
        steps_done += n
        if not ep_returns:  # no episode ended: report the ones in progress
            ep_returns, ep_successes = ep_return.tolist(), [False] * N_STREAMS

        b_obs, mean, z, rew, status, next_obs = map(np.concatenate, zip(*rows))
        predicted = worker.submit(_value_predict, b_obs, next_obs)
        logp_old = gaussian_logp(z, mean, log_std)
        values, next_values = _result(predicted)
        adv = gae(rew, values, next_values, status, N_STREAMS)
        v_target = adv + values
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        orders = [rng.permutation(n) for _ in range(EPOCHS_PER_BATCH)]
        fitted = worker.submit(_value_fit, b_obs, v_target, orders)
        p_losses = _fit(lambda *mini: surrogate_loss_and_grad(pol, *mini, pol_grad),
                        params, grad, opt, (b_obs, z, logp_old, adv), orders)
        v_losses, value_finite = _result(fitted)
        # each side stopped after its own first non-finite loss, so both reach
        # the first minibatch where either one is not finite
        for p_loss, v_loss in zip(p_losses, v_losses):
            if not (math.isfinite(p_loss) and math.isfinite(v_loss)):
                raise TrainingDivergence(
                    f"non-finite loss at step {steps_done}: "
                    f"policy {p_loss}, value {v_loss}")
        if not (value_finite and np.isfinite(params).all()):
            raise TrainingDivergence(f"non-finite parameters at step {steps_done}")

        curve.append(CurvePoint(steps_done, float(np.mean(ep_returns)),
                                float(np.mean(ep_successes))))
    return MlpPolicy(*pol), curve


def evaluate_policy(policy: MlpPolicy, n_episodes: int, seed: int = 0):
    """Deterministic rollouts on sampled episodes through :func:`env.evaluate`:
    (success rate, mean time), the time NaN when no episode arrived."""
    stats = evaluate(lambda obs: policy_act(policy, obs), n_episodes, seed)
    return stats.success_rate, stats.mean_time if stats.success_rate else math.nan


def curve_rows(curve: list) -> list:
    """Learning curve as rows for CSV export."""
    return [(p.steps, p.mean_return, p.success_rate) for p in curve]
