"""Desk-scale clipped-surrogate policy-gradient trainer for the waypoint task.

Pure-numpy PPO: a Gaussian acts on the pre-squash network output, actions are
tanh-squashed, and advantages come from generalized advantage estimation over
fixed-size rollout batches collected from N_STREAMS env streams stepped in
lock-step.
The tanh change-of-variables term depends only on the stored sample, so it
cancels from the importance ratio and never needs computing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ChiefOrbit, VehicleParams
from .env import (  # noqa: F401 - step stays a training attribute for perfbench's tracer
    REACHED,
    RUNNING,
    TIMEOUT,
    EpisodeConfig,
    Status,
    observe,
    run_episodes,
    sample_episodes,
    step,
    step_batch,
)
from .policy import MlpPolicy, flat_views, init_layers, mlp_forward, policy_act

LOG_2PI = math.log(2.0 * math.pi)

N_STREAMS = 16
"""Env streams the trainer steps in lock-step, one policy call per tick for all."""

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
        if self.total_steps < 0:
            raise ValueError("total_steps must be nonnegative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")


@dataclass(frozen=True)
class CurvePoint:
    """One training iteration: env steps so far and the stats of the episodes
    that ended in its batch (if none did, of those in progress, returns so far)."""

    steps: int
    mean_return: float
    success_rate: float


@dataclass
class RolloutBatch:
    obs: np.ndarray        # (N, obs_dim)
    z: np.ndarray          # (N, act_dim) pre-squash Gaussian samples
    logp_old: np.ndarray   # (N,)
    adv: np.ndarray        # (N,) normalized advantages
    v_target: np.ndarray   # (N,)


def gaussian_logp(z: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Row-wise log density of independent Gaussians (z, mean: (N, d))."""
    inv_var = np.exp(-2.0 * log_std)
    quad = 0.5 * ((z - mean) ** 2 * inv_var).sum(axis=-1)
    return -(quad + log_std.sum() + 0.5 * z.shape[-1] * LOG_2PI)


def gae(rewards, values, next_values, statuses, discount: float, lam: float,
        streams: int) -> np.ndarray:
    """Generalized advantage estimates of tick-major transitions: row i + streams
    is row i's env stream one tick on.  Each stream's recursion runs backwards
    alone and restarts after every episode end; only a TIMEOUT end (a budget
    truncation) still bootstraps from the next value."""
    ended = statuses != RUNNING
    bootstrap = ~ended | (statuses == TIMEOUT)
    deltas = rewards + discount * next_values * bootstrap - values
    decays = discount * lam * ~ended
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


def surrogate_loss_and_grad(params, batch: RolloutBatch, clip_ratio: float,
                            grads) -> float:
    """Clipped-surrogate loss of the policy views ``params`` = (weights, biases,
    log_std); its exact gradient goes into ``grads``, views of the same shapes."""
    weights, biases, log_std = params
    g_w, g_b, g_log_std = grads
    mean, hs = mlp_forward(weights, biases, batch.obs)
    logp = gaussian_logp(batch.z, mean, log_std)
    ratio = np.exp(logp - batch.logp_old)
    adv = batch.adv
    surr = ratio * adv
    surr_clipped = np.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio) * adv
    n = batch.obs.shape[0]
    loss = -float(np.minimum(surr, surr_clipped).sum()) / n

    # gradient flows only where the unclipped branch attains the minimum
    d_logp = surr * (surr <= surr_clipped)
    d_logp /= -n

    inv_var = np.exp(-2.0 * log_std)
    diff = batch.z - mean
    g_mean = d_logp[:, None] * diff * inv_var
    (d_logp[:, None] * (diff ** 2 * inv_var - 1.0)).sum(axis=0, out=g_log_std)
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


def train(trainer_cfg: TrainerConfig | None = None,
          init_policy: MlpPolicy | None = None):
    """Train a waypoint policy; returns (MlpPolicy, list of CurvePoint).

    Deterministic given trainer_cfg.seed.  ``init_policy`` resumes from an
    existing network instead of a fresh initialization.  Raises
    TrainingDivergence when a loss or parameter turns non-finite.
    """
    cfg = trainer_cfg if trainer_cfg is not None else TrainerConfig()
    env_cfg, orbit, veh = EpisodeConfig(), ChiefOrbit(), VehicleParams()

    rng = np.random.default_rng(cfg.seed)
    policy = init_policy if init_policy is not None else MlpPolicy.initialize(rng)
    value_w, value_b = init_layers(rng, (policy.layer_dims[0], 64, 64, 1))
    # Both networks live in one vector, the policy's layout then the value
    # net's, so one Adam steps both; the gradient vector shares the layout.
    value_shapes = [a.shape for a in (*value_w, *value_b)]
    n_pol, n_val = policy.params.size, len(value_w)
    params = np.concatenate([policy.params, *(a.ravel() for a in (*value_w, *value_b))])
    grad = np.empty_like(params)
    opt = Adam(params, LEARNING_RATE)

    def views(flat):
        """(policy, value net) views into a vector laid out like ``params``."""
        value = flat_views(flat[n_pol:], value_shapes)
        return policy.unflatten(flat[:n_pol]), (value[:n_val], value[n_val:])

    pol, val = views(params)
    pol_grad, val_grad = views(grad)
    log_std = pol[2]
    curve: list = []

    states, goals = sample_episodes(rng, N_STREAMS)
    elapsed, ep_return = np.zeros(N_STREAMS), np.zeros(N_STREAMS)
    steps_done = 0

    while steps_done < cfg.total_steps:
        n = min(cfg.batch_size, cfg.total_steps - steps_done)
        rows, ep_returns, ep_successes = [], [], []
        std = np.exp(log_std)
        for lo in range(0, n, N_STREAMS):
            # a short last tick steps the first m streams; the rest resume next batch
            m = min(N_STREAMS, n - lo)
            obs = observe(states[:m], goals[:m])
            mean = mlp_forward(*pol[:2], obs)[0]
            z = mean + std * rng.standard_normal(mean.shape)
            states[:m], rew, status = step_batch(states[:m], goals[:m], np.tanh(z),
                                                 elapsed[:m], env_cfg, orbit, veh)
            rows.append((obs, mean, z, rew, status, observe(states[:m], goals[:m])))
            elapsed[:m] += env_cfg.dt
            ep_return[:m] += rew
            ended = np.flatnonzero(status != RUNNING)
            ep_returns += ep_return[ended].tolist()
            ep_successes += (status[ended] == REACHED).tolist()
            states[ended], goals[ended] = sample_episodes(rng, ended.size)
            elapsed[ended] = ep_return[ended] = 0.0
        steps_done += n
        if not ep_returns:  # no episode ended: report the ones in progress
            ep_returns, ep_successes = ep_return.tolist(), [False] * N_STREAMS

        obs, mean, z, rew, status, next_obs = map(np.concatenate, zip(*rows))
        logp_old = gaussian_logp(z, mean, log_std)
        values = mlp_forward(*val, obs)[0][:, 0]
        adv = gae(rew, values, mlp_forward(*val, next_obs)[0][:, 0], status,
                  DISCOUNT, GAE_LAMBDA, N_STREAMS)
        v_target = adv + values
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        data = (obs, z, logp_old, adv, v_target)

        for _ in range(EPOCHS_PER_BATCH):
            order = rng.permutation(n)
            shuffled = [a[order] for a in data]
            for lo in range(0, n, MINIBATCH_SIZE):
                mini = RolloutBatch(*[a[lo:lo + MINIBATCH_SIZE] for a in shuffled])
                p_loss = surrogate_loss_and_grad(pol, mini, CLIP_RATIO, pol_grad)
                v_loss = value_loss_and_grad(val, mini.obs, mini.v_target, val_grad)
                if not (math.isfinite(p_loss) and math.isfinite(v_loss)):
                    raise TrainingDivergence(
                        f"non-finite loss at step {steps_done}: "
                        f"policy {p_loss}, value {v_loss}")
                # each network's gradient is clipped alone
                _clip_grad(grad[:n_pol], GRAD_CLIP)
                _clip_grad(grad[n_pol:], GRAD_CLIP)
                opt.step(params, grad)
        if not np.all(np.isfinite(params)):
            raise TrainingDivergence(f"non-finite parameters at step {steps_done}")

        curve.append(CurvePoint(steps_done, float(np.mean(ep_returns)),
                                float(np.mean(ep_successes))))
    return MlpPolicy(*pol), curve


def evaluate_policy(policy: MlpPolicy, n_episodes: int, seed: int = 0):
    """Deterministic rollouts on sampled episodes: (success rate, mean time).

    All episodes step in lock-step through :func:`env.run_episodes`.
    """
    if n_episodes < 0:
        raise ValueError("n_episodes must be nonnegative")
    starts, goals = sample_episodes(np.random.default_rng(seed), n_episodes)
    res = run_episodes(lambda obs: policy_act(policy, obs), starts, goals,
                       EpisodeConfig(), ChiefOrbit(), VehicleParams())
    times = [t for t, s in zip(res.elapsed, res.status) if s is Status.REACHED]
    rate = len(times) / n_episodes if n_episodes else 0.0
    return rate, (float(np.mean(times)) if times else float("nan"))


def curve_rows(curve: list) -> list:
    """Learning curve as rows for CSV export."""
    return [(p.steps, p.mean_return, p.success_rate) for p in curve]
