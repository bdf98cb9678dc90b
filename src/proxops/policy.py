"""Controllers for the waypoint environment and their on-disk format.

Two controllers are provided: a hand-tuned proportional-derivative baseline
that needs no training, and a small tanh MLP whose weights come from the
trainer.  Both map an :func:`env.observe` array to a thrust command in
[-1, 1]^3.
"""

from __future__ import annotations

import json
import math
import reprlib

import numpy as np

from .env import OBS_POSITION_SCALE, SPEED_LIMIT_SLOPE, norms

POLICY_FORMAT = "proxops-mlp-policy"
POLICY_VERSION = 1

DEFAULT_LAYER_DIMS = (6, 64, 64, 3)
INIT_LOG_STD = -0.7
"""Log standard deviation of a fresh policy's exploration noise."""

# PD baseline gains.  The commanded speed toward a goal d metres away is
# min(BASELINE_KP / BASELINE_KV * d, BASELINE_SPEED_CAP, the reward's speed
# limit at d), so the baseline stays inside that limit by construction.
BASELINE_KP = 4e-3
BASELINE_KV = 0.12
BASELINE_SPEED_CAP = 4.0
# Both speed limits are proportional to d >= 0, and rounding is monotone, so
# the smaller coefficient gives the smaller product.
_BASELINE_RATE = min(BASELINE_KP / BASELINE_KV, SPEED_LIMIT_SLOPE)


# An error message echoes a value read from a file as brief(value): its repr
# cut to six list items, four dict items and 30 characters of a string, with
# a container inside a container shown as [...] or {...}.
_BRIEF = reprlib.Repr()
_BRIEF.maxlevel = 1
brief = _BRIEF.repr


def brief_path(path) -> str:
    """``path`` as errors name it: escaped onto one line, its middle cut past 120 characters."""
    return text if len(text := repr(str(path))[1:-1]) <= 120 else f"{text[:60]}...{text[-57:]}"


class PolicyFileError(ValueError):
    """Raised for malformed or truncated policy files."""


class UnsupportedPolicyVersion(PolicyFileError):
    """Raised when a policy file declares a version this code cannot read."""


def baseline_act(obs: np.ndarray, mass: float = 1.0,
                 thrust_bound: float = 1.0) -> np.ndarray:
    """PD thrust command toward the goal, in [-1, 1] per axis.

    ``obs`` may be one (6,) observation or a (..., 6) stack; each row gets the
    command it would get alone, bit for bit.
    """
    delta = obs[..., :3] * OBS_POSITION_SCALE
    dist = norms(delta)
    speed = np.minimum(_BASELINE_RATE * dist, BASELINE_SPEED_CAP)
    # At the goal speed is 0, so dividing by 1 instead of 0 commands rest.
    # Negating the divisor, not delta, gives the same bits (IEEE division is
    # sign-symmetric) with one scalar operation instead of a vector one.
    vel_des = delta / np.where(dist == 0.0, -1.0, -dist)[..., None] * speed[..., None]
    accel_cmd = BASELINE_KV * (vel_des - obs[..., 3:])
    action = accel_cmd * mass / thrust_bound
    return np.minimum(np.maximum(action, -1.0), 1.0)  # np.clip, less overhead


def flat_views(flat: np.ndarray, shapes) -> list:
    """Views into ``flat`` with the given shapes, laid end to end."""
    views, lo = [], 0
    for shape in shapes:
        views.append(flat[lo:lo + math.prod(shape)].reshape(shape))
        lo += math.prod(shape)
    return views


def init_layers(rng: np.random.Generator, layer_dims, last_scale=None):
    """Tanh-MLP (weights, biases) drawn layer by layer: N(0, 2 / n_in) weights,
    or standard deviation ``last_scale`` in the last layer if given; zero biases."""
    weights, biases = [], []
    for k, (n_in, n_out) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
        last = k == len(layer_dims) - 2 and last_scale is not None
        scale = last_scale if last else math.sqrt(2.0 / n_in)
        weights.append(rng.normal(0.0, scale, (n_out, n_in)))
        biases.append(np.zeros(n_out))
    return weights, biases


def mlp_forward(weights, biases, x: np.ndarray):
    """Tanh hidden layers, linear output: (output, input of every layer)."""
    hs = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        x = x @ w.T  # a fresh array, so the bias and tanh go in place
        x += b
        hs.append(np.tanh(x, out=x))
    return x @ weights[-1].T + biases[-1], hs


class MlpPolicy:
    """Tanh MLP from 6-vector observations to thrust commands in [-1, 1]^3.

    Hidden activations are tanh; the linear output is squashed through a
    final tanh.  ``log_std`` is the log standard deviation of Gaussian
    exploration noise the trainer adds before the squash.  All three
    are views into one flat vector ``params``, copied from finite inputs.
    """

    def __init__(self, weights, biases, log_std=None):
        weights = [np.asarray(w, dtype=float) for w in weights]
        biases = [np.asarray(b, dtype=float) for b in biases]
        if len(weights) != len(biases) or not weights:
            raise ValueError("weights and biases must be non-empty and aligned")
        for w, b in zip(weights, biases):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError("each layer needs a matrix and a matching bias vector")
        for prev, nxt in zip(weights[:-1], weights[1:]):
            if nxt.shape[1] != prev.shape[0]:
                raise ValueError("layer shapes do not chain")
        out_dim = weights[-1].shape[0]
        log_std = np.zeros(out_dim) if log_std is None else np.asarray(log_std, dtype=float)
        if log_std.shape != (out_dim,):
            raise ValueError("log_std must match the output dimension")
        self.shapes = [a.shape for a in (*weights, *biases, log_std)]
        self.params = np.concatenate([a.ravel() for a in (*weights, *biases, log_std)])
        if not np.all(np.isfinite(self.params)):
            raise ValueError("policy parameters must be finite")
        self.weights, self.biases, self.log_std = self.unflatten(self.params)

    def unflatten(self, flat: np.ndarray):
        """Views (weights, biases, log_std) into a vector laid out like ``params``."""
        views = flat_views(flat, self.shapes)
        n_layers = len(views) // 2
        return views[:n_layers], views[n_layers:-1], views[-1]

    @property
    def layer_dims(self) -> tuple:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @classmethod
    def initialize(cls, rng: np.random.Generator,
                   layer_dims=DEFAULT_LAYER_DIMS) -> "MlpPolicy":
        """Random init; small final layer for gentle actions."""
        weights, biases = init_layers(rng, layer_dims, last_scale=0.01)
        return cls(weights, biases, np.full(layer_dims[-1], INIT_LOG_STD))

    def pre_squash(self, obs_vec: np.ndarray) -> np.ndarray:
        """Network output before the final tanh (the action mean)."""
        return mlp_forward(self.weights, self.biases, np.asarray(obs_vec, dtype=float))[0]

    def copy(self) -> "MlpPolicy":
        return MlpPolicy(self.weights, self.biases, self.log_std)


def policy_act(policy: MlpPolicy, obs: np.ndarray) -> np.ndarray:
    """Deterministic policy action of a (6,) observation or a (..., 6) stack.

    Each observation goes through the network as a one-row matrix, so a
    stack's rows get the actions they would get alone, bit for bit (one
    (K, 6) matrix product rounds differently).
    """
    if obs.shape[-1] != policy.layer_dims[0]:
        raise ValueError(f"observation dimension {obs.shape[-1]} does not match "
                         f"policy input {policy.layer_dims[0]}")
    return np.tanh(policy.pre_squash(obs[..., None, :]))[..., 0, :]


def save_policy(policy: MlpPolicy, path) -> None:
    """Write the policy as versioned JSON (row-major weight matrices).

    Raises ValueError, and writes nothing, if a parameter is not finite.
    """
    payload = {
        "format": POLICY_FORMAT,
        "version": POLICY_VERSION,
        "layer_dims": list(policy.layer_dims),
        "weights": [w.reshape(-1).tolist() for w in policy.weights],
        "biases": [b.tolist() for b in policy.biases],
        "log_std": policy.log_std.tolist(),
    }
    text = json.dumps(payload, allow_nan=False)  # raises on NaN before opening
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_policy(path) -> MlpPolicy:
    """Read a policy file; raises PolicyFileError on any malformation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        reason = f"[Errno {exc.errno}] {exc.strerror}" if isinstance(exc, OSError) else exc
        raise PolicyFileError(f"cannot parse policy file {brief_path(path)}: {reason}") from exc
    if not isinstance(payload, dict) or payload.get("format") != POLICY_FORMAT:
        raise PolicyFileError(f"{brief_path(path)} is not a {POLICY_FORMAT} file")
    version = payload.get("version")
    if version != POLICY_VERSION:
        raise UnsupportedPolicyVersion(
            f"policy file version {brief(version)} is not supported (expected {POLICY_VERSION})")
    try:
        dims = payload["layer_dims"]
        if not all(type(d) is int and d > 0 for d in dims):  # reshape would infer a -1
            raise ValueError(f"layer_dims entries must be positive integers, got {brief(dims)}")
        weights = [np.asarray(flat, dtype=float).reshape(n_out, n_in)
                   for flat, n_in, n_out in zip(payload["weights"], dims[:-1], dims[1:])]
        if len(weights) != len(dims) - 1 or len(payload["biases"]) != len(weights):
            raise ValueError("layer count mismatch")
        policy = MlpPolicy(weights, payload["biases"], payload["log_std"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # a JSON int past float range
        raise PolicyFileError(f"policy file {brief_path(path)} has inconsistent contents: {exc}") from exc
    n_in, *_, n_out = policy.layer_dims
    if (n_in, n_out) != (6, 3):  # observation and thrust sizes
        raise PolicyFileError(f"policy file {brief_path(path)} maps {n_in} inputs to {n_out} "
                              "outputs, not 6 to 3")
    return policy
