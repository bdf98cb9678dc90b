"""The benchmark's workloads: inputs built from a seed, passes, output checks.

Each workload drives ``proxops`` only through its public functions and the
``proxops`` command-line entry (``cli.main``), all from this one process.
A pass is one or more operations; an operation fails on a non-zero exit
code, an exception, or a failed output check.  A failure is counted, never
retried with other inputs.

Workloads, and why each exists:

* ``standoff_rta``: ``proxops run --scenario standoff --rta on``, the paper's
  headline experiment.  Most of its time is the RTA filter's per-agent QP, so
  filter and solver changes show here.  Its geometry is fixed and the
  program does not read ``run --seed``, so the seed changes nothing.
* ``ring_rta``: six deputies on chords through the chief, RTA on.  Same
  ``rta``/``qp`` layers with 14 rows per QP and 6 QPs per tick instead of
  10 and 2, so per-tick rows grow as N^2; guards the large-N case.
* ``train``: the PPO trainer at a fixed 10-iteration budget, then policy
  evaluation and a save/load round trip.  Bypasses ``rta``/``qp``/``harness``.
* ``episodes``: ``baseline-stats`` plus the ``single`` and RTA-off
  ``standoff`` scenarios.  PD controller, environment step and dynamics at 1
  and 10 substeps, harness loop and artifacts; no QP and no network.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from proxops import cli, env, harness, policy, training
from proxops.dynamics import RelativeState

# Criterion 7's bars for RTA runs.
MIN_SEPARATION_M = 45.0
MAX_LATE_SPEED = 3.3
LATE_AFTER_S = 30.0

RING_AGENTS = 6
RING_START_M = -200.0
RING_TURN_M = 300.0
TRAIN_ITERATIONS = 10
EVAL_EPISODES = 10
BASELINE_TRIALS = 50

# Speed sampling: every SAMPLE_INTERVAL_S a slice of the reference loop runs
# and is timed.  Adjusted seconds are seconds at the speed where one slice
# takes REFERENCE_NOMINAL_S.
SAMPLE_INTERVAL_S = 0.2
REFERENCE_ITERATIONS = 250
REFERENCE_NOMINAL_S = 0.004


def ring_spec(n_agents: int, phase: float) -> harness.ScenarioSpec:
    """N deputies on chords through the chief, RTA on.

    Chord k lies in the radial/along-track plane at angle phase + k*pi/N.
    Each deputy starts at -200 m on its chord and flies to +300 m and back
    twice.  N=2 at phase 0 is ``three_agent_standoff(True)``.
    """
    agents = []
    for k in range(n_agents):
        theta = phase + k * math.pi / n_agents
        chord = np.array([math.cos(theta), math.sin(theta), 0.0])
        agents.append(harness.AgentSpec(
            start=RelativeState(RING_START_M * chord, np.zeros(3)),
            waypoints=tuple(sign * RING_TURN_M * chord for sign in (1, -1, 1, -1))))
    return harness.ScenarioSpec(name="ring", agents=tuple(agents), rta_enabled=True)


# --- output checks ---------------------------------------------------------

def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def strict_loads(text: str):
    """Parse JSON text, rejecting NaN and infinities."""
    return json.loads(text, parse_constant=_reject_constant)


def strict_json(path):
    with open(path) as fh:
        return strict_loads(fh.read())


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_trajectory(path):
    """trajectory.csv as (times (T,), positions and velocities (T, N, 3))."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_agents = int(data[:, 1].max()) + 1
    if data.shape[0] % n_agents:
        raise ValueError("trajectory rows do not form whole ticks")
    ticks = data.reshape(-1, n_agents, data.shape[1])
    return ticks[:, 0, 0], ticks[:, :, 2:5], ticks[:, :, 5:8]


def check_scenario(metrics: dict, trajectory, waypoints: int, safety: bool) -> list:
    """Failures of one scenario run's outputs; empty when it passed.

    Every run must reach all its waypoints without abort or timeout.  With
    ``safety`` (RTA on) it must also keep criterion 7's bars: separation of
    at least 45 m to every peer and the chief, and speed of at most 3.3 m/s
    after 30 s.
    """
    failures = []
    agg = metrics["aggregate"]
    if agg["targets_reached"] != waypoints:
        failures.append(f"targets {agg['targets_reached']}/{waypoints}")
    if metrics["aborted"]:
        failures.append("propagation aborted")
    if metrics["timed_out"]:
        failures.append("leg timed out")
    if not safety:
        return failures
    t, pos, vel = trajectory
    n = pos.shape[1]
    separation = np.linalg.norm(pos[:, :, None, :] - pos[:, None, :, :], axis=-1)
    separation[:, np.arange(n), np.arange(n)] = np.inf
    min_sep = min(float(separation.min()), float(np.linalg.norm(pos, axis=-1).min()))
    if not min_sep >= MIN_SEPARATION_M:
        failures.append(f"separation {min_sep:.2f} m < {MIN_SEPARATION_M} m")
    late = np.linalg.norm(vel[t >= LATE_AFTER_S], axis=-1)
    if late.size and not float(late.max()) <= MAX_LATE_SPEED:
        failures.append(f"speed {float(late.max()):.3f} m/s > {MAX_LATE_SPEED} m/s")
    return failures


# --- passes ----------------------------------------------------------------

@dataclass
class PassResult:
    wall_s: float = 0.0
    step_s: float = 0.0  # time inside the stepping calls
    steps: int = 0       # agent control steps: agent-ticks or env steps
    ops: list = field(default_factory=list)  # (operation, [failures])
    fingerprint: dict = field(default_factory=dict)
    artifact_bytes: int = 0
    ref_s: float = 0.0   # mean reference slice time during this pass

    @property
    def steps_per_s(self) -> float:
        return self.steps / self.step_s if self.step_s > 0.0 else 0.0

    @property
    def speed_factor(self) -> float:
        """Nominal over measured reference slice time: below 1 when the
        machine ran slow during this pass."""
        return REFERENCE_NOMINAL_S / self.ref_s


class Hooks:
    """Boundary hooks cheap enough for untraced runs.

    They time the stepping calls the CLI makes (``cli.run`` and
    ``cli.baseline_stats``), and count RTA fallbacks, which mark a QP that
    was not solved to optimality.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # the clock every pass is timed with
        self.step_s, self.filter_calls, self.fallbacks = 0.0, 0, 0

    def _clock(self, fn):
        def timed(*args, **kwargs):
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.step_s += self.clock() - t0
        return timed

    def _count_fallbacks(self, fn):
        def counted(*args, **kwargs):
            decisions = fn(*args, **kwargs)
            self.filter_calls += 1
            self.fallbacks += sum(bool(d.fallback) for d in decisions)
            return decisions
        return counted

    @contextlib.contextmanager
    def installed(self):
        saved = [(cli, "run", cli.run), (cli, "baseline_stats", cli.baseline_stats),
                 (harness, "filter_actions", harness.filter_actions)]
        cli.run = self._clock(cli.run)
        cli.baseline_stats = self._clock(cli.baseline_stats)
        harness.filter_actions = self._count_fallbacks(harness.filter_actions)
        try:
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def take(self):
        """(stepping seconds, filter calls, fallbacks) since the last take."""
        out = (self.step_s, self.filter_calls, self.fallbacks)
        self.step_s, self.filter_calls, self.fallbacks = 0.0, 0, 0
        return out


def reference_slice() -> float:
    """Seconds taken by a fixed loop of interpreter work, 6x6 products and
    14x14 solves, the mix of the program's dynamics and QP inner loops.  It
    shares no code with ``proxops``, so only the machine's speed moves it."""
    a = np.eye(6) * 0.5 + 0.01
    m = np.eye(14) * 2.0 + 0.01
    y, b = np.ones(6), np.ones(14)
    total = 0.0
    t0 = time.perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        y = a @ y + 0.1
        total += float(y[i % 6]) + float(np.linalg.solve(m, b)[i % 14])
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the machine's speed while passes run.

    On a shared machine the same pass runs up to a third slower for stretches
    of tens of seconds.  While ``running``, a timer signal runs the reference
    slice every ``SAMPLE_INTERVAL_S`` and records its time, so a pass's speed
    is measured during the pass, not only between passes.  ``clock`` is
    ``perf_counter`` less the time spent sampling, so passes timed with it
    leave the samples out.
    """

    def __init__(self):
        self.slices = []
        self.spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.slices.append(reference_slice())
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def measure(workload, budget_s: float, first_index: int = 0, sampler=None) -> list:
    """Run passes until the next one would overrun ``budget_s`` (at least one).

    With a running ``sampler``, a pass's ``ref_s`` is the mean of the slices
    sampled during it.  A pass that raises counts as one failed operation.
    """
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        sampled = len(sampler.slices) if sampler is not None else 0
        try:
            result = workload.run_pass(first_index + len(passes))
        except Exception as exc:  # the program failed; count it, keep measuring
            result = PassResult(wall_s=time.perf_counter() - t0,
                                ops=[("pass", [f"{type(exc).__name__}: {exc}"])])
        if sampler is not None:
            # A pass shorter than the sampling interval takes its speed from
            # one slice run after it.
            result.ref_s = statistics.fmean(sampler.slices[sampled:] or
                                            [reference_slice()])
        passes.append(result)
        now = time.perf_counter()
        if now - start + (now - t0) > budget_s:
            return passes


def tally(passes) -> tuple:
    """(operations attempted, failed operations as (pass, operation, reasons))."""
    failures = [(i, op, why) for i, p in enumerate(passes) for op, why in p.ops if why]
    return sum(len(p.ops) for p in passes), failures


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _resolve(spec: harness.ScenarioSpec):
    """Resolve each agent's controller as ``proxops run`` does, so set-up time
    includes it and a controller that cannot load fails before the first step."""
    return [harness.make_controller(a.controller, spec.vehicle) for a in spec.agents]


class Workload:
    """Inputs built from a seed; ``run_pass`` runs them once and checks them."""

    def __init__(self, seed: int, out_dir, hooks: Hooks):
        self.seed = seed
        self.out_dir = out_dir
        self.hooks = hooks
        self.first_fingerprint = None

    def _fresh_dir(self, name):
        path = os.path.join(self.out_dir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def _check_scenario_outputs(self, result, label, metrics, out, waypoints,
                                safety, filter_calls, fallbacks):
        csv_path = os.path.join(out, "trajectory.csv")
        trajectory = read_trajectory(csv_path)
        failures = check_scenario(metrics, trajectory, waypoints, safety)
        if safety and fallbacks:
            failures.append(f"{fallbacks} non-optimal QP fallbacks")
        if safety and not filter_calls:
            failures.append("RTA filter was not called")
        ticks, n_agents = trajectory[1].shape[:2]
        result.steps += (ticks - 1) * n_agents  # the last tick only logs
        result.artifact_bytes += _dir_bytes(out)
        result.fingerprint[label] = {
            "trajectory_sha256": file_sha256(csv_path), "ticks": ticks,
            "targets_reached": metrics["aggregate"]["targets_reached"],
            "delta_v": metrics["aggregate"]["delta_v"]}
        result.ops.append((label, failures))

    def _cli_run(self, result, label, argv, out, waypoints, safety):
        """One ``proxops run`` through ``cli.main``, checked from its artifacts."""
        self.hooks.take()
        t0 = self.hooks.clock()
        code = cli.main(argv + ["--out", out])
        result.wall_s += self.hooks.clock() - t0
        step_s, filter_calls, fallbacks = self.hooks.take()
        result.step_s += step_s
        if code != 0:
            result.ops.append((label, [f"exit code {code}"]))
            return
        metrics = strict_json(os.path.join(out, "metrics.json"))
        strict_json(os.path.join(out, "plot_data.json"))
        strict_json(os.path.join(out, "config.json"))
        self._check_scenario_outputs(result, label, metrics, out, waypoints,
                                     safety, filter_calls, fallbacks)

    def _check_repeat(self, result, keys):
        """Identical inputs must give identical outputs on every pass."""
        current = {k: result.fingerprint.get(k) for k in keys}
        if self.first_fingerprint is None:
            self.first_fingerprint = current
        elif current != self.first_fingerprint:
            result.ops.append(("determinism", ["outputs differ from pass 0"]))


class StandoffRta(Workload):
    name = "standoff_rta"
    label = "run standoff --rta on"

    def __init__(self, seed, out_dir, hooks):
        super().__init__(seed, out_dir, hooks)
        self.argv = ["run", "--scenario", "standoff", "--rta", "on",
                     "--seed", str(seed)]
        spec = harness.builtin_scenario("standoff", rta_enabled=True)
        self.waypoints = sum(len(a.waypoints) for a in spec.agents)
        self.controllers = _resolve(spec)

    def run_pass(self, index):
        result = PassResult()
        self._cli_run(result, self.label, self.argv, self._fresh_dir("standoff"),
                      self.waypoints, safety=True)
        self._check_repeat(result, [self.label])
        return result


class RingRta(Workload):
    name = "ring_rta"
    label = f"ring N={RING_AGENTS}"

    def __init__(self, seed, out_dir, hooks):
        super().__init__(seed, out_dir, hooks)
        self.phase = float(np.random.default_rng(seed).uniform(
            0.0, math.pi / RING_AGENTS))
        self.spec = ring_spec(RING_AGENTS, self.phase)
        self.waypoints = sum(len(a.waypoints) for a in self.spec.agents)
        self.controllers = _resolve(self.spec)

    def run_pass(self, index):
        result = PassResult()
        out = self._fresh_dir("ring")
        self.hooks.take()
        t0 = self.hooks.clock()
        report, log = harness.run(self.spec)
        result.step_s = self.hooks.clock() - t0
        harness.write_csv(log, os.path.join(out, "trajectory.csv"))
        with open(os.path.join(out, "metrics.json"), "w") as fh:
            json.dump(report.as_dict(), fh, allow_nan=False)
        result.wall_s = self.hooks.clock() - t0
        _, filter_calls, fallbacks = self.hooks.take()
        self._check_scenario_outputs(result, self.label, report.as_dict(), out,
                                     self.waypoints, True, filter_calls, fallbacks)
        result.fingerprint["phase"] = self.phase
        self._check_repeat(result, [self.label])
        return result


class Train(Workload):
    name = "train"

    def __init__(self, seed, out_dir, hooks):
        super().__init__(seed, out_dir, hooks)
        self.cfg = training.TrainerConfig(
            total_steps=TRAIN_ITERATIONS * training.TrainerConfig().batch_size,
            seed=seed)

    def run_pass(self, index):
        result = PassResult()
        path = os.path.join(self._fresh_dir("train"), "policy.json")
        t0 = self.hooks.clock()
        trained, curve = training.train(trainer_cfg=self.cfg)
        result.step_s = self.hooks.clock() - t0
        rate, _ = training.evaluate_policy(trained, EVAL_EPISODES, seed=self.seed)
        policy.save_policy(trained, path)
        loaded = policy.load_policy(path)
        result.wall_s = self.hooks.clock() - t0
        result.steps = curve[-1].steps if curve else 0
        result.artifact_bytes = os.path.getsize(path)

        failures = []
        if len(curve) != TRAIN_ITERATIONS or result.steps != self.cfg.total_steps:
            failures.append(f"curve has {len(curve)} points, {result.steps} steps")
        if not all(math.isfinite(v) for p in curve for v in (p.mean_return, p.success_rate)):
            failures.append("non-finite learning curve")
        params = [*trained.weights, *trained.biases, trained.log_std]
        if not all(np.all(np.isfinite(p)) for p in params):
            failures.append("non-finite policy parameters")
        result.ops.append(("train", failures))
        result.ops.append(("evaluate_policy",
                           [] if 0.0 <= rate <= 1.0 else [f"success rate {rate}"]))
        strict_json(path)  # raises on NaN or infinities in the policy file
        same = all(np.array_equal(a, b) for a, b in zip(
            params, [*loaded.weights, *loaded.biases, loaded.log_std]))
        result.ops.append(("save/load", [] if same else ["round trip changed weights"]))
        result.fingerprint = {"policy_sha256": file_sha256(path),
                              "eval_success": rate,
                              "final_return": curve[-1].mean_return if curve else None}
        self._check_repeat(result, list(result.fingerprint))
        return result


class Episodes(Workload):
    name = "episodes"

    def __init__(self, seed, out_dir, hooks):
        super().__init__(seed, out_dir, hooks)
        self.runs = []
        self.controllers = []
        for scenario, extra in (("single", []), ("standoff", ["--rta", "off"])):
            spec = harness.builtin_scenario(scenario, rta_enabled=False)
            self.runs.append((" ".join(["run", scenario, *extra]),
                              ["run", "--scenario", scenario, *extra, "--seed", str(seed)],
                              scenario, sum(len(a.waypoints) for a in spec.agents)))
            self.controllers += _resolve(spec)
        self.dt = env.EpisodeConfig().dt

    def stats_seed(self, index: int) -> int:
        """Each pass samples its own 50 episodes, so a run's median covers
        many episode sets instead of hinging on one seed's episode lengths."""
        return self.seed * 100_000 + index

    def run_pass(self, index):
        result = PassResult()
        out = self._fresh_dir("baseline")
        argv = ["baseline-stats", "--trials", str(BASELINE_TRIALS),
                "--seed", str(self.stats_seed(index)), "--json", "--out", out]
        stdout = io.StringIO()
        self.hooks.take()
        t0 = self.hooks.clock()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        result.wall_s += self.hooks.clock() - t0
        result.step_s += self.hooks.take()[0]
        result.ops.append(("baseline-stats",
                           self._check_stats(result, code, stdout.getvalue(), out)))
        for label, argv, name, waypoints in self.runs:
            self._cli_run(result, label, argv, self._fresh_dir(name),
                          waypoints, safety=False)
        self._check_repeat(result, [label for label, *_ in self.runs])
        return result

    def _check_stats(self, result, code, text, out) -> list:
        if code != 0:
            return [f"exit code {code}"]
        printed = strict_loads(text)
        written = strict_json(os.path.join(out, "baseline_stats.json"))
        failures = []
        if printed != written:
            failures.append("printed and written stats differ")
        if written["n_trials"] != BASELINE_TRIALS:
            failures.append(f"n_trials {written['n_trials']}")
        rate = written["success_rate"]
        # Steps of the successful trials; every trial succeeds on unchanged code.
        result.steps += round(BASELINE_TRIALS * rate * written["mean_time"] / self.dt)
        result.artifact_bytes += _dir_bytes(out)
        result.fingerprint["baseline_success"] = rate
        return failures


WORKLOADS = {w.name: w for w in (StandoffRta, RingRta, Train, Episodes)}
