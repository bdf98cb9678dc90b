"""Outside-in span tracer for the benchmark.

The tracer replaces public functions of the ``proxops`` modules with timing
wrappers for the duration of a ``with tracer.installed():`` block.  Python
binds ``from .x import f`` names at import, so a function is wrapped in each
namespace it is called from (``harness.propagate_cwh`` and
``env.propagate_cwh`` are two targets that share one span name).  Nothing
inside the package is edited.

Spans (name, start, end, parent) are kept in memory; a span's self time is
its duration minus the durations of its direct children.  Observers attached
to some targets read counts off the arguments and return values (QP rows,
solver iterations, filter interventions) at the boundary where the work
happens.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

import proxops
import proxops.cli  # the package does not import its CLI module itself

INTERVENTION_TOL = 1e-6  # the harness's threshold for logging rta_active


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.samples = defaultdict(list)  # observer values keyed by metric
        self.unwrapped = set()  # targets missing from the code under test
        self.unobserved = set()  # targets whose observer no longer fits

    def wrap(self, fn, name, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    observe(self.samples, args, out)
                except (AttributeError, TypeError, IndexError):
                    # the call's interface changed; keep tracing, say so
                    self.unobserved.add(name)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every ``(owner, attribute, span name, observer)`` target.

        ``owner`` is a dotted path under ``proxops``; targets the code under
        test no longer has are listed in ``unwrapped`` and skipped.
        """
        saved = []
        try:
            for path, attr, name, observe in targets:
                owner = proxops
                for part in path.split("."):
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.unwrapped.add(f"{path}.{attr}")
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, name, observe))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def summary(self):
        """Per span name: call count, total and self seconds, durations."""
        durations = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent), dur in zip(self.spans, durations):
            if parent >= 0:
                child[parent] += dur
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "durations": []})
        for (name, _, _, _), dur, inner in zip(self.spans, durations, child):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - inner
            entry["durations"].append(dur)
        return dict(out)

    def save(self, path) -> None:
        """Write every span as columns of an ``.npz`` file."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        np.savez(path, names=np.array(names),
                 name=np.array([index[s[0]] for s in self.spans], dtype=np.int32),
                 start=np.array([s[1] for s in self.spans]),
                 end=np.array([s[2] for s in self.spans]),
                 parent=np.array([s[3] for s in self.spans], dtype=np.int64))


# --- observers: (samples, call arguments, return value) -> None ------------

def observe_build_qp(samples, args, out):
    problem = out[0] if isinstance(out, tuple) else out
    samples["rta.rows_per_qp"].append(len(problem.rows))


def observe_solve(samples, args, out):
    samples["qp.iterations"].append(out.iterations)
    samples["qp.kkt_residual"].append(out.kkt_residual)
    samples["qp.nonoptimal"].append(int(out.status != "optimal"))


def observe_filter(samples, args, out):
    desired = args[1]
    for decision, u_des in zip(out, desired):
        change = np.max(np.abs(np.asarray(decision.u_safe) - np.asarray(u_des)))
        samples["rta.intervened"].append(int(change > INTERVENTION_TOL))
        samples["rta.fallbacks"].append(int(decision.fallback))


def observe_harness_run(samples, args, out):
    samples["harness.records"].append(len(out[1].records))


def observe_loss(samples, args, out):
    samples["training.minibatches"].append(1)


# Every wrapped name, by the ``proxops`` namespace it is called from: first the
# calls the benchmark makes itself, then the calls one layer makes into another.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("harness", "run", "harness.run", observe_harness_run),
    ("harness", "write_csv", "harness.write_csv", None),
    ("training", "train", "training.train", None),
    ("training", "evaluate_policy", "training.evaluate_policy", None),
    ("policy", "save_policy", "policy.save_policy", None),
    ("policy", "load_policy", "policy.load_policy", None),

    ("cli", "cmd_run", "cli.cmd_run", None),
    ("cli", "cmd_baseline_stats", "cli.cmd_baseline_stats", None),
    ("cli", "builtin_scenario", "harness.builtin_scenario", None),
    ("cli", "make_controller", "harness.make_controller", None),
    ("cli", "run", "harness.run", observe_harness_run),
    ("cli", "baseline_stats", "harness.baseline_stats", None),
    ("cli", "write_csv", "cli.write_csv", None),

    ("harness", "make_controller", "harness.make_controller", None),
    ("harness", "observe", "env.observe", None),
    ("harness", "step", "env.step", None),
    ("harness", "baseline_act", "policy.baseline_act", None),
    ("harness", "policy_act", "policy.policy_act", None),
    ("harness", "filter_actions", "rta.filter", observe_filter),
    ("harness", "propagate_cwh", "dynamics.propagate", None),
    ("harness", "compute_metrics", "harness.compute_metrics", None),

    ("env", "propagate_cwh", "dynamics.propagate", None),
    ("env", "observe", "env.observe", None),

    ("training", "observe", "env.observe", None),
    ("training", "step", "env.step", None),
    ("training", "policy_act", "policy.policy_act", None),
    ("training", "surrogate_loss_and_grad", "training.update.loss", observe_loss),
    ("training", "value_loss_and_grad", "training.update.loss", None),
    ("training.Adam", "step", "training.update.adam", None),
    ("policy.MlpPolicy", "pre_squash", "policy.mlp_forward", None),

    ("rta", "build_qp", "rta.build_qp", observe_build_qp),
    ("qp", "solve", "qp.solve", observe_solve),
)


# --- per-layer metrics -----------------------------------------------------

LAYERS = ("dynamics", "env", "policy", "training", "qp", "rta", "harness", "cli")

PER_LAYER = (
    ("dynamics.propagate.calls", "count"),
    ("dynamics.propagate.self_s", "s"),
    ("dynamics.propagate.us_per_call", "us"),
    ("env.step.calls", "count"),
    ("env.step.self_s", "s"),
    ("env.observe.self_s", "s"),
    ("policy.baseline_act.self_s", "s"),
    ("policy.mlp_forward.calls", "count"),
    ("policy.mlp_forward.self_s", "s"),
    ("training.update.loss_s", "s"),
    ("training.update.adam_s", "s"),
    ("training.minibatches", "count"),
    ("training.self_s", "s"),
    ("rta.filter.calls", "count"),
    ("rta.filter.self_s", "s"),
    ("rta.filter.p50_us", "us"),
    ("rta.filter.p99_us", "us"),
    ("rta.build_qp.self_s", "s"),
    ("rta.rows_per_qp", "count"),
    ("rta.intervened_frac", "ratio"),
    ("rta.fallbacks", "count"),
    ("qp.solve.calls", "count"),
    ("qp.solve.self_s", "s"),
    ("qp.solve.p99_us", "us"),
    ("qp.iterations.mean", "count"),
    ("qp.iterations.max", "count"),
    ("qp.kkt_residual.max", "1"),
    ("qp.nonoptimal", "count"),
    ("harness.run.self_s", "s"),
    ("harness.records", "count"),
    ("harness.compute_metrics.self_s", "s"),
    ("cli.artifacts.self_s", "s"),
    ("cli.artifact_bytes", "bytes"),
    *((f"layer.{layer}.self_s", "s") for layer in LAYERS),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.spans", "count"),
)


def _percentile_us(durations, q):
    return float(np.percentile(durations, q)) * 1e6 if durations else 0.0


def layer_metrics(tracer: Tracer, passes: int, traced_walls, untraced_walls,
                  artifact_bytes: float) -> dict:
    """Per-pass layer values from the spans of ``passes`` traced passes.

    Times and counts are per pass (totals over the traced passes divided by
    their number); percentiles and means pool every sample.
    """
    spans = tracer.summary()
    samples = tracer.samples
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def get(name):
        return spans.get(name, empty)

    def self_s(*names):
        return sum(get(n)["self_s"] for n in names) / passes

    def calls(name):
        return get(name)["calls"] / passes

    def mean(key):
        values = samples.get(key)
        return float(np.mean(values)) if values else 0.0

    def peak(key):
        values = samples.get(key)
        return float(np.max(values)) if values else 0.0

    prop = get("dynamics.propagate")
    layer_self = defaultdict(float)
    for name, entry in spans.items():
        layer_self[name.split(".")[0]] += entry["self_s"]
    values = {
        "dynamics.propagate.calls": calls("dynamics.propagate"),
        "dynamics.propagate.self_s": self_s("dynamics.propagate"),
        "dynamics.propagate.us_per_call": (prop["total_s"] / prop["calls"] * 1e6
                                           if prop["calls"] else 0.0),
        "env.step.calls": calls("env.step"),
        "env.step.self_s": self_s("env.step"),
        "env.observe.self_s": self_s("env.observe"),
        "policy.baseline_act.self_s": self_s("policy.baseline_act"),
        "policy.mlp_forward.calls": calls("policy.mlp_forward"),
        "policy.mlp_forward.self_s": self_s("policy.mlp_forward"),
        "training.update.loss_s": self_s("training.update.loss"),
        "training.update.adam_s": self_s("training.update.adam"),
        "training.minibatches": len(samples.get("training.minibatches", ())) / passes,
        "training.self_s": self_s("training.train", "training.evaluate_policy"),
        "rta.filter.calls": calls("rta.filter"),
        "rta.filter.self_s": self_s("rta.filter"),
        "rta.filter.p50_us": _percentile_us(get("rta.filter")["durations"], 50),
        "rta.filter.p99_us": _percentile_us(get("rta.filter")["durations"], 99),
        "rta.build_qp.self_s": self_s("rta.build_qp"),
        "rta.rows_per_qp": mean("rta.rows_per_qp"),
        "rta.intervened_frac": mean("rta.intervened"),
        "rta.fallbacks": sum(samples.get("rta.fallbacks", ())) / passes,
        "qp.solve.calls": calls("qp.solve"),
        "qp.solve.self_s": self_s("qp.solve"),
        "qp.solve.p99_us": _percentile_us(get("qp.solve")["durations"], 99),
        "qp.iterations.mean": mean("qp.iterations"),
        "qp.iterations.max": peak("qp.iterations"),
        "qp.kkt_residual.max": peak("qp.kkt_residual"),
        "qp.nonoptimal": sum(samples.get("qp.nonoptimal", ())) / passes,
        "harness.run.self_s": self_s("harness.run"),
        "harness.records": sum(samples.get("harness.records", ())) / passes,
        "harness.compute_metrics.self_s": self_s("harness.compute_metrics"),
        # Command handlers outside the stepping call: config merge (tens of
        # microseconds), metrics/plot/config JSON, and the trajectory CSV.
        "cli.artifacts.self_s": self_s("cli.cmd_run", "cli.cmd_baseline_stats",
                                       "cli.write_csv"),
        "cli.artifact_bytes": artifact_bytes,
        **{f"layer.{layer}.self_s": layer_self[layer] / passes for layer in LAYERS},
        "trace.wall_s": statistics.fmean(traced_walls),
        "trace.untraced_wall_s": statistics.fmean(untraced_walls),
        "trace.overhead_s": (statistics.fmean(traced_walls)
                             - statistics.fmean(untraced_walls)),
        "trace.self_sum_s": sum(e["self_s"] for e in spans.values()) / passes,
        "trace.spans": len(tracer.spans) / passes,
    }
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {name} is not finite: {value}")
    return values
