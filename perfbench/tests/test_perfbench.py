"""Tests of the benchmark itself: ring generator, failure counting, names.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import run as bench
import tracer
import workloads
from proxops.harness import three_agent_standoff

ROOT = bench.ROOT


def test_ring_of_two_at_phase_zero_is_the_standoff():
    ring = workloads.ring_spec(2, 0.0)
    standoff = three_agent_standoff(True)
    assert len(ring.agents) == len(standoff.agents)
    for a, b in zip(ring.agents, standoff.agents):
        np.testing.assert_allclose(a.start.pos, b.start.pos, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(a.start.vel, b.start.vel)
        np.testing.assert_allclose(np.array(a.waypoints), np.array(b.waypoints),
                                   rtol=0, atol=1e-12)
        assert a.controller == b.controller
    for name in ("rta_enabled", "control_dt", "sim_dt", "acceptance_radius",
                 "leg_timeout", "orbit", "vehicle", "rta_params"):
        assert getattr(ring, name) == getattr(standoff, name)


def _metrics(targets=8):
    return {"aggregate": {"targets_reached": targets}, "aborted": False,
            "timed_out": False}


def test_planted_40m_separation_fails_the_check():
    t = np.arange(50.0)
    pos = np.zeros((50, 2, 3))
    pos[:, 0, 0], pos[:, 1, 0] = 100.0, 140.0  # 40 m apart, 100 m from the chief
    vel = np.zeros((50, 2, 3))
    failures = workloads.check_scenario(_metrics(), (t, pos, vel), 8, safety=True)
    assert len(failures) == 1 and "separation 40.00 m" in failures[0]
    pos[:, 1, 0] = 145.0
    assert workloads.check_scenario(_metrics(), (t, pos, vel), 8, safety=True) == []
    vel[40:, 0, 1] = 3.4
    assert "speed" in workloads.check_scenario(_metrics(), (t, pos, vel), 8, True)[0]


def test_planted_bad_run_counts_in_failed_frac(tmp_path, monkeypatch):
    """The standoff with the filter off flies through the chief: one pass,
    one operation, one failure."""
    hooks = workloads.Hooks()
    workload = workloads.StandoffRta(0, str(tmp_path), hooks)
    monkeypatch.setattr(workload, "argv", ["run", "--scenario", "standoff",
                                           "--rta", "off"])
    with hooks.installed():
        passes = workloads.measure(workload, 0.0)
    attempted, failures = workloads.tally(passes)
    assert (attempted, len(failures)) == (1, 1)
    reasons = failures[0][2]
    assert any(r.startswith("separation") for r in reasons)
    assert "RTA filter was not called" in reasons


def test_speed_sampler_leaves_its_slices_out_of_the_clock():
    sampler = workloads.SpeedSampler()
    handler = signal.getsignal(signal.SIGALRM)
    with sampler.running():
        t0, c0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - t0 < 1.0:
            pass
        wall, clocked = time.perf_counter() - t0, sampler.clock() - c0
    assert len(sampler.slices) >= 3
    assert wall - clocked == pytest.approx(sampler.spent, abs=1e-4)
    assert sampler.spent >= sum(sampler.slices)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_self_times_add_up_to_the_root_span():
    t = tracer.Tracer()
    leaf = t.wrap(lambda: sum(range(20000)), "b.leaf")
    root = t.wrap(lambda: leaf() + leaf(), "a.root")
    assert root() == 2 * sum(range(20000))
    summary = t.summary()
    assert summary["b.leaf"]["calls"] == 2 and summary["a.root"]["calls"] == 1
    assert [s[3] for s in t.spans] == [-1, 0, 0]
    total = sum(e["self_s"] for e in summary.values())
    assert total == pytest.approx(summary["a.root"]["total_s"], rel=1e-9)


def test_every_trace_target_exists():
    t = tracer.Tracer()
    with t.installed(tracer.TARGETS):
        pass
    assert t.unwrapped == set()
    with t.installed([("qp", "no_such_function", "qp.none", None)]):
        pass
    assert t.unwrapped == {"qp.no_such_function"}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert list(bench.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_every_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "episodes",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 3
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "standoff_rta",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
