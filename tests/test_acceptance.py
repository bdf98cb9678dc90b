"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Tolerances are pinned here and nowhere else.  Each test prints its verdict
before asserting so failures still leave a visible line in the output.
"""

import functools
import time

import numpy as np

from proxops.cli import main as cli_main
from proxops.dynamics import (
    ChiefOrbit,
    RelativeState,
    VehicleParams,
    circular_chief_state,
    cwh_closed_form,
    eci_to_hill,
    hill_to_eci,
    propagate_cwh,
    propagate_inertial,
)
from proxops.env import DEFAULT_BOUNDS, norms, reward
from proxops.harness import (
    ScenarioSpec,
    pair_distances,
    run,
    single_agent_passes,
    three_agent_standoff,
)
from proxops.qp import OPTIMAL, kkt_residual, solve
from proxops.rta import RtaParams, build_qp, filter_actions
from proxops.training import TrainerConfig, curve_rows, evaluate_policy, train

ORBIT = ChiefOrbit()
VEH = VehicleParams()


def _report(num, label, ok, detail):
    print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


@functools.lru_cache(maxsize=None)
def _standoff(rta: bool):
    return run(three_agent_standoff(rta_enabled=rta))


def test_criterion_01_dynamics_oracle():
    rng = np.random.default_rng(2024)
    bounds = np.asarray(DEFAULT_BOUNDS)
    states = [RelativeState(rng.uniform(-bounds, bounds),
                            rng.uniform(-5.0, 5.0, 3)) for _ in range(100)]
    t0 = time.perf_counter()
    worst = 0.0
    for s in states:
        numeric = propagate_cwh(s, np.zeros(3), 500.0, ORBIT, VEH, substeps=500)
        exact = cwh_closed_form(s, 500.0, ORBIT)
        diff = np.concatenate([numeric.pos - exact.pos, numeric.vel - exact.vel])
        ref = np.concatenate([exact.pos, exact.vel])
        worst = max(worst, float(np.linalg.norm(diff) / np.linalg.norm(ref)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(1, "dynamics oracle", ok,
            f"worst rel err {worst:.2e} <= 1e-6, {elapsed:.2f}s < 5s")


def test_criterion_02_linearization():
    orbit = ChiefOrbit()
    chief0 = circular_chief_state(orbit)
    rel0 = RelativeState([0.0, 200.0, 0.0], [0.0, 0.0, 0.0])
    deputy0 = hill_to_eci(chief0, rel0)
    chief = propagate_inertial(chief0, 500.0, orbit)
    deputy = propagate_inertial(deputy0, 500.0, orbit)
    nonlinear = eci_to_hill(chief, deputy)
    linear = cwh_closed_form(rel0, 500.0, orbit)
    err = float(np.linalg.norm(nonlinear.pos - linear.pos))
    ok = err < 0.01 * 200.0
    _report(2, "linearization check", ok, f"divergence {err:.4f}m < 2m over 500s")


def _random_feasible_problem(rng):
    dim = int(rng.integers(2, 13))
    n_rows = int(rng.integers(1, 13))
    weights = rng.uniform(0.5, 3.0, dim)
    center = rng.uniform(-1.0, 1.0, dim)
    coeffs, rhs = np.zeros((n_rows, dim)), np.zeros(n_rows)
    for i in range(n_rows):
        a = rng.normal(size=dim)
        coeffs[i] = a / np.linalg.norm(a)
        rhs[i] = rng.uniform(0.05, 1.0)
    return weights, center, coeffs, rhs


def _objective(weights, centres, x):
    d = np.asarray(x, dtype=float) - centres
    return float(np.sum(weights * d * d))


def _grid_minimum(weights, centres, coeffs, rhs, step=1e-3):
    lo, hi, current = np.full(3, -4.0), np.full(3, 4.0), 0.1
    while True:
        axes = [np.arange(lo[k], hi[k] + current / 2, current) for k in range(3)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        ok = np.ones(len(pts), dtype=bool)
        for a, b in zip(coeffs, rhs):
            ok &= pts @ a <= b + 1e-12
        pts = pts[ok]
        d = pts - centres
        obj = (d * d * weights).sum(axis=1)
        best = pts[int(np.argmin(obj))]
        if current <= step:
            return float(np.min(obj))
        lo, hi, current = best - 1.5 * current, best + 1.5 * current, current / 10.0


def test_criterion_03_qp_solver():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()

    worst_kkt = 0.0
    for _ in range(1000):
        sol = solve(*_random_feasible_problem(rng))
        assert sol.status == OPTIMAL
        worst_kkt = max(worst_kkt, sol.kkt_residual)

    worst_box = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 8))
        weights = rng.uniform(0.5, 4.0, dim)
        center = rng.uniform(-3.0, 3.0, dim)
        lo = rng.uniform(-1.5, -0.2, dim)
        hi = rng.uniform(0.2, 1.5, dim)
        box = np.kron(np.eye(dim), [[1.0], [-1.0]])  # +x_k <= hi_k, then -x_k <= -lo_k
        sol = solve(weights, center, box, np.stack([hi, -lo], axis=1).ravel())
        worst_box = max(worst_box, float(np.max(np.abs(sol.x - np.clip(center, lo, hi)))))

    worst_grid = -np.inf
    for _ in range(20):
        weights, centres = rng.uniform(0.5, 3.0, 3), rng.uniform(-1.0, 1.0, 3)
        normals = rng.normal(size=(int(rng.integers(1, 9)), 3))
        coeffs = np.array([a / np.linalg.norm(a) for a in normals])
        rhs = np.array([rng.uniform(0.05, 1.0) for _ in normals])
        sol = solve(weights, centres, coeffs, rhs)
        worst_grid = max(worst_grid, _objective(weights, centres, sol.x)
                         - _grid_minimum(weights, centres, coeffs, rhs))
    elapsed = time.perf_counter() - t0

    ok = (worst_kkt < 1e-6 and worst_box <= 1e-9 and worst_grid <= 1e-5
          and elapsed < 10.0)
    _report(3, "qp solver", ok,
            f"kkt {worst_kkt:.1e} < 1e-6, box {worst_box:.1e} <= 1e-9, "
            f"grid excess {worst_grid:.1e} <= 1e-5, {elapsed:.1f}s < 10s")


def test_criterion_04_reward_examples():
    errs = [
        abs(reward([0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]) - 1e-3),
        abs(reward([100.0, 0, 0], [101.0, 0, 0], [0.1, 0, 0], np.zeros(3))
            - 0.01000990099009901),
        abs(reward([1.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], np.zeros(3))
            - (-0.0195)),
    ]
    ok = max(errs) <= 1e-12
    _report(4, "reward unit suite", ok, f"max abs err {max(errs):.1e} <= 1e-12")


def test_criterion_05_experiment1_baseline():
    t0 = time.perf_counter()
    report, _ = run(single_agent_passes())
    elapsed = time.perf_counter() - t0
    agg = report.aggregate
    ok = (agg.targets_reached == 4 and not report.timed_out
          and agg.distance_traveled <= 1.25 * 2300.0 and elapsed < 30.0)
    _report(5, "experiment 1 baseline", ok,
            f"targets {agg.targets_reached}/4, dist {agg.distance_traveled:.0f}m "
            f"<= {1.25 * 2300:.0f}m, {elapsed:.1f}s < 30s")


def test_criterion_06_experiment2_no_rta():
    report, log = _standoff(False)
    min_dist = min(float(d.min()) for d in pair_distances(log).values())

    standoff = three_agent_standoff(rta_enabled=False)
    worst_gap = 0.0
    for k, agent in enumerate(standoff.agents):
        solo_spec = ScenarioSpec(name="solo", agents=(agent,),
                                 rta_enabled=False,
                                 control_dt=standoff.control_dt,
                                 sim_dt=standoff.sim_dt,
                                 acceptance_radius=standoff.acceptance_radius,
                                 leg_timeout=standoff.leg_timeout)
        _, solo = run(solo_spec)
        m = min(len(log.t), len(solo.t))
        worst_gap = max(worst_gap,
                        float(np.max(np.abs(log.pos[:m, k] - solo.pos[:m, 0]))),
                        float(np.max(np.abs(log.vel[:m, k] - solo.vel[:m, 0]))))

    ok = (report.aggregate.targets_reached == 8 and worst_gap <= 1e-9
          and min_dist < 50.0)
    _report(6, "experiment 2 no RTA", ok,
            f"targets {report.aggregate.targets_reached}/8, solo gap "
            f"{worst_gap:.1e} <= 1e-9, min dist {min_dist:.1f}m < 50m")


def test_criterion_07_experiment3_rta():
    t0 = time.perf_counter()
    report3, log3 = _standoff(True)
    elapsed = time.perf_counter() - t0
    report2, _ = _standoff(False)

    min_dist = min(float(d.min()) for d in pair_distances(log3).values())
    late_speed = float(norms(log3.vel[log3.t >= 30.0]).max())
    ok = (report3.aggregate.targets_reached == 8 and not report3.timed_out
          and min_dist >= 45.0 and late_speed <= 3.3
          and report3.aggregate.time_taken > report2.aggregate.time_taken
          and report3.aggregate.delta_v > report2.aggregate.delta_v
          and elapsed < 120.0)
    _report(7, "experiment 3 RTA", ok,
            f"targets {report3.aggregate.targets_reached}/8, min dist "
            f"{min_dist:.1f}m >= 45m, speed {late_speed:.2f} <= 3.3m/s, "
            f"time x{report3.aggregate.time_taken / report2.aggregate.time_taken:.2f}, "
            f"dv x{report3.aggregate.delta_v / report2.aggregate.delta_v:.2f}, "
            f"{elapsed:.1f}s < 120s")


def test_criterion_08_minimal_intervention():
    rng = np.random.default_rng(42)
    params = RtaParams()
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 20000, "snapshot sampler starved"
        # agent 0 is filtered; agent 1, commanding zero, is its peer
        pos, vel = rng.uniform(-200, 200, 3), rng.uniform(-1.5, 1.5, 3)
        accel = np.array([rng.uniform(-0.2, 0.2, 3), np.zeros(3)])
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        peer_pos = pos + rng.uniform(200, 400) * direction
        states = np.array([[*pos, *vel], [*peer_pos, *rng.uniform(-1.5, 1.5, 3)]])
        desired = np.array([rng.uniform(-0.8, 0.8, 3), np.zeros(3)])
        _, _, coeffs, rhs = build_qp(states, desired, accel, ORBIT, params, VEH, 0)
        if min(rhs - coeffs[:, :3] @ desired[0]) <= 1e-3:
            continue
        checked += 1
        decision = filter_actions(states, desired, accel, ORBIT, params, VEH)[0]
        worst = max(worst, float(np.max(np.abs(decision.u_safe - desired[0]))))
    ok = worst <= 1e-6
    _report(8, "minimal intervention", ok,
            f"{checked} safe snapshots of {attempts}, worst deviation {worst:.1e} <= 1e-6")


def test_criterion_09_trainer_soft_goal(tmp_path):
    policy, curve = train(trainer_cfg=TrainerConfig(total_steps=300_000, seed=0))
    # the curve is emitted before any gate is checked
    curve_path = tmp_path / "learning_curve.csv"
    with open(curve_path, "w") as fh:
        fh.write("steps,mean_return,success_rate\n")
        for steps, mean_return, success in curve_rows(curve):
            fh.write(f"{steps},{mean_return!r},{success!r}\n")
    rate, mean_time = evaluate_policy(policy, 50, seed=123)
    ok = rate >= 0.90 and len(curve) > 0 and curve[-1].steps <= 1_000_000
    _report(9, "trainer soft goal", ok,
            f"eval success {rate:.2f} >= 0.90 over 50 episodes, mean time "
            f"{mean_time:.0f}s, {curve[-1].steps} steps, curve at {curve_path}")


def test_criterion_10_cli_determinism(tmp_path):
    pairs = []
    for label, argv in (("single", ["run", "--scenario", "single", "--seed", "7"]),
                        ("standoff", ["run", "--scenario", "standoff",
                                      "--rta", "on", "--seed", "7"])):
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{label}-{rep}"
            assert cli_main(argv + ["--out", str(out)]) == 0
            outs.append((out / "trajectory.csv").read_bytes())
        pairs.append((label, outs[0] == outs[1]))
    ok = all(same for _, same in pairs)
    _report(10, "cli determinism", ok,
            ", ".join(f"{label} byte-identical: {same}" for label, same in pairs))
