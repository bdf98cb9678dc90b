"""Command-line entry point: scenario runs, training, baseline statistics.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
Identical invocations produce identical files.  ``train`` and
``baseline-stats`` draw from --seed; ``run`` records --seed in config.json,
but the built-in scenarios are fixed and do not read it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .harness import (
    baseline_stats,
    builtin_scenario,
    crossing_times,
    make_controller,
    pair_distances,
    run,
    write_csv,
)
from .policy import PolicyFileError, load_policy, save_policy
from .training import TrainerConfig, TrainingDivergence, curve_rows, train

CONFIG_KEYS = ("scenario", "rta", "controller", "seed", "control_dt", "sim_dt")
DEFAULT_CONFIG = {"scenario": "single", "rta": "off", "controller": "baseline",
                  "seed": 0, "control_dt": 1.0, "sim_dt": 0.1}


def _merge_config(args) -> dict:
    """Defaults, then config-file values, then explicit flags."""
    cfg = dict(DEFAULT_CONFIG)
    if args.config is not None:
        with open(args.config) as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - set(CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key, value in (("scenario", args.scenario), ("rta", args.rta),
                       ("controller", args.controller), ("seed", args.seed),
                       ("control_dt", args.control_dt),
                       ("sim_dt", args.sim_dt)):
        if value is not None:
            cfg[key] = value
    if cfg["rta"] not in ("on", "off"):
        raise ValueError(f"rta must be 'on' or 'off', got {cfg['rta']!r}")
    return cfg


def _plot_data(log) -> dict:
    """Per-agent and pairwise time series for distance/speed/RTA plots."""
    agents = {}
    for k in range(log.n_agents):
        recs = log.agent_records(k)
        agents[str(k)] = {
            "t": [r.t for r in recs],
            "dist_goal": [r.dist_goal for r in recs],
            "speed": [float(np.linalg.norm(r.vel)) for r in recs],
            "rta_active": [int(r.rta_active) for r in recs],
        }
    pairs = {key: {"t": [t for t, _ in series], "dist": [d for _, d in series]}
             for key, series in pair_distances(log).items()}
    crossings = {key: [[t, d] for t, d in series]
                 for key, series in crossing_times(log).items()}
    return {"agents": agents, "pair_distances": pairs,
            "crossing_times": crossings}


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_run(args) -> int:
    try:
        cfg = _merge_config(args)
        spec = builtin_scenario(cfg["scenario"], rta_enabled=cfg["rta"] == "on")
        spec = dataclasses.replace(
            spec,
            agents=tuple(dataclasses.replace(a, controller=cfg["controller"])
                         for a in spec.agents),
            control_dt=float(cfg["control_dt"]), sim_dt=float(cfg["sim_dt"]),
            seed=int(cfg["seed"]))
        make_controller(cfg["controller"], spec.vehicle)  # fail fast
    except (KeyError, ValueError, OSError, json.JSONDecodeError,
            PolicyFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report, log = run(spec)
    os.makedirs(args.out, exist_ok=True)
    write_csv(log, os.path.join(args.out, "trajectory.csv"))
    _write_json(os.path.join(args.out, "metrics.json"), report.as_dict())
    _write_json(os.path.join(args.out, "plot_data.json"), _plot_data(log))
    _write_json(os.path.join(args.out, "config.json"), cfg)
    if report.aborted:
        print("error: propagation aborted; partial artifacts written",
              file=sys.stderr)
        return 1
    return 0


def cmd_train(args) -> int:
    try:
        trainer_cfg = TrainerConfig(total_steps=args.steps, seed=args.seed)
        init_policy = load_policy(args.resume) if args.resume else None
    except (ValueError, OSError, PolicyFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        policy, curve = train(trainer_cfg=trainer_cfg, init_policy=init_policy)
    except TrainingDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(args.out, exist_ok=True)
    save_policy(policy, os.path.join(args.out, "policy.json"))
    with open(os.path.join(args.out, "learning_curve.csv"), "w") as fh:
        fh.write("steps,mean_return,success_rate\n")
        for steps, mean_return, success in curve_rows(curve):
            fh.write(f"{steps},{mean_return!r},{success!r}\n")
    return 0


def cmd_baseline_stats(args) -> int:
    try:
        stats = baseline_stats(args.trials, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = stats.as_dict()
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        width = max(len(k) for k in payload)
        for key, value in payload.items():
            print(f"{key:<{width}}  {value}")
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "baseline_stats.json"), payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxops",
        description="Proximity-operations simulator: scenarios, training, stats.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write artifacts")
    p_run.add_argument("--scenario", choices=("single", "standoff"))
    p_run.add_argument("--config", help="JSON config file; flags override it")
    p_run.add_argument("--rta", choices=("on", "off"))
    p_run.add_argument("--controller",
                       help="'baseline' or 'policy:<path>'")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--control-dt", type=float, dest="control_dt")
    p_run.add_argument("--sim-dt", type=float, dest="sim_dt")
    p_run.add_argument("--out", default="proxops-out")
    p_run.set_defaults(func=cmd_run)

    p_train = sub.add_parser("train", help="train a waypoint policy")
    p_train.add_argument("--steps", type=int, default=TrainerConfig().total_steps)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--resume", help="policy file to continue from")
    p_train.add_argument("--out", default="proxops-out")
    p_train.set_defaults(func=cmd_train)

    p_stats = sub.add_parser("baseline-stats",
                             help="baseline controller trial statistics")
    p_stats.add_argument("--trials", type=int, default=50)
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument("--json", action="store_true",
                         help="machine-readable output")
    p_stats.add_argument("--out", help="also write baseline_stats.json here")
    p_stats.set_defaults(func=cmd_baseline_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
