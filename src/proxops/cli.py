"""Command-line entry point: scenario runs, training, baseline statistics.

Exit codes: 0 success, 1 runtime failure, including an artifact that cannot
be written, 2 usage or configuration error, including an --out that cannot
be made a directory; each command checks its inputs and creates --out before
any work.
Identical invocations produce identical files.  ``train`` and
``baseline-stats`` draw from --seed.  ``run`` only echoes --seed into
config.json: the built-in scenarios are fixed and no scenario setting holds
a seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .env import norms
from .harness import (
    baseline_stats,
    builtin_scenario,
    local_minima,
    make_controller,
    pair_distances,
    run,
    write_csv,
)
from .policy import PolicyFileError, brief, brief_path, load_policy, save_policy
from .training import TrainerConfig, curve_rows, train

CONFIG_TYPES = {"scenario": str, "rta": str, "controller": str, "seed": int,
                "control_dt": (int, float), "sim_dt": (int, float)}
DEFAULT_CONFIG = {"scenario": "single", "rta": "off", "controller": "baseline",
                  "seed": 0, "control_dt": 1.0, "sim_dt": 0.1}
MAX_TRIALS = 100_000
"""Most ``baseline-stats --trials``: 100,000 lock-step episodes peak near 93 MB of memory."""


def _merge_config(args) -> dict:
    """Defaults, then config-file values, then explicit flags."""
    cfg = dict(DEFAULT_CONFIG)
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except RecursionError as exc:
                raise ValueError(f"config file {brief_path(args.config)} nests too deeply") from exc
        if not isinstance(loaded, dict):
            raise ValueError(f"config file must hold a JSON object, got {brief(loaded)}")
        for key, value in loaded.items():
            if key not in CONFIG_TYPES:
                raise ValueError(f"unknown config key {brief(key)}")
            if isinstance(value, bool) or not isinstance(value, CONFIG_TYPES[key]):
                raise ValueError(f"config key {key!r} has the wrong type: {brief(value)}")
        cfg.update(loaded)
    for key in CONFIG_TYPES:  # each config key is also a flag's dest
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    if cfg["rta"] not in ("on", "off"):
        raise ValueError(f"rta must be 'on' or 'off', got {brief(cfg['rta'])}")
    return cfg


def _plot_data(log) -> dict:
    """Per-agent and pairwise plot series on one time axis ``t``, and crossing times."""
    speeds = norms(log.vel)
    agents = {str(k): {"dist_goal": log.dist_goal[:, k].tolist(), "speed": speeds[:, k].tolist(),
                       "rta_active": log.rta_active[:, k].astype(int).tolist()}
              for k in range(log.n_agents)}
    distances = pair_distances(log)
    return {"t": log.t.tolist(), "agents": agents,
            "pair_distances": {key: d.tolist() for key, d in distances.items()},
            "crossing_times": local_minima(log.t, distances)}


def _json_text(payload) -> str:
    """One line of strict JSON with sorted keys, by json's C encoder (no
    indent); raises ValueError on NaN or infinities."""
    return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"


def _reason(exc) -> str:
    """``str(exc)``, with the file an OSError names shown by :func:`brief_path`."""
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"[Errno {exc.errno}] {exc.strerror}: '{brief_path(exc.filename)}'"
    return str(exc)


def _write_artifacts(out, writers) -> bool:
    """Call each ``(file name, write)`` pair's ``write`` with the file's path
    in ``out``, in order.  On the first ValueError or OSError, print one
    error line naming the file, write nothing more and return False."""
    for name, write in writers:
        try:
            write(os.path.join(out, name))
        except (ValueError, OSError) as exc:
            print(f"error: {name} not written: {_reason(exc)}", file=sys.stderr)
            return False
    return True


def cmd_run(args) -> int:
    try:
        cfg = _merge_config(args)
        spec = builtin_scenario(cfg["scenario"], rta_enabled=cfg["rta"] == "on")
        spec = dataclasses.replace(
            spec,
            agents=tuple(dataclasses.replace(a, controller=cfg["controller"])
                         for a in spec.agents),
            control_dt=float(cfg["control_dt"]), sim_dt=float(cfg["sim_dt"]))
        make_controller(cfg["controller"], spec.vehicle)  # fail fast
        os.makedirs(args.out, exist_ok=True)
    # JSON errors are ValueErrors; float() of a JSON integer past the float range overflows
    except (KeyError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {_reason(exc)}", file=sys.stderr)
        return 2

    report, log = run(spec)
    if not _write_artifacts(args.out, (
            ("trajectory.csv", lambda path: write_csv(log, path)),
            ("metrics.json", lambda path: Path(path).write_text(_json_text(report.as_dict()))),
            ("plot_data.json", lambda path: Path(path).write_text(_json_text(_plot_data(log)))),
            ("config.json", lambda path: Path(path).write_text(_json_text(cfg))))):
        return 1
    if report.aborted:
        print("error: propagation aborted; partial artifacts written",
              file=sys.stderr)
        return 1
    return 0


def cmd_train(args) -> int:
    try:
        trainer_cfg = TrainerConfig(total_steps=args.steps, seed=args.seed)
        init_policy = load_policy(args.resume) if args.resume else None
        os.makedirs(args.out, exist_ok=True)
    except (ValueError, OSError, PolicyFileError) as exc:
        print(f"error: {_reason(exc)}", file=sys.stderr)
        return 2

    try:
        policy, curve = train(trainer_cfg=trainer_cfg, init_policy=init_policy)
    except RuntimeError as exc:  # TrainingDivergence, or the value-net worker failed
        print(f"error: {exc}", file=sys.stderr)
        return 1

    curve_text = "steps,mean_return,success_rate\n" + "".join(
        f"{steps},{mean_return!r},{success!r}\n" for steps, mean_return, success in curve_rows(curve))
    written = _write_artifacts(args.out, (
        ("policy.json", lambda path: save_policy(policy, path)),
        ("learning_curve.csv", lambda path: Path(path).write_text(curve_text))))
    return 0 if written else 1


def cmd_baseline_stats(args) -> int:
    try:
        if args.trials < 0:
            raise ValueError("n_trials must be nonnegative")
        if args.trials > MAX_TRIALS:  # numpy cannot shape the largest counts
            raise ValueError(f"n_trials must be at most {MAX_TRIALS}")
        if args.seed < 0:  # numpy's generators take no negative seed
            raise ValueError("seed must be nonnegative")
        if args.out is not None:
            os.makedirs(args.out, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"error: {_reason(exc)}", file=sys.stderr)
        return 2
    payload = baseline_stats(args.trials, seed=args.seed).as_dict()
    try:  # --json prints the very bytes baseline_stats.json holds
        text = _json_text(payload)
    except ValueError as exc:  # a NaN or an infinity: nothing printed or written
        print(f"error: baseline statistics not written: {exc}", file=sys.stderr)
        return 1
    if args.json:
        sys.stdout.write(text)
    else:
        width = max(len(k) for k in payload)
        for key, value in payload.items():
            print(f"{key:<{width}}  {value}")
    if args.out is not None and not _write_artifacts(args.out, (
            ("baseline_stats.json", lambda path: Path(path).write_text(text)),)):
        return 1
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
