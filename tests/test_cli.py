import json
import os

import numpy as np
import pytest

from proxops.cli import main
from proxops.policy import MlpPolicy, save_policy


def test_run_single_writes_all_artifacts(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--scenario", "single", "--seed", "3",
                 "--out", str(out)]) == 0
    for name in ("trajectory.csv", "metrics.json", "plot_data.json",
                 "config.json"):
        assert (out / name).exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["aggregate"]["targets_reached"] == 4
    plot = json.loads((out / "plot_data.json").read_text())
    assert "0-chief" in plot["pair_distances"]
    assert plot["agents"]["0"]["dist_goal"][0] == 500.0


def test_unknown_scenario_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "nope", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_unknown_scenario_in_config_exits_2_without_files(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "mystery"}))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_bad_rta_value_in_config_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rta": "maybe"}))
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "single", "typo_key": 1}))
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("text", [
    "5", "[]", '"standoff"', "null",                        # not a JSON object
    '{"seed": null}', '{"seed": 1.5}', '{"seed": true}',
    '{"control_dt": null}', '{"control_dt": "1"}', '{"sim_dt": [1]}',
    '{"controller": 5}', '{"scenario": ["single"]}', '{"rta": true}',
])
def test_malformed_config_exits_2_without_files(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_integer_time_steps_in_config_run_as_floats(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"control_dt": 1, "sim_dt": 1}))
    assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["run", "--control-dt", "1", "--sim-dt", "1", "--out", str(b)]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_same_seed_gives_byte_identical_csv(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", "single", "--seed", "7",
                 "--out", str(a)]) == 0
    assert main(["run", "--scenario", "single", "--seed", "7",
                 "--out", str(b)]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()


def test_config_round_trip_reproduces_the_run(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", "standoff", "--rta", "on", "--seed", "7",
                 "--out", str(a)]) == 0
    assert main(["run", "--config", str(a / "config.json"),
                 "--out", str(b)]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "single", "rta": "off", "seed": 1}))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--rta", "on", "--seed", "2",
                 "--out", str(out)]) == 0
    dumped = json.loads((out / "config.json").read_text())
    assert dumped["rta"] == "on"
    assert dumped["seed"] == 2
    assert dumped["scenario"] == "single"


def test_missing_policy_file_exits_2(tmp_path):
    assert main(["run", "--scenario", "single",
                 "--controller", "policy:/nonexistent/p.json",
                 "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_run_with_policy_controller(tmp_path):
    policy = MlpPolicy.initialize(np.random.default_rng(0))
    ppath = tmp_path / "p.json"
    save_policy(policy, ppath)
    out = tmp_path / "o"
    assert main(["run", "--scenario", "single",
                 "--controller", f"policy:{ppath}", "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0 <= metrics["aggregate"]["targets_reached"] <= 4


@pytest.mark.parametrize("dims", [(4, 8, 3), (6, 8, 2)])
@pytest.mark.parametrize("command", ["run", "train"])
def test_mismatched_policy_file_exits_2_without_files(tmp_path, capsys, command, dims):
    ppath = tmp_path / "p.json"
    save_policy(MlpPolicy.initialize(np.random.default_rng(0), layer_dims=dims), ppath)
    out = tmp_path / "o"
    argv = (["run", "--scenario", "single", "--controller", f"policy:{ppath}"]
            if command == "run" else ["train", "--steps", "64", "--resume", str(ppath)])
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("field, keep", [("biases", -1), ("log_std", 2)])
def test_inconsistent_policy_file_exits_2_without_files(tmp_path, capsys, field, keep):
    # one bias vector fewer than layers, or two log_std entries for three outputs
    ppath = tmp_path / "p.json"
    save_policy(MlpPolicy.initialize(np.random.default_rng(0)), ppath)
    payload = json.loads(ppath.read_text())
    payload[field] = payload[field][:keep]
    ppath.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert main(["run", "--scenario", "single", "--controller", f"policy:{ppath}",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
@pytest.mark.parametrize("command", ["run", "train"])
def test_non_finite_policy_file_exits_2_without_files(tmp_path, capsys, command, token):
    # json reads NaN and Infinity; such a network once ran idle under RTA
    ppath = tmp_path / "p.json"
    save_policy(MlpPolicy.initialize(np.random.default_rng(0)), ppath)
    payload = json.loads(ppath.read_text())
    payload["biases"][0][0] = "BAD"
    ppath.write_text(json.dumps(payload).replace('"BAD"', token))
    out = tmp_path / "o"
    argv = (["run", "--scenario", "single", "--rta", "on", "--controller", f"policy:{ppath}"]
            if command == "run" else ["train", "--steps", "64", "--resume", str(ppath)])
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_train_zero_steps_smoke(tmp_path):
    out = tmp_path / "t"
    assert main(["train", "--steps", "0", "--out", str(out)]) == 0
    assert (out / "policy.json").exists()
    curve = (out / "learning_curve.csv").read_text().splitlines()
    assert curve == ["steps,mean_return,success_rate"]


def test_train_short_and_resume(tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert main(["train", "--steps", "1024", "--seed", "4",
                 "--out", str(out1)]) == 0
    lines = (out1 / "learning_curve.csv").read_text().splitlines()
    assert lines[0] == "steps,mean_return,success_rate"
    assert len(lines) == 2
    assert main(["train", "--steps", "512", "--seed", "5",
                 "--resume", str(out1 / "policy.json"),
                 "--out", str(out2)]) == 0
    assert (out2 / "policy.json").exists()


def test_train_seed_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["train", "--steps", "1024", "--seed", "9",
                     "--out", str(out)]) == 0
    assert (a / "policy.json").read_bytes() == (b / "policy.json").read_bytes()
    assert (a / "learning_curve.csv").read_bytes() == \
        (b / "learning_curve.csv").read_bytes()


def test_baseline_stats_human_and_json(tmp_path, capsys):
    assert main(["baseline-stats", "--trials", "1", "--seed", "0"]) == 0
    human = capsys.readouterr().out
    assert "success_rate" in human
    assert main(["baseline-stats", "--trials", "5", "--seed", "0",
                 "--json", "--out", str(tmp_path / "s")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_trials"] == 5
    written = json.loads((tmp_path / "s" / "baseline_stats.json").read_text())
    assert written == payload


def test_baseline_stats_deterministic(capsys):
    assert main(["baseline-stats", "--trials", "3", "--seed", "1", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["baseline-stats", "--trials", "3", "--seed", "1", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_negative_trials_exits_2():
    assert main(["baseline-stats", "--trials", "-1"]) == 2


def _refuse(*args, **kwargs):
    raise AssertionError("the work started before --out was checked")


@pytest.mark.parametrize("argv, work", [
    (["run", "--scenario", "single"], "run"),
    (["train", "--steps", "300000"], "train"),
    (["baseline-stats", "--trials", "5"], "baseline_stats"),
], ids=["run", "train", "baseline-stats"])
def test_out_naming_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv, work):
    from proxops import cli

    monkeypatch.setattr(cli, work, _refuse)
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert out.read_text() == "not a directory"


@pytest.mark.parametrize("argv, name", [
    (["run", "--scenario", "single"], "trajectory.csv"),
    (["run", "--scenario", "single"], "config.json"),
    (["train", "--steps", "0"], "policy.json"),
    (["train", "--steps", "0"], "learning_curve.csv"),
    (["baseline-stats", "--trials", "3", "--json"], "baseline_stats.json"),
])
def test_unwritable_artifact_exits_1_with_one_error_line(tmp_path, capsys, argv, name):
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)  # a directory where the file should go
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} not written: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _exit_at_once(*args):
    os._exit(0)


@pytest.mark.parametrize("init_policy", [None, "divergent"])
def test_a_failed_training_run_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                           init_policy):
    from proxops import training

    argv = ["train", "--steps", "1024", "--out", str(tmp_path / "o")]
    if init_policy is None:  # the value-net worker exits before its first reply
        monkeypatch.setattr(training, "_value_init", _exit_at_once)
    else:  # exp(800) overflows, so the losses are not finite
        start = MlpPolicy.initialize(np.random.default_rng(0))
        start.log_std[:] = 800.0
        save_policy(start, tmp_path / "p.json")
        argv += ["--resume", str(tmp_path / "p.json")]
    with np.errstate(all="ignore"):
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "policy.json").exists()


@pytest.mark.parametrize("flags", [
    ["--control-dt", "nan"],
    ["--control-dt", "inf"],
    ["--sim-dt", "nan"],
    ["--control-dt", "1e7"],             # one tick longer than the 500 s leg
    ["--control-dt", "1e-6", "--sim-dt", "1e-6"],    # 5e8 ticks per leg
    ["--control-dt", "0.004", "--sim-dt", "0.004"],  # 125,000 ticks, above the maximum
    ["--control-dt", "1", "--sim-dt", "2"],
])
def test_bad_time_steps_exit_2_without_files(tmp_path, capsys, flags):
    out = tmp_path / "o"
    assert main(["run", "--scenario", "single", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


@pytest.mark.parametrize("flags", [
    ["--control-dt", "200"],  # 2.5 ticks per leg; sim_dt is not read
    ["--sim-dt", "0.3"],      # need not divide control_dt
])
def test_time_steps_only_bound_the_ticks_per_leg(tmp_path, flags):
    out = tmp_path / "o"
    assert main(["run", "--scenario", "single", *flags, "--out", str(out)]) == 0
    for name in ("metrics.json", "plot_data.json", "config.json"):
        json.loads((out / name).read_text(), parse_constant=_reject_constant)
    assert (out / "trajectory.csv").exists()


def test_dividing_time_steps_run(tmp_path):
    out = tmp_path / "o"
    assert main(["run", "--scenario", "single", "--control-dt", "0.3",
                 "--sim-dt", "0.1", "--out", str(out)]) == 0
    config = json.loads((out / "config.json").read_text())
    assert (config["control_dt"], config["sim_dt"]) == (0.3, 0.1)


def test_unstable_sim_dt_exits_2_without_files(tmp_path, capsys):
    # Each step is finite and positive, but one 1e7 s tick is longer than
    # the whole 500 s leg.
    out = tmp_path / "o"
    assert main(["run", "--scenario", "single", "--control-dt", "1e7",
                 "--sim-dt", "1e7", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_non_finite_metric_exits_1_without_bare_nan(tmp_path, capsys, monkeypatch):
    import dataclasses

    from proxops import cli

    real_run = cli.run

    def nan_run(spec):
        report, log = real_run(spec)
        agg = dataclasses.replace(report.aggregate, delta_v=float("nan"))
        return dataclasses.replace(report, aggregate=agg), log

    monkeypatch.setattr(cli, "run", nan_run)
    out = tmp_path / "o"
    assert main(["run", "--scenario", "single", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "metrics.json").exists()
    for path in out.iterdir():
        assert "NaN" not in path.read_text()


def test_aborted_run_exits_1_with_partial_artifacts(tmp_path, capsys, monkeypatch):
    from proxops import harness
    from proxops.dynamics import PropagationError

    real_propagate, calls = harness.propagate_cwh_zoh, []

    def failing_propagate(*args):
        calls.append(None)
        if len(calls) == 4:  # ticks 0-2 propagate; tick 3's step fails
            raise PropagationError("overflow")
        return real_propagate(*args)

    monkeypatch.setattr(harness, "propagate_cwh_zoh", failing_propagate)
    out = tmp_path / "o"
    assert main(["run", "--scenario", "single", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: propagation aborted; partial artifacts written\n"
    metrics = json.loads((out / "metrics.json").read_text(),
                         parse_constant=lambda token: pytest.fail(f"bare {token}"))
    assert metrics["aborted"] is True
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 1.0, 2.0, 3.0]


def test_plot_data_minima_are_the_crossing_times(tmp_path):
    from proxops.harness import local_minima, pair_distances, run, three_agent_standoff

    out = tmp_path / "o"
    assert main(["run", "--scenario", "standoff", "--rta", "off", "--out", str(out)]) == 0
    plot = json.loads((out / "plot_data.json").read_text())
    _, log = run(three_agent_standoff(False))
    assert plot["crossing_times"] == {key: [list(m) for m in minima]
                                      for key, minima in local_minima(pair_distances(log)).items()}
