import json
import math
import os

import numpy as np
import pytest

from proxops.cli import main
from proxops.policy import MlpPolicy, PolicyFileError, load_policy, save_policy


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
    assert set(plot) == {"t", "agents", "pair_distances", "crossing_times"}
    assert list(plot["pair_distances"]) == ["0-chief"]
    assert len(plot["pair_distances"]["0-chief"]) == len(plot["t"])
    assert plot["t"][:2] == [0.0, 1.0]
    assert plot["agents"]["0"]["dist_goal"][0] == 500.0


def test_unknown_scenario_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "nope", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_unknown_scenario_in_config_exits_2_without_files(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "mystery"}))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown scenario 'mystery'\n"
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
    # values the error line must not echo in full
    pytest.param(json.dumps([0] * 500_000), id="long-list"),
    pytest.param(json.dumps({"seed": [0] * 200_000}), id="long-seed"),
    pytest.param(json.dumps({"k" * 200_000: 0}), id="long-key"),
    pytest.param(json.dumps({"rta": "x" * 200_000}), id="long-rta"),
    pytest.param(json.dumps({"scenario": "x" * 200_000}), id="long-scenario"),
    pytest.param(json.dumps({"controller": "x" * 200_000}), id="long-controller"),
])
def test_malformed_config_exits_2_without_files(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300
    assert not out.exists()


@pytest.mark.parametrize("flag", ["policy-in-config", "out", "config", "resume"])
@pytest.mark.parametrize("name", ["a" * 100_000, "a\n" * 50_000])
def test_a_long_path_is_named_once_in_a_short_error_line(tmp_path, capsys, flag, name):
    long_path = str(tmp_path / name)  # too long for any file system
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"controller": "policy:" + long_path}))
    out = str(tmp_path / "o")
    argv = {"policy-in-config": ["run", "--config", str(cfg), "--out", out],
            "out": ["run", "--out", long_path],
            "config": ["run", "--config", long_path, "--out", out],
            "resume": ["train", "--steps", "0", "--resume", long_path, "--out", out]}[flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300
    assert err.count("...") == 1  # the one cut path
    assert not os.path.exists(out)


def test_integer_time_steps_in_config_run_as_floats(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"control_dt": 1}))
    assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["run", "--control-dt", "1", "--out", str(b)]) == 0
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


@pytest.mark.parametrize("content", [
    pytest.param(b'{"format": "\xe9"}\n', id="not-utf8"),
    pytest.param(b"[" * 2000 + b"]" * 2000, id="nested-2000-deep"),
])
@pytest.mark.parametrize("command", ["run-policy", "run-config", "train"])
def test_unreadable_json_input_exits_2_without_files(tmp_path, capsys, command, content):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    out = tmp_path / "o"
    argv = {"run-policy": ["run", "--controller", f"policy:{path}"],
            "run-config": ["run", "--config", str(path)],
            "train": ["train", "--steps", "64", "--resume", str(path)]}[command]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_negative_layer_dims_policy_file_exits_2_without_files(tmp_path, capsys):
    ppath = tmp_path / "p.json"
    save_policy(MlpPolicy.initialize(np.random.default_rng(0), layer_dims=(6, 8, 3)), ppath)
    payload = json.loads(ppath.read_text())
    payload["layer_dims"] = [6, -1, 3]
    ppath.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert main(["train", "--steps", "0", "--resume", str(ppath), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("layer_dims", [6] + [8] * 99_997 + [-1, 3]),
    ("version", [1] * 100_000),
])
def test_policy_file_errors_echo_a_short_value(tmp_path, capsys, key, value):
    ppath = tmp_path / "p.json"
    save_policy(MlpPolicy.initialize(np.random.default_rng(0), layer_dims=(6, 8, 3)), ppath)
    payload = json.loads(ppath.read_text())
    payload[key] = value
    ppath.write_text(json.dumps(payload))
    with pytest.raises(PolicyFileError) as exc:
        load_policy(ppath)
    assert len(str(exc.value)) < 300
    out = tmp_path / "o"
    assert main(["train", "--steps", "0", "--resume", str(ppath), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300
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


def test_baseline_stats_json_prints_the_bytes_it_writes(tmp_path, capsys):
    assert main(["baseline-stats", "--trials", "3", "--seed", "2", "--json",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out == (tmp_path / "baseline_stats.json").read_text()
    assert out.count("\n") == 1 and out.endswith("}\n")


def test_non_finite_baseline_stats_exit_1_with_nothing_printed(tmp_path, capsys, monkeypatch):
    from proxops import cli
    from proxops.env import EpisodeStats

    monkeypatch.setattr(cli, "baseline_stats",
                        lambda n, seed: EpisodeStats(n, 1.0, math.nan, 0.0, 1.0, 0.0, 0.0))
    assert main(["baseline-stats", "--trials", "3", "--json", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "baseline_stats.json").exists()


def test_json_artifacts_are_one_line_of_strict_sorted_json(tmp_path):
    out = tmp_path / "o"
    assert main(["run", "--scenario", "standoff", "--out", str(out)]) == 0
    for name in ("metrics.json", "plot_data.json", "config.json"):
        text = (out / name).read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        payload = json.loads(text, parse_constant=lambda token: pytest.fail(f"bare {token}"))
        assert text == json.dumps(payload, sort_keys=True) + "\n"
    csv_lines = (out / "trajectory.csv").read_bytes().split(b"\n")
    assert csv_lines[-1] == b"" and all(line.endswith(b"\r") for line in csv_lines[:-1])


def test_baseline_stats_deterministic(capsys):
    assert main(["baseline-stats", "--trials", "3", "--seed", "1", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["baseline-stats", "--trials", "3", "--seed", "1", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_negative_trials_exits_2():
    assert main(["baseline-stats", "--trials", "-1"]) == 2


@pytest.mark.parametrize("trials", [10**18, 10**30])
def test_trials_past_the_maximum_exit_2_without_files(tmp_path, capsys, trials):
    # numpy refuses both counts with a traceback before allocating anything
    out = tmp_path / "o"
    assert main(["baseline-stats", "--trials", str(trials), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: n_trials must be at most 100000\n" and captured.out == ""
    assert not out.exists()


HUGE_INT = "1" + "0" * 400  # a JSON integer past the float range


@pytest.mark.parametrize("key", ["control_dt", "sim_dt"])
def test_an_oversized_config_integer_exits_2_without_files(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{key}": {HUGE_INT}}}')
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300
    assert not out.exists()


@pytest.mark.parametrize("field", ["weights", "biases", "log_std"])
@pytest.mark.parametrize("command", ["run", "train"])
def test_an_oversized_policy_integer_exits_2_without_files(tmp_path, capsys, command, field):
    ppath = tmp_path / "p.json"
    save_policy(MlpPolicy.initialize(np.random.default_rng(0), layer_dims=(6, 8, 3)), ppath)
    payload = json.loads(ppath.read_text())
    (payload[field][0] if field != "log_std" else payload[field])[0] = "HUGE"
    ppath.write_text(json.dumps(payload).replace('"HUGE"', HUGE_INT))
    with pytest.raises(PolicyFileError, match="inconsistent contents"):
        load_policy(ppath)
    out = tmp_path / "o"
    argv = (["run", "--scenario", "single", "--controller", f"policy:{ppath}"]
            if command == "run" else ["train", "--steps", "0", "--resume", str(ppath)])
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["baseline-stats", "--trials", "5", "--seed", "-1"],
    ["train", "--steps", "2048", "--seed", "-1"],
], ids=["baseline-stats", "train"])
def test_negative_seed_exits_2_without_files(tmp_path, capsys, argv):
    # numpy's generators take no negative seed; both commands draw from --seed
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be nonnegative\n" and captured.out == ""
    assert not out.exists()


def test_run_echoes_a_negative_seed(tmp_path):
    out = tmp_path / "o"
    assert main(["run", "--scenario", "single", "--seed", "-1", "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text())["seed"] == -1


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
    ["--control-dt", "-1"],
    ["--control-dt", "1e7"],    # one tick longer than the 500 s leg
    ["--control-dt", "1e-6"],   # 5e8 ticks per leg
    ["--control-dt", "0.004"],  # 125,000 ticks, above the maximum
    ["--control-dt", "0"],
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
    ["--control-dt", "200"],  # 2.5 ticks per leg
    ["--control-dt", "0.7"],  # need not divide the leg
])
def test_time_steps_only_bound_the_ticks_per_leg(tmp_path, flags):
    out = tmp_path / "o"
    assert main(["run", "--scenario", "single", *flags, "--out", str(out)]) == 0
    for name in ("metrics.json", "plot_data.json", "config.json"):
        json.loads((out / name).read_text(), parse_constant=_reject_constant)
    assert (out / "trajectory.csv").exists()


@pytest.mark.parametrize("command", ["run", "train"])
@pytest.mark.parametrize("bad", ["extra-matrix", "huge-weights"])
def test_a_policy_file_that_would_not_act_exits_2_without_files(tmp_path, capsys, bad, command):
    ppath = tmp_path / "p.json"
    save_policy(MlpPolicy.initialize(np.random.default_rng(0), layer_dims=(6, 3)), ppath)
    payload = json.loads(ppath.read_text())
    if bad == "extra-matrix":  # layer_dims [6, 3] describe one matrix
        payload["weights"].append(["junk"])
    else:
        payload["weights"] = [[1e308, -1e308, 0.0, 0.0, 0.0, 0.0] * 3]
    ppath.write_text(json.dumps(payload))
    out = tmp_path / "o"
    argv = (["run", "--scenario", "standoff", "--rta", "off", "--controller", f"policy:{ppath}"]
            if command == "run" else ["train", "--steps", "0", "--resume", str(ppath)])
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: policy file ") and err.count("\n") == 1
    assert not out.exists()


def test_config_json_holds_the_five_run_settings(tmp_path):
    out = tmp_path / "o"
    assert main(["run", "--scenario", "single", "--control-dt", "0.3", "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text()) == {
        "scenario": "single", "rta": "off", "controller": "baseline", "seed": 0,
        "control_dt": 0.3}


def test_a_tick_under_the_old_integration_step_runs(tmp_path):
    # 0.05 s is below the retired 0.1 s RK4 step, which used to bound control_dt
    out = tmp_path / "o"
    assert main(["run", "--scenario", "single", "--control-dt", "0.05", "--out", str(out)]) == 0
    metrics, _, config = (json.loads((out / name).read_text(), parse_constant=_reject_constant)
                          for name in ("metrics.json", "plot_data.json", "config.json"))
    assert metrics["aggregate"]["targets_reached"] == 4 and not metrics["aborted"]
    assert config["control_dt"] == 0.05


def test_the_retired_sim_dt_exits_2_without_files(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sim_dt": 0.1}))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown config key 'sim_dt'\n"
    with pytest.raises(SystemExit) as exc:  # argparse's usage error
        main(["run", "--sim-dt", "0.1", "--out", str(out)])
    assert exc.value.code == 2
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
    assert plot["crossing_times"] == local_minima(log.t, pair_distances(log))


def test_plot_data_series_share_the_log_clock(tmp_path):
    from proxops.env import norms
    from proxops.harness import pair_distances, run, three_agent_standoff

    out = tmp_path / "o"
    assert main(["run", "--scenario", "standoff", "--rta", "off", "--out", str(out)]) == 0
    plot = json.loads((out / "plot_data.json").read_text())
    _, log = run(three_agent_standoff(False))
    t = plot["t"]
    assert t == log.t.tolist()
    assert sorted(plot["agents"]) == ["0", "1"]
    for k, series in plot["agents"].items():
        assert sorted(series) == ["dist_goal", "rta_active", "speed"]
        assert all(len(values) == len(t) for values in series.values())
        assert series["speed"] == norms(log.vel[:, int(k)]).tolist()
    distances = pair_distances(log)
    assert list(plot["pair_distances"]) == sorted(distances)  # sort_keys
    for key, d in distances.items():
        assert plot["pair_distances"][key] == d.tolist()
        assert len(plot["pair_distances"][key]) == len(t)
