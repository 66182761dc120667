import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pdettc import cli, euler, metrics, render, rewards, storage, ttc
from pdettc.surrogate import Surrogate


def test_pipeline_end_to_end_in_process(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    s = ["--seed", "3"]
    model = ["--surrogate", "surrogate.ckpt", "--data", "data.pdt", "--B", "1,2"]
    calls = [
        ["gen-data", *s, "--families", "rp", "--n", "2", "--grid", "16", "--jobs", "1",
         "--split", "0.5,0,0.5", "--out", "data.pdt"],
        ["train", *s, "--data", "data.pdt", "--epochs", "1", "--out", "surrogate.ckpt"],
        ["train-prm", *s, "--from", "surrogate.ckpt", "--data", "data.pdt", "--K", "3",
         "--epochs", "1", "--out", "prm.ckpt"],
        ["rollout", *s, *model, "--reward", "arm_mass", "--out-dir", "records/arm_mass"],
        ["rollout", *s, *model, "--reward", "prm", "--prm", "prm.ckpt",
         "--out-dir", "records/prm"],
        ["evaluate", *s, "--records-dir", "records", "--data", "data.pdt",
         "--out-dir", "eval"],
    ]
    for argv in calls:
        assert cli.main(argv) == cli.EXIT_OK, argv[0]
    n_records = 0
    for index_path in sorted(Path("records").glob("*/index.json")):
        for entry in json.loads(index_path.read_text())["records"]:
            ttc.load_rollout_record(index_path.parent / entry["base"]).verify_argmax()
            n_records += 1
    assert n_records == 4                     # two rewards x B in {1, 2}, one IC
    summary = json.loads(Path("eval/summary.json").read_text())
    assert set(summary["mean_final_mse"]) == {"arm_mass", "prm"}


def test_evaluate_scores_against_the_split_the_rollouts_ran_on(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    s = ["--seed", "5"]
    rollout = ["rollout", *s, "--surrogate", "surrogate.ckpt", "--data", "data.pdt",
               "--B", "1,2", "--reward", "arm_mass", "--n-ics", "2"]
    evaluate = ["evaluate", *s, "--records-dir", "records", "--data", "data.pdt",
                "--out-dir", "eval"]
    calls = [
        ["gen-data", *s, "--families", "rp", "--n", "4", "--grid", "16", "--jobs", "1",
         "--split", "0.5,0,0.5", "--out", "data.pdt"],
        ["train", *s, "--data", "data.pdt", "--epochs", "1", "--out", "surrogate.ckpt"],
        [*rollout, "--split", "train", "--out-dir", "records/train"],
        evaluate,
        ["report", *s, "--records-dir", "records", "--data", "data.pdt",
         "--out-dir", "report"],
    ]
    for argv in calls:
        assert cli.main(argv) == cli.EXIT_OK, argv[0]
    ds = storage.load_dataset("data.pdt")
    records = []
    for entry in json.loads(Path("records/train/index.json").read_text())["records"]:
        rec = ttc.load_rollout_record(Path("records/train") / entry["base"])
        records.append((entry["reward"], entry["ic"], entry["B"], rec))
    want = metrics.evaluate(records, ds.split_trajectories("train")[:2],
                            ds.normalization, ds.gamma).summary_dict()
    got = json.loads(Path("eval/summary.json").read_text())
    assert got["mean_final_mse"] == want["mean_final_mse"]
    wrong = metrics.evaluate(records, ds.split_trajectories("test")[:2],
                             ds.normalization, ds.gamma).summary_dict()
    assert got["mean_final_mse"] != wrong["mean_final_mse"]
    # a second sweep over another split makes the records dir ambiguous
    assert cli.main([*rollout, "--split", "test", "--out-dir", "records/test"]) == cli.EXIT_OK
    assert cli.main(evaluate) == cli.EXIT_CONFIG


def _fails_with_one_line(capsys, argv, match):
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and match in err, err
    return err


@pytest.mark.parametrize("split", ["a,b,c", "0.5", "0.5,0.5", "0.5,0.75,-0.25", "0.5,0.5,0.5"])
def test_gen_data_rejects_bad_split_fractions(tmp_path, monkeypatch, capsys, split):
    monkeypatch.chdir(tmp_path)
    _fails_with_one_line(capsys, ["gen-data", "--split", split, "--out", "d.pdt"],
                         "--split")
    assert not (tmp_path / "d.pdt").exists()


@pytest.mark.parametrize("b", ["1,x", "0", "4,-1", ""])
def test_rollout_rejects_bad_branching_factors(tmp_path, monkeypatch, capsys, b):
    monkeypatch.chdir(tmp_path)
    _fails_with_one_line(capsys, ["rollout", "--surrogate", "s.ckpt", "--data", "d.pdt",
                                  "--B", b, "--out-dir", "r"], "--B")


def test_missing_or_corrupt_inputs_exit_with_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    train = ["train", "--data", "data.pdt", "--epochs", "1", "--out", "s.ckpt"]
    _fails_with_one_line(capsys, train, "no such file: data.pdt")
    assert cli.main(["gen-data", "--families", "rp", "--n", "1", "--grid", "16",
                     "--split", "1,0,0", "--out", "data.pdt"]) == cli.EXIT_OK
    Path("adir").mkdir()
    _fails_with_one_line(capsys, ["train", "--data", "adir", "--out", "s.ckpt"],
                         "input error: is a directory: adir")
    _fails_with_one_line(capsys, ["rollout", "--surrogate", "adir", "--data", "data.pdt",
                                  "--split", "train", "--reward", "arm_mass", "--out-dir", "r"],
                         "input error: is a directory: adir")
    whole = Path("data.pdt").read_bytes()
    Path("data.pdt").write_bytes(whole[:-10])
    _fails_with_one_line(capsys, train, "truncated payload")
    Path("data.pdt").write_bytes(whole[:20])
    _fails_with_one_line(capsys, train, "truncated header")
    Path("data.pdt").write_bytes(b"not a container at all")
    _fails_with_one_line(capsys, train, "bad magic")
    storage.write_container("data.pdt", {"record_type": "ROLLOUT"}, (1, 2), np.zeros((1, 2)))
    _fails_with_one_line(capsys, train, "record_type 'ROLLOUT'")


def test_evaluate_rejects_records_of_another_dataset(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("short.json").write_text(json.dumps({"ttc": {"n_steps": 2}}))
    gen = ["gen-data", "--families", "rp", "--n", "2", "--grid", "16", "--split", "0.5,0,0.5"]
    calls = [
        [*gen, "--seed", "3", "--out", "data.pdt"],
        [*gen, "--seed", "4", "--out", "other.pdt"],
        ["train", "--seed", "3", "--data", "data.pdt", "--epochs", "1", "--out", "s.ckpt"],
        ["rollout", "--seed", "3", "--config", "short.json", "--surrogate", "s.ckpt",
         "--data", "data.pdt", "--B", "1,2", "--reward", "arm_mass", "--out-dir", "records"],
    ]
    for argv in calls:
        assert cli.main(argv) == cli.EXIT_OK, argv[0]
    index = json.loads(Path("records/index.json").read_text())
    assert index["dataset_digest"] == storage.load_dataset("data.pdt").payload_digest
    for command in ("evaluate", "report"):
        argv = [command, "--records-dir", "records", "--out-dir", command]
        assert cli.main([*argv, "--data", "other.pdt"]) == cli.EXIT_CONFIG
        assert not Path(command).exists()
        assert cli.main([*argv, "--data", "data.pdt"]) == cli.EXIT_OK


@pytest.mark.parametrize("doc,key", [
    ({"data": {"split": [0.5, 0.5, 0.5]}}, "data.split"),
    ({"data": {"split": [0.5, 0.5]}}, "data.split"),
    ({"data": {"split": [0.5, -0.5, 1.0]}}, "data.split"),
    ({"data": {"split": ["a", 0.5, 0.5]}}, "data.split"),
    ({"ttc": {"b_list": [1, 0]}}, "ttc.b_list"),
    ({"ttc": {"b_list": [4, -1]}}, "ttc.b_list"),
    ({"ttc": {"b_list": []}}, "ttc.b_list"),
    ({"ttc": {"b_list": [1.5]}}, "ttc.b_list"),
    ({"ttc": {"b_list": [True]}}, "ttc.b_list"),
    ({"jobs": 0}, "jobs"),
    ({"jobs": -3}, "jobs"),
    ({"data": {"n_per_family": 0}}, "data.n_per_family"),
    ({"data": {"n_per_family": -1}}, "data.n_per_family"),
])
def test_config_file_lists_are_checked_before_anything_runs(tmp_path, monkeypatch, capsys,
                                                            doc, key):
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text(json.dumps(doc))

    def solve(*_, **__):
        raise AssertionError("solved a trajectory with a bad config")

    monkeypatch.setattr(euler, "trajectory_snapshots", solve)
    for argv in (["gen-data", "--families", "rp", "--grid", "16", "--out", "d.pdt"],
                 ["rollout", "--surrogate", "s.ckpt", "--data", "d.pdt", "--out-dir", "r"]):
        _fails_with_one_line(capsys, [*argv, "--config", "bad.json"], f"'{key}'")
    assert not Path("d.pdt").exists()


def test_config_file_lists_give_the_effective_config_of_their_flags(tmp_path):
    path = tmp_path / "good.json"
    path.write_text(json.dumps({"data": {"split": [1, 0, 0]}, "ttc": {"b_list": [1, 4]}}))
    from_file = cli.load_config(str(path))
    from_flags = cli.load_config(None)
    from_flags["data"]["split"] = cli._split_fractions("1,0,0")
    from_flags["ttc"]["b_list"] = cli._positive_ints("1,4")
    assert from_file == from_flags
    assert cli.config_digest(from_file) == cli.config_digest(from_flags)


def _holds_its_initial_weights(net) -> bool:
    """Whether the model holds the weights a new model of its class, config
    and init seed starts from."""
    new = type(net)(net.config, net.norm, **{k: getattr(net, k) for k in net.extra_keys})
    return all(np.array_equal(p.value, new.store[k].value) for k, p in net.store.params.items())


def test_train_divergence_writes_the_last_good_checkpoint(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen-data", "--seed", "3", "--families", "rp", "--n", "2", "--grid",
                     "16", "--split", "0.5,0.5,0", "--out", "data.pdt"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["train", "--seed", "3", "--data", "data.pdt", "--epochs", "2",
                     "--lr", "1e20", "--out", "s.ckpt"]) == cli.EXIT_NUMERICAL
    assert "training diverged; kept last good checkpoint" in capsys.readouterr().err
    back = Surrogate.from_checkpoint("s.ckpt")
    assert _holds_its_initial_weights(back)      # diverged in the first epoch
    assert all(np.isfinite(p.value).all() for p in back.store.params.values())
    assert Path("s.ckpt.loss.csv").exists()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A 16x16 rp dataset (2 train, 2 test trajectories) and a 1-epoch
    surrogate trained on it."""
    root = tmp_path_factory.mktemp("small_run")
    data, ckpt = str(root / "data.pdt"), str(root / "s.ckpt")
    assert cli.main(["gen-data", "--seed", "3", "--families", "rp", "--n", "4", "--grid",
                     "16", "--split", "0.5,0,0.5", "--out", data]) == cli.EXIT_OK
    assert cli.main(["train", "--seed", "3", "--data", data, "--epochs", "1",
                     "--out", ckpt]) == cli.EXIT_OK
    return {"data": data, "ckpt": ckpt}


@pytest.mark.parametrize("command,flags,match", [
    ("gen-data", ["--grid", "4"], "grid must be at least 8x8"),
    ("gen-data", ["--families", "rp,zz"], "unknown IC family 'zz'"),
    ("gen-data", ["--families", ","], "--families: no names in ','"),
    ("gen-data", ["--cfl", "0"], "cfl must be in (0, 1]"),
    ("gen-data", ["--gamma", "1.0"], "gamma must be > 1"),
    ("train", ["--lr", "-1"], "lr must be positive"),
    ("train", ["--batch", "0"], "batch_size must be >= 1"),
    ("finetune", ["--n-traj", "3"], "'finetune.n_traj'"),
    ("train-prm", ["--K", "2"], "need K >= 3"),
    ("train", ["--epochs", "-1"], "epochs must be >= 0"),
    ("finetune", ["--epochs", "-1"], "epochs must be >= 0"),
    ("train-prm", ["--epochs", "-1"], "epochs must be >= 0"),
    ("train-prm", ["--lr", "-1"], "lr must be positive"),
    ("gen-data", ["--n", "0"], "'data.n_per_family' must be >= 1, got 0"),
    ("gen-data", ["--n", "-1"], "'data.n_per_family' must be >= 1, got -1"),
    ("gen-data", ["--jobs", "0"], "'jobs' must be >= 1, got 0"),
    ("gen-data", ["--jobs", "-3"], "'jobs' must be >= 1, got -3"),
    ("train-prm", ["--jobs", "-3"], "unrecognized arguments: --jobs -3"),
    ("rollout", ["--jobs", "-3"], "unrecognized arguments: --jobs -3"),
    ("train-prm", ["--jobs", "1"], "unrecognized arguments: --jobs 1"),
])
def test_values_the_constructors_reject_exit_before_any_work(
        small_run, tmp_path, monkeypatch, capsys, command, flags, match):
    monkeypatch.chdir(tmp_path)

    def solve(*_, **__):
        raise AssertionError("solved a trajectory with a bad config")

    monkeypatch.setattr(euler, "trajectory_snapshots", solve)
    inputs = {"gen-data": [],
              "train": ["--data", small_run["data"]],
              "finetune": ["--from", small_run["ckpt"], "--data", small_run["data"]],
              "train-prm": ["--from", small_run["ckpt"], "--data", small_run["data"]],
              "rollout": ["--surrogate", small_run["ckpt"], "--data", small_run["data"]]}
    out = ["--out-dir" if command == "rollout" else "--out", "out"]
    _fails_with_one_line(capsys, [command, *inputs[command], *flags, *out], match)
    assert not Path("out").exists()


@pytest.mark.parametrize("ttc_section,flags,key", [
    ({"n_steps": 21}, [], "ttc.n_steps"),
    ({"n_steps": 25}, [], "ttc.n_steps"),
    ({"n_steps": 0}, [], "ttc.n_steps"),
    ({"n_steps": 21}, ["--teacher-forced"], "ttc.n_steps"),
    ({"n_steps": 25}, ["--reward", "oracle_mse"], "ttc.n_steps"),
    ({"n_ics": -1}, [], "ttc.n_ics"),
    ({"reward": "zz"}, [], "ttc.reward"),
])
def test_rollout_refuses_steps_ics_and_rewards_it_cannot_run(
        small_run, tmp_path, monkeypatch, capsys, ttc_section, flags, key):
    monkeypatch.chdir(tmp_path)
    Path("ttc.json").write_text(json.dumps({"ttc": {"reward": "arm_mass", **ttc_section}}))
    argv = ["rollout", "--config", "ttc.json", "--surrogate", small_run["ckpt"],
            "--data", small_run["data"], "--B", "1", *flags, "--out-dir", "records"]
    _fails_with_one_line(capsys, argv, f"'{key}'")
    assert not Path("records").exists()


def test_rollout_runs_every_step_the_trajectories_hold(small_run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("steps.json").write_text(json.dumps({"ttc": {"n_steps": 20}}))
    assert cli.main(["rollout", "--config", "steps.json", "--surrogate", small_run["ckpt"],
                     "--data", small_run["data"], "--B", "1", "--reward", "oracle_mse",
                     "--n-ics", "1", "--teacher-forced", "--out-dir", "records"]) == cli.EXIT_OK
    assert cli.main(["evaluate", "--records-dir", "records", "--data", small_run["data"],
                     "--out-dir", "eval"]) == cli.EXIT_OK


def test_gen_data_with_a_pool_writes_the_payload_of_one_process(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    gen = ["gen-data", "--seed", "4", "--families", "rp,kh", "--n", "2", "--grid", "16",
           "--split", "0.5,0.25,0.25"]
    assert cli.main([*gen, "--jobs", "1", "--out", "one.pdt"]) == cli.EXIT_OK
    assert cli.main([*gen, "--jobs", "2", "--out", "two.pdt"]) == cli.EXIT_OK
    one, two = storage.read_container("one.pdt")[1], storage.read_container("two.pdt")[1]
    assert one.dtype == two.dtype and one.tobytes() == two.tobytes()


# Each config-bound flag, a value for it, and the config keys it sets to
# that value.
_FLAGS = {
    "*": [("--seed", "7", ["seed"], 7)],
    "gen-data": [
        ("--jobs", "3", ["jobs"], 3),
        ("--families", "rp,kh", ["data.families"], ["rp", "kh"]),
        ("--n", "5", ["data.n_per_family"], 5),
        ("--grid", "32", ["grid.nx", "grid.ny"], 32),
        ("--split", "0.5,0.25,0.25", ["data.split"], [0.5, 0.25, 0.25]),
        ("--gamma", "1.67", ["data.gamma"], 1.67),
        ("--cfl", "0.3", ["data.cfl"], 0.3),
        ("--out", "x.pdt", ["data.path"], "x.pdt"),
    ],
    "train": [
        ("--preset", "paper", ["model.preset"], "paper"),
        ("--model", "vit3", ["model.patch"], "vit3"),
        ("--epochs", "3", ["train.epochs"], 3),
        ("--lr", "0.01", ["train.lr"], 0.01),
        ("--batch", "8", ["train.batch_size"], 8),
    ],
    "finetune": [
        ("--n-traj", "4", ["finetune.n_traj"], 4),
        ("--epochs", "3", ["finetune.epochs"], 3),
        ("--lr", "0.01", ["finetune.lr"], 0.01),
    ],
    "train-prm": [
        ("--K", "5", ["prm.k_candidates"], 5),
        ("--alpha", "0.2", ["prm.margin"], 0.2),
        ("--epochs", "3", ["prm.epochs"], 3),
        ("--lr", "0.01", ["prm.lr"], 0.01),
    ],
    "rollout": [
        ("--reward", "arm_energy", ["ttc.reward"], "arm_energy"),
        ("--B", "1,2", ["ttc.b_list"], [1, 2]),
        ("--n-ics", "3", ["ttc.n_ics"], 3),
        ("--split", "val", ["ttc.split"], "val"),
        ("--teacher-forced", None, ["ttc.teacher_forced"], True),
    ],
}
_REQUIRED = {
    "gen-data": [],
    "train": ["--data", "d", "--out", "o"],
    "finetune": ["--from", "f", "--data", "d", "--out", "o"],
    "train-prm": ["--from", "f", "--data", "d", "--out", "o"],
    "rollout": ["--surrogate", "s", "--data", "d", "--out-dir", "r"],
    "evaluate": ["--records-dir", "r", "--data", "d", "--out-dir", "e"],
    "report": ["--records-dir", "r", "--data", "d", "--out-dir", "e"],
}


def _flat(cfg: dict) -> dict:
    return {f"{name}.{key}" if isinstance(value, dict) else name: v
            for name, value in cfg.items()
            for key, v in (value.items() if isinstance(value, dict) else [(None, value)])}


def _effective(argv: list) -> dict:
    cfg = cli.load_config(None)
    cli._apply_flags(cfg, cli.build_parser().parse_args(argv))
    return _flat(cfg)


@pytest.mark.parametrize("command", list(_REQUIRED))
def test_each_config_flag_sets_exactly_its_key(command):
    defaults = _flat(cli.DEFAULTS)
    assert _effective([command, *_REQUIRED[command]]) == defaults
    cases = _FLAGS["*"] + _FLAGS.get(command, [])
    for flag, text, keys, value in cases:
        got = _effective([command, *_REQUIRED[command], flag, *([text] if text else [])])
        assert {k for k in got if got[k] != defaults[k]} == set(keys), flag
        assert all(got[k] == value for k in keys), flag
    sub = cli.build_parser()._subparsers._group_actions[0].choices[command]
    bound = {a.option_strings[0] for a in sub._actions
             if a.dest in cli._CONFIG_KEYS or a.dest == "grid"}
    assert bound == {flag for flag, *_ in cases}       # the table covers every flag


@pytest.mark.parametrize("command", ["train", "finetune", "train-prm"])
def test_training_on_a_dataset_without_train_trajectories_exits_2(
        small_run, tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen-data", "--seed", "3", "--families", "rp", "--n", "2", "--grid",
                     "16", "--split", "0,1,0", "--out", "val_only.pdt"]) == cli.EXIT_OK
    inputs = {"train": [], "finetune": ["--from", small_run["ckpt"], "--n-traj", "0"],
              "train-prm": ["--from", small_run["ckpt"]]}
    _fails_with_one_line(capsys, [command, *inputs[command], "--data", "val_only.pdt",
                                  "--out", "out"],
                         f"{command} needs train trajectories, and val_only.pdt has none")
    assert not Path("out").exists()


def _drop(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


@pytest.mark.parametrize("edit,match", [
    pytest.param(_drop("payload_shape"), "corrupt header: payload_shape None",
                 id="no-payload-shape"),
    pytest.param(lambda h: {**h, "payload_shape": [2, "x"]},
                 "corrupt header: payload_shape [2, 'x']", id="bad-payload-shape"),
    pytest.param(_drop("grid"), "not a dataset: KeyError 'grid'", id="no-grid"),
    pytest.param(_drop("normalization"), "not a dataset: KeyError 'normalization'",
                 id="no-normalization"),
    pytest.param(lambda h: {**h, "grid": 5}, "not a dataset: TypeError", id="grid-5"),
    pytest.param(lambda h: {**h, "n_snapshots": h["n_snapshots"] + 1},
                 "not a dataset: ValueError payload shape", id="snapshots-beyond-payload"),
    pytest.param(lambda h: {**h, "n_snapshots": h["n_snapshots"] - 1},
                 "not a dataset: ValueError payload shape", id="snapshots-short-of-payload"),
    pytest.param(lambda h: {**h, "times": h["times"][:-1]},
                 "not a dataset: ValueError payload shape", id="times-short"),
    pytest.param(lambda h: {**h, "trajectories": h["trajectories"][:-1]},
                 "not a dataset: ValueError payload shape", id="trajectories-short"),
    pytest.param(lambda h: {**h, "splits": []}, "not a dataset: TypeError", id="splits-a-list"),
    pytest.param(lambda h: {**h, "splits": {"train": [0], "test": [1]}},
                 "not a dataset: KeyError 'val'", id="no-val-split"),
    pytest.param(lambda h: {**h, "splits": {**h["splits"], "train": [0, 4]}},
                 "not a dataset: ValueError split indices outside the 4 trajectories",
                 id="split-index-beyond"),
])
def test_a_dataset_header_that_does_not_describe_its_payload_exits_2(
        small_run, tmp_path, monkeypatch, capsys, edit, match):
    monkeypatch.chdir(tmp_path)
    Path("bad.pdt").write_bytes(_edited_container(Path(small_run["data"]).read_bytes(), edit))
    _fails_with_one_line(capsys, ["train", "--data", "bad.pdt", "--epochs", "0",
                                  "--out", "s.ckpt"], f"input error: bad.pdt: {match}")
    assert not Path("s.ckpt").exists()


def test_train_without_epochs_counts_none(small_run, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli.main(["train", "--seed", "3", "--data", small_run["data"], "--epochs", "0",
                     "--out", "s.ckpt"]) == cli.EXIT_OK
    assert "over 0 epochs; checkpoint s.ckpt" in capsys.readouterr().out
    rows = Path("s.ckpt.loss.csv").read_text().splitlines()
    assert rows[0] == "epoch,train_loss,val_mse,seconds" and rows[1].startswith("-1,nan,")
    assert _holds_its_initial_weights(Surrogate.from_checkpoint("s.ckpt"))


def test_finetune_without_trajectories_or_without_epochs_reports_the_same(
        small_run, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen-data", "--seed", "3", "--families", "rp", "--n", "3", "--grid",
                     "16", "--split", "0.34,0.33,0.33", "--out", "d.pdt"]) == cli.EXIT_OK
    outputs = []
    for flags in (["--n-traj", "0"], ["--n-traj", "1", "--epochs", "0"]):
        capsys.readouterr()
        assert cli.main(["finetune", "--seed", "3", "--from", small_run["ckpt"],
                         "--data", "d.pdt", *flags, "--out", "ft.ckpt"]) == cli.EXIT_OK
        outputs.append((capsys.readouterr().out, Path("ft.ckpt.loss.csv").read_text()))
    assert outputs[0] == outputs[1]
    summary, rows = outputs[0]
    assert "finetune: best val MSE " in summary and " over 0 epochs; " in summary
    assert rows.splitlines()[1].startswith("-1,nan,") and len(rows.splitlines()) == 2


def test_finetune_without_a_val_split_reports_the_same_either_way(
        small_run, tmp_path, monkeypatch, capsys):
    # no val pairs: no held-out figure, rather than an MSE on the training pairs
    outputs = []
    for flags in (["--n-traj", "0"], ["--n-traj", "1", "--epochs", "0"]):
        capsys.readouterr()
        assert cli.main(["finetune", "--seed", "3", "--from", small_run["ckpt"],
                         "--data", small_run["data"], *flags,
                         "--out", str(tmp_path / "ft.ckpt")]) == cli.EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "finetune: best val MSE nan over 0 epochs; " in outputs[0]


def test_train_prm_twice_with_one_seed_writes_equal_checkpoints_and_losses(
        small_run, tmp_path, monkeypatch, capsys):
    """The triplets are rebuilt from counter-based candidate streams on
    every run, so a re-run trains on the same rows and writes the same
    checkpoint and losses; the summary reports the best holdout accuracy
    of the epochs it printed."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen-data", "--seed", "3", "--families", "rp", "--n", "3", "--grid",
                     "16", "--split", "0.34,0.33,0.33", "--out", "d.pdt"]) == cli.EXIT_OK
    run = ["train-prm", "--seed", "3", "--from", small_run["ckpt"], "--data", "d.pdt",
           "--K", "3", "--epochs", "2"]
    for name in ("a", "b"):
        capsys.readouterr()
        assert cli.main([*run, "--out", f"{name}.ckpt"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert Path("a.ckpt").read_bytes() == Path("b.ckpt").read_bytes()
    # each loss row up to its last column, the epoch's wall time
    losses = [[row.rsplit(",", 1)[0] for row in Path(f"{c}.ckpt.loss.csv").read_text().split()]
              for c in "ab"]
    assert losses[0] == losses[1] and len(losses[0]) == 3
    accs = [float(a) for a in re.findall(r"holdout acc (\S+)", out)]
    assert len(accs) == 2 and all(math.isfinite(a) for a in accs)
    best = float(re.search(r"best early-stopping accuracy (\S+);", out).group(1))
    assert best == max(accs)


@pytest.mark.parametrize("flag", ["--triplets-in", "--triplets-out"])
def test_train_prm_has_no_triplet_file_flags(small_run, tmp_path, monkeypatch, capsys, flag):
    monkeypatch.chdir(tmp_path)
    _fails_with_one_line(capsys, ["train-prm", "--from", small_run["ckpt"], "--data",
                                  small_run["data"], flag, "t.pdt", "--out", "out"],
                         f"unrecognized arguments: {flag} t.pdt")
    assert not Path("out").exists() and not Path("t.pdt").exists()


def test_rollout_saves_each_record_before_the_next_rollout(small_run, tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("short.json").write_text(json.dumps({"ttc": {"n_steps": 3}}))
    events = []
    sample, save = Surrogate.sample_candidates, ttc.save_rollout_record

    def sampling(self, *args, **kwargs):
        events.append("sample")
        return sample(self, *args, **kwargs)

    def saving(base, rec):
        events.append(f"save {Path(base).name}")
        save(base, rec)

    monkeypatch.setattr(Surrogate, "sample_candidates", sampling)
    monkeypatch.setattr(ttc, "save_rollout_record", saving)
    assert cli.main(["rollout", "--seed", "3", "--config", "short.json",
                     "--surrogate", small_run["ckpt"], "--data", small_run["data"],
                     "--B", "1,2", "--reward", "arm_mass", "--out-dir", "records"]) == cli.EXIT_OK
    want = []
    for ic in (0, 1):
        for b in (1, 2):
            want += ["sample"] * 3 + [f"save arm_mass_ic{ic:03d}_B{b}"]
    assert events == want


def test_evaluate_peak_memory_does_not_grow_with_the_records(small_run, tmp_path,
                                                             monkeypatch):
    """Two and six 21-state records at 16x16: evaluate holds one record at
    a time, so the six-record run's traced peak is not a record larger."""
    monkeypatch.chdir(tmp_path)
    data = small_run["data"]
    peaks = []
    for b_list in ("1,2", "1,2,3,4,5,6"):
        records = f"records{len(b_list)}"
        assert cli.main(["rollout", "--seed", "3", "--surrogate", small_run["ckpt"],
                         "--data", data, "--B", b_list, "--n-ics", "1",
                         "--reward", "arm_mass", "--out-dir", records]) == cli.EXIT_OK
        evaluate = ["evaluate", "--records-dir", records, "--data", data,
                    "--out-dir", f"eval{len(b_list)}"]
        assert cli.main(evaluate) == cli.EXIT_OK          # first-call costs untraced
        tracemalloc.start()
        try:
            assert cli.main(evaluate) == cli.EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    record_bytes = 21 * 4 * 16 * 16 * 8              # one record's float64 states
    assert peaks[1] - peaks[0] < record_bytes, peaks


def test_train_prm_divergence_writes_the_last_good_checkpoint(small_run, tmp_path,
                                                              monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("prm.json").write_text(json.dumps({"prm": {"train_trajectories": 1}}))
    capsys.readouterr()
    assert cli.main(["train-prm", "--seed", "3", "--config", "prm.json", "--from",
                     small_run["ckpt"], "--data", small_run["data"], "--K", "3",
                     "--epochs", "2", "--lr", "1e20", "--out", "prm.ckpt"]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["train-prm: training diverged; kept last good checkpoint"]
    assert _holds_its_initial_weights(rewards.ProcessRewardModel.from_checkpoint("prm.ckpt"))
    assert Path("prm.ckpt.loss.csv").read_text() == "epoch,train_loss,holdout_accuracy,seconds\n"


@pytest.mark.parametrize("command,inputs", [
    ("train", ["--data", "{data}"]),
    ("train-prm", ["--config", "prm.json", "--from", "{ckpt}", "--data", "{data}", "--K", "3"]),
], ids=["train", "train-prm"])
def test_a_diverging_program_prints_one_line(small_run, tmp_path, command, inputs):
    """Run as its own process, where numpy's floating-point warnings would
    reach stderr."""
    Path(tmp_path, "prm.json").write_text(json.dumps({"prm": {"train_trajectories": 1}}))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "pdettc.cli", command, "--seed", "3",
            *[a.format(**small_run) for a in inputs], "--epochs", "1", "--lr", "1e20",
            "--out", "out.ckpt"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_NUMERICAL, proc.stderr
    assert proc.stderr.splitlines() == [
        f"{command}: training diverged; kept last good checkpoint"], proc.stderr


_NUMPY_ONLY = """
import sys
import numpy as np
from pdettc import cli
from pdettc.rng import RngStream
from pdettc.vit import MODE_STOCHASTIC, ModelConfig, VisionTransformer
assert cli.main(["gen-data", "--families", "rp", "--n", "1", "--grid", "16",
                 "--out", "d.pdt"]) == cli.EXIT_OK
cfg = ModelConfig(height=8, width=8, patch_size=3, in_channels=5, out_channels=4,
                  embed_dim=8, depth=1, n_heads=2, mlp_ratio=2.0, dropout_p=0.1)
model = VisionTransformer(cfg, RngStream(0, 1))
for dtype in (np.float32, np.float64):
    model.forward(np.ones((1, 5, 8, 8), dtype), MODE_STOCHASTIC, RngStream(0, 2))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_the_cli_a_solve_and_both_forward_dtypes_import_no_scipy(tmp_path):
    """Run as its own process, whose modules no other test has imported."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _NUMPY_ONLY], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout


def test_a_config_that_sets_the_removed_time_channel_key_exits_2(tmp_path, monkeypatch,
                                                                 capsys):
    monkeypatch.chdir(tmp_path)
    Path("old.json").write_text(json.dumps({"model": {"time_channel": True}}))
    _fails_with_one_line(capsys, ["train", "--config", "old.json", "--data", "data.pdt",
                                  "--out", "s.ckpt"],
                         "unknown config key 'model.time_channel'")


@pytest.mark.parametrize("doc,key", [
    ({"train": {"loss_p": 1.5}}, "train.loss_p"),
    ({"finetune": {"loss_p": 2.0}}, "finetune.loss_p"),
    ({"prm": {"holdout_trajectories": 1}}, "prm.holdout_trajectories"),
])
def test_a_config_that_sets_a_removed_training_key_exits_2(tmp_path, monkeypatch, capsys,
                                                          doc, key):
    monkeypatch.chdir(tmp_path)
    Path("old.json").write_text(json.dumps(doc))
    _fails_with_one_line(capsys, ["train", "--config", "old.json", "--data", "data.pdt",
                                  "--out", "s.ckpt"], f"unknown config key '{key}'")


def test_the_environment_does_not_set_the_seed(monkeypatch):
    monkeypatch.setenv("PDETTC_SEED", "5")
    assert cli.load_config(None)["seed"] == 0


@pytest.mark.parametrize("flags,match", [
    (["--split", "val"], "the val split of {data} has 0 trajectories, fewer than the 1 needed"),
    (["--n-ics", "3"], "the test split of {data} has 2 trajectories, fewer than the 3 needed"),
], ids=["empty-split", "too-few-ics"])
def test_rollout_refuses_a_split_it_cannot_fill_before_it_loads_a_model(
        small_run, tmp_path, monkeypatch, capsys, flags, match):
    monkeypatch.chdir(tmp_path)

    def load(*_):
        raise AssertionError("loaded a model for a split it cannot fill")

    monkeypatch.setattr(Surrogate, "from_checkpoint", load)
    _fails_with_one_line(capsys, ["rollout", "--surrogate", small_run["ckpt"], "--data",
                                  small_run["data"], "--reward", "arm_mass", "--B", "1",
                                  *flags, "--out-dir", "records"], match.format(**small_run))
    assert not Path("records").exists()


def test_evaluate_refuses_indexes_that_list_no_record(small_run, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("records").mkdir()
    digest = storage.load_dataset(small_run["data"]).payload_digest
    Path("records/index.json").write_text(json.dumps(
        {"split": "test", "n_ics": 1, "dataset_digest": digest, "config_digest": "0" * 16,
         "records": []}))
    _fails_with_one_line(capsys, ["evaluate", "--records-dir", "records", "--data",
                                  small_run["data"], "--out-dir", "eval"],
                         "the rollout indexes under records list no record")
    assert not Path("eval").exists()


@pytest.fixture(scope="module")
def mismatched(small_run, tmp_path_factory):
    """Artifacts that do not match small_run's 16x16 ones: a 24x24 dataset
    and surrogate, and a 16x16 PRM."""
    root = tmp_path_factory.mktemp("mismatched")
    paths = {k: str(root / name) for k, name in
             (("data24", "data24.pdt"), ("ckpt24", "s24.ckpt"), ("prm16", "prm16.ckpt"))}
    assert cli.main(["gen-data", "--seed", "3", "--families", "rp", "--n", "2", "--grid",
                     "24", "--split", "0.5,0,0.5", "--out", paths["data24"]]) == cli.EXIT_OK
    ds24 = storage.load_dataset(paths["data24"])
    cfg24 = cli.model_config_for(cli.load_config(None), ds24.grid)
    Surrogate(cfg24, ds24.normalization).save(paths["ckpt24"])
    s16 = Surrogate.from_checkpoint(small_run["ckpt"])
    rewards.ProcessRewardModel(rewards.prm_backbone_config(s16.config),
                               s16.norm).save(paths["prm16"])
    return {**small_run, **paths}


_OF_16 = "{ckpt} holds a model for a 16x16 grid, but "


@pytest.mark.parametrize("argv,match", [
    (["rollout", "--surrogate", "{ckpt}", "--data", "{data24}", "--reward", "arm_mass",
      "--B", "1"], _OF_16 + "{data24} is on a 24x24 grid"),
    (["finetune", "--from", "{ckpt}", "--data", "{data24}", "--n-traj", "1"],
     _OF_16 + "{data24} is on a 24x24 grid"),
    (["train-prm", "--from", "{ckpt}", "--data", "{data24}"],
     _OF_16 + "{data24} is on a 24x24 grid"),
    (["rollout", "--surrogate", "{ckpt24}", "--data", "{data24}", "--prm", "{prm16}",
      "--B", "1"], "{prm16} holds a model for a 16x16 grid, but {ckpt24} is on a 24x24 grid"),
])
def test_artifacts_that_do_not_match_exit_before_any_work(mismatched, tmp_path, monkeypatch,
                                                          capsys, argv, match):
    monkeypatch.chdir(tmp_path)
    argv = [a.format(**mismatched) for a in argv]
    out = ["--out-dir", "out"] if argv[0] == "rollout" else ["--out", "out"]
    _fails_with_one_line(capsys, [*argv, *out], match.format(**mismatched))
    assert not Path("out").exists()


@pytest.mark.parametrize("argv,match", [
    (["rollout", "--surrogate", "{prm16}", "--data", "{data}", "--reward", "arm_mass",
      "--B", "1"], "{prm16}: checkpoint holds a 'prm' model, wanted 'surrogate'"),
    (["rollout", "--surrogate", "{ckpt}", "--data", "{data}", "--prm", "{ckpt}", "--B", "1"],
     "{ckpt}: checkpoint holds a 'surrogate' model, wanted 'prm'"),
    (["train-prm", "--from", "{prm16}", "--data", "{data}"],
     "{prm16}: checkpoint holds a 'prm' model, wanted 'surrogate'"),
    (["finetune", "--from", "{prm16}", "--data", "{data}", "--n-traj", "0"],
     "{prm16}: checkpoint holds a 'prm' model, wanted 'surrogate'"),
])
def test_a_checkpoint_of_the_wrong_kind_exits_2(mismatched, tmp_path, monkeypatch, capsys,
                                                argv, match):
    monkeypatch.chdir(tmp_path)
    argv = [a.format(**mismatched) for a in argv]
    out = ["--out-dir", "out"] if argv[0] == "rollout" else ["--out", "out"]
    _fails_with_one_line(capsys, [*argv, *out], match.format(**mismatched))
    assert not Path("out").exists()


def _short_rollout(small_run, b_list: str) -> None:
    """Two-step arm_mass rollouts of the first test IC into records/."""
    Path("short.json").write_text(json.dumps({"ttc": {"n_steps": 2}}))
    assert cli.main(["rollout", "--config", "short.json", "--surrogate", small_run["ckpt"],
                     "--data", small_run["data"], "--reward", "arm_mass", "--B", b_list,
                     "--n-ics", "1", "--out-dir", "records"]) == cli.EXIT_OK


def _edited_container(raw: bytes, edit) -> bytes:
    """A container's bytes with its header replaced by ``edit`` of it."""
    (n,) = struct.unpack("<Q", raw[16:24])
    blob = json.dumps(edit(json.loads(raw[24:24 + n]))).encode()
    return raw[:16] + struct.pack("<Q", len(blob)) + blob + raw[24 + n:]


def test_corrupt_rollout_json_exits_2(small_run, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _short_rollout(small_run, "1")
    index = Path("records/index.json")
    idx = json.loads(index.read_text())
    record = index.parent / (idx["records"][0]["base"] + ".bin")
    raw = record.read_bytes()
    not_a_record = f"input error: {record}: not a rollout record: "
    unrecorded = (f"config error: {index} does not record the split, n_ics, dataset and "
                  f"config digests and records it ran on")
    for path, bad, match in [
            (index, None, f"input error: {index}: corrupt JSON"),
            (record, None, f"input error: {record}: truncated payload"),
            (index, b"[]", f"{index} does not record the split"),
            (index, b"5", f"{index} does not record the split"),
            (index, json.dumps({**idx, "records": [_drop("base")(e) for e in idx["records"]]})
             .encode(), f"input error: {index}: not a rollout record entry: KeyError 'base'"),
            *[(index, json.dumps({**idx, **edit}).encode(), unrecorded)
              for edit in ({"records": {}}, {"records": "abc"}, {"n_ics": "1"})],
            (record, _edited_container(raw, lambda h: []),
             f"input error: {record}: corrupt header: not a JSON object"),
            (record, _edited_container(raw, lambda h: {k: h[k] for k in h if k != "times"}),
             not_a_record + "KeyError 'times'"),
            (record, _edited_container(raw, lambda h: {**h, "rewards": 5}),
             not_a_record + "TypeError"),
            (record, _edited_container(raw, lambda h: {**h, "times": h["times"][:1]}),
             not_a_record + "ValueError 1 times for 3 states")]:
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2] if bad is None else bad)
        for command in ("evaluate", "report"):
            _fails_with_one_line(capsys, [command, "--records-dir", "records", "--data",
                                          small_run["data"], "--out-dir", command], match)
        path.write_bytes(whole)
    assert cli.main(["evaluate", "--records-dir", "records", "--data", small_run["data"],
                     "--out-dir", "evaluate"]) == cli.EXIT_OK


def test_a_record_in_the_two_file_layout_exits_2(small_run, tmp_path, monkeypatch, capsys):
    """A record saved as <base>.json metadata beside a <base>.bin container
    of the states and their times alone is refused with one line."""
    monkeypatch.chdir(tmp_path)
    _short_rollout(small_run, "1")
    record = Path("records/arm_mass_ic000_B1.bin")
    header, payload = storage.read_container(record)
    kept = ("record_type", "channel_order", "times", "grid")
    storage.write_container(record, {k: header[k] for k in kept}, payload.shape, payload)
    meta = ("config", "ic_family", "ic_seed", "times", "rewards", "selected",
            "fallback_steps", "wall_times")
    Path("records/arm_mass_ic000_B1.json").write_text(json.dumps({k: header[k] for k in meta}))
    for command in ("evaluate", "report"):
        _fails_with_one_line(capsys, [command, "--records-dir", "records", "--data",
                                      small_run["data"], "--out-dir", command],
                             f"input error: {record}: not a rollout record: KeyError")


def test_records_of_one_reward_with_different_step_counts_exit_2(small_run, tmp_path,
                                                                  monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, b, steps in (("a", "1", 2), ("b", "2", 3)):
        Path(f"{name}.json").write_text(json.dumps({"ttc": {"n_steps": steps}}))
        assert cli.main(["rollout", "--config", f"{name}.json", "--surrogate",
                         small_run["ckpt"], "--data", small_run["data"], "--reward",
                         "arm_mass", "--B", b, "--n-ics", "1",
                         "--out-dir", f"records/{name}"]) == cli.EXIT_OK
    for command in ("evaluate", "report"):
        _fails_with_one_line(capsys, [command, "--records-dir", "records", "--data",
                                      small_run["data"], "--out-dir", command],
                             f"{Path('records/b/arm_mass_ic000_B2.bin')} runs 3 steps, "
                             "but the first arm_mass record runs 2")
        assert not Path(command).exists()


@pytest.mark.parametrize("first,match", [
    (["--teacher-forced"], "arm_mass_ic000_B4.bin has teacher_forced False, but the first "
                           "arm_mass record has True"),
    ([], "arm_mass_ic000_B4.bin ran with rollout seed "),
])
def test_records_of_one_reward_that_are_not_paired_exit_2(small_run, tmp_path, monkeypatch,
                                                          capsys, first, match):
    """A teacher-forced B=1 baseline, or one of another rollout seed, does
    not pair with a free-running B=4 rollout of seed 7."""
    monkeypatch.chdir(tmp_path)
    Path("short.json").write_text(json.dumps({"ttc": {"n_steps": 2}}))
    for name, flags in (("a", ["--B", "1", "--seed", "0", *first]),
                        ("b", ["--B", "4", "--seed", "7"])):
        assert cli.main(["rollout", "--config", "short.json", "--surrogate",
                         small_run["ckpt"], "--data", small_run["data"], "--reward",
                         "arm_mass", "--n-ics", "1", *flags,
                         "--out-dir", f"records/{name}"]) == cli.EXIT_OK
    for command in ("evaluate", "report"):
        _fails_with_one_line(capsys, [command, "--records-dir", "records", "--data",
                                      small_run["data"], "--out-dir", command],
                             f"config error: {Path('records/b')}/{match}")
        assert not Path(command).exists()


@pytest.mark.parametrize("entry", [{"B": 4}, {"reward": "arm_energy"}])
def test_an_index_entry_that_does_not_describe_its_record_exits_2(small_run, tmp_path,
                                                                  monkeypatch, capsys, entry):
    monkeypatch.chdir(tmp_path)
    _short_rollout(small_run, "1,2")
    index = Path("records/index.json")
    idx = json.loads(index.read_text())
    idx["records"][1].update(entry)
    index.write_text(json.dumps(idx))
    listed = {"reward": "arm_mass", "B": 2, **entry}
    for command in ("evaluate", "report"):
        _fails_with_one_line(capsys, [command, "--records-dir", "records", "--data",
                                      small_run["data"], "--out-dir", command],
                             f"{Path('records/arm_mass_ic000_B2.bin')} holds a rollout of "
                             f"reward arm_mass and B=2, but {index} lists it as reward "
                             f"{listed['reward']} and B={listed['B']}")


def test_a_rollout_directory_holds_the_index_and_one_container_per_record(
        small_run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _short_rollout(small_run, "1,2")
    bases = [f"arm_mass_ic000_B{b}" for b in (1, 2)]
    assert sorted(os.listdir("records")) == sorted(
        ["index.json"] + [f"{b}.bin" for b in bases] + [f"{b}.bin.json" for b in bases])


def test_report_writes_the_metrics_and_summary_of_evaluate(small_run, tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    _short_rollout(small_run, "1,2")
    for command in ("evaluate", "report"):
        assert cli.main([command, "--seed", "4", "--records-dir", "records", "--data",
                         small_run["data"], "--out-dir", command]) == cli.EXIT_OK
    for name in ("metrics.csv", "summary.json"):
        assert Path("report", name).read_bytes() == Path("evaluate", name).read_bytes()
    assert "sources" in json.loads(Path("report/summary.json").read_text())


def test_report_draws_the_truth_at_the_time_of_the_prediction(small_run, tmp_path,
                                                             monkeypatch):
    """The two-step rollout's final density beside the truth two steps on,
    not at the trajectory's last snapshot, on the grey scale of the pair."""
    monkeypatch.chdir(tmp_path)
    _short_rollout(small_run, "1,2")
    assert cli.main(["report", "--records-dir", "records", "--data", small_run["data"],
                     "--out-dir", "report"]) == cli.EXIT_OK
    pred = ttc.load_rollout_record("records/arm_mass_ic000_B2").chosen[-1]
    truth = storage.load_dataset(small_run["data"]).split_trajectories("test")[0]
    assert len(truth) > 3 and truth.snapshots[2].t == pytest.approx(pred.t)
    pair = {"field_truth_rho_ic000.ppm": truth.snapshots[2].rho,
            "field_arm_mass_B2_rho_ic000.ppm": pred.rho}
    lo = min(rho.min() for rho in pair.values())
    hi = max(rho.max() for rho in pair.values())
    for name, rho in pair.items():
        render.write_field_ppm(f"want_{name}", rho, lo, hi)
        assert Path("report", name).read_text() == Path(f"want_{name}").read_text(), name


def _edited_checkpoint(src, dst, edit) -> str:
    """Copy the checkpoint at src to dst with ``edit`` applied to its header."""
    raw = Path(src).read_bytes()
    (n,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + n])
    edit(header)
    blob = json.dumps(header).encode()
    Path(dst).write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + n:])
    return str(dst)


def _set(section, key, value):
    return lambda header: header[section].update({key: value})


def _reshape_pos(header):
    pos = next(p for p in header["params"] if p["name"] == "pos")
    pos["shape"] = pos["shape"][::-1]


def _rename_first_param(header):
    header["params"][0]["name"] += "x"


def _drop_normalization(header):
    header["normalization"] = None


@pytest.mark.parametrize("kind,edit,match", [
    pytest.param("surrogate", _set("config", "patch_size", 4),
                 "patch size must be odd, got 4", id="even-patch"),
    pytest.param("surrogate", _set("config", "zz", 1),
                 "unexpected keyword argument 'zz'", id="unknown-config-key"),
    pytest.param("surrogate", _set("config", "head", "scalar"),
                 "needs the 'image' head", id="scalar-head"),
    pytest.param("surrogate", _set("config", "in_channels", 4),
                 "in_channels must be 5, got 4", id="no-time-channel"),
    pytest.param("surrogate", _reshape_pos, "parameter pos has shape", id="param-shape"),
    pytest.param("surrogate", _rename_first_param, "parameter names do not match",
                 id="param-name"),
    pytest.param("surrogate", _set("extra", "zz", 1),
                 "unexpected keyword argument 'zz'", id="unknown-extra"),
    pytest.param("surrogate", _drop_normalization, "needs the dataset normalization",
                 id="no-normalization"),
    pytest.param("prm", _set("config", "in_channels", 5),
                 "in_channels must be 10, got 5", id="prm-in-channels"),
    pytest.param("prm", _set("extra", "orientation", "higher_better"),
                 "unexpected keyword argument 'orientation'", id="prm-orientation"),
])
def test_a_checkpoint_the_model_cannot_be_built_from_exits_2(mismatched, tmp_path,
                                                             monkeypatch, capsys, kind,
                                                             edit, match):
    monkeypatch.chdir(tmp_path)
    src = mismatched["ckpt"] if kind == "surrogate" else mismatched["prm16"]
    bad = _edited_checkpoint(src, tmp_path / "bad.ckpt", edit)
    models = (["--surrogate", bad, "--reward", "arm_mass"] if kind == "surrogate"
              else ["--surrogate", mismatched["ckpt"], "--prm", bad])
    err = _fails_with_one_line(capsys, ["rollout", *models, "--data", mismatched["data"],
                                        "--B", "1", "--out-dir", "out"],
                               f"input error: {bad}: cannot build a {kind} model: ")
    assert match in err, err
    assert not Path("out").exists()


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert cli.main(argv) == cli.EXIT_OK, argv[0]
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_the_dataset(tmp_path, monkeypatch):
    """gen-data, train --epochs 0 and rollout --n-ics 1 --B 1 on 4 and on
    48 trajectories at 16x16: each holds the snapshots it is using, not
    the dataset, so the larger run's traced peak is not two float64
    trajectories larger.  Half of each dataset is val, so that both runs
    forward the val pairs in whole training batches (32 pairs)."""
    monkeypatch.chdir(tmp_path)

    def commands(n):
        data, ckpt = f"d{n}.pdt", f"s{n}.ckpt"
        return [["gen-data", "--seed", "3", "--families", "rp", "--n", str(n), "--grid", "16",
                 "--split", "0.25,0.5,0.25", "--out", data],
                ["train", "--seed", "3", "--data", data, "--epochs", "0", "--out", ckpt],
                ["rollout", "--seed", "3", "--surrogate", ckpt, "--data", data, "--n-ics", "1",
                 "--B", "1", "--reward", "arm_mass", "--out-dir", f"r{n}"]]

    for argv in commands(4):
        assert cli.main(argv) == cli.EXIT_OK              # first-call costs untraced
    small, large = ([_traced_peak(argv) for argv in commands(n)] for n in (4, 48))
    trajectory_bytes = 21 * 4 * 16 * 16 * 8               # one trajectory's float64 states
    for command, a, b in zip(("gen-data", "train", "rollout"), small, large):
        assert b - a < 2 * trajectory_bytes, (command, a, b)


_GEN_16 = ["gen-data", "--seed", "3", "--families", "rp,kh", "--n", "4", "--grid", "16",
           "--split", "0.5,0.25,0.25", "--out", "data.pdt"]


def test_gen_data_writes_the_frozen_bytes(tmp_path, monkeypatch):
    """Two families with train, val and test trajectories.  The digests
    were computed with the writer that held every trajectory in memory
    until it wrote the file, and updated when the config digest in the
    header stopped hashing ``jobs`` and when the schema lost
    ``train.loss_p``, ``finetune.loss_p`` and ``prm.holdout_trajectories``;
    nothing but the config digest changed in either file."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(_GEN_16) == cli.EXIT_OK
    assert storage.load_dataset("data.pdt").split == {"train": [0, 2, 6, 7], "val": [1, 3],
                                                      "test": [4, 5]}
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
               for name in ("data.pdt", "data.pdt.json")}
    assert digests == {
        "data.pdt": "03a86fd5c479a40dc5f1d88d9a15805cdf020b9a65d45b4049b6c63a652ddf39",
        "data.pdt.json": "5ddc8f4fd758f002bbb16109a12d706e8dade05dde9dc021beaa34ef77a71319",
    }


def test_gen_data_with_one_or_two_jobs_writes_the_same_dataset(tmp_path, monkeypatch):
    """The container and its sidecar are byte-identical: the config
    digest leaves `jobs` out."""
    written = []
    for jobs in ("1", "2"):
        (tmp_path / jobs).mkdir()
        monkeypatch.chdir(tmp_path / jobs)
        assert cli.main([*_GEN_16, "--jobs", jobs]) == cli.EXIT_OK
        written.append((Path("data.pdt").read_bytes(), Path("data.pdt.json").read_bytes()))
    assert written[0] == written[1]


def test_an_open_dataset_keeps_reading_the_file_it_opened(tmp_path, monkeypatch):
    """A later gen-data replaces the path; the dataset opened before it
    still reads the rows it opened, never a row of the new file."""
    monkeypatch.chdir(tmp_path)
    gen = ["gen-data", "--families", "rp", "--n", "2", "--grid", "16", "--split", "0.5,0,0.5",
           "--out", "data.pdt"]
    assert cli.main([*gen, "--seed", "3"]) == cli.EXIT_OK
    _, first = storage.read_container("data.pdt")
    ds = storage.load_dataset("data.pdt")
    assert cli.main([*gen, "--seed", "4"]) == cli.EXIT_OK
    _, second = storage.read_container("data.pdt")
    assert not np.array_equal(first, second)
    for i, tr in enumerate(ds.trajectories):
        for k, s in enumerate(tr.snapshots):
            assert s.fields().tobytes() == first[i, k].astype(np.float64).tobytes()
    assert ds.payload_digest == hashlib.sha256(first.tobytes()).hexdigest()


@pytest.mark.parametrize("kind", ["dataset", "record"])
@pytest.mark.parametrize("size,match", [
    ("payload", "truncated payload"), ("header", "truncated header")])
def test_a_container_that_declares_more_than_its_file_holds_exits_2(
        small_run, tmp_path, monkeypatch, capsys, kind, size, match):
    """A payload_shape of 10**12 floats, or a header length of 2**62
    bytes, is refused by its size against the file's before anything of
    that size is read."""
    monkeypatch.chdir(tmp_path)
    data = small_run["data"]
    if kind == "dataset":
        path, argv = Path("bad.pdt"), ["train", "--data", "bad.pdt", "--out", "out"]
        path.write_bytes(Path(data).read_bytes())
    else:
        _short_rollout(small_run, "1")
        path = Path("records/arm_mass_ic000_B1.bin")
        argv = ["evaluate", "--records-dir", "records", "--data", data, "--out-dir", "out"]
    raw = path.read_bytes()
    if size == "payload":
        raw = _edited_container(raw, lambda h: {**h, "payload_shape": [10**12]})
    else:
        raw = raw[:16] + struct.pack("<Q", 2**62) + raw[24:]
    path.write_bytes(raw)
    _fails_with_one_line(capsys, argv, f"input error: {path}: {match}")
    assert not Path("out").exists()


@pytest.mark.parametrize("ic", [7, 1, -1])
def test_an_index_entry_outside_the_ics_it_ran_on_exits_2(small_run, tmp_path, monkeypatch,
                                                          capsys, ic):
    """The rollouts ran on one IC, so 0 is the only IC an entry can name;
    -1 used to score the record against the last trajectory."""
    monkeypatch.chdir(tmp_path)
    _short_rollout(small_run, "1")
    index = Path("records/index.json")
    idx = json.loads(index.read_text())
    idx["records"][0]["ic"] = ic
    index.write_text(json.dumps(idx))
    for command in ("evaluate", "report"):
        _fails_with_one_line(capsys, [command, "--records-dir", "records", "--data",
                                      small_run["data"], "--out-dir", command],
                             f"config error: {index} lists a record of ic {ic}, outside "
                             f"0 ... 0, the test trajectories it ran on")
        assert not Path(command).exists()


def test_records_that_do_not_cover_each_ic_at_each_b_exit_2(small_run, tmp_path, monkeypatch,
                                                             capsys):
    """Two test ICs at B = 1 and 4, with the index entry of (ic 1, B 4)
    deleted: refused with one line before any record is loaded, not a
    KeyError traceback in metrics.evaluate."""
    monkeypatch.chdir(tmp_path)
    Path("short.json").write_text(json.dumps({"ttc": {"n_steps": 2}}))
    assert cli.main(["rollout", "--config", "short.json", "--surrogate", small_run["ckpt"],
                     "--data", small_run["data"], "--reward", "arm_mass", "--B", "1,4",
                     "--out-dir", "records"]) == cli.EXIT_OK
    index = Path("records/index.json")
    idx = json.loads(index.read_text())
    assert idx["n_ics"] == 2
    idx["records"] = [e for e in idx["records"] if (e["ic"], e["B"]) != (1, 4)]
    index.write_text(json.dumps(idx))

    def loading(path):
        raise AssertionError(f"loaded {path}")

    monkeypatch.setattr(ttc, "load_rollout_record", loading)
    for command in ("evaluate", "report"):
        _fails_with_one_line(capsys, [command, "--records-dir", "records", "--data",
                                      small_run["data"], "--out-dir", command],
                             f"config error: no arm_mass record of ic 1 and B=4 in {index}")
        assert not Path(command).exists()
