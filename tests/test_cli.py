import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdettc import cli, euler, metrics, rewards, storage, ttc
from pdettc.surrogate import Surrogate


def test_pipeline_end_to_end_in_process(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PDETTC_SEED", raising=False)
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
    monkeypatch.delenv("PDETTC_SEED", raising=False)
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
    sweeps = {}
    for entry in json.loads(Path("records/train/index.json").read_text())["records"]:
        rec = ttc.load_rollout_record(Path("records/train") / entry["base"])
        sweeps.setdefault(entry["reward"], {})[(entry["ic"], entry["B"])] = rec
    want = metrics.evaluate(sweeps, ds.split_trajectories("train")[:2],
                            ds.normalization, ds.gamma).summary_dict()
    got = json.loads(Path("eval/summary.json").read_text())
    assert got["mean_final_mse"] == want["mean_final_mse"]
    wrong = metrics.evaluate(sweeps, ds.split_trajectories("test")[:2],
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
    whole = Path("data.pdt").read_bytes()
    Path("data.pdt").write_bytes(whole[:-10])
    _fails_with_one_line(capsys, train, "truncated payload")
    Path("data.pdt").write_bytes(whole[:20])
    _fails_with_one_line(capsys, train, "truncated header")
    Path("data.pdt").write_bytes(b"not a container at all")
    _fails_with_one_line(capsys, train, "bad magic")
    storage.write_container("data.pdt", {"record_type": "TRIPLET"}, np.zeros((1, 2)))
    _fails_with_one_line(capsys, train, "record_type 'TRIPLET'")


def test_evaluate_rejects_records_of_another_dataset(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PDETTC_SEED", raising=False)
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
    assert index["dataset_digest"] == storage.payload_digest("data.pdt")
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

    monkeypatch.setattr(euler, "solve_trajectory", solve)
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
    monkeypatch.delenv("PDETTC_SEED", raising=False)
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
    ("train", ["--jobs", "0"], "'jobs' must be >= 1, got 0"),
    ("finetune", ["--jobs", "-3"], "'jobs' must be >= 1, got -3"),
    ("train-prm", ["--jobs", "0"], "'jobs' must be >= 1, got 0"),
])
def test_values_the_constructors_reject_exit_before_any_work(
        small_run, tmp_path, monkeypatch, capsys, command, flags, match):
    monkeypatch.chdir(tmp_path)

    def solve(*_, **__):
        raise AssertionError("solved a trajectory with a bad config")

    monkeypatch.setattr(euler, "solve_trajectory", solve)
    inputs = {"gen-data": [],
              "train": ["--data", small_run["data"]],
              "finetune": ["--from", small_run["ckpt"], "--data", small_run["data"]],
              "train-prm": ["--from", small_run["ckpt"], "--data", small_run["data"]]}
    _fails_with_one_line(capsys, [command, *inputs[command], *flags, "--out", "out"], match)
    assert not Path("out").exists()


@pytest.mark.parametrize("ttc_section,flags,key", [
    ({"n_steps": 21}, [], "ttc.n_steps"),
    ({"n_steps": 25}, [], "ttc.n_steps"),
    ({"n_steps": 0}, [], "ttc.n_steps"),
    ({"n_steps": 21}, ["--teacher-forced"], "ttc.n_steps"),
    ({"n_steps": 25}, ["--reward", "oracle_mse"], "ttc.n_steps"),
    ({"n_ics": -1}, [], "ttc.n_ics"),
    ({"reward": "zz"}, [], "ttc.reward"),
    ({}, ["--jobs", "0"], "jobs"),
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
    "*": [("--seed", "7", ["seed"], 7), ("--jobs", "3", ["jobs"], 3)],
    "gen-data": [
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
def test_each_config_flag_sets_exactly_its_key(monkeypatch, command):
    monkeypatch.delenv("PDETTC_SEED", raising=False)
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


def test_train_prm_refuses_an_empty_triplet_store(small_run, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ds = storage.load_dataset(small_run["data"])
    rewards.save_triplets("empty.npz", [], ds.grid, ds.gamma)
    _fails_with_one_line(capsys, ["train-prm", "--from", small_run["ckpt"],
                                  "--data", small_run["data"], "--triplets-in", "empty.npz",
                                  "--out", "out"], "empty.npz holds no triplets")
    assert not Path("out").exists()


def test_train_without_epochs_counts_none(small_run, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli.main(["train", "--seed", "3", "--data", small_run["data"], "--epochs", "0",
                     "--out", "s.ckpt"]) == cli.EXIT_OK
    assert "over 0 epochs; checkpoint s.ckpt" in capsys.readouterr().out
    rows = Path("s.ckpt.loss.csv").read_text().splitlines()
    assert rows[0] == "epoch,train_loss,val_mse,seconds" and rows[1].startswith("-1,nan,")
    assert _holds_its_initial_weights(Surrogate.from_checkpoint("s.ckpt"))


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
    env = {k: v for k, v in os.environ.items() if k != "PDETTC_SEED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
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
    env = {k: v for k, v in os.environ.items() if k != "PDETTC_SEED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
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


@pytest.fixture(scope="module")
def mismatched(small_run, tmp_path_factory):
    """Artifacts that do not match small_run's 16x16 ones: a 24x24 dataset
    and surrogate, and 16x16 PRM and triplet store."""
    root = tmp_path_factory.mktemp("mismatched")
    paths = {k: str(root / name) for k, name in
             (("data24", "data24.pdt"), ("ckpt24", "s24.ckpt"), ("prm16", "prm16.ckpt"),
              ("trip16", "trip16.pdt"))}
    assert cli.main(["gen-data", "--seed", "3", "--families", "rp", "--n", "2", "--grid",
                     "24", "--split", "0.5,0,0.5", "--out", paths["data24"]]) == cli.EXIT_OK
    ds24 = storage.load_dataset(paths["data24"])
    cfg24 = cli.model_config_for(cli.load_config(None), ds24.grid)
    Surrogate(cfg24, ds24.normalization).save(paths["ckpt24"])
    s16 = Surrogate.from_checkpoint(small_run["ckpt"])
    rewards.ProcessRewardModel(rewards.prm_backbone_config(s16.config),
                               s16.norm).save(paths["prm16"])
    ds16 = storage.load_dataset(small_run["data"])
    u = ds16.trajectories[0].snapshots
    rewards.save_triplets(paths["trip16"], [rewards.TripletRecord(
        current=u[0], best=u[1], median=u[1], worst=u[1], mse=(0.0, 0.0, 0.0))],
        ds16.grid, ds16.gamma)
    return {**small_run, **paths}


_OF_16 = "{ckpt} holds a model for a 16x16 grid, but "


@pytest.mark.parametrize("argv,match", [
    (["rollout", "--surrogate", "{ckpt}", "--data", "{data24}", "--reward", "arm_mass",
      "--B", "1"], _OF_16 + "{data24} is on a 24x24 grid"),
    (["finetune", "--from", "{ckpt}", "--data", "{data24}", "--n-traj", "1"],
     _OF_16 + "{data24} is on a 24x24 grid"),
    # a saved triplet store of the model's grid does not excuse the dataset
    (["train-prm", "--from", "{ckpt}", "--data", "{data24}", "--triplets-in", "{trip16}"],
     _OF_16 + "{data24} is on a 24x24 grid"),
    (["train-prm", "--from", "{ckpt}", "--data", "{data24}"],
     _OF_16 + "{data24} is on a 24x24 grid"),
    (["train-prm", "--from", "{ckpt24}", "--data", "{data24}", "--triplets-in", "{trip16}"],
     "{ckpt24} holds a model for a 24x24 grid, but {trip16} is on a 16x16 grid"),
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


def test_corrupt_rollout_json_exits_2(small_run, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("short.json").write_text(json.dumps({"ttc": {"n_steps": 2}}))
    assert cli.main(["rollout", "--config", "short.json", "--surrogate", small_run["ckpt"],
                     "--data", small_run["data"], "--reward", "arm_mass", "--B", "1",
                     "--n-ics", "1", "--out-dir", "records"]) == cli.EXIT_OK
    index = Path("records/index.json")
    record = index.parent / (json.loads(index.read_text())["records"][0]["base"] + ".json")
    meta = json.loads(record.read_text())
    for path, bad, match in [(index, None, f"input error: {index}: corrupt JSON"),
                             (record, None, f"input error: {record}: corrupt JSON"),
                             (index, "[]", f"{index} does not record the split"),
                             (index, "5", f"{index} does not record the split"),
                             (record, "{}", f"input error: {record}: not a rollout record: "
                                            "KeyError 'times'"),
                             (record, "[]", f"input error: {record}: not a rollout record: "
                                            "TypeError"),
                             (record, json.dumps({**meta, "times": meta["times"][:1]}),
                              f"{record}: not a rollout record: ValueError 1 times for 3 "
                              "states")]:
        whole = path.read_text()
        path.write_text(whole[: len(whole) // 2] if bad is None else bad)
        for command in ("evaluate", "report"):
            _fails_with_one_line(capsys, [command, "--records-dir", "records", "--data",
                                          small_run["data"], "--out-dir", command], match)
        path.write_text(whole)
    assert cli.main(["evaluate", "--records-dir", "records", "--data", small_run["data"],
                     "--out-dir", "evaluate"]) == cli.EXIT_OK


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
