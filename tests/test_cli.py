import json
from pathlib import Path

from pdettc import cli, metrics, storage, ttc


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
