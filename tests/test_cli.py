import json
from pathlib import Path

from pdettc import cli, ttc


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
