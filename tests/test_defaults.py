"""Each default has one home.

The CLI's rollout settings are the defaults of `ttc.TTCConfig`, its data
split is `euler.SPLIT_DEFAULT`, and no module but `euler` (where it
lives) and `cli` (which offers it as the ``data.gamma`` default) names
the default gamma: every other consumer reads the gamma of the dataset
it works on.  The schema's keys are listed here, so that a new option
shows in review as one more line of that list.
"""

from pathlib import Path

from pdettc import cli, euler, ttc

SRC = Path(__file__).resolve().parent.parent / "src" / "pdettc"


def test_the_ttc_section_has_the_defaults_of_ttc_config():
    for name in ("reward", "n_steps", "teacher_forced"):
        assert cli.DEFAULTS["ttc"][name] == getattr(ttc.TTCConfig(), name), name


def test_the_data_section_has_the_solver_defaults():
    d = cli.DEFAULTS["data"]
    assert (d["gamma"], d["cfl"]) == (euler.GAMMA_DEFAULT, euler.CFL_DEFAULT)
    assert d["split"] == list(euler.SPLIT_DEFAULT)


def test_only_euler_and_cli_name_the_default_gamma():
    named = sorted(p.name for p in SRC.glob("*.py") if "GAMMA_DEFAULT" in p.read_text())
    assert named == ["cli.py", "euler.py"]


def test_the_config_schema_is_these_keys():
    assert sorted(cli._CONFIG_KEYS) == [
        "data.cfl", "data.families", "data.gamma", "data.n_per_family", "data.path",
        "data.split",
        "finetune.batch_size", "finetune.epochs", "finetune.lr", "finetune.n_traj",
        "finetune.weight_decay",
        "grid.nx", "grid.ny",
        "jobs",
        "model.patch", "model.preset",
        "prm.batch_triplets", "prm.epochs", "prm.k_candidates", "prm.lr", "prm.margin",
        "prm.patience", "prm.train_trajectories", "prm.weight_decay",
        "seed",
        "train.batch_size", "train.epochs", "train.lr", "train.weight_decay",
        "ttc.b_list", "ttc.n_ics", "ttc.n_steps", "ttc.reward", "ttc.split",
        "ttc.teacher_forced",
    ]
