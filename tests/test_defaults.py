"""Each default has one home.

The CLI's rollout settings are the defaults of `ttc.TTCConfig`, its data
split is `euler.SPLIT_DEFAULT`, and no module but `euler` (where it
lives) and `cli` (which offers it as the ``data.gamma`` default) names
the default gamma: every other consumer reads the gamma of the dataset
it works on.
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
