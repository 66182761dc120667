"""Tests of the benchmark itself, on a 16x16 grid.

    python3 -m pytest perfbench -q
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"      # before numpy loads

import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing as tr  # noqa: E402
import workloads as wl  # noqa: E402
from pdettc import storage  # noqa: E402

GRID = 16
SEED = 5
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _wrap_sites() -> dict:
    return {(id(owner), attr): raw for owner, attr, raw, _ in tr.public_callables()}


@pytest.fixture(scope="module", params=wl.WORKLOADS)
def runs(request, tmp_path_factory):
    """One untraced and two traced timed phases of a workload, one seed."""
    workload = request.param
    base = tmp_path_factory.mktemp(workload)
    cwd = Path.cwd()
    sites_before = _wrap_sites()
    try:
        (base / "setup0").mkdir()
        os.chdir(base / "setup0")
        wl.build_fixture(workload, SEED, GRID)
        out = {}
        for name, traced in (("plain", False), ("traced", True), ("traced_again", True)):
            (base / name).mkdir()
            os.chdir(base / name)
            out[name] = wl.run_timed(workload, SEED, traced, GRID)
    finally:
        os.chdir(cwd)
    out["sites"] = (sites_before, _wrap_sites())
    return workload, out


def test_runs_pass_their_checks(runs):
    _, out = runs
    for res in (out["plain"], out["traced"], out["traced_again"]):
        assert res["failed"] == 0, res["failures"]
        assert res["attempted"] > 0


def test_traced_run_gives_untraced_digests(runs):
    _, out = runs
    assert out["plain"]["digests"]
    assert out["traced"]["digests"] == out["plain"]["digests"]


def test_every_wrapper_is_removed(runs):
    _, out = runs
    before, after = out["sites"]
    assert after == before
    tracer = tr.Tracer().install()
    assert _wrap_sites() != before
    tracer.uninstall()
    assert _wrap_sites() == before
    for (owner_id, attr), raw in before.items():
        fn = getattr(raw, "__func__", raw)
        assert not hasattr(fn, "__wrapped__"), attr


def test_layer_counts_repeat_exactly(runs):
    _, out = runs
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    first, again = out["traced"]["layers"], out["traced_again"]["layers"]
    assert {n: first[n] for n in counts} == {n: again[n] for n in counts}


def test_reported_metrics_match_benchmark_json(runs):
    _, out = runs
    layer_names = set(out["traced"]["layers"]) | {"trace.overhead_s"}
    assert layer_names == {m["name"] for m in SPEC["per_layer"]}
    e2e = set(out["plain"]) | {"setup_s", "pass_frac"}
    assert {m["name"] for m in SPEC["end_to_end"]} <= e2e


EXERCISED = {
    "solve": ["euler.fv_step.calls", "euler.fv_step.self_s", "storage.save_dataset.bytes"],
    "train": ["vit.VisionTransformer.forward.train.samples", "vit.VisionTransformer.backward.s",
              "nn.AdamW.step.s", "rewards.build_prm_triplets.records"],
    "rollout": ["ttc.greedy_rollout.calls", "ttc.step_ms.B16.p50", "ttc.score_s",
                "rewards.ProcessRewardModel.score.calls", "render.s"],
}


def test_exercised_layers_report_work(runs):
    workload, out = runs
    layers = out["traced"]["layers"]
    assert all(layers[name] > 0 for name in EXERCISED[workload]), layers
    if workload == "rollout":
        assert layers["ttc.greedy_rollout.calls"] == 2 * len(wl.B_LIST.split(","))


def test_metric_names_and_counts():
    e2e, layers = SPEC["end_to_end"], SPEC["per_layer"]
    names = [m["name"] for m in e2e + layers]
    assert len(e2e) <= 16 and len(layers) <= 128
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert {"setup_s"} <= {m["name"] for m in e2e}
    assert max(m["bound"] for m in e2e) == next(m["bound"] for m in e2e
                                                if m["name"] == "setup_s")


def test_hot_callables_are_wrap_sites():
    assert set(wl.HOT) <= {name for *_, name in tr.public_callables()}


def test_filtered_seconds_counts_each_call_at_its_group_fastest():
    # ten 1 s calls and one 5 s call of the same shape, a 3 s call of
    # another shape, then 2 s of other work
    spans, t = [], 0.0
    for i, (dur, grid) in enumerate([(1.0, 64)] * 10 + [(5.0, 64), (3.0, 128)]):
        spans.append((i, -1, "euler.fv_step", ((grid, grid),), t, t + dur, dur))
        t += dur
    end = t + 2.0
    intervals = {"all": (0.0, end), "slow": (10.0, 15.0)}
    summary = tr.hot_summary(spans, ["euler.fv_step"], intervals)
    summary = json.loads(json.dumps(summary))       # as passed between processes
    assert tr.filtered_seconds(summary, "all") == pytest.approx(16.0)
    # a stage holding only the slow call still counts it at the group's fastest
    assert tr.filtered_seconds(summary, "slow") == pytest.approx(1.0)
    unfiltered = tr.hot_summary(spans, [], intervals)
    assert tr.filtered_seconds(unfiltered, "all") == pytest.approx(end)
    # pooled with another phase whose 64x64 calls took 0.5 s
    other = tr.hot_summary([(0, -1, "euler.fv_step", ((64, 64),), 0.0, 0.5, 0.5)],
                           ["euler.fv_step"], {"all": (0.0, 0.5)})
    fastest = tr.pooled_fastest([summary, other])
    assert tr.filtered_seconds(summary, "all", fastest) == pytest.approx(16.0 - 5.5)


def test_shape_key_separates_dtypes_and_parameter_stores():
    from pdettc.nn import Param, ParamStore
    a64, a32 = np.zeros((2, 3)), np.zeros((2, 3), dtype=np.float32)
    assert tr.shape_key((a64,), {}) != tr.shape_key((a32,), {})
    small = ParamStore({"w": Param(np.zeros(4))})
    large = ParamStore({"w": Param(np.zeros(4)), "b": Param(np.zeros(2))})
    assert tr.shape_key((small,), {}) != tr.shape_key((large,), {})


def test_solve_normaliser_ignores_the_solver_time_step(tmp_path, monkeypatch):
    # Halving the CLI's CFL number doubles the solver steps; the reference
    # steps, taken from the solution alone, stay put, so the time shows it.
    monkeypatch.chdir(tmp_path)
    steps, calls = {}, {}
    for cfl in ("0.4", "0.2"):
        tally = wl.Tally()
        with tr.Tracer(only=["euler.fv_step"]) as tracer:
            tally.cli(["gen-data", "--seed", str(SEED), "--families", "rp", "--n", "1",
                       "--grid", str(GRID), "--jobs", "1", "--cfl", cfl,
                       "--out", f"cfl{cfl}.pdt"], io.StringIO())
        assert tally.failed == 0, tally.failures
        calls[cfl] = len(tracer.spans)
        steps[cfl] = wl.reference_steps(storage.load_dataset(f"cfl{cfl}.pdt"))
    assert calls["0.2"] > 1.8 * calls["0.4"]
    assert steps["0.2"] == pytest.approx(steps["0.4"], rel=0.05)
    assert steps["0.4"] == pytest.approx(calls["0.4"], rel=0.1)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _write_records(directory, workload, values, raw=None):
    directory.mkdir()
    for seed, v in enumerate(values):
        rec = {"workload": workload, "extra": {"raw_wall_s": (raw or values)[seed]},
               "metrics": {"wall_s": {"value": v, "unit": "s"}}}
        (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(rec))


def test_compare_marks_regressions_and_unresolved_spreads(tmp_path, capsys):
    import run as bench
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    _write_records(tmp_path / "base", "train", steady)
    _write_records(tmp_path / "slower", "train", [v * (1 + 2 * bound) for v in steady])
    _write_records(tmp_path / "noisy", "train", [5.0, 10.0, 20.0, 8.0, 14.0])
    bench.compare(tmp_path / "base", tmp_path / "slower", SPEC)
    assert "WORSE" in capsys.readouterr().out
    bench.compare(tmp_path / "base", tmp_path / "noisy", SPEC)
    assert "unresolved" in capsys.readouterr().out
    bench.compare(tmp_path / "base", tmp_path / "base", SPEC)
    out = capsys.readouterr().out
    assert "within bound" in out and "raw WORSE" not in out
    _write_records(tmp_path / "raw_slower", "train", steady,
                   raw=[v * (1 + 2 * bound) for v in steady])
    bench.compare(tmp_path / "base", tmp_path / "raw_slower", SPEC)
    out = capsys.readouterr().out
    assert "within bound" in out and "raw WORSE" in out
