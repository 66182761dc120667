import csv
import json
import math
import weakref

import numpy as np
import pytest

from pdettc import metrics
from pdettc.euler import GridSpec, Normalization, sample_ic, solve_trajectory
from pdettc.rewards import EnergyReward, MassReward, MomentumReward
from pdettc.ttc import RolloutRecord, TTCConfig

GAMMA = 1.4


def record_from(states, family):
    return RolloutRecord(config=TTCConfig(n_steps=len(states) - 1),
                         ic_family=family, ic_seed=3, start=states[0],
                         chosen=list(states[1:]))


# ---------------------------------------------------------------------------
# sample gain


def test_sample_gain_is_the_paired_ratio():
    assert metrics.sample_gain(0.5, 2.0) == 0.25
    assert metrics.sample_gain(3.0, 3.0) == 1.0


@pytest.mark.parametrize("mse_1", [0.0, -0.0, -1e-9])
def test_sample_gain_rejects_non_positive_baseline(mse_1):
    with pytest.raises(ValueError, match="baseline"):
        metrics.sample_gain(1.0, mse_1)


def test_aggregate_gain_is_one_minus_mean_ratio_in_percent():
    assert metrics.aggregate_gain([0.5]) == 50.0
    assert metrics.aggregate_gain([0.9, 1.1]) == pytest.approx(0.0, abs=1e-12)
    assert metrics.aggregate_gain(iter([1.2, 1.2])) == pytest.approx(-20.0)
    with pytest.raises(ValueError):
        metrics.aggregate_gain([])


# ---------------------------------------------------------------------------
# conservation trace


@pytest.mark.parametrize("family", ["rp", "kh"])
def test_conservation_trace_equals_the_arms_pair_by_pair(family):
    traj = solve_trajectory(sample_ic(family, seed=3), GridSpec(16, 16))
    states = traj.snapshots[:6]
    trace = metrics.conservation_trace(record_from(states, family), GAMMA)
    rewards = {"mass": MassReward(), "momentum_x": MomentumReward("x"),
               "momentum_y": MomentumReward("y"), "energy": EnergyReward(GAMMA)}
    for k in range(5):
        u_t, u_n = states[k], states[k + 1]
        for name, reward in rewards.items():
            want = reward.score(u_t, [u_n])[0]
            if np.isnan(want):               # kh has no net y-momentum
                assert name == "momentum_y" and np.isnan(trace[name][k])
            else:
                assert trace[name][k] == want
    assert np.isfinite(trace["momentum_x"]).all()


def test_conservation_trace_is_nan_where_momentum_is_undefined():
    # a gauss IC is at rest: zero net momentum, so the momentum ARMs are undefined
    grid = GridSpec(16, 16)
    traj = solve_trajectory(sample_ic("gauss", seed=2), grid)
    states = traj.snapshots[:4]
    assert np.isnan(MomentumReward("x").score(states[0], states[1:])).all()
    trace = metrics.conservation_trace(record_from(states, "gauss"), GAMMA)
    assert np.all(np.isnan(trace["momentum_x"])) and np.all(np.isnan(trace["momentum_y"]))
    assert np.all(np.isfinite(trace["mass"])) and np.all(np.isfinite(trace["energy"]))
    assert np.all(trace["mass"] <= 0.0)


# ---------------------------------------------------------------------------
# evaluate, CSV and summary


def small_report():
    grid = GridSpec(16, 16)
    truth = solve_trajectory(sample_ic("kh", seed=3), grid)
    steps = 3
    # the "rollouts" are the truth with a B-dependent perturbation
    records = {}
    for b, eps in ((1, 1e-2), (4, 5e-3)):
        chosen = []
        for s in truth.snapshots[1:steps + 1]:
            f = s.fields().copy()
            f[0] *= 1.0 + eps
            chosen.append(type(s).from_fields(f, s.t))
        records[(0, b)] = RolloutRecord(config=TTCConfig(n_branch=b, n_steps=steps),
                                        ic_family="kh", ic_seed=truth.ic.seed,
                                        start=truth.snapshots[0], chosen=chosen)
    norm = Normalization(mean=np.zeros(4), std=np.ones(4))
    return metrics.evaluate([("arm_mass", ic, b, rec) for (ic, b), rec in records.items()],
                            [truth], norm, GAMMA, dataset_label="ds", model_label="vit5")


def test_evaluate_reduces_a_stream_one_record_at_a_time(tmp_path):
    grid = GridSpec(16, 16)
    truths = [solve_trajectory(sample_ic("kh", seed=seed), grid) for seed in (3, 4)]
    keys = [(ic, b) for ic in (0, 1) for b in (1, 2, 4)]

    def make(ic, b):
        states = [truths[ic].snapshots[0]]
        for s in truths[ic].snapshots[1:4]:
            f = s.fields().copy()
            f[0] *= 1.0 + 1e-2 / b
            states.append(type(s).from_fields(f, s.t))
        return record_from(states, "kh")

    norm = Normalization(mean=np.zeros(4), std=np.ones(4))
    want = metrics.evaluate([("arm_mass", ic, b, make(ic, b)) for ic, b in keys],
                            truths, norm, GAMMA, dataset_label="ds", model_label="vit5")
    given = []

    def stream():
        for ic, b in reversed(keys):          # arrival order does not matter
            assert all(ref() is None for ref in given), "an earlier record is still held"
            rec = make(ic, b)
            given.append(weakref.ref(rec))
            yield "arm_mass", ic, b, rec
            del rec

    got = metrics.evaluate(stream(), truths, norm, GAMMA, dataset_label="ds",
                           model_label="vit5")
    assert len(given) == len(keys) == len(got.rows) // 3
    for name, report in (("want", want), ("got", got)):
        metrics.write_rows_csv(tmp_path / f"{name}.csv", report.rows)
        metrics.write_summary_json(tmp_path / f"{name}.json", report)
    for name in ("csv", "json"):
        streamed = (tmp_path / f"got.{name}").read_bytes()
        assert streamed == (tmp_path / f"want.{name}").read_bytes(), name


def test_evaluate_pairs_gains_against_b1():
    report = small_report()
    assert report.aggregates[("arm_mass", 1)] == 0.0
    assert report.aggregates[("arm_mass", 4)] > 0.0
    assert len(report.rows) == 2 * 3
    assert all(row["sg"] == 1.0 for row in report.rows if row["B"] == 1)


def test_rows_csv_round_trip(tmp_path):
    report = small_report()
    report.rows[0]["sg"] = None
    report.rows[1]["mom_x_arm"] = float("nan")
    path = tmp_path / "metrics.csv"
    metrics.write_rows_csv(path, report.rows)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert list(back[0]) == list(metrics.CSV_COLUMNS)
    assert len(back) == len(report.rows)
    assert back[0]["sg"] == "" and back[1]["mom_x_arm"] == ""
    for row, got in zip(report.rows, back):
        for key in metrics.CSV_COLUMNS:
            want = row[key]
            if want is None or (isinstance(want, float) and math.isnan(want)):
                continue
            if isinstance(want, float):
                assert float(got[key]) == want       # repr round-trips exactly
            else:
                assert got[key] == str(want)


def test_summary_json_round_trip(tmp_path):
    report = small_report()
    path = tmp_path / "summary.json"
    metrics.write_summary_json(path, report, extra={"config_digest": "abc"})
    doc = json.loads(path.read_text())
    assert doc == {**report.summary_dict(), "config_digest": "abc"}
    assert doc["aggregate_gain_percent"]["arm_mass"]["4"] == report.aggregates[("arm_mass", 4)]
    assert doc["mean_final_mse"]["arm_mass"]["1"] == report.final_mse[("arm_mass", 1)]
    assert path.read_text().endswith("}\n")
