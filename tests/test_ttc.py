import math
import tracemalloc

import numpy as np
import pytest

from pdettc.euler import GridSpec, Snapshot, generate_dataset
from pdettc.rewards import MassReward, ProcessRewardModel, prm_backbone_config
from pdettc.storage import StorageError, read_container, write_container
from pdettc.surrogate import Surrogate
from pdettc.ttc import (REWARD_NAMES, RolloutRecord, TTCConfig, greedy_rollout,
                        load_rollout_record, make_reward_model,
                        save_rollout_record, select)
from pdettc.vit import ModelConfig


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(["rp"], 2, GridSpec(16, 16), seed=31,
                            split_fractions=(0.5, 0.0, 0.5))


@pytest.fixture(scope="module")
def model(dataset):
    cfg = ModelConfig(height=16, width=16, patch_size=3, in_channels=5,
                      out_channels=4, embed_dim=16, depth=1, n_heads=2,
                      mlp_ratio=2.0, dropout_p=0.1)
    return Surrogate(cfg, dataset.normalization, init_seed=4)


class Scripted:
    """Reward that scores the candidates it is given with the next scripted
    values; records the candidate lists it was called with."""

    def __init__(self, values):
        self.values = list(values)
        self.seen = []

    def score(self, cur, cands):
        done = sum(len(c) for c in self.seen)
        self.seen.append(list(cands))
        return np.array(self.values[done:done + len(cands)], dtype=np.float64)


class Fixed:
    """Surrogate stand-in returning given candidates; records its inputs."""

    dt_out = 0.05

    def __init__(self, candidates):
        self.candidates = candidates
        self.states = []

    def sample_candidates(self, u, n_branch, rollout_seed, t_index=None):
        self.states.append(u)
        return self.candidates[:n_branch]


def _uniform(t, rho=1.0, p=1.0):
    f = np.ones((4, 8, 8))
    f[0], f[3] = rho, p
    return Snapshot.from_fields(f, t)


def _run(scores, n_branch=4, n_steps=1, candidates=None):
    start = _uniform(0.0)
    cands = candidates or [_uniform(0.05) for _ in range(n_branch)]
    reward = Scripted(scores)
    cfg = TTCConfig(n_branch=n_branch, reward="arm_mass", n_steps=n_steps)
    rec = greedy_rollout(Fixed(cands), reward, start, cfg)
    rec.verify_argmax()
    return rec, reward


def test_select_ties_go_to_lowest_index():
    assert select([-3.0, -1.0, -2.0, -1.0]) == (1, False)
    assert select(np.array([0.0, -0.0])) == (0, False)
    assert select([-0.0, 0.0]) == (0, False)


def test_select_without_a_finite_score_falls_back_to_zero():
    assert select([math.nan] * 3) == (0, True)
    assert select([math.inf, -math.inf, math.nan]) == (0, True)
    assert select([]) == (0, True)


def test_select_ignores_infinities():
    assert select([math.inf, -5.0, -math.inf, -4.0]) == (3, False)
    assert select([math.nan, -math.inf, -1e300]) == (2, False)


def test_ties_go_to_lowest_index():
    rec, _ = _run([-3.0, -1.0, -2.0, -1.0])
    assert rec.selected == [1]
    assert rec.fallback_steps == []


def test_all_undefined_falls_back_to_candidate_zero():
    rec, reward = _run([float("nan")] * 4 + [float("-inf")] * 4, n_steps=2)
    assert len(reward.seen) == 2                  # one call per step
    assert rec.selected == [0, 0]
    assert rec.fallback_steps == [0, 1]
    assert rec.rewards == [[None] * 4, [None] * 4]


def test_nan_and_inf_rewards_are_undefined_not_raised():
    rec, _ = _run([float("nan"), -2.0, float("inf"), -0.5])
    assert rec.rewards == [[None, -2.0, None, -0.5]]
    assert rec.selected == [3]
    assert rec.fallback_steps == []


@pytest.mark.parametrize("bad", [
    {"rho": 0.0}, {"rho": -1.0}, {"p": 0.0}, {"p": -0.5}, {"rho": float("nan")},
    {"p": float("inf")},
])
def test_non_physical_candidate_is_undefined_without_reward_call(bad):
    cands = [_uniform(0.05, **bad), _uniform(0.05)]
    rec, reward = _run([-1.0], n_branch=2, candidates=cands)
    assert len(reward.seen) == 1 and len(reward.seen[0]) == 1
    assert reward.seen[0][0] is cands[1]      # only the physical candidate is scored
    assert rec.rewards == [[None, -1.0]]
    assert rec.selected == [1]
    rec, reward = _run([], n_branch=1, candidates=cands[:1])
    assert reward.seen == [[]]                # nothing physical to score
    assert rec.rewards == [[None]] and rec.fallback_steps == [0]


class PerStep(Fixed):
    """Surrogate stand-in returning the candidate list scripted for each step."""

    def sample_candidates(self, u, n_branch, rollout_seed, t_index=None):
        self.states.append(u)
        return self.candidates[t_index][:n_branch]


def test_no_physical_candidate_continues_from_the_last_physical_state():
    start = _uniform(0.0, rho=2.0)
    negative = [_uniform(0.05, rho=-1.0), _uniform(0.05, rho=-1.0)]
    good = [_uniform(0.15, rho=2.0), _uniform(0.15, rho=1.5)]
    stand_in = PerStep([negative, negative, good])
    rec = greedy_rollout(stand_in, MassReward(), start, TTCConfig(n_branch=2, n_steps=3))
    rec.verify_argmax()
    assert rec.fallback_steps == [0, 1]
    assert rec.selected == [0, 0, 0]
    assert rec.rewards == [[None, None], [None, None], [0.0, -0.25]]
    for k in (0, 1):                              # the start state, its time advanced
        assert rec.chosen[k].fields() is start.fields()
        assert rec.chosen[k].t == pytest.approx(0.05 * (k + 1))
    assert rec.chosen[2] is good[0]
    assert stand_in.states == [start, rec.chosen[0], rec.chosen[1]]
    assert all(s.t == pytest.approx(0.05 * k) for k, s in enumerate(rec.states()[:3]))


def test_b_prefix_pairing_on_the_float32_path(model, dataset):
    start = dataset.trajectories[0].snapshots[0]
    recs = {b: greedy_rollout(model, MassReward(), start,
                              TTCConfig(n_branch=b, seed=17, n_steps=2))
            for b in (1, 4, 16)}
    first = {b: r.rewards[0][0] for b, r in recs.items()}
    assert first[1] is not None and len(set(first.values())) == 1
    cands = {b: model.sample_candidates(start, b, 17, t_index=0) for b in (1, 4, 16)}
    for i in range(4):
        assert np.array_equal(cands[4][i].fields(), cands[16][i].fields())
    assert np.array_equal(cands[1][0].fields(), cands[16][0].fields())
    for r in recs.values():
        r.verify_argmax()


def test_teacher_forced_feeds_truth_back(model, dataset):
    truth = dataset.trajectories[0]
    cfg = TTCConfig(n_branch=2, seed=3, n_steps=3, teacher_forced=True)
    fixed = Fixed(model.sample_candidates(truth.snapshots[0], 2, 3, t_index=0))
    rec = greedy_rollout(fixed, MassReward(), truth.snapshots[0], cfg, truth=truth)
    assert all(a is b for a, b in zip(fixed.states, truth.snapshots[:3], strict=True))
    assert len(rec.chosen) == 3
    free = Fixed(fixed.candidates)
    rec = greedy_rollout(free, MassReward(), truth.snapshots[0],
                         TTCConfig(n_branch=2, seed=3, n_steps=3))
    assert all(a is b for a, b in zip(free.states[1:], rec.chosen[:2], strict=True))
    with pytest.raises(ValueError, match="ground-truth"):
        greedy_rollout(model, MassReward(), truth.snapshots[0], cfg)


def test_rollout_record_round_trip_is_exact(tmp_path, model, dataset):
    truth = dataset.trajectories[0]
    rec = greedy_rollout(model, Scripted([-1.0, math.inf, math.nan, -1.0]),
                         truth.snapshots[0], TTCConfig(n_branch=2, seed=5, n_steps=2))
    rec.ic_family, rec.ic_seed = "rp", 123
    save_rollout_record(tmp_path / "a", rec)
    back = load_rollout_record(tmp_path / "a")
    assert back.config == rec.config
    assert (back.ic_family, back.ic_seed) == ("rp", 123)
    assert back.rewards == rec.rewards == [[-1.0, None], [None, -1.0]]
    assert back.selected == rec.selected and back.fallback_steps == rec.fallback_steps
    assert back.wall_times == rec.wall_times
    for a, b in zip(rec.states(), back.states()):
        assert b.t == a.t
        assert np.array_equal(b.fields(), a.fields().astype(np.float32))
    back.verify_argmax()
    save_rollout_record(tmp_path / "b", back)
    for name in ("{}.bin", "{}.bin.json"):
        assert ((tmp_path / name.format("a")).read_bytes()
                == (tmp_path / name.format("b")).read_bytes())


def test_verify_argmax_agrees_with_select_on_stored_records(tmp_path, model, dataset):
    start = dataset.trajectories[0].snapshots[0]
    rows = [[-1.0, -1.0, -3.0], [None, None, None], [None, -2.0, -0.5], [0.0, -0.0, None]]
    cands = model.sample_candidates(start, 3, 9, t_index=0)
    rec = RolloutRecord(config=TTCConfig(n_branch=3, n_steps=len(rows)), ic_family="rp",
                        ic_seed=0, start=start, chosen=[cands[0]] * len(rows),
                        rewards=rows, selected=[0, 0, 2, 0], fallback_steps=[1],
                        wall_times=[0.0] * len(rows))
    save_rollout_record(tmp_path / "r", rec)
    back = load_rollout_record(tmp_path / "r")
    back.verify_argmax()
    assert [select(np.array(r, dtype=np.float64)) for r in back.rewards] == [
        (0, False), (0, True), (2, False), (0, False)]
    for selected, fallback_steps in (([0, 0, 1, 0], [1]), ([1, 0, 2, 0], [1]),
                                     ([0, 0, 2, 0], []), ([0, 0, 2, 0], [1, 2])):
        back.selected, back.fallback_steps = selected, fallback_steps
        with pytest.raises(AssertionError):
            back.verify_argmax()


def test_verify_argmax_wants_exactly_the_fallback_steps(model, dataset):
    start = dataset.trajectories[0].snapshots[0]
    rows = [[-1.0, -3.0], [None, None], [None, None]]
    rec = RolloutRecord(config=TTCConfig(n_branch=2, n_steps=3), ic_family="rp", ic_seed=0,
                        start=start, chosen=[start] * 3, rewards=rows, selected=[0, 0, 0],
                        fallback_steps=[1, 2], wall_times=[0.0] * 3)
    rec.verify_argmax()
    for fallback_steps in ([1, 2, 99], [1, 2, "x"], [1, 1, 2], [2, 1], [1, 2, 2]):
        rec.fallback_steps = fallback_steps
        with pytest.raises(AssertionError, match="falls back at steps"):
            rec.verify_argmax()


@pytest.mark.parametrize("fallback_steps", [[99, "x"], [3], [-1], [0, 0], ["0"], [True],
                                            [1.0], "01"])
def test_a_record_whose_fallback_steps_are_not_its_steps_is_refused(tmp_path,
                                                                    fallback_steps):
    rec = RolloutRecord(config=TTCConfig(n_branch=2, reward="arm_mass", n_steps=3),
                        ic_family="rp", ic_seed=0, start=_uniform(0.0),
                        chosen=[_uniform(0.05 * k) for k in (1, 2, 3)],
                        rewards=[[-1.0, -2.0]] * 3, selected=[0, 0, 0],
                        wall_times=[0.0] * 3)
    save_rollout_record(tmp_path / "r", rec)
    header, payload = read_container(tmp_path / "r.bin")
    write_container(tmp_path / "r.bin", {**header, "fallback_steps": fallback_steps},
                    payload.shape, payload)
    with pytest.raises(StorageError, match="r.bin: not a rollout record: ValueError "
                                           "fallback_steps .* are not distinct steps of 0 ... 2"):
        load_rollout_record(tmp_path / "r")


def _traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_SNAPSHOT_BYTES = 4 * 16 * 16 * 8           # one float64 16x16 snapshot


def test_a_rollout_holds_one_steps_candidates(model, dataset):
    """Step k's candidates are dropped before step k+1 samples its own, so
    six more candidates per step cost about one set of six, not two."""
    start = dataset.trajectories[0].snapshots[0]

    def rollout(b):
        greedy_rollout(model, MassReward(), start,
                       TTCConfig(n_branch=b, reward="arm_mass", n_steps=3))

    rollout(2)
    peaks = {b: _traced_peak(lambda b=b: rollout(b)) for b in (2, 8)}
    assert peaks[8] - peaks[2] < 1.5 * 6 * _SNAPSHOT_BYTES, peaks


def test_saving_a_record_holds_no_copy_of_its_states(tmp_path):
    n = 20
    rec = RolloutRecord(config=TTCConfig(n_branch=1, reward="arm_mass", n_steps=n),
                        ic_family="rp", ic_seed=0,
                        start=Snapshot.from_fields(np.full((4, 16, 16), 1.0), 0.0),
                        chosen=[Snapshot.from_fields(np.full((4, 16, 16), 1.0 + k), 0.05 * k)
                                for k in range(1, n + 1)],
                        rewards=[[-1.0]] * n, selected=[0] * n, wall_times=[0.0] * n)
    save_rollout_record(tmp_path / "r", rec)
    peak = _traced_peak(lambda: save_rollout_record(tmp_path / "r", rec))
    assert peak < 0.5 * (n + 1) * _SNAPSHOT_BYTES, peak
    assert [s.t for s in load_rollout_record(tmp_path / "r").states()] == [
        s.t for s in rec.states()]


@pytest.mark.parametrize("name", REWARD_NAMES)
def test_candidate_scores_do_not_depend_on_b(name, model, dataset):
    truth = dataset.trajectories[0]
    prm = ProcessRewardModel(prm_backbone_config(model.config), dataset.normalization,
                             init_seed=2)
    reward = make_reward_model(name, gamma=dataset.gamma, prm=prm, truth=truth,
                               norm=dataset.normalization)
    start = truth.snapshots[1]
    scores = {b: reward.score(start, model.sample_candidates(start, b, 23, t_index=1))
              for b in (1, 4, 16)}
    assert scores[16].shape == (16,)
    for b in (1, 4):
        assert scores[b].tobytes() == scores[16][:b].tobytes()
    if not name.startswith("arm_momentum"):
        assert np.isfinite(scores[16]).all() and len(set(scores[16].tolist())) > 1


@pytest.mark.parametrize("edit,match", [
    ({"selected": []}, "0 selections for 3 steps"),
    ({"rewards": [[-1.0, -2.0]]}, "1 rewards rows for 3 steps"),
    ({"wall_times": []}, "0 wall times for 3 steps"),
    ({"rewards": [[-1.0, -2.0], [-1.0], [-1.0, -2.0]]}, "a rewards row without the 2 scores"),
    ({"config": {"n_branch": 2, "reward": "arm_mass", "seed": 0, "n_steps": 2,
                 "teacher_forced": False}}, "3 chosen states for 2 steps"),
])
def test_a_record_without_one_entry_per_step_and_candidate_is_refused(tmp_path, edit, match):
    rec = RolloutRecord(config=TTCConfig(n_branch=2, reward="arm_mass", n_steps=3),
                        ic_family="rp", ic_seed=0, start=_uniform(0.0),
                        chosen=[_uniform(0.05 * k) for k in (1, 2, 3)],
                        rewards=[[-1.0, -2.0]] * 3, selected=[0, 0, 0],
                        wall_times=[0.0] * 3)
    save_rollout_record(tmp_path / "r", rec)
    load_rollout_record(tmp_path / "r").verify_argmax()
    header, payload = read_container(tmp_path / "r.bin")
    write_container(tmp_path / "r.bin", {**header, **edit}, payload.shape, payload)
    with pytest.raises(StorageError, match=f"r.bin: not a rollout record: ValueError {match}"):
        load_rollout_record(tmp_path / "r")
