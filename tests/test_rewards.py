import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdettc.euler import (GridSpec, ICSpec, Normalization, Snapshot, generate_dataset,
                          make_initial_condition, sample_ic, solve_trajectory)
from pdettc.rewards import (_PRM_DROPOUT_TAG, _PRM_SHUFFLE_TAG, EnergyReward, MassReward,
                            MomentumReward, OracleMseReward, PRMConfig, ProcessRewardModel,
                            Triplets, accumulate_margin_grad, build_prm_triplets,
                            prm_backbone_config, ranking_accuracy, train_prm)
from pdettc.surrogate import Surrogate, TrainConfig, fit, train
from pdettc.vit import MODE_DETERMINISTIC, MODE_TRAIN, ModelConfig

GAMMA = 1.4


def flat_snapshot(nx, ny, rho, vx, vy, p, t=0.0):
    shape = (nx, ny)
    return Snapshot.from_fields(np.stack([np.full(shape, rho), np.full(shape, vx),
                                          np.full(shape, vy), np.full(shape, p)]), t)


# ---------------------------------------------------------------------------
# analytical rewards


def arm(reward, u_t, u_n) -> float:
    """The score of one candidate under the score(cur, cands) protocol."""
    scores = reward.score(u_t, [u_n])
    assert scores.shape == (1,) and scores.dtype == np.float64
    return float(scores[0])


MASS, MOM_X, MOM_Y, ENERGY = (MassReward(), MomentumReward("x"), MomentumReward("y"),
                              EnergyReward(GAMMA))


def test_arm_zero_for_identical_snapshots():
    u = flat_snapshot(8, 8, 1.0, 0.2, -0.1, 0.7)
    assert arm(MASS, u, u) == 0.0
    assert arm(MOM_X, u, u) == 0.0
    assert arm(MOM_Y, u, u) == 0.0
    assert arm(ENERGY, u, u) == 0.0


def test_arm_mass_direct_arithmetic():
    n = 64
    u_t = flat_snapshot(8, 8, 100.0 / n, 0.0, 0.0, 1.0)
    u_n = flat_snapshot(8, 8, 101.0 / n, 0.0, 0.0, 1.0)
    assert arm(MASS, u_t, u_n) == pytest.approx(-0.01, abs=1e-14)


def test_arm_momentum_direct_arithmetic():
    n = 64
    u_t = flat_snapshot(8, 8, 1.0, 2.0 / n, 0.0, 1.0)
    u_n = flat_snapshot(8, 8, 1.0, 1.9 / n, 0.0, 1.0)
    assert arm(MOM_X, u_t, u_n) == pytest.approx(-0.05, abs=1e-12)


def test_arm_energy_direct_arithmetic():
    n = 64
    p_t = 50.0 * (GAMMA - 1.0) / n
    p_n = 49.0 * (GAMMA - 1.0) / n
    u_t = flat_snapshot(8, 8, 1.0, 0.0, 0.0, p_t)
    u_n = flat_snapshot(8, 8, 1.0, 0.0, 0.0, p_n)
    assert arm(ENERGY, u_t, u_n) == pytest.approx(-0.02, abs=1e-12)


def test_arm_values_never_positive():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = flat_snapshot(8, 8, *rng.uniform(0.5, 1.5, size=4))
        b = flat_snapshot(8, 8, *rng.uniform(0.5, 1.5, size=4))
        assert arm(MASS, a, b) <= 0.0
        assert arm(EnergyReward(GAMMA), a, b) <= 0.0


def _random_state(rng, nx, ny, t=0.0):
    """A physical state with non-uniform fields: rho, p > 0."""
    return Snapshot.from_fields(np.stack([
        rng.uniform(0.1, 2.0, (nx, ny)), rng.normal(size=(nx, ny)),
        rng.normal(size=(nx, ny)), rng.uniform(0.1, 2.0, (nx, ny))]), t)


_STATES = dict(seed=st.integers(0, 2**32 - 1), nx=st.integers(1, 9), ny=st.integers(1, 9),
               n_cands=st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(**_STATES)
def test_arms_are_never_positive_and_zero_on_the_current_state(seed, nx, ny, n_cands):
    rng = np.random.default_rng(seed)
    cur = _random_state(rng, nx, ny)
    cands = [_random_state(rng, nx, ny, 0.05) for _ in range(n_cands)] + [cur]
    for reward in (MASS, MOM_X, MOM_Y, ENERGY):
        scores = reward.score(cur, cands)
        assert scores.dtype == np.float64 and scores.shape == (n_cands + 1,)
        if reward in (MOM_X, MOM_Y) and np.isnan(scores).any():
            assert np.isnan(scores).all()       # undefined by the current total alone
            continue
        assert np.all(scores <= 0.0), type(reward).__name__
        assert scores[-1] == 0.0, type(reward).__name__


@settings(max_examples=40, deadline=None)
@given(**_STATES, shift=st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
def test_arms_are_exactly_invariant_under_a_shared_periodic_shift(seed, nx, ny, n_cands,
                                                                   shift):
    rng = np.random.default_rng(seed)
    cur = _random_state(rng, nx, ny)
    cands = [_random_state(rng, nx, ny, 0.05) for _ in range(n_cands)]

    def roll(s):
        return Snapshot.from_fields(np.roll(s.fields(), shift, axis=(1, 2)), s.t)

    for reward in (MASS, MOM_X, MOM_Y, ENERGY):
        plain = reward.score(cur, cands)
        shifted = reward.score(roll(cur), [roll(c) for c in cands])
        assert shifted.tobytes() == plain.tobytes(), type(reward).__name__


def test_arm_on_consecutive_solver_snapshots():
    traj = solve_trajectory(
        ICSpec("kh", {"rho_in": 2.0, "rho_out": 1.0, "u0": 0.5, "delta": 0.03,
                      "amp": 0.01, "k_mode": 1, "p0": 2.5}, seed=0),
        GridSpec(16, 16))
    for a, b in zip(traj.snapshots[:-1], traj.snapshots[1:]):
        assert arm(MASS, a, b) >= -1e-10
        assert arm(ENERGY, a, b) >= -1e-10


def test_zero_net_momentum_is_undefined():
    # uniform-density shear layer: band momentum cancels the outside
    spec = ICSpec("kh", {"rho_in": 1.0, "rho_out": 1.0, "u0": 0.5, "delta": 0.03,
                         "amp": 0.01, "k_mode": 1, "p0": 2.5}, seed=0)
    u = make_initial_condition(spec, GridSpec(32, 32))
    assert np.isnan(MOM_X.score(u, [u, u])).all()


def test_arm_invariant_under_shared_periodic_shift():
    grid = GridSpec(16, 16)
    tr = solve_trajectory(ICSpec("rp", {"x0": 0.5, "y0": 0.5, "states": [
        [1.0, 0.1, 0.0, 1.0], [0.6, 0.0, 0.1, 0.8],
        [0.8, -0.1, 0.0, 0.9], [1.2, 0.0, -0.1, 1.1]]}, seed=0), grid)
    a, b = tr.snapshots[3], tr.snapshots[4]

    def roll(s):
        return Snapshot.from_fields(np.roll(s.fields(), (5, -3), axis=(1, 2)), s.t)

    assert arm(MASS, a, b) == arm(MASS, roll(a), roll(b))
    assert arm(EnergyReward(GAMMA), a, b) == arm(EnergyReward(GAMMA), roll(a), roll(b))
    assert arm(MOM_X, a, b) == arm(MOM_X, roll(a), roll(b))


def test_arm_input_validation():
    u = flat_snapshot(8, 8, 1.0, 0.1, 0.0, 1.0)
    v = flat_snapshot(16, 16, 1.0, 0.1, 0.0, 1.0)
    with pytest.raises(ValueError, match="grid mismatch"):
        MASS.score(u, [u, v])
    bad = flat_snapshot(8, 8, -1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        MASS.score(bad, [bad])
    with pytest.raises(ValueError, match="component"):
        MomentumReward("z")


def test_oracle_scores_minus_normalized_mse_against_truth():
    traj = solve_trajectory(sample_ic("rp", seed=2), GridSpec(16, 16))
    norm = Normalization(mean=np.zeros(4), std=np.array([1.0, 2.0, 2.0, 4.0]))
    oracle = OracleMseReward(traj, norm)
    cur = traj.snapshots[4]
    noisy = Snapshot.from_fields(traj.snapshots[5].fields() + 0.01, traj.snapshots[5].t)
    scores = oracle.score(cur, [traj.snapshots[5], noisy])
    assert scores[0] == 0.0
    want = np.mean((0.01 / norm.std[:, None, None]) ** 2 * np.ones((4, 16, 16)))
    assert scores[1] == pytest.approx(-want, rel=1e-9)


# ---------------------------------------------------------------------------
# triplet construction


@pytest.fixture(scope="module")
def mini_dataset():
    return generate_dataset(["rp"], 3, GridSpec(16, 16), seed=13,
                            split_fractions=(0.67, 0.33, 0.0))


@pytest.fixture(scope="module")
def mini_surrogate(mini_dataset):
    cfg = ModelConfig(height=16, width=16, patch_size=3, in_channels=5,
                      out_channels=4, embed_dim=16, depth=1, n_heads=2,
                      mlp_ratio=2.0, dropout_p=0.1)
    return train(mini_dataset, cfg,
                 TrainConfig(lr=1e-3, epochs=1, batch_size=16, seed=5)).model


def test_build_triplets_ranked_and_train_split_only(mini_surrogate, mini_dataset):
    recs = build_prm_triplets(mini_surrogate, mini_dataset, 4, seed=3)
    assert len(recs), "expected at least one triplet"
    assert recs.fields.dtype == np.float32 and recs.fields.shape == (len(recs), 4, 4, 16, 16)
    train_ids = set(mini_dataset.split["train"])
    for m in recs.meta:
        assert m["traj"] in train_ids
        assert m["mse"][0] <= m["mse"][1] <= m["mse"][2]
        # median is the rank-K//2 (0-indexed) candidate of K=4
        assert m["mse"][1] >= m["mse"][0]


def test_building_triplets_holds_one_steps_candidates(mini_surrogate, mini_dataset):
    """A step's K candidates are dropped before the next step samples its
    own, so twelve more candidates per step cost less than one set of
    twelve, not two."""
    one = [mini_dataset.split["train"][0]]
    build_prm_triplets(mini_surrogate, mini_dataset, 3, seed=3, indices=one)
    peaks = {}
    for k in (3, 15):
        tracemalloc.start()
        try:
            build_prm_triplets(mini_surrogate, mini_dataset, k, seed=3, indices=one)
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    snapshot = 4 * 16 * 16 * 8
    assert peaks[15] - peaks[3] < 12 * snapshot, peaks


def test_building_triplets_embeds_each_step_once(mini_surrogate, mini_dataset, embed_sizes):
    one = mini_dataset.split["train"][0]
    build_prm_triplets(mini_surrogate, mini_dataset, 4, seed=3, indices=[one])
    assert embed_sizes == [1] * (len(mini_dataset.trajectories[one]) - 1)


def test_building_triplets_writes_each_row_once(mini_surrogate, mini_dataset):
    """Each kept row goes straight into the returned array, so the build
    never holds a second copy of its result: its peak exceeds what the
    result holds (rows and records) by less than a quarter of that."""
    one = [mini_dataset.split["train"][0]]
    build_prm_triplets(mini_surrogate, mini_dataset, 3, seed=3, indices=one)
    tracemalloc.start()
    try:
        recs = build_prm_triplets(mini_surrogate, mini_dataset, 3, seed=3, indices=one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(recs) > 1 and recs.fields.shape[-2:] == (16, 16)
    result = recs.fields.nbytes + sys.getsizeof(recs.meta) + sum(
        sys.getsizeof(m) + sum(map(sys.getsizeof, m.values())) + sum(map(sys.getsizeof, m["mse"]))
        for m in recs.meta)
    assert peak - result < 0.25 * result, (peak - result, result)


def test_build_triplets_k3_is_sorted_candidates(mini_surrogate, mini_dataset):
    recs = build_prm_triplets(mini_surrogate, mini_dataset, 3, seed=4,
                              indices=[mini_dataset.split["train"][0]])
    m = recs.meta[0]
    tr = mini_dataset.trajectories[m["traj"]]
    u = tr.snapshots[m["t_index"]]
    # regenerate the candidate set and check the triple is its MSE-sorted form
    from pdettc.rng import mix64
    from pdettc.rewards import _TRIPLET_TAG, norm_mse
    pair_seed = mix64(4, _TRIPLET_TAG, m["traj"])
    cands = mini_surrogate.sample_candidates(u, 3, pair_seed, t_index=m["t_index"])
    truth = tr.snapshots[m["t_index"] + 1]
    mses = [norm_mse(c.fields(), truth.fields(), mini_surrogate.norm) for c in cands]
    assert m["mse"] == pytest.approx(sorted(mses))
    ranked = [cands[i].fields() for i in np.argsort(mses, kind="stable")]
    assert recs.fields[0].tobytes() == np.array([u.fields(), *ranked], np.float32).tobytes()
    assert (m["t"], m["t_next"]) == (u.t, cands[0].t)


def test_build_triplets_degenerate_candidates_skipped(mini_dataset):
    cfg = ModelConfig(height=16, width=16, patch_size=3, in_channels=5,
                      out_channels=4, embed_dim=16, depth=1, n_heads=2,
                      mlp_ratio=2.0, dropout_p=0.0)   # p=0: all candidates identical
    s = Surrogate(cfg, mini_dataset.normalization, init_seed=0)
    recs = build_prm_triplets(s, mini_dataset, 4, seed=0)
    assert len(recs) == 0 and recs.meta == []
    assert recs.fields.shape == (0, 4, 4, 16, 16) and recs.fields.dtype == np.float32


def _row(mse=(1.0, 2.0, 3.0)):
    return {"traj": 0, "t_index": 0, "t": 0.0, "t_next": 0.05, "mse": list(mse)}


def test_triplet_record_order_enforced():
    fields = np.zeros((1, 4, 4, 8, 8), np.float32)
    with pytest.raises(ValueError, match="ascending"):
        Triplets(fields, [_row((3.0, 2.0, 1.0))])
    with pytest.raises(ValueError, match="ascending"):
        Triplets(fields, [_row((1.0, 3.0, 2.0))])
    Triplets(fields, [_row((2.0, 2.0, 2.0))])             # ties are ascending


@pytest.mark.parametrize("fields,meta", [
    (np.zeros((2, 4, 4, 8, 8), np.float32), [_row()]),
    (np.zeros((1, 3, 4, 8, 8), np.float32), [_row()]),
    (np.zeros((1, 4, 4, 8), np.float32), [_row()]),
    (np.zeros((1, 4, 4, 8, 8), np.float32), [{**_row(), "mse": [1.0, 2.0]}]),
    (np.zeros((1, 4, 4, 8, 8), np.float32), [{**_row(), "t": "0"}]),
], ids=["count", "slots", "ndim", "two-mse", "str-time"])
def test_triplets_refuse_rows_that_do_not_match(fields, meta):
    with pytest.raises(ValueError):
        Triplets(fields, meta)


def test_building_twice_with_one_seed_gives_equal_triplets(mini_surrogate, mini_dataset):
    built = [build_prm_triplets(mini_surrogate, mini_dataset, 3, seed=3) for _ in range(2)]
    assert len(built[0]) > 1
    assert built[0].fields.tobytes() == built[1].fields.tobytes()
    assert built[0].meta == built[1].meta


# ---------------------------------------------------------------------------
# PRM


def _noise_triplets(dataset, rng, stride=2):
    rows, meta = [], []
    std = dataset.normalization.std[:, None, None]

    def noisy(s, scale):
        return s.fields() + rng.normal(size=(4, 16, 16)) * scale * std

    for ti, tr in enumerate(dataset.trajectories):
        for k in range(0, len(tr) - 1, stride):
            nxt = tr.snapshots[k + 1]
            rows.append([tr.snapshots[k].fields(), noisy(nxt, 0.02), noisy(nxt, 0.1),
                         noisy(nxt, 0.4)])
            meta.append({"traj": ti, "t_index": k, "t": tr.snapshots[k].t,
                         "t_next": nxt.t + 0.05,
                         "mse": [0.02 ** 2, 0.1 ** 2, 0.4 ** 2]})
    return Triplets(np.array(rows, np.float32), meta)


def _rows(triplets, sel):
    """The Triplets of the rows ``sel`` of ``triplets``."""
    return Triplets(triplets.fields[sel], triplets.meta[sel])


def test_train_prm_learns_noise_ranking(mini_dataset):
    rng = np.random.default_rng(7)
    triplets = _noise_triplets(mini_dataset, rng)
    holdout, triplets = _rows(triplets, slice(6)), _rows(triplets, slice(6, None))
    cfg = ModelConfig(height=16, width=16, patch_size=3, in_channels=5,
                      out_channels=4, embed_dim=16, depth=1, n_heads=2,
                      mlp_ratio=2.0, dropout_p=0.1)
    res = train_prm(triplets, PRMConfig(backbone=cfg, epochs=40, lr=2e-3,
                                        batch_triplets=8, patience=20, seed=0),
                    mini_dataset.normalization, holdout=holdout)
    assert not res.diverged
    assert res.history[-1]["train_loss"] < res.history[0]["train_loss"]
    assert max(h["holdout_accuracy"] for h in res.history) >= 0.8
    assert ranking_accuracy(res.model, holdout) >= 0.8


def test_train_prm_non_finite_forward_diverges_and_keeps_the_best_weights(mini_dataset):
    triplets = _noise_triplets(mini_dataset, np.random.default_rng(7))
    cfg = ModelConfig(height=16, width=16, patch_size=3, in_channels=5,
                      out_channels=4, embed_dim=16, depth=1, n_heads=2,
                      mlp_ratio=2.0, dropout_p=0.1)
    init = ProcessRewardModel(rewards_backbone(cfg), mini_dataset.normalization, init_seed=0)
    for holdout in (None, _rows(triplets, slice(6))):
        res = train_prm(_rows(triplets, slice(6, None)),
                        PRMConfig(backbone=cfg, epochs=3, lr=1e20, batch_triplets=8, seed=0),
                        mini_dataset.normalization, holdout=holdout)
        assert res.diverged
        for name in init.store.names():      # diverged in the first epoch: the init
            assert np.array_equal(res.model.store[name].value, init.store[name].value), name


# One token per cell: 256 tokens and 2 heads at 16x16 give a micro-batch
# of 4 samples, so one triplet per training micro-batch.
MICRO_CFG = ModelConfig(height=16, width=16, patch_size=1, in_channels=5,
                        out_channels=4, embed_dim=8, depth=1, n_heads=2,
                        mlp_ratio=2.0, dropout_p=0.1)


def test_micro_batched_margin_gradients_equal_the_whole_batch_gradients(mini_dataset):
    cfg = prm_backbone_config(dataclasses.replace(MICRO_CFG, dropout_p=0.0))
    prm = ProcessRewardModel(cfg, mini_dataset.normalization, init_seed=4)
    assert prm.model.micro_batch == 4
    nb = 5
    x = np.random.default_rng(8).normal(size=(3 * nb, 10, 16, 16))   # float64
    scores = prm.model.forward(x, MODE_DETERMINISTIC).reshape(nb, 3)
    margin = float(np.median(scores[:, 1] - scores[:, 0]))     # some hinges active
    prm.store.zero_grad()
    s = prm.model.forward(x, MODE_TRAIN).reshape(nb, 3)
    h1 = s[:, 0] - s[:, 1] + margin
    h2 = s[:, 1] - s[:, 2] + margin
    assert 0 < np.sum(h1 > 0) < nb
    whole_loss = float(np.mean(np.maximum(h1, 0.0) + np.maximum(h2, 0.0)))
    g1, g2 = (h1 > 0) / nb, (h2 > 0) / nb
    prm.model.backward(np.stack([g1, g2 - g1, -g2], axis=1).reshape(-1))
    whole = {n: prm.store[n].grad.copy() for n in prm.store.names()}
    prm.store.zero_grad()
    loss = accumulate_margin_grad(prm.model, nb, lambda rows: x[3 * rows.start:3 * rows.stop],
                                  margin, None)
    assert loss == pytest.approx(whole_loss, rel=1e-12)
    # relative to the largest gradient entry: a triplet's score gradients sum
    # to 0, so some bias gradients are exactly 0 up to round-off
    scale = max(np.max(np.abs(w)) for w in whole.values())
    for name in prm.store.names():
        assert np.max(np.abs(prm.store[name].grad - whole[name])) <= 1e-12 * scale, name


def test_prm_training_builds_the_inputs_of_one_micro_batch_at_a_time(mini_dataset, input_sizes):
    triplets = _noise_triplets(mini_dataset, np.random.default_rng(7))
    cfg = PRMConfig(backbone=MICRO_CFG, epochs=2, batch_triplets=8, seed=0)
    # reference: each optimizer batch's inputs built whole, then sliced
    ref = ProcessRewardModel(prm_backbone_config(MICRO_CFG), mini_dataset.normalization,
                             init_seed=cfg.seed)

    def step(sel, rng):
        chunk = [(triplets.fields[j], triplets.meta[j]) for j in sel]
        cur = np.repeat(np.stack([f[0] for f, _ in chunk]), 3, axis=0)
        cur_t = np.repeat(np.array([m["t"] for _, m in chunk]), 3)
        cand = np.stack([f[slot] for f, _ in chunk for slot in (3, 2, 1)])
        cand_t = np.repeat(np.array([m["t_next"] for _, m in chunk]), 3)
        x = ref.inputs((cur, cur_t), (cand, cand_t))
        return accumulate_margin_grad(ref.model, len(sel),
                                      lambda rows: x[3 * rows.start:3 * rows.stop],
                                      cfg.margin, rng)

    fit(ref, len(triplets), cfg.batch_triplets, cfg, (_PRM_SHUFFLE_TAG, _PRM_DROPOUT_TAG),
        step, lambda loss: (-loss, {}), patience=cfg.patience)
    input_sizes.clear()                   # the reference's whole-batch inputs
    res = train_prm(triplets, cfg, mini_dataset.normalization)
    assert input_sizes == [3] * (2 * len(triplets))    # one whole triplet at a time
    for name in ref.store.names():
        assert res.model.store[name].value.tobytes() == ref.store[name].value.tobytes(), name


def test_prm_training_and_accuracy_forward_at_most_a_micro_batch(mini_dataset,
                                                                 forward_sizes):
    sizes = forward_sizes
    triplets = _noise_triplets(mini_dataset, np.random.default_rng(7))
    holdout, triplets = _rows(triplets, slice(6)), _rows(triplets, slice(6, None))
    res = train_prm(triplets, PRMConfig(backbone=MICRO_CFG, epochs=1, batch_triplets=8,
                                        seed=0),
                    mini_dataset.normalization, holdout=holdout)
    assert all(n <= m == 4 for _, n, m in sizes)
    train_sizes = [n for mode, n, _ in sizes if mode == MODE_TRAIN]
    assert train_sizes == [3] * len(triplets)            # one whole triplet each
    assert sum(n for mode, n, _ in sizes if mode == MODE_DETERMINISTIC) == 2 * len(holdout)
    sizes.clear()
    ranking_accuracy(res.model, holdout)
    assert [n for _, n, _ in sizes] == [1] * (2 * len(holdout))   # batch-1 best and worst


def test_prm_scoring_deterministic_and_stateless(mini_dataset):
    cfg = ModelConfig(height=16, width=16, patch_size=3, in_channels=5,
                      out_channels=4, embed_dim=16, depth=1, n_heads=2,
                      mlp_ratio=2.0, dropout_p=0.1)
    prm = ProcessRewardModel(rewards_backbone(cfg), mini_dataset.normalization,
                             init_seed=3)
    a = mini_dataset.trajectories[0].snapshots[0]
    b = mini_dataset.trajectories[0].snapshots[1]
    c = mini_dataset.trajectories[0].snapshots[2]
    s1 = prm.score(a, [b])
    s2 = prm.score(a, [b])
    assert s1.dtype == np.float64 and s1.shape == (1,)
    assert s1[0] == s2[0]                 # dropout off when scoring
    before = prm.score(a, [c])[0]
    prm.score(a, [b])                     # interleaved call must not matter
    assert prm.score(a, [c])[0] == before
    assert prm.score(a, [c, b]).tolist() == [before, s1[0]]
    assert prm.score(a, []).shape == (0,)


def test_prm_score_normalises_the_current_state_once(mini_dataset, monkeypatch):
    """One call builds one pair input and rewrites its candidate half per
    candidate; each score is the one a fresh pair input gives."""
    cfg = ModelConfig(height=16, width=16, patch_size=3, in_channels=5,
                      out_channels=4, embed_dim=16, depth=1, n_heads=2,
                      mlp_ratio=2.0, dropout_p=0.1)
    prm = ProcessRewardModel(rewards_backbone(cfg), mini_dataset.normalization,
                             init_seed=3)
    a, b, c = mini_dataset.trajectories[0].snapshots[:3]
    fresh = [prm.model.forward(prm.inputs((a.fields()[None], a.t), (s.fields()[None], s.t)),
                               MODE_DETERMINISTIC)[0] for s in (b, c, b)]
    applied = []
    apply = Normalization.apply

    def record(self, fields):
        applied.append(fields)
        return apply(self, fields)

    monkeypatch.setattr(Normalization, "apply", record)
    scores = prm.score(a, [b, c, b])
    assert scores.tobytes() == np.array(fresh, dtype=np.float64).tobytes()
    assert len(applied) == 4
    assert sum(np.shares_memory(f, a.data) for f in applied) == 1


def rewards_backbone(cfg):
    from pdettc.rewards import prm_backbone_config
    return prm_backbone_config(cfg)


def test_prm_checkpoint_roundtrip(tmp_path, mini_dataset):
    cfg = ModelConfig(height=16, width=16, patch_size=3, in_channels=5,
                      out_channels=4, embed_dim=16, depth=1, n_heads=2,
                      mlp_ratio=2.0, dropout_p=0.1)
    prm = ProcessRewardModel(rewards_backbone(cfg), mini_dataset.normalization,
                             init_seed=1)
    path = tmp_path / "prm.ckpt"
    prm.save(path)
    back = ProcessRewardModel.from_checkpoint(path)
    a = mini_dataset.trajectories[0].snapshots[0]
    b = mini_dataset.trajectories[0].snapshots[1]
    assert back.score(a, [b])[0] == prm.score(a, [b])[0]


def test_prm_score_follows_load_values(mini_dataset):
    cfg = rewards_backbone(ModelConfig(height=16, width=16, patch_size=3, in_channels=5,
                                       out_channels=4, embed_dim=16, depth=1, n_heads=2,
                                       mlp_ratio=2.0, dropout_p=0.1))
    a = ProcessRewardModel(cfg, mini_dataset.normalization, init_seed=1)
    b = ProcessRewardModel(cfg, mini_dataset.normalization, init_seed=2)
    u, v = mini_dataset.trajectories[0].snapshots[:2]
    before = a.score(u, [v])[0]
    a.store.load_values(b.store.values_copy())
    assert a.score(u, [v])[0] == b.score(u, [v])[0] != before


def test_prm_config_validation():
    cfg = ModelConfig()
    for bad in ({"margin": 0.0}, {"k_candidates": 2}, {"lr": 0.0}, {"lr": -1.0},
                {"patience": -1}, {"epochs": -1}, {"weight_decay": -1e-3}):
        with pytest.raises(ValueError):
            PRMConfig(backbone=cfg, **bad)
    PRMConfig(backbone=cfg, epochs=0, patience=0)
