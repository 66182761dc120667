import dataclasses
import tracemalloc

import numpy as np
import pytest

from pdettc.euler import GridSpec, ICSpec, assemble_dataset, generate_dataset, solve_trajectory
from pdettc.nn import Param, ParamStore
from pdettc.rewards import ProcessRewardModel, prm_backbone_config
from pdettc.surrogate import (_DROPOUT_TAG, _SHUFFLE_TAG, Surrogate, TrainConfig,
                              _gather, _val_mse, accumulate_loss_grad, candidate_stream,
                              consecutive_pairs, finetune, fit, fit_surrogate,
                              select_finetune_trajectories, train)
from pdettc.vit import MODE_DETERMINISTIC, MODE_STOCHASTIC, MODE_TRAIN, ModelConfig


def small_cfg(grid, dropout=0.1, embed=16):
    return ModelConfig(height=grid.nx, width=grid.ny, patch_size=3,
                       in_channels=5, out_channels=4, embed_dim=embed,
                       depth=1, n_heads=2, mlp_ratio=2.0, dropout_p=dropout)


@pytest.fixture(scope="module")
def rp_dataset():
    return generate_dataset(["rp"], 6, GridSpec(16, 16), seed=21,
                            split_fractions=(0.5, 0.25, 0.25))


@pytest.fixture(scope="module")
def rp_surrogate(rp_dataset):
    cfg = small_cfg(rp_dataset.grid)
    return train(rp_dataset, cfg, TrainConfig(lr=1e-3, epochs=2, batch_size=16,
                                              seed=3)).model


def test_deterministic_infer_bit_identical(rp_surrogate, rp_dataset):
    u = rp_dataset.trajectories[0].snapshots[0]
    a = rp_surrogate.predict(u, MODE_DETERMINISTIC)
    b = rp_surrogate.predict(u, MODE_DETERMINISTIC)
    assert np.array_equal(a.fields(), b.fields())
    assert a.t == pytest.approx(u.t + rp_surrogate.dt_out)


def test_stochastic_streams_differ_20_of_20(rp_dataset):
    # D = 64 with dropout 0.1: distinct streams must give distinct fields
    cfg = ModelConfig(height=16, width=16, patch_size=3, in_channels=5,
                      out_channels=4, embed_dim=64, depth=2, n_heads=4,
                      mlp_ratio=2.0, dropout_p=0.1)
    s = Surrogate(cfg, rp_dataset.normalization, init_seed=1)
    u = rp_dataset.trajectories[0].snapshots[0]
    for pair in range(20):
        a = s.predict(u, MODE_STOCHASTIC, candidate_stream(7, 0, 2 * pair))
        b = s.predict(u, MODE_STOCHASTIC, candidate_stream(7, 0, 2 * pair + 1))
        assert not np.array_equal(a.fields(), b.fields()), f"pair {pair} identical"


def test_zero_dropout_stochastic_equals_deterministic(rp_dataset):
    cfg = small_cfg(rp_dataset.grid, dropout=0.0)
    s = Surrogate(cfg, rp_dataset.normalization, init_seed=2)
    u = rp_dataset.trajectories[1].snapshots[3]
    a = s.predict(u, MODE_STOCHASTIC, candidate_stream(1, 3, 0))
    b = s.predict(u, MODE_DETERMINISTIC)
    assert np.array_equal(a.fields(), b.fields())


def test_candidates_count_finite_and_replayable(rp_surrogate, rp_dataset):
    u = rp_dataset.trajectories[2].snapshots[0]
    c1 = rp_surrogate.sample_candidates(u, 8, rollout_seed=5, t_index=0)
    c2 = rp_surrogate.sample_candidates(u, 8, rollout_seed=5, t_index=0)
    assert len(c1) == 8
    for a, b in zip(c1, c2):
        assert np.array_equal(a.fields(), b.fields())
        assert np.all(np.isfinite(a.fields()))


def test_candidate_prefix_property(rp_surrogate, rp_dataset):
    u = rp_dataset.trajectories[2].snapshots[0]
    small = rp_surrogate.sample_candidates(u, 2, rollout_seed=9, t_index=4)
    big = rp_surrogate.sample_candidates(u, 6, rollout_seed=9, t_index=4)
    for a, b in zip(small, big[:2]):
        assert np.array_equal(a.fields(), b.fields())


def test_candidates_are_pure_functions_of_stream_id(rp_surrogate, rp_dataset):
    # permuting stream ids permutes candidates correspondingly
    u = rp_dataset.trajectories[2].snapshots[0]
    cands = rp_surrogate.sample_candidates(u, 4, rollout_seed=11, t_index=1)
    for i in (3, 1, 0, 2):
        direct = rp_surrogate.predict(u, MODE_STOCHASTIC, candidate_stream(11, 1, i))
        assert np.array_equal(direct.fields(), cands[i].fields())


def test_predicting_leaves_no_garbage_behind(rp_surrogate, rp_dataset):
    """500 warmed stochastic predictions, with no gc.collect() between
    them, grow the traced memory by less than 32 KB; a wrap pad by np.pad
    left about 144 bytes of reference cycles per call."""
    u = rp_dataset.trajectories[2].snapshots[0]
    for i in range(20):
        rp_surrogate.predict(u, MODE_STOCHASTIC, candidate_stream(1, 0, i))
    tracemalloc.start()
    try:
        for i in range(500):
            c = rp_surrogate.predict(u, MODE_STOCHASTIC, candidate_stream(1, 0, i))
        del c
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert grown < 32 * 1024, grown


def test_training_on_steady_dataset_reaches_1e6():
    grid = GridSpec(8, 8)
    specs = [ICSpec("gauss", {"rho0": r, "p0": p, "bumps": []}, seed=0)
             for r, p in [(0.9, 1.1), (1.0, 1.0), (1.1, 0.9), (1.2, 1.2)]]
    trajs = [solve_trajectory(s, grid) for s in specs]
    ds = assemble_dataset(trajs, grid, 0, ("gauss",), (1.0, 0.0, 0.0), 1.4)
    cfg = ModelConfig(height=8, width=8, patch_size=3, in_channels=5,
                      out_channels=4, embed_dim=16, depth=1, n_heads=2,
                      mlp_ratio=2.0, dropout_p=0.0)
    res = train(ds, cfg, TrainConfig(lr=5e-3, weight_decay=0.0, batch_size=16,
                                     epochs=300, seed=0))
    assert not res.diverged
    # no val split: the kept weights are those of the lowest train loss
    assert all(np.isnan(h["val_mse"]) for h in res.history)
    assert _val_mse(res.model, ds, consecutive_pairs(ds, ds.split["train"])) < 1e-6


def test_training_is_deterministic(rp_dataset):
    cfg = small_cfg(rp_dataset.grid)
    tc = TrainConfig(lr=1e-3, epochs=2, batch_size=8, seed=11)
    r1 = train(rp_dataset, cfg, tc)
    r2 = train(rp_dataset, cfg, tc)
    assert r1.history[-1]["train_loss"] == r2.history[-1]["train_loss"]
    assert r1.history[-1]["val_mse"] == r2.history[-1]["val_mse"]
    for n in r1.model.store.names():
        assert np.array_equal(r1.model.store[n].value, r2.model.store[n].value)


def test_training_improves_over_initialization(rp_dataset):
    cfg = small_cfg(rp_dataset.grid)
    tc = TrainConfig(lr=1e-3, epochs=6, batch_size=16, seed=4)
    init = Surrogate(cfg, rp_dataset.normalization, init_seed=tc.seed)
    val_pairs = consecutive_pairs(rp_dataset, rp_dataset.split["val"])
    before = _val_mse(init, rp_dataset, val_pairs)
    res = train(rp_dataset, cfg, tc)
    assert min(h["val_mse"] for h in res.history) < before


def test_divergent_lr_aborts_with_flag(rp_dataset):
    cfg = small_cfg(rp_dataset.grid)
    res = train(rp_dataset, cfg, TrainConfig(lr=1e9, epochs=3, batch_size=8, seed=0))
    assert res.diverged
    assert np.all(np.isfinite(
        np.concatenate([p.value.ravel() for p in res.model.store.params.values()])))


def test_non_finite_forward_diverges_and_keeps_the_best_weights(rp_dataset):
    cfg = small_cfg(rp_dataset.grid)
    res = train(rp_dataset, cfg, TrainConfig(lr=1e20, epochs=3, batch_size=8, seed=0))
    assert res.diverged
    init = Surrogate(cfg, rp_dataset.normalization, init_seed=0)
    for name in init.store.names():           # diverged in the first epoch: the init
        assert np.array_equal(res.model.store[name].value, init.store[name].value), name
    assert [h["epoch"] for h in res.history] == [-1]
    assert np.isfinite(res.history[0]["val_mse"])


def test_finetune_zero_trajectories_is_identity(rp_surrogate, rp_dataset):
    out = finetune(rp_surrogate, rp_dataset, 0, TrainConfig(lr=1e-3, seed=0))
    assert not out.diverged
    # no epoch ran: the history is the epoch -1 record of the kept weights
    assert [(h["epoch"], h["seconds"]) for h in out.history] == [(-1, 0.0)]
    val = _val_mse(rp_surrogate, rp_dataset,
                   consecutive_pairs(rp_dataset, rp_dataset.split["val"]))
    assert out.history[0]["val_mse"] == val
    for n in rp_surrogate.store.names():
        assert np.array_equal(out.model.store[n].value,
                              rp_surrogate.store[n].value)
    # and it is a copy, not an alias
    out.model.store["pos"].value[...] += 1.0
    assert not np.array_equal(out.model.store["pos"].value,
                              rp_surrogate.store["pos"].value)


def test_finetune_subset_selection_reproducible(rp_dataset):
    a = select_finetune_trajectories(rp_dataset, 2, seed=8)
    b = select_finetune_trajectories(rp_dataset, 2, seed=8)
    assert a == b
    assert len(a) == 2 == len(set(a))
    assert set(a) <= set(rp_dataset.split["train"])


def test_finetune_is_fit_surrogate_from_the_pretrained_weights(rp_surrogate, rp_dataset):
    # rp_surrogate was pretrained for 8 optimizer steps; finetune starts a new optimizer
    tc = TrainConfig(lr=1e-3, epochs=2, batch_size=8, seed=6)
    tuned = finetune(rp_surrogate, rp_dataset, 2, tc).model
    fresh = Surrogate(rp_surrogate.config, rp_surrogate.norm, rp_surrogate.init_seed,
                      rp_surrogate.dt_out)
    fresh.store.load_values(rp_surrogate.store.values_copy())
    chosen = select_finetune_trajectories(rp_dataset, 2, tc.seed)
    direct = fit_surrogate(fresh, rp_dataset, chosen, tc).model
    for name, p in tuned.store.params.items():
        assert np.array_equal(p.value, direct.store[name].value), name


def test_finetune_respects_budget(rp_surrogate, rp_dataset):
    with pytest.raises(ValueError, match="train trajectories"):
        finetune(rp_surrogate, rp_dataset, 99, TrainConfig(lr=1e-3, seed=0))


def test_checkpoint_roundtrip_preserves_predictions(tmp_path, rp_surrogate, rp_dataset):
    path = tmp_path / "s.ckpt"
    rp_surrogate.save(path)
    back = Surrogate.from_checkpoint(path)
    u = rp_dataset.trajectories[0].snapshots[2]
    assert np.array_equal(back.predict(u).fields(), rp_surrogate.predict(u).fields())


def test_train_config_validation():
    for bad in ({"lr": 0.0}, {"epochs": -1}, {"weight_decay": -1e-3},
                {"weight_decay": float("nan")}):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    TrainConfig(epochs=0, weight_decay=0.0)


def test_predict_follows_load_values(rp_surrogate, rp_dataset):
    u = rp_dataset.trajectories[0].snapshots[2]
    fresh = Surrogate(rp_surrogate.config, rp_dataset.normalization, init_seed=9)
    fresh.predict(u)                       # builds its float32 parameter copies
    fresh.store.load_values(rp_surrogate.store.values_copy())
    assert np.array_equal(fresh.predict(u).fields(), rp_surrogate.predict(u).fields())
    a = fresh.predict(u, MODE_STOCHASTIC, candidate_stream(2, 0, 0))
    b = rp_surrogate.predict(u, MODE_STOCHASTIC, candidate_stream(2, 0, 0))
    assert np.array_equal(a.fields(), b.fields())


# ---------------------------------------------------------------------------
# micro-batched training


def micro_cfg(grid, dropout=0.1):
    """One token per cell: 256 tokens and 2 heads at 16x16 give a
    micro-batch of 4 samples."""
    return ModelConfig(height=grid.nx, width=grid.ny, patch_size=1, in_channels=5,
                       out_channels=4, embed_dim=8, depth=1, n_heads=2,
                       mlp_ratio=2.0, dropout_p=dropout)


def _grads(store):
    return {n: store[n].grad.copy() for n in store.names()}


def test_micro_batched_gradients_equal_the_whole_batch_gradients(rp_dataset):
    s = Surrogate(micro_cfg(rp_dataset.grid, dropout=0.0), rp_dataset.normalization,
                  init_seed=6)
    assert s.model.micro_batch == 4
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 5, 16, 16))                 # float64: 4 + 4 + 2 samples
    target = rng.normal(size=(10, 4, 16, 16))
    s.store.zero_grad()
    d = s.model.forward(x, MODE_TRAIN) - target
    whole_loss = float(np.mean(d * d))
    s.model.backward(2.0 * d / d.size)
    whole = _grads(s.store)
    s.store.zero_grad()
    loss = accumulate_loss_grad(s.model, len(x), lambda rows: (x[rows], target[rows]), None)
    assert loss == pytest.approx(whole_loss, rel=1e-12)
    for name, g in _grads(s.store).items():
        assert np.max(np.abs(g - whole[name])) <= 1e-12 * np.max(np.abs(whole[name])), name


def test_training_and_validation_forward_at_most_a_micro_batch(rp_dataset, forward_sizes):
    sizes = forward_sizes
    cfg = micro_cfg(rp_dataset.grid)
    res = train(rp_dataset, cfg, TrainConfig(lr=1e-3, epochs=1, batch_size=16, seed=2))
    n_train = len(consecutive_pairs(rp_dataset, rp_dataset.split["train"]))
    n_val = len(consecutive_pairs(rp_dataset, rp_dataset.split["val"]))
    assert all(n <= m == 4 for _, n, m in sizes)
    assert sum(n for mode, n, _ in sizes if mode == MODE_TRAIN) == n_train
    assert sum(n for mode, n, _ in sizes if mode == MODE_DETERMINISTIC) == n_val
    sizes.clear()
    pairs = consecutive_pairs(rp_dataset, rp_dataset.split["val"])
    _val_mse(res.model, rp_dataset, pairs)
    assert [n for _, n, _ in sizes] == [4] * (n_val // 4) + [n_val % 4] * (n_val % 4 > 0)


def test_training_builds_the_inputs_of_one_micro_batch_at_a_time(rp_dataset, input_sizes):
    cfg = micro_cfg(rp_dataset.grid)
    tc = TrainConfig(lr=1e-3, epochs=2, batch_size=16, seed=2)
    # reference: each optimizer batch's inputs and targets built whole, then sliced
    ref = Surrogate(cfg, rp_dataset.normalization, init_seed=tc.seed)
    pairs = consecutive_pairs(rp_dataset, rp_dataset.split["train"])
    val_pairs = consecutive_pairs(rp_dataset, rp_dataset.split["val"])

    def step(sel, rng):
        fields, times, targets = _gather(rp_dataset, pairs, sel)
        x, target = ref.inputs((fields, times)), ref.norm.apply(targets)
        return accumulate_loss_grad(ref.model, len(sel), lambda rows: (x[rows], target[rows]),
                                    rng)

    def judge(_):
        return -_val_mse(ref, rp_dataset, val_pairs), {}

    fit(ref, len(pairs), tc.batch_size, tc, (_SHUFFLE_TAG, _DROPOUT_TAG), step, judge)
    input_sizes.clear()                   # the reference's whole-batch inputs
    res = train(rp_dataset, cfg, tc)
    assert len(input_sizes) > 2 * len(pairs) // 4
    assert max(input_sizes) <= res.model.model.micro_batch == 4
    for name in ref.store.names():
        assert res.model.store[name].value.tobytes() == ref.store[name].value.tobytes(), name


def test_inference_allocates_no_gradient_buffers(rp_surrogate, rp_dataset, tmp_path):
    """A gradient buffer exists once `zero_grad` or a backward has run (the
    private slot is read, since reading `Param.grad` allocates it)."""
    def allocated(net):
        return [p._grad is not None for p in net.store.params.values()]

    rp_surrogate.save(tmp_path / "s.ckpt")
    prm = ProcessRewardModel(prm_backbone_config(rp_surrogate.config), rp_dataset.normalization)
    prm.save(tmp_path / "prm.ckpt")
    s = Surrogate.from_checkpoint(tmp_path / "s.ckpt")
    prm = ProcessRewardModel.from_checkpoint(tmp_path / "prm.ckpt")
    u = rp_dataset.trajectories[0].snapshots[0]
    prm.score(u, s.sample_candidates(u, 2, rollout_seed=1, t_index=0))
    assert not any(allocated(s)) and not any(allocated(prm))
    prm.store.zero_grad()
    assert all(allocated(prm))
    x = s.inputs((u.fields()[None], u.t))
    s.model.backward(np.ones_like(s.model.forward(x, MODE_TRAIN, candidate_stream(1, 0, 0))))
    assert all(allocated(s))


def test_training_twice_on_one_seed_gives_identical_checkpoints(rp_dataset, tmp_path):
    cfg = micro_cfg(rp_dataset.grid)
    tc = TrainConfig(lr=1e-3, epochs=2, batch_size=8, seed=5)
    paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
    for path in paths:
        train(rp_dataset, cfg, tc).model.save(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# the training loop


class _FakeNet:
    """All of a model that `fit` touches: its parameter store."""

    def __init__(self):
        self.store = ParamStore([("w", Param(np.array([0.5, -0.25])))])


def _fit_fake(figures, patience=np.inf, nan_grad_at=None):
    """`fit` a fake net over 4 items in batches of 2 with a fake step and
    judge.  Epoch e's figure is figures[e]; the step of (epoch, batch)
    ``nan_grad_at`` leaves a NaN gradient.  Returns the result, the
    weights after each epoch, the batches each epoch visited and the
    logged records."""
    net = _FakeNet()
    weights, batches, logged = [], [], []
    calls = {"epoch": 0, "batch": 0}

    def step(sel, rng):
        batches.append((calls["epoch"], sorted(sel)))
        net.store["w"].grad[...] = 1.0
        if (calls["epoch"], calls["batch"]) == nan_grad_at:
            net.store["w"].grad[0] = np.nan
        calls["batch"] += 1
        return float(calls["batch"])

    def judge(train_loss):
        weights.append(net.store.values_copy()["w"])
        figure = figures[calls["epoch"]]
        calls["epoch"] += 1
        calls["batch"] = 0
        return figure, {"figure": figure}

    cfg = TrainConfig(lr=0.1, epochs=len(figures), batch_size=2, seed=1)
    result = fit(net, 4, 2, cfg, (0x11, 0x12), step, judge, logged.append, patience)
    return result, weights, batches, logged


def test_fit_early_stopping_best_weights_and_divergence():
    res, weights, batches, logged = _fit_fake([1.0, 2.0, 2.0, 1.5, 0.0, 9.0], patience=2)
    assert not res.diverged
    # epoch 1 is the best; the tie of epoch 2 and epochs 3 and 4 are stale
    assert [h["epoch"] for h in res.history] == [0, 1, 2, 3, 4]
    assert logged == res.history
    assert [h["figure"] for h in res.history] == [1.0, 2.0, 2.0, 1.5, 0.0]
    assert all(h["train_loss"] == 1.5 for h in res.history)     # mean of losses 1 and 2
    assert set(res.history[0]) == {"epoch", "train_loss", "figure", "seconds"}
    assert np.array_equal(res.model.store["w"].value, weights[1])
    assert not np.array_equal(weights[2], weights[1])
    for epoch in range(5):                                       # each epoch visits every item
        visited = sorted(i for e, sel in batches if e == epoch for i in sel)
        assert visited == [0, 1, 2, 3]
    # a NaN gradient in the second batch of epoch 0, after one AdamW step
    res, weights, _, logged = _fit_fake([1.0, 2.0], nan_grad_at=(0, 1))
    assert res.diverged
    assert res.history == [] and logged == [] and weights == []
    assert np.array_equal(res.model.store["w"].value, _FakeNet().store["w"].value)


# ---------------------------------------------------------------------------
# the model wrapper

KINDS = ["surrogate", "prm"]


def wrapper_cfg(kind, grid):
    cfg = small_cfg(grid)
    return prm_backbone_config(cfg) if kind == "prm" else cfg


def wrapper(kind, dataset, cfg=None):
    """A Surrogate or a PRM on the dataset's grid, from ``cfg`` when given."""
    cfg = cfg or wrapper_cfg(kind, dataset.grid)
    if kind == "prm":
        return ProcessRewardModel(cfg, dataset.normalization, init_seed=4)
    return Surrogate(cfg, dataset.normalization, init_seed=4, dt_out=0.1)


@pytest.mark.parametrize("kind", KINDS)
def test_inputs_are_normalised_fields_then_time_per_snapshot(rp_dataset, kind):
    net = wrapper(kind, rp_dataset)
    rng = np.random.default_rng(1)
    pairs = [(rng.normal(size=(2, 4, 16, 16)), [0.1 + j, 0.2 + j])
             for j in range(net.n_snapshots)]
    x = net.inputs(*pairs)
    assert x.dtype == np.float32 and x.shape == (2, net.config.in_channels, 16, 16)
    assert net.config.in_channels == 5 * len(pairs)
    for j, (fields, times) in enumerate(pairs):
        assert np.array_equal(x[:, 5 * j:5 * j + 4],
                              net.norm.apply(fields).astype(np.float32))
        for b, t in enumerate(times):
            assert np.all(x[b, 5 * j + 4] == np.float32(t))
    one_time = net.inputs(*[(fields, 0.35) for fields, _ in pairs])   # one time for all
    assert np.all(one_time[:, 4::5] == np.float32(0.35))


@pytest.mark.parametrize("kind", KINDS)
def test_save_from_checkpoint_save_gives_equal_bytes(rp_dataset, tmp_path, kind):
    net = wrapper(kind, rp_dataset)
    net.store.load_values({k: 1.5 * v for k, v in net.store.values_copy().items()})
    net.save(tmp_path / "a.ckpt")
    back = type(net).from_checkpoint(tmp_path / "a.ckpt")
    back.save(tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    assert back.init_seed == 4
    assert getattr(back, "dt_out", 0.1) == 0.1


@pytest.mark.parametrize("kind", KINDS)
def test_a_config_of_another_input_layout_or_head_is_refused(rp_dataset, kind):
    good = wrapper_cfg(kind, rp_dataset.grid)
    other_layout = 5 if kind == "prm" else 10           # the other model's
    for in_channels in (4, other_layout, good.in_channels + 1):
        with pytest.raises(ValueError, match=f"in_channels must be {good.in_channels}"):
            wrapper(kind, rp_dataset, dataclasses.replace(good, in_channels=in_channels))
    other = "image" if kind == "prm" else "scalar"
    with pytest.raises(ValueError, match=f"needs the '{good.head}' head"):
        wrapper(kind, rp_dataset, dataclasses.replace(good, head=other))
