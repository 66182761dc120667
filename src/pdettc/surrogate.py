"""The one-step solution operator and its training/finetuning loops.

A Surrogate bundles the transformer, the dataset normalization it was
trained with, and the output time increment.  Inputs are the four
normalized physical channels plus (by default) a fifth channel carrying
the input snapshot's time broadcast over the grid; the output is the
denormalized next snapshot.

Stochastic inference keeps dropout active and draws each candidate's
masks from its own counter-based stream, so candidate i at timestep k
is the same array no matter how many other candidates are requested.

The dtype rule is `pdettc.nn`'s: compute in float32, keep state in
float64.  `Surrogate.predict_fields` (with it `predict` and
`sample_candidates`), training and `_val_mse` forward float32 inputs;
the parameters, their gradients and the AdamW moments stay float64, and
losses and predicted fields are float64.

Each optimizer batch of ``TrainConfig.batch_size`` pairs is trained as
a loop over micro-batches of `VisionTransformer.micro_batch` samples
(4 on the desk model, 1 on the paper model): the gradients are zeroed
once, each micro-batch runs a train forward and its backward with the
loss scaled by the whole batch's element count, and AdamW steps once.
So the layer caches hold one micro-batch, while the gradient is the
whole batch's up to summation order.  All micro-batches of a batch draw
their dropout masks from the batch's one stream, one after another.
`_val_mse` forwards in chunks of the same size.

Training stops, keeps the best weights seen and reports ``diverged``
when a loss, an activation or a gradient is non-finite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .euler import Dataset, Normalization, Snapshot
from .nn import AdamW, NonFiniteActivation, NonFiniteGradient
from .rng import RngStream, mix64
from .storage import Checkpoint, load_checkpoint, save_checkpoint
from .vit import (MODE_DETERMINISTIC, MODE_STOCHASTIC, MODE_TRAIN, ModelConfig,
                  VisionTransformer)

_INIT_TAG = 0x1217
_SHUFFLE_TAG = 0x5875
_DROPOUT_TAG = 0xD0
_CANDIDATE_TAG = 0xCA4D
_SUBSET_TAG = 0x5B5E

DT_OUT_DEFAULT = 0.05          # 21 snapshots on [0, 1]


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 3e-4
    weight_decay: float = 1e-7
    batch_size: int = 32
    epochs: int = 20
    loss_p: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if not self.lr > 0.0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.loss_p >= 1.0:
            raise ValueError(f"loss_p must be >= 1, got {self.loss_p}")


# Finetuning defaults: a smaller step and stronger weight decay than
# pretraining, over more epochs of a small subset.
FINETUNE_CONFIG = TrainConfig(lr=1e-4, weight_decay=0.01, batch_size=32, epochs=30,
                              loss_p=2.0)


PAPER_MODEL = ModelConfig(height=128, width=128, embed_dim=256, depth=6,
                          n_heads=8, mlp_ratio=4.0, dropout_p=0.1)
DESK_MODEL = ModelConfig(height=64, width=64, embed_dim=64, depth=4,
                         n_heads=4, mlp_ratio=4.0, dropout_p=0.1)


def candidate_stream(rollout_seed: int, t_index: int, i: int) -> RngStream:
    """Dropout stream of candidate i at timestep t_index; B-independent."""
    return RngStream(rollout_seed, mix64(_CANDIDATE_TAG, t_index, i))


class Surrogate:
    """Next-snapshot predictor with its normalization baked in."""

    def __init__(self, config: ModelConfig, normalization: Normalization,
                 init_seed: int = 0, dt_out: float = DT_OUT_DEFAULT,
                 model: VisionTransformer | None = None):
        if config.head != "image":
            raise ValueError("surrogate needs an image head")
        self.config = config
        self.norm = normalization
        self.dt_out = dt_out
        self.init_seed = init_seed
        self.model = model or VisionTransformer(
            config, RngStream(init_seed, mix64(_INIT_TAG)))
        self.store = self.model.param_store()
        self.time_channel = config.in_channels == 5

    def clone(self) -> "Surrogate":
        dup = Surrogate(self.config, self.norm, self.init_seed, self.dt_out)
        dup.store.load_values(self.store.values_copy())
        dup.store.step_count = self.store.step_count
        return dup

    # -- input/output packing ------------------------------------------------

    def pack_inputs(self, fields: np.ndarray, t_norm: np.ndarray) -> np.ndarray:
        """(B, 4, H, W) raw fields + per-sample times -> model input batch."""
        x = self.norm.apply(fields)
        if not self.time_channel:
            return x
        b, _, h, w = x.shape
        tchan = np.broadcast_to(np.asarray(t_norm, dtype=np.float64)[:, None, None],
                                (b, h, w))[:, None]
        return np.concatenate([x, tchan], axis=1)

    def predict_fields(self, fields: np.ndarray, t_norm, mode: str,
                       rng: RngStream | None = None) -> np.ndarray:
        """Batched float32 forward on raw (B, 4, H, W) fields; returns raw
        float64 fields."""
        x = self.pack_inputs(fields, np.atleast_1d(t_norm)).astype(np.float32)
        y = self.model.forward(x, mode, rng)
        return self.norm.unapply(y)

    def predict(self, u: Snapshot, mode: str = MODE_DETERMINISTIC,
                rng: RngStream | None = None) -> Snapshot:
        out = self.predict_fields(u.fields()[None], [u.t], mode, rng)[0]
        return Snapshot.from_fields(out, u.t + self.dt_out)

    def sample_candidates(self, u: Snapshot, n_branch: int, rollout_seed: int,
                          t_index: int | None = None) -> list[Snapshot]:
        """n_branch stochastic next-snapshot draws, one stream each.

        Candidate order is deterministic given (rollout_seed, t_index)
        and candidate i is identical for every n_branch >= i+1.
        """
        if n_branch < 1:
            raise ValueError("branching factor must be >= 1")
        if t_index is None:
            t_index = int(round(u.t / self.dt_out))
        return [
            self.predict(u, MODE_STOCHASTIC, candidate_stream(rollout_seed, t_index, i))
            for i in range(n_branch)
        ]

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        save_checkpoint(path, "surrogate", self.config, self.store, self.norm,
                        extra={"dt_out": self.dt_out, "init_seed": self.init_seed})

    @classmethod
    def from_checkpoint(cls, source) -> "Surrogate":
        ckpt = source if isinstance(source, Checkpoint) else load_checkpoint(source)
        if ckpt.model_kind != "surrogate":
            raise ValueError(f"checkpoint holds a {ckpt.model_kind!r} model")
        s = cls(ckpt.config, ckpt.normalization,
                init_seed=ckpt.extra.get("init_seed", 0),
                dt_out=ckpt.extra.get("dt_out", DT_OUT_DEFAULT))
        s.store.load_values(ckpt.values)
        s.store.step_count = ckpt.step_count
        return s


@dataclass
class TrainResult:
    surrogate: Surrogate
    history: list
    diverged: bool = False

    @property
    def best_val_mse(self) -> float:
        return min(h["val_mse"] for h in self.history)


def consecutive_pairs(dataset: Dataset, indices) -> list:
    return [(ti, k) for ti in indices
            for k in range(len(dataset.trajectories[ti]) - 1)]


def _gather(dataset: Dataset, pairs, sel) -> tuple:
    fields, times, targets = [], [], []
    for j in sel:
        ti, k = pairs[j]
        tr = dataset.trajectories[ti]
        fields.append(tr.snapshots[k].fields())
        times.append(tr.snapshots[k].t)
        targets.append(tr.snapshots[k + 1].fields())
    return np.stack(fields), np.asarray(times), np.stack(targets)


def _val_mse(surrogate: Surrogate, dataset: Dataset, pairs) -> float:
    """Deterministic one-step MSE over ``pairs``, in normalised units,
    forwarded one micro-batch at a time."""
    if not pairs:
        return np.nan
    total, count = 0.0, 0
    m = surrogate.model.micro_batch
    for start in range(0, len(pairs), m):
        sel = range(start, min(start + m, len(pairs)))
        fields, times, targets = _gather(dataset, pairs, sel)
        x = surrogate.pack_inputs(fields, times).astype(np.float32)
        pred = surrogate.model.forward(x, MODE_DETERMINISTIC)
        d = pred - surrogate.norm.apply(targets)
        total += float(np.sum(d * d))
        count += d.size
    return total / count


def accumulate_loss_grad(model: VisionTransformer, x: np.ndarray, target: np.ndarray,
                         p: float, rng: RngStream | None) -> float:
    """Add the gradient of mean |pred - target|^p over the batch ``x`` to
    the parameter gradients, one micro-batch at a time; returns the loss.

    Each micro-batch's term is scaled by the whole batch's element count,
    so the accumulated gradient and the summed loss are the whole-batch
    ones.  Every micro-batch's dropout masks come from ``rng``, whose
    counter runs on across them.  A non-finite term raises
    NonFiniteActivation before its backward.
    """
    m = model.micro_batch
    n = target.size
    loss = 0.0
    for start in range(0, len(x), m):
        d = model.forward(x[start:start + m], MODE_TRAIN, rng) - target[start:start + m]
        if p == 2.0:
            term = float(np.sum(d * d)) / n
            grad = 2.0 * d / n
        else:
            ad = np.abs(d)
            term = float(np.sum(ad ** p)) / n
            grad = p * np.sign(d) * ad ** (p - 1.0) / n
        if not np.isfinite(term):
            raise NonFiniteActivation(f"non-finite loss {term}")
        model.backward(grad)
        loss += term
    return loss


def _run_training(surrogate: Surrogate, dataset: Dataset, train_pairs, val_pairs,
                  cfg: TrainConfig, log=None) -> TrainResult:
    """Shared loop: minimize mean |pred - next|^p over consecutive pairs,
    one AdamW step per batch of micro-batches (`accumulate_loss_grad`)."""
    if not train_pairs:
        raise ValueError("no training pairs available")
    if not val_pairs:
        val_pairs = train_pairs          # fall back: validate on train pairs
    opt = AdamW(lr=cfg.lr, weight_decay=cfg.weight_decay)
    p = cfg.loss_p
    history = []
    best = (np.inf, surrogate.store.values_copy(), surrogate.store.step_count)
    diverged = False
    try:
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            order = RngStream(cfg.seed, mix64(_SHUFFLE_TAG, epoch)).permutation(len(train_pairs))
            losses = []
            for bi, start in enumerate(range(0, len(order), cfg.batch_size)):
                sel = order[start:start + cfg.batch_size]
                fields, times, targets = _gather(dataset, train_pairs, sel)
                x = surrogate.pack_inputs(fields, times).astype(np.float32)
                rng = RngStream(cfg.seed, mix64(_DROPOUT_TAG, epoch, bi))
                surrogate.store.zero_grad()
                loss = accumulate_loss_grad(surrogate.model, x,
                                            surrogate.norm.apply(targets), p, rng)
                opt.step(surrogate.store)
                losses.append(loss)
            val = _val_mse(surrogate, dataset, val_pairs)
            if val < best[0]:
                best = (val, surrogate.store.values_copy(), surrogate.store.step_count)
            rec = {"epoch": epoch, "train_loss": float(np.mean(losses)), "val_mse": val,
                   "seconds": time.perf_counter() - t0}
            history.append(rec)
            if log:
                log(rec)
    except (NonFiniteActivation, NonFiniteGradient):
        diverged = True
    surrogate.store.load_values(best[1])
    surrogate.store.step_count = best[2]
    if not history:
        history.append({"epoch": -1, "train_loss": np.nan,
                        "val_mse": _val_mse(surrogate, dataset, val_pairs),
                        "seconds": 0.0})
    return TrainResult(surrogate=surrogate, history=history, diverged=diverged)


def train(dataset: Dataset, model_cfg: ModelConfig, train_cfg: TrainConfig,
          log=None) -> TrainResult:
    """Pretrain a surrogate on every consecutive pair of the train split."""
    if not dataset.split["train"]:
        raise ValueError("dataset has no training trajectories")
    if dataset.normalization is None:
        raise ValueError("dataset carries no normalization statistics")
    dt_out = float(dataset.trajectories[0].times[1] - dataset.trajectories[0].times[0])
    surrogate = Surrogate(model_cfg, dataset.normalization,
                          init_seed=train_cfg.seed, dt_out=dt_out)
    return _run_training(
        surrogate, dataset,
        consecutive_pairs(dataset, dataset.split["train"]),
        consecutive_pairs(dataset, dataset.split["val"]),
        train_cfg, log)


def select_finetune_trajectories(dataset: Dataset, n_traj: int, seed: int) -> list:
    """Reproducible random subset of the downstream train split."""
    train_ids = dataset.split["train"]
    if n_traj > len(train_ids):
        raise ValueError(f"requested {n_traj} of {len(train_ids)} train trajectories")
    perm = RngStream(seed, mix64(_SUBSET_TAG)).permutation(len(train_ids))
    return [train_ids[i] for i in perm[:n_traj]]


def finetune(pretrained: Surrogate, dataset: Dataset, n_traj: int,
             train_cfg: TrainConfig, log=None) -> TrainResult:
    """Continue training from a pretrained checkpoint on a small subset.

    The pretrained normalization stays attached to the model; downstream
    statistics are not recomputed.
    """
    surrogate = pretrained.clone()
    if n_traj == 0:
        return TrainResult(surrogate=surrogate, history=[], diverged=False)
    chosen = select_finetune_trajectories(dataset, n_traj, train_cfg.seed)
    return _run_training(
        surrogate, dataset,
        consecutive_pairs(dataset, chosen),
        consecutive_pairs(dataset, dataset.split["val"]),
        train_cfg, log)
