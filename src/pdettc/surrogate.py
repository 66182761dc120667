"""The one-step solution operator and the training loop of both models.

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

`fit` is the one training loop, of the surrogate and of the PRM
(`pdettc.rewards`): micro-batched AdamW steps, the held-out figure of
each epoch, the best weights kept, early stopping and divergence.  The
surrogate minimises mean |pred - next|^p over consecutive pairs and
keeps the weights of the lowest validation MSE.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .euler import Dataset, Normalization, Snapshot
from .nn import AdamW, NonFiniteActivation, NonFiniteGradient
from .rng import RngStream, mix64
from .storage import load_checkpoint, save_checkpoint
from .vit import (MODE_DETERMINISTIC, MODE_STOCHASTIC, MODE_TRAIN, ModelConfig,
                  VisionTransformer)

_INIT_TAG = 0x1217
_SHUFFLE_TAG = 0x5875
_DROPOUT_TAG = 0xD0
_CANDIDATE_TAG = 0xCA4D
_SUBSET_TAG = 0x5B5E

DT_OUT_DEFAULT = 0.05          # 21 snapshots on [0, 1]


def check_fit_config(cfg) -> None:
    """Reject the optimizer values `fit` reads from a TrainConfig or a
    PRMConfig when they are out of range."""
    if not cfg.lr > 0.0:
        raise ValueError(f"lr must be positive, got {cfg.lr}")
    if not cfg.weight_decay >= 0.0:
        raise ValueError(f"weight_decay must be >= 0, got {cfg.weight_decay}")
    if cfg.epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {cfg.epochs}")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 3e-4
    weight_decay: float = 1e-7
    batch_size: int = 32
    epochs: int = 20
    loss_p: float = 2.0
    seed: int = 0

    def __post_init__(self):
        check_fit_config(self)
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


def with_time_channel(x: np.ndarray, t) -> np.ndarray:
    """(B, C, H, W) inputs with each sample's time appended as channel C."""
    b, _, h, w = x.shape
    tchan = np.broadcast_to(np.asarray(t, dtype=np.float64)[:, None, None], (b, h, w))
    return np.concatenate([x, tchan[:, None]], axis=1)


class Surrogate:
    """Next-snapshot predictor with its normalization baked in."""

    def __init__(self, config: ModelConfig, normalization: Normalization,
                 init_seed: int = 0, dt_out: float = DT_OUT_DEFAULT):
        if config.head != "image":
            raise ValueError("surrogate needs an image head")
        self.config = config
        self.norm = normalization
        self.dt_out = dt_out
        self.init_seed = init_seed
        self.model = VisionTransformer(config, RngStream(init_seed, mix64(_INIT_TAG)))
        self.store = self.model.param_store()
        self.time_channel = config.in_channels == 5

    # -- input/output packing ------------------------------------------------

    def pack_inputs(self, fields: np.ndarray, t_norm: np.ndarray) -> np.ndarray:
        """(B, 4, H, W) raw fields + per-sample times -> model input batch."""
        x = self.norm.apply(fields)
        return with_time_channel(x, t_norm) if self.time_channel else x

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
    def from_checkpoint(cls, path) -> "Surrogate":
        ckpt = load_checkpoint(path, "surrogate")
        s = cls(ckpt.config, ckpt.normalization,
                init_seed=ckpt.extra.get("init_seed", 0),
                dt_out=ckpt.extra.get("dt_out", DT_OUT_DEFAULT))
        s.store.load_values(ckpt.values, ckpt.step_count)
        return s


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


@dataclass
class TrainResult:
    """What `fit` returns: the trained Surrogate or ProcessRewardModel,
    holding the kept weights; one record per epoch; and whether training
    stopped on a non-finite value."""
    model: object
    history: list
    diverged: bool = False


def accumulate_grad(model: VisionTransformer, x: np.ndarray, chunk: int,
                    rng: RngStream | None, loss) -> float:
    """Add the gradient of a batch loss to the parameter gradients,
    forwarding ``chunk`` samples of ``x`` at a time; returns the loss.

    ``loss(out, rows)`` returns the term of the batch loss that the rows
    ``rows`` of ``x`` contribute, and its gradient with respect to their
    train-mode output ``out``.  A non-finite term raises
    NonFiniteActivation before its backward.
    """
    total = 0.0
    for start in range(0, len(x), chunk):
        rows = slice(start, start + chunk)
        term, grad = loss(model.forward(x[rows], MODE_TRAIN, rng), rows)
        if not np.isfinite(term):
            raise NonFiniteActivation(f"non-finite loss {term}")
        model.backward(grad)
        total += term
    return total


def fit(net, n_items: int, batch_size: int, cfg, tags: tuple, step, judge,
        log=None, patience: float = math.inf) -> TrainResult:
    """The one training loop: train ``net`` (a Surrogate or a
    ProcessRewardModel) with AdamW under ``cfg`` (a TrainConfig or a
    PRMConfig), where ``tags`` is (shuffle tag, dropout tag).

    Epoch e visits the ``n_items`` items in the order of the stream
    (cfg.seed, shuffle tag, e), one optimizer step per ``batch_size``
    items: the gradients are zeroed, ``step(sel, rng)`` adds the gradient
    of the loss of the batch of items ``sel`` through `accumulate_grad`
    and returns the loss, and AdamW steps.  ``step`` forwards
    micro-batches of at most `VisionTransformer.micro_batch` samples (4 on
    the desk model, 1 on the paper model), each term scaled to the whole
    batch, so the layer caches hold one micro-batch while the gradient is
    the whole batch's up to summation order.  The micro-batches of batch
    b draw their dropout masks in turn from the stream (cfg.seed, dropout
    tag, e, b).

    ``judge(train_loss)`` returns each epoch's held-out figure, to
    maximise, and the fields of its record {"epoch", "train_loss",
    **fields, "seconds"}, which goes to the history and to ``log``.  The
    weights and step count of the first epoch with the highest figure are
    kept, and training stops after ``patience`` + 1 epochs in a row
    without a strictly higher one.  A non-finite loss, activation or
    gradient stops training with ``diverged`` set.  The kept weights are
    loaded at the end: the initial ones when no figure exceeded -inf.
    """
    shuffle_tag, dropout_tag = tags
    store = net.store
    opt = AdamW(lr=cfg.lr, weight_decay=cfg.weight_decay)
    history = []
    # (figure, weights, step count, epoch) of the kept weights
    best = (-np.inf, store.values_copy(), store.step_count, -1)
    diverged = False
    try:
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            order = RngStream(cfg.seed, mix64(shuffle_tag, epoch)).permutation(n_items)
            losses = []
            for bi, start in enumerate(range(0, n_items, batch_size)):
                store.zero_grad()
                rng = RngStream(cfg.seed, mix64(dropout_tag, epoch, bi))
                losses.append(step(order[start:start + batch_size], rng))
                opt.step(store)
            train_loss = float(np.mean(losses))
            figure, fields = judge(train_loss)
            if figure > best[0]:
                best = (figure, store.values_copy(), store.step_count, epoch)
            rec = {"epoch": epoch, "train_loss": train_loss, **fields,
                   "seconds": time.perf_counter() - t0}
            history.append(rec)
            if log:
                log(rec)
            if epoch - best[3] > patience:
                break
    except (NonFiniteActivation, NonFiniteGradient):
        diverged = True
    store.load_values(best[1], best[2])
    return TrainResult(model=net, history=history, diverged=diverged)


def accumulate_loss_grad(model: VisionTransformer, x: np.ndarray, target: np.ndarray,
                         p: float, rng: RngStream | None) -> float:
    """`accumulate_grad` of mean |pred - target|^p over the batch ``x``,
    one micro-batch at a time, each term scaled by the whole batch's
    element count; returns the loss."""
    n = target.size

    def loss(pred, rows):
        d = pred - target[rows]
        if p == 2.0:
            return float(np.sum(d * d)) / n, 2.0 * d / n
        ad = np.abs(d)
        return float(np.sum(ad ** p)) / n, p * np.sign(d) * ad ** (p - 1.0) / n

    return accumulate_grad(model, x, model.micro_batch, rng, loss)


def fit_surrogate(surrogate: Surrogate, dataset: Dataset, indices, cfg: TrainConfig,
                  log=None) -> TrainResult:
    """`fit` ``surrogate``, in place, to the consecutive pairs of the
    trajectories ``indices``, keeping the weights of the lowest MSE on the
    val split's pairs (on the training pairs when it has none).  When no
    epoch ran, the history is one epoch -1 record of the kept weights."""
    train_pairs = consecutive_pairs(dataset, indices)
    val_pairs = consecutive_pairs(dataset, dataset.split["val"]) or train_pairs
    if not train_pairs:
        raise ValueError("no training pairs available")

    def step(sel, rng):
        fields, times, targets = _gather(dataset, train_pairs, sel)
        x = surrogate.pack_inputs(fields, times).astype(np.float32)
        return accumulate_loss_grad(surrogate.model, x, surrogate.norm.apply(targets),
                                    cfg.loss_p, rng)

    def judge(train_loss):
        val = _val_mse(surrogate, dataset, val_pairs)
        return -val, {"val_mse": val}

    result = fit(surrogate, len(train_pairs), cfg.batch_size, cfg,
                 (_SHUFFLE_TAG, _DROPOUT_TAG), step, judge, log)
    if not result.history:
        result.history.append({"epoch": -1, "train_loss": np.nan, **judge(np.nan)[1],
                               "seconds": 0.0})
    return result


def train(dataset: Dataset, model_cfg: ModelConfig, train_cfg: TrainConfig,
          log=None) -> TrainResult:
    """Pretrain a new surrogate on every consecutive pair of the train split."""
    if not dataset.split["train"]:
        raise ValueError("dataset has no training trajectories")
    if dataset.normalization is None:
        raise ValueError("dataset carries no normalization statistics")
    dt_out = float(dataset.trajectories[0].times[1] - dataset.trajectories[0].times[0])
    surrogate = Surrogate(model_cfg, dataset.normalization,
                          init_seed=train_cfg.seed, dt_out=dt_out)
    return fit_surrogate(surrogate, dataset, dataset.split["train"], train_cfg, log)


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
    surrogate = Surrogate(pretrained.config, pretrained.norm, pretrained.init_seed,
                          pretrained.dt_out)
    surrogate.store.load_values(pretrained.store.values_copy(), pretrained.store.step_count)
    if n_traj == 0:
        return TrainResult(model=surrogate, history=[])
    chosen = select_finetune_trajectories(dataset, n_traj, train_cfg.seed)
    return fit_surrogate(surrogate, dataset, chosen, train_cfg, log)
