"""The model wrapper, the one-step surrogate and the training loop.

`Model` is the one wrapper of the surrogate and of the process reward
model (`pdettc.rewards`); its docstring states the contract of both.  A
Surrogate reads one snapshot and predicts the denormalized next one,
``dt_out`` later.

Stochastic inference keeps dropout active and draws each candidate's
masks from its own counter-based stream, so candidate i at timestep k
is the same array no matter how many other candidates are requested.

The dtype rule is `pdettc.nn`'s: compute in float32, keep state in
float64.  `Model.inputs` builds float32 inputs for `predict`,
`sample_candidates`, training and `_val_mse`; the parameters, their
gradients and the AdamW moments stay float64, and losses and predicted
fields are float64.

`fit` is the one training loop, of the surrogate and of the PRM:
micro-batched AdamW steps, the held-out figure of each epoch, the best
weights kept, early stopping and divergence.  The surrogate minimises
the mean squared error of its prediction of the next snapshot over
consecutive pairs, and keeps the weights of the lowest validation MSE.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .euler import N_SNAPSHOTS, T_FINAL, Dataset, Normalization, Snapshot
from .nn import AdamW, NonFiniteActivation, NonFiniteGradient
from .rng import RngStream, mix64
from .storage import StorageError, load_checkpoint, save_checkpoint
from .vit import (MODE_DETERMINISTIC, MODE_STOCHASTIC, MODE_TRAIN, ModelConfig,
                  VisionTransformer)

_INIT_TAG = 0x1217
_SHUFFLE_TAG = 0x5875
_DROPOUT_TAG = 0xD0
_CANDIDATE_TAG = 0xCA4D
_SUBSET_TAG = 0x5B5E

DT_OUT_DEFAULT = T_FINAL / (N_SNAPSHOTS - 1)      # the solver's output interval


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
    seed: int = 0

    def __post_init__(self):
        check_fit_config(self)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


# Finetuning defaults: a smaller step and stronger weight decay than
# pretraining, over more epochs of a small subset.
FINETUNE_CONFIG = TrainConfig(lr=1e-4, weight_decay=0.01, batch_size=32, epochs=30)


PAPER_MODEL = ModelConfig(height=128, width=128, embed_dim=256, depth=6,
                          n_heads=8, mlp_ratio=4.0, dropout_p=0.1)
DESK_MODEL = ModelConfig()      # the ModelConfig defaults are the desk model


def candidate_stream(rollout_seed: int, t_index: int, i: int) -> RngStream:
    """Dropout stream of candidate i at timestep t_index; B-independent."""
    return RngStream(rollout_seed, mix64(_CANDIDATE_TAG, t_index, i))


class Model:
    """The one transformer wrapper, of `Surrogate` and of
    `rewards.ProcessRewardModel`.

    A subclass names its checkpoint ``kind``, its ``head``, the
    ``n_snapshots`` snapshots its input reads, its init stream tag and
    the constructor keywords kept in a checkpoint (``extra_keys``).  The
    constructor refuses a config whose head is not ``head`` or whose
    in_channels is not 5 per input snapshot, and a missing normalization;
    it draws the initial weights of ``model`` from the stream (init_seed,
    init tag); ``store`` holds its parameters and ``norm`` the dataset
    normalization.

    `inputs` lays out one input batch: for each snapshot in turn, its
    four normalized fields and then its time broadcast over the grid,
    in float32.  `save` writes a checkpoint of kind ``kind`` whose
    ``extra`` holds the ``extra_keys`` attributes, and `from_checkpoint`
    passes them back as constructor keywords; a checkpoint of another
    kind, or one the class cannot be built from, raises StorageError
    naming the file.
    """

    kind = head = ""
    n_snapshots = 1
    init_tag = 0
    extra_keys = ("init_seed",)

    def __init__(self, config: ModelConfig, normalization: Normalization,
                 init_seed: int = 0):
        if config.head != self.head:
            raise ValueError(f"a {self.kind} model needs the {self.head!r} head, "
                             f"got {config.head!r}")
        if config.in_channels != 5 * self.n_snapshots:
            raise ValueError(f"a {self.kind} model reads {self.n_snapshots} snapshot(s) of "
                             f"5 channels: in_channels must be {5 * self.n_snapshots}, "
                             f"got {config.in_channels}")
        if normalization is None:
            raise ValueError(f"a {self.kind} model needs the dataset normalization")
        self.config = config
        self.norm = normalization
        self.init_seed = init_seed
        self.model = VisionTransformer(config, RngStream(init_seed, mix64(self.init_tag)))
        self.store = self.model.param_store()

    def inputs(self, *pairs) -> np.ndarray:
        """The float32 (B, 5 * len(pairs), H, W) input of (fields, times)
        pairs, one per input snapshot: raw (B, 4, H, W) fields and one
        time per sample, or one for all."""
        b, _, h, w = pairs[0][0].shape
        x = np.empty((b, 5 * len(pairs), h, w), dtype=np.float32)
        for i, (fields, t) in enumerate(pairs):
            x[:, 5 * i:5 * i + 4] = self.norm.apply(fields)
            x[:, 5 * i + 4] = np.reshape(t, (-1, 1, 1))
        return x

    def save(self, path) -> None:
        save_checkpoint(path, self.kind, self.config, self.store, self.norm,
                        extra={k: getattr(self, k) for k in self.extra_keys})

    @classmethod
    def from_checkpoint(cls, path):
        try:
            ckpt = load_checkpoint(path, cls.kind)
            net = cls(ckpt.config, ckpt.normalization, **ckpt.extra)
            net.store.load_values(ckpt.values)
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"{path}: cannot build a {cls.kind} model: {exc}") from None
        return net


class Surrogate(Model):
    """Next-snapshot predictor with its normalization baked in."""

    kind, head, init_tag = "surrogate", "image", _INIT_TAG
    extra_keys = ("init_seed", "dt_out")

    def __init__(self, config: ModelConfig, normalization: Normalization,
                 init_seed: int = 0, dt_out: float = DT_OUT_DEFAULT):
        super().__init__(config, normalization, init_seed)
        self.dt_out = dt_out

    def predict(self, u: Snapshot, mode: str = MODE_DETERMINISTIC,
                rng: RngStream | None = None) -> Snapshot:
        y = self.model.forward(self.inputs((u.fields()[None], u.t)), mode, rng)
        return Snapshot.from_fields(self.norm.unapply(y)[0], u.t + self.dt_out)

    def sample_candidates(self, u: Snapshot, n_branch: int, rollout_seed: int,
                          t_index: int) -> list[Snapshot]:
        """n_branch stochastic next-snapshot draws, one stream each.

        Candidate order is deterministic given (rollout_seed, t_index)
        and candidate i is identical for every n_branch >= i+1.
        """
        if n_branch < 1:
            raise ValueError("branching factor must be >= 1")
        return [
            self.predict(u, MODE_STOCHASTIC, candidate_stream(rollout_seed, t_index, i))
            for i in range(n_branch)
        ]


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


def _val_mse(surrogate: Surrogate, dataset: Dataset, pairs, batch: int | None = None) -> float:
    """Deterministic one-step MSE over ``pairs``, in normalised units,
    forwarded one micro-batch, and at most ``batch`` pairs, at a time.
    Training passes its batch size, so that on a small grid, where a
    micro-batch can hold hundreds of samples, the pass still holds no
    more pairs than a training step, however large the split."""
    if not pairs:
        return np.nan
    total, count = 0.0, 0
    m = min(surrogate.model.micro_batch, batch or surrogate.model.micro_batch)
    for start in range(0, len(pairs), m):
        sel = range(start, min(start + m, len(pairs)))
        fields, times, targets = _gather(dataset, pairs, sel)
        pred = surrogate.model.forward(surrogate.inputs((fields, times)), MODE_DETERMINISTIC)
        d = pred - surrogate.norm.apply(targets)
        total += float(np.sum(d * d))
        count += d.size
        del fields, targets, pred, d        # before the next chunk is gathered
    return total / count


@dataclass
class TrainResult:
    """What `fit` returns: the trained `Model`, holding the kept weights;
    one record per epoch; and whether training stopped on a non-finite
    value."""
    model: object
    history: list
    diverged: bool = False


def accumulate_grad(model: VisionTransformer, n: int, chunk: int, build,
                    rng: RngStream | None, loss) -> float:
    """Add the gradient of the loss of a batch of ``n`` items to the
    parameter gradients, ``chunk`` items at a time; returns the loss.

    ``build(rows)`` builds the model inputs of the items ``rows`` (a
    slice of the batch) and what ``loss`` needs of them, so only one
    micro-batch's inputs exist at a time.  ``loss(out, data)`` returns the
    term of the batch loss that those items contribute, scaled to the
    whole batch, and its gradient with respect to their train-mode output
    ``out``; the terms are summed in row order.  A non-finite term raises
    NonFiniteActivation before its backward.
    """
    total = 0.0
    for start in range(0, n, chunk):
        x, data = build(slice(start, min(start + chunk, n)))
        term, grad = loss(model.forward(x, MODE_TRAIN, rng), data)
        if not np.isfinite(term):
            raise NonFiniteActivation(f"non-finite loss {term}")
        model.backward(grad)
        total += term
    return total


def fit(net, n_items: int, batch_size: int, cfg, tags: tuple, step, judge,
        log=None, patience: float = math.inf) -> TrainResult:
    """The one training loop: train ``net`` (a `Model`) with a new AdamW
    under ``cfg`` (a TrainConfig or a PRMConfig), where ``tags`` is
    (shuffle tag, dropout tag).  Every call starts the optimizer afresh,
    so training a trained model is a warm start from its weights.

    Epoch e visits the ``n_items`` items in the order of the stream
    (cfg.seed, shuffle tag, e), one optimizer step per ``batch_size``
    items: the gradients are zeroed, ``step(sel, rng)`` adds the gradient
    of the loss of the batch of items ``sel`` through `accumulate_grad`
    and returns the loss, and AdamW steps.  ``step`` builds the inputs of,
    forwards and back-propagates micro-batches of at most
    `VisionTransformer.micro_batch` samples (4 on the desk model, 1 on the
    paper model), each term scaled to the whole batch, so the inputs and
    the layer caches hold one micro-batch while the gradient is the whole
    batch's up to summation order.  The micro-batches of batch
    b draw their dropout masks in turn from the stream (cfg.seed, dropout
    tag, e, b).

    ``judge(train_loss)`` returns each epoch's held-out figure, to
    maximise, and the fields of its record {"epoch", "train_loss",
    **fields, "seconds"}, which goes to the history and to ``log``.  The
    weights of the first epoch with the highest figure are kept, and
    training stops after ``patience`` + 1 epochs in a row without a
    strictly higher one.  A non-finite loss, activation or gradient stops
    training with ``diverged`` set.  The kept weights are loaded at the
    end: the initial ones when no figure exceeded -inf.
    """
    shuffle_tag, dropout_tag = tags
    store = net.store
    opt = AdamW(lr=cfg.lr, weight_decay=cfg.weight_decay)
    history = []
    # (figure, weights, epoch) of the kept weights
    best = (-np.inf, store.values_copy(), -1)
    diverged = False
    try:
        # the ViT's own checks report a diverging epoch, not numpy's warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
                    best = (figure, store.values_copy(), epoch)
                rec = {"epoch": epoch, "train_loss": train_loss, **fields,
                       "seconds": time.perf_counter() - t0}
                history.append(rec)
                if log:
                    log(rec)
                if epoch - best[2] > patience:
                    break
    except (NonFiniteActivation, NonFiniteGradient):
        diverged = True
    store.load_values(best[1])
    return TrainResult(model=net, history=history, diverged=diverged)


def accumulate_loss_grad(model: VisionTransformer, n: int, build,
                         rng: RngStream | None) -> float:
    """`accumulate_grad` of the mean squared error of a batch of ``n``
    samples, where ``build(rows)`` returns the (inputs, normalised target)
    of the samples ``rows``; one micro-batch at a time, each term scaled
    by the whole batch's element count.  Returns the loss."""

    def loss(pred, target):
        d = pred - target
        size = n * d[0].size
        return float(np.sum(d * d)) / size, 2.0 * d / size

    return accumulate_grad(model, n, model.micro_batch, build, rng, loss)


def fit_surrogate(surrogate: Surrogate, dataset: Dataset, indices, cfg: TrainConfig,
                  log=None) -> TrainResult:
    """`fit` ``surrogate``, in place, to the consecutive pairs of the
    trajectories ``indices``, keeping the weights of the lowest MSE on the
    val split's pairs, or of the lowest train loss when the split is empty
    (``val_mse`` is then NaN).  When no epoch ran, the history is one
    epoch -1 record of the kept weights."""
    train_pairs = consecutive_pairs(dataset, indices)
    val_pairs = consecutive_pairs(dataset, dataset.split["val"])
    if not train_pairs and cfg.epochs:
        raise ValueError("no training pairs available")

    def step(sel, rng):
        def build(rows):
            fields, times, targets = _gather(dataset, train_pairs, sel[rows])
            return surrogate.inputs((fields, times)), surrogate.norm.apply(targets)

        return accumulate_loss_grad(surrogate.model, len(sel), build, rng)

    def judge(train_loss):
        val = _val_mse(surrogate, dataset, val_pairs, cfg.batch_size) if val_pairs else np.nan
        return (-val if val_pairs else -train_loss), {"val_mse": val}

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
    """Continue training from a pretrained checkpoint on a small subset of
    ``n_traj`` train trajectories; with none, no epoch runs and the
    history is the epoch -1 record of the pretrained weights.

    The pretrained normalization stays attached to the model; downstream
    statistics are not recomputed.
    """
    surrogate = Surrogate(pretrained.config, pretrained.norm, pretrained.init_seed,
                          pretrained.dt_out)
    surrogate.store.load_values(pretrained.store.values_copy())
    chosen = select_finetune_trajectories(dataset, n_traj, train_cfg.seed)
    if not chosen:
        train_cfg = replace(train_cfg, epochs=0)
    return fit_surrogate(surrogate, dataset, chosen, train_cfg, log)
