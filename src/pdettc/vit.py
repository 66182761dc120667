"""Patch-token vision transformer for image-to-image and scalar heads.

The encoder splits the (circularly padded) input into non-overlapping
odd-sized patches, adds a learned positional table, and runs a stack of
pre-norm residual blocks.  The image head projects tokens back to pixel
patches (next-snapshot prediction); the scalar head mean-pools tokens to
a single score (reward model).

A forward checks each stage's output as it is produced (the embedding
plus positions, every block, the head) and raises NonFiniteActivation
naming the first stage that is not finite, so a failure is located in
the same pass that produced it.

The dtype rule is `pdettc.nn`'s: compute in the input's dtype, keep
state in float64.  Training, validation, sampling and scoring forward
float32 inputs; the gradient checks forward float64 ones through the
same code.  `backward` computes in the dtype of the forward it follows
and accumulates into the float64 parameter gradients.

Training and evaluation forward at most `VisionTransformer.micro_batch`
samples at a time: the most whose float32 attention scores
(4 * n_heads * n_tokens**2 bytes each) fit in `L2_BYTES`.  A train
forward caches activations for its own samples only, so accumulating
gradients over micro-batches bounds activation memory by the
micro-batch, not by the optimizer batch.  The image head is bitwise
batch-invariant, the scalar head is not (its token mean and score
matmul round with the batch size).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .nn import (Block, Dropout, NonFiniteActivation, Param, ParamStore,
                 PatchDecode, PatchEmbed, Affine, trunc_normal)
from .rng import RngStream

MODE_TRAIN = "train"
MODE_STOCHASTIC = "stochastic_infer"
MODE_DETERMINISTIC = "deterministic_infer"
_MODES = (MODE_TRAIN, MODE_STOCHASTIC, MODE_DETERMINISTIC)

L2_BYTES = 2 * 1024 * 1024      # a micro-batch's attention scores fit in this


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of one transformer; identical family for FM and PRM."""

    height: int = 64
    width: int = 64
    patch_size: int = 5
    in_channels: int = 5
    out_channels: int = 4
    embed_dim: int = 64
    depth: int = 4
    n_heads: int = 4
    mlp_ratio: float = 4.0
    dropout_p: float = 0.1
    head: str = "image"            # "image" | "scalar"

    def __post_init__(self):
        if self.patch_size % 2 == 0:
            raise ValueError(f"patch size must be odd, got {self.patch_size}")
        if self.embed_dim % self.n_heads != 0:
            raise ValueError("embed_dim must be divisible by n_heads")
        if self.head not in ("image", "scalar"):
            raise ValueError(f"unknown head {self.head!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


def _finite(z: np.ndarray, stage: str) -> np.ndarray:
    if not np.isfinite(z).all():
        raise NonFiniteActivation(f"non-finite output from layer '{stage}'")
    return z


class VisionTransformer:
    def __init__(self, cfg: ModelConfig, init_rng: RngStream):
        self.cfg = cfg
        c = cfg
        self.embed = PatchEmbed(c.height, c.width, c.patch_size, c.in_channels,
                                c.embed_dim, init_rng)
        self.pos = Param(trunc_normal(init_rng, (self.embed.n_tokens, c.embed_dim)))
        self.pos_drop = Dropout(c.dropout_p)
        self.blocks = [Block(c.embed_dim, c.n_heads, c.mlp_ratio, c.dropout_p, init_rng)
                       for _ in range(c.depth)]
        if c.head == "image":
            self.decode = PatchDecode(self.embed, c.out_channels, c.embed_dim, init_rng)
            self.score = None
        else:
            self.decode = None
            self.score = Affine(c.embed_dim, 1, init_rng, name="score")
        self._dtype = None               # the last train forward's dtype

    @property
    def n_tokens(self) -> int:
        return self.embed.n_tokens

    @property
    def micro_batch(self) -> int:
        """Samples per training or evaluation forward: the most whose
        float32 attention scores fit in `L2_BYTES`, at least 1."""
        per_sample = 4 * self.cfg.n_heads * self.n_tokens ** 2
        return max(1, L2_BYTES // per_sample)

    def named_params(self):
        yield from self.embed.named_params("embed")
        yield "pos", self.pos
        for i, blk in enumerate(self.blocks):
            yield from blk.named_params(f"blocks.{i}")
        if self.decode is not None:
            yield from self.decode.named_params("decode")
        if self.score is not None:
            yield from self.score.named_params("score")

    def param_store(self) -> ParamStore:
        return ParamStore(self.named_params())

    def forward(self, x: np.ndarray, mode: str, rng: RngStream | None = None) -> np.ndarray:
        """Run the model on a batch (B, C, H, W).

        ``rng`` is required when dropout is active (train or stochastic
        inference with dropout_p > 0).  A float32 x gives a float32 output.
        Each stage's output is checked as it is produced: a non-finite one
        raises NonFiniteActivation naming the stage ('embed+pos',
        'blocks.i' or 'head').  Only a MODE_TRAIN forward keeps what
        `backward` needs; an inference forward drops every layer's cache.
        """
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}")
        train = mode == MODE_TRAIN
        active = mode != MODE_DETERMINISTIC and self.cfg.dropout_p > 0.0
        if active and rng is None:
            raise ValueError("dropout active but no rng stream given")
        self._dtype = x.dtype if train else None
        z = self.embed.forward(x, train)
        z += self.pos.like(x)
        z = _finite(self.pos_drop.forward(z, active, rng, train), "embed+pos")
        for i, blk in enumerate(self.blocks):
            z = _finite(blk.forward(z, active, rng, train), f"blocks.{i}")
        if self.decode is not None:
            y = self.decode.forward(z, train)
        else:
            y = self.score.forward(z.mean(axis=1), train)[:, 0]
        return _finite(y, "head")

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients; returns gradient w.r.t. input.

        Follows one MODE_TRAIN forward, in whose dtype it computes (dy is
        cast to it).  Raises RuntimeError when the last forward was an
        inference one or its backward already ran.
        """
        if self._dtype is None:
            raise RuntimeError("backward needs a MODE_TRAIN forward before it: "
                               "inference forwards keep no backward state")
        dy = dy.astype(self._dtype, copy=False)
        self._dtype = None
        if self.decode is not None:
            dz = self.decode.backward(dy)
        else:
            n_tok = self.n_tokens
            dpooled = self.score.backward(dy[:, None])
            dz = np.broadcast_to(dpooled[:, None, :] / n_tok,
                                 (dy.shape[0], n_tok, dpooled.shape[-1])).copy()
        for blk in reversed(self.blocks):
            dz = blk.backward(dz)
        dz = self.pos_drop.backward(dz)
        self.pos.grad += dz.sum(axis=0)
        return self.embed.backward(dz)
