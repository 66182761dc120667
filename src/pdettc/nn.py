"""Differentiable layer kernel used by the surrogate and reward models.

Tensors are plain ndarrays.  The model topology is a fixed layer graph:
in a train ``forward`` every layer caches what its backward pass needs,
and ``backward`` releases gradients in reverse order.  There is no
general-purpose taping; the graph is the object tree.

Dtype rule: compute in the input's dtype, keep state in float64.  The
parameter masters, the gradient accumulators and the AdamW moments are
float64.  A forward pass computes in its input's dtype, and a backward
pass in the dtype of its incoming gradient, which is the forward's: a
float64 input reads the masters themselves, a float32 one a float32 copy
of each parameter (`Param.like`), dropped whenever `ParamStore.load_values`
or `AdamW.step` changes the masters and rebuilt on its next use.  Float32
gradient products are added into the float64 accumulators, and no loss
scaling is needed at float32.  Training and sampling run float32; the
finite-difference gradient checks run float64 through the same code.
Module constants that meet activations are Python floats, because a
NumPy float64 scalar would promote a float32 array to float64.  GELU
evaluates erf with the C library's `math.erf`, element by element, in
float64 and with a float32 rational approximation (`_erf32`, max abs
error below 1e-6) in float32.  Only float64 passes, such as the
gradient checks, pay for the elementwise loop; the package needs NumPy
alone.

Only a train forward caches.  Every forward takes ``train`` (default
True); the model passes True in MODE_TRAIN only.  A train forward keeps
what its backward needs, and each layer drops that cache at the end of
its backward, so a trained model holds no activations between steps.
What a train forward keeps, per layer:

- Affine: its input as a 2-D array (PatchEmbed and PatchDecode cache
  only through their Affine);
- LayerNorm: x-hat and 1/sigma;
- Gelu: its input and 1 + erf(x/sqrt(2)), which backward halves into
  the normal CDF instead of evaluating erf again;
- Dropout: its bool mask;
- MultiHeadSelfAttention: the scaled q, k, v and the key-major
  attention before dropout.

Every cache is as large as the batch the forward saw.  Backward adds
into the parameter gradients, so the training loops forward and
backward one micro-batch (`VisionTransformer.micro_batch` samples) at a
time, zero the gradients once per optimizer batch and step once: the
caches hold one micro-batch, not the batch.

An inference forward (``train=False``) drops every cache the layer held, so
a model that only samples or scores keeps no backward state, and it works
in place where its input is a temporary that nothing else holds:
dropout scales its input, and LayerNorm normalises, scales and shifts
its centred copy.  Affine adds its bias into the matmul product and a
block sums its residual into the attention output in every mode.  An
inference forward computes bit for bit what a train forward computes.

Attention runs key-major.  q is pre-scaled by head_dim**-0.5, the scores
are sT = k @ q^T with shape (batch, heads, keys, queries), softmax runs
along axis -2 (each column holds one query's weights), the dropout mask
is drawn in that (b, h, key, query) layout, and ctx = attn_d^T @ v.
Softmax's reductions and the mask then run across contiguous rows, which
NumPy does about twice as fast as reductions along the last axis.  A
train forward caches the scaled q, k, v and the normalised key-major
attention, not the dropped-out copy, which backward rebuilds from the
dropout mask.  A dropout layer keeps its bool mask until its next
forward, because attention's backward applies the mask twice.

Dropout is the only stochastic layer.  Each mask is one draw of raw
16-bit values from an :class:`~pdettc.rng.RngStream` (`RngStream.bits16`),
kept where a value is at least ceil(p * 2**16), and stored as a bool
array, so a forward pass is reproducible from (seed, stream, counter)
alone.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import RngStream

LN_EPS = 1e-5
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# erf(x) ~ x * P(x**2) / Q(x**2) on [-4, 4] (Eigen's float erf); float32
# erf rounds to +-1 beyond.  Highest power first.
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)


class NonFiniteGradient(RuntimeError):
    """A parameter gradient contains NaN/Inf; optimizer step aborted."""


class NonFiniteActivation(RuntimeError):
    """A layer produced a non-finite output."""


class Param:
    """Learnable float64 tensor with its float64 gradient buffer and a
    float32 copy for float32 passes."""

    __slots__ = ("value", "grad", "_f32")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self._f32 = None

    def like(self, x: np.ndarray) -> np.ndarray:
        """The value in x's dtype: the float32 copy for a float32 x, else
        the float64 master."""
        if x.dtype != np.float32:
            return self.value
        if self._f32 is None:
            self._f32 = self.value.astype(np.float32)
        return self._f32

    def changed(self) -> None:
        """Drop the float32 copy after the master was written."""
        self._f32 = None


class ParamStore:
    """Named parameter registry shared by the model and the optimizer.  It
    holds the weights and their gradients; the optimizer state is
    `AdamW`'s."""

    def __init__(self, named_params):
        self.params: dict[str, Param] = dict(named_params)

    def __getitem__(self, name: str) -> Param:
        return self.params[name]

    def names(self) -> list[str]:
        return list(self.params.keys())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad.fill(0.0)

    def values_copy(self) -> dict[str, np.ndarray]:
        return {k: p.value.copy() for k, p in self.params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Set the parameters.  ``values`` must hold every parameter of the
        store, by name and shape, and nothing else."""
        if values.keys() != self.params.keys():
            raise ValueError("parameter names do not match the model's: "
                             f"{sorted(values.keys() ^ self.params.keys())}")
        for k, p in self.params.items():
            if np.shape(values[k]) != p.value.shape:
                raise ValueError(f"parameter {k} has shape {np.shape(values[k])}, "
                                 f"the model's is {p.value.shape}")
        for k, p in self.params.items():
            p.value[...] = values[k]
            p.changed()


def trunc_normal(rng: RngStream, shape, std: float = 0.02) -> np.ndarray:
    """Normal init clipped at two standard deviations."""
    return np.clip(rng.normal(size=shape, scale=std), -2.0 * std, 2.0 * std)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = x - np.max(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def softmax_backward(y: np.ndarray, dy: np.ndarray, axis: int = -1) -> np.ndarray:
    return y * (dy - np.sum(dy * y, axis=axis, keepdims=True))


class Affine:
    """y = x @ W + b over the last axis."""

    def __init__(self, d_in: int, d_out: int, rng: RngStream, name: str = "affine"):
        self.name = name
        self.w = Param(trunc_normal(rng, (d_in, d_out)))
        self.b = Param(np.zeros(d_out))
        self._x2d = None
        self._lead = None

    def named_params(self, prefix: str):
        yield f"{prefix}.w", self.w
        yield f"{prefix}.b", self.b

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.shape[-1] != self.w.value.shape[0]:
            raise ValueError(
                f"{self.name}: input dim {x.shape[-1]} != {self.w.value.shape[0]}"
            )
        lead = x.shape[:-1]
        x2d = x.reshape(-1, x.shape[-1])
        self._x2d, self._lead = (x2d, lead) if train else (None, None)
        y = x2d @ self.w.like(x)
        y += self.b.like(x)
        return y.reshape(*lead, -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dy2d = dy.reshape(-1, dy.shape[-1])
        self.w.grad += self._x2d.T @ dy2d
        self.b.grad += dy2d.sum(axis=0)
        dx = dy2d @ self.w.like(dy).T
        self._x2d = None
        return dx.reshape(*self._lead, -1)


class LayerNorm:
    """Normalization over the last axis with learned scale/shift."""

    def __init__(self, dim: int):
        self.g = Param(np.ones(dim))
        self.b = Param(np.zeros(dim))
        self._xhat = None
        self._inv = None

    def named_params(self, prefix: str):
        yield f"{prefix}.g", self.g
        yield f"{prefix}.b", self.b

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        var = np.mean(xc * xc, axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + LN_EPS)
        xc *= inv                                       # x-hat
        self._xhat, self._inv = (xc, inv) if train else (None, None)
        y = xc * self.g.like(x) if train else np.multiply(xc, self.g.like(x), out=xc)
        y += self.b.like(x)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        axes = tuple(range(dy.ndim - 1))
        self.g.grad += (dy * self._xhat).sum(axis=axes)
        self.b.grad += dy.sum(axis=axes)
        dxhat = dy * self.g.like(dy)
        mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
        mean_dxhat_xhat = (dxhat * self._xhat).mean(axis=-1, keepdims=True)
        dx = self._inv * (dxhat - mean_dxhat - self._xhat * mean_dxhat_xhat)
        self._xhat = self._inv = None
        return dx


def _erf32(x: np.ndarray) -> np.ndarray:
    """erf of a float32 array in float32, max abs error below 1e-6.

    Odd, +-1 at +-inf, and NaN where x is NaN.  Horner steps write in
    place, so a call allocates four arrays of x's size.
    """
    x = np.clip(x, -4.0, 4.0)
    x2 = x * x
    p = x2 * _ERF_P[0]
    p += _ERF_P[1]
    for c in _ERF_P[2:]:
        p *= x2
        p += c
    p *= x
    q = x2 * _ERF_Q[0]
    q += _ERF_Q[1]
    for c in _ERF_Q[2:]:
        q *= x2
        q += c
    p /= q
    return p


# erf of each element through the C library, in float64.
_erf64 = np.vectorize(math.erf, otypes=[np.float64])


def _erf(x: np.ndarray) -> np.ndarray:
    """erf in x's dtype: `_erf32` for float32, `math.erf` per element
    (in float64) otherwise."""
    return _erf32(x) if x.dtype == np.float32 else _erf64(x)


class Gelu:
    """x * Phi(x) with the exact normal CDF: erf from `math.erf` in
    float64, from `_erf32` in float32."""

    def __init__(self):
        self._x = None
        self._cdf2 = None                # 1 + erf(x / sqrt(2)), i.e. 2 * Phi(x)

    def named_params(self, prefix: str):
        return iter(())

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        cdf2 = _erf(x * _INV_SQRT2)
        cdf2 += 1.0
        self._x, self._cdf2 = (x, cdf2) if train else (None, None)
        y = cdf2 * x if train else np.multiply(cdf2, x, out=cdf2)
        y *= 0.5
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        cdf = 0.5 * self._cdf2
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
        self._x = self._cdf2 = None
        return dy * (cdf + x * pdf)


class Dropout:
    """Inverted dropout; kept entries scaled by 1/(1-p).

    An entry is kept where its raw uint16 value is >= threshold =
    ceil(p * 2**16), so the effective drop probability is
    threshold / 2**16, which exceeds p by less than 2**-16.  p must lie
    in [0, 1 - 2**-16] for the threshold to fit in uint16.
    """

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0 - 2.0 ** -16:
            raise ValueError(
                f"dropout p must be in [0, 1 - 2**-16] so that ceil(p * 2**16) "
                f"fits in uint16, got p={p}")
        self.p = p
        self.threshold = np.uint16(math.ceil(p * 2.0 ** 16))
        self.scale = 1.0 / (1.0 - p)
        self._mask = None

    def named_params(self, prefix: str):
        return iter(())

    def forward(self, x: np.ndarray, active: bool, rng: RngStream | None,
                train: bool = True) -> np.ndarray:
        """x with this forward's mask applied when ``active``.

        With ``train`` the result is a new array and the mask is kept for
        backward; without it the mask is dropped and x is overwritten, so
        x must be a temporary that nothing else holds.
        """
        if not active or self.p == 0.0:
            self._mask = None
            return x
        mask = rng.bits16(x.shape) >= self.threshold
        self._mask = mask if train else None
        y = x * mask if train else np.multiply(x, mask, out=x)
        y *= self.scale
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dy
        dx = dy * self._mask
        dx *= self.scale
        return dx


class MultiHeadSelfAttention:
    """Softmax attention over tokens (batch, n_tokens, dim)."""

    def __init__(self, dim: int, n_heads: int, dropout_p: float, rng: RngStream):
        if dim % n_heads != 0:
            raise ValueError(f"embed dim {dim} not divisible by {n_heads} heads")
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.scale = self.head_dim ** -0.5
        self.qkv = Affine(dim, 3 * dim, rng, name="qkv")
        self.proj = Affine(dim, dim, rng, name="proj")
        self.attn_drop = Dropout(dropout_p)
        self.proj_drop = Dropout(dropout_p)
        self._cache = None

    def named_params(self, prefix: str):
        yield from self.qkv.named_params(f"{prefix}.qkv")
        yield from self.proj.named_params(f"{prefix}.proj")

    def forward(self, x: np.ndarray, active: bool, rng: RngStream | None,
                train: bool = True) -> np.ndarray:
        b, n, d = x.shape
        h, dh = self.n_heads, self.head_dim
        qkv = self.qkv.forward(x, train).reshape(b, n, 3, h, dh)
        q, k, v = (np.ascontiguousarray(qkv[:, :, i].transpose(0, 2, 1, 3)) for i in range(3))
        q *= self.scale
        attn = softmax(k @ q.swapaxes(-1, -2), axis=-2)   # (b, h, key, query)
        attn_d = self.attn_drop.forward(attn, active, rng, train)
        ctx = attn_d.swapaxes(-1, -2) @ v                 # (b, h, query, dh)
        ctx = ctx.transpose(0, 2, 1, 3).reshape(b, n, d)
        out = self.proj.forward(ctx, train)
        out = self.proj_drop.forward(out, active, rng, train)
        self._cache = (q, k, v, attn) if train else None
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        q, k, v, attn = self._cache                  # q is scaled, attn key-major
        self._cache = None
        b, h, n, dh = q.shape
        d = h * dh
        dout = self.proj_drop.backward(dy)
        dctx = self.proj.backward(dout)
        dctx = dctx.reshape(b, n, h, dh).transpose(0, 2, 1, 3)
        attn_d = self.attn_drop.backward(attn)      # the forward's dropped attention
        dv = attn_d @ dctx
        del attn_d
        dattn = self.attn_drop.backward(v @ dctx.swapaxes(-1, -2))
        dscores = softmax_backward(attn, dattn, axis=-2)
        dq = dscores.swapaxes(-1, -2) @ k
        dq *= self.scale
        dk = dscores @ q
        dqkv = np.empty((b, n, 3, h, dh), dtype=dy.dtype)
        for i, g in enumerate((dq, dk, dv)):
            dqkv[:, :, i] = g.transpose(0, 2, 1, 3)
        return self.qkv.backward(dqkv.reshape(b, n, 3 * d))


class Mlp:
    """Token-wise feed-forward: affine, GELU, affine, with dropout."""

    def __init__(self, dim: int, hidden: int, dropout_p: float, rng: RngStream):
        self.fc1 = Affine(dim, hidden, rng, name="fc1")
        self.act = Gelu()
        self.drop1 = Dropout(dropout_p)
        self.fc2 = Affine(hidden, dim, rng, name="fc2")
        self.drop2 = Dropout(dropout_p)

    def named_params(self, prefix: str):
        yield from self.fc1.named_params(f"{prefix}.fc1")
        yield from self.fc2.named_params(f"{prefix}.fc2")

    def forward(self, x: np.ndarray, active: bool, rng: RngStream | None,
                train: bool = True) -> np.ndarray:
        y = self.fc1.forward(x, train)
        y = self.act.forward(y, train)
        y = self.drop1.forward(y, active, rng, train)
        y = self.fc2.forward(y, train)
        return self.drop2.forward(y, active, rng, train)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dy = self.drop2.backward(dy)
        dy = self.fc2.backward(dy)
        dy = self.drop1.backward(dy)
        dy = self.act.backward(dy)
        return self.fc1.backward(dy)


class Block:
    """Pre-norm residual block: x + MHSA(LN(x)) + FFN(LN(x)).

    Both branches read the block input (parallel residual form), so the
    backward pass sums three paths into dx.
    """

    def __init__(self, dim: int, n_heads: int, mlp_ratio: float, dropout_p: float,
                 rng: RngStream):
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, n_heads, dropout_p, rng)
        self.ln2 = LayerNorm(dim)
        self.mlp = Mlp(dim, int(round(dim * mlp_ratio)), dropout_p, rng)

    def named_params(self, prefix: str):
        yield from self.ln1.named_params(f"{prefix}.ln1")
        yield from self.attn.named_params(f"{prefix}.attn")
        yield from self.ln2.named_params(f"{prefix}.ln2")
        yield from self.mlp.named_params(f"{prefix}.mlp")

    def forward(self, x: np.ndarray, active: bool, rng: RngStream | None,
                train: bool = True) -> np.ndarray:
        y = self.attn.forward(self.ln1.forward(x, train), active, rng, train)
        y += x
        y += self.mlp.forward(self.ln2.forward(x, train), active, rng, train)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dx = dy.copy()
        dx += self.ln1.backward(self.attn.backward(dy))
        dx += self.ln2.backward(self.mlp.backward(dy))
        return dx


def padded_size(n: int, patch: int) -> int:
    """Smallest multiple of ``patch`` that is >= n."""
    return n + (-n) % patch


class PatchEmbed:
    """Circularly pad to a patch multiple, split into P x P patches, embed.

    Kernel size equals stride (non-overlapping patches), so the
    convolution reduces to a reshape plus one affine map.
    """

    def __init__(self, height: int, width: int, patch: int, in_channels: int,
                 dim: int, rng: RngStream):
        self.h, self.w, self.p, self.c = height, width, patch, in_channels
        self.hp, self.wp = padded_size(height, patch), padded_size(width, patch)
        self.nh, self.nw = self.hp // patch, self.wp // patch
        self.n_tokens = self.nh * self.nw
        self.proj = Affine(in_channels * patch * patch, dim, rng, name="patch_proj")

    def named_params(self, prefix: str):
        yield from self.proj.named_params(f"{prefix}.proj")

    def patchify(self, x: np.ndarray) -> np.ndarray:
        b = x.shape[0]
        xp = np.pad(x, ((0, 0), (0, 0), (0, self.hp - self.h), (0, self.wp - self.w)),
                    mode="wrap")
        t = xp.reshape(b, self.c, self.nh, self.p, self.nw, self.p)
        t = t.transpose(0, 2, 4, 1, 3, 5)
        return t.reshape(b, self.n_tokens, self.c * self.p * self.p)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        return self.proj.forward(self.patchify(x), train)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dt = self.proj.backward(dy)
        b = dt.shape[0]
        dxp = dt.reshape(b, self.nh, self.nw, self.c, self.p, self.p)
        dxp = dxp.transpose(0, 3, 1, 4, 2, 5).reshape(b, self.c, self.hp, self.wp)
        h, w = self.h, self.w
        dx = dxp[:, :, :h, :w].copy()
        if self.hp > h:
            dx[:, :, : self.hp - h, :] += dxp[:, :, h:, :w]
        if self.wp > w:
            dx[:, :, :, : self.wp - w] += dxp[:, :, :h, w:]
        if self.hp > h and self.wp > w:
            dx[:, :, : self.hp - h, : self.wp - w] += dxp[:, :, h:, w:]
        return dx


class PatchDecode:
    """Project tokens back to pixel patches and crop off the circular pad."""

    def __init__(self, embed: PatchEmbed, out_channels: int, dim: int, rng: RngStream):
        self.e = embed
        self.c_out = out_channels
        self.proj = Affine(dim, out_channels * embed.p * embed.p, rng, name="patch_deproj")

    def named_params(self, prefix: str):
        yield from self.proj.named_params(f"{prefix}.proj")

    def forward(self, tokens: np.ndarray, train: bool = True) -> np.ndarray:
        e = self.e
        t = self.proj.forward(tokens, train)
        b = t.shape[0]
        img = t.reshape(b, e.nh, e.nw, self.c_out, e.p, e.p)
        img = img.transpose(0, 3, 1, 4, 2, 5).reshape(b, self.c_out, e.hp, e.wp)
        return np.ascontiguousarray(img[:, :, : e.h, : e.w])

    def backward(self, dy: np.ndarray) -> np.ndarray:
        e = self.e
        b = dy.shape[0]
        dimg = np.zeros((b, self.c_out, e.hp, e.wp), dtype=dy.dtype)
        dimg[:, :, : e.h, : e.w] = dy
        dt = dimg.reshape(b, self.c_out, e.nh, e.p, e.nw, e.p)
        dt = dt.transpose(0, 2, 4, 1, 3, 5).reshape(b, e.n_tokens, -1)
        return self.proj.backward(dt)


class AdamW:
    """Decoupled weight-decay Adam over a ParamStore.

    The optimizer owns its state: the step count ``t`` and the float64
    first and second moments of each parameter, by name, allocated at
    the first `step`.  Adam's bias correction is valid only for moments
    that started with the count, so a warm start is a new AdamW over the
    loaded weights, and the state is never saved.
    """

    def __init__(self, lr: float, weight_decay: float = 0.0,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.lr = lr
        self.weight_decay = weight_decay
        self.betas = betas
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, store: ParamStore) -> None:
        for name, p in store.params.items():
            if not np.all(np.isfinite(p.grad)):
                raise NonFiniteGradient(f"non-finite gradient in '{name}'")
        if not self.m:
            self.m = {name: np.zeros_like(p.value) for name, p in store.params.items()}
            self.v = {name: np.zeros_like(p.value) for name, p in store.params.items()}
        self.t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in store.params.items():
            m, v, g = self.m[name], self.v[name], p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.value
            p.value -= self.lr * update
            p.changed()
