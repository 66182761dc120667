import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

import fd
from pdettc import nn
from pdettc.nn import (AdamW, Affine, Block, Dropout, Gelu, LayerNorm, Mlp,
                       MultiHeadSelfAttention, NonFiniteActivation,
                       NonFiniteGradient, Param, ParamStore, PatchDecode,
                       PatchEmbed, _erf, _erf32, normalize, softmax, softmax_backward)
from pdettc.rng import RngStream
from pdettc.vit import (L2_BYTES, MODE_DETERMINISTIC, MODE_STOCHASTIC, MODE_TRAIN,
                        ModelConfig, VisionTransformer)


def _store(layer):
    return ParamStore(layer.named_params("l"))


# ---------------------------------------------------------------------------
# basic op identities


def test_affine_identity_case():
    layer = Affine(5, 5, RngStream(0))
    layer.w.value[...] = np.eye(5)
    layer.b.value[...] = 0.0
    x = np.random.default_rng(0).normal(size=(3, 5))
    assert np.array_equal(layer.forward(x), x)


def test_affine_shape_mismatch_raises():
    layer = Affine(5, 3, RngStream(0))
    with pytest.raises(ValueError, match="input dim"):
        layer.forward(np.zeros((2, 4)))


def test_softmax_rows_sum_to_one(np_rng):
    x = np_rng.normal(size=(6, 11)) * 7.0
    e, sums = softmax(x, axis=-1)
    assert sums.shape == (6, 1) and np.all(e.max(axis=-1) == 1.0)
    y = e / sums
    assert np.all(np.abs(y.sum(axis=-1) - 1.0) <= 1e-12)
    assert np.all(y >= 0.0)


def test_layer_norm_constant_row_gives_shift():
    ln = LayerNorm(7)
    ln.b.value[...] = np.arange(7.0)
    y = ln.forward(*normalize(np.full((3, 7), 4.2)))
    assert np.allclose(y, np.arange(7.0), atol=1e-12)


def test_layer_norm_standardizes(np_rng):
    ln = LayerNorm(16)
    y = ln.forward(*normalize(np_rng.normal(size=(10, 16)) * 3.0 + 5.0))
    assert np.max(np.abs(y.mean(axis=-1))) < 1e-10
    assert np.max(np.abs(y.var(axis=-1) - 1.0)) < 1e-4


# ---------------------------------------------------------------------------
# gradient checks vs central finite differences (the fd module is the oracle)


@pytest.mark.parametrize("seed", range(10))
def test_affine_grads(seed):
    rng = np.random.default_rng(seed)
    b, din, dout = int(rng.integers(1, 5)), int(rng.integers(2, 9)), int(rng.integers(2, 9))
    layer = Affine(din, dout, RngStream(seed))
    x = rng.normal(size=(b, din))
    w = rng.normal(size=(b, dout))

    def loss():
        return float(np.sum(layer.forward(x) * w))

    loss()
    dx = layer.backward(w)
    store = _store(layer)
    assert fd.check_param_grads(loss, store, rng) < fd.REL_TOL
    assert fd.check_input_grad(loss, x, dx, rng) < fd.REL_TOL


@pytest.mark.parametrize("seed", range(10))
def test_layernorm_gelu_softmax_grads(seed):
    rng = np.random.default_rng(100 + seed)
    b, d = int(rng.integers(2, 6)), int(rng.integers(3, 10))
    ln = LayerNorm(d)
    ln.g.value[...] = rng.normal(size=d)
    ln.b.value[...] = rng.normal(size=d)
    act = Gelu()
    x = rng.normal(size=(b, d))
    w = rng.normal(size=(b, d))

    def loss():
        return float(np.sum(act.forward(ln.forward(*normalize(x))) * w))

    loss()
    dx = ln.backward(act.backward(w))
    assert fd.check_param_grads(loss, _store(ln), rng) < fd.REL_TOL
    assert fd.check_input_grad(loss, x, dx, rng) < fd.REL_TOL

    def normalised():
        e, sums = softmax(x.copy(), axis=-1)
        return e / sums

    dxs = softmax_backward(normalised(), w)
    def loss_s():
        return float(np.sum(normalised() * w))
    assert fd.check_input_grad(loss_s, x, dxs, rng) < fd.REL_TOL


@pytest.mark.parametrize("seed", range(10))
def test_mhsa_grads_match_fd(seed):
    rng = np.random.default_rng(200 + seed)
    layer = MultiHeadSelfAttention(dim=6, n_heads=2, dropout_p=0.0,
                                   rng=RngStream(seed, 3))
    x = rng.normal(size=(2, 4, 6))
    w = rng.normal(size=(2, 4, 6))

    def loss():
        return float(np.sum(layer.forward(x, False, None) * w))

    loss()
    store = _store(layer)
    store.zero_grad()
    layer.forward(x, False, None)
    dx = layer.backward(w)
    assert fd.check_param_grads(loss, store, rng, max_per_tensor=8) < fd.REL_TOL
    assert fd.check_input_grad(loss, x, dx, rng) < fd.REL_TOL


@pytest.mark.parametrize("seed", range(5))
def test_mhsa_grads_match_fd_with_dropout_active(seed):
    # backward rebuilds the dropped attention from the mask; every loss call
    # replays the same masks from the same stream state
    rng = np.random.default_rng(250 + seed)
    layer = MultiHeadSelfAttention(dim=6, n_heads=2, dropout_p=0.3,
                                   rng=RngStream(seed, 3))
    x = rng.normal(size=(2, 4, 6))
    w = rng.normal(size=(2, 4, 6))

    def loss():
        return float(np.sum(layer.forward(x, True, RngStream(seed, 4)) * w))

    store = _store(layer)
    store.zero_grad()
    loss()
    assert np.any(layer.attn_drop._mask == 0)
    dx = layer.backward(w)
    assert layer._cache is None
    assert fd.check_param_grads(loss, store, rng, max_per_tensor=8) < fd.REL_TOL
    assert fd.check_input_grad(loss, x, dx, rng) < fd.REL_TOL


# ---------------------------------------------------------------------------
# attention semantics


def test_mhsa_single_token_is_value_projection():
    layer = MultiHeadSelfAttention(dim=6, n_heads=2, dropout_p=0.0,
                                   rng=RngStream(5, 1))
    x = np.random.default_rng(2).normal(size=(1, 1, 6))
    out = layer.forward(x, False, None)
    e, inv = layer._cache[3:]                   # unnormalised attention, 1 / its sums
    attn = e * inv                              # pre-dropout attention of that forward
    assert attn.shape == (1, 2, 1, 1) and np.allclose(attn, 1.0)
    v = layer.qkv.forward(x)[..., 12:]          # value slice of qkv
    assert np.allclose(out, layer.proj.forward(v), atol=1e-12)


def test_mhsa_attention_rows_stochastic(np_rng):
    layer = MultiHeadSelfAttention(dim=8, n_heads=4, dropout_p=0.0,
                                   rng=RngStream(6, 1))
    layer.forward(np_rng.normal(size=(3, 6, 8)), False, None)
    e, inv = layer._cache[3:]
    assert inv.shape == (3, 4, 1, 6)
    attn = e * inv                              # pre-dropout attention, (b, h, key, query)
    assert attn.shape == (3, 4, 6, 6)
    assert np.max(np.abs(attn.sum(axis=-2) - 1.0)) < 1e-12    # each query's weights
    assert np.all(attn >= 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_mhsa_matches_plain_softmax_attention(seed):
    rng = np.random.default_rng(400 + seed)
    dim, h = 12, 3
    dh = dim // h
    layer = MultiHeadSelfAttention(dim=dim, n_heads=h, dropout_p=0.3,
                                   rng=RngStream(seed, 5))
    x = rng.normal(size=(2, 7, dim))
    qkv = x @ layer.qkv.w.value + layer.qkv.b.value
    ctx = np.empty((2, 7, dim))
    for head in range(h):
        q, k, v = (qkv[..., (i * h + head) * dh:(i * h + head + 1) * dh] for i in range(3))
        s = np.einsum("bqc,bkc->bqk", q, k) / np.sqrt(dh)
        a = np.exp(s - s.max(axis=-1, keepdims=True))
        a /= a.sum(axis=-1, keepdims=True)
        ctx[..., head * dh:(head + 1) * dh] = a @ v
    ref = ctx @ layer.proj.w.value + layer.proj.b.value
    for train in (True, False):
        out = layer.forward(x, False, None, train)      # dropout off
        assert np.max(np.abs(out - ref)) <= 1e-12


def test_float32_attention_with_dropout_matches_normalise_then_mask(np_rng):
    # the deferred normalisation against the textbook order: softmax, mask
    # and scale the weights, then the value product
    b, n, dim, h, p = 2, 9, 16, 4, 0.3
    dh = dim // h
    layer = MultiHeadSelfAttention(dim=dim, n_heads=h, dropout_p=p, rng=RngStream(8, 5))
    layer.qkv.w.value *= 40.0                   # scores of order one, not uniform weights
    layer.qkv.w.changed()
    x = _f32(np_rng, b, n, dim)
    out = layer.forward(x, True, RngStream(3, 1))
    keep_attn = layer.attn_drop._mask.astype(np.float64)    # (b, h, key, query)
    keep_proj = layer.proj_drop._mask.astype(np.float64)
    assert out.dtype == np.float32 and not keep_attn.all()
    assert np.array_equal(layer.forward(x, True, RngStream(3, 1), train=False), out)

    w = {k: v.like(x).astype(np.float64) for k, v in _store(layer).params.items()}
    qkv = x.astype(np.float64) @ w["l.qkv.w"] + w["l.qkv.b"]
    ctx = np.empty((b, n, dim))
    for head in range(h):
        q, k, v = (qkv[..., (i * h + head) * dh:(i * h + head + 1) * dh] for i in range(3))
        s = np.einsum("bqc,bkc->bqk", q, k) / np.sqrt(dh)
        a = np.exp(s - s.max(axis=-1, keepdims=True))
        a /= a.sum(axis=-1, keepdims=True)
        a *= keep_attn[:, head].swapaxes(-1, -2) / (1.0 - p)
        ctx[..., head * dh:(head + 1) * dh] = a @ v
    ref = (ctx @ w["l.proj.w"] + w["l.proj.b"]) * keep_proj / (1.0 - p)
    assert np.max(np.abs(out - ref)) <= 4e-6 * np.max(np.abs(ref))      # ~32 float32 eps


def test_mhsa_permutation_equivariance(np_rng):
    layer = MultiHeadSelfAttention(dim=8, n_heads=2, dropout_p=0.0,
                                   rng=RngStream(7, 1))
    x = np_rng.normal(size=(1, 6, 8))
    perm = np_rng.permutation(6)
    out = layer.forward(x, False, None)
    out_p = layer.forward(x[:, perm], False, None)
    assert np.allclose(out[:, perm], out_p, atol=1e-12)


# ---------------------------------------------------------------------------
# dropout contracts


def test_dropout_p_zero_is_identity(np_rng):
    d = Dropout(0.0)
    x = np_rng.normal(size=(4, 5))
    assert d.forward(x, True, RngStream(0)) is x
    assert d.forward(x, False, None) is x


def test_dropout_off_is_bit_exact(np_rng):
    d = Dropout(0.3)
    x = np_rng.normal(size=(4, 5))
    assert d.forward(x, False, None) is x


def test_dropout_masks_replay_from_stream_state(np_rng):
    d = Dropout(0.4)
    x = np.ones((64, 64))
    y1 = d.forward(x, True, RngStream(9, 2))
    y2 = d.forward(x, True, RngStream(9, 2))
    assert np.array_equal(y1, y2)
    kept = y1[y1 != 0.0]
    assert np.allclose(kept, 1.0 / 0.6)        # inverted-dropout scaling
    y3 = d.forward(x, True, RngStream(9, 3))
    assert not np.array_equal(y1, y3)


def test_dropout_rejects_bad_p():
    # above 1 - 2**-16, ceil(p * 2**16) would not fit the uint16 threshold
    for p in (1.0, 1.0 - 2.0 ** -17, np.nextafter(1.0 - 2.0 ** -16, 1.0), -0.1, float("nan")):
        with pytest.raises(ValueError, match=re.escape(f"p={p}")):
            Dropout(p)


def test_dropout_threshold_sets_the_effective_p():
    top = Dropout(1.0 - 2.0 ** -16)                 # the largest p that fits uint16
    assert top.threshold == np.uint16(0xFFFF)
    for p in (1e-9, 0.1, 0.3, 0.5, 0.9):
        t = int(Dropout(p).threshold)
        assert 0.0 <= t / 2 ** 16 - p < 2.0 ** -16   # effective p = threshold / 2**16


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1),
       counter=st.integers(0, 2**40), p=st.floats(0.01, 0.95),
       shape=st.lists(st.integers(1, 7), min_size=1, max_size=3))
def test_dropout_mask_is_a_pure_function_of_seed_stream_counter(seed, stream, counter,
                                                                p, shape):
    d = Dropout(p)
    x = np.ones(shape)
    rng = RngStream(seed, stream, counter)
    y = d.forward(x, True, rng)
    assert rng.counter == counter + 1               # one draw per mask
    again = d.forward(x, True, RngStream(seed, stream, counter))
    assert np.array_equal(y, again)
    bits = RngStream(seed, stream, counter).bits16(tuple(shape))
    assert bits.dtype == np.uint16
    assert np.array_equal(y != 0.0, bits >= d.threshold)
    assert np.array_equal(d.backward(x), y)         # backward reuses the mask


def test_dropout_masks_of_consecutive_counters_do_not_overlap():
    a = RngStream(5, 1, 0).bits16((4096,))
    b = RngStream(5, 1, 1).bits16((4096,))
    # equal positions under any shift stay at chance, 2**-16 per position
    for s in range(512):
        assert np.count_nonzero(a[s:] == b[:a.size - s]) < 8, s
        assert np.count_nonzero(b[s:] == a[:a.size - s]) < 8, s


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32), p=st.floats(0.02, 0.9))
def test_dropout_kept_fraction_within_5_sigma(seed, p):
    n = 20000
    kept = np.count_nonzero(Dropout(p).forward(np.ones(n), True, RngStream(seed, 7)))
    assert abs(kept - n * (1.0 - p)) <= 5.0 * np.sqrt(n * p * (1.0 - p))


# ---------------------------------------------------------------------------
# erf and in-place kernels


# max abs error of nn._erf against scipy's float64 erf, per dtype
_ERF_TOL = {np.float32: 1e-6, np.float64: 1e-15}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_error_on_a_dense_grid(dtype):
    x = np.linspace(-8.0, 8.0, 2_000_001, dtype=dtype)
    y = _erf(x)
    assert y.dtype == dtype
    assert np.max(np.abs(y.astype(np.float64) - erf(x.astype(np.float64)))) <= _ERF_TOL[dtype]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_is_odd_and_keeps_special_values(dtype):
    x = np.linspace(0.0, 9.0, 100_001, dtype=dtype)
    assert np.array_equal(_erf(-x), -_erf(x))
    special = _erf(np.array([np.inf, -np.inf, np.nan, 0.0, -0.0], dtype=dtype))
    assert special.dtype == dtype
    assert np.array_equal(special[:2], [1.0, -1.0])
    assert np.isnan(special[2])
    assert special[3] == 0.0 and not np.signbit(special[3]) and np.signbit(special[4])


def test_gelu_float64_and_softmax_bitwise_equal_to_the_plain_formulas(np_rng):
    x = np_rng.normal(scale=3.0, size=(3, 7, 33))
    old_gelu = 0.5 * x * (1.0 + _erf(x * (1.0 / np.sqrt(2.0))))
    assert np.array_equal(Gelu().forward(x).view(np.uint64), old_gelu.view(np.uint64))
    for dtype, view in ((np.float64, np.uint64), (np.float32, np.uint32)):
        z = x.astype(dtype)
        for axis in (-1, 1):
            e = np.exp(z - np.max(z, axis=axis, keepdims=True))
            old = e / np.sum(e, axis=axis, keepdims=True)
            zc = z.copy()
            got_e, got_sums = softmax(zc, axis=axis)
            assert got_e is zc and got_e.dtype == got_sums.dtype == dtype
            assert np.array_equal(got_e.view(view), e.view(view))
            assert np.array_equal((got_e / got_sums).view(view), old.view(view))


def test_float32_gelu_bitwise_equal_to_the_textbook_formula():
    # Phi(x) = erf/2 + 1/2 from the halved erf coefficients rounds exactly
    # as 0.5 * x * (1 + erf(x / sqrt 2)) does, over the whole float32 range
    grid = np.linspace(-12.0, 12.0, 2_000_001, dtype=np.float32)
    tiny = np.finfo(np.float32).smallest_subnormal * np.arange(1, 2_000, dtype=np.float32)
    huge = np.array([6.0001, 7.5, 1e3, 1e30, np.finfo(np.float32).max], dtype=np.float32)
    special = np.array([0.0, np.inf, np.nan], dtype=np.float32)
    x = np.concatenate([grid, tiny, huge, special])
    x = np.concatenate([x, -x])
    x0 = x.copy()
    with np.errstate(invalid="ignore"):            # -inf * Phi(-inf) = -inf * 0
        want = 0.5 * x * (1.0 + _erf32(x * (1.0 / math.sqrt(2.0))))
        for train in (True, False):
            got = Gelu().forward(x, train)
            assert got.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    assert np.array_equal(x.view(np.uint32), x0.view(np.uint32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_backward_bitwise_equal_to_the_recomputed_formula(np_rng, dtype):
    # backward reuses the forward's 1 + erf(x / sqrt 2) instead of recomputing it
    x = np_rng.normal(scale=3.0, size=(3, 7, 33)).astype(dtype)
    dy = np_rng.normal(size=x.shape).astype(dtype)
    act = Gelu()
    act.forward(x)
    got = act.backward(dy)
    cdf = 0.5 * (1.0 + _erf(x * (1.0 / math.sqrt(2.0))))
    pdf = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x * x)
    want = dy * (cdf + x * pdf)
    assert got.dtype == dtype
    assert np.array_equal(got, want)


def test_nan_in_a_float32_block_names_that_block(tiny_cfg, np_rng):
    model = VisionTransformer(dataclasses.replace(tiny_cfg, depth=2), RngStream(0, 1))
    x = np_rng.normal(size=(1, 5, 8, 8)).astype(np.float32)
    model.blocks[1].mlp.fc1.w.like(x)[0, 0] = np.nan     # the float32 copy only
    for mode in (MODE_DETERMINISTIC, MODE_STOCHASTIC):
        with pytest.raises(NonFiniteActivation, match="'blocks.1'"):
            model.forward(x, mode, RngStream(1))


@pytest.mark.parametrize("head", ["image", "scalar"])
def test_nan_at_either_end_names_that_stage(tiny_cfg, np_rng, head):
    model = VisionTransformer(dataclasses.replace(tiny_cfg, head=head), RngStream(0, 1))
    x = np_rng.normal(size=(1, 5, 8, 8)).astype(np.float32)
    out = model.decode.proj if head == "image" else model.score
    out.b.like(x)[0] = np.nan
    with pytest.raises(NonFiniteActivation, match="'head'"):
        model.forward(x, MODE_DETERMINISTIC)
    model.pos.like(x)[0, 0] = np.nan
    with pytest.raises(NonFiniteActivation, match="'embed\\+pos'"):
        model.forward(x, MODE_DETERMINISTIC)


def _f32(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


def test_every_layer_stays_float32_on_the_sampling_path(np_rng):
    r = RngStream(3, 1)
    emb = PatchEmbed(8, 8, 3, 5, 8, RngStream(1))
    tokens = _f32(np_rng, 2, 9, 8)
    e, sums = softmax(tokens.copy())
    outputs = {
        "affine": Affine(8, 4, RngStream(0)).forward(tokens),
        "layernorm": LayerNorm(8).forward(*normalize(tokens)),
        "gelu": Gelu().forward(tokens),
        "dropout": Dropout(0.3).forward(tokens, True, r),
        "softmax": e,
        "softmax sums": sums,
        "mhsa": MultiHeadSelfAttention(8, 2, 0.1, RngStream(2)).forward(tokens, True, r),
        "mlp": Mlp(8, 16, 0.1, RngStream(2)).forward(tokens, True, r),
        "block": Block(8, 2, 2.0, 0.1, RngStream(2)).forward(tokens, True, r),
        "patch_embed": emb.forward(_f32(np_rng, 2, 5, 8, 8)),
        "patch_decode": PatchDecode(emb, 4, 8, RngStream(4)).forward(tokens),
    }
    for head in ("image", "scalar"):
        cfg = ModelConfig(height=8, width=8, patch_size=3, in_channels=5,
                          out_channels=4, embed_dim=8, depth=2, n_heads=2,
                          mlp_ratio=2.0, dropout_p=0.1, head=head)
        model = VisionTransformer(cfg, RngStream(0, 1))
        x = _f32(np_rng, 2, 5, 8, 8)
        z = model.pos_drop.forward(model.embed.forward(x) + model.pos.like(x), True, r)
        outputs[f"{head}:embed+pos"] = z
        for i, blk in enumerate(model.blocks):
            z = outputs[f"{head}:blocks.{i}"] = blk.forward(z, True, r)
        outputs[f"{head}:head"] = model.forward(x, MODE_STOCHASTIC, RngStream(9))
    for name, y in outputs.items():
        assert y.dtype == np.float32, name


def test_float32_forward_matches_float64_to_float32_rounding(tiny_model, np_rng):
    x = np_rng.normal(size=(2, 5, 8, 8))
    for mode in (MODE_DETERMINISTIC, MODE_STOCHASTIC):
        y64 = tiny_model.forward(x, mode, RngStream(4, 2))
        y32 = tiny_model.forward(x.astype(np.float32), mode, RngStream(4, 2))
        assert y32.dtype == np.float32
        assert np.max(np.abs(y32 - y64)) <= 64 * np.finfo(np.float32).eps * np.max(np.abs(y64))


def test_load_values_refuses_other_names_or_shapes(tiny_model):
    store = tiny_model.param_store()
    before = store.values_copy()
    missing = dict(before)
    missing.pop("pos")
    renamed = {**missing, "posx": before["pos"]}
    for values, match in [(missing, r"names do not match the model's: \['pos'\]"),
                          (renamed, r"\['pos', 'posx'\]"),
                          ({**before, "pos": before["pos"].T}, "parameter pos has shape"),
                          ({**before, "pos": before["pos"][:1]}, "parameter pos has shape")]:
        with pytest.raises(ValueError, match=match):
            store.load_values(values)
    for name, value in store.values_copy().items():     # nothing was loaded
        assert np.array_equal(value, before[name]), name


def test_float32_copy_follows_adamw_step_and_load_values(tiny_model, np_rng):
    store = tiny_model.param_store()
    x = np_rng.normal(size=(1, 5, 8, 8))

    def both():
        return (tiny_model.forward(x.astype(np.float32), MODE_DETERMINISTIC),
                tiny_model.forward(x, MODE_DETERMINISTIC).astype(np.float32))

    y32, _ = both()                                   # builds the float32 copies
    tiny_model.forward(x, MODE_TRAIN, RngStream(1))
    store.zero_grad()
    tiny_model.backward(np.ones((1, 4, 8, 8)))
    AdamW(lr=1e-2).step(store)
    after32, after64 = both()
    assert not np.array_equal(after32, y32)
    assert np.allclose(after32, after64, rtol=1e-4, atol=1e-5)
    old = store.values_copy()
    store.load_values({k: v * 0.5 for k, v in old.items()})
    halved32, halved64 = both()
    assert np.allclose(halved32, halved64, rtol=1e-4, atol=1e-5)
    assert not np.allclose(halved32, after32, rtol=1e-4, atol=1e-5)


def _train_grads(model, x, dy):
    """Parameter gradients of one train-mode forward and backward."""
    store = model.param_store()
    store.zero_grad()
    model.forward(x, MODE_TRAIN, RngStream(6, 2))
    model.backward(dy)
    return {name: p.grad.copy() for name, p in store.params.items()}


def _head_model(tiny_cfg, head):
    return VisionTransformer(dataclasses.replace(tiny_cfg, depth=2, head=head),
                             RngStream(0, 1))


@pytest.mark.parametrize("head", ["image", "scalar"])
def test_float32_train_accumulates_float64_gradients(tiny_cfg, np_rng, head):
    model = _head_model(tiny_cfg, head)
    x = _f32(np_rng, 3, 5, 8, 8)
    dy = np_rng.normal(size=(3, 4, 8, 8) if head == "image" else (3,))
    store = model.param_store()
    store.zero_grad()
    assert model.forward(x, MODE_TRAIN, RngStream(6, 2)).dtype == np.float32
    dx = model.backward(dy)                         # float64 dy, float32 forward
    assert dx.dtype == np.float32
    for name, p in store.params.items():
        assert p.value.dtype == p.grad.dtype == np.float64, name
        assert np.all(np.isfinite(p.grad)) and np.any(p.grad != 0.0), name
    opt = AdamW(lr=1e-3)
    opt.step(store)
    for name, p in store.params.items():
        assert opt.m[name].dtype == opt.v[name].dtype == p.value.dtype == np.float64, name


@pytest.mark.parametrize("head", ["image", "scalar"])
def test_float32_gradient_norms_match_float64(tiny_cfg, np_rng, head):
    model = _head_model(tiny_cfg, head)
    x = np_rng.normal(size=(3, 5, 8, 8))
    dy = np_rng.normal(size=(3, 4, 8, 8) if head == "image" else (3,))
    g64 = _train_grads(model, x, dy)
    g32 = _train_grads(model, x.astype(np.float32), dy)
    for name, g in g64.items():
        assert np.linalg.norm(g32[name]) == pytest.approx(np.linalg.norm(g), rel=1e-4), name


# ---------------------------------------------------------------------------
# patch embedding / decoding


@pytest.mark.parametrize("hw,p,n_expected", [((6, 6), 3, 4), ((64, 64), 7, 100),
                                             ((8, 10), 5, 4)])
def test_patch_count(hw, p, n_expected):
    e = PatchEmbed(hw[0], hw[1], p, 2, 4, RngStream(0))
    assert e.n_tokens == n_expected
    x = np.random.default_rng(0).normal(size=(1, 2, *hw))
    assert e.forward(x).shape == (1, n_expected, 4)


@pytest.mark.parametrize("h,w,p", [(64, 64, 5), (16, 16, 3), (128, 128, 5), (16, 16, 7),
                                   (24, 8, 3), (9, 10, 3), (10, 9, 5), (2, 3, 5)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_patchify_equals_the_patches_of_a_wrap_pad(h, w, p, dtype):
    """Bit for bit the patches of ``np.pad(mode="wrap")``, on square and
    non-square grids, and where the pad is wider than the grid."""
    e = PatchEmbed(h, w, p, 3, 4, RngStream(0))
    x = np.random.default_rng(h * w + p).normal(size=(2, 3, h, w)).astype(dtype)
    xp = np.pad(x, ((0, 0), (0, 0), (0, e.hp - h), (0, e.wp - w)), mode="wrap")
    want = xp.reshape(2, 3, e.nh, p, e.nw, p).transpose(0, 2, 4, 1, 3, 5)
    got = e.patchify(x)
    assert got.dtype == dtype
    assert got.tobytes() == want.reshape(2, e.n_tokens, 3 * p * p).tobytes()


def test_constant_image_gives_identical_patch_embeddings():
    e = PatchEmbed(10, 10, 3, 4, 6, RngStream(1))
    x = np.full((1, 4, 10, 10), 2.5)
    tok = e.forward(x)
    assert np.max(np.abs(tok - tok[:, :1])) < 1e-12


def test_patch_roundtrip_with_identity_kernels():
    h, w, p, c = 10, 14, 3, 2
    d = c * p * p
    e = PatchEmbed(h, w, p, c, d, RngStream(2))
    e.proj.w.value[...] = np.eye(d)
    e.proj.b.value[...] = 0.0
    dec = PatchDecode(e, c, d, RngStream(3))
    dec.proj.w.value[...] = np.eye(d)
    dec.proj.b.value[...] = 0.0
    x = np.random.default_rng(3).normal(size=(2, c, h, w))
    assert np.array_equal(dec.forward(e.forward(x)), x)


@pytest.mark.parametrize("h,w,p", [(2, 3, 5), (64, 64, 5)], ids=["wide-pad", "desk"])
def test_patch_embed_backward_is_the_adjoint_of_patchify(h, w, p):
    """<patchify(x), g> == <x, backward(g)> in float64, through an identity
    projection; the pad of the 2x3 grid is wider than the grid."""
    rng = np.random.default_rng(h * w + p)
    d = 2 * p * p
    e = PatchEmbed(h, w, p, 2, d, RngStream(4))
    e.proj.w.value[...] = np.eye(d)
    e.proj.b.value[...] = 0.0
    x = rng.normal(size=(2, 2, h, w))
    g = rng.normal(size=(2, e.n_tokens, d))
    patches = e.forward(x)
    assert np.array_equal(patches, e.patchify(x))
    dx = e.backward(g)
    assert dx.shape == x.shape and dx.dtype == np.float64
    assert np.sum(x * dx) == pytest.approx(np.sum(patches * g), rel=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_patch_embed_grads_with_circular_pad(seed):
    rng = np.random.default_rng(300 + seed)
    e = PatchEmbed(5, 7, 3, 2, 4, RngStream(seed, 9))
    x = rng.normal(size=(2, 2, 5, 7))
    w = rng.normal(size=(2, e.n_tokens, 4))

    def loss():
        return float(np.sum(e.forward(x) * w))

    loss()
    dx = e.backward(w)
    assert fd.check_param_grads(loss, _store(e), rng) < fd.REL_TOL
    assert fd.check_input_grad(loss, x, dx, rng, n_samples=20) < fd.REL_TOL


# ---------------------------------------------------------------------------
# optimizer


def _scalar_adamw_reference(w0, grad_fn, lr, steps, betas=(0.9, 0.999), eps=1e-8):
    """Independent plain-float AdamW for cross-checking the vector one."""
    w, m, v = w0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = betas[0] * m + (1 - betas[0]) * g
        v = betas[1] * v + (1 - betas[1]) * g * g
        mh = m / (1 - betas[0] ** t)
        vh = v / (1 - betas[1] ** t)
        w -= lr * mh / (vh ** 0.5 + eps)
    return w


def test_adamw_zero_grad_is_noop():
    p = Param(np.array([1.0, -2.0]))
    store = ParamStore([("w", p)])
    AdamW(lr=0.1, weight_decay=0.0).step(store)
    assert np.array_equal(p.value, [1.0, -2.0])


def test_adamw_descends_quadratic():
    p = Param(np.array([1.0]))
    store = ParamStore([("w", p)])
    p.grad[...] = p.value            # grad of 0.5 w^2
    AdamW(lr=0.1).step(store)
    assert p.value[0] < 1.0


def test_adamw_quadratic_bowl_converges_and_matches_reference():
    p = Param(np.array([1.0]))
    store = ParamStore([("w", p)])
    opt = AdamW(lr=0.05)
    hit = None
    for step in range(500):
        p.grad[...] = p.value
        opt.step(store)
        if hit is None and abs(p.value[0]) < 1e-3:
            hit = step + 1
    assert hit is not None and hit <= 500
    ref = _scalar_adamw_reference(1.0, lambda w: w, lr=0.05, steps=500)
    assert abs(p.value[0] - ref) < 1e-12
    assert opt.t == 500


def test_adamw_decoupled_weight_decay_shrinks_without_grad_path():
    p = Param(np.array([2.0]))
    store = ParamStore([("w", p)])
    p.grad[...] = 0.0
    AdamW(lr=0.1, weight_decay=0.5).step(store)
    assert p.value[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def test_adamw_nonfinite_gradient_reports_name():
    p1, p2 = Param(np.zeros(2)), Param(np.zeros(2))
    store = ParamStore([("ok", p1), ("bad.w", p2)])
    p2.grad[0] = np.nan
    opt = AdamW(lr=0.1)
    with pytest.raises(NonFiniteGradient, match="bad.w"):
        opt.step(store)
    assert opt.t == 0 and np.all(p1.value == 0.0)


# ---------------------------------------------------------------------------
# full tiny model


def test_full_model_gradcheck(tiny_model, np_rng):
    # train mode with dropout active: every loss call replays the same masks
    assert tiny_model.cfg.dropout_p > 0.0
    store = tiny_model.param_store()
    x = np_rng.normal(size=(2, 5, 8, 8))
    w = np_rng.normal(size=(2, 4, 8, 8))

    def loss():
        return float(np.sum(tiny_model.forward(x, MODE_TRAIN, RngStream(6, 2)) * w))

    loss()
    store.zero_grad()
    tiny_model.forward(x, MODE_TRAIN, RngStream(6, 2))
    tiny_model.backward(w)
    assert fd.check_param_grads(loss, store, np_rng, max_per_tensor=4) < fd.REL_TOL


def _cached_arrays(obj, path="model"):
    """Paths of every ndarray a layer of the model holds outside its Params."""
    found = []
    for name, v in vars(obj).items():
        where = f"{path}.{name}"
        items = v if isinstance(v, (list, tuple)) else [v]
        for item in items:
            if isinstance(item, np.ndarray):
                found.append(where)
            elif type(item).__module__.startswith("pdettc.") and hasattr(item, "__dict__"):
                found += _cached_arrays(item, where)
    return found


@pytest.mark.parametrize("head", ["image", "scalar"])
def test_inference_forwards_keep_no_layer_cache(tiny_cfg, np_rng, head):
    model = _head_model(tiny_cfg, head)
    x = _f32(np_rng, 2, 5, 8, 8)
    model.forward(x, MODE_TRAIN, RngStream(6, 2))
    assert len(_cached_arrays(model)) > 20         # the walk sees the train caches
    for mode in (MODE_STOCHASTIC, MODE_DETERMINISTIC):
        model.forward(x, mode, RngStream(6, 2))
        assert _cached_arrays(model) == [], mode


def test_backward_after_an_inference_forward_raises(tiny_model, np_rng):
    x = np_rng.normal(size=(1, 5, 8, 8))
    dy = np.ones((1, 4, 8, 8))
    for mode in (MODE_STOCHASTIC, MODE_DETERMINISTIC):
        tiny_model.forward(x, MODE_TRAIN, RngStream(1))
        tiny_model.forward(x, mode, RngStream(1))
        with pytest.raises(RuntimeError, match="MODE_TRAIN forward"):
            tiny_model.backward(dy)
    tiny_model.forward(x, MODE_TRAIN, RngStream(1))
    tiny_model.backward(dy)
    with pytest.raises(RuntimeError, match="MODE_TRAIN forward"):
        tiny_model.backward(dy)                     # its caches are released


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_inference_forward_equals_the_train_forward_bitwise(tiny_model, np_rng, dtype):
    # in-place inference kernels do the train forward's arithmetic, and leave x alone
    x = np_rng.normal(size=(2, 5, 8, 8)).astype(dtype)
    x0 = x.copy()
    train = tiny_model.forward(x, MODE_TRAIN, RngStream(4, 2))
    stoch = tiny_model.forward(x, MODE_STOCHASTIC, RngStream(4, 2))
    assert np.array_equal(train, stoch)
    det = tiny_model.forward(x, MODE_DETERMINISTIC)
    off = dataclasses.replace(tiny_model.cfg, dropout_p=0.0)
    twin = VisionTransformer(off, RngStream(0, 1))
    assert np.array_equal(twin.forward(x, MODE_TRAIN), det)
    assert np.array_equal(x, x0)


def _two_norm_forward(blk, x, active, rng, train):
    """The reference block forward: each norm normalises x on its own."""
    y = blk.attn.forward(blk.ln1.forward(*normalize(x), train), active, rng, train)
    y += x
    y += blk.mlp.forward(blk.ln2.forward(*normalize(x), train), active, rng, train)
    return y


def _two_norm_backward(blk, dy):
    dx = dy.copy()
    dx += blk.ln1.backward(blk.attn.backward(dy))
    dx += blk.ln2.backward(blk.mlp.backward(dy))
    return dx


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_block_with_shared_norm_statistics_equals_two_independent_norms(np_rng, dtype,
                                                                        train):
    blk, ref = (Block(8, 2, 2.0, 0.3, RngStream(7, 2)) for _ in range(2))
    scale_shift = np_rng.normal(size=(4, 8))      # the two norms' g and b differ
    for b in (blk, ref):
        for p, v in zip((b.ln1.g, b.ln1.b, b.ln2.g, b.ln2.b), scale_shift):
            p.value[...] = v
            p.changed()
    x = np_rng.normal(size=(2, 9, 8)).astype(dtype)
    x0 = x.copy()
    y = blk.forward(x, True, RngStream(5, 1), train)
    y_ref = _two_norm_forward(ref, x, True, RngStream(5, 1), train)
    assert y.dtype == dtype and y.tobytes() == y_ref.tobytes()
    assert np.array_equal(x, x0)
    if not train:
        return
    assert np.any(blk.attn.attn_drop._mask == 0) and np.any(blk.mlp.drop1._mask == 0)
    store, ref_store = _store(blk), _store(ref)
    store.zero_grad(), ref_store.zero_grad()
    dy = np_rng.normal(size=y.shape).astype(dtype)
    assert blk.backward(dy).tobytes() == _two_norm_backward(ref, dy).tobytes()
    for name in store.names():
        assert store[name].grad.tobytes() == ref_store[name].grad.tobytes(), name


def test_a_block_normalises_its_input_once(monkeypatch, np_rng):
    seen = []
    normalize_once = nn.normalize

    def record(x):
        seen.append(x)
        return normalize_once(x)

    monkeypatch.setattr(nn, "normalize", record)
    blk = Block(8, 2, 2.0, 0.1, RngStream(2))
    x = _f32(np_rng, 2, 9, 8)
    for train in (True, False):
        seen.clear()
        blk.forward(x, True, RngStream(1), train)
        assert len(seen) == 1 and seen[0] is x, train


def test_model_output_shape_matches_input_grid():
    for h, w, p in [(8, 8, 3), (9, 12, 5), (10, 10, 7)]:
        cfg = ModelConfig(height=h, width=w, patch_size=p, in_channels=5,
                          out_channels=4, embed_dim=8, depth=1, n_heads=2,
                          mlp_ratio=2.0, dropout_p=0.0)
        model = VisionTransformer(cfg, RngStream(0, 4))
        y = model.forward(np.zeros((1, 5, h, w)), MODE_DETERMINISTIC)
        assert y.shape == (1, 4, h, w)


def test_micro_batch_is_the_most_samples_whose_attention_scores_fit_in_l2():
    from pdettc.surrogate import DESK_MODEL, PAPER_MODEL
    desk = VisionTransformer(DESK_MODEL, RngStream(0, 4))
    assert desk.n_tokens == 169 and desk.micro_batch == 4      # 4 * 4 * 169**2 B each
    paper = dataclasses.replace(PAPER_MODEL, depth=1, embed_dim=8)  # same tokens, heads
    assert VisionTransformer(paper, RngStream(0, 4)).micro_batch == 1
    tiny = ModelConfig(height=8, width=8, patch_size=3, embed_dim=8, depth=1, n_heads=2)
    assert VisionTransformer(tiny, RngStream(0, 4)).micro_batch == L2_BYTES // (4 * 2 * 9 ** 2)


def test_even_patch_size_rejected():
    with pytest.raises(ValueError, match="odd"):
        ModelConfig(patch_size=4)
