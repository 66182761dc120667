"""The benchmark's per-layer rows keep reading the sampling path.

perfbench binds its per-layer rows to pdettc callables by name and reads
counts off their calls, so a change that moves work between callables
can leave a row reading nothing.  These tests run perfbench/tracing.py
around a 16x16 rollout sweep and a triplet build, and change nothing in
it.  They check that the candidates drawn, the embeddings made (one per
step) and the norms applied (two per block and candidate, on statistics
computed once per block) are counted where the benchmark counts them.
The traced calls are looked up through their modules, where the tracer
wraps them.
"""

import importlib.util
from pathlib import Path

import pytest

from pdettc import rewards, ttc
from pdettc.euler import GridSpec, generate_dataset
from pdettc.surrogate import Surrogate
from pdettc.vit import ModelConfig

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

DEPTH = 2
N_STEPS = 3
B_LIST = (1, 4)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(["rp"], 2, GridSpec(16, 16), seed=31,
                            split_fractions=(0.5, 0.0, 0.5))


@pytest.fixture(scope="module")
def surrogate(dataset):
    cfg = ModelConfig(height=16, width=16, patch_size=3, in_channels=5,
                      out_channels=4, embed_dim=16, depth=DEPTH, n_heads=2,
                      mlp_ratio=2.0, dropout_p=0.1)
    return Surrogate(cfg, dataset.normalization, init_seed=4)


def test_a_traced_rollout_sweep_counts_its_candidates_and_one_embedding_per_step(
        surrogate, dataset):
    trajectories = dataset.trajectories
    with tracing.Tracer() as tracer:
        records = list(ttc.rollout_sweep(surrogate, trajectories, B_LIST,
                                         ttc.TTCConfig(reward="arm_mass", n_steps=N_STEPS),
                                         gamma=dataset.gamma))
    assert len(records) == len(trajectories) * len(B_LIST)
    m, calls = tracing.layer_metrics(tracer), tracer.stats()
    steps = len(trajectories) * len(B_LIST) * N_STEPS
    drawn = len(trajectories) * sum(B_LIST) * N_STEPS
    assert m["surrogate.Surrogate.sample_candidates.candidates"] == drawn
    assert m["vit.VisionTransformer.forward.stochastic_infer.samples"] == drawn
    assert calls["nn.PatchEmbed.forward"][0] == steps
    assert calls["nn.normalize"][0] == DEPTH * drawn
    assert calls["nn.LayerNorm.forward"][0] == 2 * DEPTH * drawn
    assert m["nn.PatchEmbed.forward.self_s"] > 0.0
    assert m["nn.LayerNorm.forward.self_s"] > 0.0
    assert m["ttc.sample_s"] > 0.0


def test_a_traced_triplet_build_embeds_once_per_step(surrogate, dataset):
    with tracing.Tracer() as tracer:
        triplets = rewards.build_prm_triplets(surrogate, dataset, 3, seed=2)
    m, calls = tracing.layer_metrics(tracer), tracer.stats()
    steps = sum(len(dataset.trajectories[ti]) - 1 for ti in dataset.split["train"])
    assert m["rewards.build_prm_triplets.records"] == len(triplets) > 0
    assert m["vit.VisionTransformer.forward.stochastic_infer.samples"] == 3 * steps
    assert calls["nn.PatchEmbed.forward"][0] == steps
    assert calls["nn.LayerNorm.forward"][0] == 2 * DEPTH * 3 * steps
