import numpy as np
import pytest

from pdettc.nn import PatchEmbed
from pdettc.rng import RngStream
from pdettc.surrogate import Model
from pdettc.vit import ModelConfig, VisionTransformer


@pytest.fixture
def tiny_cfg():
    return ModelConfig(height=8, width=8, patch_size=3, in_channels=5,
                       out_channels=4, embed_dim=8, depth=1, n_heads=2,
                       mlp_ratio=2.0, dropout_p=0.1)


@pytest.fixture
def tiny_model(tiny_cfg):
    return VisionTransformer(tiny_cfg, RngStream(0, 1))


@pytest.fixture
def np_rng():
    return np.random.default_rng(1234)


@pytest.fixture
def forward_sizes(monkeypatch):
    """(mode, batch size, micro_batch) of every VisionTransformer.forward
    call made while the test runs."""
    sizes = []
    forward = VisionTransformer.forward

    def record(self, x, mode, rng=None):
        sizes.append((mode, len(x), self.micro_batch))
        return forward(self, x, mode, rng)

    monkeypatch.setattr(VisionTransformer, "forward", record)
    return sizes


@pytest.fixture
def input_sizes(monkeypatch):
    """The batch size of every `Model.inputs` call made while the test
    runs."""
    sizes = []
    inputs = Model.inputs

    def record(self, *pairs):
        sizes.append(len(pairs[0][0]))
        return inputs(self, *pairs)

    monkeypatch.setattr(Model, "inputs", record)
    return sizes


@pytest.fixture
def embed_sizes(monkeypatch):
    """The batch size of every `PatchEmbed.forward` call made while the
    test runs: one per image batch the model embeds."""
    sizes = []
    forward = PatchEmbed.forward

    def record(self, x, train=True):
        sizes.append(len(x))
        return forward(self, x, train)

    monkeypatch.setattr(PatchEmbed, "forward", record)
    return sizes
