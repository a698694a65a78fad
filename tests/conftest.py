import numpy as np
import pytest

from fairavi import layers as ly
from fairavi.data import GeneratorConfig, generate_synthetic, split_group_disjoint
from fairavi.model import ModelDims

TINY_SEQ = {"language": 3, "audio": 4, "video": 3}
TINY_DIM = {"language": 3, "audio": 4, "video": 2}


def tiny_generator_config(**overrides) -> GeneratorConfig:
    # 160 samples leaves every split with enough candidates for k=5 sampling
    base = dict(n=160, seq_len=dict(TINY_SEQ), feat_dim=dict(TINY_DIM),
                skill_scale=3.0, noise_scale=0.2, seed=11)
    base.update(overrides)
    return GeneratorConfig(**base)


def tiny_dims() -> ModelDims:
    return ModelDims(input_dims=dict(TINY_DIM), gru_width=4, att_proj=3,
                     trunk_width=4, adv_hidden=3, ns_hidden=4)


# one layer's part of model.param_shapes, in the model's draw order
LAYER_SHAPES = {
    ly.DenseParams: lambda n_out, n_in: {"W": (n_out, n_in), "b": (n_out,)},
    ly.GruParams: lambda h, d: {**{f"W_{g}": (h, d) for g in "rzh"},
                                **{f"U_{g}": (h, h) for g in "rzh"},
                                **{f"b_{g}": (h,) for g in "rzh"}},
    ly.AttentionParams: lambda proj, n_in: {"W_A": (proj, n_in), "b": (proj,), "u_p": (proj,)},
    ly.GmuParams: lambda w: {**{f"W_{x}proj": (w, w) for x in "alv"},
                             **{f"W_{x}gating": (1, 3 * w) for x in "alv"}},
}


def layer_params(rng, cls, *dims, **extra):
    """A layer's parameters drawn as the model draws them (layers.draw)."""
    return cls(**ly.draw(rng, LAYER_SHAPES[cls](*dims)), **extra)


@pytest.fixture
def tiny_dataset():
    samples = generate_synthetic(tiny_generator_config())
    split_group_disjoint(samples, seed=3)
    return samples


@pytest.fixture
def rng():
    return np.random.default_rng(0)
