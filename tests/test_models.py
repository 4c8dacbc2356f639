"""Architecture construction: determinism, counts, init statistics."""

import numpy as np
import pytest

from sparselab.exceptions import ConfigError
from sparselab.models import ModelSpec, build_model


def test_same_spec_same_seed_is_bitwise_identical():
    spec = ModelSpec("simple-mlp", (20,), (16,), 4, seed=42)
    assert np.array_equal(build_model(spec).params, build_model(spec).params)


def test_different_seed_differs():
    a = build_model(ModelSpec("simple-mlp", (20,), (16,), 4, seed=1))
    b = build_model(ModelSpec("simple-mlp", (20,), (16,), 4, seed=2))
    assert not np.array_equal(a.params, b.params)


def test_mlp_parameter_count_arithmetic():
    # 784-32-10 chain with biases: 784*32 + 32 + 32*10 + 10 = 25450
    model = build_model(ModelSpec("simple-mlp", (784,), (32,), 10, seed=0))
    assert model.param_count == 784 * 32 + 32 + 32 * 10 + 10 == 25450


def test_cnn_parameter_count_arithmetic():
    model = build_model(ModelSpec("cnn-lite", (8, 8, 1), (4, 6), 10, seed=0))
    expected = (3 * 3 * 1 * 4 + 4) + (3 * 3 * 4 * 6 + 6) + (6 * 10 + 10)
    assert model.param_count == expected


def test_fresh_model_mask_is_all_ones():
    model = build_model(ModelSpec("simple-mlp", (10,), (5,), 3, seed=0))
    assert model.mask.sum() == model.param_count
    assert np.all(model.mask == 1.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_he_uniform_variance_on_large_layer(seed):
    # U(-a, a) with a = sqrt(6/fan_in) has variance 2/fan_in.
    model = build_model(ModelSpec("simple-mlp", (784,), (32,), 10, seed=seed))
    weight, _ = model.param_views()[0]
    assert weight.size >= 1000
    target = 2.0 / 784
    assert abs(weight.var() / target - 1.0) < 0.1


@pytest.mark.parametrize("spec", [
    ModelSpec("simple-mlp", (6, 2), (12, 8), 4, seed=3),
    ModelSpec("cnn-lite", (6, 6, 2), (3, 4), 5, seed=7),
], ids=["simple-mlp", "cnn-lite"])
def test_init_bytes_match_an_independent_he_uniform_construction(spec):
    # per weighted layer in order: (fan_in, units), fan_in = n_in for an
    # affine layer and 9 * c_in for a 3x3 conv; one U(+-sqrt(6/fan_in))
    # draw of its weight from a single generator, then a zero bias
    if spec.arch == "simple-mlp":
        dims = [int(np.prod(spec.input_shape)), *spec.widths, spec.classes]
        layers = list(zip(dims, dims[1:]))
    else:
        c, (c1, c2) = spec.input_shape[-1], spec.widths
        layers = [(9 * c, c1), (9 * c1, c2), (c2, spec.classes)]
    rng = np.random.default_rng(spec.seed)
    blocks = []
    for fan_in, units in layers:
        limit = np.sqrt(6.0 / fan_in)
        blocks += [rng.uniform(-limit, limit, size=fan_in * units), np.zeros(units)]
    assert build_model(spec).params.tobytes() == np.concatenate(blocks).tobytes()


def test_biases_start_at_zero():
    model = build_model(ModelSpec("cnn-lite", (8, 8, 1), (3, 4), 5, seed=3))
    for views in model.param_views():
        if views:
            assert np.all(views[1] == 0.0)


def test_initial_loss_finite_on_valid_batch():
    from sparselab import nn
    model = build_model(ModelSpec("cnn-lite", (8, 8, 1), (2, 3), 4, seed=0))
    x = np.random.default_rng(0).normal(size=(5, 8, 8, 1))
    loss, _ = nn.loss_and_error(nn.forward(model, x)[0],
                                np.random.default_rng(1).integers(0, 4, size=5))
    assert np.isfinite(loss)


@pytest.mark.parametrize("bad", [
    dict(arch="resnet-8", input_shape=(8, 8, 1), widths=(2, 3), classes=4),
    dict(arch="simple-mlp", input_shape=(4,), widths=(0,), classes=3),
    dict(arch="simple-mlp", input_shape=(4,), widths=(3,), classes=1),
    dict(arch="cnn-lite", input_shape=(7, 8, 1), widths=(2, 3), classes=4),
    dict(arch="cnn-lite", input_shape=(8, 8, 1), widths=(2,), classes=4),
    dict(arch="cnn-lite", input_shape=(8, 8), widths=(2, 3), classes=4),
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(ConfigError):
        build_model(ModelSpec(seed=0, **bad))
