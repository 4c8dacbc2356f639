"""Connection-sensitivity saliency and top-k masking."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_gradient
from sparselab import nn
from sparselab.exceptions import ConfigError
from sparselab.models import ModelSpec, build_model
from sparselab.optim import OptimizerConfig, OptimizerState, step
from sparselab.prune import Mask, apply_mask, connection_sensitivity, topk_mask


def small_batch(model_spec, n=16, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, *model_spec.input_shape))
    y = rng.integers(0, model_spec.classes, size=n)
    return x, y


def test_zero_weights_give_zero_saliency():
    model = build_model(ModelSpec("simple-mlp", (4,), (3,), 2, seed=0))
    model.params[...] = 0.0
    x, y = small_batch(model.spec)
    saliency = connection_sensitivity(model, x, y)
    assert np.all(saliency == 0.0)


def test_saliency_matches_weight_gradient_products_from_finite_differences():
    model = build_model(ModelSpec("simple-mlp", (2,), (), 2, seed=1))
    x, y = small_batch(model.spec, n=8, seed=2)
    saliency = connection_sensitivity(model, x, y)
    scores = np.abs(fd_gradient(model, x, y) * model.params)
    np.testing.assert_allclose(saliency, scores / scores.sum(), atol=1e-7)


def test_saliency_sums_to_one_when_nonzero():
    model = build_model(ModelSpec("simple-mlp", (5,), (4,), 3, seed=3))
    x, y = small_batch(model.spec, seed=4)
    assert connection_sensitivity(model, x, y).sum() == pytest.approx(1.0)


def test_saliency_requires_unpruned_model():
    model = build_model(ModelSpec("simple-mlp", (4,), (3,), 2, seed=0))
    apply_mask(model, topk_mask(np.random.default_rng(0).random(model.param_count), 0.5))
    x, y = small_batch(model.spec)
    with pytest.raises(ConfigError):
        connection_sensitivity(model, x, y)


def test_topk_zero_sparsity_keeps_everything():
    mask = topk_mask(np.random.default_rng(1).random(100), 0.0)
    assert mask.kept == 100


def test_topk_ninety_percent_of_hundred_keeps_ten():
    mask = topk_mask(np.random.default_rng(2).random(100), 0.9)
    assert mask.kept == 10


def test_topk_selects_highest_scores():
    mask = topk_mask(np.array([0.4, 0.3, 0.2, 0.1]), 0.5)
    assert np.array_equal(mask.bits, [1.0, 1.0, 0.0, 0.0])


def test_topk_ties_break_to_lower_index():
    mask = topk_mask(np.array([0.5, 0.5, 0.5, 0.5]), 0.5)
    assert np.array_equal(mask.bits, [1.0, 1.0, 0.0, 0.0])


@given(st.integers(min_value=1, max_value=2000),
       st.floats(min_value=0.0, max_value=0.999))
@settings(max_examples=80, deadline=None)
def test_topk_exact_kept_count(m, sparsity):
    saliency = np.random.default_rng(m).random(m)
    mask = topk_mask(saliency, sparsity)
    assert mask.kept == m - math.floor(sparsity * m)


def test_topk_against_brute_force_sort_oracle():
    rng = np.random.default_rng(7)
    for m in (10, 1000, 10000):
        saliency = rng.random(m)
        for s in (0.3, 0.5, 0.9):
            mask = topk_mask(saliency, s)
            keep = m - math.floor(s * m)
            oracle = sorted(range(m), key=lambda i: (-saliency[i], i))[:keep]
            assert set(np.flatnonzero(mask.bits)) == set(oracle)
            if 0 < keep < m:
                assert saliency[mask.bits == 1.0].min() >= \
                    saliency[mask.bits == 0.0].max()


def test_apply_mask_zeroes_and_is_idempotent():
    model = build_model(ModelSpec("simple-mlp", (6,), (5,), 3, seed=8))
    x, y = small_batch(model.spec, seed=9)
    saliency = connection_sensitivity(model, x, y)
    mask = topk_mask(saliency, 0.7)
    apply_mask(model, mask)
    assert np.array_equal(model.mask, mask.bits)
    first = model.params.copy()
    apply_mask(model, mask)
    assert np.array_equal(first, model.params)
    assert np.all(model.params[mask.bits == 0.0] == 0.0)


def test_all_ones_mask_leaves_parameters_unchanged():
    model = build_model(ModelSpec("simple-mlp", (6,), (5,), 3, seed=8))
    before = model.params.copy()
    apply_mask(model, Mask(np.ones(model.param_count)))
    assert np.array_equal(before, model.params)


def test_mask_length_mismatch_rejected():
    model = build_model(ModelSpec("simple-mlp", (6,), (5,), 3, seed=8))
    with pytest.raises(ConfigError):
        apply_mask(model, Mask(np.ones(3)))


@pytest.mark.parametrize("algo", ["sgd", "momentum", "nesterov"])
def test_pruned_zero_count_stable_over_fifty_training_steps(algo):
    model = build_model(ModelSpec("simple-mlp", (6,), (8,), 3, seed=10))
    x, y = small_batch(model.spec, n=32, seed=11)
    saliency = connection_sensitivity(model, x, y)
    mask = topk_mask(saliency, 0.6)
    apply_mask(model, mask)
    pruned_count = model.param_count - mask.kept
    config = OptimizerConfig(algo, 0.05, momentum_coeff=0.9)
    state = OptimizerState.fresh(model.param_count)
    rng = np.random.default_rng(12)
    for _ in range(50):
        idx = rng.choice(32, size=8, replace=False)
        _, _, grad = nn.batch_gradient(model, x[idx], y[idx])
        step(model, grad, config, state)
    # after training, the only exact zeros left are the pruned coordinates
    assert int((model.params == 0.0).sum()) == pruned_count
    assert np.all(model.params[mask.bits == 0.0] == 0.0)


def test_invalid_sparsity_rejected():
    with pytest.raises(ConfigError):
        topk_mask(np.ones(10), 1.0)
    with pytest.raises(ConfigError):
        topk_mask(np.ones(10), -0.1)
