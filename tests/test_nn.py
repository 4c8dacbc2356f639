"""Forward/backward engine checks against independent oracles."""

import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from helpers import (conv_forward_by_pixel_bias, conv_input_gradient_by_patches,
                     conv_patches_by_strided_view, fd_gradient,
                     global_mean_pool_by_mean, global_mean_pool_gradient_by_broadcast,
                     max_relative_error)
from sparselab import nn
from sparselab.exceptions import ConfigError, NumericOverflow
from sparselab.models import ModelSpec, build_model
from sparselab.prune import Mask, apply_mask


def linear_model(n_in, n_out, seed=0):
    return build_model(ModelSpec("simple-mlp", (n_in,), (), n_out, seed=seed))


def test_mean_pool_equals_reshape_mean_bit_for_bit():
    # cnn-lite's pool inputs at the shipped 28x28 and 32x32 shapes, width 8
    rng = np.random.default_rng(12)
    for shape in [(2, 28, 28, 8), (64, 28, 28, 8), (7, 32, 32, 8)]:
        x = rng.normal(size=shape)
        n, h, w, c = shape
        y, _ = nn.MeanPool2x2().forward(x, [])
        assert np.array_equal(y, x.reshape(n, h // 2, 2, w // 2, 2, c).mean(axis=(2, 4)))
        d_y = rng.normal(size=y.shape)
        d_x, _ = nn.MeanPool2x2().backward(d_y, shape, [])
        assert np.array_equal(d_x, np.repeat(np.repeat(d_y, 2, axis=1), 2, axis=2) / 4.0)


@pytest.mark.parametrize("n,h,c_in,c_out,exact", [
    (2, 14, 8, 16, True), (64, 14, 8, 16, True),    # cnn-lite's conv2 at 28x28 input
    (4, 28, 1, 8, False), (4, 28, 2, 8, False), (4, 28, 3, 8, False),
])
def test_conv_matches_direct_taps_and_patch_scatter(n, h, c_in, c_out, exact):
    layer = nn.Conv3x3(c_in, c_out)
    rng = np.random.default_rng(n + c_in)
    K, b = rng.normal(size=(3, 3, c_in, c_out)), rng.normal(size=c_out)
    x = rng.normal(size=(n, h, h, c_in))
    y, cache = layer.forward(x, [K[None], b[None]])
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    taps = sum(padded[:, i:i + h, j:j + h] @ K[i, j] for i in range(3) for j in range(3))
    np.testing.assert_allclose(y, taps + b, rtol=0, atol=1e-12 * np.abs(y).max())
    d_out = rng.normal(size=y.shape)
    d_x, _ = layer.backward(d_out, cache, [K[None], b[None]])
    oracle = conv_input_gradient_by_patches(d_out, K)
    if exact:
        assert np.array_equal(d_x, oracle)
    else:     # BLAS may take a product this narrow another way, in the last bit
        assert max_relative_error(d_x, oracle) < 1e-12


@pytest.mark.parametrize("shape", [
    (3, 28, 28, 1), (3, 32, 32, 3), (3, 14, 14, 8),   # conv1 (MNIST, CIFAR-10), conv2
    (2, 4, 6, 1), (2, 4, 6, 3), (2, 4, 6, 8),         # non-square: h and w not swapped
    (1, 5, 5, 1), (1, 4, 6, 8),
])
def test_conv_patch_matrix_equals_the_strided_view_copy(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=shape)
    c_in = shape[3]
    K, b = rng.normal(size=(3, 3, c_in, 2)), rng.normal(size=2)
    _, (flat, x_shape) = nn.Conv3x3(c_in, 2).forward(x, [K[None], b[None]])
    assert x_shape == shape
    reference = conv_patches_by_strided_view(x)
    assert flat.shape == reference.shape and flat.dtype == reference.dtype
    assert flat.tobytes() == reference.tobytes()


def test_column_sums_equal_sum_byte_for_byte():
    # einsum must add the rows in sum's order: this fails on a numpy that changes it
    rng = np.random.default_rng(21)
    shapes = [(1, 1), (1, 8), (5, 1), (3000, 1), (2, 3, 1), (1, 1, 16)]
    shapes += [(int(rng.integers(1, 3000)), int(rng.integers(1, 40))) for _ in range(200)]
    shapes += [(int(rng.integers(1, 9)), int(rng.integers(1, 800)), int(rng.integers(1, 20)))
               for _ in range(100)]
    for shape in shapes:
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        a[rng.random(shape) < 0.1] = -0.0
        for layout in (a, np.asfortranarray(a), np.full(shape, -0.0)):
            assert nn._column_sums(layout).tobytes() == layout.sum(axis=-2).tobytes(), shape


@pytest.mark.parametrize("shape", [
    (2, 14, 14, 16), (64, 14, 14, 16), (100, 14, 14, 16),   # cnn-lite at 28x28 input
    (3, 14, 14, 1), (1, 4, 6, 1), (1, 4, 6, 3),
])
def test_global_mean_pool_equals_mean_and_divided_broadcast(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=shape)
    y, cache = nn.GlobalMeanPool().forward(x, [])
    assert y.tobytes() == global_mean_pool_by_mean(x).tobytes()
    d_y = rng.normal(size=y.shape)
    d_x, _ = nn.GlobalMeanPool().backward(d_y, cache, [])
    assert d_x.shape == shape and d_x.flags.writeable
    assert d_x.tobytes() == global_mean_pool_gradient_by_broadcast(d_y, shape).tobytes()


@pytest.mark.parametrize("shape,c_out", [
    ((64, 28, 28, 1), 8), ((64, 14, 14, 8), 16),            # cnn-lite's conv1 and conv2
    ((3, 28, 28, 1), 1), ((2, 4, 6, 3), 1), ((1, 5, 5, 1), 2),
])
def test_conv_bias_add_and_gradient_equal_the_per_pixel_forms(shape, c_out):
    rng = np.random.default_rng(sum(shape) + c_out)
    x = rng.normal(size=shape)
    c_in = shape[3]
    K, b = rng.normal(size=(3, 3, c_in, c_out)), rng.normal(size=c_out)
    layer = nn.Conv3x3(c_in, c_out)
    y, cache = layer.forward(x, [K[None], b[None]])
    assert y.tobytes() == conv_forward_by_pixel_bias(x, K, b).tobytes()
    d_y = rng.normal(size=y.shape)
    _, (_, d_b) = layer.backward(d_y, cache, [K[None], b[None]], False)
    assert d_b.tobytes() == d_y.reshape(-1, c_out).sum(axis=0).tobytes()


IMAGE_SPECS = [ModelSpec("cnn-lite", (28, 28, 1), (8, 16), 4, seed=3),
               ModelSpec("simple-mlp", (6, 6, 2), (5,), 3, seed=3)]


@pytest.mark.parametrize("spec", IMAGE_SPECS, ids=["cnn-lite", "image-mlp"])
def test_backward_forms_no_input_gradient_up_to_the_first_layer_with_parameters(spec):
    model = build_model(spec)
    calls = []
    for k, layer in enumerate(model.layers):
        def spy(d_out, cache, params, *rest, k=k, real=layer.backward):
            d_x, grads = real(d_out, cache, params, *rest)
            calls.append((k, d_x is not None))
            return d_x, grads
        layer.backward = spy
    first = next(k for k, layer in enumerate(model.layers) if layer.param_shapes)
    assert first == (0 if spec.arch == "cnn-lite" else 1)     # the MLP starts with Flatten
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, *spec.input_shape))
    y = rng.integers(0, spec.classes, size=5)
    for run in (lambda: nn.batch_gradient(model, x, y),
                lambda: nn.sweep(model, x, y, example_norms=True)):
        calls.clear()
        run()
        assert calls == [(k, k > first) for k in range(len(model.layers) - 1, first - 1, -1)]


@pytest.mark.parametrize("spec", IMAGE_SPECS, ids=["cnn-lite", "image-mlp"])
def test_batch_gradient_equals_a_backward_through_every_layer(spec):
    model = build_model(spec)
    bits = np.ones(model.param_count)
    bits[::4] = 0.0
    apply_mask(model, Mask(bits))
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, *spec.input_shape))
    y = rng.integers(0, spec.classes, size=5)
    _, _, grad = nn.batch_gradient(model, x, y)
    logits, cache = nn.forward(model, x)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    d = e / e.sum(axis=1, keepdims=True)
    d[np.arange(5), y] -= 1.0
    d /= 5
    d_params = []
    for layer, layer_cache, views in zip(model.layers[::-1], cache.layer_caches[::-1],
                                         cache.param_views[::-1]):
        d, layer_d = layer.backward(d, layer_cache, views)
        d_params[:0] = layer_d
    assert d.shape == x.shape
    full = np.concatenate([g.ravel() for g in d_params]) * model.mask
    assert grad.flat.tobytes() == full.tobytes()


def test_identity_linear_forward():
    model = linear_model(3, 3)
    weight, bias = model.param_views()[0]
    weight[...] = np.eye(3)
    bias[...] = 0.0
    x = np.array([[0.3, -1.2, 4.0], [1.0, 0.0, -2.5]])
    logits, _ = nn.forward(model, x)
    assert np.array_equal(logits, x)


def test_zero_weights_give_zero_logits():
    model = linear_model(5, 4)
    model.params[...] = 0.0
    logits, _ = nn.forward(model, np.random.default_rng(1).normal(size=(7, 5)))
    assert np.all(logits == 0.0)


def test_two_layer_mlp_matches_hand_unrolled_arithmetic():
    # Weights chosen small enough to multiply out on paper.
    model = build_model(ModelSpec("simple-mlp", (2,), (2,), 2, seed=0))
    views = model.param_views()
    w1, b1 = views[0]           # affine, relu, affine
    w2, b2 = views[2]
    w1[...] = [[1.0, -1.0], [2.0, 0.5]]
    b1[...] = [0.1, -0.2]
    w2[...] = [[0.3, 1.0], [-0.5, 0.25]]
    b2[...] = [0.0, 0.5]
    x = np.array([[1.0, 2.0], [-1.0, 0.5]])
    logits, _ = nn.forward(model, x)
    # row 0: relu([5.1, -0.2]) = [5.1, 0] -> [1.53, 5.6]
    # row 1: relu([0.1, 1.05]) -> [0.03 - 0.525, 0.1 + 0.2625 + 0.5]
    expected = np.array([[1.53, 5.6], [-0.495, 0.8625]])
    np.testing.assert_allclose(logits, expected, rtol=1e-12)


def test_uniform_logits_loss_is_log_num_classes():
    for c in (2, 5, 10):
        logits = np.zeros((4, c))
        loss, err = nn.loss_and_error(logits, np.zeros(4, dtype=int))
        assert math.isclose(loss, math.log(c), rel_tol=1e-12)


def test_huge_margin_correct_logits():
    logits = np.array([[1e4, 0.0, 0.0], [0.0, 1e4, 0.0]])
    loss, err = nn.loss_and_error(logits, np.array([0, 1]))
    assert err == 0.0
    assert loss == 0.0   # exp(-1e4) underflows to exactly zero


def test_loss_matches_direct_per_sample_formula():
    logits = np.array([[2.0, 0.0], [-1.0, 1.0], [0.5, 0.5]])
    targets = np.array([0, 1, 0])
    per_sample = []
    for row, t in zip(logits, targets):
        z = sum(math.exp(v) for v in row)
        per_sample.append(-math.log(math.exp(row[t]) / z))
    loss, err = nn.loss_and_error(logits, targets)
    assert math.isclose(loss, sum(per_sample) / 3, rel_tol=1e-12)
    assert err == 0.0   # the tied row argmaxes to class 0, which is the target


def test_error_rate_ties_break_to_lowest_class():
    logits = np.array([[0.5, 0.5], [0.5, 0.5]])
    _, err = nn.loss_and_error(logits, np.array([0, 1]))
    assert err == 0.5


def test_zero_loss_configuration_gives_exactly_zero_gradient():
    model = linear_model(2, 2)
    weight, bias = model.param_views()[0]
    weight[...] = [[2000.0, 0.0], [0.0, 2000.0]]
    bias[...] = 0.0
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 1])
    loss, _, grad = nn.batch_gradient(model, x, y)
    assert loss == 0.0
    assert np.all(grad.flat == 0.0)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("arch", ["simple-mlp", "cnn-lite"])
def test_gradient_matches_central_finite_differences(arch, seed):
    if arch == "simple-mlp":
        spec = ModelSpec("simple-mlp", (7,), (5,), 3, seed=seed)
        shape = (7,)
    else:
        spec = ModelSpec("cnn-lite", (8, 8, 1), (2, 3), 2, seed=seed)
        shape = (8, 8, 1)
    model = build_model(spec)
    assert model.param_count <= 200
    rng = np.random.default_rng(1000 + seed)
    x = rng.normal(size=(6, *shape))
    y = rng.integers(0, spec.classes, size=6)
    _, _, grad = nn.batch_gradient(model, x, y)
    assert max_relative_error(grad.flat, fd_gradient(model, x, y)) < 1e-5


def test_masked_gradient_entries_are_exactly_zero():
    model = build_model(ModelSpec("simple-mlp", (6,), (8,), 3, seed=4))
    bits = np.ones(model.param_count)
    bits[::3] = 0.0
    apply_mask(model, Mask(bits))
    rng = np.random.default_rng(2)
    _, _, grad = nn.batch_gradient(model, rng.normal(size=(5, 6)),
                                   rng.integers(0, 3, size=5))
    assert np.all(grad.flat[bits == 0.0] == 0.0)
    assert np.any(grad.flat[bits == 1.0] != 0.0)


def test_forward_invariant_to_values_at_masked_positions():
    model = build_model(ModelSpec("simple-mlp", (6,), (8,), 3, seed=4))
    bits = np.ones(model.param_count)
    bits[::2] = 0.0
    apply_mask(model, Mask(bits))
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 6))
    y = rng.integers(0, 3, size=4)
    clean, _ = nn.forward(model, x)
    clean_loss, clean_err, clean_grad = nn.batch_gradient(model, x, y)
    model.params[bits == 0.0] = 1e6   # garbage at pruned coordinates
    dirty, _ = nn.forward(model, x)
    assert np.array_equal(clean, dirty)
    # backward differentiates at the masked views forward cached, so the
    # garbage must not reach the gradient either
    loss, err, grad = nn.batch_gradient(model, x, y)
    assert loss == clean_loss and err == clean_err
    assert grad.flat.tobytes() == clean_grad.flat.tobytes()


def test_forward_backward_deterministic_bitwise():
    spec = ModelSpec("cnn-lite", (8, 8, 1), (2, 2), 3, seed=9)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 8, 8, 1))
    y = rng.integers(0, 3, size=4)
    m1, m2 = build_model(spec), build_model(spec)
    l1, _, g1 = nn.batch_gradient(m1, x, y)
    l2, _, g2 = nn.batch_gradient(m2, x, y)
    assert l1 == l2
    assert np.array_equal(g1.flat, g2.flat)


def test_full_gradient_single_example_equals_backward():
    model = build_model(ModelSpec("simple-mlp", (4,), (3,), 2, seed=6))
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 4))
    y = np.array([1])
    _, _, single = nn.batch_gradient(model, x, y)
    full = nn.full_gradient(model, x, y)
    np.testing.assert_allclose(full.flat, single.flat, rtol=1e-12)


def test_full_gradient_invariant_to_duplication():
    model = build_model(ModelSpec("simple-mlp", (4,), (3,), 2, seed=6))
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 4))
    y = rng.integers(0, 2, size=5)
    once = nn.full_gradient(model, x, y)
    twice = nn.full_gradient(model, np.vstack([x, x]), np.concatenate([y, y]))
    np.testing.assert_allclose(once.flat, twice.flat, atol=1e-14)


def test_full_gradient_is_weighted_mean_of_disjoint_halves():
    model = build_model(ModelSpec("simple-mlp", (4,), (3,), 2, seed=6))
    rng = np.random.default_rng(9)
    x = rng.normal(size=(10, 4))
    y = rng.integers(0, 2, size=10)
    whole = nn.full_gradient(model, x, y)
    _, _, first = nn.batch_gradient(model, x[:5], y[:5])
    _, _, second = nn.batch_gradient(model, x[5:], y[5:])
    np.testing.assert_allclose(whole.flat, (first.flat + second.flat) / 2,
                               atol=1e-14)


def test_sweep_in_chunks_equals_one_shot_forward(monkeypatch):
    monkeypatch.setattr(nn, "FULL_GRADIENT_CHUNK", 7)
    model = build_model(ModelSpec("simple-mlp", (4,), (3,), 3, seed=6))
    rng = np.random.default_rng(10)
    x = rng.normal(size=(30, 4))
    y = rng.integers(0, 3, size=30)
    loss, err, grad = nn.sweep(model, x, y)
    assert (loss, err) == nn.loss_and_error(nn.forward(model, x)[0], y)
    assert nn.sweep(model, x, y, example_norms=True)[:2] == (loss, err)
    assert grad.example_sq_norms is None
    assert np.array_equal(nn.full_gradient(model, x, y).flat, grad.flat)
    _, _, whole = nn.batch_gradient(model, x, y)
    np.testing.assert_allclose(grad.flat, whole.flat, atol=1e-14)


def misses_all_but_every_third(model, x, classes):
    """Labels the model gets right only at rows 1, 4, 7, ... short of the
    last, so every chunk, the last one too, holds a miss."""
    pred = nn.forward(model, x)[0].argmax(axis=1)
    rows = np.arange(len(x))
    hit = (rows % 3 == 1) & (rows < len(x) - 1)
    return np.where(hit, pred, (pred + 1) % classes)


def as_bytes(*values):
    return np.array(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("classes", [2, 4, 10, 16])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 17])
def test_one_softmax_pass_per_chunk_equals_one_pass_over_joined_logits(monkeypatch, classes, n):
    chunk = 8                     # n in {1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1}
    monkeypatch.setattr(nn, "FULL_GRADIENT_CHUNK", chunk)
    model = build_model(ModelSpec("simple-mlp", (5,), (6,), classes, seed=classes))
    x = np.random.default_rng(n).normal(size=(n, 5)) * 3.0
    y = misses_all_but_every_third(model, x, classes)
    joined = np.concatenate([nn.forward(model, x[i:i + chunk])[0] for i in range(0, n, chunk)])
    expected = as_bytes(*nn.loss_and_error(joined, y))
    shifted = joined - joined.max(axis=1, keepdims=True)      # the reference expressions
    reference = -(shifted[np.arange(n), y] - np.log(np.exp(shifted).sum(axis=1))).mean()
    assert as_bytes(reference, (joined.argmax(axis=1) != y).mean()) == expected
    for example_norms in (False, True):
        loss, err, _ = nn.sweep(model, x, y, example_norms=example_norms)
        assert as_bytes(loss, err) == expected
    assert as_bytes(nn.error_rate(model, x, y)) == as_bytes(nn.sweep(model, x, y)[1])
    loss, err, _ = nn.batch_gradient(model, x, y)
    assert as_bytes(loss, err) == as_bytes(*nn.loss_and_error(nn.forward(model, x)[0], y))


@pytest.mark.parametrize("side", [2, 4])
def test_smallest_cnn_lite_gradients_match_finite_differences(monkeypatch, side):
    # at 2x2 the pool's backward broadcast reshapes to a read-only view
    monkeypatch.setattr(nn, "FULL_GRADIENT_CHUNK", 2)
    model = build_model(ModelSpec("cnn-lite", (side, side, 1), (2, 3), 3, seed=side))
    rng = np.random.default_rng(20 + side)
    x = rng.normal(size=(5, side, side, 1))
    y = rng.integers(0, 3, size=5)
    oracle = fd_gradient(model, x, y)
    assert max_relative_error(nn.batch_gradient(model, x, y)[2].flat, oracle) < 1e-5
    assert max_relative_error(nn.sweep(model, x, y)[2].flat, oracle) < 1e-5


def test_sweep_example_norms_equal_per_sample_gradients_across_chunks(monkeypatch):
    monkeypatch.setattr(nn, "FULL_GRADIENT_CHUNK", 7)
    model = build_model(ModelSpec("simple-mlp", (4,), (5,), 3, seed=7))
    bits = np.ones(model.param_count)
    bits[::3] = 0.0
    apply_mask(model, Mask(bits))
    rng = np.random.default_rng(11)
    x = rng.normal(size=(30, 4))
    y = rng.integers(0, 3, size=30)
    grad = nn.sweep(model, x, y, example_norms=True)[2]
    per_sample = [nn.batch_gradient(model, x[i:i + 1], y[i:i + 1])[2].flat
                  for i in range(30)]
    np.testing.assert_allclose(grad.example_sq_norms,
                               [g @ g for g in per_sample], rtol=1e-12)
    assert grad.example_sq_norms.sum() == pytest.approx(
        sum(g @ g for g in per_sample), rel=1e-12)
    assert np.array_equal(grad.flat, nn.full_gradient(model, x, y).flat)
    assert nn.full_gradient(model, x, y).example_sq_norms is None


@pytest.fixture
def blas():
    """The process's OpenBLAS thread control; the count is put back after the test."""
    handle = nn.openblas_threads()
    if handle is None:
        pytest.skip("no OpenBLAS to set the thread count of")
    before = handle.get()
    yield handle
    handle.set(before)


def chunk_threads(monkeypatch):
    """The threads that run the chunks' forwards, in the order they start."""
    seen, real = [], nn.forward

    def spy(model, inputs):
        seen.append(threading.current_thread())
        return real(model, inputs)

    monkeypatch.setattr(nn, "forward", spy)
    return seen


def several_chunks(monkeypatch):
    """The acceptance MLP, masked, on three chunks; the last has 592 rows,
    where `x.T @ d` once gave other bytes at 1 and 2 OpenBLAS threads."""
    monkeypatch.setattr(nn, "FULL_GRADIENT_CHUNK", 600)
    model = build_model(ModelSpec("simple-mlp", (8,), (96, 48), 16, seed=3))
    apply_mask(model, Mask((np.random.default_rng(4).random(model.param_count) < 0.3) * 1.0))
    rng = np.random.default_rng(5)
    return model, rng.normal(size=(1792, 8)) * 3.0, rng.integers(0, 16, size=1792)


def sweep_bytes(model, x, y):
    loss, err, grad = nn.sweep(model, x, y, example_norms=True)
    return as_bytes(loss, err) + grad.flat.tobytes() + grad.example_sq_norms.tobytes()


def test_sweep_bytes_equal_at_every_blas_thread_count(monkeypatch, blas):
    model, x, y = several_chunks(monkeypatch)
    threads = chunk_threads(monkeypatch)
    blas.set(1)
    serial = sweep_bytes(model, x, y)
    assert threads == [threading.main_thread()] * 3
    threads.clear()
    blas.set(2)
    assert sweep_bytes(model, x, y) == serial
    assert len(threads) == 3 and threading.main_thread() not in threads
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # more threads than cores, switching often
    try:
        blas.set(4)
        assert sweep_bytes(model, x, y) == serial
    finally:
        sys.setswitchinterval(switch)


def test_sweep_puts_the_blas_thread_count_back(monkeypatch, blas):
    model, x, y = several_chunks(monkeypatch)
    blas.set(2)
    nn.sweep(model, x, y)
    assert blas.get() == 2
    x[-1, 0] = np.nan             # the last chunk's forward raises
    with pytest.raises(NumericOverflow):
        nn.sweep(model, x, y)
    assert blas.get() == 2


def test_successive_sweeps_run_on_the_same_pool_threads(monkeypatch, blas):
    model, x, y = several_chunks(monkeypatch)
    threads = chunk_threads(monkeypatch)
    blas.set(2)
    nn.sweep(model, x, y)
    first, alive = set(threads), set(threading.enumerate())
    threads.clear()
    nn.sweep(model, x, y)
    assert threading.main_thread() not in first | set(threads)
    # no thread is made for the second sweep: a pool per sweep cost trace-mlp 5-10%
    assert set(threads) <= alive and len(first | set(threads)) <= 2


def test_forked_child_sweeps_after_a_threaded_sweep_in_the_parent(monkeypatch, blas):
    model, x, y = several_chunks(monkeypatch)
    blas.set(2)
    expected = sweep_bytes(model, x, y)   # the parent's pool threads are alive; the child has none
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: writer.send(sweep_bytes(model, x, y)))
    child.start()
    try:
        got = reader.recv() if reader.poll(60) else None
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert got == expected
    assert child.exitcode == 0


def test_sweep_is_serial_without_openblas(monkeypatch):
    monkeypatch.setattr(nn, "FULL_GRADIENT_CHUNK", 7)
    model = build_model(ModelSpec("simple-mlp", (4,), (3,), 3, seed=6))
    rng = np.random.default_rng(10)
    x, y = rng.normal(size=(30, 4)), rng.integers(0, 3, size=30)
    threads = chunk_threads(monkeypatch)
    with_blas = sweep_bytes(model, x, y)
    monkeypatch.setattr(nn, "openblas_threads", lambda: None)
    threads.clear()
    assert sweep_bytes(model, x, y) == with_blas
    assert threads == [threading.main_thread()] * 5


def test_relu_in_place_equals_maximum_and_masks_by_its_output():
    x = np.array([[-0.0, 0.0, -1.5, 2.0, np.inf, -np.inf],
                  [0.0, -0.0, 3.0, -2.0, -np.inf, np.inf]])
    d = np.array([[-1.0, -2.0, -3.0, 4.0, -5.0, 6.0],
                  [1.0, 2.0, -3.0, -4.0, 5.0, -6.0]])
    relu = nn.Relu()
    out, cache = relu.forward(x.copy(), [])
    assert out.tobytes() == np.maximum(x, 0.0).tobytes()
    d_x, _ = relu.backward(d.copy(), cache, [])
    assert d_x.tobytes() == (d * (x > 0)).tobytes()


def test_shape_mismatch_is_config_error():
    model = linear_model(3, 2)
    with pytest.raises(ConfigError):
        nn.forward(model, np.ones((2, 4)))


def test_overflow_signals():
    model = linear_model(3, 2)
    with np.errstate(over="ignore"), pytest.raises(NumericOverflow):
        nn.forward(model, np.full((2, 3), 1e308))
    with pytest.raises(NumericOverflow):
        nn.loss_and_error(np.array([[np.inf, 0.0]]), np.array([0]))
