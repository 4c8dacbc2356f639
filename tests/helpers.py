"""Shared test utilities: finite-difference oracles, synthetic quadratic
SGD runs with exactly known constants, and reference workloads."""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from sparselab import nn
from sparselab.harness import Workload
from sparselab.models import ModelSpec
from sparselab.optim import OptimizerConfig, OptimizerState, ScheduleSpec, apply_update


def fd_gradient(model, inputs, targets, h=1e-5):
    """Central finite differences over every parameter (independent of the
    backprop path; uses only forward + loss)."""
    grad = np.zeros(model.param_count)
    for i in range(model.param_count):
        orig = model.params[i]
        model.params[i] = orig + h
        plus, _ = nn.loss_and_error(nn.forward(model, inputs)[0], targets)
        model.params[i] = orig - h
        minus, _ = nn.loss_and_error(nn.forward(model, inputs)[0], targets)
        model.params[i] = orig
        grad[i] = (plus - minus) / (2 * h)
    return grad


def conv_input_gradient_by_patches(d_out, K):
    """Conv3x3's input gradient the im2col way: one (n*h*w, 9*c_in) patch
    gradient from a single matmul, scattered back over the 3x3 taps."""
    n, h, w, c_out = d_out.shape
    c_in = K.shape[2]
    d_patches = d_out.reshape(n * h * w, c_out) @ K.reshape(9 * c_in, c_out).T
    d_patches = d_patches.reshape(n, h, w, 3, 3, c_in)
    d_padded = np.zeros((n, h + 2, w + 2, c_in))
    for i in range(3):
        for j in range(3):
            d_padded[:, i:i + h, j:j + w, :] += d_patches[:, :, :, i, j, :]
    return d_padded[:, 1:1 + h, 1:1 + w, :]


def conv_patches_by_strided_view(x):
    """Conv3x3's im2col matrix as one strided view of the zero-padded input,
    patches[n, y, x, i, j] = padded[n, y + i, x + j], copied by the reshape."""
    n, h, w, c = x.shape
    padded = np.zeros((n, h + 2, w + 2, c))
    padded[:, 1:-1, 1:-1] = x
    s0, s1, s2, s3 = padded.strides
    patches = as_strided(padded, (n, h, w, 3, 3, c), (s0, s1, s2, s1, s2, s3))
    return patches.reshape(n * h * w, 9 * c)


def conv_forward_by_pixel_bias(x, K, b):
    """Conv3x3's output with the bias added one pixel's channels at a time,
    over the strided-view patch matrix."""
    n, h, w, _ = x.shape
    y = conv_patches_by_strided_view(x) @ K.reshape(-1, K.shape[3])
    y += b
    return y.reshape(n, h, w, K.shape[3])


def global_mean_pool_by_mean(x):
    """GlobalMeanPool's output as numpy's mean over the spatial axes."""
    return x.mean(axis=(1, 2))


def global_mean_pool_gradient_by_broadcast(d_out, shape):
    """GlobalMeanPool's input gradient as a broadcast of d_out, divided."""
    n, h, w, c = shape
    return np.broadcast_to(d_out[:, None, None, :], shape) / (h * w)


def max_relative_error(a, b, floor=1e-8):
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.max(np.abs(a - b) / (np.maximum(np.abs(a), np.abs(b)) + floor)))


def run_quadratic_sgd(lams, w1, eta, num_steps, noise_power, seed):
    """SGD on f(w) = 0.5 w' diag(lams) w with spherical noise of exactly
    known squared norm; returns the average squared true-gradient norm
    over the first num_steps iterates.

    The noise model gives E||g||^2 = ||grad f||^2 + noise_power exactly,
    so M = noise_power, M_G = 1, mu = 1 in the second-moment assumption.
    """
    lams = np.asarray(lams, dtype=float)
    w = np.asarray(w1, dtype=float).copy()
    config = OptimizerConfig("sgd", eta)
    state = OptimizerState.fresh(w.size)
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(num_steps):
        grad_true = lams * w
        total += float(grad_true @ grad_true)
        direction = rng.normal(size=w.size)
        direction /= np.linalg.norm(direction)
        apply_update(w, grad_true + np.sqrt(noise_power) * direction,
                     config, state)
    return total / num_steps


def smoke_workload(goal=0.25, max_steps=400, algorithm="sgd",
                   schedule=None, widths=(8,)):
    """Tiny synthetic workload for fast harness/CLI tests (< 1 s trials)."""
    return Workload(
        id="smoke",
        dataset={"kind": "synth", "classes": 4, "dims": 6, "per_class": 120,
                 "separation": 10.0, "seed": 7},
        model_spec=ModelSpec("simple-mlp", (6,), tuple(widths), 4, seed=3),
        algorithm=algorithm,
        schedule=schedule or ScheduleSpec("constant"),
        goal_error=goal,
        eval_interval=16,
        max_steps=max_steps,
        data_seed=5,
    )


def acceptance_workload():
    """The frozen scaling-study workload: 16 Gaussian blobs whose training
    labels are 45% corrupted (validation stays clean), so small batches are
    gradient-noise limited while the goal stays far above the clean error
    floor."""
    return Workload(
        id="acceptance",
        dataset={"kind": "synth", "classes": 16, "dims": 8, "per_class": 1250,
                 "separation": 6.0, "seed": 7, "train_label_noise": 0.45},
        model_spec=ModelSpec("simple-mlp", (8,), (96, 48), 16, seed=3),
        algorithm="sgd",
        schedule=ScheduleSpec("constant"),
        goal_error=0.1,
        eval_interval=16,
        max_steps=20000,
        data_seed=5,
    )
