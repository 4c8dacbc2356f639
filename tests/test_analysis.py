"""Scaling-law fitting, smoothness estimation, and the ratio decomposition."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import smoke_workload
from sparselab.analysis import (ScalingFit, TheoryParams, convergence_bound,
                                estimate_beta, estimate_delta,
                                estimate_lipschitz, fit_scaling, predict_steps,
                                ratio_report, trace_smoothness)
from sparselab import analysis, nn
from sparselab.exceptions import (ConfigError, DegenerateStepError,
                                  InsufficientDataError)
from sparselab.data import Dataset
from sparselab.harness import StudyPoint, prune_at_init, resolve_dataset, run_trial
from sparselab.models import ModelSpec, build_model


# ---------------------------------------------------------------------------
# fit_scaling / predict_steps
# ---------------------------------------------------------------------------

def test_exact_model_is_recovered_with_zero_residual():
    points = [(b, 1000.0 / b + 50.0) for b in (2, 8, 32, 128)]
    fit = fit_scaling(points)
    assert fit.c1 == pytest.approx(1000.0, abs=1e-9)
    assert fit.c2 == pytest.approx(50.0, abs=1e-10)
    assert fit.residual < 1e-12


def test_two_point_solve():
    fit = fit_scaling([(1, 110.0), (10, 20.0)])
    assert fit.c1 == pytest.approx(100.0, rel=1e-12)
    assert fit.c2 == pytest.approx(10.0, rel=1e-12)


def test_noisy_fit_matches_brute_force_grid_search():
    rng = np.random.default_rng(0)
    batches = np.array([2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0, 4096.0])
    truth = 400.0 / batches + 25.0
    noisy = truth * (1.0 + 0.05 * rng.uniform(-1, 1, size=8))
    points = list(zip(batches, noisy))
    fit = fit_scaling(points)
    assert abs(fit.c1 / 400.0 - 1.0) < 0.10
    assert abs(fit.c2 / 25.0 - 1.0) < 0.10

    # Exhaustive grid over the coefficient box around the truth: no grid
    # point may beat the least-squares objective.
    x = 1.0 / batches
    k = noisy

    def sse(c1, c2):
        return float(np.sum((c1 * x + c2 - k) ** 2))

    grid_c1 = np.linspace(200.0, 600.0, 400)
    grid_c2 = np.linspace(0.0, 50.0, 400)
    best = min(((sse(c1, c2), c1, c2) for c1 in grid_c1 for c2 in grid_c2),
               key=lambda t: t[0])
    assert sse(fit.c1, fit.c2) <= best[0] + 1e-9
    assert abs(best[1] - fit.c1) <= grid_c1[1] - grid_c1[0]
    assert abs(best[2] - fit.c2) <= grid_c2[1] - grid_c2[0]


def test_negative_slope_data_clamps_c1_to_zero():
    fit = fit_scaling([(2, 10.0), (8, 20.0), (32, 40.0)])
    assert fit.c1 == 0.0
    assert fit.c2 == pytest.approx(np.mean([10.0, 20.0, 40.0]))
    assert fit.residual > 0


def test_equal_steps_give_exactly_zero_c1():
    # lstsq leaves c1 at rounding level (2e-15 for three equal K); a c1
    # that small is no slope, and a sparse/dense c1 ratio built on it is noise
    for batches in ((2, 8, 32), (2, 8, 32, 128)):
        fit = fit_scaling([(b, 16.0) for b in batches])
        assert fit.c1 == 0.0
        assert fit.c2 == 16.0
        assert fit.residual == 0.0


def test_negative_intercept_data_clamps_c2_to_zero():
    # steep decay through the origin: unconstrained intercept is negative
    fit = fit_scaling([(1, 100.0), (2, 45.0), (4, 20.0), (8, 8.0)])
    assert fit.c2 == 0.0
    assert fit.c1 > 0
    assert fit.residual >= 0


def test_fit_requires_two_distinct_batch_sizes():
    with pytest.raises(InsufficientDataError):
        fit_scaling([(8, 100.0), (8, 120.0)])
    with pytest.raises(ConfigError):
        fit_scaling([(2, 0.0), (8, 10.0)])


def test_prediction_asymptote_is_c2():
    fit = ScalingFit(1000.0, 50.0, 0.0, ())
    assert abs(predict_steps(fit, 1e9) - 50.0) <= 1000.0 * 1e-9


def test_doubling_identity_holds_to_machine_precision():
    fit = ScalingFit(3517.0, 211.0, 0.0, ())
    for b in (2.0, 8.0, 31.0, 100.0):
        for r in range(1, 6):
            lhs = predict_steps(fit, 2 ** r * b)
            rhs = predict_steps(fit, b) / 2 ** r + (1 - 1 / 2 ** r) * fit.c2
            assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# estimate_lipschitz
# ---------------------------------------------------------------------------

def test_lipschitz_candidate_count_and_affine_case():
    calls = []

    def grad_fn(w):
        calls.append(w.copy())
        return np.array([3.0, -1.0])      # constant gradient: affine f

    g0 = grad_fn(np.zeros(2))
    calls.clear()
    got = estimate_lipschitz(grad_fn, np.zeros(2), np.array([1.0, 1.0]), g0)
    assert got == 0.0
    assert len(calls) == 10               # the candidates; the base gradient is given
    gammas = [float(c[0]) for c in calls]
    assert gammas == pytest.approx([0.1 * i for i in range(1, 11)])


def test_lipschitz_on_diagonal_quadratic_along_second_axis():
    A = np.diag([1.0, 3.0])

    def grad_fn(w):
        return A @ w

    w_k = np.array([0.7, -0.2])
    w_k1 = w_k + np.array([0.0, 1.0])
    # every quotient is ||A(gamma d)|| / ||gamma d|| = 3 exactly
    got = estimate_lipschitz(grad_fn, w_k, w_k1, grad_fn(w_k))
    assert got == pytest.approx(3.0, rel=1e-12)


def test_lipschitz_never_exceeds_top_eigenvalue_on_quadratics():
    rng = np.random.default_rng(4)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        lams = np.sort(rng.uniform(0.1, 5.0, size=6))
        A = q @ np.diag(lams) @ q.T

        def grad_fn(w):
            return A @ w

        w_k = rng.normal(size=6)
        d = rng.normal(size=6)
        got = estimate_lipschitz(grad_fn, w_k, w_k + d, grad_fn(w_k))
        assert got <= lams[-1] * (1 + 1e-9)
        top = q[:, -1]
        along_top = estimate_lipschitz(grad_fn, w_k, w_k + top, grad_fn(w_k))
        assert along_top == pytest.approx(lams[-1], rel=1e-9)


def test_lipschitz_rejects_zero_displacement():
    grad_fn = lambda w: w
    with pytest.raises(DegenerateStepError):
        estimate_lipschitz(grad_fn, np.ones(3), np.ones(3), np.ones(3))


# ---------------------------------------------------------------------------
# trace_smoothness
# ---------------------------------------------------------------------------

def test_trace_length_counts():
    wl = smoke_workload(max_steps=1000)
    trace = trace_smoothness(wl, StudyPoint(16, 0.0), {"eta_bar": 0.05},
                             stride=100, num_steps=400, seed=1)
    assert len(trace.entries) == 4        # k = 0, 100, 200, 300
    assert [k for k, _ in trace.entries] == [0, 100, 200, 300]
    assert trace.average > 0


def test_trace_with_stride_beyond_budget_is_single_sample():
    wl = smoke_workload()
    trace = trace_smoothness(wl, StudyPoint(16, 0.0), {"eta_bar": 0.05},
                             stride=500, num_steps=120, seed=1)
    assert len(trace.entries) == 1
    assert trace.entries[0][0] == 0


def test_trace_losses_align_with_measurement_steps():
    wl = smoke_workload()
    trace = trace_smoothness(wl, StudyPoint(16, 0.0), {"eta_bar": 0.05},
                             stride=100, num_steps=300, seed=1)
    assert [k for k, _ in trace.losses] == [0, 100, 200]
    assert all(np.isfinite(v) for _, v in trace.losses)


def training_losses(wl, point, metaparams, steps, num_steps, seed):
    """The oracle: the whole-training-set loss at `steps` of the run a
    trace makes, taken by a sweep in a step hook."""
    fixed = replace(wl, goal_error=0.0, max_steps=num_steps, eval_interval=num_steps + 1)
    train, _ = resolve_dataset(wl)
    losses = []

    def hook(model, k):
        if k in steps:
            losses.append((k, nn.sweep(model, train.inputs, train.labels)[0]))
    run_trial(fixed, point, metaparams, seed, step_hook=hook)
    return losses


@pytest.mark.parametrize("degenerate", [False, True])
def test_trace_losses_are_the_training_loss_at_each_measured_step(monkeypatch, degenerate):
    if degenerate:                # every step reads as zero displacement
        def zero_step(grad_fn, w_k, w_k1, g0):
            raise DegenerateStepError("zero parameter displacement")
        monkeypatch.setattr(analysis, "estimate_lipschitz", zero_step)
    wl = smoke_workload()
    point, metaparams = StudyPoint(16, 0.5), {"eta_bar": 0.05}
    trace = trace_smoothness(wl, point, metaparams, stride=100, num_steps=300, seed=1)
    assert trace.losses == training_losses(wl, point, metaparams, (0, 100, 200), 300, seed=1)
    assert all((v is None) == degenerate for _, v in trace.entries)


# ---------------------------------------------------------------------------
# estimate_beta / estimate_delta / ratio_report
# ---------------------------------------------------------------------------

def test_beta_zero_for_single_sample():
    model = build_model(ModelSpec("simple-mlp", (3,), (), 2, seed=0))
    x = np.random.default_rng(0).normal(size=(1, 3))
    assert estimate_beta(model, x, np.array([1])) == pytest.approx(0.0, abs=1e-18)


def test_beta_invariant_to_duplication():
    model = build_model(ModelSpec("simple-mlp", (3,), (4,), 2, seed=1))
    rng = np.random.default_rng(2)
    x = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, size=12)
    once = estimate_beta(model, x, y)
    twice = estimate_beta(model, np.vstack([x, x]), np.concatenate([y, y]))
    assert twice == pytest.approx(once, rel=1e-10)


def per_sample_beta(model, x, y):
    """The reference: one backward per sample, then the centred mean square."""
    grads = np.array([nn.batch_gradient(model, x[i:i + 1], y[i:i + 1])[2].flat
                      for i in range(len(y))])
    return float(np.mean(np.sum((grads - grads.mean(axis=0)) ** 2, axis=1)))


def test_beta_matches_explicit_per_sample_loop():
    model = build_model(ModelSpec("simple-mlp", (2,), (), 2, seed=3))
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 2))
    y = rng.integers(0, 2, size=20)
    assert estimate_beta(model, x, y) == pytest.approx(per_sample_beta(model, x, y),
                                                       rel=1e-10)


def pruned_at_init(spec, sparsity, n=160):
    """A model pruned by prune_at_init on random data, and that data."""
    rng = np.random.default_rng(13)
    train = Dataset(rng.normal(size=(n, *spec.input_shape)),
                    rng.integers(0, spec.classes, size=n), spec.classes)
    model = prune_at_init(build_model(spec), train, sparsity, seed=2)
    return model, train.inputs, train.labels


def test_batched_beta_matches_per_sample_loop_on_pruned_mlp(monkeypatch):
    model, x, y = pruned_at_init(ModelSpec("simple-mlp", (6,), (12, 8), 4, seed=3), 0.9)
    masks = model.mask_views()
    assert not any(layer[1].any() for layer in masks if layer)   # every bias pruned
    oracle = per_sample_beta(model, x, y)
    assert estimate_beta(model, x, y) == pytest.approx(oracle, rel=1e-12)

    # the outer-product form without the mask counts pruned coordinates
    ones = [[np.ones_like(m) for m in layer] for layer in masks]
    monkeypatch.setattr(model, "mask_views", lambda: ones)
    assert estimate_beta(model, x, y) != pytest.approx(oracle, rel=1e-3)


def test_batched_beta_matches_per_sample_loop_on_masked_cnn():
    model, x, y = pruned_at_init(ModelSpec("cnn-lite", (8, 8, 1), (4, 6), 3, seed=4), 0.5)
    assert model.mask.min() == 0.0
    assert estimate_beta(model, x, y) == pytest.approx(per_sample_beta(model, x, y),
                                                       rel=1e-12)


def test_delta_examples():
    assert estimate_delta([(0, 2.0), (1, 2.0), (2, 2.0)]) == 0.0
    assert estimate_delta([(0, 2.3), (1, 1.5), (2, 0.8), (3, 0.01)]) == pytest.approx(4.58)
    assert estimate_delta([(0, 2.3), (100, 0.5), (200, 0.01)]) == pytest.approx(4.58)
    with pytest.raises(ConfigError):
        estimate_delta([])


def test_ratio_report_identity():
    p = TheoryParams(L=1.3, beta=4.0, delta=2.0)
    report = ratio_report(p, p)
    assert report["delta_ratio"] == report["beta_ratio"] == report["L_ratio"] == 1.0
    assert report["c1_ratio"] == 1.0


def test_ratio_report_reproduces_published_decomposition():
    # delta, beta, L ratios of 1.00 x 0.54 x 3.09 multiply to about 1.67
    dense = TheoryParams(L=1.0, beta=1.0, delta=1.0)
    sparse = TheoryParams(L=3.09, beta=0.54, delta=1.00)
    report = ratio_report(sparse, dense)
    assert report["c1_ratio"] == pytest.approx(1.6686, abs=1e-4)
    assert abs(report["c1_ratio"] - 1.67) < 0.01
    assert report["c1_ratio"] > 1
    # raw measured constants give the same story
    dense_raw = TheoryParams(L=0.57, beta=197.06, delta=4.66)
    sparse_raw = TheoryParams(L=1.76, beta=107.39, delta=4.68)
    raw = ratio_report(sparse_raw, dense_raw)
    assert raw["c1_ratio"] == pytest.approx(1.69, abs=0.01)


def test_ratio_report_rejects_zero_denominators():
    dense = TheoryParams(L=0.0, beta=1.0, delta=1.0)
    sparse = TheoryParams(L=1.0, beta=1.0, delta=1.0)
    with pytest.raises(ZeroDivisionError):
        ratio_report(sparse, dense)


def test_convergence_bound_formula():
    # eta*L*M/mu + 2(f1 - finf)/(K*mu*eta)
    got = convergence_bound(0.1, 4.0, 2.0, 1.0, 100, 7.0, 1.0)
    assert got == pytest.approx(0.1 * 4.0 * 2.0 + 2.0 * 6.0 / (100 * 0.1))
    with pytest.raises(ConfigError):
        convergence_bound(0.0, 4.0, 2.0, 1.0, 100, 7.0, 1.0)
