"""Trial execution, classification, aggregation, and resumable studies."""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from helpers import smoke_workload
from sparselab import harness, nn
from sparselab.analysis import estimate_beta, trace_smoothness
from sparselab.config import load_config
from sparselab.data import Dataset
from sparselab.exceptions import ConfigError, NumericOverflow
from sparselab.harness import (COMPLETE, INCOMPLETE, INFEASIBLE, RECORD_SCHEMA, STOPPED,
                               StudyConfig, StudyPoint, TrialRecord, Workload,
                               aggregate, best_trial, load_records,
                               planned_trials, prune_at_init, resolve_dataset,
                               run_study, run_trial, trial_key)
from sparselab.models import ModelSpec, build_model
from sparselab.optim import ScheduleSpec
from sparselab.prune import SALIENCY_BATCH, connection_sensitivity, topk_mask
from sparselab.quasirand import SearchSpace
from sparselab.report import read_table, write_summary

ETA = {"eta_bar": 0.1}

# Frozen from the first audited run of the smoke workload; any pipeline
# change that alters the trajectory will trip the regression test below.
SMOKE_STEPS_TO_GOAL = 16


def test_goal_one_completes_at_first_evaluation():
    wl = replace(smoke_workload(), goal_error=1.0)
    rec = run_trial(wl, StudyPoint(16, 0.0), ETA, seed=1)
    assert rec.status == COMPLETE
    assert rec.steps_to_goal == wl.eval_interval


def overlapping_workload(**kwargs):
    # Heavy class overlap, so a zero validation error is unattainable.
    wl = smoke_workload(**kwargs)
    return replace(wl, dataset={**wl.dataset, "separation": 1.0})


def test_unreachable_goal_with_tiny_budget_is_incomplete():
    wl = replace(overlapping_workload(), goal_error=0.0, max_steps=32)
    rec = run_trial(wl, StudyPoint(16, 0.0), ETA, seed=1)
    assert rec.status == INCOMPLETE
    assert rec.steps_to_goal is None


def test_huge_learning_rate_is_infeasible():
    rec = run_trial(smoke_workload(), StudyPoint(16, 0.0), {"eta_bar": 1e6}, seed=1)
    assert rec.status == INFEASIBLE
    assert rec.steps_to_goal is None


@pytest.mark.parametrize("algorithm", ["momentum", "nesterov"])
def test_a_momentum_trial_or_trace_without_momentum_coeff_is_a_config_error(algorithm):
    wl = smoke_workload(algorithm=algorithm)
    with pytest.raises(ConfigError, match=f"{algorithm} needs momentum_coeff"):
        run_trial(wl, StudyPoint(8, 0.0), ETA, seed=1)
    with pytest.raises(ConfigError, match=f"{algorithm} needs momentum_coeff"):
        trace_smoothness(wl, StudyPoint(8, 0.0), ETA, stride=8, num_steps=32, seed=1)


def test_an_evaluation_that_overflows_ends_the_trial_infeasible():
    # At eta 1e200 the first step leaves finite weights whose forward pass
    # overflows, and the evaluation after that step is the first to run it.
    wl = replace(smoke_workload(), eval_interval=1)
    with np.errstate(over="ignore"):
        rec = run_trial(wl, StudyPoint(16, 0.0), {"eta_bar": 1e200}, seed=1)
    assert rec.status == INFEASIBLE
    assert rec.history == [] and rec.steps_to_goal is None


def test_statuses_are_exclusive_and_total():
    records = [
        run_trial(replace(smoke_workload(), goal_error=1.0), StudyPoint(16, 0.0), ETA, 1),
        run_trial(replace(overlapping_workload(), goal_error=0.0, max_steps=32),
                  StudyPoint(16, 0.0), ETA, 1),
        run_trial(smoke_workload(), StudyPoint(16, 0.0), {"eta_bar": 1e6}, 1),
    ]
    assert [r.status for r in records] == [COMPLETE, INCOMPLETE, INFEASIBLE]
    for r in records:
        assert (r.status == COMPLETE) == (r.steps_to_goal is not None)


def test_steps_to_goal_is_multiple_of_eval_interval():
    rec = run_trial(smoke_workload(), StudyPoint(8, 0.0), {"eta_bar": 0.05}, seed=2)
    assert rec.status == COMPLETE
    assert rec.steps_to_goal % smoke_workload().eval_interval == 0


def test_trial_record_fully_determined_by_inputs():
    wl = smoke_workload()
    a = run_trial(wl, StudyPoint(8, 0.5), ETA, seed=3, trial_index=4)
    b = run_trial(wl, StudyPoint(8, 0.5), ETA, seed=3, trial_index=4)
    assert a.to_json() == b.to_json()


def test_smoke_regression_steps_to_goal():
    rec = run_trial(smoke_workload(), StudyPoint(16, 0.0), {"eta_bar": 0.1}, seed=1)
    assert rec.status == COMPLETE
    assert rec.steps_to_goal == SMOKE_STEPS_TO_GOAL


def test_wide_separation_linear_model_reaches_two_percent():
    # Frozen end-to-end baseline: separation-50 blobs are linearly separable,
    # so a bare affine classifier reaches 2% validation error within budget.
    wl = replace(smoke_workload(widths=(), max_steps=2000), goal_error=0.02)
    wl = replace(wl, dataset={**wl.dataset, "separation": 50.0})
    rec = run_trial(wl, StudyPoint(16, 0.0), {"eta_bar": 0.05}, seed=1)
    assert rec.status == COMPLETE


def test_batch_size_larger_than_training_set_rejected():
    with pytest.raises(ConfigError):
        run_trial(smoke_workload(), StudyPoint(100000, 0.0), ETA, seed=1)


def test_mask_stays_intact_through_a_sparse_trial():
    wl = smoke_workload(max_steps=200, goal=0.0)
    rec = run_trial(wl, StudyPoint(16, 0.7), ETA, seed=4)
    assert rec.status in (INCOMPLETE, COMPLETE)


PRUNING_SPECS = {
    "simple-mlp": ModelSpec("simple-mlp", (6,), (12, 8), 4, seed=3),
    "cnn-lite": ModelSpec("cnn-lite", (6, 6, 1), (3, 4), 4, seed=3),
}


def pruning_train_set(spec, n=200):
    rng = np.random.default_rng(9)
    inputs = rng.normal(size=(n, *spec.input_shape))
    return Dataset(inputs, rng.integers(0, spec.classes, size=n), spec.classes)


def weight_units(model, flat):
    """Per weighted layer: `flat`'s weight block as a (fan_in, units) matrix
    and its bias block. Units are affine output columns / conv out-channels."""
    blocks, offset = [], 0
    for layer in model.layers:
        if not layer.param_shapes:
            continue
        w_shape, b_shape = layer.param_shapes
        w_size, b_size = int(np.prod(w_shape)), int(np.prod(b_shape))
        weight = flat[offset:offset + w_size].reshape(-1, w_shape[-1])
        bias = flat[offset + w_size:offset + w_size + b_size]
        blocks.append((weight, bias))
        offset += w_size + b_size
    assert offset == flat.size
    return blocks


@pytest.mark.parametrize("arch", sorted(PRUNING_SPECS))
@pytest.mark.parametrize("sparsity", [0.5, 0.9])
def test_prune_at_init_gives_kept_units_their_init_norm(arch, sparsity):
    spec = PRUNING_SPECS[arch]
    train = pruning_train_set(spec)
    dense = build_model(spec)
    pruned = prune_at_init(build_model(spec), train, sparsity, seed=5)

    # the saliency batch prune_at_init draws, scored at the dense init
    rng = np.random.default_rng([5, 0x5A11])
    idx = rng.choice(len(train), size=SALIENCY_BATCH, replace=False)
    saliency = connection_sensitivity(dense, train.inputs[idx], train.labels[idx])
    assert np.array_equal(pruned.mask, topk_mask(saliency, sparsity).bits)
    assert np.all(pruned.params[pruned.mask == 0.0] == 0.0)

    dead_units = 0
    for (w0, b0), (w, b), (keep, _) in zip(weight_units(dense, dense.params),
                                           weight_units(pruned, pruned.params),
                                           weight_units(pruned, pruned.mask)):
        assert np.all(b0 == 0.0) and np.all(b == 0.0)
        live = keep.any(axis=0)
        dead_units += int((~live).sum())
        np.testing.assert_allclose(np.linalg.norm(w[:, live], axis=0),
                                   np.linalg.norm(w0[:, live], axis=0),
                                   rtol=1e-12)
        assert np.all(w[:, ~live] == 0.0)
        # one positive factor per unit: kept weights keep their direction
        factor = np.linalg.norm(w0, axis=0)[live] / np.linalg.norm(w0 * keep, axis=0)[live]
        np.testing.assert_allclose(w[:, live], (w0 * keep)[:, live] * factor,
                                   rtol=1e-12)
    if sparsity == 0.9:
        assert dead_units > 0      # the zero-norm branch is exercised


@pytest.mark.parametrize("arch", sorted(PRUNING_SPECS))
def test_prune_at_init_at_zero_sparsity_is_the_dense_init(arch):
    spec = PRUNING_SPECS[arch]
    model = prune_at_init(build_model(spec), pruning_train_set(spec), 0.0, seed=5)
    assert np.all(model.mask == 1.0)
    assert model.params.tobytes() == build_model(spec).params.tobytes()


@pytest.mark.parametrize("sparsity", [0.0, 0.7])
def test_step_hook_sees_the_pruned_init_at_step_zero(monkeypatch, sparsity):
    # beta is estimated on prune_at_init(build_model(...)); that must be
    # exactly the net a trial (and so a smoothness trace) starts from,
    # whether the trial builds the init or reads it from the cache.
    monkeypatch.setattr(harness, "_INIT_CACHE", {})
    wl = smoke_workload(max_steps=16)
    train, _ = resolve_dataset(wl)
    for _ in range(2):
        seen = {}

        def hook(model, k):
            if k == 0:
                seen["params"] = model.params.copy()

        run_trial(wl, StudyPoint(16, sparsity), ETA, seed=1, step_hook=hook)
        probe = prune_at_init(build_model(wl.model_spec), train, sparsity, wl.data_seed)
        assert seen["params"].tobytes() == probe.params.tobytes()
    assert len(harness._INIT_CACHE) == 1


def count_pruning(monkeypatch):
    """Empty the init cache; the returned list gets the sparsity of each
    `prune_at_init` call that `harness` makes."""
    monkeypatch.setattr(harness, "_INIT_CACHE", {})
    calls = []

    def spy(model, train, sparsity, seed):
        calls.append(sparsity)
        return prune_at_init(model, train, sparsity, seed)

    monkeypatch.setattr(harness, "prune_at_init", spy)
    return calls


def test_trials_at_one_sparsity_prune_once(monkeypatch):
    calls = count_pruning(monkeypatch)
    wl = smoke_workload(max_steps=16)
    for batch_size, seed, metaparams in [(16, 1, ETA), (8, 2, {"eta_bar": 0.05}),
                                         (4, 3, ETA)]:
        run_trial(wl, StudyPoint(batch_size, 0.5), metaparams, seed=seed)
    assert calls == [0.5]


def test_each_input_of_the_pruned_init_gets_its_own_cache_entry(monkeypatch):
    calls = count_pruning(monkeypatch)
    wl = smoke_workload()
    variants = [wl, replace(wl, model_spec=replace(wl.model_spec, seed=4)),
                replace(wl, data_seed=wl.data_seed + 1),
                replace(wl, dataset={**wl.dataset, "separation": 3.0})]
    for variant in variants:
        train, _ = resolve_dataset(variant)
        for sparsity in (0.5, 0.7):
            for _ in range(2):
                model = harness.initial_model(variant, sparsity)
                fresh = prune_at_init(build_model(variant.model_spec), train, sparsity,
                                      variant.data_seed)
                assert model.params.tobytes() == fresh.params.tobytes()
                assert model.mask.tobytes() == fresh.mask.tobytes()
    assert len(calls) == len(harness._INIT_CACHE) == 8


def test_the_cached_init_is_read_only_and_each_trial_gets_a_copy(monkeypatch):
    count_pruning(monkeypatch)
    wl = smoke_workload()
    model = harness.initial_model(wl, 0.5)
    assert list(harness._INIT_CACHE.values()) == [model]
    assert harness.initial_model(wl, 0.5) is model
    for array in (model.params, model.mask):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 2.0
    kept = model.params.tobytes()
    stack = model.stacked(2)    # what a trial trains is its own
    assert stack.params.flags.writeable
    assert not np.shares_memory(stack.params, model.params)
    stack.params[...] = 1.0
    assert model.params.tobytes() == kept


@pytest.mark.parametrize("sparsity", [0.0, 0.7])
def test_trace_beta_is_estimate_beta_at_the_pruned_init(sparsity):
    # the trace's step-0 sweep gives beta at the net that
    # prune_at_init(build_model(...)) gives, not at the trained one
    wl = smoke_workload()
    trace = trace_smoothness(wl, StudyPoint(16, sparsity), ETA, stride=10,
                             num_steps=30, seed=1)
    train, _ = resolve_dataset(wl)
    probe = prune_at_init(build_model(wl.model_spec), train, sparsity, wl.data_seed)
    assert trace.beta == estimate_beta(probe, train.inputs, train.labels)


def test_whole_data_passes_forward_at_most_one_chunk(monkeypatch):
    monkeypatch.setattr(nn, "FULL_GRADIENT_CHUNK", 7)
    rows = []
    real_forward = nn.forward

    def spy(model, inputs):
        rows.append(len(inputs))
        return real_forward(model, inputs)

    monkeypatch.setattr(nn, "forward", spy)
    wl = smoke_workload(goal=0.0, max_steps=32)    # evaluates at steps 16 and 32
    point = StudyPoint(4, 0.0)                     # train batches fit in a chunk
    train, val = resolve_dataset(wl)
    rec = run_trial(wl, point, ETA, seed=1)
    assert len(rec.history) == 2 and len(val) > 7
    trace_smoothness(wl, point, ETA, stride=10, num_steps=20, seed=1)
    nn.full_gradient(build_model(wl.model_spec), train.inputs, train.labels)
    assert max(rows) <= 7


def blas_run(threads):
    """Run BLAS_SCRIPT in a fresh process with OPENBLAS_NUM_THREADS=threads, or
    with no thread variable (the library default) for threads=None."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    tests_dir = Path(__file__).resolve().parent
    src_dir = Path(harness.__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join([str(src_dir), str(tests_dir)])
    out = subprocess.run([sys.executable, "-c", BLAS_SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    return out.stdout


BLAS_SCRIPT = """
import hashlib
from dataclasses import replace
from helpers import acceptance_workload
from sparselab import analysis, nn
from sparselab.harness import StudyPoint, prune_at_init, resolve_dataset, run_trial
from sparselab.models import ModelSpec, build_model

mlp = replace(acceptance_workload(), max_steps=96)
cnn = replace(mlp, algorithm="momentum", max_steps=24,
              dataset={"kind": "synth", "classes": 4, "dims": 784, "per_class": 100,
                       "separation": 6.0, "seed": 7},
              model_spec=ModelSpec("cnn-lite", (28, 28, 1), (8, 16), 4, seed=3))
momentum = {"eta_bar": 0.05, "momentum_coeff": 0.9}
for wl, batch_size, metaparams in ((mlp, 512, {"eta_bar": 0.05}), (cnn, 64, momentum)):
    for s in (0.0, 0.9):
        digest = hashlib.sha256()
        rec = run_trial(wl, StudyPoint(batch_size, s), metaparams, seed=3,
                        step_hook=lambda model, k: digest.update(model.params.tobytes()))
        print(rec.to_json(), digest.hexdigest())

cnn = replace(cnn, dataset=dict(cnn.dataset, per_class=250))
for wl, metaparams in ((mlp, {"eta_bar": 0.01}), (cnn, momentum)):
    train, _ = resolve_dataset(wl)
    for s in (0.0, 0.9):
        model = prune_at_init(build_model(wl.model_spec), train, s, wl.data_seed)
        grad = nn.full_gradient(model, train.inputs, train.labels).flat
        beta = analysis.estimate_beta(model, train.inputs, train.labels)
        trace = analysis.trace_smoothness(wl, StudyPoint(16, s), metaparams,
                                          stride=1, num_steps=1, seed=101)
        print(len(train), hashlib.sha256(grad.tobytes()).hexdigest(), beta.hex(),
              repr((trace.entries, trace.losses, trace.beta)))
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    # the acceptance-shaped MLP at B=512 is large enough for OpenBLAS to
    # split its matmuls across threads under the default setting; the
    # cnn-lite trial runs the conv products at the shipped 28x28x1 shape.
    # The whole-split passes run where the thread count once showed: the
    # MLP's 18,000-sample split ends in a 592-row chunk, and cnn-lite's
    # 900-sample split is one chunk whose conv2 products have 176,400 rows.
    single = blas_run(1)
    lines = single.splitlines()
    assert len(lines) == 8
    assert [line.split()[0] for line in lines[4:]] == ["18000"] * 2 + ["900"] * 2
    assert blas_run(None) == single


def test_mask_violation_during_training_names_the_trial(monkeypatch):
    # the check at the end of run_trial is the runtime guard of the mask
    # invariant: pruned parameters are zero at init and must stay zero
    real_step = harness.step

    def leaky_step(model, grad, config, state):
        eta = real_step(model, grad, config, state)
        model.params[..., np.argmin(model.mask)] = 1e-3    # a pruned coordinate
        return eta

    monkeypatch.setattr(harness, "step", leaky_step)
    wl = smoke_workload(max_steps=16)
    point = StudyPoint(16, 0.5)
    key = trial_key(wl, point, ETA, 1, 0)
    with pytest.raises(RuntimeError, match=f"trial {key}: mask violated"):
        run_trial(wl, point, ETA, seed=1)


def test_resolve_dataset_gives_inputs_in_the_model_input_shape():
    dataset = dict(smoke_workload().dataset, dims=8)
    flat = replace(smoke_workload(), dataset=dataset,
                   model_spec=ModelSpec("simple-mlp", (8,), (4,), 4))
    image = replace(flat, model_spec=ModelSpec("cnn-lite", (2, 2, 2), (2, 3), 4))
    flat_train, flat_val = resolve_dataset(flat)
    image_train, image_val = resolve_dataset(image)
    assert flat_train.inputs.shape == (len(flat_train), 8)
    assert image_train.inputs.shape == (len(image_train), 2, 2, 2)
    assert image_val.inputs.shape == (len(image_val), 2, 2, 2)
    assert np.array_equal(image_train.inputs.reshape(-1, 8), flat_train.inputs)
    assert np.array_equal(image_val.inputs.reshape(-1, 8), flat_val.inputs)


def test_steps_to_result_takes_minimum():
    def rec(status, steps, key):
        return TrialRecord(key, 8, 0.0, 0, ETA, 0, status, steps, [], 1.0)
    records = [rec(COMPLETE, 320, "b"), rec(COMPLETE, 160, "a"),
               rec(INCOMPLETE, None, "c")]
    assert best_trial(records).steps_to_goal == 160
    assert best_trial(records).trial_key == "a"


def test_steps_to_result_absent_when_none_complete():
    records = [TrialRecord("x", 8, 0.0, 0, ETA, 0, INCOMPLETE, None, [], 1.0)]
    assert best_trial(records) is None


def test_steps_to_result_tie_keeps_smallest_trial_key():
    def rec(key):
        return TrialRecord(key, 8, 0.0, 0, ETA, 0, COMPLETE, 480, [], 1.0)
    assert best_trial([rec("zz"), rec("aa"), rec("mm")]).trial_key == "aa"
    assert best_trial([rec("zz")]).steps_to_goal == 480 and 480 % 16 == 0


def test_steps_to_result_tie_keeps_lowest_trial_index():
    # K* ties go to the first trial in Sobol order, whatever the key hashes
    def rec(key, index):
        return TrialRecord(key, 8, 0.0, index, {"eta_bar": index}, 0,
                           COMPLETE, 480, [], 1.0)
    best = best_trial([rec("aa", 2), rec("zz", 0), rec("mm", 1)])
    assert best.trial_index == 0 and best.trial_key == "zz"


def test_trial_key_is_stable():
    point = StudyPoint(16, 0.5)
    key = trial_key(smoke_workload(), point, ETA, 11, 3)
    assert key == trial_key(smoke_workload(), point, ETA, 11, 3)
    assert len(key) == 16
    assert key != trial_key(smoke_workload(), point, ETA, 12, 3)


# sha256 prefixes over the newline-joined planned keys of each shipped
# config. A moved Sobol bit or key makes every results directory run again.
SHIPPED_KEYS = {
    "full/cifar10.json": (5600, "74fa80349c1d02f7"),
    "full/fashion_mnist.json": (5600, "6b39244426ee5a20"),
    "full/mnist.json": (5600, "5d867e8712b02fdd"),
    "scaling_study.json": (360, "374aa25affc4981a"),
    "smoke.json": (9, "67ec877e8e1521b4"),
}


def test_planned_trial_keys_of_the_shipped_configs_are_pinned():
    root = Path(__file__).resolve().parent.parent / "configs"
    got = {}
    for path in sorted(root.rglob("*.json")):
        if path.name != "base.json":
            keys = [key for *_, key in planned_trials(load_config(path))]
            digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]
            got[path.relative_to(root).as_posix()] = (len(keys), digest)
    assert got == SHIPPED_KEYS


def test_trial_key_covers_every_value_run_trial_takes():
    wl, point, seed, index = smoke_workload(), StudyPoint(16, 0.5), 11, 3
    key = trial_key(wl, point, ETA, seed, index)
    # equal values, built separately and in another key order, give equal keys
    same = replace(wl, dataset=dict(reversed(list(wl.dataset.items()))),
                   model_spec=ModelSpec("simple-mlp", [6], [8], 4, seed=3))
    assert key == trial_key(same, StudyPoint(16, 0.5), {"eta_bar": 0.1}, seed, index)

    changed = {
        "id": "other",
        "dataset": {**wl.dataset, "separation": 9.0},
        "model_spec": replace(wl.model_spec, seed=4),
        "algorithm": "momentum",
        "schedule": ScheduleSpec("linear-decay", decay_horizon=400),
        "goal_error": 0.3,
        "eval_interval": 8,
        "max_steps": 50,
        "data_seed": 6,
    }
    assert set(changed) == {f.name for f in fields(Workload)}
    keys = [trial_key(replace(wl, **{name: value}), point, ETA, seed, index)
            for name, value in changed.items()]
    keys += [trial_key(wl, StudyPoint(32, 0.5), ETA, seed, index),
             trial_key(wl, StudyPoint(16, 0.7), ETA, seed, index),
             trial_key(wl, point, {"eta_bar": 0.2}, seed, index),
             trial_key(wl, point, {**ETA, "momentum_coeff": 0.9}, seed, index),
             trial_key(wl, point, ETA, seed + 1, index),
             trial_key(wl, point, ETA, seed, index + 1)]
    assert len(set(keys + [key])) == len(keys) + 1


def smoke_config(goal=0.25, budget=3):
    return StudyConfig(
        workload=smoke_workload(goal=goal),
        batch_sizes=[8, 16],
        sparsities=[0.0],
        budget=budget,
        seed=1,
        search_spaces=[SearchSpace("eta_bar", "log10", 0.02, 0.3)],
    )


def test_study_without_trials_or_with_a_point_twice_is_a_config_error(tmp_path):
    cfg = smoke_config()
    for edit in ({"budget": 0}, {"sparsities": []}, {"batch_sizes": [8, 8.0]},
                 {"sparsities": [0, 0.0]}):
        with pytest.raises(ConfigError):
            replace(cfg, **edit)
    with pytest.raises(ConfigError, match="workers must be >= 1, got 0"):
        run_study(cfg, tmp_path / "records.jsonl", workers=0)
    assert not (tmp_path / "records.jsonl").exists()


def test_run_study_single_trial_trivial_goal(tmp_path):
    cfg = smoke_config(goal=1.0, budget=1)
    cfg.batch_sizes = [8]
    table = run_study(cfg, tmp_path / "records.jsonl")
    assert table.cell(8, 0.0).k_star == 16


def test_run_study_resume_skips_completed_trials(tmp_path):
    cfg = smoke_config()
    path = tmp_path / "records.jsonl"
    first = run_study(cfg, path)
    executed = []
    second = run_study(cfg, path, progress=executed.append)
    assert executed == []   # nothing re-run
    for c1, c2 in zip(first.cells, second.cells):
        assert c1 == c2
    keys = [json.loads(line)["trial_key"] for line in path.read_text().splitlines()]
    assert len(keys) == len(set(keys)) == len(planned_trials(cfg))


def test_run_study_resumes_after_interruption(tmp_path):
    cfg = smoke_config()
    path = tmp_path / "records.jsonl"
    full = run_study(cfg, path)
    lines = path.read_text().splitlines()
    # keep a prefix plus a torn final line, as if the process died mid-append
    path.write_text("\n".join(lines[:2]) + "\n" + lines[2][:25])
    resumed = run_study(cfg, path)
    for c1, c2 in zip(full.cells, resumed.cells):
        assert c1 == c2
    # the torn trial was redone; every planned key is present exactly once
    loaded = load_records(path)
    assert set(loaded) == {key for *_, key in planned_trials(cfg)}


def test_resume_reruns_records_of_an_older_schema(tmp_path):
    cfg = smoke_config(budget=2)
    cfg.sparsities = [0.5]
    path = tmp_path / "records.jsonl"
    fresh = run_study(cfg, path)
    stale = []
    for line in path.read_text().splitlines():
        d = json.loads(line)
        d.update(schema=RECORD_SCHEMA - 1, status=COMPLETE, steps_to_goal=1)
        stale.append(json.dumps(d, sort_keys=True))
    path.write_text("\n".join(stale) + "\n")
    assert load_records(path) == {}

    executed = []
    resumed = run_study(cfg, path, progress=executed.append)
    planned = {key for *_, key in planned_trials(cfg)}
    assert {r.trial_key for r in executed} == planned
    assert resumed == fresh
    loaded = load_records(path)
    assert set(loaded) == planned
    assert all(r.schema == RECORD_SCHEMA for r in loaded.values())


def test_run_study_parallel_matches_serial(tmp_path):
    cfg = smoke_config(budget=2)
    serial = run_study(cfg, tmp_path / "serial.jsonl", workers=1)
    parallel = run_study(cfg, tmp_path / "parallel.jsonl", workers=2)
    for c1, c2 in zip(serial.cells, parallel.cells):
        assert c1 == c2
    assert (load_records(tmp_path / "serial.jsonl")
            == load_records(tmp_path / "parallel.jsonl"))


def bundled_openblas():
    """numpy's bundled OpenBLAS, or None where numpy has none."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            lib.scipy_openblas_get_num_threads64_.argtypes = ()
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            lib.scipy_openblas_set_num_threads64_.argtypes = (ctypes.c_int,)
            lib.scipy_openblas_set_num_threads64_.restype = None
            return lib
    return None


def blas_threads():
    return bundled_openblas().scipy_openblas_get_num_threads64_()


def test_pool_workers_run_one_blas_thread(tmp_path, monkeypatch):
    lib = bundled_openblas()
    if lib is None:
        pytest.skip("numpy has no bundled OpenBLAS to ask")
    seen = []

    class SpyPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append(self.submit(blas_threads).result())

    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)     # forked workers inherit this
    monkeypatch.setattr(harness, "ProcessPoolExecutor", SpyPool)
    try:
        run_study(smoke_config(budget=2), tmp_path / "records.jsonl", workers=2)
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
    assert seen == [1]


def test_summary_roundtrip(tmp_path):
    cfg = smoke_config(budget=2)
    table = run_study(cfg, tmp_path / "records.jsonl")
    path = tmp_path / "summary.csv"
    write_summary(table, path)
    rows = read_table(path, "summary")
    assert len(rows) == len(table.cells)
    for row, cell in zip(rows, table.cells):
        assert row["B"] == cell.batch_size
        assert row["K_star"] == cell.k_star
        assert int(row["n_complete"]) == cell.n_complete
    header = path.read_text().splitlines()[1]
    assert header == ("B,s,K_star,eta_star,momentum_star,"
                      "n_complete,n_stopped,n_incomplete,n_infeasible")


def test_aggregate_is_order_independent():
    cfg = smoke_config(budget=2)
    plan = planned_trials(cfg)
    records = [run_trial(cfg.workload, point, mp, seed, i)
               for point, i, mp, seed, _ in plan]
    forward = aggregate(records, cfg)
    backward = aggregate(records[::-1], cfg)
    assert forward == backward


def test_load_records_ignores_garbage_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    rec = TrialRecord("k1", 8, 0.0, 0, ETA, 0, COMPLETE, 32, [(16, 0.5)], 1.0)
    # torn JSON, a history that is not a list of pairs, a byte that is not UTF-8
    garbage = [b"{not json", b'{"history": "x"}', b'{"history": [[1,2,3]]}',
               b'{"trial_key": "\xff"}']
    # records of the right shape with a field of the wrong type or value
    wrong = [{"steps_to_goal": "16"}, {"steps_to_goal": 16.0}, {"status": "done"},
             {"batch_size": 8.0}, {"batch_size": True}, {"sparsity": False},
             {"final_loss": None}, {"seed": "0"}, {"metaparams": [0.1]},
             {"history": [["16", 0.5]]}, {"history": [[16, None]]},
             {"metaparams": {"eta_bar": "0.1"}}, {"metaparams": {"eta_bar": True}},
             {"metaparams": {"eta_bar": {"value": 0.1}}}]
    lines = [rec.to_json().encode(), *garbage]
    lines += [json.dumps({**json.loads(rec.to_json()), **w,
                          "trial_key": f"w{i}"}).encode() for i, w in enumerate(wrong)]
    # JSON writes an int-valued float as an int
    lines.append(json.dumps({**json.loads(rec.to_json()), "trial_key": "k2",
                             "sparsity": 0, "final_loss": 1}).encode())
    path.write_bytes(b"\n".join([*lines, b""]))
    loaded = load_records(path)
    assert set(loaded) == {"k1", "k2"}
    assert loaded["k1"].history == [(16, 0.5)]


# ---------------------------------------------------------------------------
# Lockstep cells
# ---------------------------------------------------------------------------

# the second and the fourth trial diverge mid-stack
CELL_ETAS = {"simple-mlp": (0.05, 5.0, 0.5, 100.0), "cnn-lite": (0.05, 1e3, 0.5, 1e4)}


def cell_workload(arch, algorithm):
    # separation 1: no evaluation reaches the goal, so no cell stops early
    wl = replace(overlapping_workload(goal=0.0, max_steps=48, algorithm=algorithm),
                 eval_interval=8)
    if arch == "cnn-lite":
        wl = replace(wl, dataset={**wl.dataset, "dims": 32},
                     model_spec=ModelSpec("cnn-lite", (4, 4, 2), (3, 4), 4, seed=3))
    return wl


def cell_trials(algorithm, etas):
    momentum = {} if algorithm == "sgd" else {"momentum_coeff": 0.9}
    return [(i, {"eta_bar": eta, **momentum}, 2 + i) for i, eta in enumerate(etas)]


def spy_on_steps(monkeypatch):
    """Per eta_bar, a digest of the trial's parameter bytes after each step
    that left them finite, whatever stack the step ran in."""
    seen = {}
    real_step = harness.step

    def spy(model, grad, config, state):
        try:
            return real_step(model, grad, config, state)
        finally:
            for row, eta in zip(model.params.reshape(model.trials, -1), config.eta_bar.ravel()):
                if np.isfinite(row).all():
                    seen.setdefault(float(eta), hashlib.sha256()).update(row.tobytes())

    monkeypatch.setattr(harness, "step", spy)
    return seen


@pytest.mark.parametrize("arch", ["simple-mlp", "cnn-lite"])
@pytest.mark.parametrize("algorithm", ["sgd", "momentum", "nesterov"])
@pytest.mark.parametrize("stack", [1, 2, 4])
def test_a_stacked_cell_gives_each_trial_the_bytes_and_record_of_run_trial(
        monkeypatch, arch, algorithm, stack):
    wl, point = cell_workload(arch, algorithm), StudyPoint(8, 0.5)
    trials = cell_trials(algorithm, CELL_ETAS[arch])
    seen = spy_on_steps(monkeypatch)
    alone = [run_trial(wl, point, mp, seed, i) for i, mp, seed in trials]
    alone_bytes = {eta: d.hexdigest() for eta, d in seen.items()}
    assert [r.status for r in alone] == [INCOMPLETE, INFEASIBLE, INCOMPLETE, INFEASIBLE]
    seen.clear()
    monkeypatch.setattr(harness, "STACK_ELEMENTS",
                        stack * point.batch_size * harness._sample_elements(wl.model_spec))
    assert harness.stack_size(wl.model_spec, point.batch_size) == stack
    assert harness.run_cell(wl, point, trials) == alone
    assert {eta: d.hexdigest() for eta, d in seen.items()} == alone_bytes


@pytest.mark.parametrize("eval_interval", [1, 2], ids=["in-evaluation", "in-training"])
def test_an_overflow_ends_only_its_own_trial(monkeypatch, eval_interval):
    # eta 1e200: the first step leaves finite weights whose forward pass
    # overflows, in the evaluation after it or in the second step's forward
    raised = []
    real_forward = nn.forward

    def spy(model, inputs):
        try:
            return real_forward(model, inputs)
        except NumericOverflow as e:
            raised.append(e.trials)
            raise

    monkeypatch.setattr(nn, "forward", spy)
    wl = replace(smoke_workload(goal=0.0, max_steps=4), eval_interval=eval_interval)
    point = StudyPoint(16, 0.0)
    trials = cell_trials("sgd", (0.1, 1e200, 0.05))
    with np.errstate(over="ignore"):
        alone = [run_trial(wl, point, mp, seed, i) for i, mp, seed in trials]
        cell = harness.run_cell(wl, point, trials)
    assert cell == alone
    assert [r.status for r in cell] == [INCOMPLETE, INFEASIBLE, INCOMPLETE]
    assert cell[1].history == [] and len(cell[0].history) == 4 // eval_interval
    assert np.isfinite(cell[1].final_loss)
    # the stacked training forward names the trial by its row
    assert [list(t) for t in raised if t is not None and len(t)] == (
        [[0], [1]] if eval_interval == 2 else [[0], [0]])


def test_a_cell_stops_at_its_first_goal_and_keeps_k_star_and_the_best_trial():
    wl = smoke_workload()
    point = StudyPoint(8, 0.0)
    # fast, slow, diverged at once, and two that reach the goal together
    trials = cell_trials("sgd", (0.003, 0.05, 1e6, 0.2, 0.3))
    alone = [run_trial(wl, point, mp, seed, i) for i, mp, seed in trials]
    cell = harness.run_cell(wl, point, trials)
    best = best_trial(alone)
    k_star = best.steps_to_goal
    assert best_trial(cell) == best
    for a, c in zip(alone, cell):
        if a.status == COMPLETE and a.steps_to_goal == k_star:
            assert c == a
        elif a.status == INFEASIBLE and len(a.history) * wl.eval_interval < k_star:
            assert c == a
        else:
            assert c.status == STOPPED and c.steps_to_goal is None
            assert c.history == [(k, e) for k, e in a.history if k <= k_star]
            assert c.history[-1][0] == k_star
    assert sorted({c.status for c in cell}) == [COMPLETE, INFEASIBLE, STOPPED]
    assert sum(c.status == COMPLETE for c in cell) >= 2


def test_a_stopped_trial_keeps_its_loss_at_k_star():
    wl = smoke_workload()
    point = StudyPoint(8, 0.0)
    fast, slow = cell_trials("sgd", (0.2, 0.003))
    k_star = run_trial(wl, point, fast[1], fast[2], fast[0]).steps_to_goal
    cut = run_trial(replace(wl, max_steps=k_star, goal_error=0.0), point, slow[1],
                    slow[2], slow[0])
    _, stopped = harness.run_cell(wl, point, [fast, slow])
    assert stopped.status == STOPPED and cut.status == INCOMPLETE
    assert stopped.final_loss == cut.final_loss
    assert stopped.history == cut.history


def stopping_config():
    cfg = smoke_config(budget=4)
    cfg.search_spaces = [SearchSpace("eta_bar", "log10", 0.003, 0.3)]
    return cfg


def test_a_cell_with_a_stopped_trial_writes_the_same_records_at_one_and_two_workers(tmp_path):
    cfg = stopping_config()
    serial = run_study(cfg, tmp_path / "serial.jsonl", workers=1)
    parallel = run_study(cfg, tmp_path / "parallel.jsonl", workers=2)
    assert serial == parallel
    lines = {name: sorted((tmp_path / f"{name}.jsonl").read_bytes().splitlines())
             for name in ("serial", "parallel")}
    assert lines["serial"] == lines["parallel"]
    assert any(b'"status": "stopped"' in line for line in lines["serial"])
    assert all(c.n_stopped > 0 for c in serial.cells)


def test_a_cell_missing_one_record_runs_again_and_gives_the_same_table(tmp_path):
    cfg = stopping_config()
    path = tmp_path / "records.jsonl"
    full = run_study(cfg, path)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:1] + lines[2:]))
    executed = []
    again = run_study(cfg, path, progress=executed.append)
    assert again == full
    assert [r.to_json().encode() + b"\n" for r in executed] == [lines[1]]
    assert sorted(path.read_bytes().splitlines(keepends=True)) == sorted(lines)


def budget_config(budget):
    cfg = smoke_config(budget=budget)
    # at B=8 the third trial reaches the goal first and stops the first,
    # which alone reaches it later; at B=16 the first two set K*
    cfg.search_spaces = [SearchSpace("eta_bar", "log10", 0.3, 2.13)]
    return cfg


@pytest.mark.parametrize("first, then", [(4, 2), (2, 4)])
def test_a_study_rerun_at_another_budget_matches_a_fresh_run(tmp_path, first, then):
    path, fresh_path = tmp_path / "records.jsonl", tmp_path / "fresh.jsonl"
    before = run_study(budget_config(first), path)
    executed = []
    again = run_study(budget_config(then), path, progress=executed.append)
    fresh = run_study(budget_config(then), fresh_path)
    assert again == fresh
    assert before.cell(8, 0.0).k_star != fresh.cell(8, 0.0).k_star
    planned = {key for *_, key in planned_trials(budget_config(then))}
    assert ({k: r.to_json() for k, r in load_records(path).items() if k in planned}
            == {k: r.to_json() for k, r in load_records(fresh_path).items()})
    # the B=16 cell keeps its K*, so a lower budget reuses its records; a
    # rerun cell appends only the records it changed or that were missing
    rerun = {(r.batch_size, r.trial_index) for r in executed}
    assert rerun == ({(8, 0)} if then == 2 else
                     {(8, 0), (8, 2), (8, 3), (16, 2), (16, 3)})


def cut_record(status, last_step, steps_to_goal=None):
    history = [(k, 0.5) for k in range(16, last_step + 1, 16)]
    return TrialRecord("k", 8, 0.0, 0, ETA, 0, status, steps_to_goal, history, 1.0)


@pytest.mark.parametrize("records, whole", [
    ([cut_record(INCOMPLETE, 64), cut_record(INFEASIBLE, 32)], True),
    ([cut_record(STOPPED, 32), cut_record(INCOMPLETE, 64)], False),
    ([cut_record(COMPLETE, 32, 32), cut_record(STOPPED, 32), cut_record(INFEASIBLE, 16)], True),
    ([cut_record(COMPLETE, 32, 32), cut_record(COMPLETE, 48, 48)], False),
    ([cut_record(COMPLETE, 32, 32), cut_record(STOPPED, 48)], False),
    ([cut_record(COMPLETE, 32, 32), cut_record(INFEASIBLE, 32)], False),
    ([cut_record(COMPLETE, 32, 32), cut_record(INCOMPLETE, 64)], False),
], ids=["uncut", "stopped-without-goal", "cut", "two-k-star", "stopped-elsewhere",
        "infeasible-past-k-star", "incomplete-beside-goal"])
def test_a_cell_reuses_only_records_of_one_run_of_it(records, whole):
    assert harness.one_run_of_the_cell(records) is whole


def test_stack_size_follows_the_largest_activation():
    mlp = ModelSpec("simple-mlp", (8,), (96, 48), 16, seed=3)
    cnn = ModelSpec("cnn-lite", (28, 28, 1), (8, 16), 4, seed=3)
    assert harness._sample_elements(mlp) == 96
    assert harness._sample_elements(cnn) == 14 * 14 * 9 * 8    # conv2's patch matrix
    assert harness.stack_size(mlp, 128) >= 2
    assert harness.stack_size(cnn, 16) == 2
    assert harness.stack_size(cnn, 64) == 1
