"""Each output check accepts the program's real outputs and rejects a
deliberately wrong value."""

import math
from dataclasses import replace

import numpy as np
import pytest

import checks as c
import workloads
from run import Runner
from sparselab.harness import (StudyConfig, Workload, load_records, prune_at_init,
                               resolve_dataset, run_study)
from sparselab.models import ModelSpec, build_model
from sparselab.optim import ScheduleSpec
from sparselab.quasirand import SearchSpace


def small_study(tmp_path, sparsities=(0.0, 0.5)):
    wl = Workload(
        id="check-smoke",
        dataset={"kind": "synth", "classes": 4, "dims": 6, "per_class": 120,
                 "separation": 3.0, "seed": 7},
        model_spec=ModelSpec("simple-mlp", (6,), (8,), 4, seed=3),
        algorithm="sgd", schedule=ScheduleSpec("constant"), goal_error=0.1,
        eval_interval=16, max_steps=400, data_seed=5)
    cfg = StudyConfig(wl, [8, 32], list(sparsities), 2, 1,
                      [SearchSpace("eta_bar", "log10", 0.02, 0.3)])
    path = tmp_path / "records.jsonl"
    table = run_study(cfg, path, workers=1)
    records = sorted(load_records(path).values(), key=lambda r: r.trial_key)
    return cfg, table, records


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    return small_study(tmp_path_factory.mktemp("study"))


def test_study_checks_pass_on_real_outputs(study):
    cfg, table, records = study
    assert any(r.status == "complete" for r in records)
    checks = c.Checks()
    c.check_study(checks, cfg, table, records)
    assert checks.failures == []
    assert checks.attempted > 4 * len(table.cells)


def test_wrong_k_star_is_rejected(study):
    cfg, table, records = study
    cell = next(x for x in table.cells if x.k_star is not None)
    cell.k_star += cfg.workload.eval_interval
    try:
        checks = c.Checks()
        c.check_study(checks, cfg, table, records)
    finally:
        cell.k_star -= cfg.workload.eval_interval
    assert any("table K*" in f for f in checks.failures)


def best_trials(records):
    """The fastest complete trial of each (B, s) cell."""
    best = {}
    for r in sorted(records, key=lambda r: (r.steps_to_goal or 0, r.trial_key)):
        if r.status == "complete":
            best.setdefault((r.batch_size, r.sparsity), r)
    return best


def test_error_just_above_the_goal_is_rejected(study):
    cfg, table, records = study
    # the best trial's error at K* sits just above a goal lowered below it
    err_at_k, (b, s) = max((dict(r.history)[r.steps_to_goal], key)
                           for key, r in best_trials(records).items())
    assert err_at_k > 0.0
    lowered = replace(cfg, workload=replace(cfg.workload, goal_error=err_at_k - 1e-9),
                      batch_sizes=[b], sparsities=[s])
    checks = c.Checks()
    c.check_study(checks, lowered, table, records)
    assert any("above goal" in f for f in checks.failures)


def test_goal_reached_one_evaluation_before_k_star_is_rejected(study):
    cfg, table, records = study
    ei = cfg.workload.eval_interval
    (b, s), best = next((key, r) for key, r in best_trials(records).items()
                        if r.steps_to_goal > ei)
    earlier = dict(best.history)[best.steps_to_goal - ei]
    # the history keeps 6 digits; the goal must cover the unrounded error
    raised = replace(cfg, workload=replace(cfg.workload, goal_error=earlier + 1e-6),
                     batch_sizes=[b], sparsities=[s])
    checks = c.Checks()
    c.check_study(checks, raised, table, records)
    assert any("within goal" in f for f in checks.failures)


def test_mask_checks_reject_a_nonzero_masked_weight_and_a_wrong_count():
    spec = ModelSpec("simple-mlp", (6,), (8,), 4, seed=3)
    m = c.param_count(spec)
    mask = np.ones(m)
    mask[:m // 2] = 0.0
    params = np.random.default_rng(0).normal(size=m) * mask
    good = c.Checks()
    c.check_mask(good, "ok", spec, 0.5, params, mask)
    assert good.failures == [] and good.attempted == 2

    leaked = params.copy()
    leaked[0] = 1e-12
    bad = c.Checks()
    c.check_mask(bad, "leak", spec, 0.5, leaked, mask)
    assert any("masked weights are non-zero" in f for f in bad.failures)

    short = mask.copy()
    short[-1] = 0.0
    bad = c.Checks()
    c.check_mask(bad, "count", spec, 0.5, params * short, short)
    assert any("kept" in f for f in bad.failures)


def test_numpy_forward_matches_the_engine_on_both_architectures():
    from sparselab import nn
    for spec, shape in ((ModelSpec("simple-mlp", (6,), (8, 5), 4, seed=3), (6,)),
                        (ModelSpec("cnn-lite", (4, 6, 2), (3, 5), 4, seed=3), (4, 6, 2))):
        model = build_model(spec)
        model.mask[::3] = 0.0
        x = np.random.default_rng(1).normal(size=(7, *shape))
        want, _ = nn.forward(model, x)
        got = c.logits(spec, model.params, model.mask, x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("trace") / "config.json")
    cfg = workloads.setup(workloads.write_config("trace-mlp", 3, path))
    return cfg, workloads.trace_round(cfg, 3)


def run_trace_checks(cfg, rnd):
    checks = c.Checks()
    bx, by = workloads.beta_subset(cfg, 3)
    c.check_trace(checks, cfg, rnd, 3, workloads.TRACE_STRIDE, workloads.TRACE_STEPS,
                  workloads.TRACE_ETA, bx, by)
    return checks


def test_trace_checks_pass_on_real_outputs(trace):
    checks = run_trace_checks(*trace)
    assert checks.failures == []
    assert checks.attempted == 3 * len(trace[0].sparsities)


def test_perturbed_beta_is_rejected(trace):
    cfg, rnd = trace
    wrong = replace(rnd, betas={s: b * (1 + 1e-6) for s, b in rnd.betas.items()})
    checks = run_trace_checks(cfg, wrong)
    assert sum("estimate_beta" in f for f in checks.failures) == len(cfg.sparsities)


def test_perturbed_lipschitz_estimate_is_rejected(trace):
    cfg, rnd = trace
    bumped = {s: replace(t, entries=[(k, None if v is None else v * (1 + 1e-5))
                                     for k, v in t.entries])
              for s, t in rnd.traces.items()}
    checks = run_trace_checks(cfg, replace(rnd, traces=bumped))
    assert sum("Lipschitz" in f for f in checks.failures) == len(cfg.sparsities)


def test_per_example_moments_reproduce_a_loop_over_samples():
    from sparselab import nn
    spec = ModelSpec("simple-mlp", (6,), (8,), 4, seed=3)
    wl = Workload(id="m", dataset={"kind": "synth", "classes": 4, "dims": 6,
                                   "per_class": 30, "separation": 3.0, "seed": 7},
                  model_spec=spec, algorithm="sgd", schedule=ScheduleSpec("constant"),
                  goal_error=0.1, eval_interval=16, max_steps=10, data_seed=5)
    train, _ = resolve_dataset(wl)
    model = prune_at_init(build_model(spec), train, 0.5, wl.data_seed)
    mean, sq = c.mlp_gradient_moments(spec, model.params, model.mask,
                                      train.inputs, train.labels)
    grads = [nn.batch_gradient(model, train.inputs[i:i + 1], train.labels[i:i + 1])[2].flat
             for i in range(len(train))]
    np.testing.assert_allclose(mean, np.mean(grads, axis=0), rtol=1e-10, atol=1e-14)
    assert math.isclose(sq, float(np.mean([g @ g for g in grads])), rel_tol=1e-10)


def test_rounds_with_different_records_are_rejected(study):
    _, _, records = study
    ref = workloads.Round(1.0, len(records), 0, 1.0, [r.to_json() for r in records])
    other = replace(ref, outputs=ref.outputs[:-1] + [ref.outputs[-1].replace("0", "1", 1)])
    checks = c.Checks()
    Runner.same(checks, [ref, other], ref, "reference")
    assert checks.attempted == 2 and len(checks.failures) == 1
