"""Print one sha256 over every bit a pure speedup of the engine must keep.

    python3 tools/same_bits.py <checkout>

Imports sparselab from `<checkout>/src` and hashes, in a fixed order:

- a 54-trial grid, {sgd, momentum, nesterov} x {cnn-lite at 28x28x1 with
  widths (8, 16) on 784-dim Gaussian blobs, the acceptance MLP} x
  s in {0, 0.5, 0.9} x B in {2, 16, 64}, 24 steps each with an evaluation
  every 8: the parameter bytes after every step and the trial record,
  its validation errors and final loss unrounded;
- the bytes of `nn.full_gradient` over each model's training split, at
  s = 0 and 0.9, after `prune_at_init`;
- `analysis.estimate_beta` on the same nets, as float hex;
- `analysis.trace_smoothness` (its L estimates, losses and beta) for each
  model at s = 0 and 0.9;
- 24 stacked cells (`run_cell`), the same workloads with goal error 0.5 x
  {sgd, momentum, nesterov} x s in {0, 0.9} x B in {2, 16}, each of four
  trials at eta in {0.003, 0.05, 0.5, 1e3}: each record, its validation
  errors and final loss unrounded. Every cell stacks two or more trials,
  and the cells write complete, stopped, incomplete and infeasible
  records, some infeasible ones after the cell's first evaluation.

Run it on two checkouts under the same thread settings, for example a
`git archive` of the parent commit and the working tree, once with
OPENBLAS_NUM_THREADS=1 and once with the library default. Equal digests
mean the change moved none of these bits. Each part's own digest goes to
stderr, to say where two runs part. A sweep runs each chunk at one
OpenBLAS thread, so one checkout gives the same digest under both
settings.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import replace


def _import(checkout):
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isdir(os.path.join(src, "sparselab")):
        sys.exit(f"no sparselab package under {src}")
    sys.path.insert(0, src)
    import sparselab
    if not os.path.abspath(sparselab.__file__).startswith(src + os.sep):
        sys.exit(f"imported sparselab from {sparselab.__file__}, not {src}")


def workloads():
    from sparselab.harness import Workload
    from sparselab.models import ModelSpec
    from sparselab.optim import ScheduleSpec

    mlp = Workload(
        id="acceptance",
        dataset={"kind": "synth", "classes": 16, "dims": 8, "per_class": 1250,
                 "separation": 6.0, "seed": 7, "train_label_noise": 0.45},
        model_spec=ModelSpec("simple-mlp", (8,), (96, 48), 16, seed=3),
        algorithm="sgd", schedule=ScheduleSpec("constant"), goal_error=0.1,
        eval_interval=8, max_steps=24, data_seed=5)
    cnn = replace(mlp, id="cnn-lite",
                  dataset={"kind": "synth", "classes": 4, "dims": 784, "per_class": 100,
                           "separation": 6.0, "seed": 7},
                  model_spec=ModelSpec("cnn-lite", (28, 28, 1), (8, 16), 4, seed=3))
    return cnn, mlp


def metaparams(algorithm):
    return {"eta_bar": 0.05} if algorithm == "sgd" else {"eta_bar": 0.05, "momentum_coeff": 0.9}


def grid(digest):
    from sparselab.harness import StudyPoint, run_trial

    for algorithm in ("sgd", "momentum", "nesterov"):
        for wl in workloads():
            wl = replace(wl, algorithm=algorithm)
            for s in (0.0, 0.5, 0.9):
                for b in (2, 16, 64):
                    rec = run_trial(wl, StudyPoint(b, s), metaparams(algorithm), seed=3,
                                    step_hook=lambda model, k: digest.update(model.params.tobytes()))
                    digest.update(f"{rec.to_json()} {rec.history!r} {rec.final_loss!r}".encode())


def cells(digest):
    from sparselab.harness import STATUSES, StudyPoint, run_cell, stack_size

    statuses = set()
    for algorithm in ("sgd", "momentum", "nesterov"):
        for wl in workloads():
            wl = replace(wl, algorithm=algorithm, goal_error=0.5)
            for s in (0.0, 0.9):
                for b in (2, 16):
                    if stack_size(wl.model_spec, b) < 2:
                        sys.exit(f"{wl.id} at B={b} stacks one trial; pick another batch size")
                    trials = [(i, {**metaparams(algorithm), "eta_bar": eta}, 3 + i)
                              for i, eta in enumerate((0.003, 0.05, 0.5, 1e3))]
                    for rec in run_cell(wl, StudyPoint(b, s), trials):
                        statuses.add(rec.status)
                        digest.update(f"{rec.to_json()} {rec.history!r} "
                                      f"{rec.final_loss!r}".encode())
    if statuses != set(STATUSES):
        sys.exit(f"the cells wrote only {sorted(statuses)} records")


def gradients_and_beta(digest):
    from sparselab import analysis, nn
    from sparselab.harness import prune_at_init, resolve_dataset
    from sparselab.models import build_model

    for wl in workloads():
        train, _ = resolve_dataset(wl)
        for s in (0.0, 0.9):
            model = prune_at_init(build_model(wl.model_spec), train, s, wl.data_seed)
            digest.update(nn.full_gradient(model, train.inputs, train.labels).flat.tobytes())
            beta = analysis.estimate_beta(model, train.inputs, train.labels)
            digest.update(float(beta).hex().encode())


def traces(digest):
    from sparselab import analysis
    from sparselab.harness import StudyPoint

    for wl in workloads():
        for s in (0.0, 0.9):
            trace = analysis.trace_smoothness(wl, StudyPoint(16, s), {"eta_bar": 0.01},
                                              stride=40, num_steps=120, seed=101)
            digest.update(repr((trace.entries, trace.losses, trace.beta)).encode())


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: python3 tools/same_bits.py <checkout>")
    _import(argv[1])
    total = hashlib.sha256()
    for part in (grid, gradients_and_beta, traces, cells):
        digest = hashlib.sha256()
        part(digest)
        print(f"{part.__name__} {digest.hexdigest()}", file=sys.stderr)
        total.update(digest.digest())
    print(total.hexdigest())


if __name__ == "__main__":
    main(sys.argv)
