"""The benchmark's workloads: generated inputs and one round of each.

A round is one call of the program's public entry points on the inputs
that `write_config` generated from the seed, in a fresh, empty results
directory:

* study-mlp / study-cnn: `harness.run_study` over the grid below.
* trace-mlp: `analysis.trace_smoothness`, then `analysis.estimate_beta`,
  at each sparsity, in this process (no pool, no validation pass).

The seed sets the trial seeds of the study (each trial's mini-batch
order), the trace's mini-batch order, and which training samples
estimate_beta runs over. The dataset, its validation split and label
flips, the model inits and the grids are fixed, so every seed poses the
same task at about the same cost: with the split drawn from the seed too,
the step count of a round of an earlier 8x8 cnn workload moved by 17%
between seeds. study-cnn's images are generated once per run, from a fixed
seed, into the run's directory.
"""

from __future__ import annotations

import json
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from sparselab import analysis
from sparselab.config import load_config
from sparselab.harness import StudyPoint, load_records, prune_at_init, resolve_dataset, run_study
from sparselab.models import build_model

WORKLOADS = ("study-mlp", "trace-mlp", "study-cnn")

# The acceptance workload: simple-mlp 8->96->48->16 on 16 Gaussian blobs
# whose training labels are 45% corrupted, goal error 0.1, SGD over the
# acceptance learning-rate range. The cap keeps a round to a few seconds:
# dense cells at B >= 16 complete under it and no s=0.9 trial does.
MLP_WORKLOAD = {
    "dataset": {"kind": "synth", "classes": 16, "dims": 8, "per_class": 1250,
                "separation": 6.0, "seed": 7, "train_label_noise": 0.45},
    "model": {"arch": "simple-mlp", "input_shape": [8], "widths": [96, 48],
              "classes": 16, "seed": 3},
    "algorithm": "sgd",
    "schedule": {"kind": "constant"},
    "goal_error": 0.1,
    "eval_interval": 16,
    "max_steps": 512,
    "data_seed": 5,
}
MLP_SEARCH = [{"name": "eta_bar", "scale": "log10", "low": 0.003, "high": 0.03}]

# cnn-lite at the shape of the shipped MNIST and Fashion-MNIST configs:
# 28x28x1 images, widths [8, 16], read through the IDX loader those configs
# use. The images are generated (the repo ships no image data): streaks of
# one orientation per class, bright on a dark background as in MNIST.
# Flat Gaussian blobs reshaped to 28x28 were tried first; their class
# information sits in pixel positions, which cnn-lite's global mean pool
# discards, and validation error stayed at chance (0.71-0.78) after 96
# steps. A step at B=64 takes 23 to 40 ms, so the cap is 16 steps and no
# trial reaches the goal: every trial runs to the cap and a round's work is
# the same for every seed.
CNN_WORKLOAD = {
    "dataset": {"kind": "idx", "images": "images.idx", "labels": "labels.idx"},
    "model": {"arch": "cnn-lite", "input_shape": [28, 28, 1], "widths": [8, 16],
              "classes": 4, "seed": 3},
    "algorithm": "momentum",
    "schedule": {"kind": "constant"},
    "goal_error": 0.2,
    "eval_interval": 8,
    "max_steps": 16,
    "data_seed": 5,
}
CNN_SEARCH = [{"name": "eta_bar", "scale": "log10", "low": 0.03, "high": 0.3},
              {"name": "momentum_coeff", "scale": "linear", "low": 0.8, "high": 0.95}]
CNN_IMAGES = {"per_class": 250, "side": 28, "streak": 5, "contrast": 250.0, "seed": 7}
# Pixel offsets summed into a streak, one direction per class:
# horizontal, diagonal, vertical, anti-diagonal.
STREAK_DIRECTIONS = ((0, 1), (1, 1), (1, 0), (1, -1))

GRIDS = {
    "study-mlp": {"batch_sizes": [2, 16, 128, 512], "sparsities": [0.0, 0.9]},
    "study-cnn": {"batch_sizes": [2, 16, 64], "sparsities": [0.0, 0.9]},
    "trace-mlp": {"batch_sizes": [16], "sparsities": [0.0, 0.9]},
}
BUDGET = 2

# trace-mlp: the AC-5 trace at B=16, eta=0.01, shortened to 4 estimates per
# sparsity; beta over a fixed-size sample of the training split.
TRACE_ETA = 0.01
TRACE_STRIDE = 100
TRACE_STEPS = 400
BETA_SAMPLES = 3000


def write_config(name: str, seed: int, path: str) -> str:
    """Write the workload's study config for `seed` as a JSON config file."""
    base, search = (CNN_WORKLOAD, CNN_SEARCH) if name == "study-cnn" else (MLP_WORKLOAD, MLP_SEARCH)
    tree = {
        "schema_version": 1,
        "workload": dict(base, id=f"bench-{name}"),
        "study": GRIDS[name],
        "budget": BUDGET,
        "seed": seed,
        "search_spaces": search,
    }
    if name == "study-cnn":
        root = os.path.dirname(os.path.abspath(path))
        write_idx(root, *streak_images(**CNN_IMAGES))
        tree["data_root"] = root
    with open(path, "w") as f:
        json.dump(tree, f, indent=1)
    return path


def streak_images(per_class, side, streak, contrast, seed):
    """uint8 images whose class is the direction of their streaks: white
    noise summed along the class's direction over `streak` pixels, with
    only the values above one standard deviation kept as bright pixels."""
    rng = np.random.default_rng(seed)
    classes = len(STREAK_DIRECTIONS)
    pad = streak // 2
    images = np.empty((classes * per_class, side, side))
    labels = np.empty(classes * per_class, dtype=np.uint8)
    for c, (dy, dx) in enumerate(STREAK_DIRECTIONS):
        noise = rng.normal(size=(per_class, side + 2 * pad, side + 2 * pad))
        summed = sum(noise[:, pad + k * dy:pad + k * dy + side, pad + k * dx:pad + k * dx + side]
                     for k in range(-pad, pad + 1)) / np.sqrt(streak)
        images[c::classes] = summed
        labels[c::classes] = c
    pixels = np.clip(np.rint(contrast * np.maximum(images - 1.0, 0.0)), 0, 255)
    return pixels.astype(np.uint8), labels


def write_idx(root: str, images, labels):
    """Write images.idx and labels.idx in the IDX format that
    `data.load_idx` reads (MNIST's)."""
    n, rows, cols = images.shape
    with open(os.path.join(root, "images.idx"), "wb") as f:
        f.write(struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes())
    with open(os.path.join(root, "labels.idx"), "wb") as f:
        f.write(struct.pack(">II", 0x801, n) + labels.tobytes())


def setup(config_path: str):
    """Everything before the first trial or trace: config and dataset."""
    cfg = load_config(config_path)
    resolve_dataset(cfg.workload, cfg.data_root)
    return cfg


def beta_subset(cfg, seed: int):
    """The training samples estimate_beta runs over, drawn from the seed."""
    train, _ = resolve_dataset(cfg.workload, cfg.data_root)
    idx = np.sort(np.random.default_rng([seed, 0xBE7A]).choice(
        len(train), size=BETA_SAMPLES, replace=False))
    return train.inputs[idx], train.labels[idx]


@dataclass
class Round:
    """What one round produced, and how long it took."""
    wall_s: float
    operations: int               # trials (study) or estimates (trace)
    train_steps: int
    train_s: float                # the phase the steps ran in: all of a study,
                                  # the traces (not estimate_beta) of trace-mlp
    outputs: list                 # comparable across rounds and worker counts
    table: object = None          # study: the StudyTable
    records: list = field(default_factory=list)
    traces: dict = field(default_factory=dict)
    betas: dict = field(default_factory=dict)
    phase_s: dict = field(default_factory=dict)


def study_round(cfg, round_dir: str, workers: int) -> Round:
    os.makedirs(round_dir)
    path = os.path.join(round_dir, "records.jsonl")
    t0 = time.perf_counter()
    table = run_study(cfg, path, workers=workers)
    wall = time.perf_counter() - t0
    records = sorted(load_records(path).values(), key=lambda r: r.trial_key)
    steps = sum(trial_steps(r, cfg.workload.max_steps) for r in records)
    return Round(wall, len(records), steps, wall, [r.to_json() for r in records],
                 table=table, records=records)


def trial_steps(record, max_steps: int) -> int:
    """Optimizer steps a trial ran. A complete trial stops at its goal; an
    incomplete one runs to the cap; an infeasible one stops at the step
    whose loss diverged, which the record does not keep, so it counts the
    steps up to its last evaluation."""
    if record.status == "complete":
        return record.steps_to_goal
    if record.status == "incomplete":
        return max_steps
    return record.history[-1][0] if record.history else 0


def trace_round(cfg, seed: int) -> Round:
    wl = cfg.workload
    train, _ = resolve_dataset(wl, cfg.data_root)
    bx, by = beta_subset(cfg, seed)
    traces, betas = {}, {}
    t_trace = t_beta = 0.0
    estimates = 0
    for s in cfg.sparsities:
        t0 = time.perf_counter()
        trace = analysis.trace_smoothness(
            wl, StudyPoint(cfg.batch_sizes[0], s), {"eta_bar": TRACE_ETA},
            stride=TRACE_STRIDE, num_steps=TRACE_STEPS, seed=seed,
            data_root=cfg.data_root)
        t1 = time.perf_counter()
        probe = prune_at_init(build_model(wl.model_spec), train, s, wl.data_seed)
        betas[s] = analysis.estimate_beta(probe, bx, by)
        t2 = time.perf_counter()
        traces[s] = trace
        estimates += sum(v is not None for _, v in trace.entries)
        t_trace += t1 - t0
        t_beta += t2 - t1
    outputs = [repr((s, traces[s].entries, traces[s].losses, betas[s]))
               for s in cfg.sparsities]
    return Round(t_trace + t_beta, estimates + len(betas),
                 TRACE_STEPS * len(cfg.sparsities), t_trace, outputs,
                 traces=traces, betas=betas,
                 phase_s={"trace": t_trace, "beta": t_beta,
                          "estimates": estimates})
