"""Measurement protocol: run budgeted metaparameter trials per
(batch size, sparsity) study point and record steps-to-result.

A trial trains a fresh copy of its sparsity's initial model (built, and
pruned at init, once per process) with seeded shuffled mini-batches,
evaluating on the full validation split every `eval_interval` steps. Its
outcome is exactly one of:

* complete    -- some evaluation reached the goal error within budget
* incomplete  -- budget exhausted without reaching the goal
* infeasible  -- training diverged (loss blowing up past 1e4x its initial
                 value, or a non-finite value in a step or an evaluation)

Steps-to-result K* for a study point is the lowest steps_to_goal over
its complete trials; a tie goes to the lowest trial index (Sobol order).

A trial's key hashes the whole workload, the point, the metaparameters,
the seed and the trial index, so resuming reuses only matching records.
"""

from __future__ import annotations

import ctypes
import hashlib
import inspect
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, asdict
from functools import partial

import numpy as np

from . import nn
from .data import Dataset, load_idx, split_validation, synth_dataset
from .exceptions import ConfigError, NumericOverflow
from .models import ModelSpec, build_model
from .optim import OptimizerConfig, OptimizerState, ScheduleSpec, step
from .prune import prune_at_init
from .quasirand import draw_assignments

# v2: pruned nets start with each unit's kept weights rescaled to the
# unit's dense-init norm, so v1 sparse records measured another net.
# v3: the trial key covers the whole trial, so a v2 key may name another.
RECORD_SCHEMA = 3
DIVERGENCE_FACTOR = 1e4

COMPLETE = "complete"
INCOMPLETE = "incomplete"
INFEASIBLE = "infeasible"

# The types a record field's JSON value may take, by the field's annotation
# (a bool is no number); JSON writes an int-valued float such as 0 as an int.
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "dict": dict,
               "list": list, "int | None": (int, type(None))}


@dataclass(frozen=True)
class StudyPoint:
    batch_size: int
    sparsity: float

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if not 0.0 <= self.sparsity < 1.0:
            raise ConfigError("sparsity must be in [0, 1)")


@dataclass(frozen=True)
class Workload:
    id: str
    dataset: dict                 # {"kind": "synth"|"idx", ...}
    model_spec: ModelSpec
    algorithm: str
    schedule: ScheduleSpec
    goal_error: float
    eval_interval: int
    max_steps: int
    data_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.dataset, dict):
            raise ConfigError(f"workload.dataset must be an object, not {self.dataset!r}")
        if not 0.0 <= self.goal_error <= 1.0:
            raise ConfigError("goal error must be in [0, 1]")
        if self.eval_interval < 1 or self.max_steps < 1:
            raise ConfigError("eval_interval and max_steps must be >= 1")


@dataclass
class TrialRecord:
    trial_key: str
    batch_size: int
    sparsity: float
    trial_index: int
    metaparams: dict
    seed: int
    status: str
    steps_to_goal: int | None
    history: list                 # (step, validation error) pairs
    final_loss: float
    schema: int = RECORD_SCHEMA

    def to_json(self) -> str:
        d = asdict(self)
        d["history"] = [[s, round(e, 6)] for s, e in self.history]
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrialRecord":
        """A record line; a wrong-typed value is a TypeError, an unknown status a ValueError."""
        d = json.loads(text)
        d["history"] = [(s, e) for s, e in d["history"]]
        rec = cls(**d)
        typed = [(getattr(rec, f.name), f.type) for f in fields(cls)]
        typed += [(v, kind) for pair in rec.history for v, kind in zip(pair, ("int", "float"))]
        if isinstance(rec.metaparams, dict):       # a non-dict fails as a field
            typed += [(v, "float") for v in rec.metaparams.values()]
        for value, kind in typed:
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
                raise TypeError(f"record holds {value!r} where {kind} is due")
        if rec.status not in (COMPLETE, INCOMPLETE, INFEASIBLE):
            raise ValueError(f"unknown trial status {rec.status!r}")
        return rec


@dataclass
class StudyCell:
    batch_size: int
    sparsity: float
    k_star: int | None
    best_metaparams: dict | None
    n_complete: int
    n_incomplete: int
    n_infeasible: int


@dataclass
class StudyTable:
    workload_id: str
    goal_error: float
    budget: int
    cells: list = field(default_factory=list)

    def cell(self, batch_size: int, sparsity: float) -> StudyCell:
        for c in self.cells:
            if c.batch_size == batch_size and c.sparsity == sparsity:
                return c
        raise KeyError((batch_size, sparsity))


@dataclass
class StudyConfig:
    workload: Workload
    batch_sizes: list
    sparsities: list
    budget: int
    seed: int
    search_spaces: list
    data_root: str | None = None

    def __post_init__(self):
        """A study runs at least one trial, and each study point once."""
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        for name in ("batch_sizes", "sparsities"):
            values = getattr(self, name)      # 8 == 8.0: a repeat in any type
            if not values or len(set(values)) < len(values):
                raise ConfigError(f"study.{name} must be non-empty and distinct, "
                                  f"got {values}")


# ---------------------------------------------------------------------------
# Config blocks and dataset resolution
# ---------------------------------------------------------------------------

def number(kind, value, where: str):
    """`kind(value)`; a bool, a string where `kind` is int (a float may be
    "nan"), any other non-number, or a fractional one where `kind` is int,
    is a ConfigError naming `where`."""
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, str)):
            raise TypeError(value)
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be numeric, not {value!r}") from None
    if kind is int and isinstance(value, float) and out != value:
        raise ConfigError(f"{where} must be an integer, not {value!r}")
    return out


def numbers(kind, values, where: str) -> tuple:
    """`number` of each entry of a JSON list."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{where} must be a list, not {values!r}")
    return tuple(number(kind, value, where) for value in values)


# from_block's coercion of a parameter, by its annotation (postponed: a string)
_COERCED = {"int": partial(number, int), "float": partial(number, float),
            "tuple[int, ...]": partial(numbers, int), "tuple[float, ...]": partial(numbers, float)}


def from_block(fn, block, where: str, **fallback):
    """`fn(**block)` for a dataclass or function `fn`, matched by name;
    `fallback` gives values for parameters that `block` omits. Unknown
    keys and parameters left without a value are ConfigErrors naming
    `where` and the key. Parameters annotated int, float or a tuple of
    either are coerced."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, not {block!r}")
    params = inspect.signature(fn).parameters
    for key in block:
        if key not in params:
            raise ConfigError(f"unknown key {key!r} in {where}")
    args = {**fallback, **block}
    for name, p in params.items():
        if name in args and p.annotation in _COERCED:
            args[name] = _COERCED[p.annotation](args[name], f"{where}.{name}")
        elif name not in args and p.default is p.empty:
            raise ConfigError(f"missing {name!r} in {where}")
    return fn(**args)


_DATASET_CACHE: dict = {}
_INIT_CACHE: dict = {}


def _dataset_key(workload: Workload, data_root: str | None) -> tuple:
    return (json.dumps(workload.dataset, sort_keys=True), workload.data_seed,
            data_root or "", workload.model_spec.input_shape)


def _idx_files(data_root: str | None, images: str, labels: str) -> Dataset:
    paths = [os.path.join(data_root or "", p) for p in (images, labels)]
    for p in paths:
        if not os.path.exists(p):
            raise FileNotFoundError(
                f"dataset file not found: {p} (set the data root with the "
                f"config's top-level data_root key or SPARSELAB_DATA_ROOT)")
    return load_idx(*paths)


def resolve_dataset(workload: Workload, data_root: str | None = None):
    """Build (train, validation) splits; cached per process.

    Both splits hold inputs already in the model's input shape.
    `train_label_noise` corrupts that fraction of *training* labels
    (uniformly to another class, seeded) after the split, so validation
    error stays a clean measure while gradients carry extra variance.
    """
    key = _dataset_key(workload, data_root)
    if key in _DATASET_CACHE:
        return _DATASET_CACHE[key]
    cfg = dict(workload.dataset)
    kind = cfg.pop("kind", None)
    train_noise = number(float, cfg.pop("train_label_noise", 0.0),
                         "workload.dataset.train_label_noise")
    if not 0.0 <= train_noise < 1.0:            # NaN fails too
        raise ConfigError(f"workload.dataset.train_label_noise must be in [0, 1), "
                          f"got {train_noise}")
    loaders = {"synth": synth_dataset, "idx": partial(_idx_files, data_root)}
    if kind not in loaders:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    full = from_block(loaders[kind], cfg, "workload.dataset")
    full.inputs = _shaped(full.inputs, workload.model_spec)
    train, val = split_validation(full, seed=workload.data_seed)
    if train_noise > 0.0:
        rng = np.random.default_rng([workload.data_seed, 0xF11D])
        flip = rng.random(len(train)) < train_noise
        shift = rng.integers(1, train.num_classes, size=int(flip.sum()))
        labels = train.labels.copy()
        labels[flip] = (labels[flip] + shift) % train.num_classes
        train = Dataset(train.inputs, labels, train.num_classes)
    _DATASET_CACHE[key] = (train, val)
    return train, val


def initial_model(workload: Workload, sparsity: float, data_root: str | None = None):
    """A fresh copy of the net every trial at `sparsity` starts from,
    `prune_at_init(build_model(...))`.

    The pruned init is built once per (data set, model spec, sparsity) per
    process and kept as read-only `params` and `mask` arrays; each call
    copies them into a newly built model.
    """
    key = (_dataset_key(workload, data_root), workload.model_spec, sparsity)
    if key not in _INIT_CACHE:
        train, _ = resolve_dataset(workload, data_root)
        pruned = prune_at_init(build_model(workload.model_spec), train, sparsity,
                               workload.data_seed)
        for array in (pruned.params, pruned.mask):
            array.setflags(write=False)
        _INIT_CACHE[key] = (pruned.params, pruned.mask)
    params, mask = _INIT_CACHE[key]
    model = build_model(workload.model_spec)
    model.set_params(params)
    model.mask = mask.copy()
    return model


# ---------------------------------------------------------------------------
# Single trial
# ---------------------------------------------------------------------------

def trial_key(workload: Workload, point: StudyPoint, metaparams: dict,
              seed: int, trial_index: int) -> str:
    """Hash of the canonical JSON of the `run_trial` arguments deciding the trial."""
    text = json.dumps([asdict(workload), asdict(point), metaparams, seed,
                       trial_index], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    """Endless shuffled index batches; the last short batch of each epoch is
    dropped so every gradient averages exactly batch_size samples."""
    while True:
        perm = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            yield perm[start:start + batch_size]


def _shaped(inputs: np.ndarray, spec: ModelSpec) -> np.ndarray:
    want = (inputs.shape[0], *spec.input_shape)
    if inputs.shape == want:
        return inputs
    if int(np.prod(inputs.shape[1:])) != int(np.prod(spec.input_shape)):
        raise ConfigError(
            f"dataset sample shape {inputs.shape[1:]} incompatible with "
            f"model input {spec.input_shape}")
    return inputs.reshape(want)


def _pin_heap_thresholds():
    """Fix glibc's malloc thresholds at the top of its dynamic range (mmap
    above 32 MB, trim a free heap top above 64 MB). glibc raises them only
    after freeing a large mmapped block, which chunked passes never free,
    so each step's temporaries went back to the OS and were faulted in
    again. A no-op without glibc's mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)         # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)         # M_MMAP_THRESHOLD


def run_trial(workload: Workload, point: StudyPoint, metaparams: dict,
              seed: int, trial_index: int = 0, data_root: str | None = None,
              step_hook=None) -> TrialRecord:
    """Train one metaparameter assignment to completion/divergence/budget.

    Fully determined by (workload, point, metaparams, seed). `step_hook`,
    when given, is called as hook(model, step_index) after every update
    (used by the smoothness tracer; it must not mutate the model).
    """
    _pin_heap_thresholds()
    train, val = resolve_dataset(workload, data_root)
    if point.batch_size > len(train):
        raise ConfigError(
            f"batch size {point.batch_size} exceeds training set ({len(train)})")

    model = initial_model(workload, point.sparsity, data_root)
    if step_hook is not None:
        step_hook(model, 0)

    config = from_block(OptimizerConfig, metaparams, "metaparams",
                        algorithm=workload.algorithm, schedule=workload.schedule)
    state = OptimizerState.fresh(model.param_count)
    order_rng = np.random.default_rng([seed, 0x02DE])

    key = trial_key(workload, point, metaparams, seed, trial_index)
    history = []
    status = INCOMPLETE
    steps_to_goal = None
    loss = float("nan")
    initial_loss = None

    batches = _batches(len(train), point.batch_size, order_rng)
    for k in range(1, workload.max_steps + 1):
        idx = next(batches)
        try:
            loss, _, grad = nn.batch_gradient(model, train.inputs[idx],
                                              train.labels[idx])
            if initial_loss is None:
                initial_loss = loss
            if not np.isfinite(loss) or loss > DIVERGENCE_FACTOR * max(initial_loss, 1e-12):
                status = INFEASIBLE
                break
            step(model, grad, config, state)
            if step_hook is not None:
                step_hook(model, k)
            if k % workload.eval_interval == 0:
                err = nn.error_rate(model, val.inputs, val.labels)
                history.append((k, err))
                if err <= workload.goal_error:
                    status = COMPLETE
                    steps_to_goal = k
                    break
        except NumericOverflow:
            status = INFEASIBLE
            break

    if np.any(model.params[model.mask == 0.0] != 0.0):
        raise RuntimeError(f"trial {key}: mask violated during training")
    return TrialRecord(
        trial_key=key, batch_size=point.batch_size, sparsity=point.sparsity,
        trial_index=trial_index, metaparams=dict(metaparams), seed=seed,
        status=status, steps_to_goal=steps_to_goal, history=history,
        final_loss=float(loss))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def best_trial(records: list) -> TrialRecord | None:
    """The fastest complete trial; ties keep the lowest trial index, then key."""
    complete = [r for r in records if r.status == COMPLETE]
    if not complete:
        return None
    return min(complete, key=lambda r: (r.steps_to_goal, r.trial_index, r.trial_key))


def aggregate(records: list, cfg: StudyConfig) -> StudyTable:
    """Deterministic study table regardless of record arrival order."""
    table = StudyTable(cfg.workload.id, cfg.workload.goal_error, cfg.budget)
    for s in cfg.sparsities:
        for b in cfg.batch_sizes:
            cell_records = [r for r in records
                            if r.batch_size == b and r.sparsity == s]
            best = best_trial(cell_records)
            table.cells.append(StudyCell(
                batch_size=b, sparsity=s,
                k_star=None if best is None else best.steps_to_goal,
                best_metaparams=None if best is None else best.metaparams,
                n_complete=sum(r.status == COMPLETE for r in cell_records),
                n_incomplete=sum(r.status == INCOMPLETE for r in cell_records),
                n_infeasible=sum(r.status == INFEASIBLE for r in cell_records),
            ))
    return table


# ---------------------------------------------------------------------------
# Study loop with resumable persistence
# ---------------------------------------------------------------------------

def load_records(path) -> dict:
    """Existing records keyed by trial key.

    A line that is not a record (a torn append from an interrupted run,
    bytes that are not UTF-8, JSON of another shape or with wrong-typed
    fields) and records of another schema version are dropped, so their
    trials run again under the current protocol.
    """
    records = {}
    if not os.path.exists(path):
        return records
    with open(path, "rb") as f:
        for line in f:
            try:
                rec = TrialRecord.from_json(line.decode())
                if rec.schema == RECORD_SCHEMA:
                    records[rec.trial_key] = rec
            except (KeyError, TypeError, ValueError):    # JSON and UTF-8 errors too
                continue
    return records


def append_record(path, record: TrialRecord):
    try:
        with open(path, "a+b") as f:
            if f.tell() > 0:
                f.seek(-1, os.SEEK_END)
                if f.read(1) != b"\n":      # previous writer died mid-line; start fresh
                    f.write(b"\n")
            f.write(record.to_json().encode() + b"\n")
            f.flush()
    except OSError as e:
        raise OSError(f"failed to persist trial {record.trial_key}: {e}") from e


def planned_trials(cfg: StudyConfig) -> list:
    """Every (point, trial_index, metaparams, seed, key) in the study.

    The Sobol sequence restarts per study point, so all points search the
    same metaparameter candidates.
    """
    assignments = draw_assignments(cfg.search_spaces, cfg.budget)
    plan = []
    for s in cfg.sparsities:
        for b in cfg.batch_sizes:
            point = StudyPoint(b, s)
            for i, metaparams in enumerate(assignments):
                seed = cfg.seed + i
                plan.append((point, i, metaparams, seed,
                             trial_key(cfg.workload, point, metaparams, seed, i)))
    return plan


def _pin_one_blas_thread():
    """Pool initializer: one OpenBLAS thread per worker, since the workers
    already share the cores between them; a no-op without OpenBLAS."""
    blas = nn.openblas_threads()
    if blas:
        blas.set(1)


def run_study(cfg: StudyConfig, records_path, workers: int = 1,
              progress=None) -> StudyTable:
    """Run (or resume) a full study; returns the aggregated table.

    Planned trials whose key is in the records file are skipped, so
    reruns after interruption execute only the missing work.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    existing = load_records(records_path)
    plan = planned_trials(cfg)
    todo = [(cfg.workload, point, mp, seed, i, cfg.data_root)
            for point, i, mp, seed, key in plan if key not in existing]

    parallel = workers > 1 and len(todo) > 1
    with (ProcessPoolExecutor(max_workers=workers, initializer=_pin_one_blas_thread)
          if parallel else nullcontext()) as pool:
        if parallel:
            futures = [pool.submit(run_trial, *t) for t in todo]
            done = (f.result() for f in as_completed(futures))
        else:
            done = (run_trial(*t) for t in todo)
        for rec in done:
            append_record(records_path, rec)
            existing[rec.trial_key] = rec
            if progress:
                progress(rec)

    planned_keys = {key for *_, key in plan}
    records = [existing[k] for k in sorted(planned_keys) if k in existing]
    return aggregate(records, cfg)
