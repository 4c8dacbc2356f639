"""Measurement protocol: run budgeted metaparameter trials per
(batch size, sparsity) study point and record steps-to-result.

A trial trains a fresh copy of its sparsity's initial model (built, and
pruned at init, once per process) with seeded shuffled mini-batches,
evaluating on the full validation split every `eval_interval` steps.

The trials of one study point form a cell, and `run_cell` trains them in
lockstep: as stacks (`Model.stacked`), whose step is one pass of the
engine over every trial of the stack at once (see `nn`), side by side, and
each trial evaluated alone at the same steps. A stack holds as many trials
as keep the elements of its largest activation within STACK_ELEMENTS:
stacking pays while a step's per-call overhead outweighs its arithmetic.
The cell stops at the first evaluation at which any trial reaches the
goal, since that evaluation fixes K* and the best trial. A trial's
outcome is exactly one of:

* complete    -- some evaluation reached the goal error within budget
* stopped     -- another trial of its cell reached the goal first, at the
                 same evaluation at which this one did not
* incomplete  -- budget exhausted without reaching the goal
* infeasible  -- training diverged (loss blowing up past 1e4x its initial
                 value, or a non-finite value in a step or an evaluation);
                 the trial leaves its stack and the others go on

A trial's record, up to where its cell stops, is the one it would get
trained alone: `run_trial` is the cell of one trial.

Steps-to-result K* for a study point is the lowest steps_to_goal over
its complete trials; a tie goes to the lowest trial index (Sobol order).

A trial's key hashes the whole workload, the point, the metaparameters,
the seed and the trial index, so resuming reuses only matching records,
and only as one run of their cell (`one_run_of_the_cell`): the key leaves
out the budget, on which the cell's stop depends.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import inspect
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, asdict
from functools import partial
from itertools import product

import numpy as np

from . import nn
from .data import Dataset, load_idx, split_validation, synth_dataset
from .exceptions import ConfigError, NumericOverflow
from .models import Model, ModelSpec, build_model
from .optim import OptimizerConfig, OptimizerState, ScheduleSpec, StackedConfig, step
from .prune import prune_at_init
from .quasirand import draw_assignments

# v2: pruned nets start with each unit's kept weights rescaled to the
# unit's dense-init norm, so v1 sparse records measured another net.
# v3: the trial key covers the whole trial, so a v2 key may name another.
# v4: a cell stops at its K*, so an incomplete v3 record may be stopped now.
RECORD_SCHEMA = 4
DIVERGENCE_FACTOR = 1e4

COMPLETE = "complete"
STOPPED = "stopped"
INCOMPLETE = "incomplete"
INFEASIBLE = "infeasible"
STATUSES = (COMPLETE, STOPPED, INCOMPLETE, INFEASIBLE)

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
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.sparsity < 1.0:
            raise ConfigError(f"sparsity must be in [0, 1), got {self.sparsity}")


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
        dataset_block(self.dataset)
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
        if rec.status not in STATUSES:
            raise ValueError(f"unknown trial status {rec.status!r}")
        return rec


@dataclass
class StudyCell:
    batch_size: int
    sparsity: float
    k_star: int | None
    best_metaparams: dict | None
    n_complete: int
    n_stopped: int
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
        """A study runs at least one trial, and each valid study point once."""
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        for name in ("batch_sizes", "sparsities"):
            values = getattr(self, name)      # 8 == 8.0: a repeat in any type
            if not values or len(set(values)) < len(values):
                raise ConfigError(f"study.{name} must be non-empty and distinct, "
                                  f"got {values}")
        for b, s in product(self.batch_sizes, self.sparsities):
            StudyPoint(b, s)                  # each point's own checks, at load


# ---------------------------------------------------------------------------
# Config blocks and dataset resolution
# ---------------------------------------------------------------------------

def number(kind, value, where: str):
    """`kind(value)`. A bool or a string is not a number: it, any other
    non-number, or a fractional value where `kind` is int, is a ConfigError
    naming `where`."""
    try:
        if isinstance(value, (bool, str)):
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
            "float | None": partial(number, float),
            "tuple[int, ...]": partial(numbers, int), "tuple[float, ...]": partial(numbers, float)}


def from_block(fn, block, where: str, **fallback):
    """`fn(**block)` for a dataclass or function `fn`, with `block_args`."""
    return fn(**block_args(fn, block, where, **fallback))


def block_args(fn, block, where: str, **fallback) -> dict:
    """The keyword arguments `block` gives `fn`, matched by name; `fallback`
    gives values for parameters that `block` omits. Unknown keys and
    parameters left without a value are ConfigErrors naming `where` and
    the key. Parameters annotated int, float or a tuple of either are
    coerced."""
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
    return args


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


def dataset_block(dataset: dict, data_root: str | None = None):
    """(loader, its arguments, train_label_noise) of a workload's dataset
    block: a known `kind`, keys that the kind's loader takes, and a
    `train_label_noise` in [0, 1), or a ConfigError. Reads no file."""
    cfg = dict(dataset)
    kind = cfg.pop("kind", None)
    train_noise = number(float, cfg.pop("train_label_noise", 0.0),
                         "workload.dataset.train_label_noise")
    if not 0.0 <= train_noise < 1.0:            # NaN fails too
        raise ConfigError(f"workload.dataset.train_label_noise must be in [0, 1), "
                          f"got {train_noise}")
    loaders = {"synth": synth_dataset, "idx": partial(_idx_files, data_root)}
    if kind not in loaders:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    return loaders[kind], block_args(loaders[kind], cfg, "workload.dataset"), train_noise


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
    loader, args, train_noise = dataset_block(workload.dataset, data_root)
    full = loader(**args)
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
    """`prune_at_init(build_model(...))`, the net every trial at `sparsity`
    starts from: built once per (data set, model spec, sparsity) per process
    and shared, with read-only params and mask. Trials train copies (`Model.stacked`)."""
    key = (_dataset_key(workload, data_root), workload.model_spec, sparsity)
    if key not in _INIT_CACHE:
        train, _ = resolve_dataset(workload, data_root)
        pruned = prune_at_init(build_model(workload.model_spec), train, sparsity,
                               workload.data_seed)
        for array in (pruned.params, pruned.mask):
            array.setflags(write=False)
        _INIT_CACHE[key] = pruned
    return _INIT_CACHE[key]


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


# Elements in the largest array of a stack's forward pass (a layer's output
# or Conv3x3's patch matrix), summed over the stack's trials, up to which a
# cell stacks its trials. On two cores, trials stacked two at a time gained
# on the MLP's 2x128 rows (24,576 elements) and cnn-lite's 2x16 images
# (451,584) and lost on cnn-lite's 2x64 images (1,806,336).
STACK_ELEMENTS = 1 << 19


@functools.lru_cache(maxsize=None)
def _sample_elements(spec: ModelSpec) -> int:
    """Elements per sample of the largest array one forward pass makes: a
    layer's output or what it keeps for backward."""
    model = build_model(spec)
    x, largest = np.zeros((1, *spec.input_shape)), 0
    for layer, views in zip(model.layers, model.masked_param_views()):
        x, cache = layer.forward(x, views)
        kept = [a for a in (cache if isinstance(cache, tuple) else (cache,))
                if isinstance(a, np.ndarray)]
        largest = max(largest, x.size, *(a.size for a in kept))
    return largest


def stack_size(spec: ModelSpec, batch_size: int) -> int:
    """Trials per stack at `batch_size`: as many as keep the stack's largest
    activation within STACK_ELEMENTS, and at least one."""
    return max(1, STACK_ELEMENTS // (batch_size * _sample_elements(spec)))


@dataclass(eq=False)
class _Trial:
    """One trial of a cell while it trains: what its record will hold."""
    index: int
    metaparams: dict
    seed: int
    key: str
    config: OptimizerConfig
    batches: object               # its endless index batches
    history: list = field(default_factory=list)
    loss: float = float("nan")    # its loss at its last step that computed one
    record: TrialRecord | None = None


class _Stack:
    """Live trials of a cell that step as one (T, m) model; `finish` records each that leaves."""

    def __init__(self, init: Model, trials: list, finish):
        self.trials = trials
        self.finish = finish
        self.model = init.stacked(len(trials))
        self.config = StackedConfig.of([t.config for t in trials])
        self.state = OptimizerState.fresh(self.model.params.shape)
        self.limit = None         # DIVERGENCE_FACTOR times each trial's loss at step 1

    def drop(self, rows):
        """Finish the trials at `rows` (an index array) as infeasible and take
        them off the stack; returns the rows kept."""
        for r in rows:
            self.finish(self.trials[r], INFEASIBLE, self.model.params[r])
        keep = [r for r in range(len(self.trials)) if r not in rows]
        self.trials = [self.trials[r] for r in keep]
        self.model.params = self.model.params[keep]
        if self.trials:
            self.config = StackedConfig.of([t.config for t in self.trials])
        self.state.velocity = self.state.velocity[keep]
        if self.limit is not None:
            self.limit = self.limit[keep]
        return keep

    def train_step(self, inputs, labels):
        """One step of every trial; a trial whose step fails leaves as infeasible."""
        idx = np.stack([next(t.batches) for t in self.trials])
        while self.trials:
            try:
                loss, _, grad = nn.batch_gradient(self.model, inputs[idx], labels[idx])
                break
            except NumericOverflow as e:     # the others' step is the same without them
                idx = idx[self.drop(e.trials)]
        else:
            return
        for t, value in zip(self.trials, loss):
            t.loss = float(value)
        if self.limit is None:
            self.limit = DIVERGENCE_FACTOR * np.maximum(loss, 1e-12)
        diverged = ~np.isfinite(loss) | (loss > self.limit)
        if diverged.any():
            grad.flat = grad.flat[self.drop(np.flatnonzero(diverged))]
            if not self.trials:
                return
        try:
            step(self.model, grad, self.config, self.state)
        except NumericOverflow as e:
            self.drop(e.trials)

    def evaluate(self, k, val) -> list:
        """Each trial's validation error, evaluated alone, into its history;
        a trial whose evaluation overflows leaves as infeasible. Returns
        the (trial, error) pairs."""
        errors, overflowed = [], []
        for r, t in enumerate(self.trials):
            try:
                errors.append((t, nn.error_rate(self.model.row(r), val.inputs, val.labels)))
            except NumericOverflow:
                overflowed.append(r)
            else:
                t.history.append((k, errors[-1][1]))
        if overflowed:
            self.drop(np.array(overflowed))
        return errors


def run_cell(workload: Workload, point: StudyPoint, trials: list,
             data_root: str | None = None, step_hook=None) -> list:
    """Train one study point's trials, each a (trial_index, metaparams, seed),
    in lockstep to the cell's first evaluation at which any reaches the goal;
    returns their records in the order given.

    Each record is fully determined by its trial's own inputs and the step
    at which the cell stops. `step_hook`, for a cell of one trial, is called
    as hook(model, step_index) after every update, with the trial's model
    (used by the smoothness tracer; it must not mutate the model).
    """
    _pin_heap_thresholds()
    train, val = resolve_dataset(workload, data_root)
    if point.batch_size > len(train):
        raise ConfigError(
            f"batch size {point.batch_size} exceeds training set ({len(train)})")
    cell = [_Trial(index, metaparams, seed,
                   trial_key(workload, point, metaparams, seed, index),
                   from_block(OptimizerConfig, metaparams, "metaparams",
                              algorithm=workload.algorithm, schedule=workload.schedule),
                   _batches(len(train), point.batch_size,
                            np.random.default_rng([seed, 0x02DE])))
            for index, metaparams, seed in trials]
    init = initial_model(workload, point.sparsity, data_root)

    def finish(t: _Trial, status: str, params: np.ndarray, steps_to_goal=None):
        if np.any(params[init.mask == 0.0] != 0.0):
            raise RuntimeError(f"trial {t.key}: mask violated during training")
        t.record = TrialRecord(
            trial_key=t.key, batch_size=point.batch_size, sparsity=point.sparsity,
            trial_index=t.index, metaparams=dict(t.metaparams), seed=t.seed,
            status=status, steps_to_goal=steps_to_goal, history=list(t.history),
            final_loss=t.loss)

    size = stack_size(workload.model_spec, point.batch_size)
    stacks = [_Stack(init, cell[i:i + size], finish) for i in range(0, len(cell), size)]
    if step_hook is not None:
        hooked = stacks[0].model.row(0)
        step_hook(hooked, 0)

    reached = []
    for k in range(1, workload.max_steps + 1):
        stacks = [st for st in stacks if st.trials]
        if not stacks:
            break
        for st in stacks:
            st.train_step(train.inputs, train.labels)
        if step_hook is not None and stacks[0].trials:
            step_hook(hooked, k)
        if k % workload.eval_interval == 0:
            reached = [t for st in stacks for t, err in st.evaluate(k, val)
                       if err <= workload.goal_error]
            if reached:
                break
    for st in stacks:
        for t, params in zip(st.trials, st.model.params):
            if not reached:
                finish(t, INCOMPLETE, params)
            elif t in reached:
                finish(t, COMPLETE, params, steps_to_goal=k)
            else:
                finish(t, STOPPED, params)
    return [t.record for t in cell]


def run_trial(workload: Workload, point: StudyPoint, metaparams: dict,
              seed: int, trial_index: int = 0, data_root: str | None = None,
              step_hook=None) -> TrialRecord:
    """Train one metaparameter assignment to completion/divergence/budget:
    the cell of this one trial.

    Fully determined by (workload, point, metaparams, seed). `step_hook`,
    when given, is called as hook(model, step_index) after every update
    (used by the smoothness tracer; it must not mutate the model).
    """
    return run_cell(workload, point, [(trial_index, metaparams, seed)], data_root,
                    step_hook)[0]


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
                n_stopped=sum(r.status == STOPPED for r in cell_records),
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


def one_run_of_the_cell(records: list) -> bool:
    """Whether a cell's stored records can be one run of that cell.

    A record depends on the step at which its cell stopped, so the records
    a study at another budget left for these trials may belong to a cell
    that other trials stopped: a stopped record with no complete one, two
    K*s, or a record that ran past the K* of the complete ones.
    """
    goals = {r.steps_to_goal for r in records if r.status == COMPLETE}
    if not goals:
        return not any(r.status == STOPPED for r in records)
    if len(goals) > 1:
        return False
    (k_star,) = goals
    return all(r.status == COMPLETE
               or r.status == STOPPED and r.history and r.history[-1][0] == k_star
               or r.status == INFEASIBLE and all(k < k_star for k, _ in r.history)
               for r in records)


def run_study(cfg: StudyConfig, records_path, workers: int = 1,
              progress=None) -> StudyTable:
    """Run (or resume) a full study, one cell (study point) at a time;
    returns the aggregated table.

    A cell runs unless the records file holds every one of its planned
    keys and those records are one run of the cell (`one_run_of_the_cell`),
    so reruns after interruption execute only the missing work, and a
    study rerun at another budget reruns the cells whose stop moved. A
    cell that runs again appends the records that were missing or that
    it changed; the last line of a key is the one `load_records` keeps.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    existing = load_records(records_path)
    plan = planned_trials(cfg)
    cells = {}
    for point, i, mp, seed, key in plan:
        cells.setdefault(point, []).append((i, mp, seed, key))
    todo = [(cfg.workload, point, [trial[:3] for trial in trials], cfg.data_root)
            for point, trials in cells.items()
            if any(key not in existing for *_, key in trials)
            or not one_run_of_the_cell([existing[key] for *_, key in trials])]

    parallel = workers > 1 and len(todo) > 1
    with (ProcessPoolExecutor(max_workers=workers, initializer=_pin_one_blas_thread)
          if parallel else nullcontext()) as pool:
        if parallel:
            futures = [pool.submit(run_cell, *t) for t in todo]
            done = (f.result() for f in as_completed(futures))
        else:
            done = (run_cell(*t) for t in todo)
        for cell_records in done:
            for rec in cell_records:
                stored = existing.get(rec.trial_key)
                if stored is not None and stored.to_json() == rec.to_json():
                    continue
                append_record(records_path, rec)
                existing[rec.trial_key] = rec
                if progress:
                    progress(rec)

    planned_keys = {key for *_, key in plan}
    records = [existing[k] for k in sorted(planned_keys) if k in existing]
    return aggregate(records, cfg)
