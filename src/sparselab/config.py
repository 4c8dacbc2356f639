"""Experiment config files.

JSON with an `include` mechanism: included files load first and the
including file's keys override them (nested dicts merge recursively),
so shared workload blocks can live in one place.

Each block maps onto a dataclass or function by name: the top level
onto `_study_config`, `study` onto `_grid`, `workload` onto `Workload`,
its `model` onto `ModelSpec`, its `schedule` onto `ScheduleSpec`, each
search space onto `SearchSpace`. These hold the defaults and the checks;
`harness.from_block` adds unknown and missing keys and `harness.number`
non-numbers, each a ConfigError naming the block and key. `StudyConfig`
checks every (B, s) point. The search spaces have distinct names and
name exactly what `optim.OptimizerConfig` reads, which their first draw
checks. The protocol defaults the dataclasses lack are stated here:
budget 100, seed 0, step cap 40000, `sgd`, and evaluation every 16
steps for flat inputs and every 32 for image inputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

from .exceptions import ConfigError
from .harness import StudyConfig, Workload, from_block
from .models import ModelSpec
from .optim import OptimizerConfig, ScheduleSpec
from .quasirand import SearchSpace, draw_assignments

CONFIG_SCHEMA = 1
DEFAULT_BUDGET = 100
DEFAULT_MAX_STEPS = 40000
DEFAULT_EVAL_INTERVAL_FLAT = 16
DEFAULT_EVAL_INTERVAL_IMAGE = 32
DATA_ROOT_ENV = "SPARSELAB_DATA_ROOT"


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _load_tree(path: Path, seen: tuple = ()) -> dict:
    path = path.resolve()
    if path in seen:
        raise ConfigError(f"config include cycle at {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: the top level must be a JSON object, not {raw!r}")
    includes = raw.pop("include", [])
    includes = [includes] if isinstance(includes, str) else includes
    if not isinstance(includes, list) or not all(isinstance(i, str) for i in includes):
        raise ConfigError(f"{path}: include must be a path or a list of paths, not {includes!r}")
    merged: dict = {}
    for inc in includes:
        merged = _merge(merged, _load_tree(path.parent / inc, seen + (path,)))
    return _merge(merged, raw)


def _require(block, key: str, where: str):
    if not isinstance(block, dict) or key not in block:
        raise ConfigError(f"missing {key!r} in {where}")
    return block[key]


def load_config(path) -> StudyConfig:
    return from_block(_study_config, _load_tree(Path(path)), "config")


def _grid(batch_sizes: tuple[int, ...], sparsities: tuple[float, ...]):
    return list(batch_sizes), list(sparsities)


def _study_config(workload, study, search_spaces, schema_version=CONFIG_SCHEMA,
                  budget: int = DEFAULT_BUDGET, seed: int = 0,
                  data_root=None) -> StudyConfig:
    """The top-level keys of a config file, each with its default."""
    if schema_version != CONFIG_SCHEMA:
        raise ConfigError(f"unsupported config schema_version {schema_version}")
    model_spec = from_block(ModelSpec, _require(workload, "model", "workload"),
                            "workload.model")
    fields = {k: v for k, v in workload.items() if k != "model"}
    fields["model_spec"] = model_spec
    fields["schedule"] = from_block(ScheduleSpec, workload.get("schedule", {}),
                                    "workload.schedule")
    workload = from_block(
        Workload, fields, "workload", algorithm="sgd", max_steps=DEFAULT_MAX_STEPS,
        eval_interval=(DEFAULT_EVAL_INTERVAL_IMAGE if len(model_spec.input_shape) == 3
                       else DEFAULT_EVAL_INTERVAL_FLAT))

    batch_sizes, sparsities = from_block(_grid, study, "study")
    spaces = [from_block(SearchSpace, s, f"search_spaces[{i}]")
              for i, s in enumerate(search_spaces)]
    names = [s.name for s in spaces]
    if len(set(names)) < len(names):
        raise ConfigError(f"search_spaces must have distinct names, got {names}")
    from_block(OptimizerConfig, draw_assignments(spaces, 1)[0] if spaces else {},
               "search_spaces", algorithm=workload.algorithm, schedule=workload.schedule)

    return StudyConfig(workload, batch_sizes, sparsities, budget, seed, spaces,
                       data_root or os.environ.get(DATA_ROOT_ENV))


def echo_config(cfg: StudyConfig) -> str:
    """Every field of the loaded study as canonical JSON, for logs."""
    return json.dumps(asdict(cfg), sort_keys=True)
