"""Stochastic gradient updates: plain SGD, heavy-ball Momentum, Nesterov.

All three are instances of the generic iteration

    w_{k+1} = w_k - eta_k * g_k

with g_k the raw mini-batch gradient (sgd), the velocity buffer
(momentum), or the look-ahead combination (nesterov). The update is
coordinate-wise, so a coordinate whose gradient is always zero keeps a
zero velocity and never moves. A stack of trials updates as one (T, m)
array under a StackedConfig, built once from its trials' OptimizerConfigs
(and again from those that remain when some leave), each row with its own
trial's eta and momentum: the same arithmetic, element by element, as each
row updated alone. Only `OptimizerConfig` says which metaparameters an
algorithm needs; `load_config` and `sparselab lipschitz` build one to check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, NumericOverflow

ALGORITHMS = ("sgd", "momentum", "nesterov")
SCHEDULES = ("constant", "linear-decay")


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str = "constant"
    decay_horizon: int = 0        # T, linear-decay only
    floor_fraction: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.kind!r}")
        if not 0.0 <= self.floor_fraction < 1.0:
            raise ConfigError("floor_fraction must be in [0, 1)")
        if self.kind == "linear-decay" and self.decay_horizon < 1:
            raise ConfigError("linear-decay needs decay_horizon >= 1")


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str
    eta_bar: float
    momentum_coeff: float | None = None   # needed by momentum and nesterov; sgd ignores it
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if not isinstance(self.schedule, ScheduleSpec):
            raise ConfigError(f"schedule must be a ScheduleSpec, not {self.schedule!r}")
        if not self.eta_bar > 0:
            raise ConfigError("eta_bar must be > 0")
        if self.algorithm != "sgd" and self.momentum_coeff is None:
            raise ConfigError(f"{self.algorithm} needs momentum_coeff")
        if self.momentum_coeff is not None and not 0.0 <= self.momentum_coeff < 1.0:
            raise ConfigError("momentum_coeff must be in [0, 1)")


@dataclass
class OptimizerState:
    velocity: np.ndarray
    k: int = 0                    # completed steps

    @classmethod
    def fresh(cls, shape) -> "OptimizerState":
        """A zero velocity of `shape`: m, or (T, m) for a stack."""
        return cls(np.zeros(shape))


def schedule_eta(spec: ScheduleSpec, eta_bar: float, k: int) -> float:
    """Learning rate at step index k (1-based; k=0 is treated as k=1), for
    one eta_bar or a column of them."""
    k = max(int(k), 1)
    if spec.kind == "constant":
        return eta_bar
    frac = 1.0 - k / spec.decay_horizon
    return eta_bar * max(spec.floor_fraction, frac)


@dataclass(frozen=True, eq=False)
class StackedConfig:
    """The update rule of a stack's (T, m) rows: the algorithm and the
    schedule its trials share, with each trial's eta_bar and momentum_coeff
    as a (T, 1) column. `apply_update` reads it as it reads one
    OptimizerConfig, the columns broadcasting over the rows."""
    algorithm: str
    schedule: ScheduleSpec
    eta_bar: np.ndarray
    momentum_coeff: np.ndarray | None

    @classmethod
    def of(cls, configs) -> "StackedConfig":
        first = configs[0]
        if any((c.algorithm, c.schedule) != (first.algorithm, first.schedule) for c in configs):
            raise ConfigError("the trials of a stack must share the algorithm and the schedule")

        def column(values):
            return np.array(values, dtype=float).reshape(-1, 1)
        return cls(first.algorithm, first.schedule, column([c.eta_bar for c in configs]),
                   None if first.algorithm == "sgd"
                   else column([c.momentum_coeff for c in configs]))


def apply_update(params: np.ndarray, grad: np.ndarray, config, state: OptimizerState):
    """One in-place update of a length-m vector under an OptimizerConfig, or
    of a stack's (T, m) rows under a StackedConfig; returns eta_k used (a
    (T, 1) column for a stack). A non-finite result raises NumericOverflow
    naming its rows."""
    eta = schedule_eta(config.schedule, config.eta_bar, state.k + 1)
    if config.algorithm == "sgd":
        direction = grad
    else:
        state.velocity *= config.momentum_coeff
        state.velocity += grad
        if config.algorithm == "momentum":
            direction = state.velocity
        else:  # nesterov look-ahead
            direction = grad + config.momentum_coeff * state.velocity
    params -= eta * direction
    state.k += 1
    finite = np.isfinite(params)
    if not finite.all():
        bad = ~finite.reshape(-1, params.shape[-1]).all(axis=1)
        raise NumericOverflow(f"non-finite parameters after step {state.k}", np.flatnonzero(bad))
    return eta


def step(model, grad, config, state: OptimizerState):
    """Update a model under an OptimizerConfig, or a stack under a
    StackedConfig, in place from an nn.Gradient; returns eta_k used."""
    if grad.flat.shape != model.params.shape:
        raise ConfigError("gradient length does not match parameter count")
    return apply_update(model.params, grad.flat, config, state)
