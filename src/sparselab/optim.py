"""Stochastic gradient updates: plain SGD, heavy-ball Momentum, Nesterov.

All three are instances of the generic iteration

    w_{k+1} = w_k - eta_k * g_k

with g_k the raw mini-batch gradient (sgd), the velocity buffer
(momentum), or the look-ahead combination (nesterov). The update is
coordinate-wise, so a coordinate whose gradient is always zero keeps a
zero velocity and never moves. Only `OptimizerConfig` says which metaparameters
an algorithm needs; `load_config` and `sparselab lipschitz` build one to check.
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
    def fresh(cls, param_count: int) -> "OptimizerState":
        return cls(np.zeros(param_count))


def schedule_eta(spec: ScheduleSpec, eta_bar: float, k: int) -> float:
    """Learning rate at step index k (1-based; k=0 is treated as k=1)."""
    k = max(int(k), 1)
    if spec.kind == "constant":
        return eta_bar
    frac = 1.0 - k / spec.decay_horizon
    return eta_bar * max(spec.floor_fraction, frac)


def apply_update(params: np.ndarray, grad: np.ndarray,
                 config: OptimizerConfig, state: OptimizerState) -> float:
    """One in-place update on a flat parameter vector; returns eta_k used."""
    eta = schedule_eta(config.schedule, config.eta_bar, state.k + 1)
    if config.algorithm == "sgd":
        direction = grad
    else:
        m = config.momentum_coeff
        state.velocity *= m
        state.velocity += grad
        if config.algorithm == "momentum":
            direction = state.velocity
        else:  # nesterov look-ahead
            direction = grad + m * state.velocity
    params -= eta * direction
    state.k += 1
    if not np.all(np.isfinite(params)):
        raise NumericOverflow(f"non-finite parameters after step {state.k}")
    return eta


def step(model, grad, config: OptimizerConfig, state: OptimizerState) -> float:
    """Update a model in place from an nn.Gradient; returns eta_k used."""
    if grad.flat.shape != model.params.shape:
        raise ConfigError("gradient length does not match parameter count")
    eta = apply_update(model.params, grad.flat, config, state)
    model.bump_version()
    return eta
