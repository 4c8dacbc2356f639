"""Reference architectures at desk scale.

Two families:

* ``simple-mlp``  -- flatten -> affine/relu stack -> affine classifier
* ``cnn-lite``    -- conv3x3 -> relu -> meanpool2x2 -> conv3x3 -> relu
                     -> global meanpool -> affine classifier

All parameters live in one flat float64 vector; each layer's weights are
reshaped views into it. A binary mask of the same length marks pruned
coordinates (1 = kept; all ones = unpruned). ``prune.apply_mask`` zeroes
the pruned parameters, and training keeps them zero because their
gradient is zero. A stack of T trials of one net (``Model.stacked``) holds
their vectors as the rows of a (T, m) array under the one mask.
``cnn-lite`` is deliberately the smallest net exercising conv backprop,
not a faithful residual architecture.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .nn import Affine, Conv3x3, Flatten, GlobalMeanPool, MeanPool2x2, Relu

ARCHITECTURES = ("simple-mlp", "cnn-lite")


@dataclass(frozen=True)
class ModelSpec:
    arch: str
    input_shape: tuple[int, ...]
    widths: tuple[int, ...]  # hidden widths (mlp) or channel counts (cnn)
    classes: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "widths", tuple(self.widths))
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if self.classes < 2:
            raise ConfigError("class count must be >= 2")
        if any(w < 1 for w in self.widths):
            raise ConfigError("widths must be >= 1")


class Model:
    """Layer stack plus flat parameter vector and sparsity mask."""

    def __init__(self, spec: ModelSpec, layers: list):
        self.spec = spec
        self.layers = layers
        self._slices = []          # per layer: list of (slice, shape)
        offset = 0
        for layer in layers:
            entries = []
            for shape in layer.param_shapes:
                size = int(np.prod(shape))
                entries.append((slice(offset, offset + size), shape))
                offset += size
            self._slices.append(entries)
        self.params = np.zeros(offset)
        self.mask = np.ones(offset)

    @property
    def param_count(self) -> int:
        """m, the parameters of one trial."""
        return self.params.shape[-1]

    @property
    def trials(self) -> int:
        """T, the rows of a stack's (T, m) params; 1 for a length-m vector."""
        return self.params.size // self.param_count

    def _with_params(self, params: np.ndarray) -> "Model":
        """This model, sharing its layers, slices and mask, over `params`."""
        other = copy.copy(self)
        other.params = params
        return other

    def stacked(self, count: int) -> "Model":
        """A stack of `count` writable copies of these params, as (count, m) rows."""
        return self._with_params(np.tile(self.params, (count, 1)))

    def row(self, t: int) -> "Model":
        """Trial t of a stack as a model whose params are a view of its row."""
        return self._with_params(self.params[t])

    def _views_of(self, buffer: np.ndarray) -> list:
        lead = buffer.shape[:-1]
        return [[buffer[..., s].reshape(lead + shape) for s, shape in entries]
                for entries in self._slices]

    def param_views(self) -> list:
        """Per-layer writable views of the raw parameters, shaped like them."""
        return self._views_of(self.params)

    def masked_param_views(self) -> list:
        """Per-layer views of params with pruned coordinates forced to zero,
        each with a leading trial axis (of length 1 for a length-m vector)."""
        return self._views_of((self.params * self.mask).reshape(self.trials, -1))

    def mask_views(self) -> list:
        """Per-layer views of the mask, shaped like the parameters."""
        return self._views_of(self.mask)

    def weight_units(self) -> list:
        """Each weighted layer's weight as a writable (fan_in, units) view of
        params; a unit is an affine output column or a conv out-channel."""
        return [views[0].reshape(-1, views[0].shape[-1])
                for views in self.param_views() if views]

    def set_params(self, values: np.ndarray):
        if values.shape != self.params.shape:
            raise ConfigError("parameter vector length mismatch")
        self.params[...] = values


def _mlp_layers(spec: ModelSpec) -> list:
    d_in = int(np.prod(spec.input_shape))
    layers = []
    if len(spec.input_shape) > 1:
        layers.append(Flatten())
    for width in spec.widths:
        layers.append(Affine(d_in, width))
        layers.append(Relu())
        d_in = width
    layers.append(Affine(d_in, spec.classes))
    return layers


def _cnn_layers(spec: ModelSpec) -> list:
    if len(spec.input_shape) != 3:
        raise ConfigError(
            f"cnn-lite needs (h, w, c) input shape, got {spec.input_shape}")
    h, w, c = spec.input_shape
    if h % 2 or w % 2:
        raise ConfigError("cnn-lite needs even spatial dims for mean-pooling")
    if len(spec.widths) != 2:
        raise ConfigError("cnn-lite takes exactly two channel counts")
    c1, c2 = spec.widths
    return [
        Conv3x3(c, c1), Relu(), MeanPool2x2(),
        Conv3x3(c1, c2), Relu(),
        GlobalMeanPool(),
        Affine(c2, spec.classes),
    ]


def build_model(spec: ModelSpec) -> Model:
    """Deterministic construction: same spec + seed -> identical parameters.

    The one init rule is He-uniform: weights ~ U(-sqrt(6/fan_in),
    +sqrt(6/fan_in)), fan_in as `Model.weight_units` gives it, one draw
    per weighted layer in layer order; biases stay zero. Mask starts
    all-ones. Pruning at init (`prune.prune_at_init`) then rescales each
    unit's kept weights back to the unit's L2 norm here.
    """
    layers = _mlp_layers(spec) if spec.arch == "simple-mlp" else _cnn_layers(spec)
    model = Model(spec, layers)
    rng = np.random.default_rng(spec.seed)
    for units in model.weight_units():
        limit = np.sqrt(6.0 / units.shape[0])
        units[...] = rng.uniform(-limit, limit, size=units.shape)
    return model
