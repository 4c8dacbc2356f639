"""Pruning at initialization by connection sensitivity.

The saliency of coordinate j is |g_j * w_j| normalized to sum to one,
where g is the gradient of a seeded batch of `SALIENCY_BATCH` training
samples at the untrained initialization. The mask keeps the top
m - floor(s*m) coordinates globally (no per-layer quota), is frozen for
the whole run, and each unit's kept weights get the unit's init L2 norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .nn import batch_gradient

SALIENCY_BATCH = 128


@dataclass(frozen=True)
class Mask:
    bits: np.ndarray        # length-m vector of {0.0, 1.0}

    def __post_init__(self):
        object.__setattr__(self, "bits", np.asarray(self.bits, dtype=np.float64))
        self.bits.setflags(write=False)

    @property
    def kept(self) -> int:
        return int(self.bits.sum())


def connection_sensitivity(model, inputs, targets) -> np.ndarray:
    """Normalized |gradient * weight| saliency at initialization.

    Returns the all-zero vector when every product is zero (e.g. an
    all-zero initialization), rather than dividing by zero.
    """
    if not np.all(model.mask == 1.0):
        raise ConfigError("saliency must be computed on an unpruned model")
    _, _, grad = batch_gradient(model, inputs, targets)
    scores = np.abs(grad.flat * model.params)
    total = scores.sum()
    if total == 0.0:
        return scores
    return scores / total


def topk_mask(saliency: np.ndarray, sparsity: float) -> Mask:
    """Keep the m - floor(s*m) highest-saliency coordinates.

    Ties break toward the lower index (stable sort on descending score),
    so the selection is deterministic even for degenerate saliencies.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ConfigError("sparsity must be in [0, 1)")
    saliency = np.asarray(saliency, dtype=np.float64)
    m = saliency.size
    keep = m - math.floor(sparsity * m)
    order = np.argsort(-saliency, kind="stable")
    bits = np.zeros(m)
    bits[order[:keep]] = 1.0
    return Mask(bits)


def apply_mask(model, mask: Mask):
    """Zero the pruned parameters and pin the mask on the model. Idempotent."""
    if mask.bits.size != model.param_count:
        raise ConfigError(
            f"mask length {mask.bits.size} != parameter count {model.param_count}")
    model.mask = mask.bits.copy()
    model.params *= model.mask
    return model


def prune_at_init(model, train, sparsity: float, seed: int):
    """Mask the model before any training step; no-op for sparsity 0.

    `train`'s inputs are in the model's input shape. The mask is the
    global top-k of connection sensitivity at the dense initialization.
    Then each unit's kept incoming weights (`Model.weight_units`) are
    rescaled to the L2 norm the unit's full weight vector had at init.
    This keeps the per-unit signal energy that He-uniform init fixes, so
    a pruned net differs from the dense one in its connectivity, not in
    its scale. Biases and units with no kept weight are left as they are.
    """
    if sparsity == 0.0:
        return model
    rng = np.random.default_rng([seed, 0x5A11])
    take = min(SALIENCY_BATCH, len(train))
    idx = rng.choice(len(train), size=take, replace=False)
    saliency = connection_sensitivity(model, train.inputs[idx], train.labels[idx])
    units = model.weight_units()
    dense_norms = [np.linalg.norm(u, axis=0) for u in units]
    apply_mask(model, topk_mask(saliency, sparsity))
    for u, dense_norm in zip(units, dense_norms):
        kept_norm = np.linalg.norm(u, axis=0)
        live = kept_norm > 0.0
        u[:, live] *= dense_norm[live] / kept_norm[live]
    return model
