"""Data ingestion: big-endian IDX files, synthetic Gaussian blobs and the
seeded validation split.

Both files of an IDX pair go through one reader, which checks the magic,
one size per axis and the payload length, and names the failing byte
offset. The synthetic generator exists so the measurement protocol can run
end-to-end in seconds; separation controls how far apart the class
means sit (in units of the within-class standard deviation).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, IdxFormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
VALIDATION_FRACTION = 0.1


@dataclass
class Dataset:
    inputs: np.ndarray       # (n, ...) float64
    labels: np.ndarray       # (n,) int64 class indices
    num_classes: int

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise ConfigError(
                f"{len(self.inputs)} inputs vs {len(self.labels)} labels")
        if len(self.labels) and int(self.labels.max()) >= self.num_classes:
            raise ConfigError("label value exceeds class count")

    def __len__(self):
        return len(self.labels)

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.inputs[idx], self.labels[idx], self.num_classes)


def split_validation(dataset: Dataset, seed: int):
    """Fixed, seeded split: returns (train, validation).

    The validation slice is a random VALIDATION_FRACTION of the data,
    identical for every trial that shares the seed.
    """
    n = len(dataset)
    n_val = max(1, int(round(n * VALIDATION_FRACTION)))
    perm = np.random.default_rng(seed).permutation(n)
    return dataset.subset(perm[n_val:]), dataset.subset(perm[:n_val])


def _idx_array(path, magic: int, what: str) -> np.ndarray:
    """One IDX file of unsigned bytes: a big-endian magic whose low byte is
    the rank, one big-endian size per axis, then exactly the payload."""
    with open(path, "rb") as f:
        blob = f.read()
    rank = magic & 0xFF
    start = 4 + 4 * rank
    # the header's whole 32-bit words that the file holds
    words = struct.unpack_from(f">{min(len(blob), start) // 4}I", blob)
    if words and words[0] != magic:
        raise IdxFormatError(
            f"bad {what} magic 0x{words[0]:08x} at byte 0 (want 0x{magic:08x})")
    if len(words) < 1 + rank:
        raise IdxFormatError(
            f"truncated {what} header: needed 4 bytes at offset {4 * len(words)}, "
            f"file ends at {len(blob)}")
    expected = math.prod(words[1:])
    if len(blob) - start != expected:
        raise IdxFormatError(
            f"{what} payload: expected {expected} bytes from byte {start}, "
            f"got {len(blob) - start}")
    return np.frombuffer(blob, dtype=np.uint8, offset=start).reshape(words[1:])


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair; pixels are scaled to [0, 1]."""
    images = _idx_array(images_path, IDX_IMAGES_MAGIC, "image")
    labels = _idx_array(labels_path, IDX_LABELS_MAGIC, "label").astype(np.int64)
    if len(labels) != len(images):
        raise IdxFormatError(f"{len(images)} images but {len(labels)} labels")
    num_classes = int(labels.max()) + 1 if len(labels) else 0
    return Dataset((images.astype(np.float64) / 255.0)[..., None], labels, num_classes)


def synth_dataset(classes: int, dims: int, per_class: int, separation: float,
                  seed: int = 0) -> Dataset:
    """Unit-variance Gaussian blobs with seeded random mean directions.

    Class priors are exactly uniform by construction (per_class samples
    each); sample order is interleaved so any prefix is near-balanced.
    """
    if classes < 2 or dims < 1 or per_class < 1:
        raise ConfigError("need classes >= 2, dims >= 1, per_class >= 1")
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(classes, dims))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = directions * separation

    n = classes * per_class
    inputs = np.empty((n, dims))
    labels = np.empty(n, dtype=np.int64)
    for c in range(classes):
        block = means[c] + rng.normal(size=(per_class, dims))
        inputs[c::classes] = block
        labels[c::classes] = c
    return Dataset(inputs, labels, classes)
