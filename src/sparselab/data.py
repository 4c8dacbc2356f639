"""Data ingestion: big-endian IDX files and synthetic Gaussian blobs.

The synthetic generator exists so the measurement protocol can run
end-to-end in seconds; separation controls how far apart the class
means sit (in units of the within-class standard deviation).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, IdxFormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


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


def split_validation(dataset: Dataset, fraction: float = 0.1, seed: int = 0):
    """Fixed, seeded split: returns (train, validation).

    The validation slice is a random `fraction` of the data, identical for
    every trial that shares the seed.
    """
    n = len(dataset)
    n_val = max(1, int(round(n * fraction)))
    perm = np.random.default_rng(seed).permutation(n)
    return dataset.subset(perm[n_val:]), dataset.subset(perm[:n_val])


def _read_be32(blob: bytes, offset: int, what: str) -> int:
    if offset + 4 > len(blob):
        raise IdxFormatError(
            f"truncated {what}: needed 4 bytes at offset {offset}, "
            f"file ends at {len(blob)}")
    return struct.unpack(">I", blob[offset:offset + 4])[0]


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair; pixels are scaled to [0, 1]."""
    with open(images_path, "rb") as f:
        blob = f.read()
    magic = _read_be32(blob, 0, "image header")
    if magic != IDX_IMAGES_MAGIC:
        raise IdxFormatError(
            f"bad image magic 0x{magic:08x} at byte 0 (want 0x{IDX_IMAGES_MAGIC:08x})")
    count = _read_be32(blob, 4, "image header")
    rows = _read_be32(blob, 8, "image header")
    cols = _read_be32(blob, 12, "image header")
    expected = count * rows * cols
    if len(blob) - 16 != expected:
        raise IdxFormatError(
            f"image payload: expected {expected} bytes from byte 16, "
            f"got {len(blob) - 16}")
    pixels = np.frombuffer(blob, dtype=np.uint8, offset=16)
    images = pixels.reshape(count, rows, cols).astype(np.float64) / 255.0

    with open(labels_path, "rb") as f:
        blob = f.read()
    magic = _read_be32(blob, 0, "label header")
    if magic != IDX_LABELS_MAGIC:
        raise IdxFormatError(
            f"bad label magic 0x{magic:08x} at byte 0 (want 0x{IDX_LABELS_MAGIC:08x})")
    n_labels = _read_be32(blob, 4, "label header")
    if len(blob) - 8 != n_labels:
        raise IdxFormatError(
            f"label payload: expected {n_labels} bytes from byte 8, "
            f"got {len(blob) - 8}")
    if n_labels != count:
        raise IdxFormatError(f"{count} images but {n_labels} labels")
    labels = np.frombuffer(blob, dtype=np.uint8, offset=8).astype(np.int64)

    num_classes = int(labels.max()) + 1 if n_labels else 0
    return Dataset(images[..., None], labels, num_classes)


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
