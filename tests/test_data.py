"""IDX parsing against byte blobs packed by hand, and synthetic blobs."""

import struct

import numpy as np
import pytest

from sparselab.data import (Dataset, load_idx, split_validation, synth_dataset)
from sparselab.exceptions import ConfigError, IdxFormatError


def pack_images(images):
    """Test-side IDX synthesizer: big-endian header + raw u8 pixels."""
    arr = np.asarray(images, dtype=np.uint8)
    n, rows, cols = arr.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + arr.tobytes()


def pack_labels(labels):
    arr = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, arr.size) + arr.tobytes()


def write_pair(tmp_path, images, labels):
    ip = tmp_path / "images.idx"
    lp = tmp_path / "labels.idx"
    ip.write_bytes(pack_images(images))
    lp.write_bytes(pack_labels(labels))
    return ip, lp


def test_label_bytes_parse_in_order(tmp_path):
    images = np.zeros((3, 1, 1), dtype=np.uint8)
    ip, lp = write_pair(tmp_path, images, [7, 2, 1])
    ds = load_idx(ip, lp)
    assert list(ds.labels) == [7, 2, 1]


def test_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
    labels = rng.integers(0, 10, size=5, dtype=np.uint8)
    ip, lp = write_pair(tmp_path, images, labels)
    ds = load_idx(ip, lp)
    assert ds.inputs.shape == (5, 4, 3, 1)
    np.testing.assert_array_equal(ds.inputs[..., 0], images / 255.0)
    np.testing.assert_array_equal(ds.labels, labels)
    assert ds.num_classes == int(labels.max()) + 1


def test_truncated_image_payload_reports_expected_bytes(tmp_path):
    blob = struct.pack(">IIII", 0x00000803, 2, 28, 28) + bytes(1500)
    ip = tmp_path / "truncated.idx"
    ip.write_bytes(blob)
    lp = tmp_path / "labels.idx"
    lp.write_bytes(pack_labels([0, 1]))
    with pytest.raises(IdxFormatError, match="1568"):
        load_idx(ip, lp)


def test_bad_image_magic_mentions_offset_zero(tmp_path):
    ip = tmp_path / "bad.idx"
    ip.write_bytes(struct.pack(">IIII", 0x00000801, 1, 1, 1) + bytes(1))
    lp = tmp_path / "labels.idx"
    lp.write_bytes(pack_labels([0]))
    with pytest.raises(IdxFormatError, match="byte 0"):
        load_idx(ip, lp)


def test_bad_label_magic_rejected(tmp_path):
    ip, lp = write_pair(tmp_path, np.zeros((1, 1, 1), dtype=np.uint8), [0])
    lp.write_bytes(struct.pack(">II", 0x00000803, 1) + bytes(1))
    with pytest.raises(IdxFormatError, match="label magic"):
        load_idx(ip, lp)


def test_count_mismatch_rejected(tmp_path):
    ip, lp = write_pair(tmp_path, np.zeros((2, 1, 1), dtype=np.uint8), [0])
    with pytest.raises(IdxFormatError, match="2 images but 1 labels"):
        load_idx(ip, lp)


def test_truncated_header_reports_offset(tmp_path):
    ip = tmp_path / "short.idx"
    ip.write_bytes(b"\x00\x00")
    lp = tmp_path / "labels.idx"
    lp.write_bytes(pack_labels([0]))
    with pytest.raises(IdxFormatError, match="offset 0"):
        load_idx(ip, lp)


def test_synth_same_seed_identical():
    a = synth_dataset(classes=3, dims=5, per_class=40, separation=2.0, seed=9)
    b = synth_dataset(classes=3, dims=5, per_class=40, separation=2.0, seed=9)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)


def test_synth_label_histogram_exactly_uniform():
    ds = synth_dataset(classes=5, dims=3, per_class=17, separation=1.0, seed=0)
    counts = np.bincount(ds.labels, minlength=5)
    assert np.all(counts == 17)


def test_synth_separation_moves_class_means_apart():
    near = synth_dataset(classes=2, dims=10, per_class=500, separation=0.5, seed=1)
    far = synth_dataset(classes=2, dims=10, per_class=500, separation=20.0, seed=1)

    def mean_gap(ds):
        mu0 = ds.inputs[ds.labels == 0].mean(axis=0)
        mu1 = ds.inputs[ds.labels == 1].mean(axis=0)
        return np.linalg.norm(mu0 - mu1)

    assert mean_gap(far) > 10 * mean_gap(near)


def test_synth_validation():
    with pytest.raises(ConfigError):
        synth_dataset(classes=1, dims=3, per_class=5, separation=1.0)


def test_split_validation_is_fixed_and_seeded():
    ds = synth_dataset(classes=3, dims=4, per_class=100, separation=2.0, seed=3)
    t1, v1 = split_validation(ds, seed=5)
    t2, v2 = split_validation(ds, seed=5)
    assert len(v1) == 30 and len(t1) == 270
    assert np.array_equal(v1.inputs, v2.inputs)
    _, v3 = split_validation(ds, seed=6)
    assert not np.array_equal(v1.inputs, v3.inputs)


def test_dataset_label_bounds_checked():
    with pytest.raises(ConfigError):
        Dataset(np.zeros((2, 3)), np.array([0, 5]), num_classes=2)
