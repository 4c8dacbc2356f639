"""The generated study-cnn images: what the IDX loader reads back."""

import numpy as np

import workloads
from sparselab.data import load_idx


def test_streak_images_round_trip_through_load_idx(tmp_path):
    images, labels = workloads.streak_images(per_class=5, side=12, streak=5,
                                             contrast=250.0, seed=7)
    workloads.write_idx(str(tmp_path), images, labels)
    data = load_idx(tmp_path / "images.idx", tmp_path / "labels.idx")
    assert data.inputs.shape == (20, 12, 12, 1) and data.num_classes == 4
    np.testing.assert_array_equal(data.inputs[..., 0] * 255.0, images)
    np.testing.assert_array_equal(data.labels, labels)
    assert np.bincount(labels).tolist() == [5, 5, 5, 5]


def test_streaks_run_along_their_class_direction():
    images, labels = workloads.streak_images(per_class=40, side=28, streak=5,
                                             contrast=250.0, seed=7)
    x = images.astype(float)
    # neighbours along the class's direction are correlated, across it not
    for c, (dy, dx) in enumerate(workloads.STREAK_DIRECTIONS):
        block = x[labels == c]
        h, w = block.shape[1:]
        along = block[:, 1:-1, 1:-1] * block[:, 1 + dy:h - 1 + dy, 1 + dx:w - 1 + dx]
        across = block[:, 1:-1, 1:-1] * block[:, 1 + dx:h - 1 + dx, 1 - dy:w - 1 - dy]
        assert along.mean() > 2.0 * across.mean()
