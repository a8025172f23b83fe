from pathlib import Path

import numpy as np
import pytest

from qgrnn.datasets import (
    Dataset,
    bundled_iris_path,
    load_iris_csv,
    load_mnist_idx,
    minmax_scale,
    pca_fit,
    pca_transform,
)

from conftest import write_idx_pair


class TestLoadIris:
    def test_bundled_dataset_shape(self):
        ds = load_iris_csv(bundled_iris_path())
        assert ds.features.shape == (150, 4)
        assert sorted(set(ds.labels.tolist())) == [0, 1, 2]
        # labels in first-appearance order: class 0 occupies the first rows
        assert np.all(ds.labels[:50] == 0)

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "iris.csv"
        path.write_text("5.1,3.5,1.4,0.2,a\n6.2,2.2,4.5,1.5,b\n")
        ds = load_iris_csv(path)
        assert ds.features.shape == (2, 4)
        assert ds.labels.tolist() == [0, 1]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_iris_csv(path)

    def test_non_numeric_feature_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("5.1,3.5,1.4,0.2,a\n5.0,oops,1.3,0.2,a\n")
        with pytest.raises(ValueError, match=":2:"):
            load_iris_csv(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("5.1,3.5,1.4,0.2,a\n5.0,3.0,1.3,a\n")
        with pytest.raises(ValueError, match=":2:"):
            load_iris_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_iris_csv(tmp_path / "nope.csv")


class TestLoadMnistIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (10, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, 10, dtype=np.uint8)
        imgs_path, labels_path = write_idx_pair(tmp_path, images, labels)
        ds = load_mnist_idx(imgs_path, labels_path)
        assert ds.features.shape == (10, 784)
        assert np.allclose(ds.features, images.reshape(10, -1) / 255.0)
        assert np.array_equal(ds.labels, labels)

    def test_bad_image_magic(self, tmp_path):
        import struct

        images = np.zeros((2, 4, 4), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        imgs_path, labels_path = write_idx_pair(tmp_path, images, labels)
        path = Path(imgs_path)
        path.write_bytes(struct.pack(">I", 1234) + path.read_bytes()[4:])
        with pytest.raises(ValueError, match="magic"):
            load_mnist_idx(imgs_path, labels_path)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((10, 4, 4), dtype=np.uint8)
        labels = np.zeros(9, dtype=np.uint8)
        imgs_path, _ = write_idx_pair(tmp_path / ".." / tmp_path.name, images, np.zeros(10, np.uint8))
        # separate label file declaring 9 entries
        import struct

        labels_path = tmp_path / "labels9.idx"
        with open(labels_path, "wb") as f:
            f.write(struct.pack(">II", 2049, 9))
            f.write(labels.tobytes())
        with pytest.raises(ValueError, match="count"):
            load_mnist_idx(imgs_path, labels_path)

    def test_truncated_pixels(self, tmp_path):
        import struct

        path = tmp_path / "trunc.idx"
        with open(path, "wb") as f:
            f.write(struct.pack(">IIII", 2051, 5, 4, 4))
            f.write(b"\x00" * 10)
        labels_path = tmp_path / "labels.idx"
        with open(labels_path, "wb") as f:
            f.write(struct.pack(">II", 2049, 5))
            f.write(b"\x00" * 5)
        with pytest.raises(ValueError, match="pixel"):
            load_mnist_idx(path, labels_path)


class TestMinMaxScale:
    def test_simple_column(self):
        scaled = minmax_scale(np.array([[0.0], [10.0]]))
        assert np.allclose(scaled, [[0.0], [5.0]])

    def test_constant_column_maps_to_lo(self):
        scaled = minmax_scale(np.array([[7.0], [7.0], [7.0]]))
        assert np.allclose(scaled, 0.0)

    def test_known_iris_row(self):
        # row 18 of the bundled dataset in the [0, 5] frame
        ds = load_iris_csv(bundled_iris_path())
        scaled = minmax_scale(ds.features)
        assert np.allclose(scaled[18], [1.944, 3.75, 0.593, 0.417], atol=5e-4)

    def test_range_and_monotonicity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 10, (50, 3))
        scaled = minmax_scale(x, lo=0.0, hi=5.0)
        assert scaled.min() >= -1e-12 and scaled.max() <= 5 + 1e-12
        order = np.argsort(x[:, 0])
        assert np.all(np.diff(scaled[order, 0]) >= 0)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            minmax_scale(np.zeros((2, 2)), lo=1.0, hi=1.0)


class TestPca:
    def test_line_structure(self):
        rng = np.random.default_rng(2)
        t = rng.normal(0, 2, 40)
        points = np.column_stack([t, t + rng.normal(0, 1e-6, 40)])
        model = pca_fit(points, 2)
        assert np.allclose(np.abs(model.components[0]), [1, 1] / np.sqrt(2), atol=1e-4)
        assert model.explained_variance[1] <= 1e-8

    def test_total_variance_preserved(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (30, 5))
        model = pca_fit(x, 5)
        total = np.var(x, axis=0, ddof=1).sum()
        assert abs(model.explained_variance.sum() - total) <= 1e-8

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (20, 8))
        model = pca_fit(x, 3)
        centered = x - x.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        for row, oracle in zip(model.components, vt[:3]):
            assert abs(abs(np.dot(row, oracle)) - 1.0) <= 1e-6

    def test_orthonormal_components(self):
        rng = np.random.default_rng(5)
        model = pca_fit(rng.normal(0, 1, (25, 6)), 4)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-8
        assert np.all(np.diff(model.explained_variance) <= 1e-12)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, (30, 4))
        a = pca_fit(x, 4)
        b = pca_fit(x.copy(), 4)
        assert np.array_equal(a.components, b.components)
        for row in a.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_transform_of_mean_is_zero(self):
        rng = np.random.default_rng(7)
        x = rng.normal(3, 1, (20, 4))
        model = pca_fit(x, 2)
        assert np.allclose(pca_transform(model, x.mean(axis=0)[None, :]), 0.0, atol=1e-12)

    def test_full_rank_round_trip(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, (30, 5))
        model = pca_fit(x, 5)
        projected = pca_transform(model, x)
        reconstructed = projected @ model.components + x.mean(axis=0)
        assert np.max(np.abs(reconstructed - x)) <= 1e-8

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            pca_fit(np.zeros((5, 3)), 4)

    def test_transform_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        model = pca_fit(rng.normal(0, 1, (10, 4)), 2)
        with pytest.raises(ValueError):
            pca_transform(model, np.zeros((3, 5)))


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int))
