import math
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qgrnn.datasets import Dataset, bundled_iris_path, load_iris_csv, load_mnist_idx, minmax_scale
from qgrnn.pipeline import MAX_QUBITS

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

    def test_any_feature_count_from_two_to_the_qubit_limit(self, tmp_path):
        path = tmp_path / "table.csv"
        for k in (2, 3, MAX_QUBITS):
            rows = [[float(i + j) for j in range(k)] + [f"c{i % 2}"] for i in range(4)]
            path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
            ds = load_iris_csv(path)
            assert ds.features.shape == (4, k)
            assert np.array_equal(ds.features, np.array([row[:-1] for row in rows]))
            assert ds.labels.tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize("k", [1, MAX_QUBITS + 1])
    def test_a_feature_count_beyond_the_limits_names_the_first_row(self, tmp_path, k):
        path = tmp_path / "table.csv"
        path.write_text("x,label\n" + ",".join(["1.0"] * k) + ",a\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: expected 2 to {MAX_QUBITS} "
                                             rf"features, got {k}$"):
            load_iris_csv(path)

    def test_a_row_of_another_width_names_its_line(self, tmp_path):
        # the first data row sets three features; line 4 has four
        path = tmp_path / "table.csv"
        path.write_text("a,b,c,label\n1,2,3,x\n4,5,6,y\n7,8,9,1,y\n")
        with pytest.raises(ValueError, match=r":4: expected 4 comma-separated fields, got 5$"):
            load_iris_csv(path)


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
        labels_path = tmp_path / "labels9.idx"
        with open(labels_path, "wb") as f:
            f.write(struct.pack(">II", 2049, 9))
            f.write(labels.tobytes())
        with pytest.raises(ValueError, match="count"):
            load_mnist_idx(imgs_path, labels_path)

    def test_truncated_pixels(self, tmp_path):
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

    @staticmethod
    def claimed_images(tmp_path, image_header, pixels):
        """An image file whose header claims ``image_header``, and a one-label file."""
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 2051, *image_header) + pixels)
        labels.write_bytes(struct.pack(">II", 2049, 1) + b"\x00")
        return images, labels

    def test_an_idx_count_beyond_the_file_is_not_read(self, tmp_path):
        # 800 bytes whose header claims 250,000 images of 28 x 28
        images, labels = self.claimed_images(tmp_path, (250_000, 28, 28), bytes(784))
        assert images.stat().st_size == 800
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as error:
                load_mnist_idx(images, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(error.value) == f"{images}: expected 196000000 pixel bytes, got 784"
        assert peak < 10 * 2**20

    def test_an_idx_count_beyond_any_size_is_an_error(self, tmp_path):
        size = (2**32 - 1) ** 3
        images, labels = self.claimed_images(tmp_path, (2**32 - 1,) * 3, bytes(784))
        with pytest.raises(ValueError) as error:
            load_mnist_idx(images, labels)
        assert str(error.value) == f"{images}: expected {size} pixel bytes, got 784"


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

    @pytest.mark.parametrize(
        "lo, hi",
        [(-1e308, 1e308), (0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (1.0, 1.0), (2.0, 1.0),
         (np.float64(-1e308), np.float64(1e308))],
        ids=["width-overflows", "inf-hi", "inf-lo", "nan-hi", "empty", "reversed", "numpy-width-overflows"],
    )
    def test_rejects_a_range_without_a_finite_width(self, lo, hi):
        # both ends of the first are finite, but the width is inf: scaling gave NaN
        with pytest.raises(ValueError, match="need finite lo < hi and a finite hi - lo"):
            minmax_scale(np.array([[0.0], [1.0]]), lo, hi)


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int))
