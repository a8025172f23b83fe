"""Dataset ingestion and min-max scaling.

``load_iris_csv`` reads any CSV table of numeric features and a class label,
the bundled Iris copy among them; each feature becomes one qubit's weight.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .pipeline import MAX_QUBITS

MNIST_IMAGE_MAGIC = 2051
MNIST_LABEL_MAGIC = 2049


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or labels.ndim != 1 or feats.shape[0] != labels.shape[0]:
            raise ValueError(
                f"features {feats.shape} and labels {labels.shape} are inconsistent"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)


def bundled_iris_path() -> Path:
    """Path to the packaged copy of the Iris dataset."""
    return Path(resources.files("qgrnn").joinpath("assets/iris.csv"))


def load_iris_csv(path) -> Dataset:
    """Read a CSV table of k numeric features and then a class label, 2 <= k <= MAX_QUBITS.

    The first data row sets k, and every row must have k + 1 fields. A
    non-numeric first row is treated as a header. Class labels map to
    integers 0, 1, ... in first-appearance order. Features must be finite.
    Every error names ``<path>`` or ``<path>:<line>``.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    rows = []
    label_order: dict[str, int] = {}
    labels = []
    start = 0
    if lines:
        try:
            float(lines[0].split(",")[0])
        except ValueError:
            start = 1
    width = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split(",")
        if width is None:
            width = len(parts)
            if not 2 <= width - 1 <= MAX_QUBITS:
                raise ValueError(f"{path}:{lineno}: expected 2 to {MAX_QUBITS} features, got {width - 1}")
        if len(parts) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} comma-separated fields, got {len(parts)}")
        try:
            values = [float(p) for p in parts[:-1]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric feature value: {exc}") from None
        if not np.isfinite(values).all():
            raise ValueError(f"{path}:{lineno}: non-finite feature value in {values}")
        name = parts[-1].strip()
        if name not in label_order:
            label_order[name] = len(label_order)
        rows.append(values)
        labels.append(label_order[name])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.array(rows), np.array(labels))


# The IDX reader is a library function only. It stays while
# benchmarks/trace_layers.py binds it by name, since the tracer's tier-1
# self-test fails on a missing binding (ROADMAP item 1 lifts that).
def _read_idx(f, path, expected_magic: int, n_dims: int, what: str):
    """The header's dimensions and the bytes they claim, read only once the file is known to hold them."""
    head = f.read(4 * (1 + n_dims))
    if len(head) < 4 * (1 + n_dims):
        raise ValueError(f"{path}: truncated IDX header")
    fields = struct.unpack(f">{1 + n_dims}I", head)
    if fields[0] != expected_magic:
        raise ValueError(f"{path}: bad IDX magic {fields[0]}, expected {expected_magic}")
    size = math.prod(fields[1:])
    left = os.fstat(f.fileno()).st_size - f.tell()
    if size > left:
        raise ValueError(f"{path}: expected {size} {what} bytes, got {left}")
    return fields[1:], f.read(size)


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """Read an IDX image/label pair; pixel rows are flattened and scaled to [0, 1]."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as f:
        (count, rows, cols), raw = _read_idx(f, images_path, MNIST_IMAGE_MAGIC, 3, "pixel")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        (label_count,), raw = _read_idx(f, labels_path, MNIST_LABEL_MAGIC, 1, "label")
        labels = np.frombuffer(raw, dtype=np.uint8)
    if count != label_count:
        raise ValueError(f"image count {count} does not match label count {label_count}")
    return Dataset(images.astype(np.float64) / 255.0, labels.astype(np.int64))


def minmax_scale(features, lo: float = 0.0, hi: float = 5.0) -> np.ndarray:
    """Map each column's observed [min, max] onto [lo, hi]; constant columns map to lo.

    A range is rejected unless lo < hi and hi - lo is finite, which makes both ends finite.
    """
    # Python floats overflow to inf without a numpy warning
    if not (math.isfinite(float(hi) - float(lo)) and lo < hi):
        raise ValueError(f"need finite lo < hi and a finite hi - lo, got {lo!r} and {hi!r}")
    x = np.asarray(features, dtype=np.float64)
    col_min = x.min(axis=0)
    span = x.max(axis=0) - col_min
    safe = np.where(span == 0, 1.0, span)
    out = (x - col_min) / safe * (hi - lo) + lo
    return np.where(span == 0, lo, out)
