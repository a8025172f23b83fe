"""Dataset ingestion (Iris CSV, MNIST IDX), min-max scaling, and PCA."""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np


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
    """Read a 5-column Iris CSV: four numeric features plus a class label.

    A non-numeric first row is treated as a header. Class labels map to
    integers 0, 1, 2 in first-appearance order. Features must be finite.
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
        first = lines[0].split(",")
        try:
            float(first[0])
        except ValueError:
            start = 1
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 comma-separated fields, got {len(parts)}")
        try:
            values = [float(p) for p in parts[:4]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric feature value: {exc}") from None
        if not np.isfinite(values).all():
            raise ValueError(f"{path}:{lineno}: non-finite feature value in {values}")
        name = parts[4].strip()
        if name not in label_order:
            label_order[name] = len(label_order)
        rows.append(values)
        labels.append(label_order[name])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.array(rows), np.array(labels))


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
    """Map each column's observed [min, max] onto [lo, hi]; constant columns map to lo."""
    if hi <= lo:
        raise ValueError(f"require hi > lo, got lo={lo}, hi={hi}")
    x = np.asarray(features, dtype=np.float64)
    col_min = x.min(axis=0)
    span = x.max(axis=0) - col_min
    safe = np.where(span == 0, 1.0, span)
    out = (x - col_min) / safe * (hi - lo) + lo
    return np.where(span == 0, lo, out)


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (k, input_dim), rows orthonormal
    explained_variance: np.ndarray  # descending


def pca_fit(features, k: int) -> PcaModel:
    """Principal components from the sample covariance (divisor N - 1).

    The covariance is symmetric by construction, so ``np.linalg.eigh``
    decomposes it directly.

    Components are ordered by descending eigenvalue; each component's
    largest-magnitude entry is made positive so the fit is deterministic.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("pca_fit needs a 2-D matrix with at least 2 samples")
    if not 1 <= k <= x.shape[1]:
        raise ValueError(f"k={k} out of range for {x.shape[1]} features")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = (centered.T @ centered) / (x.shape[0] - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:k]
    components = eigenvectors[:, order].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(mean, components, np.maximum(eigenvalues[order], 0.0))


def pca_transform(model: PcaModel, features) -> np.ndarray:
    """(features - mean) @ components.T"""
    x = np.asarray(features, dtype=np.float64)
    if x.shape[-1] != model.mean.shape[0]:
        raise ValueError(
            f"feature dimension {x.shape[-1]} does not match model dimension {model.mean.shape[0]}"
        )
    return (x - model.mean) @ model.components.T
