"""Error and similarity metrics for actual-vs-predicted feature vectors."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class MetricReport:
    mse: float
    rmse: float
    mae: float
    cosine: float | None

    def to_dict(self) -> dict[str, float | None]:
        return asdict(self)


def evaluate(actual, predicted) -> MetricReport:
    """MSE, RMSE, MAE, and cosine similarity between two equal-length vectors.

    The cosine similarity is None when either vector is zero: a row that is
    every column's minimum scales to all-zero weights, the low end of
    ``pipeline.FEATURE_RANGE``.
    """
    y = np.asarray(actual, dtype=np.float64)
    y_hat = np.asarray(predicted, dtype=np.float64)
    if y.ndim != 1 or y.shape != y_hat.shape or y.size == 0:
        raise ValueError(f"expected equal-length nonempty vectors, got {y.shape} and {y_hat.shape}")
    err = y - y_hat
    mse = float(np.mean(err**2))
    norm_y, norm_y_hat = np.linalg.norm(y), np.linalg.norm(y_hat)
    zero = norm_y == 0.0 or norm_y_hat == 0.0
    return MetricReport(
        mse=mse,
        rmse=math.sqrt(mse),
        mae=float(np.mean(np.abs(err))),
        cosine=None if zero else float(np.dot(y, y_hat) / (norm_y * norm_y_hat)),
    )
