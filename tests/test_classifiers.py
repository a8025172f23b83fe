import numpy as np
import pytest

from qgrnn.classifiers import (
    GAUSSIAN_NAIVE_BAYES,
    K_NEAREST_NEIGHBORS,
    KINDS,
    LOGISTIC_REGRESSION,
    agreement_eval,
    fit,
    predict,
    stratified_split,
)
from qgrnn.datasets import bundled_iris_path, load_iris_csv, minmax_scale
from qgrnn.pipeline import DEFAULT_IRIS_ROWS


@pytest.fixture(scope="module")
def iris_scaled():
    ds = load_iris_csv(bundled_iris_path())
    scaled = minmax_scale(ds.features)
    return scaled, ds.labels


def separable_toy():
    x = np.array([[0.0], [0.2], [0.4], [5.0], [5.2], [5.4]])
    y = np.array([0, 0, 0, 1, 1, 1])
    return x, y


class TestFitPredict:
    @pytest.mark.parametrize("kind", KINDS)
    def test_separable_clusters(self, kind):
        x, y = separable_toy()
        model = fit(kind, x, y)
        assert np.array_equal(predict(model, x), y)

    def test_training_row_prediction(self):
        x, y = separable_toy()
        model = fit(LOGISTIC_REGRESSION, x, y)
        assert predict(model, x[0][None, :])[0] == y[0]

    def test_knn_self_neighbor(self):
        x, y = separable_toy()
        model = fit(K_NEAREST_NEIGHBORS, x, y, k=1)
        for row, label in zip(x, y):
            assert predict(model, row[None, :])[0] == label

    def test_gnb_tie_breaks_to_lower_label(self):
        # symmetric classes, equal priors; the midpoint is exactly equidistant
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = fit(GAUSSIAN_NAIVE_BAYES, x, y)
        assert predict(model, np.array([[0.0]]))[0] == 0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit(GAUSSIAN_NAIVE_BAYES, np.zeros((3, 2)), np.zeros(3, dtype=int))

    def test_unknown_kind_rejected(self):
        x, y = separable_toy()
        with pytest.raises(ValueError):
            fit("decision-stump", x, y)

    def test_predict_dimension_mismatch(self):
        x, y = separable_toy()
        model = fit(GAUSSIAN_NAIVE_BAYES, x, y)
        with pytest.raises(ValueError):
            predict(model, np.zeros((2, 3)))


class TestIrisAccuracy:
    def test_gnb_training_accuracy(self, iris_scaled):
        x, y = iris_scaled
        model = fit(GAUSSIAN_NAIVE_BAYES, x, y)
        assert np.mean(predict(model, x) == y) >= 0.94

    @pytest.mark.parametrize("kind", KINDS)
    def test_split_accuracy(self, iris_scaled, kind):
        # Mean held-out accuracy over 20 stratified splits, not one split. A
        # 30-row hold-out moves in steps of 1/30, and the seed-0 split holds
        # four versicolor/virginica boundary rows (70, 77, 106, 133) whose
        # misses alone decide it (see test_gnb_seed0_matches_scipy_oracle).
        # Over seeds 0-19 the share of single splits below 0.90 is 10 % for
        # naive Bayes, 35 % for logistic regression and 5 % for k-NN.
        x, y = iris_scaled
        accuracies = []
        for seed in range(20):
            train_idx, test_idx = stratified_split(y, seed=seed)
            model = fit(kind, x[train_idx], y[train_idx])
            accuracies.append(np.mean(predict(model, x[test_idx]) == y[test_idx]))
        assert np.mean(accuracies) >= 0.90

    def test_gnb_seed0_matches_scipy_oracle(self, iris_scaled):
        # per-class normal log-densities with population variance; the
        # stratified split leaves equal priors, so they do not enter the argmax
        stats = pytest.importorskip("scipy.stats")
        x, y = iris_scaled
        train_idx, test_idx = stratified_split(y, seed=0)
        x_train, y_train = x[train_idx], y[train_idx]
        assert np.bincount(y_train).tolist() == [40, 40, 40]
        log_lik = np.stack(
            [
                stats.norm.logpdf(
                    x[test_idx], x_train[y_train == c].mean(axis=0), x_train[y_train == c].std(axis=0)
                ).sum(axis=1)
                for c in range(3)
            ],
            axis=1,
        )
        expected = np.argmax(log_lik, axis=1)
        model = fit(GAUSSIAN_NAIVE_BAYES, x_train, y_train)
        assert np.array_equal(predict(model, x[test_idx]), expected)
        assert test_idx[expected != y[test_idx]].tolist() == [70, 77, 106, 133]

    @pytest.mark.parametrize("kind", KINDS)
    def test_demo_rows_correctly_classified(self, iris_scaled, kind):
        x, y = iris_scaled
        model = fit(kind, x, y)
        rows = np.array(DEFAULT_IRIS_ROWS)
        assert np.array_equal(predict(model, x[rows]), y[rows])


class TestLogReg:
    def test_loss_monotone_on_iris(self, iris_scaled):
        x, y = iris_scaled
        model = fit(LOGISTIC_REGRESSION, x, y)
        losses = model.params["loss_history"]
        assert losses.size == 500
        assert np.all(np.diff(losses) <= 1e-9)

    def test_deterministic(self, iris_scaled):
        x, y = iris_scaled
        a = fit(LOGISTIC_REGRESSION, x, y)
        b = fit(LOGISTIC_REGRESSION, x, y)
        assert np.array_equal(a.params["weights"], b.params["weights"])


class TestAgreement:
    def test_identity(self, iris_scaled):
        x, y = iris_scaled
        model = fit(GAUSSIAN_NAIVE_BAYES, x, y)
        assert agreement_eval(model, x, x) == 1.0

    def test_constructed_disagreement(self, iris_scaled):
        x, y = iris_scaled
        model = fit(GAUSSIAN_NAIVE_BAYES, x, y)
        rows = x[np.array(DEFAULT_IRIS_ROWS)]
        modified = rows.copy()
        # replace one setosa row by the mean of the class-2 rows
        modified[0] = x[y == 2].mean(axis=0)
        n = len(rows)
        assert abs(agreement_eval(model, rows, modified) - (n - 1) / n) < 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_small_perturbations_preserve_predictions(self, iris_scaled, kind):
        # reconstruction-scale noise: per-row error vectors of RMSE 0.079
        x, y = iris_scaled
        model = fit(kind, x, y)
        rows = x[np.array(DEFAULT_IRIS_ROWS)]
        rng = np.random.default_rng(11)
        for _ in range(5):
            noise = rng.normal(0, 1, rows.shape)
            noise *= 0.0789 / np.sqrt(np.mean(noise**2, axis=1, keepdims=True))
            assert agreement_eval(model, rows, rows + noise) == 1.0

    def test_shape_mismatch(self, iris_scaled):
        x, y = iris_scaled
        model = fit(GAUSSIAN_NAIVE_BAYES, x, y)
        with pytest.raises(ValueError):
            agreement_eval(model, x[:3], x[:4])


class TestStratifiedSplit:
    def test_partition(self):
        y = np.repeat([0, 1, 2], 50)
        train_idx, test_idx = stratified_split(y, seed=1)
        assert len(set(train_idx) & set(test_idx)) == 0
        assert len(train_idx) + len(test_idx) == 150
        for c in range(3):
            assert np.sum(y[test_idx] == c) == 10

    def test_deterministic(self):
        y = np.repeat([0, 1], 20)
        assert np.array_equal(stratified_split(y, seed=5)[1], stratified_split(y, seed=5)[1])

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            stratified_split(np.array([0, 1]), test_fraction=0.0)
