import json
import math

import numpy as np
import pytest

from qgrnn.metrics import MetricReport, evaluate


class TestEvaluate:
    def test_identical_vectors(self):
        report = evaluate([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert report.mse == 0.0
        assert report.rmse == 0.0
        assert report.mae == 0.0
        assert abs(report.cosine - 1.0) < 1e-12

    def test_known_reconstruction_pair(self):
        # four-feature sample in the [0, 5] frame and its learned reconstruction
        actual = [1.944, 3.75, 0.593, 0.417]
        predicted = [1.961, 3.811, 0.601, 0.398]
        report = evaluate(actual, predicted)
        assert abs(report.mse - 0.001107) <= 5e-5
        assert abs(report.cosine - 0.999979) <= 1e-5
        assert abs(report.rmse - math.sqrt(report.mse)) <= 1e-15
        assert abs(report.mae - 0.02625) <= 1e-12

    def test_antiparallel(self):
        v = np.array([1.0, -2.0, 0.5])
        assert abs(evaluate(v, -v).cosine + 1.0) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([1.0, 2.0], [1.0])

    @pytest.mark.parametrize(
        "actual, predicted",
        [([0.0, 0.0], [1.0, 2.0]), ([1.0, 2.0], [0.0, 0.0]), ([0.0, 0.0], [0.0, 0.0])],
        ids=["zero actual", "zero predicted", "both zero"],
    )
    def test_zero_vector_has_no_cosine(self, actual, predicted):
        # the other metrics stay defined; the report stays JSON-serializable
        report = evaluate(actual, predicted)
        assert report.cosine is None
        assert report.mse == float(np.mean((np.array(actual) - predicted) ** 2))
        assert json.loads(json.dumps(report.to_dict()))["cosine"] is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], [])


class TestMetricProperties:
    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(0, 1, 5), rng.normal(0, 1, 5)
        fwd, back = evaluate(a, b), evaluate(b, a)
        assert fwd.mse == back.mse
        assert fwd.rmse == back.rmse
        assert fwd.mae == back.mae
        assert abs(fwd.cosine - back.cosine) < 1e-15

    def test_scaling(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(0, 1, 6), rng.normal(0, 1, 6)
        base, scaled = evaluate(a, b), evaluate(3 * a, 3 * b)
        assert abs(scaled.cosine - base.cosine) <= 1e-12
        assert abs(scaled.rmse - 3 * base.rmse) <= 1e-12
        assert abs(scaled.mae - 3 * base.mae) <= 1e-12

    def test_rmse_mse_and_mae_relations(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = rng.normal(0, 2, 7), rng.normal(0, 2, 7)
            report = evaluate(a, b)
            assert abs(report.rmse**2 - report.mse) <= 1e-12
            assert report.mae <= report.rmse + 1e-12

    def test_json_serializable(self):
        report = evaluate([1.0, 2.0], [1.5, 2.5])
        payload = json.loads(json.dumps(report.to_dict()))
        assert set(payload) == {"mse", "rmse", "mae", "cosine"}
        assert MetricReport(**payload) == report
