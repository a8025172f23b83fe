import numpy as np
import pytest

from qgrnn import pipeline
from qgrnn.ansatz import AnsatzParams
from qgrnn.ising import draw_times, random_complete_graph, sample_evolution
from qgrnn.pipeline import learn_from_states
from qgrnn.statevector import random_state
from qgrnn.training import TrainConfig, linear_inversion_start, train_qgrnn


def exact_archive(n, seed, t_max=0.1, batch=15):
    """Target graph with node weights in [-1, 1], one initial state, and exactly evolved samples."""
    rng = np.random.default_rng(seed)
    graph = random_complete_graph(rng.uniform(-1, 1, n), rng)
    initial = random_state(n, seed + 500)
    return graph, initial, sample_evolution(graph, initial, draw_times(batch, t_max, rng))


class TestLinearInversionStart:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_recovers_exact_coefficients(self, n):
        for seed in range(3):
            graph, initial, samples = exact_archive(n, 10 * n + seed)
            estimate = linear_inversion_start(initial, samples)
            truth = AnsatzParams.from_graph(graph).flatten()
            assert np.max(np.abs(estimate - truth)) <= 1e-6

    def test_single_sample_gives_linear_fit(self):
        graph, initial, samples = exact_archive(3, 7, t_max=1e-4, batch=1)
        estimate = linear_inversion_start(initial, samples)
        truth = AnsatzParams.from_graph(graph).flatten()
        assert estimate.shape == truth.shape
        assert np.max(np.abs(estimate - truth)) <= 1e-2

    def test_start_is_where_training_begins(self):
        graph, initial, samples = exact_archive(2, 3, batch=5)
        start = linear_inversion_start(initial, samples)
        a = train_qgrnn(initial, samples, TrainConfig(epochs=3, seed=1), start=start)
        b = train_qgrnn(initial, samples, TrainConfig(epochs=3, seed=2), start=start)
        assert a.cost_history == b.cost_history
        with pytest.raises(ValueError):
            train_qgrnn(initial, samples, TrainConfig(epochs=3), start=start[:-1])


class TestLearnFromStates:
    def test_fallback_runs_every_restart_and_keeps_the_best(self, monkeypatch):
        _, initial, samples = exact_archive(2, 24, t_max=0.5, batch=5)
        calls = []

        def recording_train(initial, samples, config, start=None):
            result = train_qgrnn(initial, samples, config, start=start)
            calls.append((config.seed, start is not None, result))
            return result

        monkeypatch.setattr(pipeline, "train_qgrnn", recording_train)
        config = TrainConfig(epochs=2, seed=9)
        result, attempts = learn_from_states(initial, samples, config, restarts=4, accept_cost=-1.01)
        assert attempts == 4
        assert [warm for _, warm, _ in calls] == [True, False, False, False]
        assert len({seed for seed, _, _ in calls[1:]}) == 3
        costs = [r.final_cost for _, _, r in calls]
        # this instance's best attempt is neither the first nor the last one
        assert 0 < int(np.argmin(costs)) < len(costs) - 1
        assert result is calls[int(np.argmin(costs))][2]

    def test_restarts_must_be_positive(self):
        _, initial, samples = exact_archive(2, 6, batch=3)
        with pytest.raises(ValueError):
            learn_from_states(initial, samples, TrainConfig(epochs=1), restarts=0)
