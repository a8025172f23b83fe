from types import SimpleNamespace

import numpy as np
import pytest

from qgrnn import pipeline
from qgrnn.ising import draw_times, random_complete_graph, sample_evolution
from qgrnn.pipeline import learn_from_states
from qgrnn.statevector import random_state
from qgrnn.training import TrainConfig, linear_inversion_start, train_qgrnn


def exact_archive(n, seed, t_max=0.1, batch=15):
    """Target coefficients (node weights in [-1, 1]), one initial state, and exact samples."""
    rng = np.random.default_rng(seed)
    coefficients = random_complete_graph(rng.uniform(-1, 1, n), rng)
    initial = random_state(n, seed + 500)
    times = draw_times(batch, t_max, rng)
    return coefficients, initial, sample_evolution(coefficients, initial, times)


class TestLinearInversionStart:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_recovers_exact_coefficients(self, n):
        for seed in range(3):
            coefficients, initial, samples = exact_archive(n, 10 * n + seed)
            estimate = linear_inversion_start(initial, samples)
            assert np.max(np.abs(estimate - coefficients)) <= 1e-6

    def test_single_sample_gives_linear_fit(self):
        coefficients, initial, samples = exact_archive(3, 7, t_max=1e-4, batch=1)
        estimate = linear_inversion_start(initial, samples)
        assert estimate.shape == coefficients.shape
        assert np.max(np.abs(estimate - coefficients)) <= 1e-2

    def test_start_is_where_training_begins(self):
        coefficients, initial, samples = exact_archive(2, 3, batch=5)
        start = linear_inversion_start(initial, samples)
        a = train_qgrnn(initial, samples, TrainConfig(epochs=3, seed=1), start=start)
        b = train_qgrnn(initial, samples, TrainConfig(epochs=3, seed=2), start=start)
        assert a.cost_history == b.cost_history
        with pytest.raises(ValueError):
            train_qgrnn(initial, samples, TrainConfig(epochs=3), start=start[:-1])


class TestLearnFromStates:
    def test_fallback_runs_every_restart_and_keeps_the_best(self, monkeypatch):
        # a stub with prescribed final costs, so the best attempt is the second
        # one whatever the kernel or the schedule would give
        _, initial, samples = exact_archive(2, 24, t_max=0.5, batch=5)
        final_costs = iter([-0.5, -0.9, -0.7, -0.6])
        calls = []

        def stub_train(initial, samples, config, start=None):
            result = SimpleNamespace(final_cost=next(final_costs))
            calls.append((config.seed, start is not None, result))
            return result

        monkeypatch.setattr(pipeline, "train_qgrnn", stub_train)
        config = TrainConfig(epochs=2, seed=8, restarts=4)
        result, attempts = learn_from_states(initial, samples, config, accept_cost=-0.99)
        assert attempts == 4
        assert [warm for _, warm, _ in calls] == [True, False, False, False]
        assert calls[0][0] == 8 and len({seed for seed, _, _ in calls}) == 4
        assert result is calls[1][2]

    def test_restarts_must_be_positive(self):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            TrainConfig(epochs=1, restarts=0)
