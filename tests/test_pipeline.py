import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qgrnn import pipeline, seeding
from qgrnn.datasets import bundled_iris_path, load_iris_csv, minmax_scale
from qgrnn.ising import draw_times, random_complete_graph, sample_evolution
from qgrnn.pipeline import embed_and_sample, learn_from_states
from qgrnn.statevector import basis_state, random_state
from qgrnn.training import CostEvaluator, TrainConfig, linear_inversion_start, train_qgrnn

from conftest import stacked_inversion_start


def exact_archive(n, seed, t_max=0.1, batch=15):
    """Target coefficients (node weights in [-1, 1]), one initial state, and exact samples."""
    rng = np.random.default_rng(seed)
    coefficients = random_complete_graph(rng.uniform(-1, 1, n), rng)
    initial = random_state(n, seed + 500)
    times = draw_times(batch, t_max)
    return coefficients, initial, sample_evolution(coefficients, initial, times)


def traced_peak(call) -> int:
    """Bytes ``call()`` holds at its peak beyond what was allocated before it, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestLinearInversionStart:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_recovers_exact_coefficients(self, n):
        for seed in range(3):
            coefficients, initial, samples = exact_archive(n, 10 * n + seed)
            estimate = linear_inversion_start(initial, samples)
            assert np.max(np.abs(estimate - coefficients)) <= 1e-6

    @pytest.mark.parametrize("n", range(2, 11))
    def test_normal_equations_match_the_stacked_system(self, n):
        _, initial, samples = exact_archive(n, 90 + n)
        expected = stacked_inversion_start(initial, samples)
        assert np.max(np.abs(linear_inversion_start(initial, samples) - expected)) <= 1e-10

    def test_a_basis_state_gets_the_minimum_norm_answer(self):
        # |psi0|^2 is one-hot, so the normal equations have rank 1
        coefficients = random_complete_graph(np.linspace(-1.0, 1.0, 4), np.random.default_rng(5))
        initial = basis_state(4, 6)
        samples = sample_evolution(coefficients, initial, draw_times(15, 0.1))
        expected = stacked_inversion_start(initial, samples)
        assert np.max(np.abs(linear_inversion_start(initial, samples) - expected)) <= 1e-10

    def test_peak_memory_at_12_qubits(self):
        # stacking the real and imaginary parts of the complex design peaks at 12.5 MB
        _, initial, samples = exact_archive(12, 4)
        assert traced_peak(lambda: linear_inversion_start(initial, samples)) < 9e6

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


def test_embed_and_sample_times_are_the_chebyshev_points_whatever_the_seed():
    weights = [1.0, -2.0, 3.5]
    runs = [embed_and_sample(weights, TrainConfig(seed=seed, t_max=0.7)) for seed in (0, 1, 7703)]
    for _, _, samples in runs:
        assert [s.time for s in samples] == draw_times(TrainConfig.batch_size, 0.7).tolist()
        assert len(samples) == 8
    # the couplings and the initial state still follow the seed
    assert not np.array_equal(runs[0][0], runs[1][0])
    assert not np.array_equal(runs[0][1], runs[1][1])


def test_embed_and_sample_peak_memory_at_14_qubits():
    # the (2^14, 105) coupling columns are one 13.8 MB array; a list of
    # columns stacked into it would hold two at once, a 28 MB peak
    weights = np.linspace(0.0, 5.0, 14)
    assert traced_peak(lambda: embed_and_sample(weights, TrainConfig(seed=0))) < 20e6


def test_default_iris_rows_reconstruct_to_the_trotter_error(monkeypatch):
    # as `reconstruct` runs them, with every option at its default; at a
    # Trotter step of 0.01 the largest MSE was 1.16e-14, at 0.008 1.43e-15 with
    # the -fidelity cost, at 0.006 with the residual cost 4.6e-17, and at 0.003,
    # with BFGS stopping at the rounding of the residual, it is 8.3e-21
    passes = []
    evolve = CostEvaluator._evolve
    monkeypatch.setattr(
        CostEvaluator, "_evolve", lambda self, phases: passes.append(1) or evolve(self, phases)
    )
    features = minmax_scale(load_iris_csv(bundled_iris_path()).features, *pipeline.FEATURE_RANGE)
    outcomes = [
        pipeline.reconstruct_sample(
            features[i], TrainConfig(seed=seeding.derive_seed(0, seeding.RECONSTRUCT_SAMPLE, i))
        )
        for i in pipeline.DEFAULT_IRIS_ROWS
    ]
    assert [o.attempts for o in outcomes] == [1] * 6
    assert max(o.report.mse for o in outcomes) <= 1e-19
    # forward passes of the kernel: 241, where a last line search below the
    # cost's rounding made it 712
    assert len(passes) <= 300


class TestLearnFromStates:
    def test_fallback_runs_every_restart_and_keeps_the_best(self, monkeypatch):
        # a stub with prescribed final costs, so the best attempt is the second
        # one whatever the kernel or the schedule would give; the first attempt
        # is two calls, the early samples' and then all samples'
        _, initial, samples = exact_archive(2, 24, t_max=0.5, batch=5)
        final_costs = iter([-0.8, -0.5, -0.9, -0.7, -0.6])
        calls = []

        def stub_train(initial, samples, config, start):
            result = SimpleNamespace(final_cost=next(final_costs), learned_params=np.full(3, len(calls)))
            calls.append((samples, start, result))
            return result

        monkeypatch.setattr(pipeline, "train_qgrnn", stub_train)
        config = TrainConfig(epochs=2, seed=8, restarts=4)
        result, attempts = learn_from_states(initial, samples, config, (0.0, 5.0), accept_cost=-0.99)
        assert attempts == 4 and len(calls) == 5
        # the Chebyshev times of 5 samples: the first two lie at or below half the deepest
        early = samples[:2]
        assert [s.time for s in calls[0][0]] == [s.time for s in early]
        assert np.array_equal(calls[0][1], linear_inversion_start(initial, early))
        assert calls[1][0] is samples
        assert np.array_equal(calls[1][1], calls[0][2].learned_params)
        for attempt in (1, 2, 3):
            # restart r draws the coupling, then the node weights over the given range,
            # from the PARAM_INIT stream of the seed derived from (config seed, RESTART, r)
            seed = seeding.derive_seed(8, seeding.RESTART, attempt)
            rng = seeding.derive_rng(seed, seeding.PARAM_INIT)
            expected = np.concatenate([rng.uniform(-1.0, 1.0, 1), rng.uniform(0.0, 5.0, 2)])
            assert calls[attempt + 1][0] is samples
            assert np.array_equal(calls[attempt + 1][1], expected)
        assert result is calls[2][2]

    def test_restarts_must_be_positive(self):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            TrainConfig(epochs=1, restarts=0)
