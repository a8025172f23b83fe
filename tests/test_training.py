import numpy as np
import pytest

from qgrnn.ansatz import AnsatzParams, apply_qgrnn
from qgrnn.ising import draw_times, random_complete_graph, sample_evolution, TimeEvolvedSample
from qgrnn.statevector import StateVector, basis_state, random_state
from qgrnn.training import (
    MAX_LAYERS,
    AdamState,
    CostEvaluator,
    TrainConfig,
    adam_step,
    batch_cost,
    fidelity_direct,
    fidelity_swap_test,
    initial_params,
    train_qgrnn,
)

from conftest import grad_central, grad_richardson, random_state_array


def make_instance(n, seed, node_scale=5.0, batch=15, t_max=0.5):
    """Target graph, shared initial state, and exactly-evolved samples."""
    rng = np.random.default_rng(seed)
    graph = random_complete_graph(rng.uniform(0, node_scale, n), rng)
    initial = random_state(n, seed + 1000)
    times = draw_times(batch, t_max, rng)
    return graph, initial, sample_evolution(graph, initial, times)


class TestFidelityDirect:
    def test_self_fidelity(self):
        state = random_state(3, 1)
        assert abs(fidelity_direct(state, state) - 1.0) < 1e-9

    def test_orthogonal(self):
        assert fidelity_direct(basis_state(1, 0), basis_state(1, 1)) == 0.0

    def test_half(self):
        plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
        assert abs(fidelity_direct(basis_state(1), plus) - 0.5) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_direct(basis_state(1), basis_state(2))


class TestFidelitySwapTest:
    def test_identical_states(self):
        state = random_state(2, 2)
        assert abs(fidelity_swap_test(state, state) - 1.0) <= 1e-10

    def test_orthogonal_states(self):
        assert abs(fidelity_swap_test(basis_state(2, 0), basis_state(2, 3))) <= 1e-10

    def test_matches_direct_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            n = (2, 3, 4)[trial % 3]
            a = StateVector(n, random_state_array(rng, n))
            b = StateVector(n, random_state_array(rng, n))
            assert abs(fidelity_swap_test(a, b) - fidelity_direct(a, b)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_swap_test(basis_state(1), basis_state(2))


class TestBatchCost:
    def test_near_minus_one_at_target(self):
        graph, initial, samples = make_instance(3, 4)
        cost = batch_cost(AnsatzParams.from_graph(graph), initial, samples, 0.01)
        assert cost <= -0.999

    def test_zero_for_orthogonal_sample(self):
        params = AnsatzParams(2, np.zeros(1), np.zeros(2))
        initial = random_state(2, 5)
        evolved = apply_qgrnn(initial, params, 0.3, 0.01).amplitudes
        # build a sample state orthogonal to the circuit output
        other = random_state_array(np.random.default_rng(6), 2)
        other -= np.vdot(evolved, other) * evolved
        other /= np.linalg.norm(other)
        samples = [TimeEvolvedSample(0.3, StateVector(2, other))]
        assert abs(batch_cost(params, initial, samples, 0.01)) < 1e-12

    def test_bounded(self):
        rng = np.random.default_rng(7)
        _, initial, samples = make_instance(2, 8)
        for _ in range(10):
            params = AnsatzParams(2, rng.uniform(-3, 3, 1), rng.uniform(-5, 5, 2))
            cost = batch_cost(params, initial, samples, 0.02)
            assert -1.0 <= cost <= 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_cost(AnsatzParams(2, [0.0], [0.0, 0.0]), random_state(2, 0), [], 0.01)


class TestGradCentral:
    def test_matches_four_point_oracle(self):
        graph, initial, samples = make_instance(2, 9, batch=5)
        rng = np.random.default_rng(10)
        params = AnsatzParams(2, rng.uniform(-1, 1, 1), rng.uniform(0, 5, 2))
        h = 1e-3
        grad = grad_central(params, initial, samples, 0.02, h)
        flat = params.flatten()
        for k in range(flat.size):
            def cost_at(value):
                bumped = flat.copy()
                bumped[k] = value
                return batch_cost(AnsatzParams.from_flat(2, bumped), initial, samples, 0.02)

            oracle = (
                cost_at(flat[k] - 2 * h)
                - 8 * cost_at(flat[k] - h)
                + 8 * cost_at(flat[k] + h)
                - cost_at(flat[k] + 2 * h)
            ) / (12 * h)
            assert abs(grad[k] - oracle) <= 1e-4 * max(1.0, abs(oracle))

    def test_near_zero_at_target(self):
        graph, initial, samples = make_instance(3, 11, batch=8)
        grad = grad_central(AnsatzParams.from_graph(graph), initial, samples, 0.002, 1e-3)
        assert np.max(np.abs(grad)) <= 1e-3

    def test_agrees_with_half_step_stencil(self):
        graph, initial, samples = make_instance(2, 12, batch=5)
        rng = np.random.default_rng(13)
        params = AnsatzParams(2, rng.uniform(-1, 1, 1), rng.uniform(0, 5, 2))
        g1 = grad_central(params, initial, samples, 0.02, 1e-3)
        g2 = grad_central(params, initial, samples, 0.02, 5e-4)
        assert np.all(np.abs(g1 - g2) <= np.maximum(1e-4, 1e-2 * np.abs(g1)))


class TestCostEvaluator:
    def test_matches_reference_cost(self):
        graph, initial, samples = make_instance(3, 14)
        evaluator = CostEvaluator(initial, samples, 0.01)
        rng = np.random.default_rng(15)
        for _ in range(3):
            params = AnsatzParams(3, rng.uniform(-1, 1, 3), rng.uniform(0, 5, 3))
            reference = batch_cost(params, initial, samples, 0.01)
            assert abs(evaluator.cost(params.flatten()) - reference) <= 1e-12

    def test_matches_reference_gradient(self):
        graph, initial, samples = make_instance(2, 16, batch=6)
        evaluator = CostEvaluator(initial, samples, 0.02)
        rng = np.random.default_rng(17)
        params = AnsatzParams(2, rng.uniform(-1, 1, 1), rng.uniform(0, 5, 2))
        reference = grad_richardson(params, initial, samples, 0.02)
        fast = evaluator.gradient(params.flatten(), 1e-3)
        assert np.max(np.abs(fast - reference)) <= 1e-10


def retained_arrays(obj) -> list[np.ndarray]:
    """Every numpy array an object holds in its attributes, directly or in dicts, lists and tuples."""
    found, stack = [], list(vars(obj).values())
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
    return found


class TestAdjointKernel:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "times", [(0.31, 0.012, 0.47, 0.137), (0.26,)], ids=["mixed-depths", "one-sample"]
    )
    def test_matches_references(self, n, times):
        # the mixed batch has depths 31, 1, 47 and 14 at delta 0.01: unsorted, and
        # every row but the deepest starts late
        rng = np.random.default_rng(30 + n)
        graph = random_complete_graph(rng.uniform(-4, 5, n), rng)
        initial = random_state(n, 40 + n)
        samples = sample_evolution(graph, initial, np.array(times))
        evaluator = CostEvaluator(initial, samples, 0.01)
        params = AnsatzParams.from_flat(n, rng.uniform(-1, 1, n * (n + 1) // 2))
        flat = params.flatten()
        assert abs(evaluator.cost(flat) - batch_cost(params, initial, samples, 0.01)) <= 1e-12
        oracle = grad_richardson(params, initial, samples, 0.01)
        assert np.max(np.abs(evaluator.gradient(flat, 1e-3) - oracle)) <= 1e-10

    def test_costs_evaluates_each_column(self):
        _, initial, samples = make_instance(3, 26, batch=5)
        evaluator = CostEvaluator(initial, samples, 0.01)
        rng = np.random.default_rng(27)
        flat_matrix = rng.uniform(-1, 1, (evaluator.param_count, 3))
        costs = evaluator.costs(flat_matrix)
        assert costs.shape == (3,)
        for column, cost in zip(flat_matrix.T, costs):
            reference = batch_cost(AnsatzParams.from_flat(3, column), initial, samples, 0.01)
            assert abs(cost - reference) <= 1e-12

    def test_retains_no_dense_matrix(self):
        # a dense transverse matrix per sample would hold 15 x 4^8 entries, 15.7 MB
        _, initial, samples = make_instance(8, 28, batch=15)
        arrays = retained_arrays(CostEvaluator(initial, samples, 0.01))
        assert sum(a.nbytes for a in arrays) <= 500_000
        assert max(a.size for a in arrays) < 4**8

    def test_bounds_the_layer_count(self):
        _, initial, samples = make_instance(2, 29, batch=1)
        state = samples[0].state
        CostEvaluator(initial, [TimeEvolvedSample(MAX_LAYERS * 0.01, state)], 0.01)
        for t in ((MAX_LAYERS + 1) * 0.01, 1e9):
            with pytest.raises(ValueError, match="layers"):
                CostEvaluator(initial, [TimeEvolvedSample(t, state)], 0.01)


class TestAdamStep:
    def config(self, lr=0.5):
        return TrainConfig(learning_rate=lr)

    def test_zero_gradient_is_identity(self):
        params = np.array([1.0, -2.0])
        state, updated = adam_step(AdamState.zeros(2), params, np.zeros(2), self.config())
        assert np.array_equal(updated, params)
        assert state.step_count == 1

    def test_first_step_is_signed_learning_rate(self):
        grads = np.array([3.7, -0.002, 11.0])
        _, updated = adam_step(AdamState.zeros(3), np.zeros(3), grads, self.config())
        assert np.allclose(updated, -0.5 * np.sign(grads), atol=1e-6)

    def test_converges_on_quadratic(self):
        # minimizing f(x) = x^2 from x0 = 5; measured |x| is 1.5e-2 after 100
        # steps (the lr-0.5 oscillation is still decaying) and 3.6e-5 by 200
        x = np.array([5.0])
        state = AdamState.zeros(1)
        config = self.config()
        for step in range(250):
            state, x = adam_step(state, x, 2 * x, config)
            if step == 99:
                assert abs(x[0]) <= 0.02
        assert abs(x[0]) <= 1e-3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(AdamState.zeros(2), np.zeros(2), np.zeros(3), self.config())


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(trotter_delta=0.0)
        with pytest.raises(ValueError):
            TrainConfig(t_max=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(fd_step=0.0)

    def test_node_init_falls_back_to_shared_range(self):
        assert TrainConfig().node_init_range == (-1.0, 1.0)
        assert TrainConfig(node_init_low=0.0, node_init_high=5.0).node_init_range == (0.0, 5.0)

    def test_initial_params_use_ranges(self):
        config = TrainConfig(seed=3, node_init_low=0.0, node_init_high=5.0)
        params = initial_params(4, config)
        assert np.all(params.edge_params >= -1) and np.all(params.edge_params <= 1)
        assert np.all(params.node_params >= 0) and np.all(params.node_params <= 5)


class TestTrainQgrnn:
    def test_deterministic(self):
        _, initial, samples = make_instance(2, 18, batch=5)
        config = TrainConfig(epochs=10, seed=7)
        a = train_qgrnn(initial, samples, config)
        b = train_qgrnn(initial, samples, config)
        assert a.cost_history == b.cost_history
        assert np.array_equal(a.learned_params.flatten(), b.learned_params.flatten())

    def test_history_shape_and_range(self):
        _, initial, samples = make_instance(2, 19, batch=5)
        result = train_qgrnn(initial, samples, TrainConfig(epochs=12, seed=1))
        assert len(result.cost_history) == 12
        assert [epoch for epoch, _ in result.cost_history] == list(range(1, 13))
        assert all(-1.0 <= cost <= 0.0 for _, cost in result.cost_history)
        assert result.final_cost == result.cost_history[-1][1]

    def test_recovers_zero_target(self):
        rng = np.random.default_rng(20)
        graph = random_complete_graph(np.zeros(3), rng)
        initial = random_state(3, 21)
        samples = sample_evolution(graph, initial, draw_times(15, 0.5, rng))
        result = train_qgrnn(initial, samples, TrainConfig(seed=2))
        assert np.max(np.abs(result.learned_params.node_params)) <= 0.1

    def test_recovers_scaled_feature_target(self):
        # node weights from a real feature row of the bundled dataset
        target = np.array([1.944, 3.75, 0.593, 0.417])
        rng = np.random.default_rng(1)
        graph = random_complete_graph(target, rng)
        initial = random_state(4, 1001)
        samples = sample_evolution(graph, initial, draw_times(15, 0.5, rng))
        config = TrainConfig(seed=3, node_init_low=0.0, node_init_high=5.0)
        result = train_qgrnn(initial, samples, config)
        mse = np.mean((result.learned_params.node_params - target) ** 2)
        assert mse <= 0.01

    def test_three_node_final_cost(self):
        graph, initial, samples = make_instance(3, 24)
        config = TrainConfig(seed=4, node_init_low=0.0, node_init_high=5.0)
        result = train_qgrnn(initial, samples, config)
        assert result.final_cost <= -0.95


class TestCostLandscape:
    def test_target_is_local_minimum(self):
        rng = np.random.default_rng(25)
        for trial in range(20):
            graph, initial, samples = make_instance(3, 400 + trial, batch=10)
            target = AnsatzParams.from_graph(graph)
            base = batch_cost(target, initial, samples, 0.01)
            flat = target.flatten()
            k = rng.integers(flat.size)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            bumped = flat.copy()
            bumped[k] += sign * 0.5
            perturbed = batch_cost(AnsatzParams.from_flat(3, bumped), initial, samples, 0.01)
            assert perturbed > base
