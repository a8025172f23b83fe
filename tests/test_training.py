import math
from dataclasses import fields

import numpy as np
import pytest
import scipy.optimize

from qgrnn import training
from qgrnn.ising import draw_times, random_complete_graph, sample_evolution, TimeEvolvedSample
from qgrnn.pipeline import learn_from_states
from qgrnn.statevector import basis_state, random_state
from qgrnn.training import (
    MAX_BATCH,
    MAX_EPOCHS,
    MAX_LAYERS,
    MAX_RESTARTS,
    AdamState,
    CostEvaluator,
    TrainConfig,
    adam_step,
    initial_params,
    linear_inversion_start,
    train_qgrnn,
)

from conftest import (
    apply_qgrnn,
    apply_s10_qgrnn,
    batch_cost,
    fidelity,
    grad_central,
    grad_richardson,
    random_state_array,
    swap_test_fidelity,
)


def random_params(rng, n, edge_range=(-1, 1), node_range=(0, 5)):
    """Coefficients: couplings drawn over ``edge_range``, then node weights over ``node_range``."""
    couplings = rng.uniform(*edge_range, n * (n - 1) // 2)
    return np.concatenate([couplings, rng.uniform(*node_range, n)])


def make_instance(n, seed, node_scale=5.0, batch=15, t_max=0.5):
    """Target coefficients, shared initial state, and exactly-evolved samples."""
    rng = np.random.default_rng(seed)
    coefficients = random_complete_graph(rng.uniform(0, node_scale, n), rng)
    initial = random_state(n, seed + 1000)
    times = draw_times(batch, t_max)
    return coefficients, initial, sample_evolution(coefficients, initial, times)


class TestFidelityDirect:
    """``fidelity``, the oracle's |<a|b>|^2 from the amplitudes."""

    def test_self_fidelity(self):
        state = random_state(3, 1)
        assert abs(fidelity(state, state) - 1.0) < 1e-9

    def test_orthogonal(self):
        assert fidelity(basis_state(1, 0), basis_state(1, 1)) == 0.0

    def test_half(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(fidelity(basis_state(1), plus) - 0.5) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(basis_state(1), basis_state(2))


class TestFidelitySwapTest:
    """The paper's SWAP test on the 2n+1-qubit register, against the fidelity training computes."""

    def test_identical_states(self):
        state = random_state(2, 2)
        assert abs(swap_test_fidelity(state, state) - 1.0) <= 1e-10

    def test_orthogonal_states(self):
        assert abs(swap_test_fidelity(basis_state(2, 0), basis_state(2, 3))) <= 1e-10

    def test_matches_direct_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            n = (2, 3, 4)[trial % 3]
            a = random_state_array(rng, n)
            b = random_state_array(rng, n)
            assert abs(swap_test_fidelity(a, b) - fidelity(a, b)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="state sizes differ: 2 vs 4 amplitudes"):
            swap_test_fidelity(basis_state(1), basis_state(2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_measures_the_cost_training_minimizes(self, n):
        # one sample of a random graph, against the circuit of other random coefficients
        _, initial, (sample,) = make_instance(n, seed=60 + n, batch=1)
        coefficients = random_params(np.random.default_rng(n), n)
        evolved = apply_s10_qgrnn(initial, coefficients, sample.time, 0.01)
        measured = swap_test_fidelity(sample.state, evolved)
        cost = CostEvaluator(initial, [sample], 0.01).cost(coefficients)
        assert 0.01 < measured < 0.99
        # the cost is the infidelity
        assert abs((1.0 - measured) - cost) <= 1e-10


BAD_STATES = {
    "non-unit": np.full(4, 0.6),
    "nan": np.array([np.nan, 0.0, 0.0, 0.0]),
    "three amplitudes": np.array([1.0, 0.0, 0.0]),
}


def state_entries():
    """Each public entry that takes a caller's state, as a call on one state in one role."""
    good = random_state(2, 0)
    samples = sample_evolution(np.zeros(3), good, [0.1, 0.2])
    config = TrainConfig(epochs=1)
    as_sample = lambda state: [samples[0], TimeEvolvedSample(0.2, state)]  # noqa: E731
    return {
        "sample_evolution": lambda s: sample_evolution(np.zeros(3), s, [0.1]),
        "train_qgrnn initial": lambda s: train_qgrnn(s, samples, config, start=np.zeros(3)),
        "train_qgrnn sample": lambda s: train_qgrnn(good, as_sample(s), config, start=np.zeros(3)),
        "linear_inversion_start initial": lambda s: linear_inversion_start(s, samples),
        "linear_inversion_start sample": lambda s: linear_inversion_start(good, as_sample(s)),
        "CostEvaluator initial": lambda s: CostEvaluator(s, samples, 0.01),
        "CostEvaluator sample": lambda s: CostEvaluator(good, as_sample(s), 0.01),
    }


class TestStateChecks:
    """Every public entry checks a caller's state once, as ``checked_state`` does."""

    @pytest.mark.parametrize("entry", list(state_entries()))
    @pytest.mark.parametrize("bad", list(BAD_STATES))
    def test_rejects_a_bad_state(self, entry, bad):
        with pytest.raises(ValueError, match=r"state norm|a state needs 2\^n"):
            state_entries()[entry](BAD_STATES[bad])

    @pytest.mark.parametrize("entry", [e for e in state_entries() if e.endswith("sample")])
    def test_rejects_a_state_of_another_size(self, entry):
        # the 2-qubit entries given a 3-qubit state: a clear message, not numpy's
        with pytest.raises(ValueError, match="has 8 amplitudes, initial has 4"):
            state_entries()[entry](random_state(3, 1))


class TestBatchCost:
    def test_near_minus_one_at_target(self):
        coefficients, initial, samples = make_instance(3, 4)
        cost = batch_cost(coefficients, initial, samples, 0.01)
        assert cost <= -0.999

    def test_zero_for_orthogonal_sample(self):
        params = np.zeros(3)
        initial = random_state(2, 5)
        evolved = apply_s10_qgrnn(initial, params, 0.3, 0.01)
        # build a sample state orthogonal to the circuit output
        other = random_state_array(np.random.default_rng(6), 2)
        other -= np.vdot(evolved, other) * evolved
        other /= np.linalg.norm(other)
        samples = [TimeEvolvedSample(0.3, other)]
        assert abs(batch_cost(params, initial, samples, 0.01)) < 1e-12

    def test_bounded(self):
        rng = np.random.default_rng(7)
        _, initial, samples = make_instance(2, 8)
        for _ in range(10):
            params = random_params(rng, 2, (-3, 3), (-5, 5))
            cost = batch_cost(params, initial, samples, 0.02)
            assert -1.0 <= cost <= 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_cost(np.zeros(3), random_state(2, 0), [], 0.01)


class TestGradCentral:
    def test_matches_four_point_oracle(self):
        coefficients, initial, samples = make_instance(2, 9, batch=5)
        rng = np.random.default_rng(10)
        flat = random_params(rng, 2)
        h = 1e-3
        grad = grad_central(flat, initial, samples, 0.02, h)
        for k in range(flat.size):
            def cost_at(value):
                bumped = flat.copy()
                bumped[k] = value
                return batch_cost(bumped, initial, samples, 0.02)

            oracle = (
                cost_at(flat[k] - 2 * h)
                - 8 * cost_at(flat[k] - h)
                + 8 * cost_at(flat[k] + h)
                - cost_at(flat[k] + 2 * h)
            ) / (12 * h)
            assert abs(grad[k] - oracle) <= 1e-4 * max(1.0, abs(oracle))

    def test_near_zero_at_target(self):
        coefficients, initial, samples = make_instance(3, 11, batch=8)
        grad = grad_central(coefficients, initial, samples, 0.002, 1e-3)
        assert np.max(np.abs(grad)) <= 1e-3

    def test_agrees_with_half_step_stencil(self):
        coefficients, initial, samples = make_instance(2, 12, batch=5)
        rng = np.random.default_rng(13)
        params = random_params(rng, 2)
        g1 = grad_central(params, initial, samples, 0.02, 1e-3)
        g2 = grad_central(params, initial, samples, 0.02, 5e-4)
        assert np.all(np.abs(g1 - g2) <= np.maximum(1e-4, 1e-2 * np.abs(g1)))


class TestCostEvaluator:
    def test_matches_reference_cost(self):
        coefficients, initial, samples = make_instance(3, 14)
        evaluator = CostEvaluator(initial, samples, 0.01)
        rng = np.random.default_rng(15)
        for _ in range(3):
            params = random_params(rng, 3)
            reference = batch_cost(params, initial, samples, 0.01)
            # the reference is -fidelity, the cost the infidelity
            assert abs((evaluator.cost(params) - 1.0) - reference) <= 1e-12

    def test_matches_reference_gradient(self):
        coefficients, initial, samples = make_instance(2, 16, batch=6)
        evaluator = CostEvaluator(initial, samples, 0.02)
        rng = np.random.default_rng(17)
        params = random_params(rng, 2)
        reference = grad_richardson(params, initial, samples, 0.02)
        fast = evaluator.gradient(params)
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
        # the mixed batch has depths 30, 10, 50 and 10 at delta 0.01 (3, 1, 5 and 1
        # steps of ten layers): unsorted, and every row but the deepest starts late
        rng = np.random.default_rng(30 + n)
        coefficients = random_complete_graph(rng.uniform(-4, 5, n), rng)
        initial = random_state(n, 40 + n)
        samples = sample_evolution(coefficients, initial, np.array(times))
        evaluator = CostEvaluator(initial, samples, 0.01)
        flat = rng.uniform(-1, 1, n * (n + 1) // 2)
        assert abs((evaluator.cost(flat) - 1.0) - batch_cost(flat, initial, samples, 0.01)) <= 1e-12
        oracle = grad_richardson(flat, initial, samples, 0.01)
        assert np.max(np.abs(evaluator.gradient(flat) - oracle)) <= 1e-10

    def test_costs_evaluates_each_column(self):
        _, initial, samples = make_instance(3, 26, batch=5)
        evaluator = CostEvaluator(initial, samples, 0.01)
        rng = np.random.default_rng(27)
        flat_matrix = rng.uniform(-1, 1, (evaluator.param_count, 3))
        costs = evaluator.costs(flat_matrix)
        assert costs.shape == (3,)
        for column, cost in zip(flat_matrix.T, costs):
            reference = batch_cost(column, initial, samples, 0.01)
            assert abs((cost - 1.0) - reference) <= 1e-12
            # one forward pass per column, so a column's cost is its cost() bit for bit
            assert cost == evaluator.cost(column)

    def test_retains_no_dense_matrix(self):
        # a dense transverse matrix per sample would hold 15 x 4^8 entries, 15.7 MB
        _, initial, samples = make_instance(8, 28, batch=15)
        evaluator = CostEvaluator(initial, samples, 0.01)
        arrays = retained_arrays(evaluator)
        assert sum(a.nbytes for a in arrays) <= 500_000
        assert max(a.size for a in arrays) < 4**8
        # the kept forward pass adds nine (15, 2^8) complex tables (seven phase
        # tables, the last states and psi) and 15 overlaps: 553,200 B
        flat = np.random.default_rng(28).uniform(-1, 1, evaluator.param_count)
        evaluator.cost(flat)
        evaluator.gradient(flat)
        arrays = retained_arrays(evaluator)
        assert sum(a.nbytes for a in arrays) == 999_904
        assert max(a.size for a in arrays) < 4**8

    def test_bounds_the_layer_count(self):
        _, initial, samples = make_instance(2, 29, batch=1)
        state = samples[0].state
        CostEvaluator(initial, [TimeEvolvedSample(MAX_LAYERS * 0.01, state)], 0.01)
        for t in ((MAX_LAYERS + 1) * 0.01, 1e9):
            with pytest.raises(ValueError, match="layers"):
                CostEvaluator(initial, [TimeEvolvedSample(t, state)], 0.01)


def count_forward_passes(monkeypatch) -> list:
    """A list that gains one entry per forward pass, that is per ``CostEvaluator._evolve`` call."""
    passes = []
    evolve = CostEvaluator._evolve

    def counted(self, phases):
        passes.append(self)
        return evolve(self, phases)

    monkeypatch.setattr(CostEvaluator, "_evolve", counted)
    return passes


class TestForwardReuse:
    def test_gradient_after_cost_is_bit_for_bit_a_fresh_one(self):
        _, initial, samples = make_instance(3, 32, batch=5)
        flat = random_params(np.random.default_rng(33), 3)
        evaluator = CostEvaluator(initial, samples, 0.01)
        evaluator.cost(flat)
        fresh = CostEvaluator(initial, samples, 0.01).gradient(flat)
        assert np.array_equal(evaluator.gradient(flat), fresh)

    def test_a_gradient_at_the_scored_point_runs_no_forward_pass(self, monkeypatch):
        passes = count_forward_passes(monkeypatch)
        _, initial, samples = make_instance(3, 34, batch=5)
        x, y = (random_params(np.random.default_rng(seed), 3) for seed in (35, 36))
        evaluator = CostEvaluator(initial, samples, 0.01)
        evaluator.cost(x)
        evaluator.gradient(x.copy())
        assert len(passes) == 1
        evaluator.cost(x)
        evaluator.gradient(y)
        assert len(passes) == 2

    def test_an_array_changed_in_place_gets_a_fresh_pass(self, monkeypatch):
        passes = count_forward_passes(monkeypatch)
        _, initial, samples = make_instance(3, 37, batch=5)
        flat = random_params(np.random.default_rng(38), 3)
        evaluator = CostEvaluator(initial, samples, 0.01)
        evaluator.cost(flat)
        flat[-1] += 0.25
        grad = evaluator.gradient(flat)
        assert len(passes) == 2
        assert np.array_equal(grad, CostEvaluator(initial, samples, 0.01).gradient(flat))

    def test_the_kept_pass_is_read_only(self):
        _, initial, samples = make_instance(2, 39, batch=3)
        evaluator = CostEvaluator(initial, samples, 0.01)
        phases, last, psi, overlaps = evaluator._forward(np.zeros(3))
        kept = [*phases.values(), last, psi, overlaps]
        assert len(kept) == 10 and not any(a.flags.writeable for a in kept)
        with pytest.raises(ValueError, match="read-only"):
            psi[0, 0] = 0.0

    def test_a_training_run_makes_one_pass_per_cost(self, monkeypatch):
        # the start is scored first, so every gradient is taken where the last
        # cost was scored: at the start, after an Adam step's cost, and in BFGS
        # after the accepted trial's
        passes = count_forward_passes(monkeypatch)
        costs = []
        cost = CostEvaluator.cost
        monkeypatch.setattr(CostEvaluator, "cost", lambda self, flat: costs.append(1) or cost(self, flat))
        _, initial, samples = make_instance(2, 19, batch=5)
        config = TrainConfig(seed=1)
        result = train_qgrnn(initial, samples, config, start=seeded_start(2, config))
        # both phases ran: 50 Adam epochs, then BFGS until it converged
        assert len(result.cost_history) > 50 and result.stop_reason == "converged"
        assert len(passes) == len(costs)

    def test_bfgs_from_the_start_takes_the_gradient_adam_took_there(self, monkeypatch):
        # Adam's first step from a slope start is undone; BFGS starts with the
        # gradient at the start, so no gradient runs a forward pass. The last
        # line search can halve its step below the spacing of the coefficients
        # and score the kept point again, so count the points scored
        passes = count_forward_passes(monkeypatch)
        points, steps = [], []
        cost = CostEvaluator.cost
        monkeypatch.setattr(CostEvaluator, "cost",
                            lambda self, flat: points.append(flat.tobytes()) or cost(self, flat))
        monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(1) or adam_step(*args))
        _, initial, samples = make_instance(3, 41, batch=8, t_max=0.1)
        train_qgrnn(initial, samples, TrainConfig(), start=linear_inversion_start(initial, samples))
        assert len(steps) == 1
        assert len(passes) == 1 + sum(a != b for a, b in zip(points, points[1:]))


class TestAdamStep:
    def test_zero_gradient_is_identity(self):
        params = np.array([1.0, -2.0])
        state, updated = adam_step(AdamState.zeros(2), params, np.zeros(2), 0.5)
        assert np.array_equal(updated, params)
        assert state.step_count == 1

    def test_first_step_is_signed_learning_rate(self):
        grads = np.array([3.7, -0.002, 11.0])
        _, updated = adam_step(AdamState.zeros(3), np.zeros(3), grads, 0.5)
        assert np.allclose(updated, -0.5 * np.sign(grads), atol=1e-6)

    def test_converges_on_quadratic(self):
        # minimizing f(x) = x^2 from x0 = 5; measured |x| is 1.5e-2 after 100
        # steps (the lr-0.5 oscillation is still decaying) and 3.6e-5 by 200
        x = np.array([5.0])
        state = AdamState.zeros(1)
        for step in range(250):
            state, x = adam_step(state, x, 2 * x, 0.5)
            if step == 99:
                assert abs(x[0]) <= 0.02
        assert abs(x[0]) <= 1e-3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(AdamState.zeros(2), np.zeros(2), np.zeros(3), 0.5)


class TestSplittingOrder:
    def test_learned_error_falls_with_the_order(self, monkeypatch):
        # the error of the learned coefficients at delta and delta/2: about 64x
        # lower for the sixth-order circuit training fits, 2x for first order.
        # The times are multiples of 10 delta, so every row's step count doubles
        # exactly (K = 1, 2 -> 2, 4); with two distinct times the short-time
        # slope cannot be fitted, so both fits start from the truth
        rng = np.random.default_rng(2)
        truth = random_complete_graph(rng.uniform(0, 5, 3), rng)
        initial = random_state(3, 102)
        samples = sample_evolution(truth, initial, np.resize([0.25, 0.5], 15))
        sixth, first = [], []
        for delta in (0.025, 0.0125):
            monkeypatch.setattr(TrainConfig, "trotter_delta", delta)
            result = train_qgrnn(initial, samples, TrainConfig(), start=truth)
            sixth.append(np.max(np.abs(result.learned_params - truth)))

            def first_order_cost(flat):
                return batch_cost(flat, initial, samples, delta, circuit=apply_qgrnn)

            fit = scipy.optimize.minimize(first_order_cost, truth, method="BFGS")
            assert fit.success
            first.append(np.max(np.abs(fit.x - truth)))
        # measured: 1.1e-5 -> 1.6e-7 (67.4x) and 4.3e-2 -> 2.1e-2 (2.0x)
        assert 54.4 <= sixth[0] / sixth[1] <= 73.6
        assert 1.7 <= first[0] / first[1] <= 2.6


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(t_max=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(restarts=0)
        with pytest.raises(ValueError, match="t_max must be a finite number"):
            TrainConfig(t_max=float("nan"))
        assert TrainConfig(batch_size=MAX_BATCH).batch_size == MAX_BATCH == 64
        with pytest.raises(ValueError, match="batch_size must be <= 64, got 65"):
            TrainConfig(batch_size=MAX_BATCH + 1)

    @pytest.mark.parametrize("name, bound", [("epochs", MAX_EPOCHS), ("restarts", MAX_RESTARTS)])
    def test_bounds_the_epochs_and_restarts(self, name, bound):
        assert (MAX_EPOCHS, MAX_RESTARTS) == (10_000, 100)
        assert getattr(TrainConfig(**{name: bound}), name) == bound
        with pytest.raises(ValueError, match=f"{name} must be <= {bound}, got {bound + 1}"):
            TrainConfig(**{name: bound + 1})

    def test_rejects_a_negative_seed(self):
        assert TrainConfig(seed=0).seed == 0
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(seed=-1)

    def test_bounds_the_layers_of_t_max(self):
        delta = TrainConfig().trotter_delta
        assert TrainConfig(t_max=MAX_LAYERS * delta).t_max == MAX_LAYERS * delta
        with pytest.raises(ValueError, match="t_max"):
            TrainConfig(t_max=(MAX_LAYERS + 1) * delta)
        with pytest.raises(ValueError, match="t_max"):
            TrainConfig(t_max=1e9)
        # 1.7e308 / 0.003 overflows to inf
        with pytest.raises(ValueError, match="t_max"):
            TrainConfig(t_max=1.7e308)

    def test_fields_are_the_options_a_caller_sets(self):
        assert [f.name for f in fields(TrainConfig)] == [
            "batch_size", "epochs", "t_max", "seed", "restarts"
        ]
        # the Trotter step, the start range and fd_step are constants, not options
        assert (TrainConfig.trotter_delta, TrainConfig.init_low, TrainConfig.init_high,
                TrainConfig.fd_step) == (0.003, -1.0, 1.0, 1e-3)
        for name in ("trotter_delta", "init_low"):
            with pytest.raises(TypeError):
                TrainConfig(**{name: 0.0})

    def test_initial_params_use_ranges(self):
        params = initial_params(4, 3, (0.0, 5.0))
        assert params.shape == (10,)
        assert np.all(params[:6] >= -1) and np.all(params[:6] <= 1)
        assert np.all(params[6:] >= 0) and np.all(params[6:] <= 5)


def seeded_start(node_count, config):
    """The seeded draw of ``initial_params``, with the node weights over the couplings' range."""
    return initial_params(node_count, config.seed, (TrainConfig.init_low, TrainConfig.init_high))


class TestTrainQgrnn:
    def test_deterministic(self):
        _, initial, samples = make_instance(2, 18, batch=5)
        config = TrainConfig(epochs=10, seed=7)
        a = train_qgrnn(initial, samples, config, start=seeded_start(2, config))
        b = train_qgrnn(initial, samples, config, start=seeded_start(2, config))
        assert a.cost_history == b.cost_history
        assert np.array_equal(a.learned_params, b.learned_params)

    def test_history_shape_and_range(self):
        _, initial, samples = make_instance(2, 19, batch=5)
        config = TrainConfig(epochs=12, seed=1)
        result = train_qgrnn(initial, samples, config, start=seeded_start(2, config))
        rows = len(result.cost_history)
        assert 1 <= rows <= 12
        assert [epoch for epoch, _ in result.cost_history] == list(range(1, rows + 1))
        assert all(-1.0 <= cost <= 0.0 for _, cost in result.cost_history)
        assert result.final_cost == result.cost_history[-1][1]

    def test_rate_anneals_from_the_peak(self, monkeypatch):
        calls = []

        def recording_step(state, params_flat, grads, rate):
            calls.append(rate)
            return adam_step(state, params_flat, grads, rate)

        monkeypatch.setattr(training, "adam_step", recording_step)
        _, initial, samples = make_instance(2, 19, batch=5)
        config = TrainConfig(seed=1)
        assert config.epochs == 150
        train_qgrnn(initial, samples, config, start=seeded_start(2, config))
        # the Adam phase is the first ceil(E / 3) epochs; the anneal spans it
        assert len(calls) == 50
        assert calls[0] == training.LEARNING_RATE == 0.5
        assert all(a > b for a, b in zip(calls, calls[1:]))
        assert calls[-1] < 1e-3 * calls[0]

    def test_stops_early_once_converged(self):
        # from the start every command uses: on the instance's Chebyshev times
        # the seeded random start lands in a basin at cost -0.677
        _, initial, samples = make_instance(2, 19, batch=5)
        config = TrainConfig(seed=1)
        result = train_qgrnn(initial, samples, config, start=linear_inversion_start(initial, samples))
        assert result.stop_reason == "converged"
        assert len(result.cost_history) < 150
        assert result.final_cost <= -0.9999

    def test_a_start_in_its_basin_skips_adam(self, monkeypatch):
        # the slope start of a short exact archive: Adam's full-rate first step
        # raises the cost, so it is undone and BFGS runs from the start
        steps = []

        def recording_step(state, params_flat, grads, rate):
            steps.append(rate)
            return adam_step(state, params_flat, grads, rate)

        monkeypatch.setattr(training, "adam_step", recording_step)
        _, initial, samples = make_instance(3, 41, batch=8, t_max=0.1)
        start = linear_inversion_start(initial, samples)
        result = train_qgrnn(initial, samples, TrainConfig(), start=start)
        assert steps == [training.LEARNING_RATE]
        # BFGS rows only: numbered from 1, none above the last or the start (the
        # rows hold -fidelity, which can round two lower infidelities to one value)
        epochs = [epoch for epoch, _ in result.cost_history]
        costs = [CostEvaluator(initial, samples, TrainConfig.trotter_delta).cost(start) - 1.0]
        costs += [cost for _, cost in result.cost_history]
        assert epochs == list(range(1, len(epochs) + 1))
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert result.stop_reason == "converged" and result.final_cost <= -0.9999

    def test_a_start_no_step_can_improve_is_the_one_row(self):
        # refitting from a refit: neither Adam's first step nor any BFGS step
        # lowers the cost, so the start is the result and its cost the one row
        _, initial, samples = make_instance(3, 41, batch=8, t_max=0.1)
        start = linear_inversion_start(initial, samples)
        for _ in range(2):
            start = train_qgrnn(initial, samples, TrainConfig(), start=start).learned_params
        result = train_qgrnn(initial, samples, TrainConfig(), start=start)
        assert np.array_equal(result.learned_params, start)
        cost = CostEvaluator(initial, samples, TrainConfig.trotter_delta).cost(start)
        assert result.cost_history == ((1, cost - 1.0),) and result.final_cost == cost - 1.0
        assert result.stop_reason == "converged"

    def test_a_spent_budget_stops_on_epochs(self):
        _, initial, samples = make_instance(2, 19, batch=5)
        config = TrainConfig(epochs=3, seed=1)
        result = train_qgrnn(initial, samples, config, start=seeded_start(2, config))
        assert result.stop_reason == "epochs"
        assert [epoch for epoch, _ in result.cost_history] == [1, 2, 3]

    def test_recovers_zero_target(self):
        rng = np.random.default_rng(20)
        coefficients = random_complete_graph(np.zeros(3), rng)
        initial = random_state(3, 21)
        samples = sample_evolution(coefficients, initial, draw_times(15, 0.5))
        config = TrainConfig(seed=2)
        result = train_qgrnn(initial, samples, config, start=seeded_start(3, config))
        assert np.max(np.abs(result.learned_params[-3:])) <= 0.1

    def test_recovers_scaled_feature_target(self):
        # node weights from a real feature row of the bundled dataset
        target = np.array([1.944, 3.75, 0.593, 0.417])
        rng = np.random.default_rng(1)
        coefficients = random_complete_graph(target, rng)
        initial = random_state(4, 1001)
        samples = sample_evolution(coefficients, initial, draw_times(15, 0.5))
        start = initial_params(4, 3, (0.0, 5.0))
        result = train_qgrnn(initial, samples, TrainConfig(seed=3), start=start)
        mse = np.mean((result.learned_params[-4:] - target) ** 2)
        assert mse <= 0.01

    def test_three_node_final_cost(self):
        coefficients, initial, samples = make_instance(3, 24)
        start = initial_params(3, 4, (0.0, 5.0))
        result = train_qgrnn(initial, samples, TrainConfig(seed=4), start=start)
        assert result.final_cost <= -0.95


class QuadraticEvaluator:
    """Stub with the evaluator's cost form, an infidelity: f(x) = FLOOR + (x - x*)^T A (x - x*) / 2."""

    # the cost at the minimum, the size of a fit's residual infidelity
    FLOOR = 1e-18

    def __init__(self, size, condition, seed):
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.normal(size=(size, size)))
        self.matrix = basis @ np.diag(np.logspace(-np.log10(condition), 0, size)) @ basis.T
        self.minimum = rng.uniform(-1, 1, size)

    def cost(self, flat):
        offset = flat - self.minimum
        return self.FLOOR + 0.5 * offset @ self.matrix @ offset

    def gradient(self, flat):
        return self.matrix @ (flat - self.minimum)


class TestBfgsPhase:
    def test_minimizes_an_ill_conditioned_quadratic(self):
        evaluator = QuadraticEvaluator(10, 1e3, seed=50)
        start = np.zeros(10)
        start_cost = evaluator.cost(start)
        history = [(1, start_cost)]
        params, reason = training._bfgs_phase(evaluator, start, start_cost, 200, history)
        assert reason == "converged"
        costs = [cost for _, cost in history]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert history[-1][1] == evaluator.cost(params)
        assert history[-1][1] - evaluator.FLOOR <= 1e-10
        assert [epoch for epoch, _ in history] == list(range(1, len(history) + 1))

    def test_stops_on_the_budget(self):
        evaluator = QuadraticEvaluator(10, 1e3, seed=51)
        history = [(1, evaluator.cost(np.zeros(10)))]
        _, reason = training._bfgs_phase(evaluator, np.zeros(10), history[0][1], 2, history)
        assert reason == "epochs"
        assert [epoch for epoch, _ in history] == [1, 2, 3]

    def test_stops_before_a_line_search_on_round_off(self):
        # 1e-13 from the minimum the predicted decrease |g.d| is ~1e-26, below
        # eps sqrt(cost) ~ 2e-25, the rounding of a cost near 1e-18: no cost is
        # evaluated, where a line search would spend 21 on round-off
        evaluator = QuadraticEvaluator(4, 10.0, seed=52)
        start = evaluator.minimum + 1e-13
        cost = evaluator.cost(start)
        grads = evaluator.gradient(start)
        assert grads @ grads <= training.FLOAT_EPS * math.sqrt(cost)
        costs = []
        evaluator.cost = lambda flat: costs.append(flat) or cost
        history = []
        params, reason = training._bfgs_phase(evaluator, start, cost, 5, history)
        assert reason == "converged" and history == [] and costs == []
        assert np.array_equal(params, start)

    @pytest.mark.parametrize("cost", [1e-18, 1e-6])
    @pytest.mark.parametrize("factor, searches", [(1.01, True), (0.99, False)])
    def test_the_stop_is_the_rounding_of_the_residual(self, cost, factor, searches):
        # rounding the residual r by eps moves the cost ||r||^2 by eps sqrt(cost):
        # a predicted decrease |g.d| = |g|^2 just above that runs the line search,
        # one just below it stops with no cost evaluated
        evaluator = QuadraticEvaluator(4, 10.0, seed=54)
        grads = np.full(4, math.sqrt(factor * training.FLOAT_EPS * math.sqrt(cost) / 4))
        costs = []
        evaluator.cost = lambda flat: costs.append(flat) or cost
        evaluator.gradient = lambda flat: grads
        history = []
        _, reason = training._bfgs_phase(evaluator, np.zeros(4), cost, 5, history)
        assert reason == "converged" and history == []
        assert len(costs) == (training.MAX_HALVINGS + 1 if searches else 0)

    def test_takes_no_step_that_does_not_lower_the_cost(self):
        # a flat infidelity of 1 beside a gradient of norm 5e-7: the Armijo bound
        # 1 - 2.5e-17 rounds to 1, so only the strict decrease refuses every step
        evaluator = QuadraticEvaluator(4, 10.0, seed=53)
        grads = np.full(4, 2.5e-7)
        evaluator.cost = lambda flat: 1.0
        evaluator.gradient = lambda flat: grads
        # the bound of the unit step, the largest, is the cost itself
        assert 1.0 + training.ARMIJO_C1 * -(grads @ grads) == 1.0
        history = []
        params, reason = training._bfgs_phase(evaluator, np.zeros(4), 1.0, 5, history)
        assert reason == "converged" and history == []
        assert np.array_equal(params, np.zeros(4))


class TestResidualCost:
    """The infidelity in its residual form resolves the cost far below the float spacing near 1."""

    def test_fits_from_any_start_end_at_one_optimum(self):
        truth, initial, samples = make_instance(4, 3, batch=8)
        config = TrainConfig()
        continued, attempts = learn_from_states(initial, samples, config, (0.0, 5.0))
        slope = train_qgrnn(initial, samples, config, start=linear_inversion_start(initial, samples))
        exact = train_qgrnn(initial, samples, config, start=truth)
        assert attempts == 1
        # measured: 2.7e-14 and 8.0e-13
        for other in (slope, exact):
            assert np.max(np.abs(other.learned_params - continued.learned_params)) <= 1e-11

    def test_resolves_the_curvature_at_the_learned_point(self):
        # (cost(x + h v) - cost(x)) / h^2 is half the curvature along v for any
        # small h; at the learned point, -fidelity is within 1.1e-16 of -1 and
        # rounds it away at h = 1e-8, where the residual form keeps it
        _, initial, samples = make_instance(4, 3, batch=8)
        config = TrainConfig()
        learned = learn_from_states(initial, samples, config, (0.0, 5.0))[0].learned_params
        evaluator = CostEvaluator(initial, samples, config.trotter_delta)
        direction = np.random.default_rng(42).normal(size=learned.size)
        direction /= np.linalg.norm(direction)

        def minus_fidelity(flat):
            return -np.mean(np.abs(evaluator._forward(flat)[3]) ** 2)

        for cost, resolves in ((evaluator.cost, True), (minus_fidelity, False)):
            base = cost(learned)
            wide, narrow = ((cost(learned + h * direction) - base) / h**2 for h in (1e-6, 1e-8))
            assert (abs(narrow - wide) <= 1e-4 * abs(wide)) == resolves, (wide, narrow)


class TestCostLandscape:
    def test_target_is_local_minimum(self):
        rng = np.random.default_rng(25)
        for trial in range(20):
            coefficients, initial, samples = make_instance(3, 400 + trial, batch=10)
            base = batch_cost(coefficients, initial, samples, 0.01)
            k = rng.integers(coefficients.size)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            bumped = coefficients.copy()
            bumped[k] += sign * 0.5
            perturbed = batch_cost(bumped, initial, samples, 0.01)
            assert perturbed > base
