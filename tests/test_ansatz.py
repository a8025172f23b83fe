from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from qgrnn.ansatz import DIAGONAL_WEIGHTS, TRANSVERSE_WEIGHTS, layer_count, transverse_layer_matrix
from qgrnn.ising import coupling_columns, hamiltonian_diagonal, random_complete_graph, sample_evolution
from qgrnn.statevector import random_state
from qgrnn.training import TrainConfig, train_qgrnn

from conftest import (
    S10_DIAGONAL,
    S10_TRANSVERSE,
    SUZUKI_STAGES,
    apply_qgrnn,
    apply_rx,
    apply_s10_qgrnn,
    apply_strang_layer,
    apply_strang_qgrnn,
    apply_suzuki_qgrnn,
    apply_trotter_layer,
    eigh_evolve,
    fidelity,
    kron_hamiltonian,
    rx_matrix,
    split_diagonal_transverse,
)


def random_params(n, seed, node_scale=5.0):
    rng = np.random.default_rng(seed)
    couplings = rng.uniform(-1, 1, n * (n - 1) // 2)
    return np.concatenate([couplings, rng.uniform(0, node_scale, n)])


class TestAnsatzParams:
    def test_wrong_lengths_rejected(self):
        # 3 qubits take 6 parameters: 3 couplings, then 3 node weights
        initial = random_state(3, 1)
        samples = sample_evolution(random_params(3, 2), initial, [0.1, 0.2])
        for start in (np.zeros(5), np.zeros(7), np.zeros((6, 1))):
            with pytest.raises(ValueError, match=r"expected \(6,\)"):
                train_qgrnn(initial, samples, TrainConfig(), start=start)


class TestTrotterLayer:
    def test_zero_params_is_pure_transverse(self):
        state = random_state(3, 3)
        params = np.zeros(6)
        out = apply_trotter_layer(state, params, 0.13)
        expected = state
        for q in range(3):
            expected = apply_rx(expected, q, 2 * 0.13)
        assert np.allclose(out, expected, atol=1e-12)

    def test_unitary(self):
        out = apply_trotter_layer(random_state(3, 4), random_params(3, 5), 0.01)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_matches_matrix_exponential_oracle(self):
        # layer applies the diagonal exponential first, then the transverse one
        params = random_params(3, 6)
        state = random_state(3, 7)
        delta = 0.05
        diagonal, transverse = split_diagonal_transverse(kron_hamiltonian(3, params))
        expected = (
            scipy.linalg.expm(-1j * delta * transverse)
            @ scipy.linalg.expm(-1j * delta * diagonal)
            @ state
        )
        out = apply_trotter_layer(state, params, delta)
        assert np.max(np.abs(out - expected)) <= 1e-10

    def test_strang_layer_matches_matrix_exponential_oracle(self):
        # half the transverse exponential, the diagonal one, then the other half
        params = random_params(3, 6)
        state = random_state(3, 7)
        delta = 0.05
        diagonal, transverse = split_diagonal_transverse(kron_hamiltonian(3, params))
        half = scipy.linalg.expm(-0.5j * delta * transverse)
        expected = half @ scipy.linalg.expm(-1j * delta * diagonal) @ half @ state
        out = apply_strang_layer(state, params, delta)
        assert np.max(np.abs(out - expected)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_trotter_layer(random_state(2, 0), random_params(3, 0), 0.01)

    def test_nonpositive_delta(self):
        with pytest.raises(ValueError):
            apply_trotter_layer(random_state(3, 0), random_params(3, 0), 0.0)


class TestLayerCount:
    def test_exact_division(self):
        assert layer_count(0.5, 0.01) == 50

    def test_single_layer(self):
        assert layer_count(0.01, 0.01) == 1
        assert layer_count(0.004, 0.01) == 1

    def test_nonpositive_time(self):
        with pytest.raises(ValueError):
            layer_count(0.0, 0.01)


class TestApplyQgrnn:
    def test_single_layer_when_t_equals_delta(self):
        params = random_params(3, 8)
        state = random_state(3, 9)
        via_qgrnn = apply_qgrnn(state, params, 0.01, 0.01)
        via_layer = apply_trotter_layer(state, params, 0.01)
        assert np.allclose(via_qgrnn, via_layer, atol=1e-12)

    def test_equals_literal_layer_composition(self):
        params = random_params(3, 10)
        state = random_state(3, 11)
        t, delta = 0.37, 0.01
        depth = layer_count(t, delta)
        d_eff = t / depth
        literal = state
        for _ in range(depth):
            literal = apply_trotter_layer(literal, params, d_eff)
        fast = apply_qgrnn(state, params, t, delta)
        assert np.max(np.abs(fast - literal)) <= 1e-9

    def test_converges_to_exact_evolution(self):
        rng = np.random.default_rng(12)
        params = random_complete_graph(rng.uniform(0, 5, 3), rng)
        state = random_state(3, 13)
        exact = eigh_evolve(params, state, 0.5)
        approx = apply_qgrnn(state, params, 0.5, 1e-4)
        assert fidelity(approx, exact) >= 1 - 1e-6

    def test_nonpositive_time(self):
        with pytest.raises(ValueError):
            apply_qgrnn(random_state(2, 0), random_params(2, 0), -0.1, 0.01)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_qgrnn(random_state(2, 0), random_params(3, 0), 0.1, 0.01)


class TestApplyStrangQgrnn:
    def test_equals_literal_layer_composition(self):
        params = random_params(3, 10)
        state = random_state(3, 11)
        t, delta = 0.37, 0.01
        depth = layer_count(t, delta)
        literal = state
        for _ in range(depth):
            literal = apply_strang_layer(literal, params, t / depth)
        fast = apply_strang_qgrnn(state, params, t, delta)
        assert np.max(np.abs(fast - literal)) <= 1e-9

    def test_error_falls_with_the_order(self):
        # halving the step cuts the state error 4x, against 2x for first order
        # (measured: 4.0004 and 2.0017)
        rng = np.random.default_rng(14)
        params = random_complete_graph(rng.uniform(0, 5, 4), rng)
        state = random_state(4, 15)
        exact = eigh_evolve(params, state, 0.5)
        for circuit, low, high in ((apply_strang_qgrnn, 3.9, 4.1), (apply_qgrnn, 1.9, 2.1)):
            errors = [
                np.linalg.norm(circuit(state, params, 0.5, delta) - exact)
                for delta in (0.01, 0.005)
            ]
            assert low <= errors[0] / errors[1] <= high


class TestApplySuzukiQgrnn:
    def test_one_step_matches_matrix_exponential_oracle(self):
        # five Strang stages of steps (p, p, 1 - 4p, p, p) d, the middle one backwards
        params = random_params(3, 6)
        state = random_state(3, 7)
        d = 0.1
        diagonal, transverse = split_diagonal_transverse(kron_hamiltonian(3, params))
        expected = state
        for weight in SUZUKI_STAGES:
            half = scipy.linalg.expm(-0.5j * weight * d * transverse)
            expected = half @ scipy.linalg.expm(-1j * weight * d * diagonal) @ half @ expected
        assert SUZUKI_STAGES[2] < 0
        out = apply_suzuki_qgrnn(state, params, d, d / 5)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_error_falls_16x_when_delta_halves(self):
        # t = 0.5 is a multiple of 5 delta for both steps, so the step halves
        # exactly (10 and 20 steps); measured 5.1e-6 -> 3.2e-7, 16.06x
        rng = np.random.default_rng(14)
        params = random_complete_graph(rng.uniform(0, 5, 4), rng)
        state = random_state(4, 15)
        exact = eigh_evolve(params, state, 0.5)
        errors = [
            np.linalg.norm(apply_suzuki_qgrnn(state, params, 0.5, delta) - exact)
            for delta in (0.01, 0.005)
        ]
        assert 15.5 <= errors[0] / errors[1] <= 16.5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_suzuki_qgrnn(random_state(2, 0), random_params(3, 0), 0.1, 0.01)


class TestApplyS10Qgrnn:
    def test_weights_are_the_papers(self):
        # each set of weights is symmetric and sums to 1; the package's equal the
        # ones typed from Blanes & Moan in the oracle
        for weights in (S10_DIAGONAL, S10_TRANSVERSE):
            assert abs(sum(weights) - 1.0) <= 1e-15
            assert weights == weights[::-1]
        assert (len(S10_DIAGONAL), len(S10_TRANSVERSE)) == (11, 10)
        assert DIAGONAL_WEIGHTS == S10_DIAGONAL
        assert TRANSVERSE_WEIGHTS == S10_TRANSVERSE

    def test_one_step_matches_matrix_exponential_oracle(self):
        # P(a1 d) T(b1 d) P(a2 d) ... T(b10 d) P(a11 d), some of the steps backwards
        params = random_params(3, 6)
        state = random_state(3, 7)
        d = 0.1
        diagonal, transverse = split_diagonal_transverse(kron_hamiltonian(3, params))
        expected = scipy.linalg.expm(-1j * S10_DIAGONAL[0] * d * diagonal) @ state
        for a, b in zip(S10_DIAGONAL[1:], S10_TRANSVERSE):
            expected = scipy.linalg.expm(-1j * b * d * transverse) @ expected
            expected = scipy.linalg.expm(-1j * a * d * diagonal) @ expected
        assert min(S10_DIAGONAL) < 0 and min(S10_TRANSVERSE) < 0
        out = apply_s10_qgrnn(state, params, d, d / 10)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_error_falls_64x_when_delta_halves(self):
        # t = 0.5 is a multiple of 10 delta for both steps, so the step halves
        # exactly (5 and 10 steps); measured 7.3e-8 -> 1.1e-9, 64.9x
        rng = np.random.default_rng(14)
        params = random_complete_graph(rng.uniform(0, 5, 4), rng)
        state = random_state(4, 15)
        exact = eigh_evolve(params, state, 0.5)
        errors = [
            np.linalg.norm(apply_s10_qgrnn(state, params, 0.5, delta) - exact)
            for delta in (0.01, 0.005)
        ]
        assert 60.0 <= errors[0] / errors[1] <= 68.0

    def test_beats_suzuki_at_the_same_layer_count(self):
        # 50 diagonal layers each at delta = 0.01: 5 S10 steps against 10 Suzuki
        # steps; measured 5.1e-6 against 7.3e-8, 70.8x
        rng = np.random.default_rng(14)
        params = random_complete_graph(rng.uniform(0, 5, 4), rng)
        state = random_state(4, 15)
        exact = eigh_evolve(params, state, 0.5)
        sixth = np.linalg.norm(apply_s10_qgrnn(state, params, 0.5, 0.01) - exact)
        fourth = np.linalg.norm(apply_suzuki_qgrnn(state, params, 0.5, 0.01) - exact)
        assert fourth / sixth >= 50.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_s10_qgrnn(random_state(2, 0), random_params(3, 0), 0.1, 0.01)


class TestTransverseLayerMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_product_of_rotations(self, n):
        steps = np.array([0.0, 0.013, -0.4, 1.7])
        stacked = transverse_layer_matrix(n, steps)
        assert stacked.shape == (4, 2**n, 2**n)
        for step, matrix in zip(steps, stacked):
            expected = reduce(np.kron, [rx_matrix(2.0 * step)] * n)
            assert np.max(np.abs(transverse_layer_matrix(n, step) - expected)) <= 1e-15
            assert np.max(np.abs(matrix - expected)) <= 1e-15

    def test_is_the_exponential_of_the_transverse_field(self):
        _, transverse = split_diagonal_transverse(kron_hamiltonian(3, np.zeros(6)))
        expected = scipy.linalg.expm(-0.3j * transverse)
        assert np.max(np.abs(transverse_layer_matrix(3, 0.3) - expected)) <= 1e-14


class TestTrotterConvergence:
    def test_deficit_decreases_monotonically(self):
        rng = np.random.default_rng(14)
        params = random_complete_graph(rng.uniform(0, 5, 4), rng)
        state = random_state(4, 15)
        exact = eigh_evolve(params, state, 0.5)
        deficits = []
        for delta in (0.04, 0.02, 0.01, 0.005):
            approx = apply_qgrnn(state, params, 0.5, delta)
            deficits.append(1.0 - fidelity(approx, exact))
        assert all(a - b > -1e-12 for a, b in zip(deficits, deficits[1:]))

    def test_high_fidelity_at_default_step(self):
        for n in (3, 6):
            rng = np.random.default_rng(100 + n)
            params = random_complete_graph(rng.uniform(0, 5, n), rng)
            state = random_state(n, 200 + n)
            exact = eigh_evolve(params, state, 0.5)
            approx = apply_qgrnn(state, params, 0.5, 0.01)
            assert fidelity(approx, exact) >= 0.999

    def test_deterministic_and_norm_preserving(self):
        params = random_params(3, 16)
        state = random_state(3, 17)
        a = apply_qgrnn(state, params, 0.5, 0.01)  # 50 layers
        b = apply_qgrnn(state, params, 0.5, 0.01)
        assert np.array_equal(a, b)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-9


class TestCouplingColumns:
    def test_column_order_couplings_then_node_weights(self):
        z0, z1, z2 = (1 - 2 * ((np.arange(8) >> q) & 1) for q in range(3))
        expected = np.column_stack([z0 * z1, z0 * z2, z1 * z2, z0, z1, z2])
        assert np.array_equal(coupling_columns(3), expected)
        coefficients = np.arange(1.0, 7.0)
        assert np.array_equal(hamiltonian_diagonal(coefficients, 3), expected @ coefficients)

    def test_diagonal_reconstruction(self):
        params = random_params(3, 18)
        diagonal, _ = split_diagonal_transverse(kron_hamiltonian(3, params))
        assert np.allclose(coupling_columns(3) @ params, np.real(np.diag(diagonal)), atol=1e-12)
