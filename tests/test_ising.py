import math
import tracemalloc

import numpy as np
import pytest

from qgrnn import ising
from qgrnn.ising import (
    apply_hamiltonian,
    complete_pairs,
    draw_times,
    hamiltonian_diagonal,
    random_complete_graph,
    sample_evolution,
)
from qgrnn.statevector import basis_state, random_state

from conftest import (
    eigh_evolve,
    fidelity,
    fine_trotter_evolve,
    hermitian_eigendecompose,
    kron_hamiltonian,
    random_state_array,
)


def random_graph(n, seed):
    """Coefficients of a complete graph: random couplings, then node weights in [0, 5)."""
    rng = np.random.default_rng(seed)
    return random_complete_graph(rng.uniform(0, 5, n), rng)


def action_matrix(coefficients, n):
    """The matrix of apply_hamiltonian, one basis vector per column."""
    diag = hamiltonian_diagonal(np.asarray(coefficients, dtype=float), n)
    basis = np.eye(1 << n, dtype=complex)
    return np.column_stack([apply_hamiltonian(diag, e) for e in basis])


def evolve(coefficients, state, t):
    return sample_evolution(coefficients, state, [t])[0].state


class TestRandomCompleteGraph:
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_couplings_equal_one_draw_per_pair(self, n):
        # seeds recorded in an old run.json, drawn pair by pair, give the same data
        weights = np.linspace(-4.0, 5.0, n)
        coefficients = random_complete_graph(weights, np.random.default_rng(123))
        rng = np.random.default_rng(123)
        assert np.array_equal(coefficients[:-n], [rng.uniform(-1, 1) for _ in complete_pairs(n)])
        assert np.array_equal(coefficients[-n:], weights)


class TestIsingGraph:
    def test_weight_length_checked(self):
        # the 3 coefficients of a 2-node graph, 5 and a column of 6, read as 3 nodes
        coefficients = random_complete_graph([1.0, 2.0], np.random.default_rng(0))
        for wrong in (coefficients, np.zeros(5), np.zeros((6, 1))):
            with pytest.raises(ValueError, match="3-qubit Hamiltonian needs 6 coefficients"):
                hamiltonian_diagonal(wrong, 3)


class TestBuildHamiltonian:
    """The Hamiltonian as apply_hamiltonian applies it."""

    def test_single_node_is_pauli_x(self):
        h = action_matrix([0.0], 1)
        assert np.allclose(h, [[0, 1], [1, 0]])

    def test_two_node_coupling(self):
        h = action_matrix([1.0, 0.0, 0.0], 2)
        expected = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected += np.kron(np.eye(2), x) + np.kron(x, np.eye(2))
        assert np.allclose(h, expected)

    def test_matches_kronecker_oracle(self):
        coefficients = random_graph(3, 7)
        oracle = kron_hamiltonian(3, coefficients)
        assert np.allclose(action_matrix(coefficients, 3), oracle, atol=1e-12)

    def test_hermitian_and_real(self):
        h = action_matrix(random_graph(3, 11), 3)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert np.max(np.abs(h.imag)) <= 1e-15


class TestEigendecompose:
    """The eigendecomposition under the eigh_evolve oracle."""

    def test_diagonal_matrix(self):
        vals, vecs = hermitian_eigendecompose(np.diag([2.0, -1.0]).astype(complex))
        assert np.allclose(vals, [-1.0, 2.0])
        assert np.allclose(np.abs(vecs), [[0, 1], [1, 0]])

    def test_pauli_x(self):
        vals, vecs = hermitian_eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(vals, [-1.0, 1.0])
        for col, expected in zip(vecs.T, ([1, -1], [1, 1])):
            overlap = abs(np.vdot(col, np.array(expected) / np.sqrt(2)))
            assert abs(overlap - 1.0) < 1e-12

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (a + a.conj().T) / 2
        vals, vecs = hermitian_eigendecompose(h)
        assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.conj().T - h)) <= 1e-8
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(8))) <= 1e-8
        assert np.all(np.diff(vals) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEvolveExact:
    """The eigh_evolve oracle against independent references."""

    def test_zero_time_identity(self):
        coefficients = random_graph(2, 1)
        state = random_state(2, 2)
        out = eigh_evolve(coefficients, state, 0.0)
        assert np.allclose(out, state, atol=1e-12)

    def test_rabi_rotation(self):
        # one node of weight zero leaves H = X
        out = eigh_evolve(np.zeros(1), basis_state(1), np.pi / 2)
        assert np.allclose(out, [0, -1j], atol=1e-9)

    def test_matches_fine_trotter_reference(self):
        coefficients = random_graph(3, 13)
        psi = random_state_array(np.random.default_rng(3), 3)
        out = eigh_evolve(coefficients, psi, 0.3)
        reference = fine_trotter_evolve(kron_hamiltonian(3, coefficients), psi, 0.3)
        assert 1.0 - fidelity(out, reference) <= 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eigh_evolve(random_graph(2, 1), basis_state(1), 0.1)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            eigh_evolve(np.zeros(1), basis_state(1), -0.1)


class TestSampleEvolution:
    def test_states_are_read_only(self):
        samples = sample_evolution(random_graph(2, 4), random_state(2, 5), [0.0, 0.3, 0.1])
        for s in samples:
            with pytest.raises(ValueError):
                s.state[0] = 0.5

    def test_time_zero_returns_initial(self):
        coefficients = random_graph(2, 4)
        state = random_state(2, 5)
        samples = sample_evolution(coefficients, state, [0.0])
        assert len(samples) == 1
        assert np.allclose(samples[0].state, state, atol=1e-12)

    def test_batch_of_fifteen(self):
        coefficients = random_graph(3, 6)
        state = random_state(3, 7)
        times = draw_times(15, 0.5, np.random.default_rng(8))
        samples = sample_evolution(coefficients, state, times)
        assert len(samples) == 15
        for s in samples:
            assert 0 < s.time <= 0.5
            assert abs(np.linalg.norm(s.state) - 1.0) < 1e-9

    def test_consistent_with_eigh_oracle(self):
        coefficients = random_graph(2, 9)
        state = random_state(2, 10)
        for s in sample_evolution(coefficients, state, [0.1, 0.25]):
            direct = eigh_evolve(coefficients, state, s.time)
            assert np.allclose(s.state, direct, atol=1e-12)

    def test_rabi_rotation(self):
        # a zero diagonal leaves H = X, so the step count rests on the transverse field alone
        out = evolve(np.zeros(1), basis_state(1), np.pi / 2)
        assert np.allclose(out, [0, -1j], atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_eigh_oracle(self, n):
        # node weights over the dictionary range, times up to four default t_max
        rng = np.random.default_rng(50 + n)
        coefficients = random_complete_graph(rng.uniform(-4.0, 5.0, n), rng)
        state = random_state(n, 60 + n)
        times = draw_times(15, 2.0, rng)
        for s in sample_evolution(coefficients, state, times):
            oracle = eigh_evolve(coefficients, state, s.time)
            assert np.max(np.abs(s.state - oracle)) <= 1e-12

    def test_input_order_repeats_and_zero(self):
        coefficients = random_graph(3, 14)
        state = random_state(3, 15)
        times = [0.4, 0.0, 0.15, 0.4, 0.05, 0.0]
        samples = sample_evolution(coefficients, state, times)
        assert [s.time for s in samples] == times
        for s in samples:
            oracle = eigh_evolve(coefficients, state, s.time)
            assert np.max(np.abs(s.state - oracle)) <= 1e-12
        assert np.array_equal(samples[0].state, samples[3].state)
        assert np.array_equal(samples[1].state, state)

    def test_memory_is_linear_in_the_state(self):
        # a dense 2^10 x 2^10 Hamiltonian alone would take 16.8 MB
        rng = np.random.default_rng(16)
        coefficients = random_complete_graph(rng.uniform(-4.0, 5.0, 10), rng)
        state = random_state(10, 17)
        times = draw_times(15, 0.5, rng)
        tracemalloc.start()
        try:
            sample_evolution(coefficients, state, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_bounds_the_step_count(self, monkeypatch):
        # zero weights: the norm bound is n = 2, so times 1.0 and 2.5 take 2 + 3 steps
        coefficients, state = np.zeros(3), random_state(2, 18)
        monkeypatch.setattr(ising, "MAX_TAYLOR_STEPS", 5)
        sample_evolution(coefficients, state, [2.5, 1.0])
        monkeypatch.setattr(ising, "MAX_TAYLOR_STEPS", 4)
        with pytest.raises(ValueError, match="5 Taylor steps"):
            sample_evolution(coefficients, state, [2.5, 1.0])

    def test_evaluates_each_time_within_its_own_step(self, monkeypatch):
        # H = X has norm 1, its Gershgorin bound, so times up to 3 take 3 steps of 1.
        # A 12-term series truncates at most e/13! (4.4e-10) per step; a time
        # evaluated from an earlier step's powers, a fraction up to 2 into it,
        # would truncate up to 1.5e-6
        monkeypatch.setattr(ising, "TAYLOR_ORDER", 12)
        times = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        for s in sample_evolution(np.zeros(1), basis_state(1), times):
            exact = [np.cos(s.time), -1j * np.sin(s.time)]
            assert np.linalg.norm(s.state - exact) <= math.ceil(s.time) * math.e / math.factorial(13)

    @pytest.mark.parametrize("weight", [1e9, np.inf, np.nan])
    def test_rejects_a_huge_norm_before_any_product(self, monkeypatch, weight):
        def no_product(diag, psi):
            raise AssertionError("H psi computed")

        monkeypatch.setattr(ising, "apply_hamiltonian", no_product)
        coefficients = np.array([0.0, weight, 1.0])
        with pytest.raises(ValueError, match="Taylor steps"):
            sample_evolution(coefficients, random_state(2, 19), [0.5])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            sample_evolution(random_graph(2, 1), random_state(2, 1), [-0.1])

    @pytest.mark.parametrize("n, length", [(1, 0), (1, 2), (2, 2), (2, 6), (3, 5), (3, 7)])
    def test_rejects_a_wrong_coefficient_count(self, n, length):
        # a 2-qubit state with the 6 coefficients of 3 nodes is among them
        expected = rf"needs {n * (n + 1) // 2} coefficients, got shape \({length},\)"
        with pytest.raises(ValueError, match=expected):
            sample_evolution(np.zeros(length), random_state(n, 1), [0.1])


class TestEvolutionProperties:
    def test_unitary(self):
        coefficients = random_graph(3, 21)
        state = random_state(3, 22)
        for t in (0.1, 0.5, 2.0):
            out = evolve(coefficients, state, t)
            assert abs(fidelity(out, out) - 1.0) < 1e-9

    def test_energy_conserved(self):
        coefficients = random_graph(3, 31)
        h = kron_hamiltonian(3, coefficients)
        state = random_state(3, 32)
        initial_energy = np.real(np.vdot(state, h @ state))
        for t in (0.07, 0.31, 0.5):
            psi = evolve(coefficients, state, t)
            energy = np.real(np.vdot(psi, h @ psi))
            assert abs(energy - initial_energy) <= 1e-8

    def test_composition(self):
        coefficients = random_graph(2, 41)
        state = random_state(2, 42)
        once = evolve(coefficients, state, 0.45)
        stepped = evolve(coefficients, evolve(coefficients, state, 0.2), 0.25)
        assert np.allclose(once, stepped, atol=1e-9)


class TestDrawTimes:
    def test_range_and_count(self):
        times = draw_times(100, 0.5, np.random.default_rng(0))
        assert times.shape == (100,)
        assert np.all(times > 0) and np.all(times <= 0.5)

    def test_invalid_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            draw_times(0, 0.5, rng)
        with pytest.raises(ValueError):
            draw_times(5, 0.0, rng)
