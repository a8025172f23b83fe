import numpy as np
import pytest

from qgrnn.statevector import basis_state, checked_state, random_state

from conftest import (
    apply_cswap,
    apply_hadamard,
    apply_rx,
    apply_rz,
    apply_zz,
    fidelity,
    inner_product,
    prob_zero,
    random_state_array,
)

INV_SQRT2 = 1 / np.sqrt(2)


def plus_state():
    return checked_state([INV_SQRT2, INV_SQRT2])


class TestStateVector:
    """A state is the read-only complex128 array that ``checked_state`` returns."""

    def test_rejects_wrong_amplitude_count(self):
        # not 2^n amplitudes in one dimension
        for amps in ([1.0, 0.0, 0.0], np.eye(6)[0], np.eye(2)[:1]):
            with pytest.raises(ValueError, match="2\\^n"):
                checked_state(amps)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="state norm"):
            checked_state([1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_amplitudes(self, bad):
        # the norm is then NaN or infinite, which a `> tol` comparison lets through
        with pytest.raises(ValueError, match="state norm"):
            checked_state([bad, 0.0, 0.0, 0.0])

    def test_rejects_zero_qubits(self):
        for amps in ([1.0], []):
            with pytest.raises(ValueError, match="2\\^n"):
                checked_state(amps)
        with pytest.raises(ValueError):
            basis_state(0)

    @pytest.mark.parametrize("index", [-1, 4, 5])
    def test_basis_index_must_lie_in_the_register(self, index):
        # -1 would wrap to |3>, and 4 is past the end of a 2-qubit register
        with pytest.raises(ValueError, match=f"basis index {index} out of range for a 2-qubit"):
            basis_state(2, index)
        assert basis_state(2, 3)[3] == 1.0

    def test_amplitudes_read_only(self):
        for state in (basis_state(2), random_state(2, 0), checked_state([0.6, 0.8j])):
            assert state.dtype == np.complex128
            with pytest.raises(ValueError):
                state[0] = 0.5

    def test_returns_a_copy(self):
        amps = np.array([0.6, 0.8j])
        state = checked_state(amps)
        amps[0] = 1.0
        assert state[0] == 0.6


class TestRandomState:
    def test_normalized(self):
        for seed in (0, 1, 12345):
            state = random_state(1, seed)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-12

    def test_deterministic(self):
        a = random_state(4, 42)
        b = random_state(4, 42)
        assert np.array_equal(a, b)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            random_state(0, 1)

    def test_uniform_over_basis_states(self):
        # Monte Carlo: mean |amplitude|^2 per basis state over many seeds
        probs = np.zeros(4)
        n_seeds = 1000
        for seed in range(n_seeds):
            probs += np.abs(random_state(2, seed)) ** 2
        assert np.allclose(probs / n_seeds, 0.25, atol=0.02)


class TestRx:
    def test_zero_angle_identity(self):
        state = random_state(3, 5)
        out = apply_rx(state, 1, 0.0)
        assert np.allclose(out, state, atol=1e-15)

    def test_pi_on_zero(self):
        out = apply_rx(basis_state(1), 0, np.pi)
        assert np.allclose(out, [0, -1j], atol=1e-12)

    def test_half_pi_on_zero(self):
        out = apply_rx(basis_state(1), 0, np.pi / 2)
        assert np.allclose(out, [INV_SQRT2, -1j * INV_SQRT2], atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_rx(basis_state(2), 2, 0.1)


class TestRz:
    def test_zero_angle_identity(self):
        state = random_state(2, 9)
        out = apply_rz(state, 0, 0.0)
        assert np.allclose(out, state, atol=1e-15)

    def test_pi_on_plus(self):
        out = apply_rz(plus_state(), 0, np.pi)
        assert np.allclose(out, [-1j * INV_SQRT2, 1j * INV_SQRT2], atol=1e-12)

    def test_global_phase_on_basis_state(self):
        out = apply_rz(basis_state(1), 0, 1.3)
        assert abs(fidelity(basis_state(1), out) - 1.0) < 1e-12


class TestZz:
    def test_zero_angle_identity(self):
        state = random_state(2, 3)
        assert np.allclose(apply_zz(state, 0, 1, 0.0), state)

    def test_agreeing_bits(self):
        out = apply_zz(basis_state(2, 0b00), 0, 1, 0.7)
        assert np.allclose(out[0], np.exp(-0.7j), atol=1e-12)

    def test_differing_bits(self):
        out = apply_zz(basis_state(2, 0b01), 0, 1, 0.7)
        assert np.allclose(out[1], np.exp(0.7j), atol=1e-12)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            apply_zz(basis_state(2), 1, 1, 0.1)


class TestHadamard:
    def test_zero_to_plus(self):
        out = apply_hadamard(basis_state(1), 0)
        assert np.allclose(out, [INV_SQRT2, INV_SQRT2], atol=1e-12)

    def test_one_to_minus(self):
        out = apply_hadamard(basis_state(1, 1), 0)
        assert np.allclose(out, [INV_SQRT2, -INV_SQRT2], atol=1e-12)

    def test_involution(self):
        state = random_state(3, 17)
        out = apply_hadamard(apply_hadamard(state, 2), 2)
        assert np.allclose(out, state, atol=1e-12)


class TestCswap:
    def test_control_zero_identity(self):
        # qubit 2 is the control and is 0 on every populated basis state
        amps = np.zeros(8, dtype=complex)
        amps[[0b001, 0b010]] = INV_SQRT2
        state = checked_state(amps)
        out = apply_cswap(state, 2, 0, 1)
        assert np.allclose(out, state)

    def test_swaps_when_control_set(self):
        # |c=1, b=0, a=1> -> |c=1, b=1, a=0>
        out = apply_cswap(basis_state(3, 0b101), 2, 0, 1)
        expected = np.zeros(8)
        expected[0b110] = 1.0
        assert np.allclose(out, expected)

    def test_involution(self):
        state = random_state(3, 23)
        out = apply_cswap(apply_cswap(state, 0, 1, 2), 0, 1, 2)
        assert np.allclose(out, state, atol=1e-12)

    def test_repeated_indices_rejected(self):
        with pytest.raises(ValueError):
            apply_cswap(basis_state(3), 0, 0, 1)


class TestInnerProduct:
    def test_self_is_one(self):
        state = random_state(3, 7)
        assert abs(inner_product(state, state) - 1.0) < 1e-9

    def test_orthogonal_basis_states(self):
        assert inner_product(basis_state(1, 0), basis_state(1, 1)) == 0

    def test_zero_with_plus(self):
        assert abs(inner_product(basis_state(1), plus_state()) - INV_SQRT2) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(basis_state(1), basis_state(2))


class TestProbZero:
    def test_basis_state(self):
        assert prob_zero(basis_state(1), 0) == 1.0

    def test_plus_state(self):
        assert abs(prob_zero(plus_state(), 0) - 0.5) < 1e-12

    def test_completeness(self):
        state = random_state(4, 77)
        for q in range(4):
            mask = ((np.arange(16) >> q) & 1) == 1
            p_one = np.sum(np.abs(state[mask]) ** 2)
            assert abs(prob_zero(state, q) + p_one - 1.0) < 1e-12


class TestGateProperties:
    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        state = random_state_array(rng, 3)
        for gate in (
            lambda s: apply_rx(s, 1, 0.8),
            lambda s: apply_rz(s, 0, -1.2),
            lambda s: apply_zz(s, 0, 2, 0.5),
            lambda s: apply_hadamard(s, 2),
            lambda s: apply_cswap(s, 0, 1, 2),
        ):
            state = gate(state)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-12

    def test_gate_inverses_recover_input(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            state = random_state_array(rng, 3)
            theta = rng.uniform(-np.pi, np.pi)
            pairs = [
                (apply_rx(state, 0, theta), lambda s: apply_rx(s, 0, -theta)),
                (apply_rz(state, 1, theta), lambda s: apply_rz(s, 1, -theta)),
                (apply_zz(state, 1, 2, theta), lambda s: apply_zz(s, 1, 2, -theta)),
                (apply_hadamard(state, 0), lambda s: apply_hadamard(s, 0)),
                (apply_cswap(state, 2, 0, 1), lambda s: apply_cswap(s, 2, 0, 1)),
            ]
            for forward, inverse in pairs:
                assert np.allclose(inverse(forward), state, atol=1e-10)

    def test_diagonal_gates_commute(self):
        rng = np.random.default_rng(2)
        state = random_state_array(rng, 3)
        a = apply_rz(apply_zz(state, 0, 1, 0.4), 2, 0.9)
        b = apply_zz(apply_rz(state, 2, 0.9), 0, 1, 0.4)
        assert np.allclose(a, b, atol=1e-12)

    def test_deterministic(self):
        state = random_state(3, 11)
        a = apply_rx(state, 1, 0.37)
        b = apply_rx(state, 1, 0.37)
        assert np.array_equal(a, b)
