"""Dense statevector simulator with the gates of the SWAP test and the RX matrix of the ansatz.

Basis convention: basis index b assigns qubit q the bit ``(b >> q) & 1``,
i.e. qubit 0 is the least significant bit of the amplitude index.
"""
from __future__ import annotations

import math

import numpy as np

NORM_TOL = 1e-9


class StateVector:
    """Normalized complex amplitude array over ``qubit_count`` qubits.

    Value-semantic: gate functions return new instances and never mutate
    their input. The amplitude buffer is marked read-only so shared states
    are safe to pass around.
    """

    __slots__ = ("qubit_count", "amplitudes")

    def __init__(self, qubit_count: int, amplitudes) -> None:
        if qubit_count < 1:
            raise ValueError(f"qubit_count must be >= 1, got {qubit_count}")
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size != 1 << qubit_count:
            raise ValueError(
                f"expected {1 << qubit_count} amplitudes for {qubit_count} qubits, got {amps.size}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # a NaN or infinite norm fails too
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than {NORM_TOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "qubit_count", qubit_count)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def __repr__(self) -> str:
        return f"StateVector(qubit_count={self.qubit_count})"


def basis_state(qubit_count: int, index: int = 0) -> StateVector:
    """Computational basis state |index> on ``qubit_count`` qubits."""
    amps = np.zeros(1 << qubit_count, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(qubit_count, amps)


def random_state(qubit_count: int, seed: int) -> StateVector:
    """Haar-like random state: i.i.d. standard-normal complex amplitudes, normalized.

    Identical (seed, qubit_count) pairs produce bit-identical output.
    """
    if qubit_count < 1:
        raise ValueError(f"qubit_count must be >= 1, got {qubit_count}")
    rng = np.random.default_rng(int(seed))
    dim = 1 << qubit_count
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps /= np.linalg.norm(amps)
    return StateVector(qubit_count, amps)


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.qubit_count:
        raise ValueError(f"qubit {qubit} out of range for {state.qubit_count}-qubit state")


def _bits(dim: int, qubit: int) -> np.ndarray:
    return (np.arange(dim) >> qubit) & 1


def _apply_one_qubit(state: StateVector, qubit: int, mat: np.ndarray) -> StateVector:
    n = state.qubit_count
    axis = n - 1 - qubit  # C-order reshape puts qubit n-1 on axis 0
    psi = state.amplitudes.reshape([2] * n)
    psi = np.tensordot(mat, psi, axes=([1], [axis]))
    psi = np.moveaxis(psi, 0, axis)
    return StateVector(n, psi.reshape(-1))


def rx_matrix(theta: float) -> np.ndarray:
    """RX(theta) = exp(-i theta X / 2)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


def apply_hadamard(state: StateVector, qubit: int) -> StateVector:
    _check_qubit(state, qubit)
    return _apply_one_qubit(state, qubit, HADAMARD)


def apply_cswap(state: StateVector, control: int, a: int, b: int) -> StateVector:
    """Swap qubits a and b on the subspace where the control bit is 1."""
    if len({control, a, b}) != 3:
        raise ValueError("apply_cswap requires three pairwise distinct qubits")
    for q in (control, a, b):
        _check_qubit(state, q)
    idx = np.arange(state.dim)
    sel = (_bits(state.dim, control) == 1) & (_bits(state.dim, a) != _bits(state.dim, b))
    out = state.amplitudes.copy()
    out[sel] = state.amplitudes[idx[sel] ^ ((1 << a) | (1 << b))]
    return StateVector(state.qubit_count, out)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> = sum conj(a_k) b_k."""
    if a.qubit_count != b.qubit_count:
        raise ValueError(f"qubit counts differ: {a.qubit_count} vs {b.qubit_count}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def prob_zero(state: StateVector, qubit: int) -> float:
    """Probability of measuring 0 on the given qubit."""
    _check_qubit(state, qubit)
    mask = _bits(state.dim, qubit) == 0
    return float(np.sum(np.abs(state.amplitudes[mask]) ** 2))
