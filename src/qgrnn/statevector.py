"""States as plain arrays, with the gates of the SWAP test and the RX matrix of the ansatz.

A state of n qubits is a 1-D complex128 array of 2^n amplitudes with unit
norm. ``checked_state`` checks a caller's state once, where it enters the
package, and returns a read-only copy; every state the package hands out
is read-only, and states it makes itself are not checked again.

Basis convention: basis index b assigns qubit q the bit ``(b >> q) & 1``,
i.e. qubit 0 is the least significant bit of the amplitude index.
"""
from __future__ import annotations

import math

import numpy as np

NORM_TOL = 1e-9


def checked_state(amplitudes) -> np.ndarray:
    """A read-only complex128 copy of ``amplitudes``, which must be 2^n >= 2 values of unit norm."""
    amps = np.array(amplitudes, dtype=np.complex128)
    if amps.ndim != 1 or amps.size < 2 or amps.size & (amps.size - 1):
        raise ValueError(f"a state needs 2^n >= 2 amplitudes in one dimension, got shape {amps.shape}")
    norm = np.linalg.norm(amps)
    if not abs(norm - 1.0) <= NORM_TOL:  # a NaN or infinite norm fails too
        raise ValueError(f"state norm {norm!r} deviates from 1 by more than {NORM_TOL}")
    amps.setflags(write=False)
    return amps


def basis_state(qubit_count: int, index: int = 0) -> np.ndarray:
    """Computational basis state |index> on ``qubit_count`` qubits."""
    amps = np.zeros(1 << qubit_count, dtype=np.complex128)
    amps[index] = 1.0
    return checked_state(amps)


def random_state(qubit_count: int, seed: int) -> np.ndarray:
    """Haar-like random state: i.i.d. standard-normal complex amplitudes, normalized.

    Identical (seed, qubit_count) pairs produce bit-identical output.
    """
    if qubit_count < 1:
        raise ValueError(f"qubit_count must be >= 1, got {qubit_count}")
    rng = np.random.default_rng(int(seed))
    dim = 1 << qubit_count
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps /= np.linalg.norm(amps)
    amps.setflags(write=False)
    return amps


def _check_qubit(state: np.ndarray, qubit: int) -> None:
    n = state.size.bit_length() - 1
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n}-qubit state")


def _bits(dim: int, qubit: int) -> np.ndarray:
    return (np.arange(dim) >> qubit) & 1


def rx_matrix(theta: float) -> np.ndarray:
    """RX(theta) = exp(-i theta X / 2)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


def apply_hadamard(state: np.ndarray, qubit: int) -> np.ndarray:
    """H on one qubit; the reshape puts that qubit's bit on axis 1."""
    _check_qubit(state, qubit)
    return (HADAMARD @ state.reshape(-1, 2, 1 << qubit)).reshape(-1)


def apply_cswap(state: np.ndarray, control: int, a: int, b: int) -> np.ndarray:
    """Swap qubits a and b on the subspace where the control bit is 1."""
    if len({control, a, b}) != 3:
        raise ValueError("apply_cswap requires three pairwise distinct qubits")
    for q in (control, a, b):
        _check_qubit(state, q)
    idx = np.arange(state.size)
    sel = (_bits(state.size, control) == 1) & (_bits(state.size, a) != _bits(state.size, b))
    out = state.copy()
    out[sel] = state[idx[sel] ^ ((1 << a) | (1 << b))]
    return out


def inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> = sum conj(a_k) b_k."""
    if a.size != b.size:
        raise ValueError(f"state sizes differ: {a.size} vs {b.size} amplitudes")
    return complex(np.vdot(a, b))


def prob_zero(state: np.ndarray, qubit: int) -> float:
    """Probability of measuring 0 on the given qubit."""
    _check_qubit(state, qubit)
    mask = _bits(state.size, qubit) == 0
    return float(np.sum(np.abs(state[mask]) ** 2))
