"""States as plain arrays: a caller's state checked once, basis states and random states.

A state of n qubits is a 1-D complex128 array of 2^n amplitudes with unit
norm. ``checked_state`` checks a caller's state once, where it enters the
package, and returns a read-only copy; every state the package hands out
is read-only, and states it makes itself are not checked again.

Basis convention: basis index b assigns qubit q the bit ``(b >> q) & 1``,
i.e. qubit 0 is the least significant bit of the amplitude index.
"""
from __future__ import annotations

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
    """Computational basis state |index> on ``qubit_count`` qubits, for 0 <= index < 2^n."""
    dim = 1 << qubit_count
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for a {qubit_count}-qubit register")
    amps = np.zeros(dim, dtype=np.complex128)
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

