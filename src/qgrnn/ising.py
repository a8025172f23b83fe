"""Ising graph coefficients and exact, matrix-free time evolution.

The graph Hamiltonian is
    H = sum_{(i,j)} w_ij Z_i Z_j + sum_i w_i Z_i + sum_i X_i
with couplings w_ij, node weights w_i, and a fixed unit transverse field.
Every module holds its coefficients as one float64 vector of length
n(n+1)/2 for n nodes: the couplings w_ij of all pairs i < j in
``complete_pairs`` order, then the n node weights w_0 .. w_{n-1}. The node
count is that of the state the coefficients act on.
``coupling_columns`` is the one map from this layout to the diagonal of H.
H is never formed as a 2^n x 2^n matrix: its ZZ and Z terms are one real
diagonal and each X_i swaps amplitude pairs, so H psi costs O(n 2^n).
exp(-i t H) psi is a scaled truncated Taylor series of such products
(Al-Mohy & Higham, "Computing the action of the matrix exponential",
SIAM J. Sci. Comput. 33, 2011), exact to rounding with O(2^n) memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevector import checked_state

# Terms of the Taylor series per step; with tau ||H|| <= 1 the first term
# dropped is at most 1/19! (about 8e-18), below double rounding.
TAYLOR_ORDER = 18
# Most Taylor steps one evolution may take: about 30 s at n = 4 on 2 cores.
# Default data (t_max 0.5, weights in [-4, 5], 15 times) need at most 103 at 14 qubits.
MAX_TAYLOR_STEPS = 100_000


def complete_pairs(node_count: int) -> list[tuple[int, int]]:
    """All node pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(node_count) for j in range(i + 1, node_count)]


def random_complete_graph(node_weights, rng: np.random.Generator) -> np.ndarray:
    """Coefficients of a complete graph: couplings uniform on [-1, 1), then ``node_weights``.

    The n(n-1)/2 couplings are one draw from ``rng``, bit-equal to one scalar
    draw per pair in ``complete_pairs`` order.
    """
    weights = np.asarray(node_weights, dtype=np.float64)
    n = weights.size
    return np.concatenate([rng.uniform(-1.0, 1.0, n * (n - 1) // 2), weights])


@dataclass(frozen=True)
class TimeEvolvedSample:
    """A (time, state) pair produced by evolving one initial state."""

    time: float
    # the 2^n amplitudes at ``time``; read-only when the package made them
    state: np.ndarray

    def __post_init__(self):
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")


def _z_columns(node_count: int) -> np.ndarray:
    """(2^n, n) matrix of Z eigenvalues: +1 for bit 0, -1 for bit 1."""
    idx = np.arange(1 << node_count)
    bits = (idx[:, None] >> np.arange(node_count)) & 1
    return 1.0 - 2.0 * bits


def coupling_columns(node_count: int) -> np.ndarray:
    """(2^n, P) basis-diagonal of each coefficient's term: Z_i Z_j per coupling, then Z_i.

    The ZZ + Z diagonal of the Hamiltonian is ``coupling_columns(n) @ coefficients``.
    The columns fill one array, the only (2^n, P) array this allocates.
    """
    z = _z_columns(node_count)
    pairs = complete_pairs(node_count)
    columns = np.empty((z.shape[0], len(pairs) + node_count))
    for k, (i, j) in enumerate(pairs):
        columns[:, k] = z[:, i] * z[:, j]
    columns[:, len(pairs) :] = z
    return columns


def hamiltonian_diagonal(coefficients: np.ndarray, node_count: int) -> np.ndarray:
    """Diagonal of the ZZ + Z part of the Hamiltonian, as a real vector.

    ``coupling_columns(n) @ coefficients``; a vector whose length is not
    n(n+1)/2 is rejected.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    expected = node_count * (node_count + 1) // 2
    if coefficients.shape != (expected,):
        raise ValueError(
            f"a {node_count}-qubit Hamiltonian needs {expected} coefficients, "
            f"got shape {coefficients.shape}"
        )
    return coupling_columns(node_count) @ coefficients


def apply_hamiltonian(diag: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """H psi for the Hamiltonian with ZZ + Z diagonal ``diag`` and the unit transverse field.

    X_q swaps the amplitudes that differ in bit q: it is added as the reversed
    middle axis of a (high, bit q, low) view, with no index arrays.
    """
    out = diag * psi
    for q in range(psi.size.bit_length() - 1):
        view = out.reshape(-1, 2, 1 << q)
        view += psi.reshape(-1, 2, 1 << q)[:, ::-1]
    return out


def sample_evolution(coefficients, initial, times) -> list[TimeEvolvedSample]:
    """Evolve one initial state to every requested time under the Hamiltonian of ``coefficients``.

    (0, max t] is cut into N = ceil(max t ||H||) equal steps of tau, where
    ||H|| = max|diag| + n is the Gershgorin bound, so tau ||H|| <= 1. At the
    start of each step the TAYLOR_ORDER + 1 terms u_k = (-i tau H)^k psi / k!
    are computed once. The state a fraction f in (0, 1] into the step is
    sum_k f^k u_k, whose truncation drops at most 1/19! (about 8e-18) of
    the state; that gives every sample time inside the step and the step's
    end. Samples come back in the order of ``times``. More than
    ``MAX_TAYLOR_STEPS`` steps are rejected before the first one. The
    samples' states are the rows of one read-only array; ``initial`` is
    checked with ``checked_state``.
    """
    initial = checked_state(initial)
    n = initial.size.bit_length() - 1
    diag = hamiltonian_diagonal(coefficients, n)
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("times must be >= 0")
    norm = np.max(np.abs(diag)) + n
    end = max(times, default=0.0)
    count = np.ceil(end * norm)
    # written so that an inf or nan count is rejected too
    if not count <= MAX_TAYLOR_STEPS:
        raise ValueError(
            f"evolving to t = {end:g} with Hamiltonian norm bound {norm:g} needs "
            f"{count:g} Taylor steps, more than the limit of {MAX_TAYLOR_STEPS}"
        )
    steps = int(count)
    states = {0.0: initial}
    # the sample times inside each step, as fractions of it
    inside: dict[int, list[tuple[float, float]]] = {}
    for t in sorted(set(times) - {0.0}):
        step = min(max(math.ceil(t * steps / end) - 1, 0), steps - 1)
        inside.setdefault(step, []).append((t, t * steps / end - step))
    psi, powers = initial, np.arange(TAYLOR_ORDER + 1)
    for step in range(steps):
        terms = [psi]
        for k in range(1, TAYLOR_ORDER + 1):
            term = apply_hamiltonian(diag, terms[-1])
            term *= -1j * end / (steps * k)
            terms.append(term)
        points = inside.get(step, [])
        fractions = np.array([f for _, f in points] + [1.0])
        values = (fractions[:, None] ** powers) @ np.array(terms)
        states.update(zip((t for t, _ in points), values))
        psi = values[-1]
    rows = np.array([states[t] for t in times])
    rows.setflags(write=False)
    return [TimeEvolvedSample(t, row) for t, row in zip(times, rows)]


def draw_times(count: int, t_max: float, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` evolution times uniformly from (0, t_max], excluding 0."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if t_max <= 0:
        raise ValueError("t_max must be > 0")
    return t_max * (1.0 - rng.random(count))
