"""Shared test oracles, built independently of the package's computation paths."""
from __future__ import annotations

import cmath
import struct
from functools import reduce

import numpy as np
import pytest

from qgrnn.ansatz import coupling_columns, layer_count, transverse_layer_matrix
from qgrnn.ising import complete_pairs
from qgrnn.statevector import _check_qubit
from qgrnn.training import fidelity_direct

PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
IDENTITY = np.eye(2)
HERMITIAN_TOL = 1e-10


def rx_matrix(theta: float) -> np.ndarray:
    """RX(theta) = exp(-i theta X / 2)."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def kron_operator(n: int, site_mats: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product with qubit 0 as the least significant factor."""
    mats = [site_mats.get(q, IDENTITY) for q in range(n - 1, -1, -1)]
    return reduce(np.kron, mats)


def checked_coefficients(n: int, coefficients) -> np.ndarray:
    """The coefficient vector of an n-node graph: n(n-1)/2 couplings, then n node weights."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    count = n * (n + 1) // 2
    if coefficients.shape != (count,):
        raise ValueError(f"{n} nodes need {count} coefficients, got shape {coefficients.shape}")
    return coefficients


def kron_hamiltonian(n: int, coefficients) -> np.ndarray:
    """Brute-force Hamiltonian assembly, term by term."""
    coefficients = checked_coefficients(n, coefficients)
    h = np.zeros((2**n, 2**n))
    for (i, j), w in zip(complete_pairs(n), coefficients[:-n]):
        h += w * kron_operator(n, {i: PAULI_Z, j: PAULI_Z})
    for q, w in enumerate(coefficients[-n:]):
        h += w * kron_operator(n, {q: PAULI_Z})
        h += kron_operator(n, {q: PAULI_X})
    return h


def hermitian_eigendecompose(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if np.max(np.abs(h - h.conj().T)) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh(h)


def eigh_evolve(coefficients, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) psi through a full eigendecomposition of the dense kron_hamiltonian."""
    n = np.size(psi).bit_length() - 1
    if np.shape(psi) != (1 << n,):
        raise ValueError(f"state shape {np.shape(psi)} is not that of a register")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    vals, vecs = hermitian_eigendecompose(kron_hamiltonian(n, coefficients))
    return vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ psi))


def split_diagonal_transverse(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    diag = np.diag(np.diag(h))
    return diag, h - diag


def fine_trotter_evolve(h: np.ndarray, psi: np.ndarray, t: float, dt: float = 1e-5) -> np.ndarray:
    """Strang-split reference evolution with step dt, no eigendecomposition.

    The per-step unitary exp(-i dt/2 D) exp(-i dt T) exp(-i dt/2 D) is exact
    for each split part (the diagonal by exponentiating entries, the
    transverse part from single-qubit rotations), so the only error is the
    O(dt^2) splitting error.
    """
    n = int(np.log2(h.shape[0]))
    diag = np.real(np.diag(h))
    steps = int(round(t / dt))
    if steps == 0:
        return psi.copy()
    dt_eff = t / steps
    half = np.diag(np.exp(-1j * dt_eff / 2 * diag))
    c, s = np.cos(dt_eff), np.sin(dt_eff)
    rx = np.array([[c, -1j * s], [-1j * s, c]])
    transverse = reduce(np.kron, [rx] * n)
    step = half @ transverse @ half
    return np.linalg.matrix_power(step, steps) @ psi


# The gates act on raw amplitude arrays and return new ones. Each reshape puts
# the target qubit's bit on axis 1 (qubit 0 is the least significant bit).


def _qubits(psi: np.ndarray) -> int:
    return psi.size.bit_length() - 1


def _rx(psi: np.ndarray, qubit: int, theta: float) -> np.ndarray:
    return (rx_matrix(theta) @ psi.reshape(-1, 2, 1 << qubit)).reshape(-1)


def _rz(psi: np.ndarray, qubit: int, theta: float) -> np.ndarray:
    phase = np.array([[cmath.exp(-0.5j * theta)], [cmath.exp(0.5j * theta)]])
    return (psi.reshape(-1, 2, 1 << qubit) * phase).reshape(-1)


def _zz(psi: np.ndarray, qubit_i: int, qubit_j: int, phi: float) -> np.ndarray:
    lo, hi = sorted((qubit_i, qubit_j))
    agree, differ = cmath.exp(-1j * phi), cmath.exp(1j * phi)
    phase = np.array([[agree, differ], [differ, agree]]).reshape(2, 1, 2, 1)
    return (psi.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo) * phase).reshape(-1)


def apply_rx(state: np.ndarray, qubit: int, theta: float) -> np.ndarray:
    _check_qubit(state, qubit)
    return _rx(state, qubit, theta)


def apply_rz(state: np.ndarray, qubit: int, theta: float) -> np.ndarray:
    """RZ(theta) = diag(exp(-i theta/2), exp(+i theta/2)) on the target qubit."""
    _check_qubit(state, qubit)
    return _rz(state, qubit, theta)


def apply_zz(state: np.ndarray, qubit_i: int, qubit_j: int, phi: float) -> np.ndarray:
    """ZZ(phi) = exp(-i phi Z_i Z_j): phase exp(-i phi) where bits agree, exp(+i phi) where they differ."""
    if qubit_i == qubit_j:
        raise ValueError("apply_zz requires two distinct qubits")
    _check_qubit(state, qubit_i)
    _check_qubit(state, qubit_j)
    return _zz(state, qubit_i, qubit_j, phi)


def _diagonal_gates(psi: np.ndarray, coefficients: np.ndarray, delta: float) -> np.ndarray:
    """The ZZ gates on every pair, then the RZ gates on every qubit."""
    n = psi.size.bit_length() - 1
    for pair, w in zip(complete_pairs(n), coefficients[:-n]):
        psi = _zz(psi, pair[0], pair[1], delta * w)
    for q, w in enumerate(coefficients[-n:]):
        psi = _rz(psi, q, 2.0 * delta * w)
    return psi


def _rx_all(psi: np.ndarray, node_count: int, theta: float) -> np.ndarray:
    for q in range(node_count):
        psi = _rx(psi, q, theta)
    return psi


def apply_trotter_layer(state: np.ndarray, coefficients, delta: float) -> np.ndarray:
    """One first-order splitting layer, gate by gate: the QGRNN layer of the paper."""
    coefficients = checked_coefficients(_qubits(state), coefficients)
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    psi = _diagonal_gates(state, coefficients, delta)
    return _rx_all(psi, _qubits(state), 2.0 * delta)


def apply_qgrnn(state: np.ndarray, coefficients, t: float, delta: float) -> np.ndarray:
    """Apply D = round(t/delta) first-order layers with uniform effective step t/D.

    The layers tile [0, t] exactly; composition is mathematically identical
    to repeated apply_trotter_layer but precomputes the diagonal phase vector
    and the transverse-layer matrix once.
    """
    n = _qubits(state)
    coefficients = checked_coefficients(n, coefficients)
    depth = layer_count(t, delta)
    d_eff = t / depth
    phases = np.exp(-1j * d_eff * (coupling_columns(n) @ coefficients))
    transverse = transverse_layer_matrix(n, d_eff)
    psi = state
    for _ in range(depth):
        psi = transverse @ (phases * psi)
    return psi


def _strang_layer(psi: np.ndarray, coefficients: np.ndarray, delta: float) -> np.ndarray:
    n = psi.size.bit_length() - 1
    psi = _diagonal_gates(_rx_all(psi, n, delta), coefficients, delta)
    return _rx_all(psi, n, delta)


def apply_strang_layer(state: np.ndarray, coefficients, delta: float) -> np.ndarray:
    """One second-order (Strang) splitting layer, gate by gate.

    RX(delta) on every qubit (half the transverse step), the ZZ and RZ gates of
    apply_trotter_layer, then RX(delta) on every qubit again.
    """
    return _strang_layer(state, checked_coefficients(_qubits(state), coefficients), delta)


def apply_strang_qgrnn(state: np.ndarray, coefficients, t: float, delta: float) -> np.ndarray:
    """Apply D = round(t/delta) Strang layers of step t/D: the circuit training fits.

    The same product as repeated apply_strang_layer, with the diagonal phase
    vector and the half-step transverse matrix computed once.
    """
    n = _qubits(state)
    coefficients = checked_coefficients(n, coefficients)
    depth = layer_count(t, delta)
    d_eff = t / depth
    phases = np.exp(-1j * d_eff * (coupling_columns(n) @ coefficients))
    half = reduce(np.kron, [rx_matrix(d_eff)] * n)
    psi = state
    for _ in range(depth):
        psi = half @ (phases * (half @ psi))
    return psi


# Suzuki's fourth-order weight, and the steps of the five Strang stages as fractions of one step
SUZUKI_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
SUZUKI_STAGES = (SUZUKI_P, SUZUKI_P, 1.0 - 4.0 * SUZUKI_P, SUZUKI_P, SUZUKI_P)


def apply_suzuki_qgrnn(state: np.ndarray, coefficients, t: float, delta: float) -> np.ndarray:
    """Apply K = round(t/(5 delta)) fourth-order Suzuki steps of t/K, gate by gate: for comparisons.

    Each step is five layers of apply_strang_layer's gates whose steps are the
    stage weights (p, p, 1 - 4p, p, p) times t/K, the middle one negative.
    """
    coefficients = checked_coefficients(_qubits(state), coefficients)
    steps = layer_count(t, len(SUZUKI_STAGES) * delta)
    psi = state
    for _ in range(steps):
        for weight in SUZUKI_STAGES:
            psi = _strang_layer(psi, coefficients, weight * t / steps)
    return psi


# Blanes & Moan's sixth-order splitting S10 (J. Comput. Appl. Math. 142, 313, 2002),
# typed from the paper: a1..a5 and b1..b4, then a6 and b5 that make each set sum to 1
S10_A = (0.0502627644003922, 0.413514300428344, 0.0450798897943977, -0.188054853819569,
         0.541960678450780)
S10_B = (0.148816447901042, -0.132385865767784, 0.067307604692185, 0.432666402578175)
# the steps of the eleven diagonal and ten transverse stages of one step, as fractions of it
S10_DIAGONAL = S10_A + (1 - 2 * sum(S10_A),) + S10_A[::-1]
S10_TRANSVERSE = S10_B + (0.5 - sum(S10_B),) * 2 + S10_B[::-1]


def apply_s10_qgrnn(state: np.ndarray, coefficients, t: float, delta: float) -> np.ndarray:
    """Apply K = round(t/(10 delta)) sixth-order S10 steps of t/K, gate by gate: the circuit training fits.

    Each step is the diagonal gates of apply_trotter_layer at step a_1 d, the
    RX gates at step b_1 d, the diagonal gates at a_2 d, and so on to b_10 d
    and a_11 d, with no merging of the outer stages of adjacent steps.
    """
    n = _qubits(state)
    coefficients = checked_coefficients(n, coefficients)
    steps = layer_count(t, len(S10_TRANSVERSE) * delta)
    d = t / steps
    psi = state
    for _ in range(steps):
        for a, b in zip(S10_DIAGONAL, S10_TRANSVERSE):
            psi = _rx_all(_diagonal_gates(psi, coefficients, a * d), n, 2.0 * b * d)
        psi = _diagonal_gates(psi, coefficients, S10_DIAGONAL[-1] * d)
    return psi


def batch_cost(coefficients, initial, samples, delta: float, circuit=apply_s10_qgrnn) -> float:
    """Average negative fidelity between the samples and the circuit outputs, one circuit per sample.

    The reference for CostEvaluator.cost; ``circuit=apply_suzuki_qgrnn`` gives
    the fourth-order cost, ``circuit=apply_strang_qgrnn`` the second-order one
    and ``circuit=apply_qgrnn`` the first-order one.
    """
    if not samples:
        raise ValueError("sample batch is empty")
    total = 0.0
    for s in samples:
        total += fidelity_direct(s.state, circuit(initial, coefficients, s.time, delta))
    return -total / len(samples)


def grad_central(coefficients, initial, samples, delta: float, fd_step: float) -> np.ndarray:
    """Central finite-difference gradient of batch_cost over the coefficients."""
    if fd_step <= 0:
        raise ValueError("fd_step must be > 0")
    flat = np.asarray(coefficients, dtype=np.float64)
    grad = np.empty(flat.size)
    for k in range(flat.size):
        bumped = flat.copy()
        bumped[k] += fd_step
        c_plus = batch_cost(bumped, initial, samples, delta)
        bumped[k] -= 2 * fd_step
        c_minus = batch_cost(bumped, initial, samples, delta)
        grad[k] = (c_plus - c_minus) / (2 * fd_step)
    return grad


def grad_richardson(coefficients, initial, samples, delta: float, fd_step=1e-3) -> np.ndarray:
    """Richardson extrapolation (4 g(h/2) - g(h)) / 3 of grad_central, which cancels its h^2 error."""
    coarse = grad_central(coefficients, initial, samples, delta, fd_step)
    fine = grad_central(coefficients, initial, samples, delta, fd_step / 2)
    return (4 * fine - coarse) / 3


def random_state_array(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return amps / np.linalg.norm(amps)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return abs(np.vdot(a, b)) ** 2


def write_idx_pair(directory, images: np.ndarray, labels: np.ndarray) -> tuple[str, str]:
    """Write a (count, rows, cols) uint8 image stack and labels as IDX files."""
    count, rows, cols = images.shape
    images_path = str(directory / "images.idx")
    labels_path = str(directory / "labels.idx")
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", 2051, count, rows, cols))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", 2049, count))
        f.write(labels.astype(np.uint8).tobytes())
    return images_path, labels_path


def make_surrogate_digits(n_samples: int = 4000, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic 28x28 digit-like dataset: 10 structured, overlapping classes.

    Stands in for handwritten-digit data where the real files are not
    available; class identity controls blob position/size and stroke angle.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n_samples)
    images = np.zeros((n_samples, 28, 28))
    yy, xx = np.mgrid[0:28, 0:28]
    for i, c in enumerate(labels):
        angle = 2 * np.pi * c / 10
        cx = 14 + 6 * np.cos(angle) + rng.normal(0, 1.4)
        cy = 14 + 6 * np.sin(angle) + rng.normal(0, 1.4)
        sx = 2.0 + 0.35 * (c % 4) + rng.normal(0, 0.35)
        sy = 2.0 + 0.35 * ((c // 2) % 3) + rng.normal(0, 0.35)
        blob = np.exp(-((xx - cx) ** 2 / (2 * sx**2) + (yy - cy) ** 2 / (2 * sy**2)))
        theta = angle / 2 + rng.normal(0, 0.25)
        dist = np.abs((xx - 14) * np.sin(theta) - (yy - 14) * np.cos(theta))
        stroke = np.exp(-(dist**2) / (2 * (1.2 + 0.1 * c) ** 2))
        stroke = stroke * (np.hypot(xx - 14, yy - 14) < 10 + c % 3)
        img = 0.75 * blob + 0.55 * stroke + rng.normal(0, 0.16, (28, 28))
        images[i] = np.clip(img, 0, 1)
    return (images * 255).astype(np.uint8), labels.astype(np.uint8)


@pytest.fixture(scope="session")
def surrogate_idx_files(tmp_path_factory):
    """IDX image/label pair of the surrogate digit dataset."""
    directory = tmp_path_factory.mktemp("idx")
    images, labels = make_surrogate_digits()
    return write_idx_pair(directory, images.reshape(-1, 28, 28), labels)
