"""Shared test oracles, built independently of the package's computation paths."""
from __future__ import annotations

import struct
from functools import reduce

import numpy as np
import pytest

from qgrnn.ansatz import AnsatzParams
from qgrnn.training import batch_cost

PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
IDENTITY = np.eye(2)


def kron_operator(n: int, site_mats: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product with qubit 0 as the least significant factor."""
    mats = [site_mats.get(q, IDENTITY) for q in range(n - 1, -1, -1)]
    return reduce(np.kron, mats)


def kron_hamiltonian(n: int, edges: dict[tuple[int, int], float], node_weights) -> np.ndarray:
    """Brute-force Hamiltonian assembly, term by term."""
    h = np.zeros((2**n, 2**n))
    for (i, j), w in edges.items():
        h += w * kron_operator(n, {i: PAULI_Z, j: PAULI_Z})
    for q, w in enumerate(node_weights):
        h += w * kron_operator(n, {q: PAULI_Z})
        h += kron_operator(n, {q: PAULI_X})
    return h


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


def grad_central(params, initial, samples, delta: float, fd_step: float) -> np.ndarray:
    """Central finite-difference gradient of batch_cost over the flattened parameters."""
    if fd_step <= 0:
        raise ValueError("fd_step must be > 0")
    flat = params.flatten()
    n = params.node_count
    grad = np.empty(flat.size)
    for k in range(flat.size):
        bumped = flat.copy()
        bumped[k] += fd_step
        c_plus = batch_cost(AnsatzParams.from_flat(n, bumped), initial, samples, delta)
        bumped[k] -= 2 * fd_step
        c_minus = batch_cost(AnsatzParams.from_flat(n, bumped), initial, samples, delta)
        grad[k] = (c_plus - c_minus) / (2 * fd_step)
    return grad


def grad_richardson(params, initial, samples, delta: float, fd_step: float = 1e-3) -> np.ndarray:
    """Richardson extrapolation (4 g(h/2) - g(h)) / 3 of grad_central, which cancels its h^2 error."""
    coarse = grad_central(params, initial, samples, delta, fd_step)
    fine = grad_central(params, initial, samples, delta, fd_step / 2)
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
