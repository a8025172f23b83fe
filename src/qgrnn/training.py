"""Fidelity cost, SWAP-test verification, exact adjoint gradients, Adam, and the training loop.

Training recovers the node and edge coefficients of a hidden graph
Hamiltonian from one initial state plus a batch of time-evolved states, by
minimizing the average negative fidelity between each evolved state and the
Trotterized circuit output at the matching time. The first attempt can start
from ``linear_inversion_start``, a closed-form estimate of the coefficients
from the short-time slope of the same states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real

import numpy as np

from . import seeding
from .ansatz import AnsatzParams, apply_qgrnn, coupling_columns, layer_count, transverse_layer_matrix
from .ising import TimeEvolvedSample
from .statevector import (
    StateVector,
    apply_cswap,
    apply_hadamard,
    inner_product,
    prob_zero,
)

# Most Trotter layers one sample may ask for: 2000 times the 50 layers of the
# default t_max (0.5) and trotter_delta (0.01). A larger count comes only
# from an archive or config with a huge t, whose training would not finish.
MAX_LAYERS = 100_000
# The transverse layer is applied in qubit blocks of at most this size. Of
# sizes 2 to 6, 4 (16 x 16 matmuls) was the fastest or within 10 % of it at
# n = 4 to 10: smaller blocks pay for more calls, larger ones for more flops.
TRANSVERSE_BLOCK_QUBITS = 4


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters plus seeded artifact choices.

    The first training attempt starts from the linear inversion of the
    samples, so ``init_low/high`` and ``node_init_low/high`` shape only the
    random draws of the fallback restarts. ``node_init_low/high`` default to
    the shared init range; pipelines that know the embedding range of the
    node weights set them to that range, which is where the fallback draws
    then search. Every field is type- and range-checked on construction.

    ``fd_step`` is not used by training, whose gradient is exact. It stays
    because the benchmark's kernel scan passes it to
    ``CostEvaluator.gradient``.
    """

    batch_size: int = 15
    learning_rate: float = 0.5
    epochs: int = 150
    trotter_delta: float = 0.01
    t_max: float = 0.5
    fd_step: float = 1e-3
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    init_low: float = -1.0
    init_high: float = 1.0
    node_init_low: float | None = None
    node_init_high: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                if not isinstance(value, Integral) or isinstance(value, bool):
                    raise ValueError(f"{f.name} must be an integer, got {value!r}")
            elif not (value is None and f.type == "float | None"):
                if not isinstance(value, Real) or isinstance(value, bool) or not math.isfinite(value):
                    raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        for name in ("learning_rate", "trotter_delta", "t_max", "fd_step", "adam_epsilon"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.init_low >= self.init_high:
            raise ValueError("init_low must be < init_high")
        low, high = self.node_init_range
        if low >= high:
            raise ValueError(f"node init range must have low < high, got [{low}, {high}]")

    @property
    def node_init_range(self) -> tuple[float, float]:
        low = self.init_low if self.node_init_low is None else self.node_init_low
        high = self.init_high if self.node_init_high is None else self.node_init_high
        return low, high

    def with_seed(self, seed: int) -> "TrainConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class TrainResult:
    learned_params: AnsatzParams
    cost_history: tuple[tuple[int, float], ...]
    final_cost: float


def fidelity_direct(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, clamped to the unit interval against roundoff."""
    return min(abs(inner_product(a, b)) ** 2, 1.0)


def fidelity_swap_test(a: StateVector, b: StateVector) -> float:
    """Fidelity via the ancilla-assisted SWAP test on a 2n+1 qubit register.

    Register layout: qubits 0..n-1 hold ``a``, qubits n..2n-1 hold ``b``,
    qubit 2n is the ancilla. The ancilla-zero probability equals (1 + F) / 2.
    """
    if a.qubit_count != b.qubit_count:
        raise ValueError(f"qubit counts differ: {a.qubit_count} vs {b.qubit_count}")
    n = a.qubit_count
    ancilla = 2 * n
    joint = np.kron([1.0 + 0j, 0.0], np.kron(b.amplitudes, a.amplitudes))
    state = StateVector(2 * n + 1, joint)
    state = apply_hadamard(state, ancilla)
    for q in range(n):
        state = apply_cswap(state, ancilla, q, n + q)
    state = apply_hadamard(state, ancilla)
    return min(max(2.0 * prob_zero(state, ancilla) - 1.0, 0.0), 1.0)


def _check_batch(initial: StateVector, samples) -> None:
    if len(samples) == 0:
        raise ValueError("sample batch is empty")
    for s in samples:
        if s.state.qubit_count != initial.qubit_count:
            raise ValueError(
                f"sample state has {s.state.qubit_count} qubits, initial has {initial.qubit_count}"
            )


def batch_cost(
    params: AnsatzParams,
    initial: StateVector,
    samples: list[TimeEvolvedSample],
    delta: float,
) -> float:
    """Average negative fidelity between evolved samples and circuit outputs.

    Reference implementation: one circuit run per sample. The training loop
    evaluates the same quantity through CostEvaluator.
    """
    _check_batch(initial, samples)
    total = 0.0
    for s in samples:
        total += fidelity_direct(s.state, apply_qgrnn(initial, params, s.time, delta))
    return -total / len(samples)


class CostEvaluator:
    """Cost and exact adjoint gradient for one (initial state, sample set, delta).

    The B samples are the rows of one ``(B, 2^n)`` array, sorted by depth,
    deepest first. Sample b runs ``layer_count(t_b, delta)`` layers of step
    ``d_b = t_b / depth_b``; every row ends at the last layer, so a shallower
    row starts late and the rows active at any layer are a prefix. A layer
    is an elementwise phase multiply followed by ``exp(-i d_b sum_i X_i)``,
    which is applied in blocks of at most ``TRANSVERSE_BLOCK_QUBITS`` qubits
    as batched ``(B, 2^k, 2^k)`` matmuls over reshaped views. The evaluator
    holds O(B 2^n) memory and no 2^n x 2^n matrix.

    The gradient is reverse-mode: one forward pass, then one backward pass
    that walks the state and the bra back through the inverse layers, which
    needs no tape because every layer is unitary.
    """

    def __init__(self, initial: StateVector, samples: list[TimeEvolvedSample], delta: float):
        _check_batch(initial, samples)
        if delta <= 0:
            raise ValueError("delta must be > 0")
        depths = [layer_count(s.time, delta) for s in samples]
        deepest = max(depths)
        if deepest > MAX_LAYERS:
            raise ValueError(
                f"sample time {samples[depths.index(deepest)].time:g} needs {deepest} layers "
                f"of step {delta:g}, more than the limit of {MAX_LAYERS}"
            )
        order = np.argsort(depths, kind="stable")[::-1]
        self.node_count = initial.qubit_count
        self.batch_size = len(samples)
        self.columns = coupling_columns(self.node_count)
        self.psi0 = initial.amplitudes
        self.depths = np.array(depths)[order]
        self.steps = np.array([samples[b].time for b in order]) / self.depths
        self.bras = np.array([samples[b].state.amplitudes.conj() for b in order])
        # the layer on which each row starts; ascending, since rows run deepest first
        self._starts = self.depths[0] - self.depths
        # (lowest qubit, qubit count) of each block of the transverse layer
        self._blocks = [
            (low, min(TRANSVERSE_BLOCK_QUBITS, self.node_count - low))
            for low in range(0, self.node_count, TRANSVERSE_BLOCK_QUBITS)
        ]
        self._transverse = {
            k: np.array([transverse_layer_matrix(k, d) for d in self.steps])
            for k in {k for _, k in self._blocks}
        }
        # exp(+i d sum X) is the elementwise conjugate, as every block matrix is symmetric
        self._inverse = {k: m.conj() for k, m in self._transverse.items()}

    @property
    def param_count(self) -> int:
        return self.columns.shape[1]

    def _active(self, layer: int) -> int:
        """Number of leading rows that have started by ``layer``."""
        return int(np.searchsorted(self._starts, layer, side="right"))

    def _apply_blocks(self, x: np.ndarray, matrices: dict) -> np.ndarray:
        """Apply each row's block matrices to an ``(rows, ..., 2^n)`` array; returns a new array."""
        rows = x.shape[0]
        shape = x.shape
        for low, k in self._blocks:
            m = matrices[k][:rows]
            if low == 0:
                # x @ m applies m to the last axis because m is symmetric
                x = x.reshape(rows, -1, 1 << k) @ m
            else:
                x = m[:, None] @ x.reshape(rows, -1, 1 << k, 1 << low)
        return x.reshape(shape)

    def _phases(self, diag: np.ndarray) -> np.ndarray:
        """Per-row diagonal layer exp(-i d_b diag) for diag of shape (..., 2^n): (B, ..., 2^n)."""
        return np.exp(-1j * self.steps.reshape((-1,) + (1,) * diag.ndim) * diag)

    def _evolve(self, phases: np.ndarray) -> np.ndarray:
        """Final states of every row for per-row phases of shape (B, ..., 2^n)."""
        psi = np.broadcast_to(self.psi0, phases.shape).copy()
        for layer in range(self.depths[0]):
            rows = self._active(layer)
            psi[:rows] = self._apply_blocks(phases[:rows] * psi[:rows], self._transverse)
        return psi

    def costs(self, flat_matrix: np.ndarray) -> np.ndarray:
        """Costs for each column of a (param_count, M) matrix of flattened parameters."""
        psi = self._evolve(self._phases((self.columns @ flat_matrix).T))
        overlaps = np.einsum("bn,bmn->bm", self.bras, psi)
        return -np.minimum(np.abs(overlaps) ** 2, 1.0).sum(axis=0) / self.batch_size

    def cost(self, flat: np.ndarray) -> float:
        return float(self.costs(np.asarray(flat, dtype=np.float64)[:, None])[0])

    def gradient(self, flat: np.ndarray, fd_step: float) -> np.ndarray:
        """Exact gradient of ``cost`` by one forward and one backward pass.

        With a_b = <phi_b|psi_L>, chi_l the state after layer l's phases and
        lambda_l the bra carried back to the same point, the gradient is
        -(1/B) sum_b 2 Re(conj(a_b) (-i d_b) columns.T g_b) with
        g_b = sum_l conj(lambda_l) * chi_l. ``fd_step`` is unused; it stays
        in the signature because the benchmark's kernel scan passes
        ``TrainConfig.fd_step``.
        """
        phases = self._phases(self.columns @ np.asarray(flat, dtype=np.float64))
        psi = self._evolve(phases)
        overlaps = np.einsum("bn,bn->b", self.bras, psi)
        # row b holds [state, bra as a ket], both walked back one layer at a time
        pair = np.stack([psi, self.bras.conj()], axis=1)
        back = phases.conj()[:, None]
        g = np.zeros_like(psi)
        for layer in range(self.depths[0] - 1, -1, -1):
            rows = self._active(layer)
            chi = self._apply_blocks(pair[:rows], self._inverse)
            g[:rows] += chi[:, 1].conj() * chi[:, 0]
            pair[:rows] = back[:rows] * chi
        weights = overlaps.conj() * (-1j * self.steps)
        return -2.0 * np.real((weights @ g) @ self.columns) / self.batch_size


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(np.zeros(size), np.zeros(size))


def adam_step(
    state: AdamState, params_flat: np.ndarray, grads: np.ndarray, config: TrainConfig
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update."""
    if params_flat.shape != grads.shape:
        raise ValueError(f"shape mismatch: params {params_flat.shape} vs grads {grads.shape}")
    b1, b2 = config.adam_beta1, config.adam_beta2
    t = state.step_count + 1
    m = b1 * state.m + (1 - b1) * grads
    v = b2 * state.v + (1 - b2) * grads**2
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    updated = params_flat - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)
    return AdamState(m, v, t), updated


def initial_params(node_count: int, config: TrainConfig) -> AnsatzParams:
    """Seeded uniform parameter draw: edges first, then nodes, matching flat order."""
    rng = seeding.derive_rng(config.seed, seeding.PARAM_INIT)
    n_edges = node_count * (node_count - 1) // 2
    edges = rng.uniform(config.init_low, config.init_high, n_edges)
    node_low, node_high = config.node_init_range
    nodes = rng.uniform(node_low, node_high, node_count)
    return AnsatzParams(node_count, edges, nodes)


def linear_inversion_start(
    initial: StateVector, samples: list[TimeEvolvedSample]
) -> np.ndarray:
    """Flat coefficients (edges, then nodes) solved from the short-time slope of the samples.

    psi(t) = psi0 - i t H psi0 + O(t^2), so a polynomial fit of psi(t) - psi0
    in t with no constant term, of degree min(6, batch size), gives
    H psi0 = i c1. Removing the known unit transverse field leaves
    diag(H) * psi0, which is linear in the coefficients: the real and
    imaginary parts of ``(coupling_columns * psi0) p = H psi0 - sum_i X_i psi0``
    are solved together by least squares. Exact for exact samples in the
    limit of short times; used to start training near the answer.
    """
    _check_batch(initial, samples)
    n = initial.qubit_count
    psi0 = initial.amplitudes
    times = np.array([s.time for s in samples])
    scale = times.max()
    degree = min(6, len(samples))
    # fit in t / scale so the Vandermonde columns are of order 1
    vandermonde = (times / scale)[:, None] ** np.arange(1, degree + 1)
    drift = np.array([s.state.amplitudes for s in samples]) - psi0
    slope = np.linalg.lstsq(vandermonde, drift, rcond=None)[0][0] / scale
    idx = np.arange(psi0.size)
    transverse = sum(psi0[idx ^ (1 << q)] for q in range(n))
    rhs = 1j * slope - transverse
    design = coupling_columns(n) * psi0[:, None]
    return np.linalg.lstsq(
        np.vstack([design.real, design.imag]), np.concatenate([rhs.real, rhs.imag]), rcond=None
    )[0]


def train_qgrnn(
    initial: StateVector,
    samples: list[TimeEvolvedSample],
    config: TrainConfig,
    start: np.ndarray | None = None,
) -> TrainResult:
    """Full-batch training loop: exactly ``config.epochs`` gradient + Adam steps.

    Training starts from the flat vector ``start`` when given, otherwise from
    the seeded draw of ``initial_params``. The cost recorded for epoch k is
    evaluated at the parameters produced by that epoch's update, so the last
    entry equals ``final_cost`` at the learned parameters. Deterministic given
    the start, or the config seed when no start is given.
    """
    evaluator = CostEvaluator(initial, samples, config.trotter_delta)
    if start is None:
        params = initial_params(evaluator.node_count, config).flatten()
    else:
        params = np.array(start, dtype=np.float64)
        if params.shape != (evaluator.param_count,):
            raise ValueError(
                f"start has shape {params.shape}, expected ({evaluator.param_count},)"
            )
    opt = AdamState.zeros(params.size)
    history: list[tuple[int, float]] = []
    for epoch in range(1, config.epochs + 1):
        grads = evaluator.gradient(params, config.fd_step)
        opt, params = adam_step(opt, params, grads, config)
        history.append((epoch, evaluator.cost(params)))
    return TrainResult(
        learned_params=AnsatzParams.from_flat(evaluator.node_count, params),
        cost_history=tuple(history),
        final_cost=history[-1][1],
    )
