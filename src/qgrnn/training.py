"""Fidelity cost, SWAP-test verification, finite-difference gradients, Adam, and the training loop.

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


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters plus seeded artifact choices.

    The first training attempt starts from the linear inversion of the
    samples, so ``init_low/high`` and ``node_init_low/high`` shape only the
    random draws of the fallback restarts. ``node_init_low/high`` default to
    the shared init range; pipelines that know the embedding range of the
    node weights set them to that range, which is where the fallback draws
    then search. Every field is type- and range-checked on construction.
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


def grad_central(
    params: AnsatzParams,
    initial: StateVector,
    samples: list[TimeEvolvedSample],
    delta: float,
    fd_step: float,
) -> np.ndarray:
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


class CostEvaluator:
    """Batched cost/gradient evaluation for one (initial state, sample set, delta).

    Evaluating M parameter vectors at once runs M circuit columns through the
    shared per-sample layer sequence: one elementwise phase multiply and one
    transverse-layer matmul per layer, independent of M at the Python level.
    Per-sample layer counts and transverse matrices are precomputed.
    """

    def __init__(self, initial: StateVector, samples: list[TimeEvolvedSample], delta: float):
        _check_batch(initial, samples)
        if delta <= 0:
            raise ValueError("delta must be > 0")
        self.node_count = initial.qubit_count
        self.columns = coupling_columns(self.node_count)
        self.psi0 = initial.amplitudes
        self._per_sample = []
        for s in samples:
            depth = layer_count(s.time, delta)
            d_eff = s.time / depth
            self._per_sample.append(
                (depth, d_eff, transverse_layer_matrix(self.node_count, d_eff),
                 s.state.amplitudes.conj())
            )
        self.batch_size = len(samples)

    @property
    def param_count(self) -> int:
        return self.columns.shape[1]

    def costs(self, flat_matrix: np.ndarray) -> np.ndarray:
        """Costs for each column of a (param_count, M) matrix of flattened parameters."""
        diag = self.columns @ flat_matrix
        total = np.zeros(flat_matrix.shape[1])
        for depth, d_eff, transverse, bra in self._per_sample:
            phases = np.exp(-1j * d_eff * diag)
            psi = np.broadcast_to(self.psi0[:, None], phases.shape).copy()
            for _ in range(depth):
                psi = transverse @ (phases * psi)
            total += np.minimum(np.abs(bra @ psi) ** 2, 1.0)
        return -total / self.batch_size

    def cost(self, flat: np.ndarray) -> float:
        return float(self.costs(np.asarray(flat, dtype=np.float64)[:, None])[0])

    def gradient(self, flat: np.ndarray, fd_step: float) -> np.ndarray:
        """Central differences, all 2P probes evaluated as one batch."""
        p = flat.size
        probes = np.repeat(flat[:, None], 2 * p, axis=1)
        probes[np.arange(p), np.arange(p)] += fd_step
        probes[np.arange(p), p + np.arange(p)] -= fd_step
        c = self.costs(probes)
        return (c[:p] - c[p:]) / (2 * fd_step)


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
