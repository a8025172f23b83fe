"""Fidelity cost, SWAP-test verification, exact adjoint gradients, Adam, BFGS, and the training loop.

Training recovers the node and edge coefficients of a hidden graph
Hamiltonian from one initial state plus a batch of time-evolved states, by
minimizing the average negative fidelity between each evolved state and the
fourth-order Trotterized circuit output at the matching time: Suzuki's
composition of five Strang stages, the middle one of negative step, built
from the paper's gates (see ``ansatz``). Each attempt has two phases: Adam
on a cosine-annealed step size for the first third of the epochs, to reach
a basin, then BFGS with a backtracking line search, which converges
superlinearly inside it and stops early once no step can lower the cost
(Nocedal & Wright, Numerical Optimization, Alg. 6.1). The first attempt can
start from ``linear_inversion_start``, a closed-form estimate of the
coefficients from the short-time slope of the same states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real

import numpy as np

from . import seeding
from .ansatz import STAGE_WEIGHTS, coupling_columns, layer_count, transverse_layer_matrix
from .ising import TimeEvolvedSample, apply_hamiltonian
from .statevector import apply_cswap, apply_hadamard, checked_state, inner_product, prob_zero

# Most Trotter layers one sample may ask for: 2000 times the 50 layers of the
# default t_max (0.5) and trotter_delta (0.01). A larger count comes only
# from an archive or config with a huge t, whose training would not finish.
MAX_LAYERS = 100_000
# The transverse layer is applied in qubit blocks of at most this size. Of
# sizes 2 to 6, 4 (16 x 16 matmuls) was the fastest or within 10 % of it at
# n = 4 to 10: smaller blocks pay for more calls, larger ones for more flops.
TRANSVERSE_BLOCK_QUBITS = 4
# Armijo sufficient-decrease constant of the BFGS line search, and the most
# times it halves its step before the phase stops as converged.
ARMIJO_C1 = 1e-4
MAX_HALVINGS = 20
FLOAT_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters plus seeded artifact choices.

    The first training attempt starts from the linear inversion of the
    samples, so ``init_low/high`` and ``node_init_low/high`` shape only the
    random draws of the fallback restarts. ``node_init_low/high`` default to
    the shared init range; pipelines that know the embedding range of the
    node weights set them to that range, which is where the fallback draws
    then search. Every field is type- and range-checked on construction,
    and ``t_max`` may need at most ``MAX_LAYERS`` layers of ``trotter_delta``,
    so a run that could not finish fails before any data is generated.

    ``trotter_delta`` is the mean step of a diagonal layer: a sample at time
    t runs K = ``layer_count(t, 5 trotter_delta)`` fourth-order steps of t/K,
    each five diagonal layers whose steps are (p, p, 1 - 4p, p, p) t/K.

    ``epochs`` is a budget: ``train_qgrnn`` runs Adam for the first
    ceil(epochs / 3) of them and BFGS for at most the rest, and it stops
    early once BFGS can lower the cost no further. ``learning_rate`` and
    ``adam_*`` shape the Adam phase only: ``learning_rate`` is the peak of
    Adam's step size, annealed over that phase on a half cosine, from
    ``learning_rate`` at its first epoch towards 0 at its last.

    ``restarts`` caps the attempts of ``pipeline.learn_from_states``: the
    warm-started one, then random draws until a fit is accepted.

    ``fd_step`` is not used by training, whose gradient is exact. It stays
    because the benchmark's kernel scan passes it to
    ``CostEvaluator.gradient``.

    ``seed`` must be >= 0, as every stream derives from it.
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
    restarts: int = 10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                if not isinstance(value, Integral) or isinstance(value, bool):
                    raise ValueError(f"{f.name} must be an integer, got {value!r}")
            elif not (value is None and f.type == "float | None"):
                if not isinstance(value, Real) or isinstance(value, bool) or not math.isfinite(value):
                    raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        for name in ("batch_size", "epochs", "restarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("learning_rate", "trotter_delta", "t_max", "fd_step", "adam_epsilon"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1)")
        # t_max / trotter_delta can overflow to inf, which layer_count cannot round
        if math.isinf(self.t_max / self.trotter_delta) or (
            layer_count(self.t_max, self.trotter_delta) > MAX_LAYERS
        ):
            raise ValueError(
                f"t_max {self.t_max:g} needs more than {MAX_LAYERS} layers of step "
                f"{self.trotter_delta:g}"
            )
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
    # the learned coefficients, in the layout of ``ising``: couplings, then node weights
    learned_params: np.ndarray
    cost_history: tuple[tuple[int, float], ...]
    final_cost: float
    # "converged" when the BFGS phase could lower the cost no further, else "epochs"
    stop_reason: str


def fidelity_direct(a, b) -> float:
    """|<a|b>|^2 of two states, each checked by ``checked_state``, clamped to the unit interval."""
    return min(abs(inner_product(checked_state(a), checked_state(b))) ** 2, 1.0)


def fidelity_swap_test(a, b) -> float:
    """Fidelity via the ancilla-assisted SWAP test on a 2n+1 qubit register.

    Register layout: qubits 0..n-1 hold ``a``, qubits n..2n-1 hold ``b``,
    qubit 2n is the ancilla. The ancilla-zero probability equals (1 + F) / 2.
    Both states are checked by ``checked_state``.
    """
    a, b = checked_state(a), checked_state(b)
    if a.size != b.size:
        raise ValueError(f"state sizes differ: {a.size} vs {b.size} amplitudes")
    n = a.size.bit_length() - 1
    ancilla = 2 * n
    state = apply_hadamard(np.kron([1.0 + 0j, 0.0], np.kron(b, a)), ancilla)
    for q in range(n):
        state = apply_cswap(state, ancilla, q, n + q)
    state = apply_hadamard(state, ancilla)
    return min(max(2.0 * prob_zero(state, ancilla) - 1.0, 0.0), 1.0)


def _check_batch(initial, samples) -> tuple[np.ndarray, np.ndarray]:
    """The caller's states, each checked by ``checked_state``: psi0 and the (B, 2^n) sample states."""
    if len(samples) == 0:
        raise ValueError("sample batch is empty")
    psi0 = checked_state(initial)
    states = [checked_state(s.state) for s in samples]
    for state in states:
        if state.size != psi0.size:
            raise ValueError(f"sample state has {state.size} amplitudes, initial has {psi0.size}")
    return psi0, np.array(states)


class CostEvaluator:
    """Cost and exact adjoint gradient for one (initial state, sample set, delta).

    The B samples are the rows of one ``(B, 2^n)`` array, sorted by depth,
    deepest first. Sample b runs K_b = ``layer_count(t_b, 5 delta)``
    fourth-order steps of ``d_b = t_b / K_b``, that is 5 K_b diagonal layers,
    within a few layers of ``layer_count(t_b, delta)``; every row ends at the
    last layer, so a shallower row starts late and the rows active at any
    layer are a prefix. A layer is an elementwise phase multiply followed by
    a transverse step ``exp(-i s sum_i X_i)``, which is applied in blocks of
    at most ``TRANSVERSE_BLOCK_QUBITS`` qubits as batched
    ``(B, 2^k, 2^k)`` matmuls over reshaped views. The evaluator holds
    O(B 2^n) memory and no 2^n x 2^n matrix.

    The circuit is fourth order (see ``ansatz``): K steps of Suzuki's
    five-stage composition of Strang layers, whose adjacent transverse
    half-steps merge. Layer l has the phases of stage j = l mod 5, of step
    c_j d_b with c = ``STAGE_WEIGHTS`` (the middle one negative), and then
    the transverse step (c_j + c_{j+1}) d_b / 2, cyclic in j. Each depth is
    a multiple of 5, so a late row starts on stage 0. Only two phase
    weights and two transverse steps occur; each is built once. The outer
    half-steps T(p d_b / 2) do not depend on the coefficients, so row b
    starts from its own ket T(p d_b / 2) psi0 and is scored against the bra
    of T(p d_b / 2) phi_b, both computed once here.

    The gradient is reverse-mode: one forward pass, then one backward pass
    that walks the state and the bra back through the inverse layers, which
    needs no tape because every layer is unitary.
    """

    def __init__(self, initial, samples: list[TimeEvolvedSample], delta: float):
        psi0, states = _check_batch(initial, samples)
        if delta <= 0:
            raise ValueError("delta must be > 0")
        layers = [layer_count(s.time, delta) for s in samples]
        deepest = max(layers)
        if deepest > MAX_LAYERS:
            raise ValueError(
                f"sample time {samples[layers.index(deepest)].time:g} needs {deepest} layers "
                f"of step {delta:g}, more than the limit of {MAX_LAYERS}"
            )
        stages = len(STAGE_WEIGHTS)
        depths = [stages * layer_count(s.time, stages * delta) for s in samples]
        order = np.argsort(depths, kind="stable")[::-1]
        self.node_count = psi0.size.bit_length() - 1
        self.batch_size = len(samples)
        self.columns = coupling_columns(self.node_count)
        self.depths = np.array(depths)[order]
        # the fourth-order step d_b of each row
        self.steps = np.array([samples[b].time for b in order]) / (self.depths // stages)
        # the layer on which each row starts; ascending, since rows run deepest first
        self._starts = self.depths[0] - self.depths
        # (lowest qubit, qubit count) of each block of the transverse layer
        self._blocks = [
            (low, min(TRANSVERSE_BLOCK_QUBITS, self.node_count - low))
            for low in range(0, self.node_count, TRANSVERSE_BLOCK_QUBITS)
        ]
        # (phase weight, transverse weight) of each stage, as fractions of d_b
        following = STAGE_WEIGHTS[1:] + STAGE_WEIGHTS[:1]
        self._stages = tuple((c, (c + c_next) / 2) for c, c_next in zip(STAGE_WEIGHTS, following))
        self._transverse = {w: self._block_matrices(w) for w in {w for _, w in self._stages}}
        # exp(+i s sum X) is the elementwise conjugate, as every block matrix is symmetric
        self._inverse = {
            w: {k: m.conj() for k, m in blocks.items()} for w, blocks in self._transverse.items()
        }
        # the frame: row b starts from T(p d_b/2) psi0 and ends on the bra of T(p d_b/2) phi_b
        half = self._block_matrices(STAGE_WEIGHTS[0] / 2)
        self.kets = self._apply_blocks(np.broadcast_to(psi0, (self.batch_size, psi0.size)), half)
        self.bras = self._apply_blocks(states[order], half).conj()

    @property
    def param_count(self) -> int:
        return self.columns.shape[1]

    def _active(self, layer: int) -> int:
        """Number of leading rows that have started by ``layer``."""
        return int(np.searchsorted(self._starts, layer, side="right"))

    def _block_matrices(self, weight: float) -> dict:
        """Per-row transverse block matrices of step ``weight * d_b``, keyed by block size."""
        return {
            k: np.array([transverse_layer_matrix(k, weight * d) for d in self.steps])
            for k in {k for _, k in self._blocks}
        }

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

    def _phases(self, diag: np.ndarray) -> dict:
        """Per-row diagonal layers exp(-i c d_b diag) for diag of shape (..., 2^n), keyed by c.

        Each value has shape (B, ..., 2^n).
        """
        steps = self.steps.reshape((-1,) + (1,) * diag.ndim)
        return {c: np.exp(-1j * c * steps * diag) for c in set(STAGE_WEIGHTS)}

    def _evolve(self, phases: dict) -> np.ndarray:
        """Final states of every row for per-row phases keyed by stage weight."""
        shape = phases[STAGE_WEIGHTS[0]].shape
        kets = self.kets.reshape((self.batch_size,) + (1,) * (len(shape) - 2) + (-1,))
        psi = np.broadcast_to(kets, shape).copy()
        for layer in range(self.depths[0]):
            rows = self._active(layer)
            weight, transverse = self._stages[layer % len(self._stages)]
            psi[:rows] = self._apply_blocks(
                phases[weight][:rows] * psi[:rows], self._transverse[transverse]
            )
        return psi

    def costs(self, flat_matrix: np.ndarray) -> np.ndarray:
        """Costs for each column of a (param_count, M) matrix of coefficient vectors."""
        psi = self._evolve(self._phases((self.columns @ flat_matrix).T))
        overlaps = np.einsum("bn,bmn->bm", self.bras, psi)
        return -np.minimum(np.abs(overlaps) ** 2, 1.0).sum(axis=0) / self.batch_size

    def cost(self, flat: np.ndarray) -> float:
        return float(self.costs(np.asarray(flat, dtype=np.float64)[:, None])[0])

    def gradient(self, flat: np.ndarray, fd_step: float | None = None) -> np.ndarray:
        """Exact gradient of ``cost`` by one forward and one backward pass.

        With a_b = <bra_b|psi_L> (both in the frame of the outer half-steps),
        chi_l the state after layer l's phases, lambda_l the bra carried back
        to the same point and c_l the phase weight of layer l's stage, the
        gradient is -(1/B) sum_b 2 Re(conj(a_b) (-i d_b) columns.T g_b) with
        g_b = sum_l c_l conj(lambda_l) * chi_l. ``fd_step`` is unused; it
        stays in the signature because the benchmark's kernel scan passes
        ``TrainConfig.fd_step``.
        """
        phases = self._phases(self.columns @ np.asarray(flat, dtype=np.float64))
        psi = self._evolve(phases)
        overlaps = np.einsum("bn,bn->b", self.bras, psi)
        # row b holds [state, bra as a ket], both walked back one layer at a time
        pair = np.stack([psi, self.bras.conj()], axis=1)
        back = {c: p.conj()[:, None] for c, p in phases.items()}
        g = np.zeros_like(psi)
        for layer in range(self.depths[0] - 1, -1, -1):
            rows = self._active(layer)
            weight, transverse = self._stages[layer % len(self._stages)]
            chi = self._apply_blocks(pair[:rows], self._inverse[transverse])
            g[:rows] += weight * (chi[:, 1].conj() * chi[:, 0])
            pair[:rows] = back[weight][:rows] * chi
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
    state: AdamState,
    params_flat: np.ndarray,
    grads: np.ndarray,
    config: TrainConfig,
    rate: float | None = None,
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update of step size ``rate``, by default ``config.learning_rate``."""
    if params_flat.shape != grads.shape:
        raise ValueError(f"shape mismatch: params {params_flat.shape} vs grads {grads.shape}")
    b1, b2 = config.adam_beta1, config.adam_beta2
    t = state.step_count + 1
    m = b1 * state.m + (1 - b1) * grads
    v = b2 * state.v + (1 - b2) * grads**2
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    if rate is None:
        rate = config.learning_rate
    updated = params_flat - rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)
    return AdamState(m, v, t), updated


def initial_params(node_count: int, config: TrainConfig) -> np.ndarray:
    """Seeded uniform draw of the coefficients: the couplings, then the node weights."""
    rng = seeding.derive_rng(config.seed, seeding.PARAM_INIT)
    couplings = rng.uniform(config.init_low, config.init_high, node_count * (node_count - 1) // 2)
    return np.concatenate([couplings, rng.uniform(*config.node_init_range, node_count)])


def linear_inversion_start(initial, samples: list[TimeEvolvedSample]) -> np.ndarray:
    """Coefficients (couplings, then node weights) solved from the short-time slope of the samples.

    psi(t) = psi0 - i t H psi0 + O(t^2), so a polynomial fit of psi(t) - psi0
    in t with no constant term, of degree min(6, batch size), gives
    H psi0 = i c1. Removing the known unit transverse field leaves
    diag(H) * psi0, which is linear in the coefficients: the real and
    imaginary parts of ``(coupling_columns * psi0) p = H psi0 - sum_i X_i psi0``
    are solved together by least squares. Exact for exact samples in the
    limit of short times; used to start training near the answer.
    """
    psi0, states = _check_batch(initial, samples)
    n = psi0.size.bit_length() - 1
    times = np.array([s.time for s in samples])
    scale = times.max()
    degree = min(6, len(samples))
    # fit in t / scale so the Vandermonde columns are of order 1
    vandermonde = (times / scale)[:, None] ** np.arange(1, degree + 1)
    drift = states - psi0
    slope = np.linalg.lstsq(vandermonde, drift, rcond=None)[0][0] / scale
    # a zero diagonal leaves the unit transverse field alone
    rhs = 1j * slope - apply_hamiltonian(np.zeros(psi0.size), psi0)
    design = coupling_columns(n) * psi0[:, None]
    return np.linalg.lstsq(
        np.vstack([design.real, design.imag]), np.concatenate([rhs.real, rhs.imag]), rcond=None
    )[0]


def _bfgs_phase(
    evaluator: CostEvaluator,
    params: np.ndarray,
    cost: float,
    epochs: int,
    history: list[tuple[int, float]],
) -> tuple[np.ndarray, str]:
    """Up to ``epochs`` BFGS steps from ``params`` at ``cost``; returns (params, stop reason).

    Each epoch takes the gradient, a direction from the dense inverse
    Hessian (``-g`` until the first curvature pair, which scales the
    identity by s.y / y.y, Nocedal & Wright eq. 6.20), and an Armijo
    backtracking search from the unit step. A step is taken only if it
    lowers the cost strictly; each one appends its (epoch, cost) row to
    ``history``. A pair with s.y <= 0 is skipped, and a direction that does
    not descend resets the inverse Hessian. The phase stops as
    ``"converged"`` when no halving lowers the cost or the predicted
    decrease |g.d| is at most eps |cost|, which is round-off, and otherwise as
    ``"epochs"`` when the budget runs out.
    """
    inverse = None
    previous = None  # (step taken, gradient it was taken from)
    for epoch in range(len(history) + 1, len(history) + epochs + 1):
        grads = evaluator.gradient(params)
        if previous is not None:
            step, change = previous[0], grads - previous[1]
            curvature = step @ change
            if curvature > 0:
                if inverse is None:
                    inverse = np.eye(params.size) * (curvature / (change @ change))
                left = np.eye(params.size) - np.outer(step, change) / curvature
                inverse = left @ inverse @ left.T + np.outer(step, step) / curvature
        direction = -grads if inverse is None else -(inverse @ grads)
        slope = grads @ direction
        if not slope < 0:
            inverse, direction, slope = None, -grads, -(grads @ grads)
        if -slope <= FLOAT_EPS * abs(cost):
            return params, "converged"
        for halving in range(MAX_HALVINGS + 1):
            rate = 0.5**halving
            trial = params + rate * direction
            trial_cost = evaluator.cost(trial)
            if trial_cost < cost and trial_cost <= cost + ARMIJO_C1 * rate * slope:
                break
        else:
            return params, "converged"
        previous = (trial - params, grads)
        params, cost = trial, trial_cost
        history.append((epoch, cost))
    return params, "epochs"


def train_qgrnn(
    initial,
    samples: list[TimeEvolvedSample],
    config: TrainConfig,
    start: np.ndarray | None = None,
) -> TrainResult:
    """Full-batch training in two phases within a budget of ``config.epochs`` epochs.

    The Adam phase runs the first A = ceil(E / 3) of the E epochs: epoch e
    takes a gradient and an Adam step of size
    ``learning_rate * (1 + cos(pi (e - 1) / A)) / 2``, the full
    ``learning_rate`` first, then a half cosine towards 0. It carries a
    random start into a basin. The BFGS phase (``_bfgs_phase``) then runs
    for at most E - A epochs and converges superlinearly inside the basin;
    it stops early, with ``stop_reason`` ``"converged"``, once no step can
    lower the cost any further, and otherwise ``stop_reason`` is
    ``"epochs"``.

    Training starts from the flat vector ``start`` when given, otherwise from
    the seeded draw of ``initial_params``. The history has one
    (epoch, cost) row per epoch run, numbered 1..k with k <= E, each cost
    evaluated at the parameters that epoch produced, so the last row equals
    ``final_cost`` at the learned parameters. Deterministic given the start,
    or the config seed when no start is given.
    """
    evaluator = CostEvaluator(initial, samples, config.trotter_delta)
    if start is None:
        params = initial_params(evaluator.node_count, config)
    else:
        params = np.array(start, dtype=np.float64)
        if params.shape != (evaluator.param_count,):
            raise ValueError(
                f"start has shape {params.shape}, expected ({evaluator.param_count},)"
            )
    adam_epochs = -(-config.epochs // 3)
    opt = AdamState.zeros(params.size)
    history: list[tuple[int, float]] = []
    for epoch in range(1, adam_epochs + 1):
        grads = evaluator.gradient(params)
        rate = config.learning_rate * (1 + math.cos(math.pi * (epoch - 1) / adam_epochs)) / 2
        opt, params = adam_step(opt, params, grads, config, rate)
        history.append((epoch, evaluator.cost(params)))
    params, stop_reason = _bfgs_phase(
        evaluator, params, history[-1][1], config.epochs - adam_epochs, history
    )
    return TrainResult(
        learned_params=params,
        cost_history=tuple(history),
        final_cost=history[-1][1],
        stop_reason=stop_reason,
    )
