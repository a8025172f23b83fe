"""Fidelity cost, exact adjoint gradients, Adam, BFGS, and the training loop.

Training recovers the node and edge coefficients of a hidden graph
Hamiltonian from one initial state plus a batch of time-evolved states, by
minimizing the mean infidelity between each evolved state and the
sixth-order Trotterized circuit output at the matching time: Blanes &
Moan's ten-stage splitting with the diagonal outer, some of its steps
negative, built from the paper's gates (see ``ansatz``). Each fidelity is
read exactly from the amplitudes, where the paper measures it with a SWAP
test; the tests pin the two equal. The infidelity is scored in its
residual form, which resolves it far below the float spacing near 1.
Each attempt has two phases: Adam on a cosine-annealed step size for the
first third of the epochs, to reach a basin, then BFGS with a backtracking
line search, which converges superlinearly inside it and stops early once
no step can lower the cost (Nocedal & Wright, Numerical Optimization,
Alg. 6.1). BFGS stops when the decrease it predicts is below the rounding
of the cost: the residual r is a difference of unit states, rounded by
about eps, which moves the cost ||r||^2 by about eps ||r||, so no line
search can see a decrease below eps sqrt(cost).
Adam's first step is taken at the full rate; if it does not
lower the cost of the start, the start is already in its basin, Adam
stops, and BFGS runs from the start. The first attempt starts near the
answer (``pipeline.learn_from_states``): from ``linear_inversion_start``,
a closed-form estimate of the coefficients from the short-time slope of
the states, continued over the sample times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import ClassVar

import numpy as np

from . import seeding
from .ansatz import DIAGONAL_WEIGHTS, TRANSVERSE_WEIGHTS, layer_count, transverse_layer_matrix
from .ising import TimeEvolvedSample, apply_hamiltonian, coupling_columns
from .statevector import checked_state

# Most Trotter layers one sample may ask for: about 600 times the
# layer_count(0.5, 0.003) = 167 layers of the default t_max. At the Trotter
# step of 0.003 it bounds t_max below 300.0015.
# A larger count comes only from an archive or config with a huge t, whose
# training would not finish.
MAX_LAYERS = 100_000
# Most samples one fit may take. By tracemalloc, the data, a CostEvaluator and
# one gradient take about 32 KB per sample at n = 4, 350 KB at n = 10 and
# 4.8 MB at n = 14, where 64 samples peak at 351 MB.
MAX_BATCH = 64
# Most epochs one training run may take. The first attempt of a fit runs two
# (its early stage and its last stage, see pipeline.learn_from_states), each
# within this budget. At n = 14 an epoch takes about 0.9 s on 2 cores, so
# 10,000 epochs are about 2.5 h per run, where a default fit of 14 weights
# stops as converged after about 6 s. No test, benchmark or experiment uses
# more than 150 epochs or 10 restarts.
MAX_EPOCHS = 10_000
# Most attempts one fit may make: 100 attempts of 150 epochs, the first of them
# two stages, take about 3.8 h at n = 14.
MAX_RESTARTS = 100
# The transverse layer is applied in qubit blocks of at most this size. Of
# sizes 2 to 6, 4 (16 x 16 matmuls) was the fastest or within 10 % of it at
# n = 4 to 10: smaller blocks pay for more calls, larger ones for more flops.
TRANSVERSE_BLOCK_QUBITS = 4
# Armijo sufficient-decrease constant of the BFGS line search, and the most
# times it halves its step before the phase stops as converged.
ARMIJO_C1 = 1e-4
MAX_HALVINGS = 20
FLOAT_EPS = float(np.finfo(np.float64).eps)
# Adam's moment decays and denominator guard (Kingma & Ba's defaults), and the
# peak of its step size, which train_qgrnn anneals over the Adam phase.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
LEARNING_RATE = 0.5


@dataclass(frozen=True)
class TrainConfig:
    """The training options a caller sets, plus the seed of every stream.

    Every field is type- and range-checked on construction: ``batch_size``
    is at most ``MAX_BATCH``, ``epochs`` at most ``MAX_EPOCHS``, ``restarts``
    at most ``MAX_RESTARTS``, and ``t_max`` may need at most ``MAX_LAYERS``
    layers of ``trotter_delta``, so a run that could not finish fails before
    any data is generated.

    ``batch_size`` is B, the number of evolved states generated and fitted:
    8 by default, at the B Chebyshev points of (0, ``t_max``)
    (``ising.draw_times``), not at random times.

    ``epochs`` is a budget: ``train_qgrnn`` runs Adam for the first
    ceil(epochs / 3) of them and BFGS for at most the rest, and it stops
    early once BFGS can lower the cost no further. If Adam's first step
    does not lower the cost of the start, that step is undone and BFGS
    runs from the start for at most all ``epochs``.

    ``restarts`` caps the attempts of ``pipeline.learn_from_states``: the
    warm-started one, which fits twice (its early samples, then all), then
    random draws until a fit is accepted.

    ``seed`` must be >= 0, as every stream derives from it.

    The class constants are not options. ``trotter_delta`` is the mean step
    of a layer, 0.003: a sample at time t runs K = ``layer_count(t, 10
    trotter_delta)`` sixth-order steps of t/K, each ten layers whose steps
    are ``ansatz.DIAGONAL_WEIGHTS`` and ``ansatz.TRANSVERSE_WEIGHTS`` times
    t/K. ``init_low`` and ``init_high`` bound the couplings of a random
    start (``initial_params``). ``fd_step`` is not used by training, whose
    gradient is exact; the benchmark's kernel scan passes it to
    ``CostEvaluator.gradient``.
    """

    trotter_delta: ClassVar[float] = 0.003
    init_low: ClassVar[float] = -1.0
    init_high: ClassVar[float] = 1.0
    fd_step: ClassVar[float] = 1e-3

    batch_size: int = 8
    epochs: int = 150
    t_max: float = 0.5
    seed: int = 0
    restarts: int = 10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                if not isinstance(value, Integral) or isinstance(value, bool):
                    raise ValueError(f"{f.name} must be an integer, got {value!r}")
            elif not isinstance(value, Real) or isinstance(value, bool) or not math.isfinite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        for name in ("batch_size", "epochs", "restarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.t_max <= 0:
            raise ValueError("t_max must be > 0")
        for name, bound in (("batch_size", MAX_BATCH), ("epochs", MAX_EPOCHS),
                            ("restarts", MAX_RESTARTS)):
            if getattr(self, name) > bound:
                raise ValueError(f"{name} must be <= {bound}, got {getattr(self, name)}")
        # t_max / trotter_delta can overflow to inf, which layer_count cannot round
        if math.isinf(self.t_max / self.trotter_delta) or (
            layer_count(self.t_max, self.trotter_delta) > MAX_LAYERS
        ):
            raise ValueError(
                f"t_max {self.t_max:g} needs more than {MAX_LAYERS} layers of step "
                f"{self.trotter_delta:g}"
            )


@dataclass(frozen=True)
class TrainResult:
    # the learned coefficients, in the layout of ``ising``: couplings, then node weights
    learned_params: np.ndarray
    # (epoch, cost) rows, and the last cost; each cost is -fidelity, the
    # evaluator's infidelity minus 1
    cost_history: tuple[tuple[int, float], ...]
    final_cost: float
    # "converged" when the BFGS phase could lower the cost no further, else "epochs"
    stop_reason: str


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """||row||^2 of each row of a complex array."""
    return (rows.real**2 + rows.imag**2).sum(axis=1)


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

    The cost is the mean infidelity of the rows, in its residual form: with
    psi_b the circuit's last state of row b, phi_b its sample and
    a_b = <phi_b|psi_b>, row b scores ||psi_b - a_b phi_b||^2 / ||psi_b||^2,
    which is 1 - |a_b|^2 for unit states. The form 1 - |a_b|^2 cancels near
    a fit: |a_b|^2 is within 1.1e-16 of 1, so the cost resolves nothing
    finer, and BFGS stops at coefficient errors of about sqrt(eps) wherever
    its path ends. The residual is small there and keeps its relative
    precision, so fits from different starts end at the same optimum.

    The B samples are the rows of one ``(B, 2^n)`` array, sorted by depth,
    deepest first. Sample b runs K_b = ``layer_count(t_b, 10 delta)``
    sixth-order steps of ``d_b = t_b / K_b``, that is 10 K_b layers, within
    a few layers of ``layer_count(t_b, delta)``; every row ends at the last
    layer, so a shallower row starts late and the rows active at any layer
    are a prefix. A layer is an elementwise phase multiply followed by a
    transverse step ``exp(-i s sum_i X_i)``, which is applied in blocks of
    at most ``TRANSVERSE_BLOCK_QUBITS`` qubits as batched
    ``(B, 2^k, 2^k)`` matmuls over reshaped views. The evaluator holds
    O(B 2^n) memory and no 2^n x 2^n matrix.

    The circuit is sixth order (see ``ansatz``): K steps of Blanes & Moan's
    S10 with the diagonal outer, whose adjacent outer phases merge. With
    a = ``DIAGONAL_WEIGHTS`` and b = ``TRANSVERSE_WEIGHTS``, layer l has the
    phases of step c_j d_b, c = (2 a_1, a_2, ..., a_10), and then the
    transverse step b_j d_b, for j = l mod 10. Each depth is a multiple of
    10, so a late row starts on j = 0. The first layer of a row has one
    a_1 d_b phase too many, so row b starts from P(-a_1 d_b) psi0 and is
    scored against P(a_1 d_b) of its last state; both are elementwise
    products of each call. Only the transverse steps b_1..b_5 occur, each
    built once here as per-row block matrices.

    The gradient is reverse-mode: one forward pass, then one backward pass
    that walks the state and the bra back through the layers, which needs no
    tape because every layer is unitary. Every block matrix is symmetric, so
    T(-s) = conj T(s): the pass walks the conjugated pair through the same
    block matrices and phases as the forward pass.

    The evaluator keeps its last forward pass, read-only, under the exact
    bytes of the float64 coefficients, so a gradient at the point the last
    ``cost`` scored runs only its backward pass. Training scores its start
    first and asks for exactly that after every Adam step and every
    accepted BFGS step, so a training run makes one forward pass per cost.
    The kept pass is seven phase tables, the last states and psi, nine
    (B, 2^n) complex arrays: at n = 14 and B = 8, by tracemalloc, the
    evaluator holds 35.2 MB between calls, 18.9 MB of it the kept pass, and
    a run of gradients and costs peaks at 70.3 MB, inside a gradient.
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
        stages = len(TRANSVERSE_WEIGHTS)
        depths = [stages * layer_count(s.time, stages * delta) for s in samples]
        order = np.argsort(depths, kind="stable")[::-1]
        self.node_count = psi0.size.bit_length() - 1
        self.batch_size = len(samples)
        self.columns = coupling_columns(self.node_count)
        self.depths = np.array(depths)[order]
        # the sixth-order step d_b of each row
        self.steps = np.array([samples[b].time for b in order]) / (self.depths // stages)
        # the number of leading rows active in each step of the deepest row; as
        # rows run deepest first and every depth is a multiple of 10, a late row
        # starts on a step and the active rows are a prefix
        starts = self.depths[0] - self.depths
        self._step_rows = np.searchsorted(
            starts, np.arange(0, self.depths[0], stages), side="right"
        ).tolist()
        # (lowest qubit, qubit count) of each block of the transverse layer
        self._blocks = [
            (low, min(TRANSVERSE_BLOCK_QUBITS, self.node_count - low))
            for low in range(0, self.node_count, TRANSVERSE_BLOCK_QUBITS)
        ]
        # (phase weight, transverse weight) of each layer of a step, as fractions of d_b
        outer = DIAGONAL_WEIGHTS[0]
        self._stages = tuple(zip((2 * outer,) + DIAGONAL_WEIGHTS[1:-1], TRANSVERSE_WEIGHTS))
        self._transverse = {
            b: self._block_matrices(b) for b in dict.fromkeys(TRANSVERSE_WEIGHTS)
        }
        self.initial = psi0
        self.bras = states[order].conj()
        # (bytes of the coefficients, their _forward result)
        self._last = None

    @property
    def param_count(self) -> int:
        return self.columns.shape[1]

    def _block_matrices(self, weight: float) -> dict:
        """Per-row transverse block matrices of step ``weight * d_b``, keyed by block size."""
        return {
            k: transverse_layer_matrix(k, weight * self.steps) for k in {k for _, k in self._blocks}
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
        """Per-row diagonal layers exp(-i c d_b diag) for one diagonal of 2^n entries, keyed by c.

        The keys are the phase weights of the layers and the outer weight a_1.
        Each value has shape (B, 2^n).
        """
        angles = self.steps[:, None] * diag
        phases = {}
        for c in dict.fromkeys(DIAGONAL_WEIGHTS):
            # cos and sin of the real angle, which is faster than a complex exp
            turn = -c * angles
            phases[c] = table = np.empty(turn.shape, dtype=np.complex128)
            np.cos(turn, out=table.real)
            np.sin(turn, out=table.imag)
        outer = DIAGONAL_WEIGHTS[0]
        phases[2 * outer] = phases[outer] ** 2
        return phases

    def _evolve(self, phases: dict) -> np.ndarray:
        """Last states of every row, before the outer phase, for per-row phases keyed by weight."""
        psi = phases[DIAGONAL_WEIGHTS[0]].conj() * self.initial
        for rows in self._step_rows:
            for weight, transverse in self._stages:
                psi[:rows] = self._apply_blocks(
                    phases[weight][:rows] * psi[:rows], self._transverse[transverse]
                )
        return psi

    def _forward(self, flat: np.ndarray) -> tuple:
        """Phases, last states before the outer phase, psi after it and overlaps <phi_b|psi_b> of ``flat``.

        The last result is kept, read-only, under the bytes of ``flat`` as
        float64, and returned again for the same bytes.
        """
        flat = np.asarray(flat, dtype=np.float64)
        key = flat.tobytes()
        if self._last is None or self._last[0] != key:
            phases = self._phases(self.columns @ flat)
            last = self._evolve(phases)
            psi = phases[DIAGONAL_WEIGHTS[0]] * last
            result = phases, last, psi, np.einsum("bn,bn->b", self.bras, psi)
            for array in (*phases.values(), *result[1:]):
                array.flags.writeable = False
            self._last = key, result
        return self._last[1]

    def costs(self, flat_matrix: np.ndarray) -> np.ndarray:
        """Mean infidelity for each column of a (param_count, M) matrix of coefficient vectors."""
        rows = []
        for flat in np.asarray(flat_matrix).T:
            psi, overlaps = self._forward(flat)[2:]
            residual = psi - overlaps[:, None] * self.bras.conj()
            rows.append(_squared_norms(residual) / _squared_norms(psi))
        return np.array(rows).sum(axis=1) / self.batch_size

    def cost(self, flat: np.ndarray) -> float:
        return float(self.costs(np.asarray(flat, dtype=np.float64)[:, None])[0])

    def gradient(self, flat: np.ndarray, fd_step: float | None = None) -> np.ndarray:
        """Exact gradient of ``cost`` by one forward and one backward pass.

        The circuit is unitary, so ||psi_b|| is constant and the gradient of
        the infidelity is that of -(1/B) sum_b |a_b|^2.

        With a_b = <phi_b|psi_L> the overlap of row b, chi the state right
        after a diagonal layer of weight c, lambda the bra carried back to
        the same point, the gradient is
        -(1/B) sum_b 2 Re(conj(a_b) (-i d_b) columns.T g_b) with
        g_b = sum c conj(lambda) * chi over the row's diagonal layers: the
        outer a_1 at the end, the 10 K_b layers, and the -a_1 at the start.
        The pass holds the conjugates of chi and lambda, which walk back
        through the forward block matrices and phases. ``fd_step`` is unused;
        it stays in the signature because the benchmark's kernel scan passes
        ``TrainConfig.fd_step``.
        """
        outer = DIAGONAL_WEIGHTS[0]
        phases, last, psi, overlaps = self._forward(flat)
        g = outer * self.bras * psi
        # row b holds the conjugates of [state, bra as a ket], walked back one layer at a time
        pair = np.stack([last.conj(), phases[outer] * self.bras], axis=1)
        for rows in reversed(self._step_rows):
            for weight, transverse in reversed(self._stages):
                chi = self._apply_blocks(pair[:rows], self._transverse[transverse])
                g[:rows] += weight * (chi[:, 1] * chi[:, 0].conj())
                pair[:rows] = phases[weight][:rows, None] * chi
        g -= outer * (pair[:, 1] * pair[:, 0].conj())
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
    state: AdamState, params_flat: np.ndarray, grads: np.ndarray, rate: float
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update of step size ``rate``."""
    if params_flat.shape != grads.shape:
        raise ValueError(f"shape mismatch: params {params_flat.shape} vs grads {grads.shape}")
    t = state.step_count + 1
    m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * grads**2
    m_hat = m / (1 - ADAM_BETA1**t)
    v_hat = v / (1 - ADAM_BETA2**t)
    updated = params_flat - rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return AdamState(m, v, t), updated


def initial_params(node_count: int, seed: int, node_range: tuple[float, float]) -> np.ndarray:
    """Seeded uniform draw of the coefficients: the couplings, then the node weights.

    The couplings span ``TrainConfig.init_low`` to ``init_high``, the node weights ``node_range``.
    """
    rng = seeding.derive_rng(seed, seeding.PARAM_INIT)
    pairs = node_count * (node_count - 1) // 2
    couplings = rng.uniform(TrainConfig.init_low, TrainConfig.init_high, pairs)
    return np.concatenate([couplings, rng.uniform(*node_range, node_count)])


def linear_inversion_start(initial, samples: list[TimeEvolvedSample]) -> np.ndarray:
    """Coefficients (couplings, then node weights) solved from the short-time slope of the samples.

    psi(t) = psi0 - i t H psi0 + O(t^2), so a polynomial fit of psi(t) - psi0
    in t with no constant term, of degree min(6, batch size), gives
    H psi0 = i c1. Removing the known unit transverse field leaves
    r = (C * psi0) p, with C = ``coupling_columns``. Its real and imaginary
    parts are fitted by least squares through the P x P normal equations
    C^T diag(|psi0|^2) C p = C^T Re(conj(psi0) r), which ``lstsq`` solves for
    the minimum-norm p when psi0 leaves them rank-deficient. Exact for
    exact samples in the limit of short times; used to start training near
    the answer.
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
    columns = coupling_columns(n)
    projected = columns.T @ (psi0.conj() * rhs).real
    # scaled in place, so the Gram matrix is (|psi0| C)^T (|psi0| C)
    columns *= np.abs(psi0)[:, None]
    return np.linalg.lstsq(columns.T @ columns, projected, rcond=None)[0]


def _bfgs_phase(
    evaluator: CostEvaluator,
    params: np.ndarray,
    cost: float,
    epochs: int,
    history: list[tuple[int, float]],
    grads: np.ndarray | None = None,
) -> tuple[np.ndarray, str]:
    """Up to ``epochs`` BFGS steps from ``params`` at ``cost``; returns (params, stop reason).

    Each epoch takes the gradient (the first takes ``grads``, the gradient
    at ``params``, when the caller has it), a direction from the dense
    inverse Hessian (``-g`` until the first curvature pair, which scales
    the identity by s.y / y.y, Nocedal & Wright eq. 6.20), and an Armijo
    backtracking search from the unit step. A step is taken only if it
    lowers the cost strictly; each one appends its (epoch, cost) row to
    ``history``. A pair with s.y <= 0 is skipped, and a direction that does
    not descend resets the inverse Hessian. The phase stops as
    ``"converged"`` when the predicted decrease |g.d| is at most
    eps sqrt(cost), or when no halving lowers the cost, and otherwise as
    ``"epochs"`` when the budget runs out. The cost is ||r||^2 for the
    residual r = psi - a phi of ``CostEvaluator``, a difference of unit
    states, so r carries a rounding error of about eps whatever its size,
    and the cost moves by about eps ||r|| = eps sqrt(cost). A smaller
    predicted decrease is round-off, and its line search would score all
    ``MAX_HALVINGS`` halvings for nothing. At a fit of the defaults the
    cost is near 1e-18 and eps sqrt(cost) near 2e-25.
    """
    inverse = None
    previous = None  # (step taken, gradient it was taken from)
    for epoch in range(len(history) + 1, len(history) + epochs + 1):
        if grads is None:
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
        if -slope <= FLOAT_EPS * math.sqrt(cost):
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
        params, cost, grads = trial, trial_cost, None
        history.append((epoch, cost))
    return params, "epochs"


def train_qgrnn(
    initial,
    samples: list[TimeEvolvedSample],
    config: TrainConfig,
    start: np.ndarray,
) -> TrainResult:
    """Full-batch training in two phases within a budget of ``config.epochs`` epochs.

    Training starts from the flat vector ``start``, whose cost is scored
    first, so the first gradient reuses that forward pass. The Adam phase
    runs the first A = ceil(E / 3) of the E epochs: epoch e takes a
    gradient and an Adam step of size
    ``LEARNING_RATE * (1 + cos(pi (e - 1) / A)) / 2``, the full
    ``LEARNING_RATE`` first, then a half cosine towards 0. It carries a
    random start into a basin. A start already in its basin, such as the
    continued start of ``pipeline.learn_from_states``, is thrown out of it
    by a full-rate step, so Adam stops if its first step does not lower the
    cost; that step is undone and leaves no row. The BFGS phase
    (``_bfgs_phase``) then runs for the rest of the E epochs, all of them
    if Adam stopped, and converges superlinearly inside the basin; it stops
    early, with ``stop_reason`` ``"converged"``, once no step can lower the
    cost any further, and otherwise ``stop_reason`` is ``"epochs"``.

    The history has one (epoch, cost) row per epoch run, numbered 1..k
    with k <= E, each cost evaluated at the parameters that epoch produced,
    so the last row equals ``final_cost`` at the learned parameters; if no
    step lowers the cost of the start, the one row is the start's. The
    costs are -fidelity, the evaluator's infidelity minus 1. Deterministic
    given the start.
    """
    evaluator = CostEvaluator(initial, samples, config.trotter_delta)
    params = np.array(start, dtype=np.float64)
    if params.shape != (evaluator.param_count,):
        raise ValueError(f"start has shape {params.shape}, expected ({evaluator.param_count},)")
    cost = evaluator.cost(params)
    adam_epochs = -(-config.epochs // 3)
    opt = AdamState.zeros(params.size)
    history: list[tuple[int, float]] = []
    for epoch in range(1, adam_epochs + 1):
        grads = evaluator.gradient(params)
        rate = LEARNING_RATE * (1 + math.cos(math.pi * (epoch - 1) / adam_epochs)) / 2
        opt, trial = adam_step(opt, params, grads, rate)
        trial_cost = evaluator.cost(trial)
        if epoch == 1 and not trial_cost < cost:
            break
        params, cost, grads = trial, trial_cost, None
        history.append((epoch, cost))
    params, stop_reason = _bfgs_phase(
        evaluator, params, cost, config.epochs - len(history), history, grads
    )
    if not history:
        history.append((1, cost))
    return TrainResult(
        learned_params=params,
        cost_history=tuple((epoch, cost - 1.0) for epoch, cost in history),
        final_cost=history[-1][1] - 1.0,
        stop_reason=stop_reason,
    )
