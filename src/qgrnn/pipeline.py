"""Shared orchestration: embed node weights, generate evolution data, and learn them back."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeding
from .ising import TimeEvolvedSample, draw_times, random_complete_graph, sample_evolution
from .metrics import MetricReport, evaluate
from .statevector import random_state
from .training import TrainConfig, TrainResult, linear_inversion_start, train_qgrnn

ACCEPT_COST = -0.99
# Largest register accepted from user data. At 14 qubits the largest arrays are
# the least-squares system of linear_inversion_start, 2 * 2^14 x 105 float64
# (27.5 MB), and its complex design matrix; a training attempt peaks near 70 MB
# and an epoch takes about 0.8 s on 2 cores. Each further qubit doubles both.
MAX_QUBITS = 14

# Rows used by default for the Iris demonstration: two correctly-classified
# samples per class, spread across the feature range.
DEFAULT_IRIS_ROWS = (18, 31, 73, 82, 118, 141)


def embed_and_sample(
    node_weights, config: TrainConfig
) -> tuple[np.ndarray, np.ndarray, list[TimeEvolvedSample]]:
    """Embed weights into a complete graph; return its coefficients, initial state and samples.

    The couplings, the initial state, and the evolution times come from
    independent streams derived from ``config.seed``. More than
    ``MAX_QUBITS`` weights are rejected before any 2^n array exists.
    """
    weights = np.asarray(node_weights, dtype=np.float64)
    if weights.size > MAX_QUBITS:
        raise ValueError(
            f"{weights.size} node weights need a {weights.size}-qubit register, "
            f"more than the limit of {MAX_QUBITS}"
        )
    coefficients = random_complete_graph(
        weights, seeding.derive_rng(config.seed, seeding.EDGE_WEIGHTS)
    )
    initial = random_state(weights.size, seeding.derive_seed(config.seed, seeding.INITIAL_STATE))
    times = draw_times(
        config.batch_size, config.t_max, seeding.derive_rng(config.seed, seeding.EVOLUTION_TIMES)
    )
    return coefficients, initial, sample_evolution(coefficients, initial, times)


def learn_from_states(
    initial,
    samples: list[TimeEvolvedSample],
    config: TrainConfig,
    accept_cost: float = ACCEPT_COST,
) -> tuple[TrainResult, int]:
    """Train from the linear-inversion warm start, then from random draws until the fit converges.

    The first attempt starts from ``linear_inversion_start`` of the samples.
    Fallback attempt r = 1 .. config.restarts - 1 draws its initial
    parameters over the config's init ranges, from a seed derived from
    (config.seed, r). The first result whose final cost reaches
    ``accept_cost`` wins, otherwise the lowest-cost attempt is returned.
    Returns (result, attempts used).
    """
    best = train_qgrnn(initial, samples, config, start=linear_inversion_start(initial, samples))
    for attempt in range(1, config.restarts):
        if best.final_cost <= accept_cost:
            return best, attempt
        seed = seeding.derive_seed(config.seed, seeding.RESTART, attempt)
        result = train_qgrnn(initial, samples, config.with_seed(seed))
        if result.final_cost < best.final_cost:
            best = result
    return best, config.restarts


@dataclass(frozen=True)
class ReconstructionResult:
    actual: np.ndarray
    # the learned node weights: the last n entries of train_result.learned_params
    predicted: np.ndarray
    report: MetricReport
    train_result: TrainResult
    attempts: int
    # the embedded coefficients, in the layout of ``ising``: couplings, then ``actual``
    target: np.ndarray


def reconstruct_sample(features_row, config: TrainConfig) -> ReconstructionResult:
    """Embed one feature vector as node weights, then recover it from the evolved states."""
    actual = np.asarray(features_row, dtype=np.float64)
    target, initial, samples = embed_and_sample(actual, config)
    result, attempts = learn_from_states(initial, samples, config)
    predicted = result.learned_params[-actual.size :]
    return ReconstructionResult(
        actual=actual,
        predicted=predicted,
        report=evaluate(actual, predicted),
        train_result=result,
        attempts=attempts,
        target=target,
    )
