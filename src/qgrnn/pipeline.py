"""Shared orchestration: embed node weights, generate evolution data, and learn them back."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeding
from .ising import TimeEvolvedSample, draw_times, random_complete_graph, sample_evolution
from .metrics import MetricReport, evaluate
from .statevector import random_state
from .training import TrainConfig, TrainResult, initial_params, linear_inversion_start, train_qgrnn

ACCEPT_COST = -0.99
# Largest register accepted from user data. At 14 qubits, by tracemalloc, the
# data peak at 17.7 MB and the warm start at 24.4 MB; a training attempt peaks
# at 94.3 MB, in CostEvaluator and its gradient, and an epoch (one gradient,
# one cost) takes about 0.8 s on 2 cores. Each further qubit doubles all four.
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
    node_range: tuple[float, float],
    accept_cost: float = ACCEPT_COST,
) -> tuple[TrainResult, int]:
    """Train from the linear-inversion warm start, then from random draws until the fit converges.

    The first attempt starts from ``linear_inversion_start`` of the samples.
    Fallback attempt r = 1 .. config.restarts - 1 starts from
    ``initial_params`` seeded by (config.seed, r), with the node weights
    drawn over ``node_range``, where the caller's embedding puts them. The
    first result whose final cost reaches ``accept_cost`` wins, otherwise
    the lowest-cost attempt is returned. Returns (result, attempts used).
    """
    best = train_qgrnn(initial, samples, config, start=linear_inversion_start(initial, samples))
    node_count = np.size(initial).bit_length() - 1
    for attempt in range(1, config.restarts):
        if best.final_cost <= accept_cost:
            return best, attempt
        seed = seeding.derive_seed(config.seed, seeding.RESTART, attempt)
        start = initial_params(node_count, seed, node_range)
        result = train_qgrnn(initial, samples, config, start=start)
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


def reconstruct_sample(
    features_row, config: TrainConfig, node_range: tuple[float, float]
) -> ReconstructionResult:
    """Embed one feature vector as node weights, then recover it from the evolved states.

    ``node_range`` is the range the features were scaled onto; the random
    restarts of ``learn_from_states`` search the node weights there.
    """
    actual = np.asarray(features_row, dtype=np.float64)
    target, initial, samples = embed_and_sample(actual, config)
    result, attempts = learn_from_states(initial, samples, config, node_range)
    predicted = result.learned_params[-actual.size :]
    return ReconstructionResult(
        actual=actual,
        predicted=predicted,
        report=evaluate(actual, predicted),
        train_result=result,
        attempts=attempts,
        target=target,
    )
