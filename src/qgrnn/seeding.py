"""Deterministic derivation of independent random streams from one master seed."""
from __future__ import annotations

import numpy as np

# Stream tags used by the pipeline. Keeping them in one place guarantees that
# e.g. edge-weight draws never collide with state-preparation draws.
EDGE_WEIGHTS = 1
INITIAL_STATE = 2
# reserved: the sample times were drawn from this stream until they became
# the Chebyshev points of ising.draw_times
EVOLUTION_TIMES = 3
PARAM_INIT = 4
RESTART = 5
RECONSTRUCT_SAMPLE = 6


def derive_seed(seed: int, *stream: int) -> int:
    """Map (seed, stream tags) to a stable 64-bit sub-seed."""
    ss = np.random.SeedSequence([int(seed), *map(int, stream)])
    return int(ss.generate_state(1, np.uint64)[0])


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, *stream))
