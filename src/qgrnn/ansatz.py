"""Trotterized recurrent circuit: diagonal (ZZ + Z) exponentials between transverse (X) steps.

This extends the paper's first-order QGRNN circuit (Verdon et al.,
arXiv:1909.12264) to sixth order with the same gates: ZZ(s*w_ij) on every
pair, RZ(2*s*w_i) on every node and RX(2*s) on every node, for a gate step s.
Only the steps of the layers change. With P the diagonal exponential and T
the transverse one, one step of d is Blanes & Moan's ten-stage splitting
S10 with the diagonal as the outer operator,
    S10(d) = P(a1 d) T(b1 d) P(a2 d) T(b2 d) ... T(b10 d) P(a11 d),
whose weights a = ``DIAGONAL_WEIGHTS`` and b = ``TRANSVERSE_WEIGHTS`` are
each symmetric and each sum to 1; some are negative, so those layers step
backwards in time. Its error per unit time is of order d^6 (Blanes & Moan,
J. Comput. Appl. Math. 142, 313, 2002), with an error constant far below
that of Suzuki's fourth-order five-stage composition at the same number of
layers (Childs et al., PRX 11, 011020, 2021). The outer phases of adjacent
steps merge into P(2 a1 d), so K steps are 10K layers, each a diagonal
layer followed by a transverse one, plus one more diagonal layer of a1 d:
the same gates as 10K layers of the paper's circuit.

The diagonal of each coefficient's term, ``coupling_columns``, is built in
``ising``, which owns the coefficient layout. This module still binds the
name, because ``benchmarks/trace_layers.py`` looks it up here.
"""
from __future__ import annotations

import numpy as np

from .ising import coupling_columns  # noqa: F401

# Blanes & Moan's S10 weights a1..a5 and b1..b4, from the paper cited above.
_A = (0.0502627644003922, 0.413514300428344, 0.0450798897943977, -0.188054853819569,
      0.541960678450780)
_B = (0.148816447901042, -0.132385865767784, 0.067307604692185, 0.432666402578175)
# The steps of the eleven diagonal and ten transverse layers of one S10 step, as
# fractions of it; a6 and b5 make each set sum to 1.
DIAGONAL_WEIGHTS = _A + (1.0 - 2.0 * sum(_A),) + _A[::-1]
TRANSVERSE_WEIGHTS = _B + (0.5 - sum(_B),) * 2 + _B[::-1]


def layer_count(t: float, delta: float) -> int:
    """Number of layers D = round(t / delta), at least 1."""
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return max(1, int(round(t / delta)))


def transverse_layer_matrix(node_count: int, delta) -> np.ndarray:
    """Dense matrix of exp(-i delta sum_i X_i) = RX(2*delta) on every qubit.

    The product of the one-qubit rotations in closed form: entry (i, j) is
    cos(delta)^(n - h) (-i sin(delta))^h, where h = popcount(i ^ j) is the
    number of qubits the entry flips. ``delta`` may be an array of steps,
    which gives one (2^n, 2^n) matrix for each, stacked on its leading axes.
    """
    steps = np.asarray(delta, dtype=np.float64)[..., None, None]
    index = np.arange(1 << node_count)
    differ = index[:, None] ^ index
    flips = sum((differ >> q) & 1 for q in range(node_count))
    # (-i)^h, exactly
    phase = np.array([1.0, -1j, -1.0, 1j])[flips % 4]
    return np.cos(steps) ** (node_count - flips) * np.sin(steps) ** flips * phase
