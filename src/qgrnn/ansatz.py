"""Trotterized recurrent circuit: diagonal (ZZ + Z) exponentials between transverse (X) steps.

This extends the paper's first-order QGRNN circuit (Verdon et al.,
arXiv:1909.12264) to fourth order with the same gates: ZZ(s*w_ij) on every
pair, RZ(2*s*w_i) on every node and RX(2*s) on every node, for a gate step s.
The Strang product S2(s) = T(s/2) P(s) T(s/2) of the transverse exponential T
and the diagonal one P is second order. Suzuki's symmetric fractal
composition of five of them,
    S4(d) = S2(p d) S2(p d) S2((1 - 4p) d) S2(p d) S2(p d),  p = 1/(4 - 4^(1/3)),
is fourth order: its error per unit time is of order d^4 instead of d^2
(Suzuki, J. Math. Phys. 32, 400, 1991; Childs et al., PRX 11, 011020, 2021).
Its middle stage steps backwards in time (1 - 4p = -0.657...). Adjacent
transverse half-steps merge, so K steps of S4 are 5K diagonal layers, each
followed by one transverse step, between two outer half-steps that do not
depend on the coefficients: the same gates and layer count as 5K layers of
the paper's circuit.
"""
from __future__ import annotations

from functools import reduce

import numpy as np

from .ising import complete_pairs, _z_columns
from .statevector import rx_matrix

# Suzuki's fourth-order weight p = 1 / (4 - 4^(1/3)), about 0.4145.
SUZUKI_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
# The steps of the five Strang stages of one fourth-order step, as fractions of it.
STAGE_WEIGHTS = (SUZUKI_P, SUZUKI_P, 1.0 - 4.0 * SUZUKI_P, SUZUKI_P, SUZUKI_P)


def layer_count(t: float, delta: float) -> int:
    """Number of layers D = round(t / delta), at least 1."""
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return max(1, int(round(t / delta)))


def coupling_columns(node_count: int) -> np.ndarray:
    """(2^n, P) diagonal patterns of the Hamiltonian term of each coefficient.

    Column k holds the basis-diagonal of the k-th term in the coefficient
    layout of ``ising`` (Z_i Z_j for the couplings, then Z_i for the node
    weights), so the diagonal part of the Hamiltonian is ``columns @ p``.
    """
    z = _z_columns(node_count)
    cols = [z[:, i] * z[:, j] for i, j in complete_pairs(node_count)]
    cols.extend(z[:, i] for i in range(node_count))
    return np.column_stack(cols)


def transverse_layer_matrix(node_count: int, delta: float) -> np.ndarray:
    """Dense matrix of exp(-i delta sum_i X_i) = RX(2*delta) on every qubit."""
    return reduce(np.kron, [rx_matrix(2.0 * delta)] * node_count)
