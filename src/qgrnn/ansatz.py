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

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .ising import IsingGraph, complete_pairs, _z_columns
from .statevector import rx_matrix

# Suzuki's fourth-order weight p = 1 / (4 - 4^(1/3)), about 0.4145.
SUZUKI_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
# The steps of the five Strang stages of one fourth-order step, as fractions of it.
STAGE_WEIGHTS = (SUZUKI_P, SUZUKI_P, 1.0 - 4.0 * SUZUKI_P, SUZUKI_P, SUZUKI_P)


@dataclass(frozen=True)
class AnsatzParams:
    """Learnable coefficients over a complete graph.

    Flattened parameter order is fixed for gradient indexing: all edge
    parameters in lexicographic pair order, then all node parameters in
    ascending node order.
    """

    node_count: int
    edge_params: np.ndarray
    node_params: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edge_params, dtype=np.float64)
        nodes = np.asarray(self.node_params, dtype=np.float64)
        n = self.node_count
        if nodes.shape != (n,):
            raise ValueError(f"expected {n} node params, got shape {nodes.shape}")
        if edges.shape != (n * (n - 1) // 2,):
            raise ValueError(
                f"expected {n * (n - 1) // 2} edge params for {n} nodes, got shape {edges.shape}"
            )
        object.__setattr__(self, "edge_params", edges)
        object.__setattr__(self, "node_params", nodes)

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.edge_params, self.node_params])

    @classmethod
    def from_flat(cls, node_count: int, flat) -> "AnsatzParams":
        flat = np.asarray(flat, dtype=np.float64)
        n_edges = node_count * (node_count - 1) // 2
        if flat.shape != (n_edges + node_count,):
            raise ValueError(f"expected {n_edges + node_count} parameters, got shape {flat.shape}")
        return cls(node_count, flat[:n_edges], flat[n_edges:])

    def to_graph(self) -> IsingGraph:
        edges = {
            pair: float(w)
            for pair, w in zip(complete_pairs(self.node_count), self.edge_params)
        }
        return IsingGraph(self.node_count, self.node_params.copy(), edges)

    @classmethod
    def from_graph(cls, graph: IsingGraph) -> "AnsatzParams":
        edges = np.array(
            [graph.edge_weights.get(pair, 0.0) for pair in complete_pairs(graph.node_count)]
        )
        return cls(graph.node_count, edges, graph.node_weights.copy())


def layer_count(t: float, delta: float) -> int:
    """Number of layers D = round(t / delta), at least 1."""
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return max(1, int(round(t / delta)))


def coupling_columns(node_count: int) -> np.ndarray:
    """(2^n, P) diagonal patterns of each flattened parameter's Hamiltonian term.

    Column k holds the basis-diagonal of the k-th term (Z_i Z_j products for
    edge parameters, then Z_i for node parameters), so the diagonal part of
    the Hamiltonian for a flat parameter vector p is simply ``columns @ p``.
    """
    z = _z_columns(node_count)
    cols = [z[:, i] * z[:, j] for i, j in complete_pairs(node_count)]
    cols.extend(z[:, i] for i in range(node_count))
    return np.column_stack(cols)


def transverse_layer_matrix(node_count: int, delta: float) -> np.ndarray:
    """Dense matrix of exp(-i delta sum_i X_i) = RX(2*delta) on every qubit."""
    return reduce(np.kron, [rx_matrix(2.0 * delta)] * node_count)
