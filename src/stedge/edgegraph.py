"""Edge graphs via the first-order boundary operator.

The signed incidence matrix B1 (one -1 at the low-index endpoint, one +1 at
the high-index endpoint per column) defines the first Hodge Laplacian
L1 = B1^T B1 (the two-simplex term is zero here).  Edge features are
filtered by a truncated Laguerre expansion of L1, then fused back into node
embeddings as multiplicative gates: ``hll_conv`` gives the Laguerre basis
of the edge lengths and ``fusion_gcn`` filters and fuses it in one op.

An edge signal is an (M,) vector over a ``PatchGraph``'s edge list, all
K patches' edges in one.  The model never builds B1: B1 x is one
``np.bincount`` over the edges' endpoints and B1^T y is y[v] - y[u]
(``HodgeOperator``), so the edge list is the only structure the filter
needs, and each patch's scale lam is its node Laplacian's largest
eigenvalue, which L1 shares; one stacked eigensolve gives all K.
``boundary_operator`` (the (n, m) B1 array, one column per ``edge_list``
edge), ``line_graph`` and ``hodge_laplacian`` build B1, the dense edge
graph and L1 as references for tests and demos only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stedge.autodiff import Tensor, elu, gated_neighbour_mean
from stedge.stgraph import PatchGraph, edge_list, laplacian_spectrum

_LAMBDA_FLOOR = 1e-6   # lam of an edgeless graph, so the scaling never divides by 0


@dataclass(frozen=True)
class HodgeOperator:
    """L1 / lam on (M,) edge vectors over the K patches' (M, 3) edge list
    ``edge_index``, each patch's L1 scaled by its own lam.

    B1 x is one bincount over the global node ids k * n + i: each node sums
    +x over the edges it heads, then -x over the edges it tails, in edge
    order.  B1^T y is y[v] - y[u] on each edge, so no (n, m) or (m, m)
    array exists.
    """

    edge_index: np.ndarray   # (M, 3), (k, u, v) with u < v
    lam: np.ndarray          # (K,), each patch's scale
    nodes: int               # n, the nodes of each patch

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        k, u, v = self.edge_index.T
        tail, head = k * self.nodes + u, k * self.nodes + v
        y = np.bincount(np.concatenate([head, tail]), weights=np.concatenate([x, -x]))
        return (y[head] - y[tail]) / self.lam[k]


def boundary_operator(adjacency) -> np.ndarray:
    """The signed incidence matrix B1, (n, m): column e is ``edge_list``'s
    edge e = (u, v), u < v, with -1 at u and +1 at v."""
    a = np.asarray(adjacency)
    edges = edge_list(a)
    cols = np.arange(len(edges))
    b1 = np.zeros((a.shape[0], len(edges)))
    b1[edges[:, 0], cols] = -1.0
    b1[edges[:, 1], cols] = 1.0
    return b1


def line_graph(edge_index) -> np.ndarray:
    """Adjacency of the edge graph: 1 iff two distinct edges share an endpoint.

    The off-diagonal nonzeros of |B1|^T |B1|, whose (e, f) entry counts
    the endpoints edges e and f share.
    """
    idx = np.asarray(edge_index, dtype=np.int64).reshape(-1, 2)
    incidence = np.zeros((len(idx), int(idx.max()) + 1 if len(idx) else 0))
    incidence[np.arange(len(idx))[:, None], idx] = 1.0   # |B1|^T, (m, n)
    adj = (incidence @ incidence.T > 0.0).astype(np.float64)
    np.fill_diagonal(adj, 0.0)
    return adj


def hodge_laplacian(b1) -> np.ndarray:
    """L1 = B1^T B1 of an (n, m) B1; the B2 term is zero (no two-simplices
    are built)."""
    b1 = np.asarray(b1)
    return b1.T @ b1


def line_graph_degrees(graph: PatchGraph) -> np.ndarray:
    """Each edge's degree in its patch's edge graph, in edge order: edge
    (k, u, v) shares an endpoint with deg u - 1 + deg v - 1 other edges."""
    degree = graph.adjacency.sum(axis=-1).astype(np.int64)
    k, u, v = graph.edge_index.T
    return degree[k, u] + degree[k, v] - 2


def hodge_spectrum(graph: PatchGraph) -> np.ndarray:
    """L1's eigenvalues of a one-patch graph (``PatchGraph.patch``),
    ascending, one per edge, without building L1: D - A = B1 B1^T shares
    L1 = B1^T B1's nonzero spectrum, and L1's other eigenvalues are zeros
    (the zero rule is ``laplacian_spectrum``'s).  Read by ``graph-stats``."""
    (values,) = laplacian_spectrum(graph.adjacency)
    nonzero = values[values > 0.0]
    zeros = np.zeros(len(graph.edge_index) - len(nonzero))  # m - rank
    return np.concatenate([zeros, nonzero])


def hodge_operator(graph: PatchGraph) -> HodgeOperator:
    """Each patch's L1 scaled by its largest eigenvalue lam, so that the
    Laguerre polynomials see a spectrum in [0, 1]: n on a complete graph,
    ``_LAMBDA_FLOOR`` on an edgeless one.  L1 = B1^T B1 and D - A = B1 B1^T
    share their nonzero eigenvalues, so lam is the top of the node
    Laplacian's ascending spectrum, all K from one stacked eigensolve."""
    lam = np.maximum(laplacian_spectrum(graph.adjacency)[:, -1], _LAMBDA_FLOOR)
    return HodgeOperator(edge_index=graph.edge_index, lam=lam,
                         nodes=graph.adjacency.shape[-1])


def laguerre_scalars(lam: float, order: int) -> list[float]:
    """Laguerre polynomial values at a scalar, by the defining recurrence
    G_{j+1}(x) = ((2j + 1 - x) G_j(x) - j G_{j-1}(x)) / (j + 1),
    with G_0 = 1 and G_1 = 1 - x."""
    if order < 1:
        raise ValueError("order must be >= 1")
    vals = [1.0]
    if order > 1:
        vals.append(1.0 - lam)
    for j in range(1, order - 1):
        vals.append(((2 * j + 1 - lam) * vals[j] - j * vals[j - 1]) / (j + 1))
    return vals


def laguerre_basis(operator, x, order: int) -> list:
    """Apply the scalar recurrence to the operator: T_j = G_j(L1) X.

    The operator is a ``HodgeOperator``, applied to an (m,) edge vector
    (numpy arrays throughout), or a dense square array, applied to a
    Tensor.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    lap = operator if isinstance(operator, HodgeOperator) else Tensor(operator)
    basis = [x]
    if order > 1:
        basis.append(x - lap @ x)
    for j in range(1, order - 1):
        t_j, t_prev = basis[j], basis[j - 1]
        t_next = (t_j * ((2 * j + 1) / (j + 1))
                  - (lap @ t_j) * (1.0 / (j + 1))
                  - t_prev * (j / (j + 1)))
        basis.append(t_next)
    return basis


def hll_conv(graph: PatchGraph, order: int) -> np.ndarray:
    """The Laguerre basis of the graph's edge lengths E, all K patches' in
    one, (M, order): column j is G_j(L1 / lam) E, so the spectral edge
    convolution sum_j G_j(L1 / lam) E theta_j is this basis times the
    (order, d) coefficients whose row j is theta_j.  A constant of plain
    numpy, recording no op; ``fusion_gcn``'s one op filters it."""
    return np.stack(laguerre_basis(hodge_operator(graph), graph.distances, order), axis=1)


def fusion_gcn(h_node: Tensor, edge_filter, edge_index, theta: Tensor) -> Tensor:
    """Node update of the K patches' (K, n, d) ``h_node``, gated per
    neighbour by its edge.

    H_i = ELU(theta h_i + (1/deg_i) sum_{j in N(i)} g_ij * theta h_j),
    where g_ij in (0, 1) is the edge's gate, one per channel: row e of
    sigmoid(ELU(T C) phi) for the ``edge_filter`` (T, C, phi), the
    constant (M, order) Laguerre basis T (``hll_conv``), the (order, d)
    filter coefficients C and the (d, d) gate map phi.  The (M, 3)
    ``edge_index`` tags each edge with its patch.  Without a filter (None,
    or no edges) the gate is zero, which severs the edge branch.  The
    neighbour sum is divided by the node's degree: on a complete patch
    graph an unnormalised sum outweighs the node's own term n - 1 times
    over and pulls every node towards the patch mean, which washed out the
    per-pedestrian signal the forecast needs.

    Gates and gated mean are one recorded op (``gated_neighbour_mean``),
    on the patches' (n, n) grids or on segment sums over the edge list by
    the edges' density, which keeps only the gates for its backward.
    """
    t = h_node @ theta
    if edge_filter is None or not len(edge_index):
        return elu(t)
    return elu(t + gated_neighbour_mean(*edge_filter, t, edge_index))
