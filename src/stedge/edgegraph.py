"""Edge graphs via the first-order boundary operator.

The signed incidence matrix B1 (one -1 at the low-index endpoint, one +1 at
the high-index endpoint per column) defines the first Hodge Laplacian
L1 = B1^T B1 (the two-simplex term is zero here).  Edge features are
filtered by a truncated Laguerre expansion of L1, applied as B1^T (B1 X) so
that no (m, m) array exists, then fused back into node embeddings as
multiplicative gates.  ``line_graph`` and ``hodge_laplacian`` build the
dense edge graph and L1 for reports and reference checks only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stedge.autodiff import Tensor, elu, logistic
from stedge.data import Window
from stedge.stgraph import UnifiedPatch


@dataclass(frozen=True)
class BoundaryOperator:
    """Signed node-edge incidence matrix with lexicographic edge order."""

    matrix: np.ndarray                       # (n_nodes, n_edges)
    edge_index: tuple[tuple[int, int], ...]  # (u, v) with u < v

    @property
    def n_edges(self) -> int:
        return len(self.edge_index)


@dataclass(frozen=True)
class HodgeOperator:
    """L1 / lam applied through its incidence factor: ``op @ x`` is
    B1^T (B1 x) / lam, so neither pass builds an (m, m) array."""

    b1: np.ndarray           # (n_nodes, n_edges)
    b1t_scaled: np.ndarray   # B1^T / lam
    lam: float

    def __matmul__(self, x: Tensor) -> Tensor:
        return Tensor(self.b1t_scaled) @ (Tensor(self.b1) @ x)


@dataclass
class EdgeGraph:
    """Edges of one patch: their features and the Hodge operator."""

    edge_index: tuple[tuple[int, int], ...]
    features: Tensor             # (n_edges, D_e)
    hodge: HodgeOperator


@dataclass
class LaguerreFilter:
    """Truncated Laguerre expansion: one coefficient matrix per order."""

    thetas: list[Tensor]

    @property
    def order(self) -> int:
        return len(self.thetas)

    def __post_init__(self):
        if not self.thetas:
            raise ValueError("filter order must be >= 1")


def boundary_operator(adjacency) -> BoundaryOperator:
    """Columns are the graph's undirected edges, oriented low -> high index."""
    a = np.asarray(adjacency)
    u, v = np.nonzero(np.triu(a, 1))   # row-major: lexicographic (u, v)
    b1 = np.zeros((a.shape[0], len(u)))
    b1[u, np.arange(len(u))] = -1.0
    b1[v, np.arange(len(u))] = 1.0
    return BoundaryOperator(matrix=b1, edge_index=tuple(zip(u.tolist(), v.tolist())))


def line_graph(edge_index) -> np.ndarray:
    """Adjacency of the edge graph: 1 iff two distinct edges share an endpoint.

    The off-diagonal nonzeros of |B1|^T |B1|, whose (e, f) entry counts
    the endpoints edges e and f share.
    """
    idx = np.asarray(edge_index, dtype=np.int64).reshape(-1, 2)
    s_u, s_v = edge_selectors(idx, int(idx.max()) + 1 if len(idx) else 0)
    incidence = s_u + s_v                  # |B1|^T, (m, n)
    adj = (incidence @ incidence.T > 0.0).astype(np.float64)
    np.fill_diagonal(adj, 0.0)
    return adj


def hodge_laplacian(b1) -> np.ndarray:
    """L1 = B1^T B1; the B2 term is zero (no two-simplices are built)."""
    m = b1.matrix if isinstance(b1, BoundaryOperator) else np.asarray(b1)
    return m.T @ m


def hodge_operator(boundary: BoundaryOperator, rescale: bool = True,
                   floor: float = 1e-6) -> HodgeOperator:
    """L1 scaled by its largest eigenvalue lam (lam = 1 without rescale), so
    that the Laguerre polynomials see a spectrum in [0, 1].  B1 B1^T (n x n)
    shares L1's nonzero spectrum, so lam is exact: n on a complete graph,
    ``floor`` on an edgeless one."""
    m = boundary.matrix
    lam = 1.0
    if rescale:
        top = np.linalg.eigvalsh(m @ m.T)[-1] if m.shape[1] else 0.0
        lam = max(float(top), floor)
    return HodgeOperator(b1=m, b1t_scaled=m.T / lam, lam=lam)


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


def laguerre_basis(operator, x: Tensor, order: int) -> list[Tensor]:
    """Apply the scalar recurrence to the operator (a ``HodgeOperator`` or a
    dense square array): T_j = G_j(L1) X."""
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


def hll_conv(edge_graph: EdgeGraph, filt: LaguerreFilter) -> Tensor:
    """Spectral edge convolution: sum_j G_j(L1 / lam) E theta_j, then ELU."""
    basis = laguerre_basis(edge_graph.hodge, edge_graph.features, filt.order)
    out = basis[0] @ filt.thetas[0]
    for t_j, theta in zip(basis[1:], filt.thetas[1:]):
        out = out + t_j @ theta
    return elu(out)


def edge_distances(window: Window, patch: UnifiedPatch, edge_index) -> np.ndarray:
    """Euclidean distance between each edge's endpoint positions.

    Node (ped, local t) sits at the pedestrian's absolute observed position
    in the patch's time slot; distances are the raw geometric edge feature.
    """
    pos = window.obs[:, patch.start:patch.start + patch.length, :].reshape(-1, 2)
    if not edge_index:
        return np.zeros(0)
    idx = np.asarray(edge_index)
    return np.linalg.norm(pos[idx[:, 0]] - pos[idx[:, 1]], axis=-1)


def edge_selectors(edge_index, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """One-hot matrices picking each edge's low / high endpoint row."""
    idx = np.asarray(edge_index, dtype=np.int64).reshape(-1, 2)
    eye = np.eye(n_nodes)
    return eye[idx[:, 0]], eye[idx[:, 1]]


def node_degrees(edge_index, n_nodes: int) -> np.ndarray:
    """Number of edges incident to each node."""
    return np.bincount(np.asarray(edge_index, dtype=np.int64).ravel(),
                       minlength=n_nodes)


def fusion_gcn(h_node: Tensor, h_edge: Tensor | None, edge_index,
               theta: Tensor, phi: Tensor, gate_mode: str = "vector",
               selectors: tuple[np.ndarray, np.ndarray] | None = None,
               degree: np.ndarray | None = None) -> Tensor:
    """Node update gated per neighbour by its edge embedding.

    H_i = ELU(theta h_i + (1/deg_i) sum_{j in N(i)} gate(e_ij) * theta h_j),
    where the gate is a logistic squash of the edge embedding mapped through
    ``phi`` (per-channel in "vector" mode, a single scalar per edge in
    "scalar" mode, identically zero in "zero" mode, which severs the edge
    branch).  The neighbour sum is divided by the node's degree: on a
    complete patch graph an unnormalised sum outweighs the node's own term
    n - 1 times over and pulls every node towards the patch mean, which
    washed out the per-pedestrian signal the forecast needs.  ``selectors``
    and ``degree`` (per node) depend only on the graph, so callers that
    reuse one structure pass them in; both are derived from ``edge_index``
    when absent.
    """
    if gate_mode not in ("vector", "scalar", "zero"):
        raise ValueError(f"unknown gate mode {gate_mode!r}")
    t = h_node @ theta
    if h_edge is None or not len(edge_index) or gate_mode == "zero":
        return elu(t)
    gate = logistic(h_edge @ phi)   # (|E|, d) or (|E|, 1), broadcast over channels
    s_u, s_v = selectors if selectors is not None else edge_selectors(
        edge_index, h_node.shape[0])
    from_v = Tensor(s_u.T) @ (gate * (Tensor(s_v) @ t))
    from_u = Tensor(s_v.T) @ (gate * (Tensor(s_u) @ t))
    if degree is None:
        degree = node_degrees(edge_index, t.shape[0])
    inv_degree = 1.0 / np.maximum(degree, 1)[:, None]
    return elu(t + (from_v + from_u) * inv_degree)
