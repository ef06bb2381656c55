"""Unified spatial-temporal patch graphs.

The observed horizon is cut into K overlapping length-L patches; each
patch becomes one graph whose nodes are (pedestrian, time-slot) pairs in
pedestrian-major order, so cross-time interaction is a single hop.
``patch_graphs`` builds each patch's constant structure once per window
(``PatchGraph``: adjacency, edge list and edge lengths), and
``segment_patches`` slices the node features to match.  Node embeddings
come from a single attention layer; effective resistance, read off the
one eigendecomposition of the patch Laplacian (``laplacian_spectrum``),
quantifies how much the dense patch wiring eases message passing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stedge.autodiff import Tensor, elu, pair_attention


class PatchTooLongError(ValueError):
    """Patch length exceeds the observed horizon."""


class DisconnectedGraphError(ValueError):
    """The queried nodes lie in different connected components."""


@dataclass(frozen=True)
class PatchGraph:
    """One patch's constant structure, built once per window by
    ``patch_graphs``.

    Node index = ped * length + local_time.  Self-loops are not stored, the
    attention layer adds them.  The edges are the adjacency's (u, v),
    u < v, in lexicographic order (``edge_list``); an edge signal is an
    (m,) vector in that order, oriented low -> high index.
    """

    start: int                # first observed time slot covered
    adjacency: np.ndarray     # (n, n), 0/1, zero diagonal
    edge_index: np.ndarray    # (m, 2)
    distances: np.ndarray     # (m,), Euclidean length of each edge


def patch_count(t_obs: int, length: int, stride: int) -> int:
    """K = floor((T_obs - L) / S) + 1.  Every patch path counts its patches
    here, so here L and S are checked."""
    if length < 1:
        raise ValueError("patch length must be >= 1")
    if stride < 1:
        raise ValueError("patch stride must be >= 1")
    if length > t_obs:
        raise PatchTooLongError(f"patch length {length} > horizon {t_obs}")
    return (t_obs - length) // stride + 1


def patch_starts(t_obs: int, length: int, stride: int) -> list[int]:
    return [k * stride for k in range(patch_count(t_obs, length, stride))]


def build_node_adjacency(n_peds: int, length: int, positions=None,
                         max_distance: float | None = None) -> np.ndarray:
    """Adjacency over the patch's n_peds*length nodes, zero diagonal.

    Default is the complete graph: every (ped, time) pair is one hop from
    every other.  With ``max_distance`` set, cross-pedestrian links are kept
    only within that Euclidean range (same-pedestrian links always stay, and
    any node left isolated is tied to its nearest neighbour so degree >= 1).
    """
    n = n_peds * length
    adj = np.ones((n, n)) - np.eye(n)
    if max_distance is None or n <= 1:
        return adj
    if positions is None:
        raise ValueError("max_distance thresholding needs node positions")
    dist = node_distances(positions)
    ped_of = np.arange(n) // length
    same_ped = ped_of[:, None] == ped_of[None, :]
    adj *= (same_ped | (dist <= max_distance)).astype(float)
    for i in np.flatnonzero(adj.sum(axis=1) == 0):
        d = dist[i].copy()
        d[i] = np.inf
        j = int(np.argmin(d))
        adj[i, j] = adj[j, i] = 1.0
    return adj


def node_distances(positions) -> np.ndarray:
    """Euclidean distance between every two of the (n, 2) node positions,
    (n, n)."""
    pos = np.asarray(positions, dtype=np.float64)
    return np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)


def edge_list(adjacency) -> np.ndarray:
    """The undirected edges (u, v), u < v, in lexicographic order, (m, 2)."""
    return np.argwhere(np.triu(np.asarray(adjacency), 1))


def patch_graphs(obs, length: int, stride: int,
                 max_distance: float | None = None) -> list[PatchGraph]:
    """The K patch graphs of (N, T_obs, 2) observed positions, in patch
    order.

    Patch k (1-based) covers time slots [(k-1)*stride, (k-1)*stride + length);
    its nodes sit at the pedestrian-major flattening of that slice, wired
    by ``build_node_adjacency``.  Each edge's length is the raw geometric
    edge signal.  Plain numpy: no op is recorded.
    """
    obs = np.asarray(obs, dtype=np.float64)
    graphs = []
    for start in patch_starts(obs.shape[1], length, stride):
        pos = obs[:, start:start + length, :].reshape(-1, 2)
        adj = build_node_adjacency(obs.shape[0], length, pos, max_distance)
        edges = edge_list(adj)
        graphs.append(PatchGraph(
            start=start, adjacency=adj, edge_index=edges,
            distances=np.linalg.norm(pos[edges[:, 0]] - pos[edges[:, 1]], axis=-1)))
    return graphs


def segment_patches(features: Tensor, length: int, stride: int) -> list[Tensor]:
    """Slice (N, T_obs, D) features into the K patches' (N * length, D)
    node features, in ``patch_graphs``' patch and node order."""
    n_peds, t_obs, dim = features.shape
    return [features[:, start:start + length, :].reshape((n_peds * length, dim))
            for start in patch_starts(t_obs, length, stride)]


def gat_layer(z: Tensor, edge_index, theta: Tensor, theta_dst: Tensor,
              att: Tensor) -> Tensor:
    """Single-head graph attention over a patch's (n, D) node features
    ``z`` and its (m, 2) edge list.

    The pair transform acts on the concatenated node pair as two blocks,
    logit(i, j) = a . LeakyReLU(theta_dst z_i + theta z_j), with the
    rectifier inside on the summed pair.  Acting on the sum is what keeps
    attention input-dependent: with a per-node rectifier the receiver term
    would be row-constant and the softmax would cancel it.  The softmax runs
    over each node's neighbours plus itself, and the weighted sum of the
    messages theta z_j is one recorded op (``pair_attention``, which records
    neither the (n, n, d) pair sum nor the (n, n) scores); the aggregate
    passes through an ELU.
    """
    src = z @ theta        # messages and attention source half
    dst = z @ theta_dst    # attention receiver half
    return elu(pair_attention(dst, src, att, edge_index))


# -- effective resistance -----------------------------------------------------


def _check_adjacency(adjacency) -> np.ndarray:
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("adjacency must be symmetric")
    return a


def graph_laplacian(adjacency) -> np.ndarray:
    a = _check_adjacency(adjacency)
    return np.diag(a.sum(axis=1)) - a


def laplacian_spectrum(adjacency, vectors: bool = False):
    """The eigenvalues of D - A, ascending, and with ``vectors`` the
    orthonormal eigenvectors as columns, (values, vectors).

    The one zero rule: an eigenvalue below 1 / n^2 is set to 0.0.  Each
    component's smallest nonzero eigenvalue is at least 4 / n^2 (Mohar,
    Graphs and Combinatorics 1991), far above the solver's error of about
    n^2 eps, so there is one zero per component.  Values alone come from
    ``eigvalsh``, whose top eigenvalue is not bit for bit ``eigh``'s.
    """
    lap = graph_laplacian(adjacency)
    values, vecs = np.linalg.eigh(lap) if vectors else (np.linalg.eigvalsh(lap), None)
    values[values < 1.0 / len(lap) ** 2] = 0.0
    return (values, vecs) if vectors else values


def resistance_matrix(adjacency) -> np.ndarray:
    """All-pairs effective resistance, R_ij = L+_ii + L+_jj - 2 L+_ij with
    the pseudoinverse L+ = V diag(1/lambda) V^T over the nonzero
    eigenvalues; infinite between components.

    e_i - e_j has no part in the null space when i and j share a
    component, and a squared part 1/|C_i| + 1/|C_j| >= 4/n when they do
    not, so a part above 1/n marks a pair in different components.
    """
    values, vecs = laplacian_spectrum(adjacency, vectors=True)
    kept = values > 0.0
    pinv = (vecs[:, kept] * (1.0 / values[kept])) @ vecs[:, kept].T
    null = vecs[:, ~kept] @ vecs[:, ~kept].T     # projector on the null space

    def pair_sums(m):
        d = np.diag(m)
        return d[:, None] + d[None, :] - 2.0 * m

    r = pair_sums(pinv)
    r[pair_sums(null) > 1.0 / len(r)] = np.inf
    return r


def effective_resistances(adjacency, pairs) -> list:
    """R_ij for each (i, j) node pair, all read off one
    ``resistance_matrix``; None for a pair in different components
    (infinite resistance).  Self-pairs alone decompose nothing."""
    n = len(_check_adjacency(adjacency))
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"node pair ({i}, {j}) outside graph of {n} nodes")
    distinct = any(i != j for i, j in pairs)
    r = resistance_matrix(adjacency) if distinct else np.zeros((n, n))
    return [None if np.isinf(r[i, j]) else float(r[i, j]) for i, j in pairs]


def effective_resistance(adjacency, i: int, j: int) -> float:
    """R_ij on a connected node pair (``effective_resistances``)."""
    (value,) = effective_resistances(adjacency, [(i, j)])
    if value is None:
        raise DisconnectedGraphError(
            f"nodes {i} and {j} are in different components (infinite resistance)")
    return value
