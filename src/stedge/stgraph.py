"""Unified spatial-temporal patch graphs.

The observed horizon is cut into K overlapping length-L patches; each
patch becomes one graph whose nodes are (pedestrian, time-slot) pairs in
pedestrian-major order, so cross-time interaction is a single hop.
``patch_graphs`` builds a window's constant structure once, as one
``PatchGraph`` holding all K patches (stacked adjacency, one patch-tagged
edge list and the edge lengths), and ``segment_patches`` slices the node
features to match, as one (K, n, D) array.  The graph stage runs on all
K patches at once.  Node embeddings come from a single attention layer;
effective resistance, read off the one eigendecomposition of the patch
Laplacian (``laplacian_spectrum``), quantifies how much the dense patch
wiring eases message passing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stedge.autodiff import Tensor, elu, pair_attention, unfold


class PatchTooLongError(ValueError):
    """Patch length exceeds the observed horizon."""


class DisconnectedGraphError(ValueError):
    """The queried nodes lie in different connected components."""


@dataclass(frozen=True)
class PatchGraph:
    """The constant structure of a window's K patch graphs, built once per
    window by ``patch_graphs``; ``patch(k)`` is patch k alone, a
    ``PatchGraph`` with K = 1.

    Node index = ped * length + local_time within each patch.  Self-loops
    are not stored, the attention layer adds them.  The edges are the
    adjacency's (k, u, v), u < v, sorted by patch, then lexicographically
    (``edge_list``); an edge signal is an (M,) vector in that order,
    oriented low -> high index.
    """

    starts: tuple[int, ...]   # first observed time slot each patch covers
    adjacency: np.ndarray     # (K, n, n), 0/1, zero diagonals
    edge_index: np.ndarray    # (M, 3)
    distances: np.ndarray     # (M,), Euclidean length of each edge

    @property
    def edge_counts(self) -> np.ndarray:
        """Each patch's number of edges, (K,)."""
        return np.bincount(self.edge_index[:, 0], minlength=len(self.starts))

    def patch(self, k: int) -> PatchGraph:
        """Patch k (0-based) as a graph of its own, its edges tagged 0."""
        lo, hi = np.searchsorted(self.edge_index[:, 0], [k, k + 1])
        edges = self.edge_index[lo:hi].copy()
        edges[:, 0] = 0
        return PatchGraph(starts=(self.starts[k],), adjacency=self.adjacency[k:k + 1],
                          edge_index=edges, distances=self.distances[lo:hi])


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
    """The undirected edges (u, v), u < v, in lexicographic order, (m, 2);
    of a (K, n, n) stack, (k, u, v) sorted by patch k first, (M, 3)."""
    return np.argwhere(np.triu(np.asarray(adjacency), 1))


def patch_graphs(obs, length: int, stride: int,
                 max_distance: float | None = None) -> PatchGraph:
    """The K patch graphs of (N, T_obs, 2) observed positions, as one
    ``PatchGraph``.

    Patch k (1-based) covers time slots [(k-1)*stride, (k-1)*stride + length);
    its nodes sit at the pedestrian-major flattening of that slice, wired
    by ``build_node_adjacency``.  Each edge's length is the raw geometric
    edge signal.  Plain numpy: no op is recorded.
    """
    obs = np.asarray(obs, dtype=np.float64)
    starts = patch_starts(obs.shape[1], length, stride)
    pos = np.stack([obs[:, s:s + length, :].reshape(-1, 2) for s in starts])
    adjacency = np.stack([build_node_adjacency(obs.shape[0], length, p, max_distance)
                          for p in pos])
    edges = edge_list(adjacency)
    k, u, v = edges.T
    return PatchGraph(starts=tuple(starts), adjacency=adjacency, edge_index=edges,
                      distances=np.linalg.norm(pos[k, u] - pos[k, v], axis=-1))


def segment_patches(features: Tensor, length: int, stride: int) -> Tensor:
    """Slice (N, T_obs, D) features into the K patches' node features,
    (K, N * length, D) in ``patch_graphs``' patch and node order: one
    recorded op (``unfold``)."""
    patch_count(features.shape[1], length, stride)    # checks L and S
    return unfold(features, length, stride)


def gat_layer(z: Tensor, edge_index, theta: Tensor, theta_dst: Tensor,
              att: Tensor) -> Tensor:
    """Single-head graph attention over the K patches' (K, n, D) node
    features ``z`` and their (M, 3) patch-tagged edge list.

    The pair transform acts on the concatenated node pair as two blocks,
    logit(i, j) = a . LeakyReLU(theta_dst z_i + theta z_j), with the
    rectifier inside on the summed pair.  Acting on the sum is what keeps
    attention input-dependent: with a per-node rectifier the receiver term
    would be row-constant and the softmax would cancel it.  The softmax runs
    over each node's neighbours in its patch plus itself, and the weighted
    sum of the messages theta z_j is one recorded op for all K patches
    (``pair_attention``, which records neither the pair sums nor the
    scores); the aggregate passes through an ELU.
    """
    src = z @ theta        # messages and attention source half
    dst = z @ theta_dst    # attention receiver half
    return elu(pair_attention(dst, src, att, edge_index))


# -- effective resistance -----------------------------------------------------


def _check_adjacency(adjacency) -> np.ndarray:
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    if not np.allclose(a, np.swapaxes(a, -1, -2), atol=1e-12):
        raise ValueError("adjacency must be symmetric")
    return a


def graph_laplacian(adjacency) -> np.ndarray:
    """D - A of an (n, n) adjacency, or of each of a (K, n, n) stack."""
    a = _check_adjacency(adjacency)
    lap = 0.0 - a
    nodes = np.arange(a.shape[-1])
    lap[..., nodes, nodes] += a.sum(axis=-1)
    return lap


def laplacian_spectrum(adjacency, vectors: bool = False):
    """The eigenvalues of D - A, ascending, and with ``vectors`` the
    orthonormal eigenvectors as columns, (values, vectors); of a (K, n, n)
    stack, each patch's, (K, n) and (K, n, n).

    The one zero rule: an eigenvalue below 1 / n^2 is set to 0.0.  Each
    component's smallest nonzero eigenvalue is at least 4 / n^2 (Mohar,
    Graphs and Combinatorics 1991), far above the solver's error of about
    n^2 eps, so there is one zero per component.  Values alone come from
    ``eigvalsh``, whose top eigenvalue is not bit for bit ``eigh``'s.
    """
    lap = graph_laplacian(adjacency)
    values, vecs = np.linalg.eigh(lap) if vectors else (np.linalg.eigvalsh(lap), None)
    values[values < 1.0 / lap.shape[-1] ** 2] = 0.0
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
