"""Unified spatial-temporal patch graphs.

Observed features are segmented into K overlapping length-L patches; each
patch becomes one graph whose nodes are (pedestrian, time-slot) pairs in
pedestrian-major order, so cross-time interaction is a single hop.  Node
embeddings come from a single attention layer; effective resistance via the
Laplacian pseudoinverse quantifies how much the dense patch wiring eases
message passing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stedge.autodiff import Tensor, elu, pair_attention_logits, softmax

_NEG_INF = 1e30  # added with weight -1 to logits of non-neighbours
_PINV_REL_TOL = 1e-9


class PatchTooLongError(ValueError):
    """Patch length exceeds the observed horizon."""


class DisconnectedGraphError(ValueError):
    """The queried nodes lie in different connected components."""


@dataclass(frozen=True)
class PatchingConfig:
    length: int = 3
    stride: int = 1

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("patch length must be >= 1")
        if self.stride < 1:
            raise ValueError("patch stride must be >= 1")


@dataclass
class UnifiedPatch:
    """One patch graph: node features and positions plus 0/1 adjacency
    (zero diagonal).

    Node index = ped * length + local_time; self-loops are not stored, the
    attention layer adds them.
    """

    start: int          # first observed time slot covered
    n_peds: int
    length: int
    features: Tensor    # (n_peds * length, D)
    positions: np.ndarray   # (n_peds * length, 2), observed node positions
    adjacency: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.n_peds * self.length


def patch_count(t_obs: int, cfg: PatchingConfig) -> int:
    """K = floor((T_obs - L) / S) + 1."""
    if cfg.length > t_obs:
        raise PatchTooLongError(f"patch length {cfg.length} > horizon {t_obs}")
    return (t_obs - cfg.length) // cfg.stride + 1


def patch_starts(t_obs: int, cfg: PatchingConfig) -> list[int]:
    return [k * cfg.stride for k in range(patch_count(t_obs, cfg))]


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
    positions = np.asarray(positions, dtype=np.float64)
    dist = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=-1)
    ped_of = np.arange(n) // length
    same_ped = ped_of[:, None] == ped_of[None, :]
    adj *= (same_ped | (dist <= max_distance)).astype(float)
    for i in np.flatnonzero(adj.sum(axis=1) == 0):
        d = dist[i].copy()
        d[i] = np.inf
        j = int(np.argmin(d))
        adj[i, j] = adj[j, i] = 1.0
    return adj


def patch_adjacencies(positions, cfg: PatchingConfig,
                      max_distance: float | None = None) -> list[np.ndarray]:
    """The adjacency of each of the K patch graphs of (N, T_obs, 2)
    positions, in patch order (``build_node_adjacency``)."""
    positions = np.asarray(positions, dtype=np.float64)
    n_peds = positions.shape[0]
    return [build_node_adjacency(
                n_peds, cfg.length,
                positions[:, start:start + cfg.length, :].reshape(-1, 2), max_distance)
            for start in patch_starts(positions.shape[1], cfg)]


def segment_patches(features: Tensor, cfg: PatchingConfig, positions,
                    adjacencies: list[np.ndarray]) -> list[UnifiedPatch]:
    """Slice (N, T_obs, D) features and (N, T_obs, 2) positions into K
    patch graphs with the given adjacencies, as ``patch_adjacencies``
    builds them from the same positions.

    Patch k (1-based) covers time slots [(k-1)*stride, (k-1)*stride + length);
    its feature and position matrices are the pedestrian-major flattenings
    of that slice.
    """
    n_peds, t_obs = features.shape[0], features.shape[1]
    positions = np.asarray(positions, dtype=np.float64)
    patches = []
    for start, adj in zip(patch_starts(t_obs, cfg), adjacencies, strict=True):
        block = features[:, start:start + cfg.length, :]
        z = block.reshape((n_peds * cfg.length, features.shape[2]))
        pos = positions[:, start:start + cfg.length, :].reshape(-1, 2)
        patches.append(UnifiedPatch(start=start, n_peds=n_peds, length=cfg.length,
                                    features=z, positions=pos, adjacency=adj))
    return patches


def gat_layer(patch: UnifiedPatch, theta: Tensor, theta_dst: Tensor,
              att: Tensor, return_attention: bool = False):
    """Single-head graph attention over a patch.

    The pair transform acts on the concatenated node pair as two blocks,
    logit(i, j) = a . LeakyReLU(theta_dst z_i + theta z_j), with the
    rectifier inside on the summed pair.  Acting on the sum is what keeps
    attention input-dependent: with a per-node rectifier the receiver term
    would be row-constant and the softmax would cancel it.  The softmax runs
    over each node's neighbours plus itself; messages are theta z_j and the
    aggregate passes through an exponential-linear unit.  The (n, n, d)
    pair sum is never recorded (``pair_attention_logits``).
    """
    n = patch.n_nodes
    src = patch.features @ theta        # messages and attention source half
    dst = patch.features @ theta_dst    # attention receiver half
    d = src.shape[1]
    if att.size != d:
        raise ValueError(f"attention vector has {att.size} entries, expected {d}")
    logits = pair_attention_logits(dst, src, att)
    mask = patch.adjacency + np.eye(n)
    logits = logits + Tensor((mask - 1.0) * _NEG_INF)
    alpha = softmax(logits)
    out = elu(alpha @ src)
    return (out, alpha) if return_attention else out


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


def laplacian_pinv(adjacency) -> np.ndarray:
    """Moore-Penrose pseudoinverse of the graph Laplacian.

    Eigenvalues below _PINV_REL_TOL * lambda_max are the (near-)null space
    of a connected graph and invert to zero.
    """
    lap = graph_laplacian(adjacency)
    w, v = np.linalg.eigh(lap)
    lam_max = float(w.max(initial=0.0))
    if lam_max <= 0.0:
        return np.zeros_like(lap)
    inv = np.where(np.abs(w) < _PINV_REL_TOL * lam_max, 0.0,
                   1.0 / np.where(np.abs(w) < _PINV_REL_TOL * lam_max, 1.0, w))
    return (v * inv) @ v.T


def _component_labels(a: np.ndarray) -> np.ndarray:
    """Each node's connected component, named by its lowest node."""
    labels = np.full(len(a), -1)
    for root in range(len(a)):
        if labels[root] >= 0:
            continue
        labels[root] = root
        frontier = [root]
        while frontier:
            reached = np.flatnonzero((a[frontier.pop()] != 0.0) & (labels < 0))
            labels[reached] = root
            frontier.extend(reached.tolist())
    return labels


def effective_resistances(adjacency, pairs) -> list:
    """R_ij = (e_i - e_j)^T L^+ (e_i - e_j) for each (i, j) node pair, all
    read off one pseudoinverse and one labelling of the components; None
    for a pair in different components (infinite resistance)."""
    a = _check_adjacency(adjacency)
    n = len(a)
    labels = _component_labels(a) if pairs else None
    pinv = None
    out = []
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"node pair ({i}, {j}) outside graph of {n} nodes")
        if i == j:
            out.append(0.0)
        elif labels[i] != labels[j]:
            out.append(None)
        else:
            if pinv is None:
                pinv = laplacian_pinv(a)
            e = np.zeros(n)
            e[i], e[j] = 1.0, -1.0
            out.append(float(e @ pinv @ e))
    return out


def effective_resistance(adjacency, i: int, j: int) -> float:
    """R_ij on a connected node pair (``effective_resistances``)."""
    (value,) = effective_resistances(adjacency, [(i, j)])
    if value is None:
        raise DisconnectedGraphError(
            f"nodes {i} and {j} are in different components (infinite resistance)")
    return value


def resistance_matrix(adjacency) -> np.ndarray:
    """All-pairs effective resistance of a connected graph."""
    lp = laplacian_pinv(adjacency)
    d = np.diag(lp)
    return d[:, None] + d[None, :] - 2.0 * lp
