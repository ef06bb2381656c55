import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stedge.autodiff import ShapeMismatchError, Tensor, elu, softmax
from stedge.stgraph import (
    DisconnectedGraphError,
    PatchTooLongError,
    build_node_adjacency,
    edge_list,
    effective_resistance,
    effective_resistances,
    gat_layer,
    laplacian_spectrum,
    patch_count,
    patch_graphs,
    patch_starts,
    resistance_matrix,
    segment_patches,
)
from test_autodiff import _on_route
from test_edgegraph import _all_graphs, _proximity_adjacencies


# -- patching ---------------------------------------------------------------


def test_patch_count_paper_default():
    assert patch_count(8, 3, 1) == 6


def test_patch_count_whole_sequence():
    assert patch_count(8, 8, 1) == 1


def test_patch_count_stride_two():
    assert patch_count(8, 3, 2) == 3
    assert patch_starts(8, 3, 2) == [0, 2, 4]


def test_patch_too_long():
    with pytest.raises(PatchTooLongError):
        patch_count(4, 5, 1)


@pytest.mark.parametrize("length, stride, message", [
    (0, 1, "patch length must be >= 1"), (3, 0, "patch stride must be >= 1")])
def test_patch_paths_check_length_and_stride(length, stride, message):
    obs = np.zeros((2, 8, 2))
    for build in (lambda: patch_count(8, length, stride),
                  lambda: patch_graphs(obs, length, stride),
                  lambda: segment_patches(Tensor(obs), length, stride)):
        with pytest.raises(ValueError, match=message):
            build()


@given(t_obs=st.integers(2, 12), length=st.integers(1, 12), stride=st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_patch_count_matches_enumeration(t_obs, length, stride):
    if length > t_obs:
        with pytest.raises(PatchTooLongError):
            patch_count(t_obs, length, stride)
        return
    brute = sum(1 for s in range(0, t_obs, stride) if s + length <= t_obs)
    assert patch_count(t_obs, length, stride) == brute
    assert len(patch_starts(t_obs, length, stride)) == brute


def test_segment_patches_layout():
    n, t, d = 2, 8, 3
    feats = Tensor(np.arange(n * t * d, dtype=float).reshape(n, t, d))
    blocks = segment_patches(feats, 3, 1)
    assert blocks.shape == (6, 6, d)
    z = blocks.data[2]
    # pedestrian-major: node index = ped * L + local_time
    np.testing.assert_array_equal(z[0], feats.data[0, 2])
    np.testing.assert_array_equal(z[3], feats.data[1, 2])
    np.testing.assert_array_equal(z[5], feats.data[1, 4])
    strided = segment_patches(feats, 3, 2).data     # patches at slots 0, 2 and 4
    for k, start in enumerate(patch_starts(t, 3, 2)):
        np.testing.assert_array_equal(
            strided[k], feats.data[:, start:start + 3].reshape(n * 3, d))


@pytest.mark.parametrize("max_distance", [None, 1.5])
@pytest.mark.parametrize("cfg", [(3, 1), (2, 3)])
def test_patch_graphs_match_per_patch_references(cfg, max_distance):
    """One graph per patch, at ``patch_starts``, in one ``PatchGraph``;
    each adjacency is ``build_node_adjacency`` on the pedestrian-major
    slice, the edges are the upper-triangle pairs in lexicographic order,
    tagged with their patch and in patch order, and each distance is its
    edge's endpoint-to-endpoint norm.  ``patch(k)`` is patch k alone."""
    length, stride = cfg
    obs = np.random.default_rng(5).uniform(0.0, 3.0, size=(4, 8, 2))
    graphs = patch_graphs(obs, length, stride, max_distance)
    starts = patch_starts(8, length, stride)
    assert list(graphs.starts) == starts and len(starts) == patch_count(8, length, stride)
    tagged, lengths = [], []
    for k, start in enumerate(starts):
        graph = graphs.patch(k)
        assert graph.starts == (start,)
        pos = obs[:, start:start + length].reshape(-1, 2)
        np.testing.assert_array_equal(pos[length + 1], obs[1, start + 1])
        adj = build_node_adjacency(4, length, pos, max_distance)
        np.testing.assert_array_equal(graphs.adjacency[k], adj)
        np.testing.assert_array_equal(graph.adjacency, adj[None])
        n = len(adj)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u, v]]
        np.testing.assert_array_equal(graph.edge_index,
                                      np.reshape([(0, u, v) for u, v in edges], (-1, 3)))
        tagged += [(k, u, v) for u, v in edges]
        want = [np.linalg.norm(pos[u] - pos[v]) for u, v in edges]
        np.testing.assert_allclose(graph.distances, want, rtol=1e-15, atol=0)
        lengths += want
        assert graphs.edge_counts[k] == len(edges)
    np.testing.assert_array_equal(graphs.edge_index, np.reshape(tagged, (-1, 3)))
    np.testing.assert_allclose(graphs.distances, lengths, rtol=1e-15, atol=0)


def test_complete_adjacency():
    adj = build_node_adjacency(2, 3)
    assert adj.shape == (6, 6)
    assert adj.sum() == 2 * 15  # C(6, 2) undirected edges
    np.testing.assert_array_equal(np.diag(adj), 0.0)
    np.testing.assert_array_equal(adj, adj.T)
    assert build_node_adjacency(1, 1).shape == (1, 1)
    assert build_node_adjacency(1, 1).sum() == 0
    assert build_node_adjacency(2, 1).sum() == 2  # single edge


def test_threshold_adjacency_keeps_degree():
    pos = np.array([[0.0, 0.0], [100.0, 0.0]])
    adj = build_node_adjacency(2, 1, positions=pos, max_distance=1.0)
    # the far pair would be isolated; nearest-neighbour tie keeps degree >= 1
    assert adj.sum() == 2


# -- graph attention ---------------------------------------------------------

_PAIR = np.array([[0.0, 1.0], [1.0, 0.0]])   # two linked nodes


def _gat_with_weights(z, adjacency, theta, theta_dst, att):
    """``gat_layer``'s output on the adjacency's edge list, as one patch,
    and its attention weights: the softmax of the scores a .
    LeakyReLU(dst_i + src_j) over each node's neighbours plus itself, -inf
    elsewhere, the rectifier the product with its slope.  Either route's
    output must be the ELU of the weighted messages to 1e-14: the op
    scores a . dst_i + a . src_j - 0.8 a . min(dst_i + src_j, 0), which
    rounds differently."""
    edges = edge_list(np.asarray(adjacency)[None])
    out = _on_route(False, gat_layer, Tensor(z[None]), edges, theta, theta_dst, att)
    segments = _on_route(True, gat_layer, Tensor(z[None]), edges, theta, theta_dst, att)
    np.testing.assert_allclose(segments.data, out.data, rtol=1e-14, atol=1e-14)
    out = out[0]
    z = Tensor(z)
    src, dst = z @ theta, z @ theta_dst
    pair = dst.data[:, None, :] + src.data
    pair *= np.where(pair >= 0.0, 1.0, 0.2)
    scores = (pair.reshape(-1, src.shape[1]) @ att.data).reshape(len(adjacency), -1)
    scores[adjacency + np.eye(len(adjacency)) == 0] = -np.inf
    alpha = softmax(Tensor(scores))
    np.testing.assert_allclose(out.data, elu(alpha @ src).data, rtol=1e-14, atol=1e-14)
    return out, alpha.data


def test_gat_two_identical_nodes_uniform_attention():
    rng = np.random.default_rng(0)
    z = np.tile(rng.normal(size=3), (2, 1))
    theta = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    theta_dst = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    att = Tensor(rng.normal(size=4), requires_grad=True)
    _, alpha = _gat_with_weights(z, _PAIR, theta, theta_dst, att)
    np.testing.assert_allclose(alpha, 0.5, atol=1e-12)


def test_gat_isolated_node_is_self_loop():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(1, 3))
    theta = Tensor(rng.normal(size=(3, 4)))
    theta_dst = Tensor(rng.normal(size=(3, 4)))
    att = Tensor(rng.normal(size=4))
    out, alpha = _gat_with_weights(z, np.zeros((1, 1)), theta, theta_dst, att)
    np.testing.assert_allclose(alpha, [[1.0]], atol=0)
    h = z @ theta.data
    expected = np.where(h >= 0, h, np.expm1(h))
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_gat_attention_vector_of_the_wrong_width_is_a_shape_mismatch():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(2, 3))
    theta = Tensor(rng.normal(size=(3, 4)))
    theta_dst = Tensor(rng.normal(size=(3, 4)))
    for width in (3, 5):
        with pytest.raises(ShapeMismatchError, match="pair_attention"):
            gat_layer(Tensor(z[None]), edge_list(_PAIR[None]), theta, theta_dst,
                      Tensor(rng.normal(size=width)))


def _gat_oracle(z, adjacency, theta, theta_dst, att, slope=0.2):
    """Brute-force scalar evaluation of the attention layer, term by term."""
    n, d_in = len(z), len(z[0])
    d = len(theta[0])

    def lin(mat, vec):
        return [sum(mat[r][c] * vec[r] for r in range(d_in)) for c in range(d)]

    src = [lin(theta, z[i]) for i in range(n)]
    dst = [lin(theta_dst, z[i]) for i in range(n)]
    alpha = [[0.0] * n for _ in range(n)]
    for i in range(n):
        nbrs = [j for j in range(n) if adjacency[i][j] or i == j]
        logits = {}
        for j in nbrs:
            pair = [dst[i][c] + src[j][c] for c in range(d)]
            gated = [v if v >= 0 else slope * v for v in pair]
            logits[j] = sum(att[c] * gated[c] for c in range(d))
        peak = max(logits.values())
        total = sum(math.exp(v - peak) for v in logits.values())
        for j in nbrs:
            alpha[i][j] = math.exp(logits[j] - peak) / total
    out = [[sum(alpha[i][j] * src[j][c] for j in range(n)) for c in range(d)]
           for i in range(n)]
    act = [[v if v >= 0 else math.expm1(v) for v in row] for row in out]
    return np.array(alpha), np.array(act)


def test_gat_matches_scalar_oracle_on_path():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(3, 3))
    adjacency = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    theta = rng.normal(size=(3, 4))
    theta_dst = rng.normal(size=(3, 4))
    att = rng.normal(size=4)
    out, alpha = _gat_with_weights(z, adjacency, Tensor(theta),
                                   Tensor(theta_dst), Tensor(att))
    want_alpha, want_out = _gat_oracle(z.tolist(), adjacency.tolist(),
                                       theta.tolist(), theta_dst.tolist(),
                                       att.tolist())
    np.testing.assert_allclose(alpha, want_alpha, atol=1e-12)
    np.testing.assert_allclose(out.data, want_out, atol=1e-12)


def test_gat_attention_depends_on_receiver():
    # the rectifier on the summed pair keeps attention input-dependent:
    # different receivers weight the same senders differently
    rng = np.random.default_rng(12)
    z = rng.normal(size=(4, 3))
    adj = build_node_adjacency(4, 1)
    _, alpha = _gat_with_weights(z, adj, Tensor(rng.normal(size=(3, 4))),
                                 Tensor(rng.normal(size=(3, 4))),
                                 Tensor(rng.normal(size=4)))
    assert np.abs(alpha[0] - alpha[1]).max() > 1e-3


def test_gat_rows_sum_to_one_random():
    rng = np.random.default_rng(3)
    for n in (2, 5, 12):
        z = rng.normal(size=(n, 6))
        adj = build_node_adjacency(n, 1)
        theta = Tensor(rng.normal(size=(6, 5)))
        theta_dst = Tensor(rng.normal(size=(6, 5)))
        att = Tensor(rng.normal(size=5))
        _, alpha = _gat_with_weights(z, adj, theta, theta_dst, att)
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)


def test_gat_permutation_equivariant():
    rng = np.random.default_rng(4)
    n = 5
    z = rng.normal(size=(n, 4))
    adj = (rng.random((n, n)) < 0.6).astype(float)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    theta = Tensor(rng.normal(size=(4, 4)))
    theta_dst = Tensor(rng.normal(size=(4, 4)))
    att = Tensor(rng.normal(size=4))
    perm = rng.permutation(n)
    base = gat_layer(Tensor(z[None]), edge_list(adj[None]), theta, theta_dst, att).data[0]
    permuted = gat_layer(Tensor(z[perm][None]), edge_list(adj[np.ix_(perm, perm)][None]),
                         theta, theta_dst, att).data[0]
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


# -- effective resistance -----------------------------------------------------


def _cycle(n):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return adj


def test_resistance_closed_forms():
    p2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert effective_resistance(p2, 0, 1) == pytest.approx(1.0, abs=1e-12)
    assert effective_resistance(_cycle(6), 0, 3) == pytest.approx(1.5, abs=1e-12)
    k6 = build_node_adjacency(6, 1)
    assert effective_resistance(k6, 0, 4) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_resistance_disconnected_is_error():
    adj = np.zeros((4, 4))
    adj[0, 1] = adj[1, 0] = 1.0
    adj[2, 3] = adj[3, 2] = 1.0
    assert effective_resistance(adj, 0, 1) == pytest.approx(1.0)
    with pytest.raises(DisconnectedGraphError):
        effective_resistance(adj, 0, 2)


def test_resistances_of_many_pairs_are_the_single_pair_values():
    adj = np.zeros((5, 5))
    adj[:3, :3] = _cycle(3)
    adj[3, 4] = adj[4, 3] = 1.0
    pairs = [(0, 1), (1, 2), (2, 2), (0, 3), (3, 4), (2, 0)]
    got = effective_resistances(adj, pairs)
    assert got[2] == 0.0 and got[3] is None       # same node; other component
    for (i, j), value in zip(pairs, got):
        if value is not None:
            assert value == effective_resistance(adj, i, j)
    with pytest.raises(IndexError):
        effective_resistances(adj, [(0, 5)])


def _random_connected(rng, n=6):
    while True:
        adj = np.triu((rng.random((n, n)) < 0.45).astype(float), 1)
        adj = adj + adj.T
        lap_rank = np.linalg.matrix_rank(np.diag(adj.sum(1)) - adj)
        if lap_rank == n - 1:
            return adj


def test_resistance_is_a_metric_exhaustive_six_nodes():
    """Symmetry, zero diagonal and the triangle inequality on every
    connected 6-node graph."""
    n = 6
    pairs = list(itertools.combinations(range(n), 2))
    checked = 0
    for bits in range(2 ** len(pairs)):
        adj = np.zeros((n, n))
        for b, (i, j) in enumerate(pairs):
            if bits >> b & 1:
                adj[i, j] = adj[j, i] = 1.0
        lap = np.diag(adj.sum(1)) - adj
        if np.linalg.matrix_rank(lap) != n - 1:
            continue  # not connected
        r = resistance_matrix(adj)
        assert np.allclose(r, r.T, atol=1e-9)
        assert np.allclose(np.diag(r), 0.0, atol=1e-9)
        assert np.all(r[:, :, None] + r[None, :, :] >= r[:, None, :] - 1e-9)
        checked += 1
    assert checked > 20000  # most 6-node graphs are connected


def test_rayleigh_monotonicity_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        adj = _random_connected(rng)
        base = resistance_matrix(adj)
        absent = [(i, j) for i in range(6) for j in range(i + 1, 6)
                  if adj[i, j] == 0]
        for i, j in absent:
            denser = adj.copy()
            denser[i, j] = denser[j, i] = 1.0
            assert np.all(resistance_matrix(denser) <= base + 1e-9)


def test_unified_patch_lowers_resistance_vs_chain():
    # the testable core of the dense-patch claim: the complete patch graph
    # never has higher resistance than a sparse per-frame + temporal-chain one
    n_peds, length = 2, 3
    n = n_peds * length
    sparse = np.zeros((n, n))
    for p in range(n_peds):
        for t in range(length - 1):  # temporal chain per pedestrian
            a, b = p * length + t, p * length + t + 1
            sparse[a, b] = sparse[b, a] = 1.0
    for t in range(length):         # spatial link per frame
        a, b = t, length + t
        sparse[a, b] = sparse[b, a] = 1.0
    dense = build_node_adjacency(n_peds, length)
    r_sparse = resistance_matrix(sparse)
    r_dense = resistance_matrix(dense)
    assert np.all(r_dense <= r_sparse + 1e-9)
    assert r_dense.max() < r_sparse.max()


# -- the one spectral route ---------------------------------------------------


def _relative_rule_pinv(adj):
    """The pseudoinverse by the rule the spectral route replaced:
    eigenvalues below 1e-9 * lambda_max invert to zero."""
    lap = np.diag(adj.sum(axis=1)) - adj
    w, v = np.linalg.eigh(lap)
    lam_max = float(w.max(initial=0.0))
    if lam_max <= 0.0:
        return np.zeros_like(lap)
    small = np.abs(w) < 1e-9 * lam_max
    return (v * np.where(small, 0.0, 1.0 / np.where(small, 1.0, w))) @ v.T


def _bfs_labels(adj):
    """Each node's connected component, named by its lowest node."""
    labels = np.full(len(adj), -1)
    for root in range(len(adj)):
        if labels[root] >= 0:
            continue
        labels[root] = root
        frontier = [root]
        while frontier:
            reached = np.flatnonzero((adj[frontier.pop()] != 0.0) & (labels < 0))
            labels[reached] = root
            frontier.extend(reached.tolist())
    return labels


def _sparse_proximity_adjacencies(sizes=(5, 20, 50), seeds=range(5)):
    """Seeded max_distance patch graphs spread over a 20 m square and linked
    within 1 m, so that each has several components."""
    for n_peds in sizes:
        for seed in seeds:
            pos = np.random.default_rng(seed).uniform(0.0, 20.0, size=(3 * n_peds, 2))
            yield build_node_adjacency(n_peds, 3, pos, 1.0)


def test_spectral_route_matches_relative_rule_pinv_and_bfs():
    """Resistances agree with the relative-rule pseudoinverse to 1e-12, and
    the infinite (None) verdicts with a breadth-first labelling, on every
    graph with <= 5 nodes, proximity patches and complete patches up to
    50 pedestrians."""
    graphs = [adj for n in range(1, 6) for adj in _all_graphs(n)]
    graphs += list(_proximity_adjacencies()) + list(_sparse_proximity_adjacencies())
    assert all(_bfs_labels(adj).max() > 0 for adj in _sparse_proximity_adjacencies())
    graphs += [build_node_adjacency(n_peds, 3) for n_peds in (1, 2, 3, 5, 10, 20, 35, 50)]
    for adj in graphs:
        n = len(adj)
        labels = _bfs_labels(adj)
        apart = labels[:, None] != labels[None, :]
        pinv = _relative_rule_pinv(adj)
        d = np.diag(pinv)
        want = d[:, None] + d[None, :] - pinv - pinv.T
        got = resistance_matrix(adj)
        np.testing.assert_array_equal(np.isinf(got), apart)
        near = ~apart
        assert np.all(np.abs(got - want)[near] <= 1e-12 * np.maximum(1.0, want[near]))
        pairs = list(itertools.combinations(range(n), 2))
        values = effective_resistances(adj, pairs)
        assert [v is None for v in values] == [bool(apart[i, j]) for i, j in pairs]


def test_zero_rule_keeps_the_path_spectrum():
    """P_n's smallest nonzero eigenvalue, 2 - 2 cos(pi / n) ~ pi^2 / n^2,
    stays nonzero up to n = 400, and its one null eigenvalue is exact."""
    for n in range(1, 401):
        path = np.eye(n, k=1) + np.eye(n, k=-1)
        values = laplacian_spectrum(path)
        assert values[0] == 0.0
        assert np.count_nonzero(values) == n - 1


def test_zero_rule_counts_the_components():
    rng = np.random.default_rng(3)
    for k in range(1, 7):
        blocks = [build_node_adjacency(int(rng.integers(1, 6)), int(rng.integers(1, 4)))
                  for _ in range(k)]
        adj = np.zeros((sum(map(len, blocks)),) * 2)
        at = 0
        for block in blocks:
            adj[at:at + len(block), at:at + len(block)] = block
            at += len(block)
        perm = rng.permutation(len(adj))
        adj = adj[np.ix_(perm, perm)]
        for values in (laplacian_spectrum(adj), laplacian_spectrum(adj, vectors=True)[0]):
            assert np.count_nonzero(values == 0.0) == k
            assert values.min() >= 0.0
    assert np.all(laplacian_spectrum(np.zeros((4, 4))) == 0.0)


def test_resistance_is_infinite_across_components():
    two_edges = np.zeros((4, 4))
    two_edges[0, 1] = two_edges[1, 0] = two_edges[2, 3] = two_edges[3, 2] = 1.0
    r = resistance_matrix(two_edges)
    assert r[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert r[2, 3] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.isinf(r[:2, 2:])) and np.all(np.isinf(r[2:, :2]))
    edgeless = resistance_matrix(np.zeros((3, 3)))
    assert np.all(np.diag(edgeless) == 0.0)
    assert np.all(np.isinf(edgeless[~np.eye(3, dtype=bool)]))
    assert effective_resistances(np.zeros((3, 3)), [(0, 1), (2, 2)]) == [None, 0.0]


def test_self_pairs_decompose_nothing(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", None)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    assert effective_resistances(_cycle(4), [(1, 1), (3, 3)]) == [0.0, 0.0]
    assert effective_resistances(_cycle(4), []) == []

