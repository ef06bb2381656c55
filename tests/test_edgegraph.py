import itertools
import math

import numpy as np
import pytest

from stedge.autodiff import NodePairs, Tensor, backward, concatenate, elu, gradcheck, tanh
from stedge.edgegraph import (
    HodgeOperator,
    boundary_operator,
    fusion_gcn,
    hll_conv,
    hodge_laplacian,
    hodge_spectrum,
    laguerre_basis,
    laguerre_scalars,
    line_graph,
    line_graph_degrees,
)
from stedge.stgraph import (
    PatchGraph,
    build_node_adjacency,
    dense_adjacency,
    edge_list,
    laplacian_spectrum,
    patch_graphs,
)
from test_autodiff import _patch0

def _recorded_sigmoid(t):
    """The gates' sigmoid as a chain of recorded ops, from tanh."""
    return tanh(t * 0.5) * 0.5 + 0.5


TRIANGLE = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
PATH3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(2 ** len(pairs)):
        adj = np.zeros((n, n))
        for b, (i, j) in enumerate(pairs):
            if bits >> b & 1:
                adj[i, j] = adj[j, i] = 1.0
        yield adj


def _proximity_adjacencies(sizes=(3, 5, 8), seeds=range(20)):
    """Seeded max_distance patch graphs: N pedestrians over 3 frames,
    scattered in a 2 m square and linked within 1.5 m."""
    for n_peds in sizes:
        for seed in seeds:
            pos = np.random.default_rng(seed).uniform(0.0, 2.0, size=(3 * n_peds, 2))
            yield build_node_adjacency(n_peds, 3, pos, 1.5)


def _graph(adj, dists=None):
    """The one-patch ``PatchGraph`` of an adjacency, with the given edge
    lengths (zeros by default)."""
    adj = np.asarray(adj, dtype=float)[None]
    edges = edge_list(adj)
    dists = np.zeros(len(edges)) if dists is None else np.asarray(dists, dtype=float)
    return PatchGraph(starts=(0,), nodes=adj.shape[-1], edge_index=edges, distances=dists)


def _hodge(graph):
    """The graph's ``HodgeOperator``, as ``hll_conv`` builds it."""
    return HodgeOperator(edge_index=graph.edge_index, nodes=graph.nodes)


def _normalised_laplacian(b1):
    """The dense (m, m) 1/2 B1^T D^-1 B1 of an (n, m) B1, with D each node's
    degree, at least 1."""
    degree = np.maximum(np.abs(b1).sum(axis=1), 1.0)
    return 0.5 * b1.T @ (b1 / degree[:, None])


# -- boundary operator and line graph ----------------------------------------


def test_boundary_triangle():
    np.testing.assert_array_equal(edge_list(TRIANGLE), [(0, 1), (0, 2), (1, 2)])
    want = np.array([[-1, -1, 0], [1, 0, -1], [0, 1, 1]], dtype=float)
    np.testing.assert_array_equal(boundary_operator(TRIANGLE), want)


def test_boundary_single_edge():
    b1 = boundary_operator(np.array([[0, 1], [1, 0]], dtype=float))
    np.testing.assert_array_equal(b1, [[-1.0], [1.0]])


def test_boundary_complete_patch():
    b1 = boundary_operator(build_node_adjacency(2, 3))
    assert b1.shape == (6, 15)  # C(6, 2) columns
    np.testing.assert_array_equal(np.abs(b1).sum(axis=0), 2.0)


def test_boundary_and_edge_list_match_loop_reference():
    """The array-indexed builders against per-pair loops, on every graph
    with <= 5 nodes."""
    for n in range(1, 6):
        for adj in _all_graphs(n):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u, v]]
            b1 = np.zeros((n, len(edges)))
            for e, (u, v) in enumerate(edges):
                b1[u, e], b1[v, e] = -1.0, 1.0
            np.testing.assert_array_equal(boundary_operator(adj), b1)
            got = edge_list(adj)
            assert got.shape == (len(edges), 2)
            np.testing.assert_array_equal(got, np.asarray(edges).reshape(-1, 2))


def test_line_graph_matches_loop_reference():
    """The incidence product against the pairwise loop it replaced, on
    every graph with <= 5 nodes."""
    for n in range(1, 6):
        for adj in _all_graphs(n):
            edge_index = edge_list(adj)
            m = len(edge_index)
            want = np.zeros((m, m))
            for e in range(m):
                for f in range(e + 1, m):
                    if set(edge_index[e]) & set(edge_index[f]):
                        want[e, f] = want[f, e] = 1.0
            got = line_graph(edge_index)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def test_line_graph_triangle_is_triangle():
    np.testing.assert_array_equal(line_graph(edge_list(TRIANGLE)), TRIANGLE)


def test_line_graph_path_and_star():
    np.testing.assert_array_equal(line_graph(edge_list(PATH3)), [[0, 1], [1, 0]])
    star = np.zeros((4, 4))
    star[0, 1:] = star[1:, 0] = 1.0
    np.testing.assert_array_equal(line_graph(edge_list(star)), TRIANGLE)


# -- Hodge Laplacian -----------------------------------------------------------


def test_hodge_single_edge():
    b1 = boundary_operator(np.array([[0, 1], [1, 0]], dtype=float))
    np.testing.assert_array_equal(hodge_laplacian(b1), [[2.0]])


def test_hodge_triangle_values_and_spectrum():
    l1 = hodge_laplacian(boundary_operator(TRIANGLE))
    want = np.array([[2, 1, -1], [1, 2, 1], [-1, 1, 2]], dtype=float)
    np.testing.assert_array_equal(l1, want)
    np.testing.assert_allclose(np.linalg.eigvalsh(l1), [0.0, 3.0, 3.0], atol=1e-12)


def test_hodge_path_values_and_spectrum():
    # signed columns make the shared node head of one edge, tail of the other
    l1 = hodge_laplacian(boundary_operator(PATH3))
    np.testing.assert_array_equal(l1, [[2.0, -1.0], [-1.0, 2.0]])
    np.testing.assert_allclose(np.linalg.eigvalsh(l1), [1.0, 3.0], atol=1e-12)


def test_hodge_properties_exhaustive_small_graphs():
    """diag = 2, PSD, |off-diagonal| support = line graph, and orientation
    flips act as a signature similarity, on every graph with <= 5 nodes."""
    rng = np.random.default_rng(0)
    for n in range(1, 6):
        for adj in _all_graphs(n):
            b1 = boundary_operator(adj)
            m = b1.shape[1]
            l1 = hodge_laplacian(b1)
            if m:
                np.testing.assert_array_equal(np.diag(l1), 2.0)
                assert np.linalg.eigvalsh(l1).min() >= -1e-10
            ladj = line_graph(edge_list(adj))
            off = np.abs(l1 - np.diag(np.diag(l1)))
            np.testing.assert_array_equal(off, ladj)
            if m:
                signs = np.where(rng.random(m) < 0.5, -1.0, 1.0)
                flipped = hodge_laplacian(b1 * signs)
                np.testing.assert_allclose(flipped,
                                           np.diag(signs) @ l1 @ np.diag(signs),
                                           atol=0)
                np.testing.assert_array_equal(np.diag(flipped), np.diag(l1))
                np.testing.assert_array_equal(np.abs(flipped), np.abs(l1))
                np.testing.assert_allclose(np.linalg.eigvalsh(flipped),
                                           np.linalg.eigvalsh(l1), atol=1e-10)


def test_hodge_operator_matches_dense_laplacian():
    """``op @ x`` on an edge vector is 1/2 B1^T D^-1 B1 x, with D the node
    degrees, to 1e-12 on every graph with <= 5 nodes, the proximity graphs
    and complete patches of 2, 5, 20 and 50 pedestrians; so is every
    Laguerre basis of orders 1-5, against the recurrence run on the dense
    B1 and D (on the (m, m) operator where m <= 200)."""
    rng = np.random.default_rng(13)
    graphs = [adj for n in range(1, 6) for adj in _all_graphs(n)]
    graphs += list(_proximity_adjacencies())
    graphs += [build_node_adjacency(n_peds, 3) for n_peds in (2, 5, 20, 50)]
    for adj in graphs:
        b1 = boundary_operator(adj)
        degree = np.maximum(adj.sum(axis=1), 1.0)
        x = rng.uniform(0.0, 3.0, size=b1.shape[1])
        hodge = _hodge(_graph(adj, x))
        matrix = _normalised_laplacian(b1) if b1.shape[1] <= 200 else None

        def dense(t):
            # too large to form on complete 20- and 50-walker patches
            return matrix @ t if matrix is not None else 0.5 * b1.T @ (b1 @ t / degree)

        def assert_close(got, want):
            assert got.shape == want.shape
            assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(
                1.0, np.abs(want).max(initial=0.0))

        assert_close(hodge @ x, dense(x))
        want = [x, x - dense(x)]
        for j in range(1, 4):
            want.append(want[j] * ((2 * j + 1) / (j + 1)) - dense(want[j]) * (1.0 / (j + 1))
                        - want[j - 1] * (j / (j + 1)))
        for order in range(1, 6):
            got = laguerre_basis(hodge, x, order)
            assert len(got) == order
            for g, w in zip(got, want):
                assert_close(g, w)


def test_hodge_operator_bounds_spectrum():
    """B1^T D^-1 B1 shares its nonzero spectrum with the normalised node
    Laplacian, which lies in [0, 2], so the operator's, read column by
    column, lies in [0, 1], with no eigensolve: every graph with <= 5
    nodes, the proximity graphs and complete patches of up to 5
    pedestrians.  A graph with a bipartite component reaches 1; the
    operator is symmetric."""
    graphs = [adj for n in range(1, 6) for adj in _all_graphs(n)]
    graphs += [*_proximity_adjacencies(), *(build_node_adjacency(p, 3) for p in (1, 2, 3, 5))]
    for adj in graphs:
        graph = _graph(adj)
        m = len(graph.edge_index)
        if not m:
            continue
        columns = np.stack([_hodge(graph) @ e for e in np.eye(m)], axis=1)
        np.testing.assert_allclose(columns, columns.T, rtol=0, atol=1e-15)
        values = np.linalg.eigvalsh(columns)
        assert values.min() >= -1e-12 and values.max() <= 1.0 + 1e-12
    single_edge = _hodge(_graph(PATH3[:2, :2])) @ np.ones(1)
    np.testing.assert_array_equal(single_edge, [1.0])


def test_hodge_operator_shapes():
    graph = _graph(build_node_adjacency(2, 3))
    hodge = _hodge(graph)
    assert hodge.edge_index is graph.edge_index
    assert hodge.edge_index.shape == (15, 3) and hodge.nodes == 6
    assert (hodge @ np.ones(15)).shape == (15,)
    assert (_hodge(_graph(np.zeros((3, 3)))) @ np.zeros(0)).shape == (0,)   # edgeless


def test_stacked_patches_match_each_patch_alone():
    """A window's K patches in one ``PatchGraph``: the stacked spectrum of
    its dense adjacency and every Laguerre basis are each patch's alone,
    bit for bit, and the fusion's gated update to 1e-12."""
    rng = np.random.default_rng(16)
    obs = rng.uniform(0.0, 4.0, size=(6, 8, 2))
    obs[:, 2:5] += 40.0 * np.arange(6)[:, None, None]   # slots 2-4: nearest-neighbour ties only
    graph = patch_graphs(obs, 1, 1, max_distance=1.5)
    assert len(set(graph.edge_counts.tolist())) > 1
    adjacency = dense_adjacency(graph)
    stacked = laplacian_spectrum(adjacency)
    coeffs, phi, theta = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
    h_node = rng.normal(size=(len(graph.starts), graph.nodes, 4))
    basis = hll_conv(graph, 4)
    fused = fusion_gcn(Tensor(h_node), (basis, coeffs, phi),
                       NodePairs(graph.edge_index, *h_node.shape[:2]), theta).data
    bases = laguerre_basis(_hodge(graph), graph.distances, 4)
    lo = 0
    for k in range(len(graph.starts)):
        patch = graph.patch(k)
        hi = lo + len(patch.edge_index)
        np.testing.assert_array_equal(stacked[k], laplacian_spectrum(adjacency[k]))
        np.testing.assert_array_equal(dense_adjacency(patch), adjacency[k:k + 1])
        for got, want in zip(bases, laguerre_basis(_hodge(patch), patch.distances, 4)):
            np.testing.assert_array_equal(got[lo:hi], want)
        np.testing.assert_array_equal(basis[lo:hi], hll_conv(patch, 4))
        want = fusion_gcn(Tensor(h_node[k:k + 1]), (hll_conv(patch, 4), coeffs, phi),
                          NodePairs(patch.edge_index, 1, h_node.shape[1]), theta).data[0]
        assert np.abs(fused[k] - want).max() <= 1e-12 * np.abs(want).max()
        lo = hi
    assert lo == len(graph.edge_index)


def _pair_grid_basis(adj, x, order):
    """The Laguerre basis on the node-pair grid, the route before edge
    vectors, with the degree normalisation: the signal laid on the
    antisymmetric (n, n) grid (edge (u, v), u < v, at [u, v], negated at
    [v, u]), 1/2 B1^T D^-1 B1 applied as a column sum y divided by the
    degrees, then A * (y[v] - y[u]) / 2, and each order gathered back to
    the edges."""
    edges = edge_list(adj)
    rows, cols = edges.T
    grid = np.zeros(adj.shape)
    grid[rows, cols] = x
    grid[cols, rows] = -x
    degree = np.maximum(adj.sum(axis=0), 1.0)

    def apply(g):
        y = g.sum(axis=0) / degree
        return adj * (0.5 * (y[None, :] - y[:, None]))

    basis = [grid]
    if order > 1:
        basis.append(grid - apply(grid))
    for j in range(1, order - 1):
        basis.append(basis[j] * ((2 * j + 1) / (j + 1))
                     - apply(basis[j]) * (1.0 / (j + 1))
                     - basis[j - 1] * (j / (j + 1)))
    return [t[rows, cols] for t in basis]


def test_edge_vector_basis_matches_pair_grid_bit_for_bit():
    """The bincount operator sums each node's edges in the grid's column
    order and divides by the same degrees, so every Laguerre basis of
    orders 1-5 equals the pair-grid route's to the bit: every graph with
    <= 5 nodes, the proximity graphs, and complete patches of 2, 5, 20 and
    50 pedestrians."""
    rng = np.random.default_rng(15)
    graphs = [adj for n in range(1, 6) for adj in _all_graphs(n)]
    graphs += list(_proximity_adjacencies())
    graphs += [build_node_adjacency(n_peds, 3) for n_peds in (2, 5, 20, 50)]
    for adj in graphs:
        graph = _graph(adj, rng.uniform(0.0, 3.0, size=len(edge_list(adj))))
        hodge = _hodge(graph)
        for order in range(1, 6):
            got = laguerre_basis(hodge, graph.distances, order)
            want = _pair_grid_basis(adj, graph.distances, order)
            assert len(got) == len(want) == order
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


def test_node_route_matches_dense_line_graph_and_l1():
    """The line-graph degrees and L1's spectrum read off the node graph
    match the dense edge graph and eigvalsh(L1) on every graph with <= 5
    nodes, the proximity graphs and complete patches up to 20 pedestrians."""
    graphs = [adj for n in range(1, 6) for adj in _all_graphs(n)]
    graphs += list(_proximity_adjacencies())
    graphs += [build_node_adjacency(n_peds, 3) for n_peds in (1, 2, 3, 5, 10, 15, 20)]
    for adj in graphs:
        graph = _graph(adj)
        np.testing.assert_array_equal(line_graph_degrees(graph),
                                      line_graph(edge_list(adj)).sum(axis=1))
        spectrum = hodge_spectrum(graph)
        want = np.linalg.eigvalsh(hodge_laplacian(boundary_operator(adj)))
        assert spectrum.shape == want.shape
        assert np.abs(spectrum - want).max(initial=0.0) <= 1e-9


# -- Laguerre filtering ---------------------------------------------------------


def test_laguerre_scalars_examples():
    np.testing.assert_allclose(laguerre_scalars(0.0, 4), [1, 1, 1, 1], atol=0)
    np.testing.assert_allclose(laguerre_scalars(1.0, 3), [1.0, 0.0, -0.5], atol=1e-15)
    np.testing.assert_allclose(laguerre_scalars(2.0, 3), [1.0, -1.0, -1.0], atol=1e-15)


def test_laguerre_recurrence_matches_closed_forms():
    # independent closed forms: G2 = (x^2 - 4x + 2)/2, G3 = (-x^3 + 9x^2 - 18x + 6)/6
    for lam in np.linspace(0.0, 4.0, 41):
        got = laguerre_scalars(float(lam), 4)
        g2 = (lam ** 2 - 4 * lam + 2) / 2
        g3 = (-lam ** 3 + 9 * lam ** 2 - 18 * lam + 6) / 6
        np.testing.assert_allclose(got[2], g2, atol=1e-12)
        np.testing.assert_allclose(got[3], g3, atol=1e-12)


def test_laguerre_basis_zero_operator_is_identity():
    x = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
    basis = laguerre_basis(np.zeros((4, 4)), x, 3)
    for t in basis:
        np.testing.assert_allclose(t.data, x.data, atol=0)


def test_laguerre_operator_matches_spectral_evaluation():
    """Operator recurrence vs eigenbasis application of the scalar values."""
    rng = np.random.default_rng(2)
    for dim in (3, 8, 15):
        a = rng.normal(size=(dim, dim))
        psd = a @ a.T / dim
        x = rng.normal(size=(dim, 4))
        basis = laguerre_basis(psd, Tensor(x), 5)
        w, v = np.linalg.eigh(psd)
        for j, t in enumerate(basis):
            scalars = np.array([laguerre_scalars(float(lam), 5)[j] for lam in w])
            spectral = (v * scalars) @ v.T @ x
            np.testing.assert_allclose(t.data, spectral, atol=1e-8)


def test_hll_conv_order_one_is_linear_map():
    # the order-1 basis is the edge lengths, so the filter is E theta_0
    rng = np.random.default_rng(3)
    dists = rng.normal(size=3)
    basis = hll_conv(_graph(TRIANGLE, dists), 1)
    coeffs = rng.normal(size=(1, 4))
    np.testing.assert_array_equal(basis, dists[:, None])
    np.testing.assert_array_equal(basis @ coeffs, dists[:, None] @ coeffs)


def test_hll_conv_zero_laplacian_collapses_to_sum(monkeypatch):
    rng = np.random.default_rng(4)
    dists = rng.normal(size=3)
    graph = _graph(TRIANGLE, dists)
    # with the zero operator every Laguerre polynomial is G_j(0) = 1
    monkeypatch.setattr(HodgeOperator, "__matmul__", lambda self, x: np.zeros_like(x))
    w = rng.normal(size=(1, 4))
    out = hll_conv(graph, 3) @ np.repeat(w / 3.0, 3, axis=0)
    np.testing.assert_allclose(out, dists[:, None] @ w, atol=1e-12)


def test_hll_conv_matches_spectral_oracle():
    rng = np.random.default_rng(5)
    dists = rng.normal(size=3)
    graph = _graph(TRIANGLE, dists)
    coeffs = rng.normal(size=(3, 4))
    out = hll_conv(graph, 3) @ coeffs
    w, v = np.linalg.eigh(_normalised_laplacian(boundary_operator(TRIANGLE)))
    pre = np.zeros((3, 4))
    for j in range(3):
        scalars = np.array([laguerre_scalars(float(lam), 3)[j] for lam in w])
        pre += ((v * scalars) @ v.T @ dists)[:, None] @ coeffs[j:j + 1]
    np.testing.assert_allclose(out, pre, atol=1e-10)


def test_hll_conv_gradients():
    """The gradients of every theta_j and of the gate map, through the
    fusion's one op, which forms the gates from ``hll_conv``'s basis."""
    rng = np.random.default_rng(6)
    graph = _graph(TRIANGLE, rng.normal(size=3))
    thetas = [Tensor(rng.normal(size=(1, 3)), requires_grad=True) for _ in range(3)]
    phi = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    h_node, theta = Tensor(rng.normal(size=(1, 3, 2))), Tensor(rng.normal(size=(2, 2)))
    err = gradcheck(lambda: fusion_gcn(h_node, (hll_conv(graph, 3), concatenate(thetas), phi),
                                       NodePairs(graph.edge_index, 1, 3), theta).sum(),
                    [*thetas, phi], eps=1e-5)
    assert err < 1e-5


def _dense_hll_conv(l1_scaled, feats, thetas):
    """sum_j G_j(L) E theta_j, then ELU, with L = 1/2 B1^T D^-1 B1 stored
    densely."""
    basis = laguerre_basis(l1_scaled, feats, len(thetas))
    out = basis[0] @ thetas[0]
    for t_j, theta in zip(basis[1:], thetas[1:]):
        out = out + t_j @ theta
    return elu(out)


_PARITY_GRAPHS = {
    "complete-2": build_node_adjacency(2, 3),
    "complete-5": build_node_adjacency(5, 3),
    "complete-20": build_node_adjacency(20, 3),
    **{f"proximity-{k}": adj for k, adj in enumerate(
        _proximity_adjacencies(sizes=(5, 8), seeds=(0, 1)))},
}


@pytest.mark.parametrize("name", sorted(_PARITY_GRAPHS))
def test_hll_conv_matches_dense_laplacian(name):
    """Forward output and the coefficient gradient of the filter on
    ``hll_conv``'s edge-vector basis, through its ELU, match the filter on
    the stored 1/2 B1^T D^-1 B1."""
    adj = _PARITY_GRAPHS[name]
    b1 = boundary_operator(adj)
    rng = np.random.default_rng(11)
    dists = rng.uniform(0.1, 3.0, size=b1.shape[1])
    coeffs = Tensor(rng.normal(size=(3, 3)) * 0.5, requires_grad=True)
    seed = rng.normal(size=(b1.shape[1], 3))

    def output_and_grad(run):
        coeffs.zero_grad()
        out = run()
        backward(out, seed)
        return [out.data, coeffs.grad.copy()]

    graph = _graph(adj, dists)
    basis = Tensor(hll_conv(graph, 3))
    got = output_and_grad(lambda: elu(basis @ coeffs))
    want = output_and_grad(lambda: _dense_hll_conv(
        _normalised_laplacian(b1), Tensor(dists[:, None]), [coeffs[j:j + 1] for j in range(3)]))
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max())


def _embed_then_filter(dists, w_embed, thetas, l1_scaled):
    """The edge filter as it was: embed the distances to (m, d), then
    filter."""
    return _dense_hll_conv(l1_scaled, Tensor(dists[:, None]) @ w_embed, thetas)


@pytest.mark.parametrize("name", sorted(_PARITY_GRAPHS))
def test_filter_on_distances_matches_embed_then_filter(name):
    """Folding the edge embedding into each order's coefficients (the
    model's edge branch) gives the output and the gradients of the
    embedding and of every theta_j of embedding first."""
    adj = _PARITY_GRAPHS[name]
    b1 = boundary_operator(adj)
    rng = np.random.default_rng(12)
    dists = rng.uniform(0.1, 3.0, size=b1.shape[1])
    w_embed = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
    thetas = [Tensor(rng.normal(size=(6, 6)) * 0.5, requires_grad=True)
              for _ in range(3)]
    seed = rng.normal(size=(b1.shape[1], 6))

    def output_and_grads(run):
        for t in (w_embed, *thetas):
            t.zero_grad()
        out = run()
        backward(out, seed)
        return [out.data] + [t.grad.copy() for t in (w_embed, *thetas)]

    graph = _graph(adj, dists)
    basis = Tensor(hll_conv(graph, 3))
    got = output_and_grads(lambda: elu(basis @ concatenate([w_embed @ t for t in thetas])))
    want = output_and_grads(lambda: _embed_then_filter(
        dists, w_embed, thetas, _normalised_laplacian(b1)))
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def _incidence_edge_branch(adj, dists, w_embed, thetas, h_node, theta, phi):
    """``hll_conv`` and ``fusion_gcn`` as they ran before the node-pair grid,
    with the degree normalisation: 1/2 B1^T D^-1 B1 applied as
    (B1^T / 2) (D^-1 B1 x), one rank-1 product per order, and the neighbour
    messages moved by one-hot edge selectors.  Returns the fused node
    update."""
    b1, n = boundary_operator(adj), len(adj)
    b1_scaled = b1 / np.maximum(adj.sum(axis=1), 1.0)[:, None]

    def hodge(x):
        return Tensor(0.5 * b1.T) @ (Tensor(b1_scaled) @ x)

    basis = [Tensor(dists[:, None])]
    basis.append(basis[0] - hodge(basis[0]))
    for j in range(1, len(thetas) - 1):
        basis.append(basis[j] * ((2 * j + 1) / (j + 1))
                     - hodge(basis[j]) * (1.0 / (j + 1))
                     - basis[j - 1] * (j / (j + 1)))
    pre = basis[0] @ (w_embed @ thetas[0])
    for t_j, th in zip(basis[1:], thetas[1:]):
        pre = pre + t_j @ (w_embed @ th)
    gate = _recorded_sigmoid(elu(pre) @ phi)

    idx = edge_list(adj)
    s_u, s_v = np.eye(n)[idx[:, 0]], np.eye(n)[idx[:, 1]]
    t = h_node @ theta
    from_v = Tensor(s_u.T) @ (gate * (Tensor(s_v) @ t))
    from_u = Tensor(s_v.T) @ (gate * (Tensor(s_u) @ t))
    inv_degree = 1.0 / np.maximum(np.bincount(idx.ravel(), minlength=n), 1)[:, None]
    return elu(t + (from_v + from_u) * inv_degree)


_BRANCH_GRAPHS = {**_PARITY_GRAPHS, "complete-50": build_node_adjacency(50, 3)}


@pytest.mark.parametrize("name", sorted(_BRANCH_GRAPHS))
def test_edge_branch_matches_incidence_reference(name):
    """The edge-vector edge branch (filter and fusion, as the model calls
    them) against the B1 / selector path it replaced: the output and the
    gradients of h_node and of every parameter."""
    adj = _BRANCH_GRAPHS[name]
    n, d = len(adj), 4
    edges = edge_list(adj)
    rng = np.random.default_rng(14)
    dists = rng.uniform(0.1, 3.0, size=len(edges))
    leaves = {
        "h_node": rng.normal(size=(n, d)),
        "w_embed": rng.normal(size=(1, d)),
        **{f"theta{j}": rng.normal(size=(d, d)) * 0.5 for j in range(3)},
        "theta": rng.normal(size=(d, d)) * 0.5,
        "phi": rng.normal(size=(d, d)),
    }
    leaves = {k: Tensor(v, requires_grad=True) for k, v in leaves.items()}
    thetas = [leaves[f"theta{j}"] for j in range(3)]
    seed_node = rng.normal(size=(n, d))

    def outputs_and_grads(run):
        for t in leaves.values():
            t.zero_grad()
        fused = run()
        backward((fused * seed_node).sum())
        return [fused.data] + [t.grad.copy() for t in leaves.values()]

    graph = _graph(adj, dists)

    def edge_branch():
        coeffs = concatenate([leaves["w_embed"] @ t for t in thetas])
        return fusion_gcn(leaves["h_node"][None], (hll_conv(graph, 3), coeffs, leaves["phi"]),
                          NodePairs(graph.edge_index, 1, n), leaves["theta"])[0]

    got = outputs_and_grads(edge_branch)
    want = outputs_and_grads(lambda: _incidence_edge_branch(
        adj, dists, leaves["w_embed"], thetas, leaves["h_node"], leaves["theta"],
        leaves["phi"]))
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max())


# -- geometric edge features -----------------------------------------------------


def test_edge_distances_values():
    obs = np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                    [[0.0, 4.0], [3.0, 4.0], [3.0, 0.0]]])

    def lengths(obs, max_distance=None):
        graph = patch_graphs(obs, 3, 1, max_distance)     # one patch, k = 0
        return dict(zip(map(tuple, graph.edge_index[:, 1:].tolist()), graph.distances))

    d = lengths(obs)
    assert d[0, 1] == pytest.approx(1.0)    # same ped, adjacent frames
    assert d[0, 3] == pytest.approx(4.0)
    assert d[0, 4] == pytest.approx(5.0)    # 3-4-5 triangle
    assert d[2, 5] == pytest.approx(1.0)
    assert len(d) == 15 and min(d.values()) >= 0.0   # lengths, one per edge
    assert (0, 4) not in lengths(obs, max_distance=4.5)   # no edge, no value
    obs[1] = obs[0]
    assert lengths(obs)[0, 3] == pytest.approx(0.0)    # coincident endpoints


# -- fusion ------------------------------------------------------------------------


def test_fusion_zero_gate_is_pure_self_term():
    rng = np.random.default_rng(7)
    h_node = Tensor(rng.normal(size=(1, 3, 4)))
    theta = Tensor(rng.normal(size=(4, 4)))
    out = fusion_gcn(h_node, None, NodePairs(_patch0(edge_list(TRIANGLE)), 1, 3), theta)
    t = h_node.data @ theta.data
    np.testing.assert_allclose(out.data, np.where(t >= 0, t, np.expm1(t)), atol=1e-12)


def test_fusion_single_node_no_neighbours():
    rng = np.random.default_rng(8)
    h_node = Tensor(rng.normal(size=(1, 1, 4)))
    theta = Tensor(rng.normal(size=(4, 4)))
    out = fusion_gcn(h_node, None, NodePairs((), 1, 1), theta)
    t = h_node.data @ theta.data
    np.testing.assert_allclose(out.data, np.where(t >= 0, t, np.expm1(t)), atol=1e-12)


def test_fusion_two_nodes_matches_scalar_oracle():
    # 2-node graph, scalar features, hand-evaluated update with gate
    # sigma(ELU(1.8)) = sigma(1.8)
    h_node = Tensor(np.array([[[0.7], [-0.4]]]))
    gate = 1.0 / (1.0 + math.exp(-1.8))
    edge_filter = (np.array([[1.8]]), Tensor(np.array([[1.0]])), Tensor(np.array([[1.0]])))
    theta = Tensor(np.array([[1.3]]))
    out = fusion_gcn(h_node, edge_filter, NodePairs(((0, 0, 1),), 1, 2), theta).data[0]
    pre0 = 1.3 * 0.7 + gate * (1.3 * -0.4)
    pre1 = 1.3 * -0.4 + gate * (1.3 * 0.7)
    want = [[pre0 if pre0 >= 0 else math.expm1(pre0)],
            [pre1 if pre1 >= 0 else math.expm1(pre1)]]
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_fusion_gate_saturated_to_one_sums_neighbours():
    rng = np.random.default_rng(9)
    h_node = Tensor(rng.normal(size=(1, 3, 2)))
    # gates at 1, where the sigmoid saturates: sigmoid(ELU(100))
    edge_filter = (np.ones((3, 1)), Tensor(np.full((1, 2), 100.0)), Tensor(np.eye(2)))
    theta = Tensor(rng.normal(size=(2, 2)))
    out = fusion_gcn(h_node, edge_filter, NodePairs(_patch0(edge_list(TRIANGLE)), 1, 3), theta)
    t = h_node.data @ theta.data
    pre = t + (TRIANGLE @ t) / 2.0  # every triangle node has degree 2
    np.testing.assert_allclose(out.data, np.where(pre >= 0, pre, np.expm1(pre)),
                               atol=1e-9)


def test_fusion_gradients_match_central_differences():
    rng = np.random.default_rng(10)
    h_node = Tensor(rng.normal(size=(1, 2, 3)), requires_grad=True)
    coeffs = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    phi = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    theta = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    basis = rng.normal(size=(1, 2))
    err = gradcheck(
        lambda: fusion_gcn(h_node, (basis, coeffs, phi), NodePairs(((0, 0, 1),), 1, 2),
                           theta).sum(),
        [h_node, coeffs, phi, theta], eps=1e-5)
    assert err < 1e-5
