import itertools
import math

import numpy as np
import pytest

from stedge.autodiff import Tensor, backward, elu, gradcheck
from stedge.data import Window
from stedge.edgegraph import (
    EdgeGraph,
    HodgeOperator,
    LaguerreFilter,
    boundary_operator,
    edge_distances,
    edge_selectors,
    fusion_gcn,
    hll_conv,
    hodge_laplacian,
    hodge_operator,
    laguerre_basis,
    laguerre_scalars,
    line_graph,
)
from stedge.stgraph import UnifiedPatch, build_node_adjacency

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


# -- boundary operator and line graph ----------------------------------------


def test_boundary_triangle():
    op = boundary_operator(TRIANGLE)
    assert op.edge_index == ((0, 1), (0, 2), (1, 2))
    want = np.array([[-1, -1, 0], [1, 0, -1], [0, 1, 1]], dtype=float)
    np.testing.assert_array_equal(op.matrix, want)


def test_boundary_single_edge():
    op = boundary_operator(np.array([[0, 1], [1, 0]], dtype=float))
    np.testing.assert_array_equal(op.matrix, [[-1.0], [1.0]])


def test_boundary_complete_patch():
    op = boundary_operator(build_node_adjacency(2, 3))
    assert op.matrix.shape == (6, 15)  # C(6, 2) columns
    np.testing.assert_array_equal(np.abs(op.matrix).sum(axis=0), 2.0)


def test_boundary_and_selectors_match_loop_reference():
    """The array-indexed builders against per-pair loops, on every graph
    with <= 5 nodes."""
    for n in range(1, 6):
        for adj in _all_graphs(n):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u, v]]
            b1 = np.zeros((n, len(edges)))
            s_u, s_v = np.zeros((len(edges), n)), np.zeros((len(edges), n))
            for e, (u, v) in enumerate(edges):
                b1[u, e], b1[v, e] = -1.0, 1.0
                s_u[e, u] = s_v[e, v] = 1.0
            op = boundary_operator(adj)
            assert op.edge_index == tuple(edges)
            assert all(type(i) is int for edge in op.edge_index for i in edge)
            np.testing.assert_array_equal(op.matrix, b1)
            got_u, got_v = edge_selectors(op.edge_index, n)
            np.testing.assert_array_equal(got_u, s_u)
            np.testing.assert_array_equal(got_v, s_v)


def test_line_graph_matches_loop_reference():
    """The incidence product against the pairwise loop it replaced, on
    every graph with <= 5 nodes."""
    for n in range(1, 6):
        for adj in _all_graphs(n):
            edge_index = boundary_operator(adj).edge_index
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
    op = boundary_operator(TRIANGLE)
    np.testing.assert_array_equal(line_graph(op.edge_index), TRIANGLE)


def test_line_graph_path_and_star():
    path = boundary_operator(PATH3)
    np.testing.assert_array_equal(line_graph(path.edge_index), [[0, 1], [1, 0]])
    star = np.zeros((4, 4))
    star[0, 1:] = star[1:, 0] = 1.0
    op = boundary_operator(star)
    np.testing.assert_array_equal(line_graph(op.edge_index), TRIANGLE)


# -- Hodge Laplacian -----------------------------------------------------------


def test_hodge_single_edge():
    op = boundary_operator(np.array([[0, 1], [1, 0]], dtype=float))
    np.testing.assert_array_equal(hodge_laplacian(op), [[2.0]])


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
            op = boundary_operator(adj)
            m = op.n_edges
            l1 = hodge_laplacian(op)
            if m:
                np.testing.assert_array_equal(np.diag(l1), 2.0)
                assert np.linalg.eigvalsh(l1).min() >= -1e-10
            ladj = line_graph(op.edge_index)
            off = np.abs(l1 - np.diag(np.diag(l1)))
            np.testing.assert_array_equal(off, ladj)
            if m:
                signs = np.where(rng.random(m) < 0.5, -1.0, 1.0)
                flipped = hodge_laplacian(op.matrix * signs)
                np.testing.assert_allclose(flipped,
                                           np.diag(signs) @ l1 @ np.diag(signs),
                                           atol=0)
                np.testing.assert_array_equal(np.diag(flipped), np.diag(l1))
                np.testing.assert_array_equal(np.abs(flipped), np.abs(l1))
                np.testing.assert_allclose(np.linalg.eigvalsh(flipped),
                                           np.linalg.eigvalsh(l1), atol=1e-10)


def test_hodge_operator_bounds_spectrum():
    """lam is L1's top eigenvalue, so the scaled spectrum ends at 1 exactly.
    A 50-step power iteration reached 1.015 on these proximity graphs."""
    for adj in [build_node_adjacency(3, 3), *_proximity_adjacencies()]:
        op = boundary_operator(adj)
        hodge = hodge_operator(op)
        true_max = np.linalg.eigvalsh(hodge_laplacian(op)).max()
        assert hodge.lam == pytest.approx(true_max, rel=1e-12)
        scaled = np.linalg.eigvalsh(hodge.b1t_scaled @ hodge.b1)
        assert abs(scaled.max() - 1.0) <= 1e-12
        assert scaled.min() >= -1e-12


def test_hodge_operator_shapes():
    op = boundary_operator(build_node_adjacency(2, 3))
    hodge = hodge_operator(op)
    assert hodge.b1.shape == (6, 15)
    assert hodge.b1t_scaled.shape == (15, 6)
    assert hodge.lam == pytest.approx(6.0, rel=1e-12)   # n on a complete graph
    assert (hodge @ Tensor(np.ones((15, 4)))).shape == (15, 4)
    assert hodge_operator(op, rescale=False).lam == 1.0
    assert hodge_operator(boundary_operator(np.zeros((3, 3)))).lam == 1e-6  # edgeless


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


def _edge_graph_from(adj, feats, rescale=False):
    op = boundary_operator(adj)
    return EdgeGraph(edge_index=op.edge_index, features=Tensor(feats),
                     hodge=hodge_operator(op, rescale))


def test_hll_conv_order_one_is_linear_map():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(3, 4))
    graph = _edge_graph_from(TRIANGLE, feats)
    theta = rng.normal(size=(4, 4))
    out = hll_conv(graph, LaguerreFilter([Tensor(theta)]))
    lin = feats @ theta
    np.testing.assert_allclose(out.data, np.where(lin >= 0, lin, np.expm1(lin)),
                               atol=1e-12)


def test_hll_conv_zero_laplacian_collapses_to_sum():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(3, 4))
    graph = _edge_graph_from(TRIANGLE, feats)
    graph.hodge = HodgeOperator(b1=np.zeros((3, 3)), b1t_scaled=np.zeros((3, 3)),
                                lam=1.0)
    thetas = [Tensor(np.eye(4) / 3.0) for _ in range(3)]
    out = hll_conv(graph, LaguerreFilter(thetas))
    np.testing.assert_allclose(out.data,
                               np.where(feats >= 0, feats, np.expm1(feats)),
                               atol=1e-12)


def test_hll_conv_matches_spectral_oracle():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(3, 4))
    graph = _edge_graph_from(TRIANGLE, feats, rescale=True)
    thetas = [rng.normal(size=(4, 4)) for _ in range(3)]
    out = hll_conv(graph, LaguerreFilter([Tensor(t) for t in thetas]))
    w, v = np.linalg.eigh(hodge_laplacian(boundary_operator(TRIANGLE))
                          / graph.hodge.lam)
    pre = np.zeros((3, 4))
    for j, theta in enumerate(thetas):
        scalars = np.array([laguerre_scalars(float(lam), 3)[j] for lam in w])
        pre += (v * scalars) @ v.T @ feats @ theta
    np.testing.assert_allclose(out.data, np.where(pre >= 0, pre, np.expm1(pre)),
                               atol=1e-10)


def test_hll_conv_gradients():
    rng = np.random.default_rng(6)
    feats = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    graph = _edge_graph_from(TRIANGLE, np.zeros((3, 3)), rescale=True)
    graph.features = feats
    thetas = [Tensor(rng.normal(size=(3, 3)), requires_grad=True) for _ in range(3)]
    err = gradcheck(lambda: hll_conv(graph, LaguerreFilter(thetas)).sum(),
                    [feats, *thetas], eps=1e-5)
    assert err < 1e-5


def _power_iteration_lambda(l1, iters=50):
    """The estimate of L1's top eigenvalue that the dense filter used:
    50 power steps from a fixed start, then the Rayleigh quotient."""
    v = np.ones(len(l1)) + 1e-3 * np.arange(len(l1))
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = l1 @ v
        v = w / np.linalg.norm(w)
    return float(v @ l1 @ v)


def _dense_hll_conv(l1_scaled, feats, thetas):
    """sum_j G_j(L1 / lam) E theta_j, then ELU, with L1 stored densely."""
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
    """Forward output and every gradient through B1^T (B1 X) / lam match the
    filter on the stored L1 / lam, with lam exact and, on complete graphs,
    with lam from the power iteration the dense filter used."""
    op = boundary_operator(_PARITY_GRAPHS[name])
    rng = np.random.default_rng(11)
    feats = Tensor(rng.normal(size=(op.n_edges, 3)), requires_grad=True)
    thetas = [Tensor(rng.normal(size=(3, 3)) * 0.5, requires_grad=True)
              for _ in range(3)]
    seed = rng.normal(size=(op.n_edges, 3))

    def output_and_grads(run):
        for t in (feats, *thetas):
            t.zero_grad()
        out = run()
        backward(out, seed)
        return [out.data] + [t.grad.copy() for t in (feats, *thetas)]

    hodge = hodge_operator(op)
    graph = EdgeGraph(edge_index=op.edge_index, features=feats, hodge=hodge)
    got = output_and_grads(lambda: hll_conv(graph, LaguerreFilter(thetas)))
    l1 = hodge_laplacian(op)
    lams = [np.linalg.eigvalsh(l1).max()]
    if name.startswith("complete"):
        lams.append(_power_iteration_lambda(l1))
    for lam in lams:
        assert hodge.lam == pytest.approx(lam, rel=1e-12)
        want = output_and_grads(lambda: _dense_hll_conv(l1 / lam, feats, thetas))
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max())


def _embed_then_filter(dists, w_embed, thetas, hodge, edge_index):
    """The edge branch as it was: embed the distances to (m, d), then filter."""
    feats = Tensor(dists[:, None]) @ w_embed
    graph = EdgeGraph(edge_index=edge_index, features=feats, hodge=hodge)
    return hll_conv(graph, LaguerreFilter(thetas))


@pytest.mark.parametrize("name", sorted(_PARITY_GRAPHS))
def test_filter_on_distances_matches_embed_then_filter(name):
    """Folding the edge embedding into each order's coefficients (the
    model's edge branch) gives the output and the gradients of the
    embedding and of every theta_j of embedding first."""
    op = boundary_operator(_PARITY_GRAPHS[name])
    hodge = hodge_operator(op)
    rng = np.random.default_rng(12)
    dists = rng.uniform(0.1, 3.0, size=op.n_edges)
    w_embed = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
    thetas = [Tensor(rng.normal(size=(6, 6)) * 0.5, requires_grad=True)
              for _ in range(3)]
    seed = rng.normal(size=(op.n_edges, 6))

    def output_and_grads(run):
        for t in (w_embed, *thetas):
            t.zero_grad()
        out = run()
        backward(out, seed)
        return [out.data] + [t.grad.copy() for t in (w_embed, *thetas)]

    def folded():
        graph = EdgeGraph(edge_index=op.edge_index,
                          features=Tensor(dists[:, None]), hodge=hodge)
        return hll_conv(graph, LaguerreFilter([w_embed @ t for t in thetas]))

    got = output_and_grads(folded)
    want = output_and_grads(
        lambda: _embed_then_filter(dists, w_embed, thetas, hodge, op.edge_index))
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


# -- geometric edge features -----------------------------------------------------


def _window_and_patch():
    obs = np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                    [[0.0, 4.0], [3.0, 4.0], [3.0, 0.0]]])
    window = Window(obs=obs, fut=obs[:, -1:, :], ped_ids=[1, 2],
                    origin=obs[:, -1].copy())
    patch = UnifiedPatch(index=1, start=0, n_peds=2, length=3,
                         features=Tensor(np.zeros((6, 1))),
                         adjacency=build_node_adjacency(2, 3))
    return window, patch


def test_edge_distances_values():
    window, patch = _window_and_patch()
    op = boundary_operator(patch.adjacency)
    d = edge_distances(window, patch, op.edge_index)
    idx = {e: k for k, e in enumerate(op.edge_index)}
    assert d[idx[(0, 1)]] == pytest.approx(1.0)    # same ped, adjacent frames
    assert d[idx[(0, 3)]] == pytest.approx(4.0)
    assert d[idx[(0, 4)]] == pytest.approx(5.0)    # 3-4-5 triangle
    assert d[idx[(2, 5)]] == pytest.approx(1.0)
    window.obs[1] = window.obs[0]
    d = edge_distances(window, patch, op.edge_index)
    assert d[idx[(0, 3)]] == pytest.approx(0.0)    # coincident endpoints


# -- fusion ------------------------------------------------------------------------


def test_fusion_zero_gate_is_pure_self_term():
    rng = np.random.default_rng(7)
    h_node = Tensor(rng.normal(size=(3, 4)))
    h_edge = Tensor(rng.normal(size=(3, 4)))
    theta = Tensor(rng.normal(size=(4, 4)))
    phi = Tensor(rng.normal(size=(4, 4)))
    op = boundary_operator(TRIANGLE)
    out = fusion_gcn(h_node, h_edge, op.edge_index, theta, phi, gate_mode="zero")
    t = h_node.data @ theta.data
    np.testing.assert_allclose(out.data, np.where(t >= 0, t, np.expm1(t)), atol=1e-12)


def test_fusion_single_node_no_neighbours():
    rng = np.random.default_rng(8)
    h_node = Tensor(rng.normal(size=(1, 4)))
    theta = Tensor(rng.normal(size=(4, 4)))
    phi = Tensor(rng.normal(size=(4, 4)))
    out = fusion_gcn(h_node, None, (), theta, phi)
    t = h_node.data @ theta.data
    np.testing.assert_allclose(out.data, np.where(t >= 0, t, np.expm1(t)), atol=1e-12)


def test_fusion_two_nodes_matches_scalar_oracle():
    # 2-node graph, scalar features, hand-evaluated update with gate sigma(phi e)
    h_node = Tensor(np.array([[0.7], [-0.4]]))
    h_edge = Tensor(np.array([[0.9]]))
    theta = Tensor(np.array([[1.3]]))
    phi = Tensor(np.array([[2.0]]))
    out = fusion_gcn(h_node, h_edge, ((0, 1),), theta, phi)
    gate = 1.0 / (1.0 + math.exp(-0.9 * 2.0))
    pre0 = 1.3 * 0.7 + gate * (1.3 * -0.4)
    pre1 = 1.3 * -0.4 + gate * (1.3 * 0.7)
    want = [[pre0 if pre0 >= 0 else math.expm1(pre0)],
            [pre1 if pre1 >= 0 else math.expm1(pre1)]]
    np.testing.assert_allclose(out.data, want, atol=1e-12)


def test_fusion_gate_saturated_to_one_sums_neighbours():
    rng = np.random.default_rng(9)
    h_node = Tensor(rng.normal(size=(3, 2)))
    h_edge = Tensor(np.full((3, 1), 1e6))  # logistic saturates to 1
    theta = Tensor(rng.normal(size=(2, 2)))
    phi = Tensor(np.ones((1, 2)))
    op = boundary_operator(TRIANGLE)
    out = fusion_gcn(h_node, h_edge, op.edge_index, theta, phi)
    t = h_node.data @ theta.data
    pre = t + (TRIANGLE @ t) / 2.0  # every triangle node has degree 2
    np.testing.assert_allclose(out.data, np.where(pre >= 0, pre, np.expm1(pre)),
                               atol=1e-9)


def test_fusion_scalar_gate_mode():
    rng = np.random.default_rng(10)
    h_node = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    h_edge = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    theta = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    phi = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    err = gradcheck(
        lambda: fusion_gcn(h_node, h_edge, ((0, 1),), theta, phi,
                           gate_mode="scalar").sum(),
        [h_node, h_edge, theta, phi], eps=1e-5)
    assert err < 1e-5
