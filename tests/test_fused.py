"""The fused pair, edge and encoder ops against the chains of recorded ops
they replace: outputs and every input gradient, per op and through the
whole model, and the size of the tape they leave.  Likewise the folds that
record one op per job: the attention's mask, softmax and weighted sum
inside one op, the pooling of all patches at once and the likelihood
standardised whole.  The unfused chains run one patch at a time, so they
are also the per-patch loop that the graph stage's K patches in one op
replaced."""

import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import stedge.autodiff
import stedge.edgegraph
import stedge.model
import stedge.predictor
import stedge.stgraph
from stedge.autodiff import (
    NodePairs,
    ShapeMismatchError,
    Tensor,
    attention,
    backward,
    concatenate,
    elu,
    exp,
    gated_neighbour_mean,
    layer_norm,
    linear,
    log,
    node_pairs_bytes,
    pair_attention,
    softmax,
    tanh,
)
from stedge.model import (
    ModelConfig,
    TrajectoryForecaster,
    WindowTooLargeError,
    step_bytes,
    tape_bytes,
)
from stedge.data import init_features
from stedge.edgegraph import fusion_gcn, hll_conv
from stedge.predictor import (LOG_TWO_PI, assemble_tokens, bivariate_nll, encoder_forward,
                              gaussian_parameters, stack_and_pool)
from stedge.stgraph import gat_layer, patch_graphs

from test_model import SMALL, _circle_window

TOL = 1e-12


# -- the unfused chains ------------------------------------------------------------


def _leaky_relu(x, negative_slope):
    """The rectifier as a recorded product with its slope, 1 where x >= 0;
    below zero the forward is negative_slope * x, so a slope of 0 gives
    -0.0 there."""
    return x * Tensor(np.where(x.data >= 0.0, 1.0, negative_slope))


def _neighbour_mask(edge_index, n):
    """1 where node j is node i's neighbour or i itself, else 0, (n, n),
    of one patch's (m, 2) edge list."""
    mask = np.eye(n)
    u, v = np.asarray(edge_index, dtype=np.int64).reshape(-1, 2).T
    mask[u, v] = mask[v, u] = 1.0
    return mask


def _edge_list(pairs):
    """The (M, 3) patch-tagged edge list (k, u, v) of a ``NodePairs``
    index, read off its endpoints' global node ids."""
    a, b = pairs.ends
    return np.column_stack([a // pairs.nodes, a % pairs.nodes, b % pairs.nodes])


def _per_patch(chain):
    """A one-patch chain of (n, d) operands and an (m, 2) edge list, run on
    each patch of (K, n, d) operands and a ``NodePairs`` index in turn, the
    K results joined again as (K, n, d).  The first operand is the (M, d)
    gates if ``chain`` takes them (``edge_rows``)."""

    def run(*args, edge_rows=False):
        *operands, pairs = args
        edges, patches = _edge_list(pairs), pairs.patches
        out = []
        for k in range(patches):
            mine = edges[:, 0] == k
            lo, hi = np.searchsorted(edges[:, 0], [k, k + 1])
            assert mine[lo:hi].all() and mine.sum() == hi - lo    # sorted by patch
            # of one patch a reshape: a slice's backward adds its gradient
            # onto zeros, which turns -0.0 into 0.0
            patch = [op[lo:hi] if edge_rows and i == 0 else op if op.ndim != 3
                     else op[k] if patches > 1 else op.reshape(op.shape[1:])
                     for i, op in enumerate(operands)]
            result = chain(*patch, edges[lo:hi, 1:])
            out.append(result.reshape((1,) + result.shape))
        return concatenate(out)

    return run


def _mask_add(scores, mask):
    """The neighbour mask as the recorded add of a constant: 0 on the mask,
    -1e30 off it."""
    return scores + Tensor((np.asarray(mask) - 1.0) * 1e30)


@_per_patch
def _unfused_pair_attention(dst, src, att, edge_index):
    """The (n, n, d) pair sum, its rectifier, the product with att, the
    mask add, the softmax and the weighted sum of ``src``, each recorded."""
    n, d = dst.shape
    pair = dst.reshape((n, 1, d)) + src.reshape((1, n, d))
    scores = (_leaky_relu(pair, 0.2) @ att.reshape((d, 1))).reshape((n, n))
    return softmax(_mask_add(scores, _neighbour_mask(edge_index, n))) @ src


def _pair_scores(dst, src, att):
    """The unmasked scores att . LeakyReLU(dst_i + src_j) of one patch's
    (n, d) operands, less each row's constant 0.2 att . dst_i, as one
    recorded op: formed as ``pair_attention`` forms them, in its row blocks
    and as att . src_j - 0.8 att . min(src_j, -dst_i), and differentiated
    as its backward does, on the same (1, n, ...) shapes.  A softmax over
    each row does not see the dropped constant."""
    (n, d), a = src.shape, att.data.reshape(-1)
    blocks = stedge.autodiff._blocks(n, n * d)
    dst_data, src_data = dst.data[None], src.data[None]
    bend = stedge.autodiff._PAIR_BEND * a

    data = np.empty((1, n, n))
    for rows in blocks:
        bent = np.minimum(src_data[:, None, :, :], -dst_data[:, rows, None, :])
        data[:, rows] = (bent.reshape(-1, d) @ bend).reshape(bent.shape[:3])
        data[:, rows] += (src_data @ a)[:, None, :]

    def backward_fn(g):
        g = g[None]
        below_dst = np.empty((1, n, d))
        sending = np.zeros((1, n)), np.zeros((1, n, d))
        for rows in blocks:
            below = stedge.autodiff._below_zero(
                dst_data[:, rows, None, :], -src_data[:, None, :, :],
                out=np.empty((1, len(range(n)[rows]), n, d)))
            below_dst[:, rows] = (g[:, rows, None, :] @ below)[..., 0, :]
            sending[0][:] += g[:, rows].sum(axis=1)
            sending[1][:] += np.einsum("krjd,krj->kjd", below, g[:, rows])
        grads = stedge.autodiff._through_scores(dst, src, att, a, below_dst, sending)
        return tuple(grad.reshape(t.shape) for grad, t in zip(grads, (dst, src, att)))

    return stedge.autodiff._result(data[0], "pair_scores", (dst, src, att), backward_fn)


@_per_patch
def _chained_pair_attention(dst, src, att, edge_index):
    """``pair_attention`` as the chain of recorded ops it folds: the
    scores, the add of -1e30 off the neighbour mask, ``softmax`` and the
    weighted sum by ``linear``."""
    scores = _mask_add(_pair_scores(dst, src, att), _neighbour_mask(edge_index, len(dst.data)))
    return softmax(scores) @ src


def _pooled_per_patch(patch_embeddings, n_peds, length):
    """Each patch sliced, reshaped and mean-pooled on its own, the K tokens
    joined."""
    patches, _, d = patch_embeddings.shape
    return concatenate([patch_embeddings[k].reshape((n_peds, length, d))
                        .mean(axis=1, keepdims=True) for k in range(patches)], axis=1)


def _sliced_nll(mu, log_sigma, rho, targets):
    """The likelihood with each coordinate sliced and standardised on its
    own."""
    t = Tensor(targets)
    sx, sy = log_sigma[..., 0:1], log_sigma[..., 1:2]
    ex = (t[..., 0:1] - mu[..., 0:1]) * exp(-sx)
    ey = (t[..., 1:2] - mu[..., 1:2]) * exp(-sy)
    log_u = log(1.0 - rho * rho)
    quad = (ex * ex + ey * ey - (rho * ex * ey) * 2.0) * exp(-log_u) * 0.5
    return (LOG_TWO_PI + sx + sy + log_u * 0.5 + quad).mean()


def _unfused_gated_neighbour_mean(basis, coeffs, phi, x, pairs):
    """The gates' recorded chain, then the one-patch chain below on each of
    K patches (``_per_patch``)."""
    gates = _unfused_edge_gates(Tensor(basis), coeffs, phi)
    return _per_patch(_unfused_patch_gated_mean)(gates, x, pairs, edge_rows=True)


def _unfused_patch_gated_mean(gate, x, edge_index):
    """The messages moved by one-hot edge selectors, gated, and the
    division by each node's degree, each step recorded."""
    idx = np.asarray(edge_index, dtype=np.int64).reshape(-1, 2)
    n = x.shape[0]
    at_row, at_col = Tensor(np.eye(n)[idx[:, 0]]), Tensor(np.eye(n)[idx[:, 1]])   # (m, n)
    inv_degree = 1.0 / np.maximum(np.bincount(idx.ravel(), minlength=n), 1)[:, None]
    return (at_row.T @ (gate * (at_col @ x)) + at_col.T @ (gate * (at_row @ x))) \
        * Tensor(inv_degree)


def _unfused_edge_gates(a, b, c):
    """ELU, the gate map and the sigmoid from tanh, each recorded."""
    return tanh((elu(a @ b) @ c) * 0.5) * 0.5 + 0.5


def _unfused_linear(x, w, b, relu=False):
    y = x @ w + b
    return _leaky_relu(y, 0.0) if relu else y


def _unfused_layer_norm(x, gain, bias):
    """The encoder's eleven-op layer norm."""
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = exp(log(var + 1e-5) * -0.5)
    return centered * inv_std * gain + bias


def _unfused_attention(q, k, v, heads):
    """Heads split by reshape and transpose, the scaled scores, the softmax
    and the weighted sum, each recorded."""
    n, s, e = q.shape
    dh = e // heads

    def split(a):
        return a.reshape((n, a.shape[1], heads, dh)).transpose((0, 2, 1, 3))

    scores = (split(q) @ split(k).transpose((0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    return (softmax(scores) @ split(v)).transpose((0, 2, 1, 3)).reshape((n, s, e))


def _outputs_and_grads(run, leaves, seed):
    for t in leaves:
        t.zero_grad()
    out = run(*leaves)
    backward(out, seed)
    return [out.data] + [t.grad.copy() for t in leaves]


def _assert_parity(fused, unfused, leaves, seed):
    _assert_close(_outputs_and_grads(fused, leaves, seed),
                  _outputs_and_grads(unfused, leaves, seed))


def _assert_close(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= TOL * max(1.0, np.abs(w).max())


def _assert_bit_parity(folded, chain, leaves, seed=None):
    got = _outputs_and_grads(folded, leaves, seed)
    want = _outputs_and_grads(chain, leaves, seed)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


# -- per op ----------------------------------------------------------------------------


def _random_patches(rng, patches, n, density):
    """A (M, 3) edge list of ``patches`` random graphs of n nodes, each pair
    an edge with probability ``density``; patch 1 of three or more has no
    edge, and node 0 of patch 0 none."""
    edges = []
    for k in range(patches):
        adj = np.triu(rng.random((n, n)) < density, 1)
        if k == 0:
            adj[0] = False      # its column is empty above the diagonal already
        if k == 1 and patches >= 3:
            adj[:] = False
        pairs = np.argwhere(adj)
        edges.append(np.column_stack([np.full(len(pairs), k), pairs]))
    return np.concatenate(edges).reshape(-1, 3)


def _route(segment, monkeypatch):
    """Force the segment route of the pair ops, or the grid route."""
    monkeypatch.setattr(stedge.autodiff, "_SEGMENT_DENSITY", 2.0 if segment else 0.0)


_PAIR_SHAPES = {"row_blocks": (2, 150, 16), "n20_d128": (6, 60, 128),
                "n50_d128": (3, 150, 128)}


@pytest.mark.parametrize("case", ["mixed", "all_positive", "all_negative", "row_blocks",
                                  "n20_d128", "n50_d128"])
def test_pair_attention_logits_matches_unfused_chain(case, monkeypatch):
    """``pair_attention``, whose scores, softmax and weighted sum are one
    op for all patches, against the recorded chain run patch by patch,
    over graphs that keep about two in three pairs, on each route.  The
    chain's rectifier is the product with LeakyReLU's slope, so the op's
    att . min(p, 0) form is checked against the formula.  Patch 1 of three
    or more has no edge and node 0 of patch 0 none (``_random_patches``);
    the crowd shapes of 20 and 50 walkers split into several row blocks."""
    patches, n, d = _PAIR_SHAPES.get(case, (4, 7, 6))
    rng = np.random.default_rng(41)
    dst = rng.normal(size=(patches, n, d))
    src = rng.normal(size=(patches, n, d))
    if case.startswith("all_"):
        shift = 10.0 if case == "all_positive" else -10.0
        dst, src = dst + shift / 2, src + shift / 2
        assert np.all(np.sign(dst[:, :, None] + src[:, None]) == np.sign(shift))
    leaves = [Tensor(dst, requires_grad=True), Tensor(src, requires_grad=True),
              Tensor(rng.normal(size=d), requires_grad=True)]
    edges = _random_patches(rng, patches, n, 0.67)
    seed = rng.normal(size=(patches, n, d))
    for segment in (False, True):
        _route(segment, monkeypatch)
        pairs = NodePairs(edges, patches, n)
        assert pairs.segment == segment
        _assert_parity(lambda *t: pair_attention(*t, pairs),
                       lambda *t: _unfused_pair_attention(*t, pairs), leaves, seed)


@pytest.mark.parametrize("n", [1, 6, 150])
def test_masked_scores_match_the_mask_add_bit_for_bit(n, monkeypatch):
    """The mask, softmax and weighted sum inside ``pair_attention``'s grid
    route against the recorded add of the -1e30 constant after the scores,
    ``softmax`` and ``linear``, on one patch: the messages and every input
    gradient bit for bit.  (Over several patches the gradient of the
    shared ``att`` sums the patches' terms in another order.)"""
    rng = np.random.default_rng(47)
    edges = np.argwhere(np.triu(rng.random((n, n)) < 0.4, 1)[None])
    leaves = [Tensor(rng.normal(size=shape), requires_grad=True)
              for shape in ((1, n, 16), (1, n, 16), (16,))]
    _route(False, monkeypatch)
    pairs = NodePairs(edges, 1, n)
    _assert_bit_parity(lambda *t: pair_attention(*t, pairs),
                       lambda *t: _chained_pair_attention(*t, pairs),
                       leaves, rng.normal(size=(1, n, 16)))


@pytest.mark.parametrize("k,n_peds,length", [(1, 1, 1), (6, 5, 3), (3, 4, 2)])
def test_pooling_all_patches_matches_the_per_patch_loop(k, n_peds, length):
    rng = np.random.default_rng(48)
    leaves = [Tensor(rng.normal(size=(k, n_peds * length, 8)), requires_grad=True)]
    _assert_bit_parity(lambda h: stack_and_pool(h, n_peds, length),
                       lambda h: _pooled_per_patch(h, n_peds, length),
                       leaves, rng.normal(size=(n_peds, k, 8)))


def test_pooling_names_a_patch_of_the_wrong_row_count():
    blocks = Tensor(np.ones((2, 4, 2)))
    with pytest.raises(ShapeMismatchError, match=r"rows 4 != n_peds\*length 6"):
        stack_and_pool(blocks, n_peds=2, length=3)


@pytest.mark.parametrize("shape", [(1, 1), (3, 12)])
def test_whole_standardised_likelihood_matches_the_sliced_one(shape):
    rng = np.random.default_rng(49)
    leaves = [Tensor(rng.normal(size=shape + (2,)), requires_grad=True),
              Tensor(rng.normal(scale=0.5, size=shape + (2,)), requires_grad=True),
              Tensor(rng.uniform(-0.9, 0.9, size=shape + (1,)), requires_grad=True)]
    targets = rng.normal(size=shape + (2,))
    _assert_bit_parity(lambda *p: bivariate_nll(*p, targets),
                       lambda *p: _sliced_nll(*p, targets), leaves)


_GATED_SHAPES = {"channel_blocks": (6, 60, 64), "n20_d128": (6, 60, 128),
                 "n50_d128": (3, 150, 128)}


@pytest.mark.parametrize("case", ["mixed", "saturated", "channel_blocks", "n20_d128",
                                  "n50_d128"])
def test_gated_neighbour_sum_matches_unfused_chain(case, monkeypatch):
    """``gated_neighbour_mean``, the gates and the gated mean in one op,
    against the recorded chain of the gates and of one-hot edge selectors
    run patch by patch, on each route, with gates in (0, 1) and,
    saturated, many at exactly 1 and 0.  Patch 1 of three or more has no
    edge and node 0 of patch 0 none; the crowd shapes of 20 and 50
    walkers, complete but for those, split into several row blocks and
    edge blocks."""
    patches, n, d = _GATED_SHAPES.get(case, (3, 9, 5))
    rng = np.random.default_rng(42)
    edges = _random_patches(rng, patches, n, 1.0 if case.startswith("n") else 0.6)
    basis = rng.normal(size=(len(edges), 3))
    coeffs, phi = rng.normal(size=(3, d)), rng.normal(size=(d, d)) * 3.0 / math.sqrt(d)
    leaves = [Tensor(coeffs, requires_grad=True),
              Tensor(phi * (100.0 if case == "saturated" else 1.0), requires_grad=True),
              Tensor(rng.normal(size=(patches, n, d)), requires_grad=True)]
    if case == "saturated":
        gates = _unfused_edge_gates(Tensor(basis), *leaves[:2]).data
        assert (gates == 1.0).any() and (gates == 0.0).any()
    seed = rng.normal(size=(patches, n, d))
    for segment in (False, True):
        _route(segment, monkeypatch)
        pairs = NodePairs(edges, patches, n)
        assert pairs.segment == segment
        _assert_parity(lambda c_, p_, x_: gated_neighbour_mean(basis, c_, p_, x_, pairs),
                       lambda c_, p_, x_: _unfused_gated_neighbour_mean(basis, c_, p_, x_, pairs),
                       leaves, seed)


@pytest.mark.parametrize("case", ["mixed", "all_positive", "all_negative", "saturated"])
def test_matmul_elu_matmul_matches_unfused_chain(case):
    """The gates inside ``gated_neighbour_mean``, ELU(basis @ coeffs) mapped
    through phi and the sigmoid, against the recorded chain, with the
    filtered embedding on both sides of ELU's bend or on one; saturated,
    many gates are exactly 1 or 0."""
    rng = np.random.default_rng(43)
    edges = _random_patches(rng, 1, 12, 0.6)
    a = rng.normal(size=(len(edges), 3))
    b = rng.normal(size=(3, 6))
    if case.startswith("all_"):
        a, b = np.abs(a), np.abs(b) * (1.0 if case == "all_positive" else -1.0)
    c = rng.normal(size=(6, 5)) * (100.0 if case == "saturated" else 1.0)
    leaves = [Tensor(b, requires_grad=True), Tensor(c, requires_grad=True),
              Tensor(rng.normal(size=(1, 12, 5)), requires_grad=True)]
    if case == "saturated":
        gates = _unfused_edge_gates(Tensor(a), *leaves[:2]).data
        assert (gates == 1.0).any() and (gates == 0.0).any()
    pairs = NodePairs(edges, 1, 12)
    _assert_parity(lambda b_, c_, x_: gated_neighbour_mean(a, b_, c_, x_, pairs),
                   lambda b_, c_, x_: _unfused_gated_neighbour_mean(a, b_, c_, x_, pairs),
                   leaves, rng.normal(size=(1, 12, 5)))


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("shape", [(7, 5), (3, 4, 5)], ids=["2d", "3d"])
def test_linear_matches_unfused_chain(shape, relu):
    rng = np.random.default_rng(44)
    x = rng.normal(size=shape)
    x[..., 0, :] = 0.0          # a row of exact zeros: its pre-activation is b
    b = rng.normal(size=6)
    b[:2] = 0.0                 # ... and exactly 0 in these two columns
    leaves = [Tensor(x, requires_grad=True),
              Tensor(rng.normal(size=(5, 6)), requires_grad=True),
              Tensor(b, requires_grad=True)]
    pre = (leaves[0].data @ leaves[1].data + b).reshape(-1, 6)
    assert np.any(pre == 0.0) and np.any(pre < 0.0) and np.any(pre > 0.0)
    _assert_parity(lambda x_, w_, b_: linear(x_, w_, b_, relu=relu),
                   lambda x_, w_, b_: _unfused_linear(x_, w_, b_, relu=relu),
                   leaves, rng.normal(size=shape[:-1] + (6,)))


def test_linear_relu_forward_is_the_rectifier_bit_for_bit():
    x = Tensor(np.array([[1.0, 0.0, -2.0]]))
    out = linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)), relu=True).data
    np.testing.assert_array_equal(out, [[1.0, 0.0, 0.0]])
    assert list(np.signbit(out[0])) == [False, False, True]   # 0 * -2 = -0.0


@pytest.mark.parametrize("case", ["mixed", "constant_row", "one_position"])
def test_layer_norm_matches_unfused_chain(case):
    rng = np.random.default_rng(45)
    shape = (1, 1, 8) if case == "one_position" else (3, 4, 8)
    x = rng.normal(3.0, 2.0, size=shape)
    if case == "constant_row":
        x[1, 2] = 0.7
    leaves = [Tensor(x, requires_grad=True),
              Tensor(rng.normal(size=8), requires_grad=True),
              Tensor(rng.normal(size=8), requires_grad=True)]
    _assert_parity(layer_norm, _unfused_layer_norm, leaves, rng.normal(size=shape))
    assert layer_norm(*leaves).data.tobytes() == \
        _unfused_layer_norm(*leaves).data.tobytes()


@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("t", [1, 6])
def test_attention_matches_unfused_chain(heads, t):
    rng = np.random.default_rng(46)
    shape = (3, t, 8)
    leaves = [Tensor(rng.normal(size=shape) * 2.0, requires_grad=True)
              for _ in range(3)]
    _assert_parity(lambda q, k, v: attention(q, k, v, heads),
                   lambda q, k, v: _unfused_attention(q, k, v, heads),
                   leaves, rng.normal(size=shape))
    assert attention(*leaves, heads).data.tobytes() == \
        _unfused_attention(*leaves, heads).data.tobytes()
    # the last queries alone, over every key and value
    queries = Tensor(leaves[0].data[:, -1:], requires_grad=True)
    _assert_parity(lambda q, k, v: attention(q, k, v, heads),
                   lambda q, k, v: _unfused_attention(q, k, v, heads),
                   [queries] + leaves[1:], rng.normal(size=(3, 1, 8)))


# -- through the model -----------------------------------------------------------------


def _loss_and_grads(cfg, window):
    model = TrajectoryForecaster(cfg, seed=0)
    loss = model.loss(window)
    backward(loss)
    return loss.item(), {name: p.grad for name, p in model.params.items()}


@pytest.mark.parametrize("gate", ["vector", "zero"])
@pytest.mark.parametrize("max_distance", [None, 2.0])
@pytest.mark.parametrize("n", [2, 5, 20])
def test_model_matches_unfused_forward(n, max_distance, gate, monkeypatch):
    """The default-config loss and every parameter gradient, with the
    fused ops and with the chains they replace patched in where the model
    calls them."""
    cfg = ModelConfig(max_distance=max_distance, fusion_gate=gate)
    window = _circle_window(n)
    loss, grads = _loss_and_grads(cfg, window)
    monkeypatch.setattr(stedge.stgraph, "pair_attention", _unfused_pair_attention)
    monkeypatch.setattr(stedge.edgegraph, "gated_neighbour_mean",
                        _unfused_gated_neighbour_mean)
    want_loss, want_grads = _loss_and_grads(cfg, window)
    assert abs(loss - want_loss) <= TOL * abs(want_loss)
    assert grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        got = grads[name]
        if want is None:
            assert got is None, name
            continue
        assert np.abs(got - want).max() <= TOL * max(1.0, np.abs(want).max()), name


@pytest.mark.parametrize("gate", ["vector", "zero"])
@pytest.mark.parametrize("max_distance", [None, 2.0])
@pytest.mark.parametrize("n", [2, 12])
def test_model_matches_the_unfolded_glue_bit_for_bit(n, max_distance, gate, monkeypatch):
    """The default-config loss and the forecast bit for bit, and every
    parameter gradient to 1e-12, with the attention's mask, softmax and
    weighted sum in one op (the grid route), the pooling of all patches at
    once and the whole-array likelihood, and with the chain of the scores,
    the mask add, ``softmax`` and ``linear`` run patch by patch, the
    per-patch pooling loop and the sliced likelihood patched in.  The
    chain's gradients of the graph stage's shared parameters sum the
    patches' terms in another order."""
    cfg = ModelConfig(max_distance=max_distance, fusion_gate=gate)
    window = _circle_window(n)
    _route(False, monkeypatch)

    def run():
        loss, grads = _loss_and_grads(cfg, window)
        track = TrajectoryForecaster(cfg, seed=0).predict(window)
        return [np.float64(loss), track.mu, track.sigma, track.rho], \
            [g for g in grads.values() if g is not None]

    got, got_grads = run()
    monkeypatch.setattr(stedge.stgraph, "pair_attention", _chained_pair_attention)
    monkeypatch.setattr(stedge.model, "stack_and_pool", _pooled_per_patch)
    monkeypatch.setattr(stedge.model, "bivariate_nll", _sliced_nll)
    want, want_grads = run()
    for g, w in zip(got, want, strict=True):
        assert g.tobytes() == w.tobytes()
    _assert_close(got_grads, want_grads)


def _per_patch_forward(model, window, params=None):
    """``TrajectoryForecaster.forward`` as it ran one patch at a time: each
    patch's slice, attention, edge filter (lam of that patch alone) and
    fusion, the K results joined for pooling, and an encoder whose last
    layer computes every row."""
    cfg = model.cfg
    params = model.params if params is None else params
    graph = patch_graphs(window.obs, cfg.patch_len, cfg.patch_stride, cfg.max_distance)
    x = init_features(window.obs, params) @ params["feat.w_proj"]
    n, d = window.n_peds * cfg.patch_len, cfg.model_dim
    fused = []
    for k, start in enumerate(graph.starts):
        patch = graph.patch(k)
        z = x[:, start:start + cfg.patch_len, :].reshape((1, n, d))
        pairs = NodePairs(patch.edge_index, 1, n)
        h = gat_layer(z, pairs, params["gat.theta"], params["gat.theta_dst"],
                      params["gat.att"])
        edge_filter = None
        if cfg.fusion_gate != "zero" and len(patch.edge_index):
            coeffs = concatenate([params["edge.w_embed"] @ params[f"hll.theta{j}"]
                                  for j in range(cfg.hll_order)])
            edge_filter = (hll_conv(patch, cfg.hll_order), coeffs, params["fuse.phi"])
        fused.append(z + fusion_gcn(h, edge_filter, pairs, params["fuse.theta"]))
    pooled = stack_and_pool(concatenate(fused), window.n_peds, cfg.patch_len)
    tokens = assemble_tokens(pooled, params["pred.placeholder"], params["pred.positional"])
    y_repr = encoder_forward(linear(tokens, params["enc.in_w"], params["enc.in_b"]),
                             params, heads=cfg.encoder_heads, layers=cfg.encoder_layers)
    return gaussian_parameters(y_repr[:, -cfg.t_pred:, :], params["head.w"], params["head.b"])


def _loss_grads_and_forecast(cfg, window):
    loss, grads = _loss_and_grads(cfg, window)
    track = TrajectoryForecaster(cfg, seed=0).predict(window)
    return [np.float64(loss)] + [g for g in grads.values() if g is not None] \
        + [track.mu, track.sigma, track.rho]


@pytest.mark.parametrize("segment", [False, True], ids=["grid", "segments"])
@pytest.mark.parametrize("gate", ["vector", "zero"])
@pytest.mark.parametrize("max_distance", [None, 2.0])
@pytest.mark.parametrize("n", [2, 5, 12, 20])
def test_one_graph_stage_per_window_matches_the_per_patch_loop(
        n, max_distance, gate, segment, monkeypatch):
    """The default-config loss, every parameter gradient and the forecast
    to 1e-12, with the graph stage run once on all K patches and the last
    encoder layer on the T_pred rows the head reads, and with the loop over
    the patches and the full last layer patched in; each route forced on
    both sides in turn."""
    cfg = ModelConfig(max_distance=max_distance, fusion_gate=gate)
    window = _circle_window(n)
    _route(segment, monkeypatch)
    got = _loss_grads_and_forecast(cfg, window)
    monkeypatch.setattr(TrajectoryForecaster, "forward", _per_patch_forward)
    _assert_close(got, _loss_grads_and_forecast(cfg, window))


def test_segment_route_sorts_each_pair_list_once(monkeypatch):
    """One loss and backward on the segment route sorts the edge list once,
    into the node-pair index: the edge op reads the index's pairs that are
    not self-loops, and the attention's backward reads each pair's reverse
    off the same sort.  It sorted twice while each op built its own pairs,
    and three times while the reverses took a sort of their own."""
    calls, lexsort = [], np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(len(keys)) or lexsort(keys))
    _route(True, monkeypatch)
    backward(TrajectoryForecaster(ModelConfig(max_distance=2.0), seed=0).loss(
        _circle_window(12)))
    assert len(calls) == 1


@pytest.mark.parametrize("segment", [False, True], ids=["grid", "segments"])
def test_a_loss_builds_one_node_pair_index_that_both_ops_read(segment, monkeypatch):
    """One loss and its backward build one ``NodePairs`` index per window,
    on the route forced, and the attention and the edge op both read it."""
    built, read, init = [], [], NodePairs.__init__

    def counted(self, *args):
        init(self, *args)
        built.append(self)

    def reading(op):
        return lambda *args: read.append(args[-1]) or op(*args)

    monkeypatch.setattr(NodePairs, "__init__", counted)
    monkeypatch.setattr(stedge.stgraph, "pair_attention", reading(pair_attention))
    monkeypatch.setattr(stedge.edgegraph, "gated_neighbour_mean", reading(gated_neighbour_mean))
    _route(segment, monkeypatch)
    backward(TrajectoryForecaster(ModelConfig(max_distance=2.0), seed=0).loss(
        _circle_window(12)))
    assert len(built) == 1 and built[0].segment == segment
    assert len(read) == 2 and all(pairs is built[0] for pairs in read)


@pytest.mark.parametrize("segment", [False, True], ids=["grid", "segments"])
def test_one_walker_window_of_single_slot_patches_has_no_edge(segment, monkeypatch):
    """One walker and ``patch_len`` 1: eight one-node patches and no edge
    anywhere, so each node attends over itself alone and the edge branch
    does not run; the loss, its gradients and the forecast still match
    the per-patch loop."""
    cfg = replace(SMALL, patch_len=1)
    window = _circle_window(1)
    graph = patch_graphs(window.obs, 1, 1, cfg.max_distance)
    assert len(graph.starts) == 8 and graph.nodes == 1 and graph.edge_index.shape == (0, 3)
    _route(segment, monkeypatch)
    got = _loss_grads_and_forecast(cfg, window)
    assert all(np.isfinite(g).all() for g in got)
    monkeypatch.setattr(TrajectoryForecaster, "forward", _per_patch_forward)
    _assert_close(got, _loss_grads_and_forecast(cfg, window))


def test_default_loss_records_85_ops_at_any_patch_count_and_no_pair_array(monkeypatch):
    """One recorded op per job and window: 85 ops, 79 under the zero gate,
    at K = 6 patches (stride 1) and at K = 3 (stride 2).  It was 86 (79)
    while the edge branch's gates and gated mean were two ops, 87 (80)
    while the head sliced the T_pred rows it is given, 147 (125)
    while the graph stage ran once per patch and the last encoder layer
    computed every row, 165 (137) before the attention's softmax and
    weighted sum and the fusion's division by the degree moved into their
    ops, and 187 before that.  No op outputs or receives an (n, n) array
    over a patch's n nodes, nor one over the window's M edges."""
    recorded, record_op = [], stedge.autodiff._result

    def recording(data, op, parents, backward_fn):
        recorded.append((op, [data.shape] + [p.shape for p in parents]))
        return record_op(data, op, parents, backward_fn)

    monkeypatch.setattr(stedge.autodiff, "_result", recording)
    n = 5 * ModelConfig().patch_len
    for stride in (1, 2):
        for gate, count in (("vector", 85), ("zero", 79)):
            recorded.clear()
            cfg = ModelConfig(fusion_gate=gate, patch_stride=stride)
            window = _circle_window(5)
            edges = len(patch_graphs(window.obs, 3, stride, None).edge_index)
            TrajectoryForecaster(cfg, seed=0).loss(window)
            ops = [op for op, _ in recorded]
            assert len(ops) == count
            assert ops.count("pair_attention") == 1 and "softmax" not in ops
            assert ops.count("gated_neighbour_mean") == (gate == "vector")
            assert not [shape for _, shapes in recorded for shape in shapes
                        if shape[-2:] == (n, n) or shape[:1] == (edges,)]


@pytest.mark.parametrize("max_distance", [None, 2.0])
@pytest.mark.parametrize("n", [2, 5, 20])
def test_model_matches_unfused_encoder(n, max_distance, monkeypatch):
    """The default-config loss and forecast bit for bit, and every parameter
    gradient, with the fused encoder ops and with the chains they replace
    patched in where the encoder calls them."""
    cfg = ModelConfig(max_distance=max_distance)
    window = _circle_window(n)
    loss, grads = _loss_and_grads(cfg, window)
    track = TrajectoryForecaster(cfg, seed=0).predict(window)
    monkeypatch.setattr(stedge.predictor, "linear", _unfused_linear)
    monkeypatch.setattr(stedge.predictor, "layer_norm", _unfused_layer_norm)
    monkeypatch.setattr(stedge.predictor, "attention", _unfused_attention)
    want_loss, want_grads = _loss_and_grads(cfg, window)
    want_track = TrajectoryForecaster(cfg, seed=0).predict(window)
    assert loss == want_loss
    for field in ("mu", "sigma", "rho"):
        assert getattr(track, field).tobytes() == getattr(want_track, field).tobytes()
    assert grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        assert np.abs(grads[name] - want).max() <= TOL * max(1.0, np.abs(want).max()), name


def _tape_bytes(loss):
    """Bytes of every array a recorded op produced, over the graph behind
    ``loss``, and of the float arrays of their own that the ops' closures
    keep for the backward (the attention weights among them)."""
    seen, stack, total = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
        if t._backward is not None:
            total += t.data.nbytes
            for cell in t._backward.__closure__ or ():
                kept = cell.cell_contents
                if isinstance(kept, np.ndarray) and kept.dtype == np.float64 \
                        and kept.base is None and kept is not t.data:
                    total += kept.nbytes
    return total


def test_tape_of_a_20_walker_window_stays_under_40_mib():
    # 200.8 MiB while the pair sums, the gates and their grid were recorded,
    # 83.4 MiB while the encoder's attention weights, layer-norm pieces,
    # bias sums and pre-ReLU hidden were, 46.2 MiB while the filtered edge
    # embedding was, 35.9 MiB while the attention scores and the
    # fusion's degree product were
    loss = TrajectoryForecaster(ModelConfig(), seed=0).loss(_circle_window(20))
    assert _tape_bytes(loss) <= 40 * 2**20


def test_forecast_records_no_tape_and_leaves_training_unchanged(monkeypatch):
    """``predict`` keeps no op's parents or closure and touches no
    gradient; the loss and backward after it are those of a model that
    never forecast, on the full 85-op tape."""
    window = _circle_window(5)
    want_loss, want_grads = _loss_and_grads(ModelConfig(), window)
    model = TrajectoryForecaster(ModelConfig(), seed=0)
    outputs, record_op = [], stedge.autodiff._result

    def recording(*args):
        outputs.append(record_op(*args))
        return outputs[-1]

    monkeypatch.setattr(stedge.autodiff, "_result", recording)
    model.predict(window)
    assert outputs
    assert all(t._parents == () and t._backward is None and not t.requires_grad
               for t in outputs)
    assert all(p.grad is None for p in model.params.tensors())

    outputs.clear()
    loss = model.loss(window)
    assert len(outputs) == 85
    backward(loss)
    assert loss.item() == want_loss
    for name, p in model.params.items():
        assert p.grad.tobytes() == want_grads[name].tobytes(), name


def test_forecast_of_a_16_walker_window_stays_under_8_mib():
    # 21.4 MiB while predict recorded the training tape
    model = TrajectoryForecaster(ModelConfig(max_distance=2.0), seed=0)
    window = _circle_window(16)
    model.predict(window)
    tracemalloc.start()
    try:
        model.predict(window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


# -- the memory guard ------------------------------------------------------------------


def _held_bytes(obj):
    """Bytes of the numpy arrays an object holds in its attributes, alone
    or in tuples."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return sum(_held_bytes(item) for item in obj)
    return sum(_held_bytes(item) for item in vars(obj).values()) if hasattr(obj, "__dict__") \
        else 0


@pytest.mark.parametrize("segment", [False, True], ids=["grid", "segments"])
@pytest.mark.parametrize("max_distance", [None, 2.0])
def test_node_pairs_bytes_is_what_a_built_index_holds(max_distance, segment, monkeypatch):
    """``node_pairs_bytes``, which the guard adds, from the counts alone is
    the summed ``nbytes`` of a built index, on either route, for the circle
    windows of 2, 5 and 20 walkers and the edgeless window of one walker
    in one-slot patches."""
    _route(segment, monkeypatch)
    for n_peds, length in ((2, 3), (5, 3), (20, 3), (1, 1)):
        graph = patch_graphs(_circle_window(n_peds).obs, length, 1, max_distance)
        patches, n = len(graph.starts), n_peds * length
        pairs = NodePairs(graph.edge_index, patches, n)
        assert pairs.segment == segment
        assert node_pairs_bytes(patches, n, len(graph.edge_index)) == _held_bytes(pairs)


@pytest.mark.parametrize("gate", ["vector", "zero"])
@pytest.mark.parametrize("max_distance", [None, 2.0])
@pytest.mark.parametrize("cfg", [ModelConfig(), SMALL], ids=["default", "small"])
def test_tape_estimate_is_within_10_percent(cfg, max_distance, gate):
    cfg = replace(cfg, max_distance=max_distance, fusion_gate=gate)
    for n in (2, 5, 20):
        window = _circle_window(n)
        edges = patch_graphs(window.obs, cfg.patch_len, cfg.patch_stride,
                             cfg.max_distance).edge_counts
        measured = _tape_bytes(TrajectoryForecaster(cfg, seed=0).loss(window))
        assert abs(tape_bytes(cfg, n, edges) - measured) <= 0.1 * measured


@pytest.mark.parametrize("n,max_distance,gate", [
    *((n, max_distance, gate) for n in (5, 20) for max_distance in (None, 2.0)
      for gate in ("vector", "zero")),
    (50, None, "vector"),     # 67,050 edges: the edge branch at its largest here
])
def test_guard_covers_the_traced_peak_of_a_training_step(n, max_distance, gate):
    """The sum the guard refuses a window on, the three terms of
    ``step_bytes`` as ``forward`` adds them (the tape, 8 bytes per
    parameter value for the gradients, and the graph structure and index
    arrays the step holds with the backward's block temporaries), is at
    least the traced peak of one loss and its backward: what the closures
    keep and what the backward allocates in passing are covered too."""
    cfg = ModelConfig(max_distance=max_distance, fusion_gate=gate)
    window = _circle_window(n)
    model = TrajectoryForecaster(cfg, seed=0)
    edges = patch_graphs(window.obs, cfg.patch_len, cfg.patch_stride,
                         cfg.max_distance).edge_counts
    guarded = sum(step_bytes(cfg, n, edges, model.params.n_values()))
    tracemalloc.start()
    try:
        backward(model.loss(window))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert guarded >= peak


def test_backward_of_a_50_walker_step_holds_no_edge_sized_gradient():
    """On complete wiring at N = 50 (M = 67,050 edges, d = 128) the traced
    peak of a loss and its backward, once the leaf gradients exist, exceeds
    what the step holds when its backward starts by less than a quarter of
    one (M, d) array (16.4 MiB): no gradient of the gates over all edges
    exists.  It was 33.8 MiB on a 50-walker crowd window while the gate
    map and the gated mean were two ops joined by that gradient."""
    cfg = ModelConfig()
    window = _circle_window(50)
    model = TrajectoryForecaster(cfg, seed=0)
    edges = int(sum(patch_graphs(window.obs, cfg.patch_len, cfg.patch_stride,
                                 cfg.max_distance).edge_counts))
    backward(model.loss(window))     # the warm-up step allocates the leaf gradients
    tracemalloc.start()
    try:
        loss = model.loss(window)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edges == 67050
    assert peak - held < edges * cfg.model_dim * 8 / 4


def test_window_over_the_budget_is_refused_before_any_op(monkeypatch):
    window = _circle_window(20)
    model = TrajectoryForecaster(ModelConfig(), seed=0)
    monkeypatch.setattr(stedge.model, "TAPE_BUDGET_BYTES", 40 * 2**20)
    recorded = []
    monkeypatch.setattr(stedge.autodiff, "_result",
                        lambda *args: recorded.append(args[1]))
    # a forecast records no tape but is refused on the training estimate
    for step in (model.loss, model.predict):
        with pytest.raises(WindowTooLargeError, match=r"N=20 .* 32.3 MiB of autodiff "
                           r"tape, 9.6 MiB of gradients and 4.9 MiB of graph structure "
                           r"and backward temporaries, .* 40.0 MiB"):
            step(window)
    assert recorded == []


def test_budget_counts_the_gradients_of_the_backward(monkeypatch):
    # the 32.3 MiB tape fits in 40 MiB, but not with 9.6 MiB of gradients
    monkeypatch.setattr(stedge.model, "TAPE_BUDGET_BYTES", 40 * 2**20)
    with pytest.raises(WindowTooLargeError, match=r"32.3 MiB .* 9.6 MiB .* 40.0 MiB"):
        TrajectoryForecaster(ModelConfig(), seed=0).loss(_circle_window(20))


def test_budget_counts_the_edge_temporaries_of_the_backward(monkeypatch):
    # 32.3 MiB of tape and 9.6 MiB of gradients fit in 46 MiB, and so do the
    # patch graph's edge list and the node-pair index (0.7 MiB), but not the
    # edge branch's basis (0.2 MiB) with the four 1 MiB blocks over the
    # edges of its backward: 4.9 MiB in all
    window = _circle_window(20)
    model = TrajectoryForecaster(ModelConfig(), seed=0)
    monkeypatch.setattr(stedge.model, "TAPE_BUDGET_BYTES", 46 * 2**20)
    recorded, record_op = [], stedge.autodiff._result
    monkeypatch.setattr(stedge.autodiff, "_result",
                        lambda *args: recorded.append(args[1]) or record_op(*args))
    with pytest.raises(WindowTooLargeError,
                       match=r"4.9 MiB of graph structure and backward temporaries"):
        model.loss(window)
    assert recorded == []


def test_zero_gate_has_no_edge_temporaries(monkeypatch):
    # no edge branch runs, so 22.0 MiB of tape, 9.6 MiB of gradients and
    # 0.7 MiB of patch graph edge list and node-pair index are all
    monkeypatch.setattr(stedge.model, "TAPE_BUDGET_BYTES", 36 * 2**20)
    loss = TrajectoryForecaster(ModelConfig(fusion_gate="zero"), seed=0).loss(
        _circle_window(20))
    assert np.isfinite(loss.item())


def test_window_under_the_budget_runs(monkeypatch):
    monkeypatch.setattr(stedge.model, "TAPE_BUDGET_BYTES", 90 * 2**20)
    loss = TrajectoryForecaster(ModelConfig(), seed=0).loss(_circle_window(20))
    assert np.isfinite(loss.item())


def test_budget_is_the_physical_memory():
    assert stedge.model.TAPE_BUDGET_BYTES == (
        os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
