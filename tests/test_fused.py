"""The fused pair, edge and encoder ops against the chains of recorded ops
they replace: outputs and every input gradient, per op and through the
whole model, and the size of the tape they leave.  Likewise the folds that
record one op per job: the attention's mask, softmax and weighted sum
inside one op, the pooling of all patches at once and the likelihood
standardised whole."""

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
    matmul_elu_matmul,
    pair_attention,
    softmax,
    tanh,
)
from stedge.model import (
    ModelConfig,
    TrajectoryForecaster,
    WindowTooLargeError,
    tape_bytes,
)
from stedge.predictor import LOG_TWO_PI, bivariate_nll, stack_and_pool
from stedge.stgraph import patch_graphs

from test_model import SMALL, _circle_window

TOL = 1e-12


# -- the unfused chains ------------------------------------------------------------


def _leaky_relu(x, negative_slope):
    """The rectifier as a recorded product with its slope, 1 where x >= 0;
    below zero the forward is negative_slope * x, so a slope of 0 gives
    -0.0 there."""
    return x * Tensor(np.where(x.data >= 0.0, 1.0, negative_slope))


def _neighbour_mask(edge_index, n):
    """1 where node j is node i's neighbour or i itself, else 0, (n, n)."""
    mask = np.eye(n)
    u, v = np.asarray(edge_index, dtype=np.int64).reshape(-1, 2).T
    mask[u, v] = mask[v, u] = 1.0
    return mask


def _mask_add(scores, mask):
    """The neighbour mask as the recorded add of a constant: 0 on the mask,
    -1e30 off it."""
    return scores + Tensor((np.asarray(mask) - 1.0) * 1e30)


def _unfused_pair_attention(dst, src, att, edge_index):
    """The (n, n, d) pair sum, its rectifier, the product with att, the
    mask add, the softmax and the weighted sum of ``src``, each recorded."""
    n, d = dst.shape
    pair = dst.reshape((n, 1, d)) + src.reshape((1, n, d))
    scores = (_leaky_relu(pair, 0.2) @ att.reshape((d, 1))).reshape((n, n))
    return softmax(_mask_add(scores, _neighbour_mask(edge_index, n))) @ src


def _pair_scores(dst, src, att):
    """The unmasked scores att . LeakyReLU(dst_i + src_j) as one recorded
    op, formed in ``pair_attention``'s row blocks and by its backward."""
    (n, d), a = src.shape, att.data.reshape(-1)
    blocks = stedge.autodiff._blocks(n, n * d)

    def rectified(rows):
        pair = dst.data[rows, None, :] + src.data
        return pair, np.where(pair >= 0.0, 1.0, 0.2)

    data = np.empty((n, n))
    for rows in blocks:
        pair, slope = rectified(rows)
        pair *= slope
        data[rows] = (pair.reshape(-1, d) @ a).reshape(-1, n)

    def backward_fn(g):
        g_dst, g_src, g_att = np.empty((n, d)), np.zeros((n, d)), np.zeros(d)
        for rows in blocks:
            pair, slope = rectified(rows)
            pair *= slope
            g_att += g[rows].reshape(-1) @ pair.reshape(-1, d)
            slope *= g[rows, :, None]
            g_dst[rows] = slope.sum(axis=1)
            g_src += slope.sum(axis=0)
        return g_dst * a, g_src * a, g_att.reshape(att.shape)

    return stedge.autodiff._result(data, "pair_scores", (dst, src, att), backward_fn)


def _chained_pair_attention(dst, src, att, edge_index):
    """``pair_attention`` as the chain of recorded ops it folds: the
    scores, the add of -1e30 off the neighbour mask, ``softmax`` and the
    weighted sum by ``linear``."""
    scores = _mask_add(_pair_scores(dst, src, att), _neighbour_mask(edge_index, len(dst.data)))
    return softmax(scores) @ src


def _pooled_per_patch(patch_embeddings, n_peds, length):
    """Each patch reshaped and mean-pooled on its own, the K tokens joined."""
    d = patch_embeddings[0].shape[1]
    return concatenate([h.reshape((n_peds, length, d)).mean(axis=1, keepdims=True)
                        for h in patch_embeddings], axis=1)


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


def _unfused_gated_neighbour_mean(z, x, edge_index):
    """The sigmoid from tanh, the messages moved by one-hot edge selectors
    and the division by each node's degree, each step recorded."""
    idx = np.asarray(edge_index, dtype=np.int64).reshape(-1, 2)
    n = x.shape[0]
    at_row, at_col = Tensor(np.eye(n)[idx[:, 0]]), Tensor(np.eye(n)[idx[:, 1]])   # (m, n)
    gate = tanh(z * 0.5) * 0.5 + 0.5
    inv_degree = 1.0 / np.maximum(np.bincount(idx.ravel(), minlength=n), 1)[:, None]
    return (at_row.T @ (gate * (at_col @ x)) + at_col.T @ (gate * (at_row @ x))) \
        * Tensor(inv_degree)


def _unfused_matmul_elu_matmul(a, b, c):
    return elu(a @ b) @ c


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
    n, t, e = q.shape
    dh = e // heads

    def split(a):
        return a.reshape((n, t, heads, dh)).transpose((0, 2, 1, 3))

    scores = (split(q) @ split(k).transpose((0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    return (softmax(scores) @ split(v)).transpose((0, 2, 1, 3)).reshape((n, t, e))


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


@pytest.mark.parametrize("case", ["mixed", "all_positive", "all_negative", "row_blocks"])
def test_pair_attention_logits_matches_unfused_chain(case):
    """``pair_attention``, whose scores, softmax and weighted sum are one
    op, against the recorded chain, over a graph that keeps about two in
    three pairs."""
    n, d = (150, 16) if case == "row_blocks" else (7, 6)
    rng = np.random.default_rng(41)
    dst = rng.normal(size=(n, d))
    src = rng.normal(size=(n, d))
    if case.startswith("all_"):
        shift = 10.0 if case == "all_positive" else -10.0
        dst, src = dst + shift / 2, src + shift / 2
        assert np.all(np.sign(dst[:, None] + src[None]) == np.sign(shift))
    leaves = [Tensor(dst, requires_grad=True), Tensor(src, requires_grad=True),
              Tensor(rng.normal(size=d), requires_grad=True)]
    edges = np.argwhere(np.triu(rng.random((n, n)) < 0.67, 1))
    _assert_parity(lambda *t: pair_attention(*t, edges),
                   lambda *t: _unfused_pair_attention(*t, edges),
                   leaves, rng.normal(size=(n, d)))


@pytest.mark.parametrize("n", [1, 6, 150])
def test_masked_scores_match_the_mask_add_bit_for_bit(n):
    """The mask, softmax and weighted sum inside ``pair_attention`` against
    the recorded add of the -1e30 constant after the scores, ``softmax``
    and ``linear``: the messages and every input gradient bit for bit."""
    rng = np.random.default_rng(47)
    edges = np.argwhere(np.triu(rng.random((n, n)) < 0.4, 1))
    leaves = [Tensor(rng.normal(size=shape), requires_grad=True)
              for shape in ((n, 16), (n, 16), (16,))]
    _assert_bit_parity(lambda *t: pair_attention(*t, edges),
                       lambda *t: _chained_pair_attention(*t, edges),
                       leaves, rng.normal(size=(n, 16)))


@pytest.mark.parametrize("k,n_peds,length", [(1, 1, 1), (6, 5, 3), (3, 4, 2)])
def test_pooling_all_patches_matches_the_per_patch_loop(k, n_peds, length):
    rng = np.random.default_rng(48)
    leaves = [Tensor(rng.normal(size=(n_peds * length, 8)), requires_grad=True)
              for _ in range(k)]
    _assert_bit_parity(lambda *h: stack_and_pool(list(h), n_peds, length),
                       lambda *h: _pooled_per_patch(list(h), n_peds, length),
                       leaves, rng.normal(size=(n_peds, k, 8)))


def test_pooling_names_a_patch_of_the_wrong_row_count():
    blocks = [Tensor(np.ones((6, 2))), Tensor(np.ones((4, 2)))]
    with pytest.raises(ShapeMismatchError, match=r"rows \[6, 4\] != n_peds\*length 6"):
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


@pytest.mark.parametrize("case", ["mixed", "saturated", "channel_blocks"])
def test_gated_neighbour_sum_matches_unfused_chain(case):
    n, d = (60, 64) if case == "channel_blocks" else (9, 5)
    rng = np.random.default_rng(42)
    edges = np.argwhere(np.triu(rng.random((n, n)) < 0.6, 1))
    z = rng.normal(size=(len(edges), d)) * 3.0
    if case == "saturated":
        z[::2] = 40.0
        z[1::4] = -40.0
    leaves = [Tensor(z, requires_grad=True),
              Tensor(rng.normal(size=(n, d)), requires_grad=True)]
    _assert_parity(lambda z_, x_: gated_neighbour_mean(z_, x_, edges),
                   lambda z_, x_: _unfused_gated_neighbour_mean(z_, x_, edges),
                   leaves, rng.normal(size=(n, d)))


@pytest.mark.parametrize("case", ["mixed", "all_positive", "all_negative"])
def test_matmul_elu_matmul_matches_unfused_chain(case):
    rng = np.random.default_rng(43)
    a = rng.normal(size=(40, 3))
    b = rng.normal(size=(3, 6))
    if case.startswith("all_"):
        a, b = np.abs(a), np.abs(b) * (1.0 if case == "all_positive" else -1.0)
    leaves = [Tensor(a, requires_grad=True), Tensor(b, requires_grad=True),
              Tensor(rng.normal(size=(6, 5)), requires_grad=True)]
    _assert_parity(matmul_elu_matmul, _unfused_matmul_elu_matmul, leaves,
                   rng.normal(size=(40, 5)))


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
    monkeypatch.setattr(stedge.edgegraph, "matmul_elu_matmul",
                        _unfused_matmul_elu_matmul)
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
    """The default-config loss, every parameter gradient and the forecast
    bit for bit, with the attention's mask, softmax and weighted sum in one
    op, the pooling of all patches at once and the whole-array likelihood,
    and with the chain of the scores, the mask add, ``softmax`` and
    ``linear``, the per-patch pooling loop and the sliced likelihood
    patched in."""
    cfg = ModelConfig(max_distance=max_distance, fusion_gate=gate)
    window = _circle_window(n)

    def run():
        loss, grads = _loss_and_grads(cfg, window)
        track = TrajectoryForecaster(cfg, seed=0).predict(window)
        return [np.float64(loss)] + [g for g in grads.values() if g is not None] \
            + [track.mu, track.sigma, track.rho]

    got = run()
    monkeypatch.setattr(stedge.stgraph, "pair_attention", _chained_pair_attention)
    monkeypatch.setattr(stedge.model, "stack_and_pool", _pooled_per_patch)
    monkeypatch.setattr(stedge.model, "bivariate_nll", _sliced_nll)
    want = run()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_default_loss_records_147_ops_and_no_pair_array(monkeypatch):
    """One recorded op per job: 147 ops, 125 under the zero gate.  It was
    187 before the mask moved into the scores and the pooling and the
    likelihood's standardisation were each folded into one array, and 165
    (137) before the attention's softmax and weighted sum and the fusion's
    division by the degree moved into their ops.  No op records an (n, n)
    array over a patch's n nodes."""
    recorded, record_op = [], stedge.autodiff._result

    def recording(data, op, parents, backward_fn):
        recorded.append((op, data.shape))
        return record_op(data, op, parents, backward_fn)

    monkeypatch.setattr(stedge.autodiff, "_result", recording)
    n = 5 * ModelConfig().patch_len
    for gate, count in (("vector", 147), ("zero", 125)):
        recorded.clear()
        cfg = ModelConfig(fusion_gate=gate)
        TrajectoryForecaster(cfg, seed=0).loss(_circle_window(5))
        ops = [op for op, _ in recorded]
        assert len(ops) == count
        assert ops.count("pair_attention") == cfg.n_patches and "softmax" not in ops
        assert (n, n) not in [shape for _, shape in recorded]


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
    never forecast, on the full 147-op tape."""
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
    assert len(outputs) == 147
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


@pytest.mark.parametrize("gate", ["vector", "zero"])
@pytest.mark.parametrize("max_distance", [None, 2.0])
@pytest.mark.parametrize("cfg", [ModelConfig(), SMALL], ids=["default", "small"])
def test_tape_estimate_is_within_10_percent(cfg, max_distance, gate):
    cfg = replace(cfg, max_distance=max_distance, fusion_gate=gate)
    for n in (2, 5, 20):
        window = _circle_window(n)
        edges = [len(g.edge_index) for g in
                 patch_graphs(window.obs, cfg.patch_len, cfg.patch_stride,
                              cfg.max_distance)]
        measured = _tape_bytes(TrajectoryForecaster(cfg, seed=0).loss(window))
        assert abs(tape_bytes(cfg, n, edges) - measured) <= 0.1 * measured


@pytest.mark.parametrize("gate", ["vector", "zero"])
@pytest.mark.parametrize("max_distance", [None, 2.0])
@pytest.mark.parametrize("n", [5, 20])
def test_guard_covers_the_traced_peak_of_a_training_step(n, max_distance, gate):
    """The sum the guard refuses a window on, added up as ``forward`` adds
    it (the tape, 8 bytes per parameter value for the gradients and the
    edge branch's backward temporaries), is at least the traced peak of one
    loss and its backward: what the closures keep and what the backward
    allocates in passing are covered too."""
    cfg = ModelConfig(max_distance=max_distance, fusion_gate=gate)
    window = _circle_window(n)
    model = TrajectoryForecaster(cfg, seed=0)
    edges = [len(g.edge_index) for g in
             patch_graphs(window.obs, cfg.patch_len, cfg.patch_stride, cfg.max_distance)]
    guarded = (tape_bytes(cfg, n, edges) + 8 * model.params.n_values()
               + 8 * stedge.model._EDGE_BACKWARD_ARRAYS * max(edges) * cfg.model_dim
               * (gate != "zero"))
    tracemalloc.start()
    try:
        backward(model.loss(window))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert guarded >= peak


def test_window_over_the_budget_is_refused_before_any_op(monkeypatch):
    window = _circle_window(20)
    model = TrajectoryForecaster(ModelConfig(), seed=0)
    monkeypatch.setattr(stedge.model, "TAPE_BUDGET_BYTES", 40 * 2**20)
    recorded = []
    monkeypatch.setattr(stedge.autodiff, "_result",
                        lambda *args: recorded.append(args[1]))
    # a forecast records no tape but is refused on the training estimate
    for step in (model.loss, model.predict):
        with pytest.raises(WindowTooLargeError, match=r"N=20 .* 35.5 MiB of autodiff "
                           r"tape, 9.6 MiB of gradients and 5.2 MiB of backward "
                           r"temporaries, .* 40.0 MiB"):
            step(window)
    assert recorded == []


def test_budget_counts_the_gradients_of_the_backward(monkeypatch):
    # the 35.5 MiB tape fits in 40 MiB, but not with 9.6 MiB of gradients
    monkeypatch.setattr(stedge.model, "TAPE_BUDGET_BYTES", 40 * 2**20)
    with pytest.raises(WindowTooLargeError, match=r"35.5 MiB .* 9.6 MiB .* 40.0 MiB"):
        TrajectoryForecaster(ModelConfig(), seed=0).loss(_circle_window(20))


def test_budget_counts_the_edge_temporaries_of_the_backward(monkeypatch):
    # 35.5 MiB of tape and 9.6 MiB of gradients fit in 48 MiB, but not with
    # the three (m, d) arrays, 3 * 1770 * 128 * 8 bytes = 5.2 MiB, that the
    # backward holds while it passes one patch's edge branch
    window = _circle_window(20)
    model = TrajectoryForecaster(ModelConfig(), seed=0)
    monkeypatch.setattr(stedge.model, "TAPE_BUDGET_BYTES", 48 * 2**20)
    recorded, record_op = [], stedge.autodiff._result
    monkeypatch.setattr(stedge.autodiff, "_result",
                        lambda *args: recorded.append(args[1]) or record_op(*args))
    with pytest.raises(WindowTooLargeError, match=r"5.2 MiB of backward temporaries"):
        model.loss(window)
    assert recorded == []


def test_zero_gate_has_no_edge_temporaries(monkeypatch):
    # no edge branch runs, so 25.2 MiB of tape and 9.6 MiB of gradients are all
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
