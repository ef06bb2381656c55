"""The fused pair and edge ops against the chains of recorded ops they
replace: outputs and every input gradient, per op and through the whole
model, and the size of the tape they leave."""

import os
from dataclasses import replace

import numpy as np
import pytest

import stedge.autodiff
import stedge.edgegraph
import stedge.model
import stedge.stgraph
from stedge.autodiff import (
    Tensor,
    backward,
    elu,
    gated_neighbour_sum,
    leaky_relu,
    matmul_elu,
    pair_attention_logits,
    tanh,
)
from stedge.model import (
    ModelConfig,
    TrajectoryForecaster,
    WindowTooLargeError,
    tape_bytes,
)
from stedge.stgraph import patch_adjacencies

from test_model import SMALL, _circle_window

TOL = 1e-12


# -- the unfused chains ------------------------------------------------------------


def _unfused_pair_attention_logits(dst, src, att):
    """The (n, n, d) pair sum, its rectifier and the product with att, each
    recorded."""
    (n_dst, d), n_src = dst.shape, src.shape[0]
    pair = dst.reshape((n_dst, 1, d)) + src.reshape((1, n_src, d))
    return (leaky_relu(pair) @ att.reshape((d, 1))).reshape((n_dst, n_src))


def _unfused_gated_neighbour_sum(z, x, rows, cols):
    """The sigmoid from tanh, and the messages moved by one-hot pair
    selectors, each step recorded."""
    eye = np.eye(x.shape[0])
    at_row, at_col = Tensor(eye[rows]), Tensor(eye[cols])   # (m, n)
    gate = tanh(z * 0.5) * 0.5 + 0.5
    return at_row.T @ (gate * (at_col @ x)) + at_col.T @ (gate * (at_row @ x))


def _unfused_matmul_elu(a, b):
    return elu(a @ b)


def _outputs_and_grads(run, leaves, seed):
    for t in leaves:
        t.zero_grad()
    out = run(*leaves)
    backward(out, seed)
    return [out.data] + [t.grad.copy() for t in leaves]


def _assert_parity(fused, unfused, leaves, seed):
    got = _outputs_and_grads(fused, leaves, seed)
    want = _outputs_and_grads(unfused, leaves, seed)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= TOL * max(1.0, np.abs(w).max())


# -- per op ----------------------------------------------------------------------------


@pytest.mark.parametrize("case", ["mixed", "all_positive", "all_negative",
                                  "rectangular", "row_blocks"])
def test_pair_attention_logits_matches_unfused_chain(case):
    n_dst, n_src, d = {"rectangular": (5, 9, 6), "row_blocks": (150, 150, 16)}.get(
        case, (7, 7, 6))
    rng = np.random.default_rng(41)
    dst = rng.normal(size=(n_dst, d))
    src = rng.normal(size=(n_src, d))
    if case.startswith("all_"):
        shift = 10.0 if case == "all_positive" else -10.0
        dst, src = dst + shift / 2, src + shift / 2
        assert np.all(np.sign(dst[:, None] + src[None]) == np.sign(shift))
    leaves = [Tensor(dst, requires_grad=True), Tensor(src, requires_grad=True),
              Tensor(rng.normal(size=d), requires_grad=True)]
    _assert_parity(pair_attention_logits, _unfused_pair_attention_logits, leaves,
                   rng.normal(size=(n_dst, n_src)))


@pytest.mark.parametrize("channels", ["vector", "scalar"])
@pytest.mark.parametrize("case", ["mixed", "saturated", "channel_blocks"])
def test_gated_neighbour_sum_matches_unfused_chain(case, channels):
    n, d = (60, 64) if case == "channel_blocks" else (9, 5)
    rng = np.random.default_rng(42)
    rows, cols = np.nonzero(np.triu(rng.random((n, n)) < 0.6, 1))
    z = rng.normal(size=(len(rows), d if channels == "vector" else 1)) * 3.0
    if case == "saturated":
        z[::2] = 40.0
        z[1::4] = -40.0
    leaves = [Tensor(z, requires_grad=True),
              Tensor(rng.normal(size=(n, d)), requires_grad=True)]
    _assert_parity(lambda z_, x_: gated_neighbour_sum(z_, x_, rows, cols),
                   lambda z_, x_: _unfused_gated_neighbour_sum(z_, x_, rows, cols),
                   leaves, rng.normal(size=(n, d)))


@pytest.mark.parametrize("case", ["mixed", "all_positive", "all_negative"])
def test_matmul_elu_matches_unfused_chain(case):
    rng = np.random.default_rng(43)
    a = rng.normal(size=(40, 3))
    b = rng.normal(size=(3, 6))
    if case.startswith("all_"):
        a, b = np.abs(a), np.abs(b) * (1.0 if case == "all_positive" else -1.0)
    leaves = [Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)]
    _assert_parity(matmul_elu, _unfused_matmul_elu, leaves, rng.normal(size=(40, 6)))


# -- through the model -----------------------------------------------------------------


def _loss_and_grads(cfg, window):
    model = TrajectoryForecaster(cfg, seed=0)
    loss = model.loss(window)
    backward(loss)
    return loss.item(), {name: p.grad for name, p in model.params.items()}


@pytest.mark.parametrize("gate", ["vector", "scalar", "zero"])
@pytest.mark.parametrize("max_distance", [None, 2.0])
@pytest.mark.parametrize("n", [2, 5, 20])
def test_model_matches_unfused_forward(n, max_distance, gate, monkeypatch):
    """The default-config loss and every parameter gradient, with the
    fused ops and with the chains they replace patched in where the model
    calls them."""
    cfg = ModelConfig(max_distance=max_distance, fusion_gate=gate)
    window = _circle_window(n)
    loss, grads = _loss_and_grads(cfg, window)
    monkeypatch.setattr(stedge.stgraph, "pair_attention_logits",
                        _unfused_pair_attention_logits)
    monkeypatch.setattr(stedge.edgegraph, "gated_neighbour_sum",
                        _unfused_gated_neighbour_sum)
    monkeypatch.setattr(stedge.edgegraph, "matmul_elu", _unfused_matmul_elu)
    want_loss, want_grads = _loss_and_grads(cfg, window)
    assert abs(loss - want_loss) <= TOL * abs(want_loss)
    assert grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        got = grads[name]
        if want is None:
            assert got is None, name
            continue
        assert np.abs(got - want).max() <= TOL * max(1.0, np.abs(want).max()), name


def _tape_bytes(loss):
    """Bytes of every array a recorded op produced, over the graph behind
    ``loss``."""
    seen, stack, total = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
        if t._backward is not None:
            total += t.data.nbytes
    return total


def test_tape_of_a_20_walker_window_stays_under_100_mib():
    # 200.8 MiB while the pair sums, the gates and their grid were recorded
    loss = TrajectoryForecaster(ModelConfig(), seed=0).loss(_circle_window(20))
    assert _tape_bytes(loss) <= 100 * 2**20


# -- the memory guard ------------------------------------------------------------------


@pytest.mark.parametrize("gate", ["vector", "scalar", "zero"])
@pytest.mark.parametrize("max_distance", [None, 2.0])
@pytest.mark.parametrize("cfg", [ModelConfig(), SMALL], ids=["default", "small"])
def test_tape_estimate_is_within_10_percent(cfg, max_distance, gate):
    cfg = replace(cfg, max_distance=max_distance, fusion_gate=gate)
    for n in (2, 5, 20):
        window = _circle_window(n)
        edges = [np.count_nonzero(a) // 2 for a in
                 patch_adjacencies(window.obs, cfg.patching(), cfg.max_distance)]
        measured = _tape_bytes(TrajectoryForecaster(cfg, seed=0).loss(window))
        assert abs(tape_bytes(cfg, n, edges) - measured) <= 0.1 * measured


def test_window_over_the_budget_is_refused_before_any_op(monkeypatch):
    window = _circle_window(20)
    model = TrajectoryForecaster(ModelConfig(), seed=0)
    monkeypatch.setattr(stedge.model, "TAPE_BUDGET_BYTES", 50 * 2**20)
    recorded = []
    monkeypatch.setattr(stedge.autodiff, "_result",
                        lambda *args: recorded.append(args[1]))
    with pytest.raises(WindowTooLargeError, match=r"N=20 .* 83.3 MiB .* 50.0 MiB"):
        model.loss(window)
    assert recorded == []


def test_window_under_the_budget_runs(monkeypatch):
    monkeypatch.setattr(stedge.model, "TAPE_BUDGET_BYTES", 90 * 2**20)
    loss = TrajectoryForecaster(ModelConfig(), seed=0).loss(_circle_window(20))
    assert np.isfinite(loss.item())


def test_budget_is_the_physical_memory():
    assert stedge.model.TAPE_BUDGET_BYTES == (
        os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
