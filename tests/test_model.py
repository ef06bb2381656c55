import hashlib
import importlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import stedge.autodiff
from stedge.autodiff import ShapeMismatchError, backward
from stedge.data import Window
from stedge.model import (
    ModelConfig,
    TrajectoryForecaster,
    gradcheck_parameters,
    init_parameters,
)
from stedge.stgraph import patch_graphs
from stedge.synth import gradcheck_window, overfit_windows

SMALL = ModelConfig(model_dim=8, encoder_dim=16, encoder_heads=2, encoder_layers=1)


def test_config_derived_sizes():
    cfg = ModelConfig()
    assert cfg.n_patches == 6
    assert cfg.token_len == 18
    assert cfg.encoder_dim == 256 and cfg.encoder_heads == 4


def test_parameter_layout_follows_config():
    params = init_parameters(SMALL, seed=0)
    assert params["feat.w_v"].shape == (2, 8)
    assert params["feat.w_proj"].shape == (24, 8)
    assert params["gat.theta_dst"].shape == (8, 8)
    assert params["gat.att"].shape == (8,)
    assert params["pred.positional"].shape == (SMALL.token_len, 8)
    assert params["head.w"].shape == (16, 5)
    assert "enc.l0.att.bk" not in params  # key bias is dead under softmax
    # identical seed, identical store
    again = init_parameters(SMALL, seed=0)
    for name in params.names():
        np.testing.assert_array_equal(params[name].data, again[name].data)


def _parameter_digest(params) -> str:
    h = hashlib.sha256()
    for name, p in params.items():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("cfg, seed, digest", [
    (ModelConfig(), 0,
     "4a02264d9ea8413b3d9f97346e4d0f0994a033ac83f7b31ead0a6a3807d2da60"),
    (SMALL, 3,
     "693836d0f7e74b008d63254aa8670505a03c97de0cf7ceb251abcb8466ef159f"),
])
def test_initial_parameters_are_bit_stable(cfg, seed, digest):
    # the SHA-256 of every name and value as the initialisation first drew them
    assert _parameter_digest(init_parameters(cfg, seed)) == digest


def _circle_window(n, t_obs=8, t_pred=12):
    """n pedestrians leaving a 3 m circle on wavy, closed-form paths."""
    t = np.arange(t_obs + t_pred, dtype=np.float64)
    k = np.arange(n, dtype=np.float64)[:, None]
    angle = 2.0 * np.pi * k / n
    x = 3.0 * np.cos(angle) + 0.3 * t * np.cos(angle + 1.0) + 0.2 * np.sin(0.7 * t + k)
    y = 3.0 * np.sin(angle) + 0.3 * t * np.sin(angle + 1.0) + 0.2 * np.cos(0.5 * t + k)
    track = np.stack([x, y], axis=-1)
    obs, fut = track[:, :t_obs], track[:, t_obs:]
    return Window(obs=obs, fut=fut, ped_ids=list(range(1, n + 1)),
                  origin=obs[:, -1].copy())


# default config, seed 0, from the model that embedded the edge distances to
# model_dim before the Laguerre filter; the second pair is the loss and the
# summed |gradient| of edge.w_embed at the gradient-check parameters
_REFERENCE_LOSSES = {
    2: (1.8918284743961047, 14.059804269792862, 220.67379206229862),
    10: (1.8926531710189183, 11.649454740853521, 90.0919771856584),
    20: (1.8910819837201989, 14.104956893759477, 135.99515024148698),
}


@pytest.mark.parametrize("n", sorted(_REFERENCE_LOSSES))
def test_loss_matches_embed_then_filter_reference(n):
    loss, full_loss, embed_grad = _REFERENCE_LOSSES[n]
    cfg = ModelConfig()
    window = _circle_window(n)
    got = TrajectoryForecaster(cfg, seed=0).loss(window).item()
    assert abs(got - loss) <= 1e-12 * loss
    model = TrajectoryForecaster(cfg, params=gradcheck_parameters(cfg, 0))
    out = model.loss(window)
    backward(out)
    assert abs(out.item() - full_loss) <= 1e-12 * full_loss
    got_grad = float(np.abs(model.params["edge.w_embed"].grad).sum())
    assert abs(got_grad - embed_grad) <= 1e-12 * embed_grad


# max_distance = 2.0 m wiring, seed 0, N = 10: the loss and the summed
# |gradient| over every parameter, one pair per fusion gate
_REFERENCE_PROXIMITY = {
    "vector": (1.8922977179998919, 272.17547388414107),
    "zero": (1.8922836803081813, 272.73174006544264),
}


@pytest.mark.parametrize("gate", sorted(_REFERENCE_PROXIMITY))
def test_proximity_loss_and_gradients_match_reference(gate):
    loss, grad_sum = _REFERENCE_PROXIMITY[gate]
    model = TrajectoryForecaster(ModelConfig(max_distance=2.0, fusion_gate=gate),
                                 seed=0)
    out = model.loss(_circle_window(10))
    backward(out)
    assert abs(out.item() - loss) <= 1e-12 * loss
    got = sum(float(np.abs(p.grad).sum()) for _, p in model.params.items()
              if p.grad is not None)
    assert abs(got - grad_sum) <= 1e-12 * grad_sum


# seed 0, the summed |mu|, sigma and |rho| of predict() per (N,
# max_distance, fusion gate), recorded while predict ran the training tape
_REFERENCE_FORECASTS = {
    (2, None, "vector"): (0.055088135395909524, 48.00802753753208, 0.02605849085414657),
    (2, None, "zero"): (0.06005498329300088, 48.01217249799626, 0.023310167290936337),
    (2, 2.0, "vector"): (0.05367953723139904, 48.00372257585041, 0.006660683968425594),
    (2, 2.0, "zero"): (0.05410178007173348, 48.004200892020954, 0.00874153970096123),
    (10, None, "vector"): (0.3414750594490631, 240.08361810178278, 0.10533955073297711),
    (10, None, "zero"): (0.3508340981336263, 240.07402890090552, 0.10055325070124693),
    (10, 2.0, "vector"): (0.31701931321494603, 240.02273494875737, 0.04329362198461818),
    (10, 2.0, "zero"): (0.3225969585425981, 240.02286164144044, 0.05228752888499212),
}


@pytest.mark.parametrize("n, max_distance, gate", list(_REFERENCE_FORECASTS))
def test_forecast_matches_reference(n, max_distance, gate):
    model = TrajectoryForecaster(ModelConfig(max_distance=max_distance, fusion_gate=gate),
                                 seed=0)
    track = model.predict(_circle_window(n))
    got = (np.abs(track.mu).sum(), track.sigma.sum(), np.abs(track.rho).sum())
    for value, want in zip(got, _REFERENCE_FORECASTS[n, max_distance, gate], strict=True):
        assert abs(value - want) <= 1e-12 * want


@pytest.mark.parametrize("field, value", [
    ("fusion_gate", "open"),
    ("fusion_gate", "scalar"),   # one gate per edge is not a gate mode
    ("encoder_dim", 10),     # not divisible by the 4 heads
])
def test_model_config_rejects_bad_settings_at_construction(field, value):
    with pytest.raises(ValueError, match=str(value)):
        ModelConfig(**{field: value})


@pytest.mark.parametrize("settings", [
    {"encoder_heads": 0}, {"model_dim": 0}, {"hll_order": 0}, {"t_obs": 1},
    {"t_obs": 4, "patch_len": 5}, {"max_distance": -1.0},
    {"max_distance": float("nan")},
])
def test_model_config_checks_every_range_at_construction(settings):
    with pytest.raises(ValueError):
        ModelConfig(**settings)


def test_zero_max_distance_is_the_complete_graph():
    assert ModelConfig(max_distance=0.0) == ModelConfig(max_distance=None)
    assert ModelConfig(max_distance=0.0).max_distance is None


def test_forward_shapes_and_track():
    model = TrajectoryForecaster(SMALL, seed=0)
    w = gradcheck_window()
    mu, log_sigma, rho = model.forward(w)
    assert mu.shape == (2, 12, 2)
    assert log_sigma.shape == (2, 12, 2)
    assert rho.shape == (2, 12, 1)
    track = model.predict(w)
    assert track.sigma.min() > 0
    assert np.abs(track.rho).max() < 1.0
    np.testing.assert_array_equal(track.origin, w.origin)


def test_forward_rejects_wrong_horizons():
    model = TrajectoryForecaster(SMALL, seed=0)
    w = gradcheck_window()
    short = Window(obs=w.obs[:, :6], fut=w.fut, ped_ids=w.ped_ids,
                   origin=w.obs[:, 5].copy())
    with pytest.raises(ShapeMismatchError):
        model.forward(short)


def test_loss_backward_touches_all_live_parameters():
    model = TrajectoryForecaster(SMALL, seed=0)
    model.params.zero_grad()
    backward(model.loss(gradcheck_window()))
    for name, p in model.params.items():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0), name


def test_zero_gate_mode_ignores_edge_parameters():
    cfg = ModelConfig(model_dim=8, encoder_dim=16, encoder_heads=2,
                      encoder_layers=1, fusion_gate="zero")
    model = TrajectoryForecaster(cfg, seed=0)
    model.params.zero_grad()
    backward(model.loss(gradcheck_window()))
    for name in ("fuse.phi", "edge.w_embed", "hll.theta0"):
        g = model.params[name].grad
        assert g is None or not np.any(g)


@pytest.mark.parametrize("max_distance", [None, 2.0])
def test_zero_gate_records_no_edge_branch_op(monkeypatch, max_distance):
    """Under the zero gate no recorded op reads the edge embedding or a
    filter coefficient: the folded coefficients are built only when the
    edge branch runs."""
    cfg = replace(SMALL, fusion_gate="zero", max_distance=max_distance)
    model = TrajectoryForecaster(cfg, seed=0)
    edge_params = {id(model.params[name]) for name in
                   ["edge.w_embed", *(f"hll.theta{j}" for j in range(cfg.hll_order))]}
    readers = []
    record_op = stedge.autodiff._result

    def recording(data, op, parents, backward_fn):
        if any(id(p) in edge_params for p in parents):
            readers.append(op)
        return record_op(data, op, parents, backward_fn)

    monkeypatch.setattr(stedge.autodiff, "_result", recording)
    backward(model.loss(_circle_window(5)))
    assert readers == []


def test_pipeline_translation_invariant_forecast_shape():
    # velocities / norms / angles and edge distances are translation
    # invariant, so shifted windows give identical Gaussian parameters
    model = TrajectoryForecaster(SMALL, seed=0)
    w = gradcheck_window()
    shifted = Window(obs=w.obs + np.array([50.0, -20.0]),
                     fut=w.fut + np.array([50.0, -20.0]), ped_ids=w.ped_ids,
                     origin=w.origin + np.array([50.0, -20.0]))
    mu_a, ls_a, rho_a = model.forward(w)
    mu_b, ls_b, rho_b = model.forward(shifted)
    np.testing.assert_allclose(mu_a.data, mu_b.data, atol=1e-9)
    np.testing.assert_allclose(ls_a.data, ls_b.data, atol=1e-9)
    np.testing.assert_allclose(rho_a.data, rho_b.data, atol=1e-9)


@pytest.mark.parametrize("gate", ["vector", "zero"])
@pytest.mark.parametrize("max_distance", [None, 2.0])
@pytest.mark.parametrize("n", [2, 5, 12])
def test_forward_never_reads_the_future(n, max_distance, gate):
    """A forecast depends on the observed track only: any other finite
    future of the same shape leaves every output bit for bit unchanged."""
    model = TrajectoryForecaster(replace(SMALL, max_distance=max_distance,
                                         fusion_gate=gate), seed=0)
    w = _circle_window(n)
    fut = np.random.default_rng(n).normal(0.0, 50.0, w.fut.shape)
    other = Window(obs=w.obs, fut=fut, ped_ids=w.ped_ids, origin=w.origin)
    for a, b in zip(model.forward(w), model.forward(other), strict=True):
        np.testing.assert_array_equal(a.data, b.data)


def test_model_carries_no_state_between_windows():
    model = TrajectoryForecaster(SMALL, seed=0)
    windows = overfit_windows()
    base = [model.loss(w).item() for w in windows]
    fresh = TrajectoryForecaster(SMALL, seed=0)  # no state from earlier windows
    again = [fresh.loss(w).item() for w in windows]
    np.testing.assert_array_equal(base, again)


def _count_eigensolves(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        solver = getattr(np.linalg, name)

        def counted(*args, _name=name, _solver=solver, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("gate", ["vector", "zero"])
@pytest.mark.parametrize("max_distance", [None, 1.0])
def test_forward_takes_one_eigvalsh_per_patch_with_edges(monkeypatch, max_distance, gate):
    """lam comes from eigenvalues alone, one solve per patch (every patch
    of this window has edges) in one stacked call when the edge branch
    runs; the model never asks for eigenvectors."""
    cfg = replace(SMALL, max_distance=max_distance, fusion_gate=gate)
    window = _circle_window(5)
    counts = patch_graphs(window.obs, cfg.patch_len, cfg.patch_stride,
                          cfg.max_distance).edge_counts
    assert counts.all() and len(counts) == cfg.n_patches
    calls = _count_eigensolves(monkeypatch)
    solved = []
    solver = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or solver(a))
    TrajectoryForecaster(cfg, seed=0).forward(window)
    assert calls["eigh"] == 0
    assert solved == ([cfg.n_patches] if gate != "zero" else [])


@pytest.mark.parametrize("max_distance", [None, 2.0])
def test_traced_loss_has_one_span_per_window_and_sizes_the_filter_by_edges(
        monkeypatch, capsys, max_distance):
    """The benchmark's tracer (``perfbench/tracing.py``) reads the model
    through the names it wraps: one features, segment, attention, filter,
    fusion and encoder span and two head-and-loss spans per loss, all K
    patches in each, and the Laguerre filter's span sized by
    ``len(graph.edge_index)``, every edge of the window, which
    ``edges_per_patch`` and ``hll_us_per_edge`` divide by.  A layer
    renamed or inlined would silently zero its per-layer metric, so the
    names the tracer finds missing are exactly the five structure builders
    the patch graph replaced."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans, tracing = importlib.import_module("spans"), importlib.import_module("tracing")
    cfg = replace(SMALL, max_distance=max_distance)
    window = _circle_window(5)
    graphs = patch_graphs(window.obs, cfg.patch_len, cfg.patch_stride,
                          cfg.max_distance)
    rec = spans.SpanRecorder()
    with tracing.installed(rec):
        backward(TrajectoryForecaster(cfg, seed=0).loss(window))
    stale = ["boundary_operator", "hodge_laplacian", "scale_laplacian", "line_graph",
             "edge_selectors"]
    assert capsys.readouterr().err == (
        f"perfbench: not traced, absent from the program: {stale}\n")
    names = [s.name for s in rec.spans]
    for span, count in [("data.features", 1), ("stgraph.segment", 1), ("stgraph.gat", 1),
                        ("edgegraph.fusion", 1), ("predictor.encoder", 1),
                        ("predictor.head_loss", 2)]:
        assert names.count(span) == count, span
    filter_sizes = [s.size for s in rec.spans if s.name == "edgegraph.hll"]
    assert filter_sizes == [len(graphs.edge_index)] and filter_sizes[0] > 0


def test_max_distance_variant_runs():
    cfg = ModelConfig(model_dim=8, encoder_dim=16, encoder_heads=2,
                      encoder_layers=1, max_distance=1.5)
    model = TrajectoryForecaster(cfg, seed=0)
    loss = model.loss(gradcheck_window())
    assert np.isfinite(loss.item())
