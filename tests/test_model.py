import hashlib

import numpy as np
import pytest

from stedge.autodiff import ShapeMismatchError, backward
from stedge.data import Window
from stedge.model import (
    ModelConfig,
    TrajectoryForecaster,
    gradcheck_parameters,
    init_parameters,
)
from stedge.synth import gradcheck_window, overfit_windows

SMALL = ModelConfig(model_dim=8, encoder_dim=16, encoder_heads=2, encoder_layers=1)


def test_config_derived_sizes():
    cfg = ModelConfig()
    assert cfg.n_patches == 6
    assert cfg.token_len == 18
    enc = cfg.encoder_config()
    assert enc.model_dim == 256 and enc.heads == 4 and enc.ffn_dim == 512


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
    (ModelConfig(model_dim=8, encoder_dim=16, encoder_heads=2, encoder_layers=1,
                 fusion_gate="scalar"), 3,
     "5a417476b55bc611b69a6abf192ef6f994a69fc645900712ec2f89f0cd83277f"),
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


def test_structure_cache_consistency():
    model = TrajectoryForecaster(SMALL, seed=0)
    windows = overfit_windows()
    base = [model.loss(w).item() for w in windows]
    fresh = TrajectoryForecaster(SMALL, seed=0)  # no warm cache
    again = [fresh.loss(w).item() for w in windows]
    np.testing.assert_array_equal(base, again)


def test_max_distance_variant_runs():
    cfg = ModelConfig(model_dim=8, encoder_dim=16, encoder_heads=2,
                      encoder_layers=1, max_distance=1.5)
    model = TrajectoryForecaster(cfg, seed=0)
    loss = model.loss(gradcheck_window())
    assert np.isfinite(loss.item())


def test_attention_export():
    model = TrajectoryForecaster(SMALL, seed=0)
    mu, log_sigma, rho, attn = model.forward(gradcheck_window(),
                                             return_attention=True)
    assert len(attn) == SMALL.encoder_layers
    assert attn[0].shape == (2, SMALL.encoder_heads, SMALL.token_len,
                             SMALL.token_len)
    np.testing.assert_allclose(attn[0].data.sum(axis=-1), 1.0, atol=1e-12)
