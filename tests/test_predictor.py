import math

import numpy as np
import pytest

from stedge.autodiff import ParameterStore, Tensor, attention, backward, gradcheck
from stedge.predictor import (
    GaussianTrack,
    LOG_TWO_PI,
    assemble_tokens,
    bivariate_nll,
    encoder_forward,
    gaussian_parameters,
    layer_norm,
    sample_trajectories,
    stack_and_pool,
)


# -- pooling and token assembly -------------------------------------------------


def test_pool_length_one_is_identity():
    rng = np.random.default_rng(0)
    embeddings = [Tensor(rng.normal(size=(3, 4))) for _ in range(5)]
    pooled = stack_and_pool(embeddings, n_peds=3, length=1)
    assert pooled.shape == (3, 5, 4)
    for k, e in enumerate(embeddings):
        np.testing.assert_array_equal(pooled.data[:, k], e.data)


def test_pool_constant_rows_pass_through():
    v = np.arange(4.0)
    block = Tensor(np.tile(v, (6, 1)))  # 2 peds x L=3, all rows equal v
    pooled = stack_and_pool([block], n_peds=2, length=3)
    np.testing.assert_allclose(pooled.data, np.tile(v, (2, 1, 1)), atol=0)


def test_pool_arithmetic_mean():
    block = Tensor(np.array([[1.0], [2.0], [3.0], [10.0], [20.0], [30.0]]))
    pooled = stack_and_pool([block], n_peds=2, length=3)
    np.testing.assert_allclose(pooled.data[:, 0, 0], [2.0, 20.0], atol=0)


def test_assemble_tokens_shapes_and_sharing():
    rng = np.random.default_rng(1)
    hist = Tensor(rng.normal(size=(2, 6, 4)))
    placeholder = Tensor(rng.normal(size=(12, 4)))
    positional = Tensor(rng.normal(size=(18, 4)))
    tokens = assemble_tokens(hist, placeholder, positional)
    assert tokens.shape == (2, 18, 4)  # K + T_pred = 6 + 12
    # shared placeholder: past each pedestrian's own last history token,
    # its future rows are identical across pedestrians
    own = tokens.data[:, 6:] - hist.data[:, 5:6]
    np.testing.assert_allclose(own[0], own[1], atol=1e-12)
    np.testing.assert_allclose(own[0], placeholder.data + positional.data[6:],
                               atol=1e-12)


def test_assemble_tokens_zero_placeholder_zero_positions():
    hist = Tensor(np.random.default_rng(2).normal(size=(2, 6, 4)))
    tokens = assemble_tokens(hist, Tensor(np.zeros((12, 4))),
                             Tensor(np.zeros((18, 4))))
    # future rows start from each pedestrian's last history token
    np.testing.assert_array_equal(tokens.data[:, 6:],
                                  np.repeat(hist.data[:, 5:6], 12, axis=1))
    np.testing.assert_array_equal(tokens.data[:, :6], hist.data)


def test_token_count_reduction_vs_unpatched():
    # patching to K=6 tokens shrinks the attention matrix quadratically
    k, t_obs, t_pred = 6, 8, 12
    assert (k + t_pred) ** 2 < (t_obs + t_pred) ** 2


# -- encoder ----------------------------------------------------------------------


def _encoder_params(e, ffn, layers, seed=0) -> ParameterStore:
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    for i in range(layers):
        lp = f"enc.l{i}"
        for name in ("q", "k", "v", "o"):
            store.add(f"{lp}.att.w{name}", rng.normal(size=(e, e)) / math.sqrt(e))
            if name != "k":
                store.add(f"{lp}.att.b{name}", np.zeros(e))
        store.add(f"{lp}.ln1.g", np.ones(e))
        store.add(f"{lp}.ln1.b", np.zeros(e))
        store.add(f"{lp}.ffn.w1", rng.normal(size=(e, ffn)) / math.sqrt(e))
        store.add(f"{lp}.ffn.b1", np.zeros(ffn))
        store.add(f"{lp}.ffn.w2", rng.normal(size=(ffn, e)) / math.sqrt(e))
        store.add(f"{lp}.ffn.b2", np.zeros(e))
        store.add(f"{lp}.ln2.g", np.ones(e))
        store.add(f"{lp}.ln2.b", np.zeros(e))
    return store


def test_encoder_single_token_attention_is_one():
    # one position: its weight is exactly 1, so the context is v itself
    rng = np.random.default_rng(3)
    q, k, v = (Tensor(rng.normal(size=(2, 1, 8))) for _ in range(3))
    assert attention(q, k, v, heads=2).data.tobytes() == v.data.tobytes()


def test_encoder_equal_tokens_uniform_attention():
    # every query and every key alike: uniform weights, the context is v's
    # mean over the positions
    rng = np.random.default_rng(4)
    q = Tensor(np.tile(rng.normal(size=8), (2, 5, 1)))
    k = Tensor(np.tile(rng.normal(size=8), (2, 5, 1)))
    v = rng.normal(size=(2, 5, 8))
    ctx = attention(q, k, Tensor(v), heads=2).data
    np.testing.assert_allclose(ctx, np.broadcast_to(v.mean(axis=1, keepdims=True),
                                                    v.shape), atol=1e-12)


def test_encoder_attention_rows_sum_to_one():
    # v constant along the positions: whatever the weights, a row summing
    # to one returns v
    rng = np.random.default_rng(5)
    q, k = (Tensor(rng.normal(size=(3, 7, 16))) for _ in range(2))
    v = np.repeat(rng.normal(size=(3, 1, 16)), 7, axis=1)
    ctx = attention(q, k, Tensor(v), heads=4)
    assert ctx.shape == (3, 7, 16)
    np.testing.assert_allclose(ctx.data, v, atol=1e-12)


def test_encoder_per_pedestrian_independence():
    params = _encoder_params(8, 16, layers=2, seed=6)
    tokens = np.random.default_rng(6).normal(size=(4, 5, 8))
    out = encoder_forward(Tensor(tokens), params, heads=2, layers=2).data
    perm = np.array([2, 0, 3, 1])
    out_perm = encoder_forward(Tensor(tokens[perm]), params, heads=2, layers=2).data
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)


def test_layer_norm_normalizes():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(3.0, 2.0, size=(2, 5, 8)))
    out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)


def test_encoder_gradients():
    # layer normalization leaves some weight directions nearly flat, so a few
    # true gradients sit at ~1e-9 where the relative-error formula is all
    # finite-difference noise; compare elementwise with an absolute floor
    params = _encoder_params(4, 8, layers=1, seed=8)
    tokens = Tensor(np.random.default_rng(8).normal(size=(1, 3, 4)),
                    requires_grad=True)

    def f():
        out = encoder_forward(tokens, params, heads=2, layers=1)
        return (out * out).mean()

    checked = [tokens, *params.tensors()]
    for p in checked:
        p.grad = None
    backward(f())
    eps = 1e-5
    for p in checked:
        analytic = np.zeros_like(p.data) if p.grad is None else p.grad
        flat, ga = p.data.reshape(-1), analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f().item()
            flat[i] = orig - eps
            fm = f().item()
            flat[i] = orig
            fd = (fp - fm) / (2 * eps)
            assert fd == pytest.approx(ga[i], rel=1e-5, abs=1e-7)


# -- Gaussian head and loss ---------------------------------------------------------


def _head_fixture(n=2, t_pred=3, d=6, seed=9):
    rng = np.random.default_rng(seed)
    y = Tensor(rng.normal(size=(n, 5 + t_pred, d)))
    w = Tensor(rng.normal(size=(d, 5)) * 0.3, requires_grad=True)
    b = Tensor(np.zeros(5), requires_grad=True)
    return y, w, b


def test_gaussian_parameters_ranges():
    y, w, b = _head_fixture()
    mu, log_sigma, rho = gaussian_parameters(y, w, b, t_pred=3)
    assert mu.shape == (2, 3, 2) and log_sigma.shape == (2, 3, 2)
    assert np.all(np.abs(rho.data) <= 0.999)


def test_nll_at_mean_is_log_two_pi():
    targets = np.array([[[0.4, -0.2]]])
    mu = Tensor(targets.copy())
    log_sigma = Tensor(np.zeros((1, 1, 2)))
    rho = Tensor(np.zeros((1, 1, 1)))
    loss = bivariate_nll(mu, log_sigma, rho, targets)
    assert loss.item() == pytest.approx(LOG_TWO_PI, abs=1e-12)


def test_nll_unit_offset():
    targets = np.zeros((1, 1, 2))
    mu = Tensor(np.ones((1, 1, 2)))  # offset (1, 1): quadratic form 2, halved
    loss = bivariate_nll(mu, Tensor(np.zeros((1, 1, 2))),
                         Tensor(np.zeros((1, 1, 1))), targets)
    assert loss.item() == pytest.approx(LOG_TWO_PI + 1.0, abs=1e-12)


def test_nll_rho_zero_factorizes():
    rng = np.random.default_rng(10)
    targets = rng.normal(size=(2, 4, 2))
    mu = rng.normal(size=(2, 4, 2))
    log_sigma = rng.normal(size=(2, 4, 2)) * 0.3
    loss = bivariate_nll(Tensor(mu), Tensor(log_sigma),
                         Tensor(np.zeros((2, 4, 1))), targets)
    sigma = np.exp(log_sigma)
    uni = (0.5 * math.log(2 * math.pi) + log_sigma
           + (targets - mu) ** 2 / (2 * sigma ** 2))
    assert loss.item() == pytest.approx(uni.sum(axis=-1).mean(), abs=1e-10)


def test_nll_gradient_zero_at_stationary_point():
    targets = np.array([[[0.3, 0.7], [-0.5, 0.1]]])
    mu = Tensor(targets.copy(), requires_grad=True)
    loss = bivariate_nll(mu, Tensor(np.zeros((1, 2, 2))),
                         Tensor(np.zeros((1, 2, 1))), targets)
    backward(loss)
    np.testing.assert_allclose(mu.grad, 0.0, atol=1e-14)
    # and finite differences agree it is a stationary point
    err = gradcheck(lambda: bivariate_nll(mu, Tensor(np.zeros((1, 2, 2))),
                                          Tensor(np.zeros((1, 2, 1))), targets),
                    [mu], eps=1e-5)
    assert err < 1e-5


def test_gaussian_parameters_then_nll_gradients():
    y, w, b = _head_fixture()
    targets = np.random.default_rng(11).normal(size=(2, 3, 2))
    err = gradcheck(lambda: bivariate_nll(*gaussian_parameters(y, w, b, 3), targets),
                    [w, b], eps=1e-5)
    assert err < 1e-4


def test_loss_reads_only_last_t_pred_positions():
    """Parameter gradients are identical whether historical encoder outputs
    are excluded or included with zero weight."""
    y, w, b = _head_fixture()
    t_pred = 3
    targets = np.random.default_rng(12).normal(size=(2, t_pred, 2))

    w.grad = b.grad = None
    backward(bivariate_nll(*gaussian_parameters(y, w, b, t_pred), targets))
    grad_sliced = (w.grad.copy(), b.grad.copy())

    w.grad = b.grad = None
    from stedge.autodiff import tanh
    raw_all = y @ w + b  # head applied to every position this time
    mu_all = raw_all[:, -t_pred:, 0:2]
    log_sigma_all = raw_all[:, -t_pred:, 2:4]
    rho_all = tanh(raw_all[:, -t_pred:, 4:5]) * 0.999
    historical_sink = (raw_all[:, :-t_pred, :] * 0.0).sum()
    loss = bivariate_nll(mu_all, log_sigma_all, rho_all, targets) + historical_sink
    backward(loss)
    np.testing.assert_allclose(w.grad, grad_sliced[0], atol=1e-12)
    np.testing.assert_allclose(b.grad, grad_sliced[1], atol=1e-12)


# -- sampling ---------------------------------------------------------------------


def _track(mu, sigma, rho, origin=None, n=1, t=1):
    mu = np.broadcast_to(np.asarray(mu, float), (n, t, 2)).copy()
    sigma = np.broadcast_to(np.asarray(sigma, float), (n, t, 2)).copy()
    rho = np.broadcast_to(np.asarray(rho, float), (n, t)).copy()
    if origin is None:
        origin = np.zeros((n, 2))
    return GaussianTrack(mu=mu, sigma=sigma, rho=rho, origin=origin,
                         ped_ids=list(range(1, n + 1)))


def test_sampling_degenerate_sigma_returns_mu_path():
    track = _track([0.5, -0.25], [1e-12, 1e-12], 0.0, n=2, t=4)
    samples = sample_trajectories(track, count=5, seed=0)
    want = track.origin[:, None, :] + np.cumsum(track.mu, axis=1)
    for s in range(5):
        np.testing.assert_allclose(samples[s], want, atol=1e-9)


def test_sampling_is_deterministic_per_seed_and_index():
    track = _track([0.0, 0.0], [1.0, 1.0], 0.3, n=2, t=3)
    a = sample_trajectories(track, count=4, seed=7)
    b = sample_trajectories(track, count=4, seed=7)
    np.testing.assert_array_equal(a, b)
    c = sample_trajectories(track, count=2, seed=7)
    np.testing.assert_array_equal(a[:2], c)  # per-sample streams independent
    d = sample_trajectories(track, count=4, seed=8)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("rho", [0.0, 0.8])
def test_sampling_statistics(rho):
    track = _track([0.0, 0.0], [1.0, 1.0], rho, n=1, t=1)
    samples = sample_trajectories(track, count=100_000, seed=123)
    draws = samples[:, 0, 0, :]
    cov = np.cov(draws.T)
    want = np.array([[1.0, rho], [rho, 1.0]])
    np.testing.assert_allclose(cov, want, atol=0.05)
    corr = np.corrcoef(draws.T)[0, 1]
    assert corr == pytest.approx(rho, abs=0.05)


def test_track_invariants_enforced():
    with pytest.raises(ValueError):
        _track([0.0, 0.0], [0.0, 1.0], 0.0)
    with pytest.raises(ValueError):
        _track([0.0, 0.0], [1.0, 1.0], 1.0)


@pytest.mark.parametrize("field", ["mu", "sigma", "rho", "origin"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_track_rejects_non_finite_values(field, bad):
    # a NaN sigma or rho passes every comparison, and sampling would return
    # NaN futures without an error
    track = _track([0.5, -0.25], [1.0, 1.0], 0.3, n=2, t=3)
    arrays = {name: getattr(track, name).copy()
              for name in ("mu", "sigma", "rho", "origin")}
    arrays[field].flat[-1] = bad
    with pytest.raises(ValueError, match=f"GaussianTrack.{field} is not finite"):
        GaussianTrack(**arrays, ped_ids=track.ped_ids)


@pytest.mark.parametrize("field, shape", [
    ("mu", (2, 3)), ("sigma", (2, 3, 1)), ("sigma", (2, 4, 2)), ("rho", (2, 3, 1)),
    ("rho", (1, 3)), ("origin", (2, 3, 2)), ("origin", (1, 2)),
])
def test_track_rejects_mismatched_shapes(field, shape):
    arrays = {"mu": np.zeros((2, 3, 2)), "sigma": np.ones((2, 3, 2)),
              "rho": np.zeros((2, 3)), "origin": np.zeros((2, 2))}
    arrays[field] = np.ones(shape) * 0.5
    with pytest.raises(ValueError, match=f"GaussianTrack.{field} must be"):
        GaussianTrack(**arrays, ped_ids=[1, 2])


def test_track_needs_one_ped_id_per_pedestrian():
    track = _track([0.0, 0.0], [1.0, 1.0], 0.0, n=1, t=2)
    with pytest.raises(ValueError, match=r"N = 3 ped_ids"):
        GaussianTrack(mu=track.mu, sigma=track.sigma, rho=track.rho,
                      origin=track.origin, ped_ids=[1, 2, 3])
