"""Token assembly, the transformer encoder, the bivariate Gaussian head,
and trajectory sampling.

Per-patch node embeddings are pooled over each pedestrian's L time slots
into K historical tokens; a shared learnable placeholder supplies the
T_pred future tokens, a learnable positional table is added to the whole
concatenated sequence, and a standard post-norm encoder attends over all
K + T_pred positions per pedestrian (no cross-pedestrian attention; social
mixing already happened in the graph stage).  Only the last T_pred outputs
feed the Gaussian head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from stedge.autodiff import (
    ParameterStore,
    ShapeMismatchError,
    Tensor,
    attention,
    concatenate,
    exp,
    layer_norm,
    linear,
    log,
    tanh,
)

LOG_TWO_PI = math.log(2.0 * math.pi)
RHO_BOUND = 0.999  # smooth clamp: rho = 0.999 * tanh(raw)

_STREAM_SAMPLING = 2  # sub-stream tag under the master seed


@dataclass
class GaussianTrack:
    """Per-pedestrian, per-step bivariate Gaussian forecast parameters."""

    mu: np.ndarray       # (N, T_pred, 2) relative displacement means
    sigma: np.ndarray    # (N, T_pred, 2) strictly positive
    rho: np.ndarray      # (N, T_pred) in (-1, 1)
    origin: np.ndarray   # (N, 2) last observed absolute position
    ped_ids: list[int]

    def __post_init__(self):
        n = len(self.ped_ids)
        t = np.shape(self.mu)[1] if np.ndim(self.mu) == 3 else None
        for name, dims, shape in (("mu", "N, T_pred, 2", (n, t, 2)),
                                  ("sigma", "N, T_pred, 2", (n, t, 2)),
                                  ("rho", "N, T_pred", (n, t)),
                                  ("origin", "N, 2", (n, 2))):
            value = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, value)
            if value.shape != shape:
                raise ValueError(f"GaussianTrack.{name} must be ({dims}) with N = {n} "
                                 f"ped_ids and mu's T_pred, got shape {value.shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"GaussianTrack.{name} is not finite")
        if np.any(self.sigma <= 0.0):
            raise ValueError("sigma must be strictly positive")
        if np.any(np.abs(self.rho) >= 1.0):
            raise ValueError("|rho| must be < 1")


def stack_and_pool(patch_embeddings: list[Tensor], n_peds: int,
                   length: int) -> Tensor:
    """Mean-pool each pedestrian's L node embeddings per patch -> (N, K, D).

    Relies on the pedestrian-major node order: rows [p*L, (p+1)*L) belong to
    pedestrian p, so pooling is a contiguous-stride mean.  The K patches
    pool as one (N, L, K, D) array: three recorded ops, whatever K.
    """
    rows = [h.shape[0] for h in patch_embeddings]
    if any(r != n_peds * length for r in rows):
        raise ShapeMismatchError(f"patch embedding rows {rows} != n_peds*length "
                                 f"{n_peds * length}")
    nodes = concatenate(patch_embeddings, axis=1)
    return nodes.reshape((n_peds, length, len(rows), -1)).mean(axis=1)


def assemble_tokens(hist: Tensor, placeholder: Tensor,
                    positional: Tensor) -> Tensor:
    """Concatenate history with future rows, add positions.

    Each pedestrian's future rows are its last history token plus the
    placeholder table (T_pred, D), which is shared across pedestrians; the
    positional table (K + T_pred, D) is added to every pedestrian's full
    sequence.  With shared placeholders alone a future row would learn
    whose future it is only through attention; starting it from the
    pedestrian's last token gives it that identity directly.
    """
    n, k, d = hist.shape
    t_pred = placeholder.shape[0]
    if positional.shape != (k + t_pred, d):
        raise ShapeMismatchError(
            f"positional table {positional.shape} != {(k + t_pred, d)}")
    fut = hist[:, k - 1:k, :] + placeholder.reshape((1, t_pred, d))
    return concatenate([hist, fut], axis=1) + positional


def encoder_forward(tokens: Tensor, params: ParameterStore, heads: int,
                    layers: int) -> Tensor:
    """Post-norm encoder stack; attention is full (non-causal) scaled
    dot-product attention over each pedestrian's positions (batch axis = N)."""
    x = tokens
    for i in range(layers):
        lp = f"enc.l{i}"
        # no key bias: a shared key offset shifts every logit of a query's
        # row equally, which the softmax cancels, so the parameter would be dead
        ctx = attention(linear(x, params[f"{lp}.att.wq"], params[f"{lp}.att.bq"]),
                        x @ params[f"{lp}.att.wk"],
                        linear(x, params[f"{lp}.att.wv"], params[f"{lp}.att.bv"]), heads)
        attn = linear(ctx, params[f"{lp}.att.wo"], params[f"{lp}.att.bo"])
        x = layer_norm(x + attn, params[f"{lp}.ln1.g"], params[f"{lp}.ln1.b"])
        ff = linear(x, params[f"{lp}.ffn.w1"], params[f"{lp}.ffn.b1"], relu=True)
        ff = linear(ff, params[f"{lp}.ffn.w2"], params[f"{lp}.ffn.b2"])
        x = layer_norm(x + ff, params[f"{lp}.ln2.g"], params[f"{lp}.ln2.b"])
    return x


def gaussian_parameters(y_repr: Tensor, head_w: Tensor, head_b: Tensor,
                        t_pred: int):
    """Project the last T_pred positions to (mu, log_sigma, rho) tensors."""
    raw = linear(y_repr[:, -t_pred:, :], head_w, head_b)
    mu = raw[..., 0:2]
    log_sigma = raw[..., 2:4]
    rho = tanh(raw[..., 4:5]) * RHO_BOUND
    return mu, log_sigma, rho


def bivariate_nll(mu: Tensor, log_sigma: Tensor, rho: Tensor,
                  targets) -> Tensor:
    """Mean negative log density of per-step displacement targets.

    Computed fully in log space: 1/sigma and 1/(1 - rho^2) enter as
    exp(-log u), so the guard against non-finite values never fires on
    valid parameters.
    """
    t = Tensor(np.asarray(targets, dtype=np.float64))
    if t.shape != mu.shape:
        raise ShapeMismatchError(f"targets {t.shape} != mu {mu.shape}")
    standard = (t - mu) * exp(-log_sigma)
    ex, ey = standard[..., 0:1], standard[..., 1:2]
    sx, sy = log_sigma[..., 0:1], log_sigma[..., 1:2]
    log_u = log(1.0 - rho * rho)
    quad = (ex * ex + ey * ey - (rho * ex * ey) * 2.0) * exp(-log_u) * 0.5
    nll = LOG_TWO_PI + sx + sy + log_u * 0.5 + quad
    return nll.mean()


def track_from_tensors(mu: Tensor, log_sigma: Tensor, rho: Tensor,
                       origin: np.ndarray, ped_ids: list[int]) -> GaussianTrack:
    return GaussianTrack(mu=mu.data.copy(),
                         sigma=np.exp(log_sigma.data),
                         rho=rho.data[..., 0].copy(),
                         origin=np.asarray(origin, dtype=np.float64).copy(),
                         ped_ids=list(ped_ids))


def sample_trajectories(track: GaussianTrack, count: int, seed=0) -> np.ndarray:
    """Draw ``count`` absolute trajectories, (count, N, T_pred, 2).

    Each sample uses an independent stream derived from (seed, sample
    index), so samples are reproducible and order-independent.  Per step,
    the 2x2 Cholesky factor of the covariance maps unit normals to
    displacements, which cumulative-sum from each pedestrian's origin.
    """
    base = list(seed) if isinstance(seed, (list, tuple)) else [int(seed)]
    n, t_pred = track.mu.shape[:2]
    sx, sy = track.sigma[..., 0], track.sigma[..., 1]
    rho = track.rho
    out = np.empty((count, n, t_pred, 2))
    for s in range(count):
        rng = np.random.default_rng(base + [s])
        z = rng.standard_normal((n, t_pred, 2))
        dx = track.mu[..., 0] + sx * z[..., 0]
        dy = track.mu[..., 1] + sy * (rho * z[..., 0]
                                      + np.sqrt(1.0 - rho * rho) * z[..., 1])
        steps = np.stack([dx, dy], axis=-1)
        out[s] = track.origin[:, None, :] + np.cumsum(steps, axis=1)
    return out


def sample_window(track: GaussianTrack, count: int, seed: int,
                  window_index: int) -> np.ndarray:
    """``sample_trajectories`` for the ``window_index``-th window of a run
    whose master seed is ``seed``, each window on its own sampling stream."""
    return sample_trajectories(track, count,
                               seed=[seed, _STREAM_SAMPLING, window_index])
