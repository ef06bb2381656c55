"""End-to-end wiring: features -> unified patch graphs -> edge-enhanced
fusion -> encoder tokens -> bivariate Gaussian forecasts.

The three motion embeddings are each ``model_dim`` wide, so the concatenated
feature width is 3*model_dim and a learned projection brings it back to
``model_dim`` before the graph stage.  Graph structure (boundary operator,
scaled Hodge operator, fusion selectors and degrees; every array n x m or
smaller) depends only on the pedestrian count when patches are complete
graphs, so it is cached per N.

The Laguerre edge filter runs on the raw (m, 1) edge distances D.  The
edge embedding w (``edge.w_embed``, 1 x model_dim) is linear and has no
bias, and the filter is linear in its input, so the two evaluation
orders are one function, not an approximation:
sum_j G_j(L) (D w) theta_j = sum_j (G_j(L) D) (w theta_j).  Each order's
coefficients become w theta_j, built once per window, and the Hodge
products act on one column instead of model_dim.  The parameters,
their gradients and the checkpoint layout are those of embedding first.

Three choices keep each pedestrian's forecast its own and keep training
by adaptive moments smooth (see ``init_parameters`` and
``TrajectoryForecaster.forward``):

* Each node's own features are carried around the graph stage, and the
  fusion layer averages its gated neighbour messages (``fusion_gcn``).  On
  a complete patch graph, attention and an unnormalised neighbour sum pull
  every node towards the patch mean; without these, two walkers moving in
  opposite directions reached the encoder nearly indistinguishable, and
  the head had to amplify that residue by large weights.
* Each pedestrian's future tokens start from its last history token, added
  to the shared placeholders (``assemble_tokens``), whose initial scale is
  small next to it.
* Every parameter carries a fixed step scale, so one optimizer step
  moves the forecast by a small, bounded amount instead of by fan-in times
  the learning rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from stedge.autodiff import ParameterStore, ShapeMismatchError, Tensor
from stedge.data import Window, future_displacements, init_features
from stedge.edgegraph import (
    BoundaryOperator,
    EdgeGraph,
    HodgeOperator,
    LaguerreFilter,
    boundary_operator,
    edge_distances,
    edge_selectors,
    fusion_gcn,
    hll_conv,
    hodge_operator,
    node_degrees,
)
from stedge.predictor import (
    EncoderConfig,
    GaussianTrack,
    assemble_tokens,
    bivariate_nll,
    encoder_forward,
    gaussian_parameters,
    stack_and_pool,
    track_from_tensors,
)
from stedge.stgraph import PatchingConfig, gat_layer, patch_count, segment_patches

_STREAM_INIT = 0

# Step scales (see init_parameters).  A hidden weight matrix with fan-in f
# steps at _HIDDEN_STEP / sqrt(f); the head's weights step at
# _READOUT_STEP / encoder_dim per output column (mu x/y, log-sigma x/y,
# rho), which is also their initial scale relative to Glorot, and its
# bias steps at _BIAS_STEP.  Everything else steps at 1.
_HIDDEN_STEP = 0.5
_READOUT_STEP = (0.5, 0.5, 0.25, 0.25, 0.25)
_BIAS_STEP = (1.0, 1.0, 4.0, 4.0, 1.0)


@dataclass(frozen=True)
class ModelConfig:
    t_obs: int = 8
    t_pred: int = 12
    patch_len: int = 3
    patch_stride: int = 1
    model_dim: int = 128
    encoder_dim: int = 256
    encoder_heads: int = 4
    encoder_layers: int = 2
    hll_order: int = 3
    hll_rescale: bool = True
    fusion_gate: str = "vector"     # vector | scalar | zero
    endpoint_mode: str = "off"      # off | last_velocity | oracle_gt
    max_distance: float | None = None

    @property
    def n_patches(self) -> int:
        return patch_count(self.t_obs, self.patching())

    @property
    def token_len(self) -> int:
        return self.n_patches + self.t_pred

    def patching(self) -> PatchingConfig:
        return PatchingConfig(self.patch_len, self.patch_stride)

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(layers=self.encoder_layers, heads=self.encoder_heads,
                             model_dim=self.encoder_dim,
                             ffn_dim=2 * self.encoder_dim)


def _glorot(rng, shape) -> np.ndarray:
    fan_in = shape[0]
    fan_out = shape[-1] if len(shape) > 1 else 1
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_parameters(cfg: ModelConfig, seed: int = 0) -> ParameterStore:
    """Seeded parameter store; declaration order fixes the checkpoint layout.

    Each parameter is declared with a fixed factor on its optimizer step
    (``ParameterStore.add``).  An adaptive-moment step moves every
    parameter by about the learning rate, whatever its gradient, so a
    linear map with fan-in f moves its outputs by up to f * lr per step.
    The likelihood's curvature grows as 1/sigma^2 while sigma shrinks
    towards the noise level, and steps that large crossed the edge of
    stability: the loss burst, and each burst stalled training for many
    epochs.  The scales bound a hidden layer's per-step change to about
    sqrt(f) * lr / 2 and the head's to a small fraction of lr.  log-sigma
    and rho read the representation at half mu's rate: rho because the
    curvature also grows as 1/(1 - rho^2), log-sigma because its common
    level is carried by its bias instead.  That bias steps four times
    faster than lr, because the level must fall by several nats (from unit
    scale to the noise level) while any one parameter moves by at most the
    sum of the schedule's learning rates; built up in the shared
    representation instead, the level would make mu hypersensitive again.
    """
    rng = np.random.default_rng([seed, _STREAM_INIT])
    m, e = cfg.model_dim, cfg.encoder_dim
    store = ParameterStore()

    def hidden(name, shape):
        store.add(name, _glorot(rng, shape),
                  step_scale=_HIDDEN_STEP / math.sqrt(shape[0]))

    hidden("feat.w_v", (2, m))
    hidden("feat.w_norm", (1, m))
    hidden("feat.w_angle", (1, m))
    hidden("feat.w_proj", (3 * m, m))
    hidden("gat.theta", (m, m))
    hidden("gat.theta_dst", (m, m))
    hidden("gat.att", (m,))
    hidden("edge.w_embed", (1, m))
    for j in range(cfg.hll_order):
        hidden(f"hll.theta{j}", (m, m))
    hidden("fuse.theta", (m, m))
    hidden("fuse.phi", (m, 1) if cfg.fusion_gate == "scalar" else (m, m))
    # small next to the pooled history, which carries each pedestrian's motion
    store.add("pred.placeholder", rng.normal(0.0, 0.1, size=(cfg.t_pred, m)))
    store.add("pred.positional", rng.normal(0.0, 0.1, size=(cfg.token_len, m)))
    hidden("enc.in_w", (m, e))
    store.add("enc.in_b", np.zeros(e))
    for i in range(cfg.encoder_layers):
        lp = f"enc.l{i}"
        for name in ("q", "k", "v", "o"):
            hidden(f"{lp}.att.w{name}", (e, e))
            if name != "k":  # key bias would be dead under the softmax
                store.add(f"{lp}.att.b{name}", np.zeros(e))
        store.add(f"{lp}.ln1.g", np.ones(e))
        store.add(f"{lp}.ln1.b", np.zeros(e))
        hidden(f"{lp}.ffn.w1", (e, 2 * e))
        store.add(f"{lp}.ffn.b1", np.zeros(2 * e))
        hidden(f"{lp}.ffn.w2", (2 * e, e))
        store.add(f"{lp}.ffn.b2", np.zeros(e))
        store.add(f"{lp}.ln2.g", np.ones(e))
        store.add(f"{lp}.ln2.b", np.zeros(e))
    # a small head starts the forecast near the standard bivariate normal
    # (mu 0, sigma 1, rho 0) whatever the seed; a Glorot-sized one started
    # some seeds at losses in the thousands
    readout = np.asarray(_READOUT_STEP) / e
    store.add("head.w", _glorot(rng, (e, 5)) * readout, step_scale=readout)
    store.add("head.b", np.zeros(5), step_scale=np.asarray(_BIAS_STEP))
    return store


def gradcheck_parameters(cfg: ModelConfig, seed: int = 0) -> ParameterStore:
    """``init_parameters`` with the head at its full Glorot draw, the
    parameter point at which gradients are checked.

    The freshly shrunk head puts every forecast near the standard normal,
    where the likelihood is so flat that some attention-key gradients are
    about 1e-9.  Central differences resolve those only to float noise: on
    the two-pedestrian fixture the relative error there grows as 1/eps
    (2e-4, 1e-3 and 9e-3 at eps 1e-4, 1e-5 and 1e-6).  At the full draw
    the same graph and backward rules check to below 1e-5 at eps 1e-5.
    """
    params = init_parameters(cfg, seed)
    params["head.w"].data /= np.asarray(_READOUT_STEP) / cfg.encoder_dim
    return params


@dataclass
class _PatchStructure:
    """Constant per-patch graph machinery; reused across patches/windows."""

    boundary: BoundaryOperator
    hodge: HodgeOperator
    selectors: tuple[np.ndarray, np.ndarray]
    degree: np.ndarray


class TrajectoryForecaster:
    """The full pipeline behind one parameter store."""

    def __init__(self, cfg: ModelConfig, params: ParameterStore | None = None,
                 seed: int = 0):
        self.cfg = cfg
        self.params = params if params is not None else init_parameters(cfg, seed)
        self._structures: dict[int, _PatchStructure] = {}

    # -- structure ---------------------------------------------------------

    def _structure_for(self, adjacency: np.ndarray) -> _PatchStructure:
        boundary = boundary_operator(adjacency)
        n = adjacency.shape[0]
        return _PatchStructure(
            boundary=boundary,
            hodge=hodge_operator(boundary, self.cfg.hll_rescale),
            selectors=edge_selectors(boundary.edge_index, n),
            degree=node_degrees(boundary.edge_index, n))

    def _cached_structure(self, patch) -> _PatchStructure:
        if self.cfg.max_distance is not None:
            return self._structure_for(patch.adjacency)  # position-dependent
        struct = self._structures.get(patch.n_peds)
        if struct is None:
            struct = self._structure_for(patch.adjacency)
            self._structures[patch.n_peds] = struct
        return struct

    # -- forward -----------------------------------------------------------

    def forward(self, window: Window, return_attention: bool = False):
        cfg = self.cfg
        if window.t_obs != cfg.t_obs or window.t_pred != cfg.t_pred:
            raise ShapeMismatchError(
                f"window horizons ({window.t_obs}, {window.t_pred}) != "
                f"configured ({cfg.t_obs}, {cfg.t_pred})")
        params = self.params
        feats = init_features(window, params, cfg.endpoint_mode)
        x = feats @ params["feat.w_proj"]
        patches = segment_patches(x, cfg.patching(), positions=window.obs,
                                  max_distance=cfg.max_distance)

        # the edge embedding rides in the filter (see the module docstring)
        filt = LaguerreFilter([params["edge.w_embed"] @ params[f"hll.theta{j}"]
                               for j in range(cfg.hll_order)])
        fused = []
        for patch in patches:
            struct = self._cached_structure(patch)
            h_node = gat_layer(patch, params["gat.theta"],
                               params["gat.theta_dst"], params["gat.att"])
            h_edge = None
            if struct.boundary.n_edges and cfg.fusion_gate != "zero":
                dists = edge_distances(window, patch, struct.boundary.edge_index)
                graph = EdgeGraph(edge_index=struct.boundary.edge_index,
                                  features=Tensor(dists[:, None]),
                                  hodge=struct.hodge)
                h_edge = hll_conv(graph, filt)
            update = fusion_gcn(h_node, h_edge, struct.boundary.edge_index,
                                params["fuse.theta"], params["fuse.phi"],
                                gate_mode=cfg.fusion_gate,
                                selectors=struct.selectors,
                                degree=struct.degree)
            # each node's own features ride around the graph stage, which
            # on a complete graph averages every node towards the patch mean
            fused.append(patch.features + update)

        pooled = stack_and_pool(fused, window.n_peds, cfg.patch_len)
        tokens = assemble_tokens(pooled, params["pred.placeholder"],
                                 params["pred.positional"])
        enc_in = tokens @ params["enc.in_w"] + params["enc.in_b"]
        result = encoder_forward(enc_in, cfg.encoder_config(), params,
                                 return_attention=return_attention)
        y_repr, attentions = result if return_attention else (result, None)
        mu, log_sigma, rho = gaussian_parameters(
            y_repr, params["head.w"], params["head.b"], cfg.t_pred)
        if return_attention:
            return mu, log_sigma, rho, attentions
        return mu, log_sigma, rho

    def loss(self, window: Window) -> Tensor:
        mu, log_sigma, rho = self.forward(window)
        return bivariate_nll(mu, log_sigma, rho, future_displacements(window))

    def predict(self, window: Window) -> GaussianTrack:
        mu, log_sigma, rho = self.forward(window)
        return track_from_tensors(mu, log_sigma, rho, window.origin,
                                  window.ped_ids)
