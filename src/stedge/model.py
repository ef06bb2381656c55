"""End-to-end wiring: features -> unified patch graphs -> edge-enhanced
fusion -> encoder tokens -> bivariate Gaussian forecasts.

The three motion embeddings are each ``model_dim`` wide, so the concatenated
feature width is 3*model_dim and a learned projection brings it back to
``model_dim`` before the graph stage.  The constant structure of a
window's K patches (one patch-tagged edge list and the edge lengths) is
built once per window by ``stgraph.patch_graphs``, which records no op,
and nothing is cached across windows.  The Hodge operator reads the edge
list and the node degrees counted off it, with no eigensolve, and so does
the one ``NodePairs`` index that the attention layer and the fusion's
gated mean read.  So a walker's forecast depends only on the walkers its
patches connect it to.

The Laguerre edge filter runs on the raw edge distances D, an (M,)
vector over all K patches' edges.  The edge embedding w (``edge.w_embed``, 1 x model_dim)
is linear and has no bias, and the filter is linear in its input, so the
two evaluation orders are one function, not an approximation:
sum_j G_j(L) (D w) theta_j = sum_j (G_j(L) D) (w theta_j).  Each order's
coefficients become w theta_j, built once per window when the edge branch
runs (not under the zero gate), and the Laguerre basis of the distances
is a constant, computed without recording any op.
The parameters, their gradients and the checkpoint layout are those of
embedding first.

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

The graph stage runs once per window, on all K patches at once, and
records one op per job, so a window's op count does not grow with K:
``segment_patches`` gives the (K, n, d) node features, the attention
layer (``gat_layer``) is one op after its two halves' products, and the
edge branch is one: ``hll_conv`` gives the constant (M, order) Laguerre
basis of the edge lengths, recording nothing, and ``fusion_gcn`` filters
it, maps it through ``fuse.phi`` and the sigmoid to the (M, d) gates and
averages the gated neighbour messages in one op, whose closure keeps
only the gates; the backward meets their gradient a block of edges at
a time.  The head reads only the T_pred future rows, so the encoder's
last layer computes only those (``encoder_forward``'s ``last_rows``),
and the head projects them as they come.

Before it records its first op, ``forward`` sums the window's estimated
tape (``tape_bytes``), the gradients every backward allocates and the
graph structure, node-pair index and temporaries beside them
(``step_bytes``); above physical memory it raises
``WindowTooLargeError``, a named error in place of an out-of-memory kill.
``predict`` records no tape, but its window is checked on the same
training estimate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from stedge.autodiff import (_BLOCK_ENTRIES, NodePairs, ParameterStore, ShapeMismatchError,
                             Tensor, concatenate, linear, node_pairs_bytes, segment_route)
from stedge.data import (DEFAULT_T_OBS, DEFAULT_T_PRED, Window,
                         future_displacements, init_features)
from stedge.edgegraph import fusion_gcn, hll_conv
from stedge.predictor import (
    GaussianTrack,
    assemble_tokens,
    bivariate_nll,
    encoder_forward,
    gaussian_parameters,
    stack_and_pool,
    track_from_tensors,
)
from stedge.stgraph import gat_layer, patch_count, patch_graphs, segment_patches

_STREAM_INIT = 0

# "vector" gates each message per channel; "zero" runs no edge branch
FUSION_GATES = ("vector", "zero")

# Step scales (see init_parameters).  A hidden weight matrix with fan-in f
# steps at _HIDDEN_STEP / sqrt(f); the head's weights step at
# _READOUT_STEP / encoder_dim per output column (mu x/y, log-sigma x/y,
# rho), which is also their initial scale relative to Glorot, and its
# bias steps at _BIAS_STEP.  Everything else steps at 1.
_HIDDEN_STEP = 0.5
_READOUT_STEP = (0.5, 0.5, 0.25, 0.25, 0.25)
_BIAS_STEP = (1.0, 1.0, 4.0, 4.0, 1.0)
_TABLE_SCALE = 0.1   # placeholders' and positions' initial scale, small next to the history

# float64 arrays that one window's forward records, per stage, in units of
# the stage's array size; counted off the ops (see tape_bytes)
_FEATURE_ARRAYS = 7      # (N, T_obs, d): three embeddings, their 3d-wide join, projection
# (K, n, d): the patches' node features, the attention's two halves,
# messages and ELU, the fusion's product, gated mean, sum and ELU, the
# residual sum and pooling's reshape
_NODE_ARRAYS = 11
_TOKEN_ARRAYS = 3        # (N, K + T_pred, d): the token sequence
_ENCODER_IN_ARRAYS = 1   # (N, K + T_pred, e): the input projection
# (N, K + T_pred, e) per encoder layer, the 2e-wide FFN hidden counting 2:
# q, k and v, the attention context and output, two residual sums, two
# layer norms and the FFN's two linears; the attention weights, the
# centred inputs and the pre-ReLU hidden are recomputed, not recorded
_LAYER_ARRAYS = 12
# the last layer records k and v over all K + T_pred rows, and the other
# ten arrays and the slice of its query rows over T_pred
_LAST_LAYER_KEYS = 2
_LAST_LAYER_ROWS = 11
# (N, T_pred): the entries per pedestrian and future step of the head's
# 5-wide projection and the 2- and 1-wide arrays of the likelihood
_HEAD_ENTRIES = 43
# bytes a step holds beyond its float arrays and node-pair index (see
# step_bytes): per edge, the edge list and length and the edge op's basis
# (per order); and the d-wide blocks of at most _BLOCK_ENTRIES over edges
# that the edge op's backward holds at once: gathered gradient and value
# rows, their product and gates' gradient
_EDGE_BYTES, _BASIS_BYTES, _BACKWARD_BLOCKS = 32, 8, 4


def _physical_memory() -> float:
    """Bytes of physical memory, or infinity where the OS does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        return math.inf


# the most memory one window's step may need; a window above it is refused
TAPE_BUDGET_BYTES = _physical_memory()


class WindowTooLargeError(ValueError):
    """A window's step would need more than physical memory."""


@dataclass(frozen=True)
class ModelConfig:
    t_obs: int = DEFAULT_T_OBS
    t_pred: int = DEFAULT_T_PRED
    patch_len: int = 3
    patch_stride: int = 1
    model_dim: int = 128
    encoder_dim: int = 256
    encoder_heads: int = 4
    encoder_layers: int = 2
    hll_order: int = 3
    fusion_gate: str = "vector"     # one of FUSION_GATES
    max_distance: float | None = 0.0   # 0 or None: complete graph, kept as None

    def __post_init__(self):
        for name, minimum in (("t_obs", 2), ("t_pred", 1), ("model_dim", 1),
                              ("encoder_dim", 1), ("encoder_heads", 1),
                              ("encoder_layers", 1), ("hll_order", 1)):
            if getattr(self, name) < minimum:
                raise ValueError(f"{name} must be >= {minimum}, "
                                 f"got {getattr(self, name)}")
        patch_count(self.t_obs, self.patch_len, self.patch_stride)  # checks L and S
        if self.encoder_dim % self.encoder_heads:
            raise ValueError(f"encoder_dim {self.encoder_dim} is not divisible "
                             f"by encoder_heads {self.encoder_heads}")
        if self.fusion_gate not in FUSION_GATES:
            raise ValueError(f"unknown fusion gate {self.fusion_gate!r}; "
                             f"expected one of {FUSION_GATES}")
        if self.max_distance == 0:
            object.__setattr__(self, "max_distance", None)
        if self.max_distance is not None and not 0 < self.max_distance < math.inf:
            raise ValueError(f"max_distance must be finite and >= 0, "
                             f"got {self.max_distance}")

    @property
    def n_patches(self) -> int:
        return patch_count(self.t_obs, self.patch_len, self.patch_stride)

    @property
    def token_len(self) -> int:
        return self.n_patches + self.t_pred


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
    hidden("fuse.phi", (m, m))
    store.add("pred.placeholder", rng.normal(0.0, _TABLE_SCALE, size=(cfg.t_pred, m)))
    store.add("pred.positional", rng.normal(0.0, _TABLE_SCALE, size=(cfg.token_len, m)))
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


def tape_bytes(cfg: ModelConfig, n_peds: int, edge_counts) -> int:
    """Estimated bytes of the arrays one window's forward records (its
    tape), from N, the widths and each patch's edge count: each op's
    output and what its closure keeps of its own.  The backward frees
    each op's arrays once it has passed the op, so the tape is what a step
    holds when its backward starts.  The edge branch records only its
    (M, d) gates in (0, 1) (the filtered embedding is recomputed); the
    graph attention keeps its weights, (K, n, n) on the grid route and one
    per directed pair and self-loop on the segment route, and no array
    grows as n^2 d; the encoder records no (K + T_pred)^2 attention
    weights, and its last layer only k and v over all K + T_pred rows."""
    d, e, length, t_pred = cfg.model_dim, cfg.encoder_dim, cfg.token_len, cfg.t_pred
    n, patches, edges = n_peds * cfg.patch_len, len(edge_counts), int(sum(edge_counts))
    entries = _FEATURE_ARRAYS * n_peds * cfg.t_obs * d
    entries += _NODE_ARRAYS * patches * n * d
    entries += (2 * edges + patches * n if segment_route(patches, n, edges)
                else patches * n * n)
    entries += edges * d * (cfg.fusion_gate != "zero")
    entries += n_peds * length * (_TOKEN_ARRAYS * d + _ENCODER_IN_ARRAYS * e)
    entries += n_peds * e * ((cfg.encoder_layers - 1) * _LAYER_ARRAYS * length
                             + _LAST_LAYER_KEYS * length + _LAST_LAYER_ROWS * t_pred)
    entries += n_peds * t_pred * _HEAD_ENTRIES
    return 8 * entries


def step_bytes(cfg: ModelConfig, n_peds: int, edge_counts,
               n_values: int) -> tuple[int, int, int]:
    """The three terms the memory guard sums for one window's training
    step: the tape (``tape_bytes``), the leaf gradients every backward
    allocates (8 bytes for each of the ``n_values`` parameter values) and
    what the step holds beyond those float arrays: the window's patch
    structure and node-pair index (``node_pairs_bytes``), held to the
    forward's last op, the edge op's basis and its backward's blocks."""
    n, patches, edges = n_peds * cfg.patch_len, len(edge_counts), int(sum(edge_counts))
    held = _EDGE_BYTES * edges + node_pairs_bytes(patches, n, edges)
    if cfg.fusion_gate != "zero" and edges:
        held += _BASIS_BYTES * cfg.hll_order * edges
        held += 8 * _BACKWARD_BLOCKS * min(_BLOCK_ENTRIES, edges * cfg.model_dim)
    return tape_bytes(cfg, n_peds, edge_counts), 8 * n_values, held


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


class TrajectoryForecaster:
    """The full pipeline behind one parameter store."""

    def __init__(self, cfg: ModelConfig, params: ParameterStore | None = None,
                 seed: int = 0):
        self.cfg = cfg
        self.params = params if params is not None else init_parameters(cfg, seed)

    # -- forward -----------------------------------------------------------

    def forward(self, window: Window, params=None):
        """(mu, log_sigma, rho) tensors of the window's forecast, read off
        ``params``, a mapping from each parameter name to its tensor; by
        default the store's own, whose ops record the tape a backward walks."""
        cfg = self.cfg
        if window.t_obs != cfg.t_obs or window.t_pred != cfg.t_pred:
            raise ShapeMismatchError(
                f"window horizons ({window.t_obs}, {window.t_pred}) != "
                f"configured ({cfg.t_obs}, {cfg.t_pred})")
        graph = patch_graphs(window.obs, cfg.patch_len, cfg.patch_stride,
                             cfg.max_distance)
        # refuse a window that cannot fit before recording any of it
        tape, grads, held = step_bytes(cfg, window.n_peds, graph.edge_counts,
                                       self.params.n_values())
        if tape + grads + held > TAPE_BUDGET_BYTES:
            raise WindowTooLargeError(
                f"a window of N={window.n_peds} pedestrians needs an estimated "
                f"{tape / 2**20:.1f} MiB of autodiff tape, {grads / 2**20:.1f} MiB of "
                f"gradients and {held / 2**20:.1f} MiB of graph structure and backward "
                f"temporaries, more than the {TAPE_BUDGET_BYTES / 2**20:.1f} MiB of "
                "physical memory")
        params = self.params if params is None else params
        pooled = self._graph_stage(window, graph, params)
        tokens = assemble_tokens(pooled, params["pred.placeholder"],
                                 params["pred.positional"])
        enc_in = linear(tokens, params["enc.in_w"], params["enc.in_b"])
        y_repr = encoder_forward(enc_in, params, heads=cfg.encoder_heads,
                                 layers=cfg.encoder_layers, last_rows=cfg.t_pred)
        return gaussian_parameters(y_repr, params["head.w"], params["head.b"])

    def _graph_stage(self, window: Window, graph, params) -> Tensor:
        """The (N, K, d) pooled patch tokens of the window's node features,
        all K patches in each op.  Its intermediates, the (M, d) gates among
        them, are freed on return when no tape holds them."""
        cfg = self.cfg
        x = init_features(window.obs, params) @ params["feat.w_proj"]
        z = segment_patches(x, cfg.patch_len, cfg.patch_stride)   # (K, n, d)
        pairs = NodePairs(graph.edge_index, *z.shape[:2])   # read by both ops
        h_node = gat_layer(z, pairs, params["gat.theta"],
                           params["gat.theta_dst"], params["gat.att"])
        edge_filter = None
        if cfg.fusion_gate != "zero" and len(graph.edge_index):
            # the edge embedding rides in the filter (see the module docstring)
            coeffs = concatenate([params["edge.w_embed"] @ params[f"hll.theta{j}"]
                                  for j in range(cfg.hll_order)])
            edge_filter = (hll_conv(graph, cfg.hll_order), coeffs, params["fuse.phi"])
        update = fusion_gcn(h_node, edge_filter, pairs, params["fuse.theta"])
        # each node's own features ride around the graph stage, which on a
        # complete graph averages every node towards the patch mean
        return stack_and_pool(z + update, window.n_peds, cfg.patch_len)

    def loss(self, window: Window) -> Tensor:
        mu, log_sigma, rho = self.forward(window)
        return bivariate_nll(mu, log_sigma, rho, future_displacements(window))

    def predict(self, window: Window) -> GaussianTrack:
        """The forecast, with no tape: ``forward`` reads views of the
        parameters that share their memory but require no gradient, so no
        op keeps its parents or backward closure."""
        views = {name: Tensor(p.data) for name, p in self.params.items()}
        mu, log_sigma, rho = self.forward(window, views)
        return track_from_tensors(mu, log_sigma, rho, window.origin,
                                  window.ped_ids)
