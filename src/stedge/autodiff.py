"""Reverse-mode automatic differentiation over dense float64 arrays.

A small define-by-run engine: every operation records its parent tensors
and a closure mapping the output gradient to parent gradients.  backward()
walks the recorded graph in reverse topological order and accumulates into
``Tensor.grad`` of the leaves, the tensors no recorded op produced (+=,
never overwrite), so backward passes over successive graphs sum.
Intermediates pass their gradient on and keep ``grad`` None.  A closure
computes nothing for an operand that does not require a gradient (a
constant, a Python scalar): it returns None in that slot.

A recorded graph is walked once.  As backward() passes each op it drops
the op's parents and closure, and with them the arrays the closure saved,
so a step holds less and less of its tape as the backward runs; each
tensor keeps its ``op`` name and its ``data`` (``loss.item()`` still
reads the value).  A second backward through an op already walked raises
``GraphFreedError`` naming the op.

The primitive set is deliberately fixed to what the model needs: matmul by
a 2-D operand, elementwise arithmetic, exp/log/tanh (the likelihood and its
correlation), exponential-linear, mean reductions, reshape / concatenate /
transpose, the windows of ``unfold`` and basic slicing (an advanced index
raises ``IndexError``).  ``Tensor.sum``, ``softmax`` over the last axis and
batched ``matmul`` have no caller in the model; they stay for the unfused
reference chains the tests compare the fused ops against.  Elementwise ops
broadcast with numpy's trailing-dimension alignment.  Every forward result
is checked for NaN/Inf and the offending op is named when the check fires.

Two fused ops carry the graph stage, one op per job for all K patches
of a window, each recording only its output and recomputing the rest in
its backward (Chen et al., "Training Deep Nets with Sublinear Memory
Cost", 2016).  Both take (K, n, d) node operands and the window's
(M, 3) patch-tagged edge list:

* ``pair_attention``: each node's softmax-weighted messages over its
  neighbours and itself, scored by a . LeakyReLU(dst_i + src_j), with
  LeakyReLU written as p - 0.8 min(p, 0) so that no slope array is built;
  the closure keeps the softmax weights;
* ``gated_neighbour_mean``: the whole edge branch, gated messages
  averaged over each node's neighbours, the gates sigmoid(ELU(T C) phi)
  formed from the narrow, constant Laguerre basis T of the edges.  The
  closure keeps the (M, d) gates; the backward recomputes ELU(T C) and
  consumes the gates' gradient a block of edges at a time.

The node jobs run on the (n, n) grids of the patches when the edges are
dense and on segment sums over the receiver-sorted edge list when they are
sparse (``segment_route``).  Every d-wide temporary of the two over
node pairs or edges is a block of at most ``_BLOCK_ENTRIES`` whose split
depends only on the window's structure, so results stay
bit-reproducible.  Three more carry the encoder, on the same plan:

* ``linear``: x @ w + b as one GEMM, which ``matmul`` by a 2-D operand
  also runs, with an optional ReLU read back off the output;
* ``layer_norm``: its backward recomputes the centred input and the
  inverse standard deviation;
* ``attention``: multi-head scaled dot-product attention, of as many
  queries as keys or fewer, whose backward recomputes the weights from
  the queries and keys.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

__all__ = [
    "Tensor",
    "ParameterStore",
    "ShapeMismatchError",
    "NonFiniteError",
    "DisconnectedOutputError",
    "GraphFreedError",
    "backward",
    "gradcheck",
    "concatenate",
    "unfold",
    "exp",
    "log",
    "tanh",
    "elu",
    "softmax",
    "pair_attention",
    "gated_neighbour_mean",
    "linear",
    "layer_norm",
    "attention",
]


_M_TRIM_THRESHOLD = -1      # glibc mallopt parameter numbers
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit
_TRIM_THRESHOLD = 2**31 - 1  # the largest value mallopt accepts


def _keep_freed_heap(libc) -> None:
    """Make the C allocator keep the heap this process has freed.

    Every op allocates its result and gradient afresh, and one window's
    temporaries (the fused ops' row blocks, the Laguerre basis, GEMM
    outputs) reach a MiB or more each.  By
    default glibc maps blocks that large one by one and hands the heap top
    back to the kernel after a window, so the next window page-faults all
    of it in again.  On a 2-core x86-64 host with BLAS on one thread that
    was 9,200 minor faults and 25 ms of system time per
    ``forecast_proximity`` benchmark window, 7,100 per ``train_dense``
    window and 21,000 per training step at N=20; with the two thresholds
    below it is 0.3, 51 and 103.  Resident memory then stays at the peak
    a window reaches instead of dropping between windows; the benchmark's
    peak RSS moved by at most 0.3%.

    Arrays above 32 MiB (the ceiling glibc's own dynamic threshold climbs
    to) are still mapped and returned.  Setting either threshold turns
    glibc's dynamic threshold off, so the trim threshold is raised only
    once the mmap threshold is set: alone it leaves the mmap threshold at
    128 KiB, and the N=20 step took 119,000 faults and 1.4-1.7x the time.
    ``libc`` is the C library object; on a C library without ``mallopt``
    this does nothing.
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


try:
    _keep_freed_heap(ctypes.CDLL(None))
except (OSError, TypeError):
    pass


class ShapeMismatchError(ValueError):
    """Operand extents are incompatible for the requested operation."""


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf; the message names the op."""


class DisconnectedOutputError(RuntimeError):
    """backward() was started from a tensor no recorded op produced."""


class GraphFreedError(RuntimeError):
    """backward() reached an op that an earlier backward walked and freed;
    the message names the op."""


class Tensor:
    """Dense float64 array plus the bookkeeping reverse mode needs.

    Data is immutable by convention after creation (the trainer mutates
    parameter ``.data`` in place between graph constructions, never inside
    one).  ``grad`` is lazily allocated and accumulated additively.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = None
        self._parents: tuple = ()
        self._backward = None

    # -- bookkeeping ----------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ShapeMismatchError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op!r}{flag})"

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return _getitem(self, idx)

    def sum(self, axis=None, keepdims: bool = False):
        return _reduce(self, axis, keepdims, mean=False)

    def mean(self, axis=None, keepdims: bool = False):
        return _reduce(self, axis, keepdims, mean=True)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    @property
    def T(self):
        return transpose(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, op: str, parents: tuple, backward_fn) -> Tensor:
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"op {op!r} produced non-finite values")
    out = Tensor(data)
    out.op = op
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic ------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeMismatchError(f"add: {a.shape} vs {b.shape}") from exc

    def backward_fn(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _result(data, "add", (a, b), backward_fn)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError as exc:
        raise ShapeMismatchError(f"sub: {a.shape} vs {b.shape}") from exc

    def backward_fn(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _result(data, "sub", (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeMismatchError(f"mul: {a.shape} vs {b.shape}") from exc

    def backward_fn(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _result(data, "mul", (a, b), backward_fn)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch semantics; operands must be >= 2-D.

    With a 2-D right operand it is ``linear`` without a bias.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    if b.ndim == 2:
        return linear(a, b)
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ShapeMismatchError(f"matmul batch dims differ: {a.shape} @ {b.shape}") from exc

    def backward_fn(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _result(data, "matmul", (a, b), backward_fn)


# -- nonlinearities ---------------------------------------------------------


def exp(x) -> Tensor:
    x = _as_tensor(x)
    data = np.exp(x.data)

    def backward_fn(g):
        return (g * data,)

    return _result(data, "exp", (x,), backward_fn)


def log(x) -> Tensor:
    x = _as_tensor(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(x.data)

    def backward_fn(g):
        return (g / x.data,)

    return _result(data, "log", (x,), backward_fn)


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    data = np.tanh(x.data)

    def backward_fn(g):
        return (g * (1.0 - data * data),)

    return _result(data, "tanh", (x,), backward_fn)


def elu(x) -> Tensor:
    x = _as_tensor(x)
    data = np.where(x.data >= 0.0, x.data, np.expm1(x.data))

    def backward_fn(g):
        return (g * np.where(x.data >= 0.0, 1.0, np.exp(x.data)),)

    return _result(data, "elu", (x,), backward_fn)


def softmax(x) -> Tensor:
    """Softmax over the last axis, max-subtracted so huge logits cannot overflow."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        gy = g * data
        return (gy - data * gy.sum(axis=-1, keepdims=True),)

    return _result(data, "softmax", (x,), backward_fn)


# -- reductions and structure -----------------------------------------------


def _reduce(x: Tensor, axis, keepdims: bool, mean: bool) -> Tensor:
    x = _as_tensor(x)
    if mean:
        data = x.data.mean(axis=axis, keepdims=keepdims)
    else:
        data = x.data.sum(axis=axis, keepdims=keepdims)
    count = x.size if axis is None else np.prod(
        [x.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))])

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        g = np.broadcast_to(g, x.shape)
        return (g / count if mean else g.copy(),)

    return _result(data, "mean" if mean else "sum", (x,), backward_fn)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeMismatchError(f"reshape {x.shape} -> {shape}") from exc

    def backward_fn(g):
        return (g.reshape(x.shape),)

    return _result(data, "reshape", (x,), backward_fn)


def transpose(x, axes=None) -> Tensor:
    x = _as_tensor(x)
    data = np.transpose(x.data, axes)
    inverse = None if axes is None else tuple(np.argsort(axes))

    def backward_fn(g):
        return (np.transpose(g, inverse),)

    return _result(data, "transpose", (x,), backward_fn)


def concatenate(tensors, axis: int = 0) -> Tensor:
    parts = [_as_tensor(t) for t in tensors]
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeMismatchError(f"concatenate: {[p.shape for p in parts]}") from exc
    sizes = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def backward_fn(g):
        return tuple(np.split(g, sizes, axis=axis))

    return _result(data, "concatenate", tuple(parts), backward_fn)


def unfold(x, length: int, stride: int) -> Tensor:
    """The windows of ``length`` steps every ``stride`` steps along axis 1 of
    an (N, T, D) array, each flattened pedestrian-major (row p * length + l
    is step l of row p), stacked as (K, N * length, D) with K =
    (T - length) // stride + 1.  The backward adds each window's gradient
    back onto the steps it covers."""
    x = _as_tensor(x)
    if x.ndim != 3 or not 1 <= length <= x.shape[1] or stride < 1:
        raise ShapeMismatchError(f"unfold: {x.shape} into windows of {length} every {stride}")
    n, steps, width = x.shape
    starts = np.arange(0, steps - length + 1, stride)
    data = np.stack([x.data[:, s:s + length] for s in starts]).reshape(
        (len(starts), n * length, width))

    def backward_fn(g):
        g = g.reshape((len(starts), n, length, width))
        out = np.zeros(x.shape)
        for step in range(length):      # the starts are distinct: no index repeats
            out[:, starts + step] += g[:, :, step].transpose((1, 0, 2))
        return (out,)

    return _result(data, "unfold", (x,), backward_fn)


_BASIC_INDEX = (int, np.integer, slice, type(Ellipsis), type(None))


def _getitem(x: Tensor, idx) -> Tensor:
    # basic indexing only: an integer array, list or mask may repeat an
    # entry, and the scatter in backward (buf[idx] += g) counts it once
    for i in idx if isinstance(idx, tuple) else (idx,):
        if isinstance(i, bool) or not isinstance(i, _BASIC_INDEX):
            raise IndexError(f"only basic indices are differentiable (ints, slices, "
                             f"Ellipsis and None), got {type(i).__name__}")
    data = x.data[idx]

    def backward_fn(g):
        buf = np.zeros_like(x.data)
        buf[idx] += g
        return (buf,)

    return _result(data, "slice", (x,), backward_fn)


# -- fused pair and edge ops ---------------------------------------------------

_BLOCK_ENTRIES = 1 << 17   # float64 entries of one block temporary (1 MiB)
_PAIR_SLOPE = 0.2          # pair attention's LeakyReLU slope below zero
_PAIR_BEND = _PAIR_SLOPE - 1.0   # LeakyReLU(p) = p + _PAIR_BEND * min(p, 0)
# The two node jobs run on segment sums over the edge list below this
# density, the share of the K patches' node pairs that their directed edges
# and self-loops make up (1 on complete wiring), and on the (n, n) grids at
# or above it.  Set by measurement (see ``segment_route``), not a setting.
_SEGMENT_DENSITY = 0.25


def _blocks(count: int, entries_each: int) -> list[slice]:
    """Consecutive slices covering range(count), each as long as fits
    ``_BLOCK_ENTRIES`` at ``entries_each`` entries per index (at least
    one index).  The split depends on the shapes alone."""
    step = max(1, _BLOCK_ENTRIES // max(entries_each, 1))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _tiles(outer: int, inner: int, entries_each: int) -> list[tuple[slice, slice]]:
    """(outer, inner) slice pairs covering range(outer) x range(inner):
    blocks of outer indices with every inner one while a whole inner range
    fits ``_BLOCK_ENTRIES`` at ``entries_each`` entries per pair, else one
    outer index at a time over ``_blocks`` of inner ones."""
    if inner * entries_each <= _BLOCK_ENTRIES:
        return [(o, slice(0, inner)) for o in _blocks(outer, inner * entries_each)]
    return [(slice(o, o + 1), i) for o in range(outer) for i in _blocks(inner, entries_each)]


def segment_route(patches: int, nodes: int, edges: int) -> bool:
    """Whether ``pair_attention`` and ``gated_neighbour_mean`` run on
    segment sums for ``patches`` graphs of ``nodes`` nodes with ``edges``
    undirected edges in all: when the edges, both ways, and the self-loops
    make up less than ``_SEGMENT_DENSITY`` of the node pairs.

    The grid route costs O(n^2 d) per patch whatever the wiring, the
    segment route O((n + m) d), but it gathers and scatters a d-wide row
    per directed pair where the grid reads contiguous rows.  Segment time
    over grid time of both ops together, K = 6 random patches, d = 128,
    BLAS on one thread, best of three runs, forward / forward plus
    backward:

        density    0.1        0.2        0.3        0.5        1
        n = 12     0.59/0.73  1.00/1.12  1.24/1.37  1.70/1.79  2.82/2.74
        n = 30     0.49/0.63  0.80/0.97  0.97/1.18  1.53/1.69  2.91/2.94
        n = 60     0.48/0.58  0.72/0.90  1.02/1.20  1.64/1.76  3.30/2.99
        n = 90     0.42/0.50  0.72/0.86  1.02/1.26  1.63/1.75  2.96/3.29
        n = 150    0.41/0.49  0.57/0.71  1.01/1.23  1.63/1.93  3.03/2.82

    The forward alone breaks even near a density of 0.3 and the forward
    plus backward near 0.2 to 0.25; 0.25 splits the two.  2 m proximity
    wiring sits around 0.15 to 0.45, the sparser the larger the crowd;
    complete wiring is at 1."""
    return 2 * edges + patches * nodes < _SEGMENT_DENSITY * patches * nodes * nodes


def _patch_edges(edge_index) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (M, 3) patch-tagged edge list (k, u, v) as its three columns."""
    return tuple(np.asarray(edge_index, dtype=np.int64).reshape(-1, 3).T)


class _ReceiverPairs:
    """The directed pairs of K patches' undirected edges, each edge both
    ways (with ``self_loops`` also each node to itself), on the global node
    ids k * n + i and sorted by receiver, then sender.

    ``edge`` is each pair's row in the edge list (-1 for a self-loop).  The
    pairs split into ``_blocks`` of d-wide rows, and each block into its
    receivers' runs, so a sum over each receiver's pairs is one
    ``np.add.reduceat`` per block; a receiver whose run two blocks share
    gets both parts.  ``starts`` holds each receiver's first pair, which is
    in node order when every node receives a pair (with ``self_loops``).
    ``order`` is the sort: pair i was pair order[i] as built, edges one
    way, then the other way, then the self-loops."""

    def __init__(self, k, u, v, patches: int, n: int, d: int, self_loops: bool):
        a, b = k * n + u, k * n + v
        rows = np.arange(len(k))
        recv, send, edge = [a, b], [b, a], [rows, rows]
        if self_loops:
            nodes = np.arange(patches * n)
            recv, send, edge = recv + [nodes], send + [nodes], edge + [np.full(len(nodes), -1)]
        recv, send, edge = (np.concatenate(c) for c in (recv, send, edge))
        self.order = np.lexsort((send, recv))
        self.recv, self.send, self.edge = recv[self.order], send[self.order], edge[self.order]
        self.rows, self.d, self.edge_count = patches * n, d, len(k)
        self.starts = np.flatnonzero(_run_firsts(self.recv))
        self.blocks = []
        for pairs in _blocks(len(self.recv), d):
            firsts = np.flatnonzero(_run_firsts(self.recv[pairs]))
            self.blocks.append((pairs, firsts, self.recv[pairs][firsts]))

    def sums(self, terms) -> np.ndarray:
        """Each node's sum of the (pairs, d) ``terms(pairs)`` of the pairs
        it receives, (K * n, d); a node that receives none gets 0."""
        out = np.zeros((self.rows, self.d))
        for pairs, firsts, receivers in self.blocks:
            out[receivers] += np.add.reduceat(terms(pairs), firsts, axis=0)
        return out

    def reverses(self) -> np.ndarray:
        """Each pair's reverse, j to i for i to j, as its place in the
        sorted list: as built, an edge's two directions sit M apart and a
        self-loop is its own, so it is the sort's inverse permutation
        applied to that offset."""
        m, place = self.edge_count, np.empty_like(self.order)
        place[self.order] = np.arange(len(self.order))
        built = np.arange(len(self.order))
        built[:2 * m] = np.roll(built[:2 * m], m)     # each pair's reverse as built
        return place[built[self.order]]


def _run_firsts(ids) -> np.ndarray:
    """True where a run of equal ``ids`` starts."""
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    return first


def pair_attention(dst, src, att, edge_index) -> Tensor:
    """Additive graph attention over K patch graphs at once, (K, n, d):
    node i of patch k receives sum_j alpha_kij src[k, j], where alpha_ki is
    the softmax, over i's neighbours in patch k and i itself, of the scores
    att . LeakyReLU(dst[k, i] + src[k, j]), slope 0.2 below zero.  ``dst``
    and ``src`` are (K, n, d), ``att`` has d entries and the (M, 3)
    ``edge_index`` lists the undirected edges (k, u, v).

    LeakyReLU(p) = p - 0.8 min(p, 0), so a pair's score is
    att . dst_i + att . src_j - 0.8 att . min(p, 0), and with
    min(p, 0) = dst_i + min(src_j, -dst_i) it is 0.2 att . dst_i
    + att . src_j - 0.8 att . min(src_j, -dst_i).  A softmax over i's pairs
    does not see the term of i alone, so the op scores
    att . src_j - 0.8 att . min(src_j, -dst_i): one product per sender,
    and over the pairs one min and one product with ``att``.  Every node
    keeps its own node, so no softmax is empty.  The (pairs, d) minima
    exist one block of at most ``_BLOCK_ENTRIES`` at a time, and the
    backward forms, block by block from the operands, only where a pair
    sum is below zero (``_below_zero``); the closure keeps the softmax
    weights.  The backward carries the linear part through each sender's
    sum of the scores' gradient, and the bend through each node's
    per-channel sums of it over the pairs below zero it receives and
    sends, from which ``att``'s gradient follows too
    (``_through_scores``).  Two routes (``segment_route``):

    * grid: the (K, n, n) weights, 0 off the neighbour mask, formed a block
      of rows of a patch, or a block of whole patches, at a time, and one
      batched product with ``src``;
    * segment: one score per directed pair of the receiver-sorted edge
      list plus self-loops; the softmax's shift and sum and the weighted
      sum are ``np.maximum.reduceat`` and ``np.add.reduceat`` over each
      node's pairs, O((n + m) d), and the backward reaches each sender
      through the reverse of each pair.
    """
    dst, src, att = _as_tensor(dst), _as_tensor(src), _as_tensor(att)
    if dst.ndim != 3 or src.shape != dst.shape or att.size != dst.shape[2]:
        raise ShapeMismatchError(f"pair_attention: {dst.shape}, {src.shape}, {att.shape}")
    patches, n, d = src.shape
    k, u, v = _patch_edges(edge_index)
    route = _pair_segments if segment_route(patches, n, len(k)) else _pair_grid
    data, backward_fn = route(dst, src, att, att.data.reshape(d), k, u, v)
    return _result(data, "pair_attention", (dst, src, att), backward_fn)


def _below_zero(dst_part, neg_src_part, out=None):
    """1.0 where the pair sum dst_part - neg_src_part is below zero, else
    0.0: the float sum of two floats has the sign of their exact sum, so
    dst < -src decides it without forming the sum."""
    return np.less(dst_part, neg_src_part, out=out)


def _through_scores(dst, src, att, a, below_dst, sending):
    """The operands' gradients through the scores att . LeakyReLU(p) of
    the pair sums p = dst_i + src_j, of a gradient that sums to 0 over
    each receiver's pairs (a softmax's).  ``below_dst`` is each node's
    per-channel sum of the scores' gradient over the pairs it receives
    whose pair sum is below zero, (K, n, d) (or (n, d) of one patch);
    ``sending`` is each node's sum of it over the pairs it sends, (K, n),
    and the same per-channel sum below zero over those, (K, n, d); either
    is None where no operand needs it, and its (K, n, d) array is
    overwritten.  A pair's score moves with dst_i and with src_j by att
    times LeakyReLU's slope, 1 - 0.8 below zero, and with att by p
    - 0.8 min(p, 0); the gradient's zero sums drop the parts that move
    with dst_i alone."""
    into_dst = into_src = None
    if below_dst is not None:
        into_dst = below_dst
        into_dst *= _PAIR_BEND
    if sending is not None:
        total, into_src = sending
        into_src *= _PAIR_BEND
        into_src += total[..., None]
    g_att = None
    if att.requires_grad:
        g_att = ((dst.data * into_dst).reshape(-1, a.size).sum(axis=0)
                 + (src.data * into_src).reshape(-1, a.size).sum(axis=0)).reshape(att.shape)
    return (into_dst * a if dst.requires_grad else None,
            into_src * a if src.requires_grad else None, g_att)


def _pair_grid(dst, src, att, a, k, u, v):
    patches, n, d = src.shape
    keep = np.broadcast_to(np.eye(n, dtype=bool), (patches, n, n)).copy()
    keep[k, u, v] = keep[k, v, u] = True
    tiles = _tiles(patches, n, n * d)

    neg_dst, at_src, bend = -dst.data, src.data @ a, _PAIR_BEND * a
    alpha = np.empty((patches, n, n))
    for ks, rows in tiles:
        bent = np.minimum(src.data[ks, None, :, :], neg_dst[ks, rows, None, :])
        scores = (bent.reshape(-1, d) @ bend).reshape(bent.shape[:3])
        scores += at_src[ks, None, :]
        scores[~keep[ks, rows]] = -np.inf
        scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
        scores /= scores.sum(axis=-1, keepdims=True)
        alpha[ks, rows] = scores

    def backward_fn(g):
        to_dst = dst.requires_grad or att.requires_grad
        to_src = src.requires_grad or att.requires_grad
        below_dst = np.empty(dst.shape) if to_dst else None
        sending = (np.zeros((patches, n)), np.zeros(src.shape)) if to_src else None
        neg_src = -src.data
        for ks, rows in tiles:
            weights = alpha[ks, rows]
            g_scores = (g[ks, rows] @ src.data[ks].transpose(0, 2, 1)) * weights
            # the softmax's Jacobian; 0 off the mask, where the weight is 0
            g_scores -= weights * g_scores.sum(axis=-1, keepdims=True)
            below = _below_zero(dst.data[ks, rows, None, :], neg_src[ks, None, :, :],
                                out=np.empty(weights.shape + (d,)))
            if below_dst is not None:
                below_dst[ks, rows] = (g_scores[..., None, :] @ below)[..., 0, :]
            if sending is not None:
                sending[0][ks] += g_scores.sum(axis=1)
                sending[1][ks] += np.einsum("krjd,krj->kjd", below, g_scores)
        g_dst, g_src, g_att = _through_scores(dst, src, att, a, below_dst, sending)
        if g_src is not None:
            g_src += alpha.transpose(0, 2, 1) @ g
        return g_dst, g_src, g_att

    return alpha @ src.data, backward_fn


def _pair_segments(dst, src, att, a, k, u, v):
    patches, n, d = src.shape
    pairs = _ReceiverPairs(k, u, v, patches, n, d, self_loops=True)
    recv, send = pairs.recv, pairs.send
    dst_rows, src_rows = dst.data.reshape(-1, d), src.data.reshape(-1, d)

    scores = (src_rows @ a)[send]
    neg_dst_rows, bend = -dst_rows, _PAIR_BEND * a
    for block, _, _ in pairs.blocks:
        bent = src_rows[send[block]]
        np.minimum(bent, neg_dst_rows[recv[block]], out=bent)
        scores[block] += bent @ bend
    alpha = np.exp(scores - np.maximum.reduceat(scores, pairs.starts)[recv])
    alpha /= np.add.reduceat(alpha, pairs.starts)[recv]
    data = pairs.sums(lambda block: alpha[block, None] * src_rows[send[block]])

    def backward_fn(g):
        g_rows = g.reshape(-1, d)
        g_scores = np.empty(len(recv))
        for block, _, _ in pairs.blocks:
            g_scores[block] = np.einsum("ij,ij->i", g_rows[recv[block]], src_rows[send[block]])
        g_scores *= alpha
        # the softmax's Jacobian
        g_scores -= alpha * np.add.reduceat(g_scores, pairs.starts)[recv]

        neg_src_rows = -src_rows

        def below_sums(receivers, senders, weights):
            """Each node's per-channel sum of ``weights`` over the pairs of
            the ``receivers``-sorted list it receives whose pair sum is
            below zero."""

            def below(block):
                terms = dst_rows[receivers[block]]
                _below_zero(terms, neg_src_rows[senders[block]], out=terms)
                terms *= weights[block, None]
                return terms

            return pairs.sums(below).reshape(src.shape)

        below_dst = below_sums(recv, send, g_scores) \
            if dst.requires_grad or att.requires_grad else None
        sending = reverse = None
        if src.requires_grad or att.requires_grad:
            # each pair's reverse: a sum over the reverses of the pairs a node
            # receives is a sum over the pairs it sends
            reverse = pairs.reverses()
            sent = g_scores[reverse]
            sending = (np.add.reduceat(sent, pairs.starts).reshape(patches, n),
                       below_sums(send, recv, sent))
        g_dst, g_src, g_att = _through_scores(dst, src, att, a, below_dst, sending)
        if g_src is not None:
            g_src += pairs.sums(lambda block: alpha[reverse[block], None]
                                * g_rows[send[block]]).reshape(src.shape)
        return g_dst, g_src, g_att

    return data.reshape(src.shape), backward_fn


def gated_neighbour_mean(basis, coeffs, phi, x, edge_index) -> Tensor:
    """The fusion's edge branch as one op, (K, n, d): edge e = (k, u, v)
    of the (M, 3) ``edge_index`` sends gates[e] * x[k, v] to node u of
    patch k and gates[e] * x[k, u] to its node v, and each node's sum is
    divided by its degree (an isolated node's by 1).  The (M, d) gates are
    sigmoid(ELU(basis @ coeffs) @ phi) of the constant (M, order)
    ``basis`` (no gradient reaches it), the (order, c) ``coeffs`` and the
    (c, d) ``phi``; ``x`` is (K, n, d).

    The edges must be distinct, off the diagonal, each listed in one
    orientation only and sorted by patch.  The gates are formed a block of
    edges at a time, the sigmoid as 0.5 tanh(h / 2) + 0.5, which cannot
    overflow, and the closure keeps them.  The backward forms, one
    ``_blocks`` block of edges at a time, the gates' gradient from ``x``
    and the output's, times the sigmoid's slope s (1 - s), and passes it
    through the gate map and the filter, recomputing ELU(basis @ coeffs)
    and reading ELU's slope off it (below zero exp(h) = ELU(h) + 1), so no
    (M, d) gradient exists.  The gated product G @ x (G is symmetric) and
    its transpose run by the route ``segment_route`` picks:

    * grid: a (K, n, n) map of each pair's edge row gathers the d-wide
      gate rows of a block of rows of a patch, or of whole patches, whose
      diagonal and pairs without an edge are then set to 0, and each
      row's sum over its neighbours of the gates times their ``x`` rows
      is one ``np.einsum``;
    * segment: each directed pair's gated message summed over the
      receiver-sorted edge list by ``np.add.reduceat``, O(m d).
    """
    basis, coeffs, phi, x = (_as_tensor(t) for t in (basis, coeffs, phi, x))
    k, u, v = _patch_edges(edge_index)
    if basis.ndim != 2 or coeffs.ndim != 2 or phi.ndim != 2 or x.ndim != 3 \
            or basis.shape != (len(k), coeffs.shape[0]) \
            or phi.shape != (coeffs.shape[1], x.shape[2]):
        raise ShapeMismatchError(
            f"gated_neighbour_mean: basis {basis.shape} for {len(k)} edges, "
            f"coeffs {coeffs.shape}, phi {phi.shape}, values {x.shape}")
    patches, n, d = x.shape
    ends = (k * n + u, k * n + v)     # the endpoints' global node ids
    degree = np.bincount(np.concatenate(ends), minlength=patches * n)
    inv_degree = (1.0 / np.maximum(degree, 1)).reshape(patches, n, 1)
    blocks = _blocks(len(k), max(coeffs.shape[1], d))

    def activation(edges):
        """ELU(basis @ coeffs) of a block of edges."""
        h = basis.data[edges] @ coeffs.data
        below = np.minimum(h, 0.0)
        np.expm1(below, out=below)
        np.maximum(h, below, out=h)     # expm1(x) > x below zero
        return h

    gates = np.empty((len(k), d))
    half_phi = phi.data * 0.5       # a power of two: (h @ phi) / 2 exactly
    for edges in blocks:
        gate = np.matmul(activation(edges), half_phi, out=gates[edges])
        np.tanh(gate, out=gate)
        gate *= 0.5
        gate += 0.5

    if segment_route(patches, n, len(k)):
        pairs = _ReceiverPairs(k, u, v, patches, n, d, self_loops=False)

        def product(values):
            rows = values.reshape(-1, d)
            return pairs.sums(lambda block: gates[pairs.edge[block]]
                              * rows[pairs.send[block]]).reshape(x.shape)
    else:
        edge_rows = np.zeros((patches, n, n), dtype=np.int64)
        edge_rows[k, u, v] = edge_rows[k, v, u] = np.arange(len(k))
        absent = np.ones((patches, n, n), dtype=bool)     # the diagonal and non-edges
        absent[k, u, v] = absent[k, v, u] = False
        tiles = _tiles(patches, n, n * d) if len(k) else []

        def product(values):
            out = np.zeros(x.shape)
            for ks, rows in tiles:
                block = gates[edge_rows[ks, rows]]
                block[absent[ks, rows]] = 0.0
                out[ks, rows] = np.einsum("krjd,kjd->krd", block, values[ks])
            return out

    data = product(x.data) * inv_degree

    def backward_fn(g):
        g = g * inv_degree
        g_x = product(g) if x.requires_grad else None
        g_coeffs = np.zeros(coeffs.shape) if coeffs.requires_grad else None
        g_phi = np.zeros(phi.shape) if phi.requires_grad else None
        if g_coeffs is not None or g_phi is not None:
            g_rows, x_rows = g.reshape(-1, d), x.data.reshape(-1, d)
            for edges in blocks:
                at_u, at_v = ends[0][edges], ends[1][edges]
                g_pre = g_rows[at_u] * x_rows[at_v]     # the gates' gradient
                g_pre += g_rows[at_v] * x_rows[at_u]
                g_pre *= (1.0 - gates[edges]) * gates[edges]    # the sigmoid's slope
                h = activation(edges)
                if g_phi is not None:
                    g_phi += h.T @ g_pre
                if g_coeffs is not None:
                    h += 1.0
                    np.minimum(h, 1.0, out=h)   # ELU's slope
                    h *= g_pre @ phi.data.T
                    g_coeffs += basis.data[edges].T @ h
        return g_coeffs, g_phi, g_x

    return _result(data, "gated_neighbour_mean", (coeffs, phi, x), backward_fn)


# -- fused encoder ops ----------------------------------------------------------


def linear(x, w, b=None, relu: bool = False) -> Tensor:
    """x @ w, plus ``b`` if given, over the last axis, and ReLU on top with
    ``relu``; ``w`` is 2-D and ``x``'s leading axes fold into rows, so the
    product and each gradient are a single GEMM.  ``matmul`` by a 2-D
    operand runs here too.

    ReLU keeps the sign of zero that 0 * x gives (-0.0 below zero), so the
    backward reads the slope, 1 where the input was >= 0, off the output's
    sign bit and the tape holds only the output.  (An input of exactly -0.0
    is the one case read as below zero.)
    """
    x, w = _as_tensor(x), _as_tensor(w)
    b = None if b is None else _as_tensor(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] \
            or (b is not None and b.shape != (w.shape[1],)):
        raise ShapeMismatchError(
            f"linear: {x.shape} @ {w.shape} + {None if b is None else b.shape}")
    k, n = w.shape
    rows = math.prod(x.shape[:-1])
    data = (x.data.reshape(rows, k) @ w.data).reshape(x.shape[:-1] + (n,))
    if b is not None:
        data += b.data
    if relu:
        data *= data >= 0.0

    def backward_fn(g):
        g = g.reshape(rows, n)
        if relu:
            g = g * ~np.signbit(data.reshape(rows, n))
        return ((g @ w.data.T).reshape(x.shape) if x.requires_grad else None,
                x.data.reshape(rows, k).T @ g if w.requires_grad else None,
                g.sum(axis=0) if b is not None and b.requires_grad else None)

    return _result(data, "linear", (x, w) if b is None else (x, w, b), backward_fn)


_LAYER_NORM_EPS = 1e-5


def layer_norm(x, gain, bias) -> Tensor:
    """(x - mean) / sqrt(var + 1e-5) * gain + bias over the last axis, the
    inverse square root taken as exp(-0.5 log(var + 1e-5)).  The backward
    recomputes the centred input and the inverse standard deviation from
    ``x``; the tape holds only the output."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeMismatchError(f"layer_norm: {x.shape}, {gain.shape}, {bias.shape}")

    def normalised():
        centred = x.data - x.data.mean(axis=-1, keepdims=True)
        var = (centred * centred).mean(axis=-1, keepdims=True)
        return centred, np.exp(np.log(var + _LAYER_NORM_EPS) * -0.5)

    centred, inv_std = normalised()
    data = centred * inv_std
    data *= gain.data
    data += bias.data

    def backward_fn(g):
        centred, inv_std = normalised()
        centred *= inv_std                  # the normalised input
        lead = tuple(range(g.ndim - 1))
        g_gain = (g * centred).sum(axis=lead) if gain.requires_grad else None
        g_bias = g.sum(axis=lead) if bias.requires_grad else None
        g_x = None
        if x.requires_grad:
            g_x = g * gain.data
            g_x -= centred * (g_x * centred).mean(axis=-1, keepdims=True)
            g_x *= inv_std
            g_x -= g_x.mean(axis=-1, keepdims=True)
        return g_x, g_gain, g_bias

    return _result(data, "layer_norm", (x, gain, bias), backward_fn)


def attention(q, k, v, heads: int) -> Tensor:
    """Scaled dot-product attention of an (N, s, e) query and (N, t, e) keys
    and values, s <= t, split into ``heads`` heads of e / heads channels
    along the last axis: each of the N sequences' s queries attends over its
    own t positions, and the (N, s, e) context comes back with the heads
    side by side again.

    The (N, heads, s, t) weights are not recorded: the backward recomputes
    them from ``q`` and ``k``.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 3 or k.ndim != 3 or v.shape != k.shape or q.shape[0] != k.shape[0] \
            or q.shape[2] != k.shape[2] or q.shape[1] > k.shape[1] or q.shape[-1] % heads:
        raise ShapeMismatchError(
            f"attention: {q.shape}, {k.shape}, {v.shape} in {heads} heads")
    n, s, e = q.shape
    t = k.shape[1]
    dh = e // heads
    scale = 1.0 / math.sqrt(dh)

    def split(a):
        """(N, rows, e) -> (N, heads, rows, dh), a view."""
        return a.reshape((n, a.shape[1], heads, dh)).transpose((0, 2, 1, 3))

    def join(a):
        """(N, heads, rows, dh) -> (N, rows, e)."""
        return a.transpose((0, 2, 1, 3)).reshape((n, a.shape[2], e))

    def weights():
        """The softmax of the scaled scores, max-subtracted."""
        alpha = split(q.data) @ split(k.data).transpose((0, 1, 3, 2))
        alpha *= scale
        alpha -= alpha.max(axis=-1, keepdims=True)
        np.exp(alpha, out=alpha)
        alpha /= alpha.sum(axis=-1, keepdims=True)
        return alpha

    data = join(weights() @ split(v.data))

    def backward_fn(g):
        alpha = weights()
        g = split(g)
        g_v = join(alpha.transpose((0, 1, 3, 2)) @ g) if v.requires_grad else None
        g_scores = g @ split(v.data).transpose((0, 1, 3, 2))
        g_scores -= (g_scores * alpha).sum(axis=-1, keepdims=True)
        g_scores *= alpha                   # the softmax's Jacobian
        g_scores *= scale
        g_q = join(g_scores @ split(k.data)) if q.requires_grad else None
        g_k = join(g_scores.transpose((0, 1, 3, 2)) @ split(q.data)) \
            if k.requires_grad else None
        return g_q, g_k, g_v

    return _result(data, "attention", (q, k, v), backward_fn)


# -- reverse pass -------------------------------------------------------------


def backward(output: Tensor, seed=None) -> None:
    """Accumulate d(output)/d(t) into ``t.grad`` for every leaf ``t`` (a
    requires_grad tensor no recorded op produced) reachable from ``output``.

    Intermediates only pass their gradient on; their ``grad`` stays None.
    A leaf's ``grad`` is an array of its own, so callers may scale it in
    place.  ``output`` must be a scalar unless a same-shaped gradient
    ``seed`` is supplied.  Grads add across calls, in place; callers zero
    them between steps.

    The walk frees the graph behind ``output``: once an op's closure has
    run, the op drops its parents and its closure, so what it saved for
    the backward is released as soon as no longer needed.  Each tensor
    keeps its ``op`` and ``data``.  A graph is walked once: a second
    backward that reaches a freed op, from the same output or through a
    shared subgraph, raises ``GraphFreedError`` before any gradient moves.
    """
    if output._backward is None and not output.requires_grad:
        raise DisconnectedOutputError("output was not produced by any recorded op")
    if seed is None:
        if output.size != 1:
            raise ShapeMismatchError(
                f"backward without a seed needs a scalar output, got shape {output.shape}")
        seed = np.ones_like(output.data)
    else:
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != output.shape:
            raise ShapeMismatchError(
                f"gradient seed shape {seed.shape} != output shape {output.shape}")

    # iterative post-order DFS: parents always precede consumers in `topo`
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node.op is not None and node._backward is None:
            raise GraphFreedError(
                f"op {node.op!r} was freed by an earlier backward; a recorded "
                f"graph is walked once")
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(output): seed}
    while topo:
        node = topo.pop()
        g = grads.pop(id(node), None)
        if g is not None and node.op is None:
            # a leaf; g may be a view shared with other gradients, but the
            # leaf's grad is its own, so it accumulates in place and no
            # parameter-sized array is allocated anew on every pass
            if node.grad is None:
                node.grad = g.copy()
            else:
                node.grad += g
        elif g is not None:
            for parent, pg in zip(node._parents, node._backward(g)):
                if not parent.requires_grad or pg is None:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
        node._parents, node._backward = (), None   # release what the op saved


GRADCHECK_EPS = 1e-5   # central-difference step of ``gradcheck`` by default


def gradcheck(f, params, eps: float = GRADCHECK_EPS) -> float:
    """Max relative error between analytic gradients of scalar ``f()`` and
    central finite differences over every entry of every parameter.

    ``f`` must be a deterministic zero-argument callable returning a scalar
    Tensor computed from ``params``.  Relative error per entry is
    |analytic - fd| / max(|analytic|, |fd|, 1e-8).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    params = list(params)
    for p in params:
        p.grad = None
    out = f()
    backward(out)

    worst = 0.0
    for p in params:
        analytic = np.zeros_like(p.data) if p.grad is None else p.grad
        flat_data = p.data.reshape(-1)
        flat_grad = analytic.reshape(-1)
        for i in range(flat_data.size):
            orig = flat_data[i]
            flat_data[i] = orig + eps
            f_plus = f().item()
            flat_data[i] = orig - eps
            f_minus = f().item()
            flat_data[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            err = abs(flat_grad[i] - fd) / max(abs(flat_grad[i]), abs(fd), 1e-8)
            worst = max(worst, err)
    return worst


class ParameterStore:
    """Named trainable tensors; declaration order is the checkpoint order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._step_scales: dict[str, float | np.ndarray] = {}

    def add(self, name: str, value, step_scale=1.0) -> Tensor:
        """Declare a parameter; ``step_scale`` is a fixed factor on each of
        its optimizer steps, broadcast against its shape."""
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.array(value, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        self._step_scales[name] = step_scale
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def step_scale(self, name: str):
        return self._step_scales[name]

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def n_values(self) -> int:
        return sum(t.size for t in self._params.values())
