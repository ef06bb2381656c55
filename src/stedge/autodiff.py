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

The primitive set is deliberately fixed to what the model needs: matmul,
elementwise arithmetic, exp/log/tanh (the likelihood and its correlation),
exponential-linear, softmax over the last axis (graph attention), sum/mean
reductions, reshape / concatenate and basic slicing.  ``transpose`` (and
``.T``) has no caller in the model; it stays for the unfused reference
chains the tests compare the fused ops against.
Elementwise ops broadcast with numpy's trailing-dimension alignment.  Every
forward result is checked for NaN/Inf and the offending op is named when
the check fires.

Three fused ops carry the graph stage's pairwise chains, each as one
recorded op that keeps only its operands and its output and recomputes
the rest in its backward (Chen et al., "Training Deep Nets with Sublinear
Memory Cost", 2016):

* ``pair_attention_logits``: a . LeakyReLU(dst_i + src_j) over the neighbour
  mask, with the (n, n, d) pair sum formed one block of rows at a time;
* ``gated_neighbour_sum``: sigmoid-gated messages summed over each node's
  pairs, with neither the gates nor their pair grid recorded;
* ``matmul_elu_matmul``: ELU(a @ b) @ c, recording only its output; the
  backward recomputes ELU(a @ b), which costs little when a is narrow.

Their row blocks depend only on the operand shapes, so results stay
bit-reproducible.  Three more carry the encoder, on the same plan:

* ``linear``: x @ w + b as one GEMM, which ``matmul`` by a 2-D operand
  also runs, with an optional ReLU read back off the output;
* ``layer_norm``: its backward recomputes the centred input and the
  inverse standard deviation;
* ``attention``: multi-head scaled dot-product attention, whose backward
  recomputes the weights from the queries and keys.
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
    "exp",
    "log",
    "tanh",
    "elu",
    "softmax",
    "pair_attention_logits",
    "gated_neighbour_sum",
    "matmul_elu_matmul",
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


def _getitem(x: Tensor, idx) -> Tensor:
    # basic indexing only (ints/slices/Ellipsis); no advanced integer arrays,
    # so the scatter in backward never aliases
    data = x.data[idx]

    def backward_fn(g):
        buf = np.zeros_like(x.data)
        buf[idx] += g
        return (buf,)

    return _result(data, "slice", (x,), backward_fn)


# -- fused pair and edge ops ---------------------------------------------------

_BLOCK_ENTRIES = 1 << 17   # float64 entries of one block temporary (1 MiB)
_PAIR_SLOPE = 0.2          # pair attention's LeakyReLU slope below zero
_MASKED_SCORE = -1e30      # pair attention's score outside the mask


def _blocks(count: int, entries_each: int) -> list[slice]:
    """Consecutive slices covering range(count), each as long as fits
    ``_BLOCK_ENTRIES`` at ``entries_each`` entries per index (at least
    one index).  The split depends on the shapes alone."""
    step = max(1, _BLOCK_ENTRIES // max(entries_each, 1))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def pair_attention_logits(dst, src, att, mask) -> Tensor:
    """Additive attention scores on an (n_dst, n_src) neighbour ``mask``,
    from (n_dst, d) and (n_src, d) operands and a d-entry ``att``: out[i, j]
    = att . LeakyReLU(dst[i] + src[j]), slope 0.2 below zero, where the mask
    is nonzero, else -1e30 (softmax weight 0), a score no gradient reaches.

    The (n_dst, n_src, d) pair sum and its rectified copy exist only one
    block of rows at a time, in the forward and again in the backward,
    which rebuilds them from the operands; the tape holds the scores.
    """
    dst, src, att = _as_tensor(dst), _as_tensor(src), _as_tensor(att)
    keep = np.asarray(mask) != 0
    if dst.ndim != 2 or src.ndim != 2 or dst.shape[1] != src.shape[1] \
            or att.size != dst.shape[1] or keep.shape != (dst.shape[0], src.shape[0]):
        raise ShapeMismatchError(
            f"pair_attention_logits: {dst.shape}, {src.shape}, {att.shape}, {keep.shape}")
    n_src, d = src.shape
    a = att.data.reshape(d)
    blocks = _blocks(dst.shape[0], n_src * d)

    def rectified(rows):
        """The pair sum of a row block and LeakyReLU's slope on it."""
        pair = dst.data[rows, None, :] + src.data
        slope = np.where(pair >= 0.0, 1.0, _PAIR_SLOPE)
        return pair, slope

    data = np.empty((dst.shape[0], n_src))
    for rows in blocks:
        pair, slope = rectified(rows)
        pair *= slope
        data[rows] = (pair.reshape(-1, d) @ a).reshape(-1, n_src)
    data[~keep] = _MASKED_SCORE

    def backward_fn(g):
        g = np.where(keep, g, 0.0)
        g_dst = np.empty(dst.shape) if dst.requires_grad else None
        g_src = np.zeros(src.shape) if src.requires_grad else None
        g_att = np.zeros(d) if att.requires_grad else None
        for rows in blocks:
            pair, slope = rectified(rows)
            if g_att is not None:
                pair *= slope
                g_att += g[rows].reshape(-1) @ pair.reshape(-1, d)
            slope *= g[rows, :, None]      # dL/d(pair sum), up to the factor att
            if g_dst is not None:
                g_dst[rows] = slope.sum(axis=1)
            if g_src is not None:
                g_src += slope.sum(axis=0)
        return (None if g_dst is None else g_dst * a,
                None if g_src is None else g_src * a,
                None if g_att is None else g_att.reshape(att.shape))

    return _result(data, "pair_attention_logits", (dst, src, att), backward_fn)


def gated_neighbour_sum(z, x, rows, cols) -> Tensor:
    """Gated messages summed over each node's pairs, (n, d): pair e sends
    sigmoid(z[e]) * x[cols[e]] to node rows[e] and sigmoid(z[e]) *
    x[rows[e]] to node cols[e].  ``z`` holds the (m, d) pre-sigmoid gates,
    one per pair and channel; ``x`` is (n, d).

    The pairs must be distinct, off the diagonal and each listed in one
    orientation only.  The sigmoid is 0.5 tanh(z / 2) + 0.5, which cannot
    overflow.  Neither the gates nor the symmetric (c, n, n) grid they are
    laid on for the product is recorded: the forward and the backward each
    compute the gates from ``z`` and lay them on the grid a block of
    channels at a time, and the backward forms the gates' gradient a block
    of pairs at a time.
    """
    z, x = _as_tensor(z), _as_tensor(x)
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    if (z.ndim != 2 or x.ndim != 2 or z.shape[1] != x.shape[1]
            or len(rows) != z.shape[0] or len(cols) != z.shape[0]):
        raise ShapeMismatchError(
            f"gated_neighbour_sum: gates {z.shape} for {len(rows)}/{len(cols)} "
            f"pairs, values {x.shape}")
    n, d = x.shape
    cells = rows * n + cols
    mirror = cols * n + rows

    def gates():
        """tanh(z / 2), and the sigmoid gates 0.5 tanh(z / 2) + 0.5."""
        half = np.tanh(0.5 * z.data)
        return half, half * 0.5 + 0.5

    def grid_product(gate, v):
        """G_c @ v[:, c] per channel c, with G_c the symmetric pair grid of
        the gates."""
        out = np.empty((n, d))
        for ch in _blocks(d, n * n):
            grid = np.zeros((ch.stop - ch.start, n * n))
            grid[:, cells] = grid[:, mirror] = gate[:, ch].T
            product = grid.reshape(-1, n, n) @ v[:, ch].T[:, :, None]
            out[:, ch] = product[:, :, 0].T
        return out

    data = grid_product(gates()[1], x.data)

    def backward_fn(g):
        half, gate = gates()
        g_x = grid_product(gate, g) if x.requires_grad else None
        g_z = None
        if z.requires_grad:
            g_z = np.empty(z.shape)
            for pairs in _blocks(len(rows), d):
                at_row, at_col = rows[pairs], cols[pairs]
                g_gate = g[at_row] * x.data[at_col]
                g_gate += g[at_col] * x.data[at_row]
                g_z[pairs] = g_gate
            half *= half
            g_z *= 0.25 * (1.0 - half)       # the sigmoid's slope
        return g_z, g_x

    return _result(data, "gated_neighbour_sum", (z, x), backward_fn)


def matmul_elu_matmul(a, b, c) -> Tensor:
    """ELU(a @ b) @ c of 2-D operands as one op, whose tape holds only the
    output.  The backward recomputes ELU(a @ b) as the forward did and
    reads ELU's slope off it: below zero the slope exp(a @ b) equals
    ELU(a @ b) + 1.  With a narrow ``a`` the recompute costs a small share
    of the product with ``c``."""
    a, b, c = _as_tensor(a), _as_tensor(b), _as_tensor(c)
    if a.ndim != 2 or b.ndim != 2 or c.ndim != 2 \
            or a.shape[1] != b.shape[0] or b.shape[1] != c.shape[0]:
        raise ShapeMismatchError(
            f"matmul_elu_matmul: {a.shape} @ {b.shape} @ {c.shape}")

    def activation():
        """ELU(a @ b)."""
        h = a.data @ b.data
        below = np.minimum(h, 0.0)
        np.expm1(below, out=below)
        np.maximum(h, below, out=h)     # expm1(x) > x below zero
        return h

    data = activation() @ c.data

    def backward_fn(g):
        h = activation()
        g_c = h.T @ g if c.requires_grad else None
        g_a = g_b = None
        if a.requires_grad or b.requires_grad:
            h += 1.0
            np.minimum(h, 1.0, out=h)   # ELU's slope
            h *= g @ c.data.T
            g_a = h @ b.data.T if a.requires_grad else None
            g_b = a.data.T @ h if b.requires_grad else None
        return g_a, g_b, g_c

    return _result(data, "matmul_elu_matmul", (a, b, c), backward_fn)


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
    """Scaled dot-product attention of (N, t, e) operands, split into
    ``heads`` heads of e / heads channels along the last axis: each of the
    N sequences attends over its own t positions, and the (N, t, e) context
    comes back with the heads side by side again.

    The (N, heads, t, t) weights are not recorded: the backward recomputes
    them from ``q`` and ``k``.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape \
            or q.shape[-1] % heads:
        raise ShapeMismatchError(
            f"attention: {q.shape}, {k.shape}, {v.shape} in {heads} heads")
    n, t, e = q.shape
    dh = e // heads
    scale = 1.0 / math.sqrt(dh)

    def split(a):
        """(N, t, e) -> (N, heads, t, dh), a view."""
        return a.reshape((n, t, heads, dh)).transpose((0, 2, 1, 3))

    def weights():
        """The softmax of the scaled scores, max-subtracted."""
        alpha = split(q.data) @ split(k.data).transpose((0, 1, 3, 2))
        alpha *= scale
        alpha -= alpha.max(axis=-1, keepdims=True)
        np.exp(alpha, out=alpha)
        alpha /= alpha.sum(axis=-1, keepdims=True)
        return alpha

    alpha = weights()
    data = (alpha @ split(v.data)).transpose((0, 2, 1, 3)).reshape((n, t, e))

    def backward_fn(g):
        alpha = weights()
        g = split(g)
        g_v = None
        if v.requires_grad:
            g_v = (alpha.transpose((0, 1, 3, 2)) @ g).transpose((0, 2, 1, 3)) \
                .reshape((n, t, e))
        g_scores = g @ split(v.data).transpose((0, 1, 3, 2))
        g_scores -= (g_scores * alpha).sum(axis=-1, keepdims=True)
        g_scores *= alpha                   # the softmax's Jacobian
        g_scores *= scale
        g_q = g_k = None
        if q.requires_grad:
            g_q = (g_scores @ split(k.data)).transpose((0, 2, 1, 3)).reshape((n, t, e))
        if k.requires_grad:
            g_k = (g_scores.transpose((0, 1, 3, 2)) @ split(q.data)) \
                .transpose((0, 2, 1, 3)).reshape((n, t, e))
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
