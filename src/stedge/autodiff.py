"""Reverse-mode automatic differentiation over dense float64 arrays.

A small define-by-run engine: every operation records its parent tensors
and a closure mapping the output gradient to parent gradients.  backward()
walks the recorded graph in reverse topological order and accumulates into
``Tensor.grad`` of the leaves, the tensors no recorded op produced (+=,
never overwrite), so repeated backward passes sum.  Intermediates pass
their gradient on and keep ``grad`` None.  A closure computes nothing for
an operand that does not require a gradient (a constant, a Python scalar):
it returns None in that slot.

The primitive set is deliberately fixed to what the model needs: matmul,
elementwise arithmetic, exp/log/tanh, leaky-rectifier, exponential-linear,
softmax over the last axis, sum/mean reductions, reshape / transpose /
concatenate, basic slicing, and the scatter of edge values onto a
node-pair grid.  Elementwise ops broadcast with numpy's trailing-dimension
alignment.  Every forward result is checked for NaN/Inf and the offending
op is named when the check fires.
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
    "backward",
    "gradcheck",
    "concatenate",
    "exp",
    "log",
    "tanh",
    "leaky_relu",
    "elu",
    "logistic",
    "softmax",
    "pair_scatter",
]


_M_TRIM_THRESHOLD = -1      # glibc mallopt parameter numbers
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit
_TRIM_THRESHOLD = 2**31 - 1  # the largest value mallopt accepts


def _keep_freed_heap(libc) -> None:
    """Make the C allocator keep the heap this process has freed.

    Every op allocates its result and gradient afresh, and one window's
    temporaries (the (d, n, n) fusion grid of each patch, the Laguerre
    basis, attention logits, GEMM outputs) reach several MiB each.  By
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

    def backward(self, seed=None) -> None:
        backward(self, seed)

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

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return mul(self, 1.0 / other)
        raise TypeError("tensor/tensor division is outside the primitive set; "
                        "use exp(-log(u)) for positive u")

    def __pow__(self, n):
        if not isinstance(n, int) or n < 1:
            raise TypeError("only positive integer powers are supported")
        out = self
        for _ in range(n - 1):
            out = mul(out, self)
        return out

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

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def tanh(self):
        return tanh(self)


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

    With a 2-D right operand the left one's leading axes fold into rows,
    so the product and each gradient are a single GEMM; the weight
    gradient is then one (k, rows) @ (rows, n) product instead of a batch
    of small ones summed afterwards.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    if b.ndim == 2:
        k, n = b.shape
        rows = math.prod(a.shape[:-1])
        data = (a.data.reshape(rows, k) @ b.data).reshape(a.shape[:-1] + (n,))

        def backward_fn(g):
            g = g.reshape(rows, n)
            ga = (g @ b.data.T).reshape(a.shape) if a.requires_grad else None
            gb = a.data.reshape(rows, k).T @ g if b.requires_grad else None
            return ga, gb

        return _result(data, "matmul", (a, b), backward_fn)
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


def leaky_relu(x, negative_slope: float = 0.2) -> Tensor:
    x = _as_tensor(x)
    data = np.where(x.data >= 0.0, x.data, negative_slope * x.data)

    def backward_fn(g):
        return (g * np.where(x.data >= 0.0, 1.0, negative_slope),)

    return _result(data, "leaky_relu", (x,), backward_fn)


def elu(x, alpha: float = 1.0) -> Tensor:
    x = _as_tensor(x)
    data = np.where(x.data >= 0.0, x.data, alpha * np.expm1(x.data))

    def backward_fn(g):
        return (g * np.where(x.data >= 0.0, 1.0, alpha * np.exp(x.data)),)

    return _result(data, "elu", (x,), backward_fn)


def logistic(x) -> Tensor:
    """Sigmoid built from tanh so it stays inside the primitive set."""
    return tanh(mul(x, 0.5)) * 0.5 + 0.5


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


def pair_scatter(x, rows, cols, n: int) -> Tensor:
    """Fill c symmetric (n, n) grids from an (m, c) input: row e of ``x``
    lands at cells (rows[e], cols[e]) and (cols[e], rows[e]) of each
    channel's grid, every other cell is zero.  Output (c, n, n).

    The pairs must be distinct, off the diagonal and each listed in one
    orientation only, so no cell is written twice; the backward gathers
    both cells of each pair and adds them.
    """
    x = _as_tensor(x)
    if x.ndim != 2 or len(rows) != x.shape[0] or len(cols) != x.shape[0]:
        raise ShapeMismatchError(
            f"pair_scatter: {x.shape} input for {len(rows)}/{len(cols)} pairs")
    c = x.shape[1]
    cells = np.asarray(rows) * n + np.asarray(cols)
    mirror = np.asarray(cols) * n + np.asarray(rows)
    grid = np.zeros((c, n * n))
    grid[:, cells] = x.data.T
    grid[:, mirror] = x.data.T

    def backward_fn(g):
        flat = g.reshape(c, n * n)
        return ((np.take(flat, cells, axis=1) + np.take(flat, mirror, axis=1)).T,)

    return _result(grid.reshape(c, n, n), "pair_scatter", (x,), backward_fn)


# -- reverse pass -------------------------------------------------------------


def backward(output: Tensor, seed=None) -> None:
    """Accumulate d(output)/d(t) into ``t.grad`` for every leaf ``t`` (a
    requires_grad tensor no recorded op produced) reachable from ``output``.

    Intermediates only pass their gradient on; their ``grad`` stays None.
    A leaf's ``grad`` is an array of its own, so callers may scale it in
    place.  ``output`` must be a scalar unless a same-shaped gradient
    ``seed`` is supplied.  Grads add across calls; callers zero them
    between steps.
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
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(output): seed}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            # a leaf; g may be a view shared with other gradients
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if not parent.requires_grad or pg is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg


def gradcheck(f, params, eps: float = 1e-5) -> float:
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

    def __iter__(self):
        return iter(self._params)

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
