import zlib

import numpy as np
import pytest

import stedge.autodiff
from stedge.autodiff import (
    DisconnectedOutputError,
    GraphFreedError,
    NonFiniteError,
    ParameterStore,
    ShapeMismatchError,
    Tensor,
    attention,
    backward,
    concatenate,
    elu,
    exp,
    gradcheck,
    gated_neighbour_mean,
    layer_norm,
    linear,
    log,
    pair_attention,
    softmax,
    tanh,
    unfold,
    _result,
    add,
    matmul,
    mul,
    sub,
)



def _patch0(edges):
    """An (m, 2) edge list as the (m, 3) list of one patch, patch 0."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.column_stack([np.zeros(len(edges), dtype=np.int64), edges])


def _on_route(segment, op, *args):
    """``op(*args)`` with the segment route, or the grid route, forced; the
    backward closure keeps the route its forward took."""
    saved = stedge.autodiff._SEGMENT_DENSITY
    stedge.autodiff._SEGMENT_DENSITY = 2.0 if segment else 0.0   # above or below any density
    try:
        return op(*args)
    finally:
        stedge.autodiff._SEGMENT_DENSITY = saved


# the three edges of a triangle, and weights that make the summed outputs
# of the fused ops depend on every entry
_TRIANGLE_EDGES = _patch0([[0, 1], [0, 2], [1, 2]])
_WEIGHTS = np.random.default_rng(4).normal(size=(3, 4))
_WINDOW_WEIGHTS = np.random.default_rng(5).normal(size=(2, 4, 2))   # unfold's (K, N * L, D)
# a constant four-order basis of the triangle's edges, and constant values
# on its nodes, for the edge op's gradients through its gates alone
_TRIANGLE_BASIS = np.random.default_rng(6).normal(size=(3, 4))
_TRIANGLE_VALUES = np.random.default_rng(7).normal(size=(1, 3, 4))
# the two edges of a three-node path: nodes 0 and 2 do not see each other
_PATH_EDGES = _patch0([[0, 1], [1, 2]])
# a shift per sender that puts every row's pair sums on both sides of the
# attention's LeakyReLU kink: a softmax cancels a row-constant receiver
# term, so the receiver's gradient shows only where a row straddles it
_SIDES = np.array([[3.0], [-3.0], [3.0]])


def test_matmul_all_ones_contraction():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 2)))
    out = a @ b
    assert out.shape == (2, 2)
    np.testing.assert_array_equal(out.data, np.full((2, 2), 3.0))


def test_softmax_uniform_on_equal_logits():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_huge_logit_no_overflow():
    # shifted-exponent hand computation: exp(0)=1, exp(-1000) underflows to 0
    out = softmax(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-300)
    assert abs(out.data.sum() - 1.0) < 1e-15


def test_square_gradient():
    x = Tensor(3.0, requires_grad=True)
    y = x * x
    backward(y)
    assert x.grad == pytest.approx(6.0)


def test_sum_of_softmax_has_zero_gradient():
    x = Tensor([0.3, -1.2, 2.0], requires_grad=True)
    y = softmax(x).sum()
    backward(y)
    np.testing.assert_allclose(x.grad, np.zeros(3), atol=1e-12)


def test_gradient_accumulation_is_additive():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = (x * x).sum()
    backward(y)
    first = x.grad.copy()
    y2 = (x * x).sum()
    backward(y2)
    np.testing.assert_allclose(x.grad, 2.0 * first)


def test_backward_requires_scalar_without_seed():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 2.0
    with pytest.raises(ShapeMismatchError):
        backward(y)
    backward(y, seed=np.ones(2))
    np.testing.assert_allclose(x.grad, [2.0, 2.0])


def test_disconnected_output_rejected():
    c = Tensor([1.0, 2.0])
    with pytest.raises(DisconnectedOutputError):
        backward(c)


def _graph_nodes(output):
    """Every tensor reachable from ``output`` through recorded parents."""
    seen, stack, nodes = set(), [output], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    return nodes


def _small_graph():
    rng = np.random.default_rng(23)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    return x, w, tanh(x @ w) * 2.0


def test_backward_frees_the_graph_it_walks():
    x, w, y = _small_graph()
    loss = (y * y).sum() + y.sum()
    held = _graph_nodes(loss)
    assert sum(t._backward is not None for t in held) == 7   # the recorded ops
    backward(loss)
    assert _graph_nodes(loss) == [loss]
    for t in held:
        assert t._parents == () and t._backward is None
    assert x.grad is not None and w.grad is not None


def test_loss_value_reads_after_backward_frees_it():
    x, w, y = _small_graph()
    loss = (y * y).sum()
    value = float((np.tanh(x.data @ w.data) ** 2).sum() * 4.0)
    backward(loss)
    assert loss._parents == () and loss._backward is None
    assert loss.item() == pytest.approx(value, rel=1e-14)
    assert loss.op == "sum"


def test_second_backward_of_an_output_raises():
    x, w, y = _small_graph()
    loss = y.sum()
    backward(loss)
    first = w.grad.copy()
    with pytest.raises(GraphFreedError, match="'sum'"):
        backward(loss)
    np.testing.assert_array_equal(w.grad, first)   # nothing accumulated


def test_second_backward_through_a_shared_subgraph_raises():
    x, w, y = _small_graph()
    backward(y.sum())
    first = x.grad.copy()
    with pytest.raises(GraphFreedError, match="'mul'"):   # y, freed above
        backward((y * y).sum())
    np.testing.assert_array_equal(x.grad, first)


@pytest.mark.parametrize("idx", [[0, 0, 2], np.array([0, 0, 2]),
                                 np.array([True, False, True]), True,
                                 (slice(None), [1, 1])],
                         ids=["list", "int-array", "mask", "bool", "list-in-tuple"])
def test_advanced_index_is_refused_before_recording(monkeypatch, idx):
    """The slice backward scatters with buf[idx] += g, which counts a
    repeated index once (x[[0, 0, 2]].sum() would give x.grad [1, 0, 1],
    not [2, 0, 1]), so only basic indices record an op."""
    import stedge.autodiff
    recorded = []
    monkeypatch.setattr(stedge.autodiff, "_result",
                        lambda *args: recorded.append(args[1]) or _result(*args))
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    with pytest.raises(IndexError, match="only basic indices are differentiable"):
        x[idx]
    assert recorded == []


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


def test_nonfinite_names_the_op():
    with pytest.raises(NonFiniteError, match="log"):
        log(Tensor([-1.0]))


def test_forward_is_deterministic():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(4, 5)))
    w = Tensor(rng.normal(size=(5, 3)))

    def run():
        return softmax(tanh(x @ w)).data.tobytes()

    assert run() == run()


def _fd_for(param, closure, eps=1e-6):
    flat = param.data.reshape(-1)
    grads = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = closure().item()
        flat[i] = orig - eps
        fm = closure().item()
        flat[i] = orig
        grads[i] = (fp - fm) / (2 * eps)
    return grads.reshape(param.shape)


# analytic gradient of each primitive matches central differences within 1e-5
# on inputs in [-2, 2]; kink-prone ops are probed at |x| > 1e-3
@pytest.mark.parametrize("name,fn", [
    ("exp", lambda t: exp(t).sum()),
    ("log", lambda t: log(t * t + 1.0).sum()),
    ("tanh", lambda t: tanh(t).sum()),
    ("elu", lambda t: elu(t).sum()),
    # pair_attention: pair sums 0.5 (t_i + t_j) +- 3 kept 1 clear of
    # LeakyReLU's kink, on both sides of it in every row
    ("pair_attention_logits", lambda t: (_on_route(False, pair_attention, (
        t * 0.5)[None], (t * 0.5 + _SIDES)[None], t[0] * 0.5, _PATH_EDGES)[0]
        * _WEIGHTS).sum()),
    ("pair_attention_segments", lambda t: (_on_route(True, pair_attention, (
        t * 0.5)[None], (t * 0.5 + _SIDES)[None], t[0] * 0.5, _PATH_EDGES)[0]
        * _WEIGHTS).sum()),
    ("gated_neighbour_sum", lambda t: (_on_route(False, gated_neighbour_mean,
        _TRIANGLE_BASIS, t.T * 0.5, t * 0.3, t[None], _TRIANGLE_EDGES)[0]
        * _WEIGHTS).sum()),
    ("gated_neighbour_mean_segments", lambda t: (_on_route(True, gated_neighbour_mean,
        _TRIANGLE_BASIS, t.T * 0.5, t * 0.3, t[None], _TRIANGLE_EDGES)[0]
        * _WEIGHTS).sum()),
    # through the edge op's gates alone: the ELU product and map, the
    # sigmoid near the middle ...
    ("matmul_elu_matmul", lambda t: (gated_neighbour_mean(
        _TRIANGLE_BASIS, t.T * 0.5, t * 0.3, _TRIANGLE_VALUES, _TRIANGLE_EDGES)[0]
        * _WEIGHTS).sum()),
    # ... and into its flat tails
    ("edge_gates", lambda t: (gated_neighbour_mean(
        _TRIANGLE_BASIS, t.T * 0.5, t * 2.0, _TRIANGLE_VALUES, _TRIANGLE_EDGES)[0]
        * _WEIGHTS).sum()),
    # ReLU inputs kept at least 1 clear of the kink, on both sides of it
    ("linear", lambda t: (
        linear(t, t.T * 0.1, t[0, :3] * 0.1 + 3.0, relu=True) * _WEIGHTS[:, :3]
        + linear(t, t.T * 0.1, t[1, :3] * 0.1 - 3.0, relu=True) * _WEIGHTS[:, 1:]
        + linear(t, t.T, t[2, :3]) * _WEIGHTS[:, :3]).sum()),
    ("layer_norm", lambda t: (layer_norm(t, t[0], t[1]) * _WEIGHTS).sum()),
    ("attention", lambda t: (attention(
        t.reshape((1, 3, 4)), (t * 0.5).reshape((1, 3, 4)),
        (t * t).reshape((1, 3, 4)), 2).reshape((3, 4)) * _WEIGHTS).sum()),
    # two queries, the last two rows, over three keys and values
    ("attention_fewer_queries", lambda t: (attention(
        t[None, 1:], (t * 0.5)[None], (t * t)[None], 2)[0] * _WEIGHTS[1:]).sum()),
    # two windows of two steps, overlapping on the middle step
    ("unfold", lambda t: (unfold(t.reshape((2, 3, 2)), 2, 1) * _WINDOW_WEIGHTS).sum()),
    ("softmax", lambda t: (softmax(t) * softmax(t)).sum()),
    ("mul", lambda t: (t * t * t).sum()),
    ("sub", lambda t: ((t - 0.3) * t).sum()),
    ("mean", lambda t: (t * t).mean()),
    ("reshape", lambda t: (t.reshape((6, 2)) * 2.0).sum()),
    ("transpose", lambda t: (t.T @ Tensor(np.ones((3, 2)))).sum()),
    ("slice", lambda t: (t[1:, :2] * t[1:, :2]).sum()),
    ("basic_index", lambda t: (t[None, ..., np.int64(0)] * t[1, ::2, None]).sum()),
])
def test_primitive_gradients_vs_finite_differences(name, fn):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    vals = rng.uniform(-2.0, 2.0, size=(3, 4))
    vals[np.abs(vals) < 1e-3] = 0.5  # keep clear of rectifier kinks
    t = Tensor(vals, requires_grad=True)
    err = gradcheck(lambda: fn(t), [t], eps=1e-5)
    assert err < 1e-5, f"{name}: {err}"


def test_matmul_gradient_batched():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    err = gradcheck(lambda: ((x @ w) * (x @ w)).mean(), [x, w], eps=1e-5)
    assert err < 1e-5


def test_broadcast_add_gradient():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    err = gradcheck(lambda: ((x + b) * (x + b)).sum(), [x, b], eps=1e-5)
    assert err < 1e-5


def test_concatenate_gradient():
    rng = np.random.default_rng(13)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)

    def f():
        c = concatenate([a, b], axis=1)
        return (c * c).sum()

    err = gradcheck(f, [a, b], eps=1e-5)
    assert err < 1e-5


def test_gradcheck_exact_for_linear_map():
    rng = np.random.default_rng(5)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(3, 2)))
    err = gradcheck(lambda: (w @ x).sum(), [w], eps=1e-5)
    assert err < 1e-9


def test_gradcheck_flags_wrong_backward_rule():
    # negative control: a square op whose backward claims d(x^2)/dx = 3x
    def bad_square(t):
        return _result(t.data * t.data, "bad_square", (t,),
                       lambda g: (g * 3.0 * t.data,))

    x = Tensor([0.7, -1.1, 0.4], requires_grad=True)
    err = gradcheck(lambda: bad_square(x).sum(), [x], eps=1e-5)
    assert err > 1e-2


def test_gradcheck_rejects_bad_eps():
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError):
        gradcheck(lambda: (x * x).sum(), [x], eps=0.5)


def test_parameter_store_order_and_duplicates():
    store = ParameterStore()
    store.add("b", np.zeros(2))
    store.add("a", np.ones((2, 2)))
    assert store.names() == ["b", "a"]
    assert store.n_values() == 6
    with pytest.raises(ValueError):
        store.add("a", np.zeros(1))
    for t in store.tensors():
        t.grad = np.ones_like(t.data)
    store.zero_grad()
    assert all(t.grad is None for t in store.tensors())


# -- need-grad pruning and leaf-only gradients ----------------------------------


@pytest.mark.parametrize("op", [add, sub, mul, matmul])
@pytest.mark.parametrize("const_shape, var_shape", [((3, 3), (3, 3)),
                                                    ((2, 3, 3), (3, 3)),
                                                    ((3, 3), (2, 3, 3))])
def test_constant_operand_gets_no_gradient(op, const_shape, var_shape):
    rng = np.random.default_rng(21)
    const = Tensor(rng.normal(size=const_shape))
    var = Tensor(rng.normal(size=var_shape), requires_grad=True)
    for a, b in ((const, var), (var, const)):
        out = op(a, b)
        grads = out._backward(np.ones(out.shape))
        assert grads[0 if a is const else 1] is None
        assert grads[1 if a is const else 0].shape == var.shape
    if op is not matmul:               # a Python scalar is a constant too
        out = op(var, 2.0)
        assert out._backward(np.ones(out.shape))[1] is None


def test_backward_fills_only_leaf_gradients():
    rng = np.random.default_rng(22)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    c = rng.normal(size=(4, 2))
    h = x @ w
    y = tanh(h)
    z = y * c + x.sum()
    loss = z.sum()
    backward(loss)
    for t in (h, y, z, loss):
        assert t.grad is None
    dh = c * (1.0 - np.tanh(x.data @ w.data) ** 2)
    np.testing.assert_allclose(w.grad, x.data.T @ dh, rtol=1e-14, atol=1e-14)
    # x.sum() is broadcast over every entry of z
    np.testing.assert_allclose(x.grad, dh @ w.data.T + c.size, rtol=1e-14, atol=1e-14)


def test_leaf_gradients_are_owned_arrays():
    # add hands the same gradient array to both operands
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    backward((a + b).sum())
    a.grad *= 5.0                      # trainers scale gradients in place
    np.testing.assert_array_equal(b.grad, np.ones(3))
    backward((a + b).sum())            # and a second pass still accumulates
    np.testing.assert_array_equal(a.grad, np.full(3, 6.0))
    np.testing.assert_array_equal(b.grad, np.full(3, 2.0))


def test_leaf_gradients_accumulate_in_place():
    # a second pass adds into the leaf's own array instead of replacing it
    w = Tensor(np.ones((2, 3)), requires_grad=True)
    backward((w * w).sum())
    first = w.grad
    backward((w * 3.0).sum())
    assert w.grad is first
    np.testing.assert_array_equal(first, np.full((2, 3), 5.0))


@pytest.mark.parametrize("lead", [(2, 3), (2, 2, 3)])
def test_nd_at_2d_matmul_gradients(lead):
    rng = np.random.default_rng(23)
    a_data = rng.normal(size=lead + (4,))
    b_data = rng.normal(size=(4, 3))
    weights = rng.normal(size=lead + (3,))
    np.testing.assert_allclose(matmul(Tensor(a_data), Tensor(b_data)).data,
                               np.matmul(a_data, b_data), rtol=1e-14, atol=1e-14)
    for need_a, need_b in ((True, True), (True, False), (False, True)):
        a = Tensor(a_data.copy(), requires_grad=need_a)
        b = Tensor(b_data.copy(), requires_grad=need_b)
        params = [t for t in (a, b) if t.requires_grad]
        err = gradcheck(lambda: (matmul(a, b) * weights).sum(), params, eps=1e-5)
        assert err < 1e-8
        if not need_b:
            assert b.grad is None
        if not need_a:
            assert a.grad is None


def _pairs(n, rng):
    """A random set of distinct off-diagonal pairs, each listed once in a
    random orientation, as an (m, 2) edge list."""
    rows, cols = np.nonzero(np.triu(rng.random((n, n)) < 0.5, 1))
    flip = rng.random(len(rows)) < 0.5
    return np.stack([np.where(flip, cols, rows), np.where(flip, rows, cols)], axis=1)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _gate_operands(rng, m, d, order=2):
    """A constant (m, order) basis, (order, d) coefficients and a (d, d)
    gate map, and the (m, d) gates sigmoid(ELU(basis @ coeffs) @ phi) they
    give."""
    basis, coeffs, phi = (rng.normal(size=shape) for shape in ((m, order), (order, d), (d, d)))
    h = basis @ coeffs
    return basis, coeffs, phi, _sigmoid(np.where(h > 0.0, h, np.expm1(np.minimum(h, 0.0))) @ phi)


@pytest.mark.parametrize("d", [1, 4])
def test_gated_neighbour_sum_matches_loop(d):
    """``gated_neighbour_mean`` is the looped sum of its gates times the
    neighbours' values over each node's edges, divided by the node's degree
    (an isolated node's by 1), on either route."""
    rng = np.random.default_rng(31)
    for n in (2, 3, 7):
        edges = _pairs(n, rng)
        basis, coeffs, phi, gates = _gate_operands(rng, len(edges), d)
        x = rng.normal(size=(n, d))
        want = np.zeros((n, d))
        degree = np.zeros(n)
        for e, (u, v) in enumerate(edges):
            want[u] += gates[e] * x[v]
            want[v] += gates[e] * x[u]
            degree[[u, v]] += 1
        want /= np.maximum(degree, 1)[:, None]
        for segment in (False, True):
            got = _on_route(segment, gated_neighbour_mean, basis, Tensor(coeffs), Tensor(phi),
                            Tensor(x[None]), _patch0(edges)).data[0]
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("d", [1, 5])
def test_gated_neighbour_sum_gradient(d):
    """``gated_neighbour_mean``'s gradients of the filter coefficients, the
    gate map and the values, with one gate per edge and channel, at one
    channel and at five, on either route."""
    rng = np.random.default_rng(32)
    n = 6
    edges = _pairs(n, rng)
    basis, coeffs, phi, _ = _gate_operands(rng, len(edges), d, order=3)
    coeffs, phi = Tensor(coeffs, requires_grad=True), Tensor(phi, requires_grad=True)
    x = Tensor(rng.normal(size=(1, n, d)), requires_grad=True)
    weights = rng.normal(size=(1, n, d))
    for segment in (False, True):
        err = gradcheck(lambda: (_on_route(segment, gated_neighbour_mean, basis, coeffs, phi,
                                           x, _patch0(edges)) * weights).sum(),
                        [coeffs, phi, x], eps=1e-5)
        assert err < 1e-6


def test_gated_neighbour_sum_shape_mismatch():
    x = Tensor(np.ones((1, 3, 2)))
    edges = _patch0([[0, 1], [1, 2]])
    coeffs, phi = Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2)))
    with pytest.raises(ShapeMismatchError):     # two edges, three basis rows
        gated_neighbour_mean(np.ones((3, 4)), coeffs, phi, x, edges)
    with pytest.raises(ShapeMismatchError):     # basis @ coeffs does not fit
        gated_neighbour_mean(np.ones((2, 3)), coeffs, phi, x, edges)
    with pytest.raises(ShapeMismatchError):     # gates not d wide
        gated_neighbour_mean(np.ones((2, 4)), coeffs, Tensor(np.ones((2, 3))), x, edges)


def test_gated_neighbour_sum_rejects_one_gate_per_pair():
    # (m, 1) gates shared by every channel are not a layout the op takes
    x = Tensor(np.ones((1, 3, 2)))
    with pytest.raises(ShapeMismatchError, match=r"phi \(2, 1\)"):
        gated_neighbour_mean(np.ones((2, 4)), Tensor(np.ones((4, 2))), Tensor(np.ones((2, 1))),
                             x, _patch0([[0, 1], [1, 2]]))


@pytest.mark.parametrize("self_loops", [False, True])
def test_receiver_pairs_read_each_reverse_off_their_sort(self_loops):
    """Each directed pair's reverse, read off the sort that built the
    receiver-sorted pairs, is the pair that a second sort, by sender and
    then receiver, puts in its place; three patches, the middle one
    edgeless."""
    rng = np.random.default_rng(33)
    edges = np.concatenate([_patch0(_pairs(7, rng)),
                            np.array([[2, 0, 1], [2, 3, 5], [2, 2, 6]])])
    k, u, v = edges.T
    pairs = stedge.autodiff._ReceiverPairs(k, u, v, 3, 7, 4, self_loops)
    reverse = pairs.reverses()
    np.testing.assert_array_equal(reverse, np.lexsort((pairs.recv, pairs.send)))
    np.testing.assert_array_equal(pairs.send[reverse], pairs.recv)


def test_pair_attention_logits_masks_scores_and_their_gradient():
    """On the path 0 - 1 - 2, node 0 attends over {0, 1} and node 2 over
    {1, 2} as on those two nodes alone, and node 1 over all three as on
    the complete graph; a gradient on node 0's messages reaches neither
    node 2's source row nor the receiver rows of nodes 1 and 2.  Both
    routes."""
    rng = np.random.default_rng(12)
    data = [rng.normal(size=shape) for shape in ((1, 3, 4), (1, 3, 4), (4,))]
    seed = np.zeros((1, 3, 4))
    seed[0, 0] = rng.normal(size=4)
    for segment in (False, True):
        dst, src, att = leaves = [Tensor(a, requires_grad=True) for a in data]
        out = _on_route(segment, pair_attention, dst, src, att, _PATH_EDGES)
        first = pair_attention(dst.data[:, :2], src.data[:, :2], att.data,
                               _patch0([[0, 1]])).data
        last = pair_attention(dst.data[:, 1:], src.data[:, 1:], att.data,
                              _patch0([[0, 1]])).data
        full = pair_attention(dst.data, src.data, att.data, _TRIANGLE_EDGES).data
        np.testing.assert_allclose(out.data[0], [first[0, 0], full[0, 1], last[0, 1]],
                                   rtol=1e-14, atol=1e-14)
        backward(out, seed)
        assert not src.grad[0, 2].any() and not dst.grad[0, 1:].any()
        assert src.grad[0, :2].all() and att.grad.all()


@pytest.mark.parametrize("segment", [False, True], ids=["grid", "segments"])
def test_pair_ops_on_an_edge_list_that_leaves_a_node_without_edges(segment):
    """Node 2 of patch 0 and node 0 of patch 1 have no edge: each attends
    over itself alone, so its message is its own source row, and its gated
    mean is 0; no gradient reaches it through another node, and a gradient
    on its own output reaches only its own rows."""
    rng = np.random.default_rng(13)
    edges = np.array([[0, 0, 1], [1, 1, 2]])
    dst, src, att = leaves = [Tensor(rng.normal(size=shape), requires_grad=True)
                              for shape in ((2, 3, 4), (2, 3, 4), (4,))]
    basis, coeffs, phi, _ = _gate_operands(rng, 2, 4)
    coeffs, phi = Tensor(coeffs, requires_grad=True), Tensor(phi, requires_grad=True)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    messages = _on_route(segment, pair_attention, dst, src, att, edges)
    mean = _on_route(segment, gated_neighbour_mean, basis, coeffs, phi, x, edges)
    lonely = [(0, 2), (1, 0)]
    for k, i in lonely:
        np.testing.assert_array_equal(messages.data[k, i], src.data[k, i])
        assert not mean.data[k, i].any()
    seed = np.ones((2, 3, 4))
    for k, i in lonely:
        seed[k, i] = 0.0
    backward(messages, seed)
    backward(mean, seed)
    for k, i in lonely:
        assert not src.grad[k, i].any() and not dst.grad[k, i].any()
        assert not x.grad[k, i].any()
    other = np.ones((2, 3), dtype=bool)
    for k, i in lonely:
        other[k, i] = False
    for t in leaves + [coeffs, phi, x]:
        t.zero_grad()
    seed = np.zeros((2, 3, 4))
    seed[0, 2] = 1.0
    backward(_on_route(segment, pair_attention, dst, src, att, edges), seed)
    assert not src.grad[other].any() and not dst.grad.any() and not att.grad.any()
    np.testing.assert_array_equal(src.grad[0, 2], 1.0)


def test_fused_op_shape_mismatch():
    edge = _patch0([[0, 1]])
    with pytest.raises(ShapeMismatchError):     # dst and src of different widths
        pair_attention(Tensor(np.ones((1, 3, 2))), Tensor(np.ones((1, 3, 3))),
                       Tensor(np.ones(2)), edge)
    with pytest.raises(ShapeMismatchError, match=r"\(1, 4, 2\)"):     # a row per node each
        pair_attention(Tensor(np.ones((1, 3, 2))), Tensor(np.ones((1, 4, 2))),
                       Tensor(np.ones(2)), edge)
    with pytest.raises(ShapeMismatchError):     # an att of the wrong width
        pair_attention(Tensor(np.ones((1, 3, 2))), Tensor(np.ones((1, 3, 2))),
                       Tensor(np.ones(3)), edge)
    with pytest.raises(ShapeMismatchError):     # one patch's (n, d) rows, not (K, n, d)
        pair_attention(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2))),
                       Tensor(np.ones(2)), edge)
    x = Tensor(np.ones((1, 3, 4)))
    with pytest.raises(ShapeMismatchError):     # a one-patch (n, d) x, not (K, n, d)
        gated_neighbour_mean(np.ones((1, 2)), Tensor(np.ones((2, 4))),
                             Tensor(np.ones((4, 4))), Tensor(np.ones((3, 4))), edge)
    with pytest.raises(ShapeMismatchError):     # (basis @ coeffs) @ phi does not fit
        gated_neighbour_mean(np.ones((1, 2)), Tensor(np.ones((2, 4))),
                             Tensor(np.ones((3, 4))), x, edge)


def test_fused_encoder_op_shape_mismatch():
    x = Tensor(np.ones((2, 3, 4)))
    with pytest.raises(ShapeMismatchError):     # bias as wide as the input
        linear(x, Tensor(np.ones((4, 5))), Tensor(np.ones(4)))
    with pytest.raises(ShapeMismatchError):
        layer_norm(x, Tensor(np.ones(3)), Tensor(np.ones(4)))
    with pytest.raises(ShapeMismatchError):     # 4 channels in 3 heads
        attention(x, x, x, 3)
    with pytest.raises(ShapeMismatchError):
        attention(x, x, Tensor(np.ones((2, 4, 4))), 2)
    with pytest.raises(ShapeMismatchError):     # more queries than keys
        attention(Tensor(np.ones((2, 4, 4))), x, x, 2)
    with pytest.raises(ShapeMismatchError):     # windows longer than the steps
        unfold(x, 4, 1)
