import numpy as np
import pytest

from stedge.autodiff import (
    DisconnectedOutputError,
    NonFiniteError,
    ParameterStore,
    ShapeMismatchError,
    Tensor,
    backward,
    concatenate,
    elu,
    exp,
    gradcheck,
    leaky_relu,
    log,
    logistic,
    softmax,
    tanh,
    _result,
    add,
    matmul,
    mul,
    sub,
)


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
    ("leaky_relu", lambda t: leaky_relu(t, 0.2).sum()),
    ("elu", lambda t: elu(t).sum()),
    ("logistic", lambda t: logistic(t).sum()),
    ("softmax", lambda t: (softmax(t) * softmax(t)).sum()),
    ("mul", lambda t: (t * t * t).sum()),
    ("sub", lambda t: ((t - 0.3) * t).sum()),
    ("mean", lambda t: (t * t).mean()),
    ("reshape", lambda t: (t.reshape((6, 2)) * 2.0).sum()),
    ("transpose", lambda t: (t.T @ Tensor(np.ones((3, 2)))).sum()),
    ("slice", lambda t: (t[1:, :2] * t[1:, :2]).sum()),
])
def test_primitive_gradients_vs_finite_differences(name, fn):
    rng = np.random.default_rng(hash(name) % 2**32)
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
    err = gradcheck(lambda: (concatenate([a, b], axis=1) ** 2).sum(), [a, b], eps=1e-5)
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
