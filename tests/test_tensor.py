"""Tensor engine: forward values and gradients vs finite differences."""

import math

import numpy as np
import pytest

from moelora.errors import ConfigError, DomainError, ShapeError
from moelora.tensor import (
    Tensor,
    causal_attention,
    cross_entropy,
    finite_diff_grad,
    linear,
    matmul,
    moe_lora,
    no_grad,
    rms_norm,
    softmax,
    take_rows,
    tempered_softmax,
)

RNG = np.random.default_rng(20240817)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0), 1e-8)
    return float(np.max(np.abs(a - b), initial=0.0) / denom)


# -- matmul -----------------------------------------------------------------


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    v = Tensor([[3.0], [4.0]])
    assert np.array_equal((eye @ v).data, [[3.0], [4.0]])


def test_matmul_zero():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    z = Tensor([[0.0], [0.0]])
    assert np.array_equal((a @ z).data, [[0.0], [0.0]])


def test_matmul_hand_value():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0], [5.0]])
    assert np.array_equal((a @ b).data, [[13.0]])


def test_matmul_shape_error_reports_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError) as exc:
        _ = a @ b
    assert "(2, 3)" in str(exc.value)


def test_matmul_associativity():
    for _ in range(25):
        a = Tensor(RNG.normal(size=(4, 3)))
        b = Tensor(RNG.normal(size=(3, 5)))
        c = Tensor(RNG.normal(size=(5, 2)))
        left = ((a @ b) @ c).data
        right = (a @ (b @ c)).data
        assert rel_err(left, right) < 1e-9


def test_matmul_vector_cases():
    # a vector is a [1 x n] row or an [n x 1] column; a 1-D operand is rejected
    m = Tensor(RNG.normal(size=(3, 4)))
    v = Tensor(RNG.normal(size=(4, 1)))
    w = Tensor(RNG.normal(size=(1, 3)))
    assert (m @ v).shape == (3, 1)
    assert (w @ m).shape == (1, 4)
    d = matmul(v.T, v)
    assert d.shape == (1, 1)
    assert math.isclose(d.item(), float(v.data[:, 0] @ v.data[:, 0]))
    v1, w1 = Tensor(v.data[:, 0]), Tensor(w.data[0])
    for a, b in ((m, v1), (w1, m), (v1, v1)):
        with pytest.raises(ShapeError):
            matmul(a, b)


# -- linear -----------------------------------------------------------------


def test_linear_equals_x_times_w_transposed():
    w = Tensor(RNG.normal(size=(3, 4)))
    for shape in ((1, 4), (5, 4)):
        x = Tensor(RNG.normal(size=shape))
        assert np.array_equal(linear(x, w).data, x.data @ w.data.T)


def test_grad_linear_both_operands():
    for shape in ((1, 4), (5, 4)):
        x = Tensor(RNG.normal(size=shape), requires_grad=True)
        w = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        c = Tensor(RNG.normal(size=shape[:-1] + (3,)))

        def loss():
            return (linear(x, w) * c).sum()

        loss().backward()
        for t in (x, w):
            numeric = finite_diff_grad(lambda _: loss().item(), t).data
            assert rel_err(t.grad, numeric) < 1e-9


def test_linear_skips_the_product_of_a_frozen_parent():
    g = RNG.normal(size=(5, 3))
    x = Tensor(RNG.normal(size=(5, 4)), requires_grad=True)
    w = Tensor(RNG.normal(size=(3, 4)))
    out = linear(x, w)
    gx, gw = out._grad_fn(g)
    assert gw is None and np.array_equal(gx, g @ w.data)
    out.sum().backward()
    assert w.grad is None and x.grad is not None
    frozen_x = Tensor(x.data)
    w.requires_grad = True
    assert linear(frozen_x, w)._grad_fn(g)[0] is None


def test_linear_rejects_bad_shapes():
    for x_shape, w_shape in (((4,), (4,)), ((2, 4), (2, 3, 4)), ((2, 4), (3, 5)),
                             ((4,), (3, 5)), ((4,), (3, 4)), ((2, 2, 4), (3, 4)), ((), (3, 4))):
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)))


# -- softmax ----------------------------------------------------------------


def test_softmax_symmetry():
    y = softmax(Tensor([[0.0, 0.0, 0.0]]))
    assert np.allclose(y.data, [[1 / 3] * 3], atol=1e-15)


def test_softmax_analytic():
    y = softmax(Tensor([[math.log(2.0), 0.0]]))
    assert np.allclose(y.data, [[2 / 3, 1 / 3]], atol=1e-12)


def test_softmax_high_temperature_flattens():
    # temperature 1000 applied by the caller; tempered_softmax divides by tau itself
    y = softmax(Tensor([[5.0, 0.0]]) * 0.001)
    expect = math.exp(0.005) / (1.0 + math.exp(0.005))
    assert abs(y.data[0, 0] - expect) < 1e-5
    assert abs(y.data[0, 0] - 0.50125) < 1e-5


def test_softmax_sum_and_shift_invariance():
    for _ in range(200):
        v = RNG.normal(scale=10.0, size=(1, RNG.integers(1, 12)))
        y = softmax(Tensor(v)).data
        assert abs(y.sum() - 1.0) <= 1e-12
        assert np.all(y >= 0)
        shifted = softmax(Tensor(v + 123.456)).data
        assert np.max(np.abs(y - shifted)) <= 1e-12


def test_softmax_rows():
    m = RNG.normal(size=(5, 4))
    y = softmax(Tensor(m)).data
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ShapeError):  # a single row is [1 x n], never a 1-D vector
        softmax(Tensor(m[0]))


def test_softmax_overflow_guard():
    y = softmax(Tensor([[1000.0, 0.0]])).data
    assert np.all(np.isfinite(y))
    assert abs(y.sum() - 1.0) <= 1e-12


def test_softmax_mask_gives_exact_zeros_and_kept_entry_softmax():
    for shape in ((1, 6), (4, 5)):
        mask = RNG.random(shape) < 0.5
        mask[..., 0] = True  # every row keeps an entry
        data = RNG.normal(scale=3.0, size=shape)
        data[~mask] = 1e300  # masked logits take no part, however large
        x = Tensor(data, requires_grad=True)
        y = softmax(x, where=mask).data
        assert np.all(y[~mask] == 0.0)
        assert np.all(np.abs(y.sum(axis=-1) - 1.0) <= 1e-12)
        for row, keep, got in zip(data, mask, y):
            assert rel_err(got[keep], softmax(Tensor([row[keep]])).data[0]) <= 1e-15
        x.data[...] = RNG.normal(size=shape)  # moderate logits keep finite differences exact
        w = Tensor(RNG.normal(size=shape))
        check_grad(lambda t: (softmax(t, where=mask) * w).sum(), x, tol=1e-9)
        assert np.all(x.grad[~mask] == 0.0)


def test_softmax_without_a_mask_matches_an_all_true_mask_bit_for_bit():
    # the unmasked path takes a plain exp, the masked one writes into a zeroed buffer
    for shape in ((31, 8), (127, 8), (31, 2), (127, 16), (1000, 7), (1, 5)):
        for scale in (1.0, 30.0, 700.0):
            x = Tensor(RNG.normal(scale=scale, size=shape))
            assert softmax(x).data.tobytes() == softmax(x, where=np.ones(shape, bool)).data.tobytes()


def test_softmax_row_with_nothing_to_keep_rejected():
    for data, mask in (([[1.0, 2.0]], [[False, False]]),
                       ([[1.0, 2.0], [3.0, 4.0]], [[True, False], [False, False]]),
                       ([[-np.inf, -np.inf]], True)):
        with pytest.raises(DomainError):
            softmax(Tensor(data), where=np.asarray(mask))


def test_softmax_non_finite_row_max_rejected():
    # +inf - +inf in the max shift would give NaN weights, signalled only by a RuntimeWarning
    for data, mask in (([[np.inf, 0.0]], True), ([[np.nan, 0.0]], True),
                       ([[1.0, 2.0], [0.0, np.inf]], True), ([[np.inf, 1.0]], [[True, False]])):
        with pytest.raises(DomainError):
            softmax(Tensor(data), where=np.asarray(mask))
    y = softmax(Tensor([[np.inf, 0.0]]), where=np.array([[False, True]])).data  # a masked +inf is ignored
    assert y.tolist() == [[0.0, 1.0]]


# -- tempered softmax ---------------------------------------------------------


def _sigmoid_reference(th: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-th)) if th[0] >= 0 else np.exp(th) / (1.0 + np.exp(th))


def five_op_tempered_softmax(x: np.ndarray, th: np.ndarray, tau_min: float, g: np.ndarray):
    """Output and (dx, dtheta) of the chain tempered_softmax replaced: softplus,
    + tau_min, pow -1, a scalar-tensor mul and softmax, each as its own numpy step."""
    tau = np.logaddexp(0.0, th) + float(tau_min)
    inv = tau ** -1.0
    z = x * inv
    top = np.max(z, axis=-1, where=True, initial=-np.inf, keepdims=True)
    e = np.exp(z - top, where=True, out=np.zeros_like(z))
    y = e / np.sum(e, axis=-1, keepdims=True)
    gz = y * (g - np.sum(g * y, axis=-1, keepdims=True))
    ginv = np.asarray(np.sum(gz * x)).reshape(th.shape)
    gtau = ginv * (-1.0 * tau ** (-1.0 - 1.0))
    return y, gz * inv, gtau * _sigmoid_reference(th)


def test_tempered_softmax_bit_identical_to_five_op_chain():
    theta_init = math.log(math.expm1(1.0 - 0.05))
    for shape in ((1, 5), (31, 8), (127, 3)):
        for theta in (-30.0, -1.0, theta_init, 0.0, 3.0, 40.0):
            x = RNG.normal(scale=2.0, size=shape)
            th = np.array([theta])
            g = RNG.normal(size=shape)
            out = tempered_softmax(Tensor(x, requires_grad=True), Tensor(th, requires_grad=True), 0.05)
            y, dx, dth = five_op_tempered_softmax(x, th, 0.05, g)
            got_dx, got_dth = out._grad_fn(g)
            assert np.array_equal(out.data, y)
            assert np.array_equal(got_dx, dx)
            assert np.array_equal(got_dth, dth)


def test_grad_tempered_softmax():
    for shape in ((1, 6), (4, 5)):
        for theta in (-2.0, 0.3, 2.5):
            x = Tensor(RNG.normal(size=shape), requires_grad=True)
            th = Tensor([theta], requires_grad=True)
            w = Tensor(RNG.normal(size=shape))
            check_grad(lambda t: (tempered_softmax(t, th, 0.05) * w).sum(), x, tol=1e-9)
            check_grad(lambda t: (tempered_softmax(x, t, 0.05) * w).sum(), th, tol=1e-9)


def test_tempered_softmax_rejects_bad_input():
    for x, th in ((np.zeros(3), np.zeros(2)), (np.zeros(3), np.zeros(1)),
                  (np.zeros((2, 3)), np.zeros((1, 2))), (np.zeros((2, 2, 3)), np.zeros(1)),
                  (np.zeros(()), np.zeros(1))):
        with pytest.raises(ShapeError):
            tempered_softmax(Tensor(x), Tensor(th), 0.05)
    for tau_min in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            tempered_softmax(Tensor(np.zeros((1, 3))), Tensor([0.0]), tau_min)
    with pytest.raises(DomainError):  # x / tau overflows to inf: a DomainError, not a RuntimeWarning
        tempered_softmax(Tensor([[1e307, 0.0]]), Tensor([-50.0]), 0.05)


# -- cross entropy -----------------------------------------------------------


def test_cross_entropy_uniform_logits():
    for c in (2, 5, 17):
        loss = cross_entropy(Tensor(np.zeros((3, c))), [0, 1, c - 1])
        assert abs(loss.item() - math.log(c)) < 1e-12


def test_cross_entropy_confident_limit():
    logits = np.zeros((1, 4))
    logits[0, 2] = 50.0
    assert cross_entropy(Tensor(logits), [2]).item() < 1e-12


def test_cross_entropy_analytic():
    loss = cross_entropy(Tensor([[1.0, 0.0]]), [0])
    assert abs(loss.item() - math.log(1.0 + math.exp(-1.0))) < 1e-12


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])
    with pytest.raises(IndexError):
        cross_entropy(Tensor(np.zeros((1, 3))), [-1])


def test_cross_entropy_rejects_empty_batch():
    for logits in (np.zeros((0, 5)), np.zeros((0, 0))):
        with pytest.raises(DomainError):
            cross_entropy(Tensor(logits), [])


def test_cross_entropy_rejects_non_finite_row_max():
    for logits in ([[np.inf, 0.0]], [[np.nan, 0.0]], [[-np.inf, -np.inf]], [[0.0, 1.0], [np.inf, np.inf]]):
        with pytest.raises(DomainError):
            cross_entropy(Tensor(logits), [0] * len(logits))
    # a -inf logit below a finite max is a zero-probability class, not an error
    assert cross_entropy(Tensor([[0.0, -np.inf]]), [0]).item() == 0.0


def test_cross_entropy_rejects_non_integer_targets():
    # truncating [0.9, 0.2] to [0, 0] would return a wrong loss silently
    logits = Tensor(RNG.normal(size=(2, 3)))
    for bad in ([0.9, 0.2], [0.0, 1.0], [True, False], np.array([1.0, 2.0])):
        with pytest.raises(DomainError):
            cross_entropy(logits, bad)
    ok = np.array([0, 1], dtype=np.uint8)
    assert cross_entropy(logits, ok).item() == cross_entropy(logits, [0, 1]).item()


# -- backward basics ---------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_dot_gives_other_operand():
    # a dot product is a [1 x n] row times an [n x 1] column; two 1-D vectors are rejected
    w = Tensor(RNG.normal(size=(1, 5)), requires_grad=True)
    x = Tensor(RNG.normal(size=(5, 1)))
    matmul(w, x).backward()
    assert np.array_equal(w.grad, x.data.T)
    with pytest.raises(ShapeError):
        matmul(Tensor(w.data[0], requires_grad=True), Tensor(x.data[:, 0]))


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def test_backward_accumulates_until_zero_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    assert np.array_equal(x.grad, 2.0 * first)
    x.zero_grad()
    assert x.grad is None


def test_backward_diamond_graph():
    # y = x used twice: gradients from both paths must add
    x = Tensor([3.0], requires_grad=True)
    y = (x * 2.0) + (x * 5.0)
    y.sum().backward()
    assert np.array_equal(x.grad, [7.0])


def test_no_grad_blocks_recording():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        y = (x * x).sum()
    assert not y.requires_grad
    y2 = (x * x).sum()
    assert y2.requires_grad


# -- finite differences ------------------------------------------------------


def test_finite_diff_quadratic():
    x = Tensor([3.0])
    g = finite_diff_grad(lambda t: float(t.data[0] ** 2), x, h=1e-5)
    assert abs(g.data[0] - 6.0) < 1e-6


def test_finite_diff_constant():
    x = Tensor(RNG.normal(size=4))
    g = finite_diff_grad(lambda t: 7.5, x, h=1e-5)
    assert np.array_equal(g.data, np.zeros(4))


def test_finite_diff_softmax_jacobian_row():
    x = Tensor([[0.0, 0.0]])
    g = finite_diff_grad(lambda t: softmax(t).data[0, 0], x, h=1e-6)
    assert np.allclose(g.data, [[0.25, -0.25]], atol=1e-8)


def test_finite_diff_rejects_bad_step():
    with pytest.raises(DomainError):
        finite_diff_grad(lambda t: 0.0, Tensor([1.0]), h=0.0)


# -- per-op gradient checks ---------------------------------------------------


def check_grad(build, x: Tensor, tol: float = 1e-5, h: float = 1e-5):
    """Analytic gradient of build(x) must match central differences."""
    x.zero_grad()
    build(x).backward()
    analytic = x.grad.copy()
    numeric = finite_diff_grad(lambda t: build(t).item(), x, h=h).data
    assert rel_err(analytic, numeric) < tol, (analytic, numeric)


def test_grad_add_mul_chain():
    x = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
    check_grad(lambda t: ((t + 2.0) * (t * -1.5) + t).sum(), x)


def test_grad_matmul_both_sides():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)

    def loss_of(_):
        return ((a @ b) * (a @ b)).sum()

    loss_of(None).backward()
    na = finite_diff_grad(lambda t: loss_of(t).item(), a).data
    nb = finite_diff_grad(lambda t: loss_of(t).item(), b).data
    assert rel_err(a.grad, na) < 1e-5
    assert rel_err(b.grad, nb) < 1e-5


def test_grad_matmul_vector():
    # the vector is an [n x 1] column; a 1-D one is rejected before any tape is built
    m = Tensor(RNG.normal(size=(3, 4)))
    x = Tensor(RNG.normal(size=(4, 1)), requires_grad=True)
    check_grad(lambda t: ((m @ t) * (m @ t)).sum(), x)
    with pytest.raises(ShapeError):
        m @ Tensor(x.data[:, 0], requires_grad=True)


def test_grad_transpose():
    x = Tensor(RNG.normal(size=(2, 5)), requires_grad=True)
    m = Tensor(RNG.normal(size=(2, 5)))
    check_grad(lambda t: (t.T @ m).sum(), x)


def test_grad_softmax():
    x = Tensor(RNG.normal(size=(1, 6)), requires_grad=True)
    w = Tensor(RNG.normal(size=(1, 6)))
    check_grad(lambda t: (softmax(t * (1.0 / 0.7)) * w).sum(), x)


def test_grad_softmax_rows():
    x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(RNG.normal(size=(3, 4)))
    check_grad(lambda t: (softmax(t) * w).sum(), x)


def test_grad_cross_entropy():
    x = Tensor(RNG.normal(size=(4, 6)), requires_grad=True)
    check_grad(lambda t: cross_entropy(t, [1, 0, 5, 2]), x)


def test_grad_relu():
    x = Tensor(RNG.normal(size=(3, 3)) + 0.05, requires_grad=True)
    w = Tensor(RNG.normal(size=(3, 3)))
    check_grad(lambda t: (t.relu() * w).sum(), x)


RELU_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300])


def relu_inputs(shape) -> np.ndarray:
    """Normal draws with a quarter of the entries, at random places, set to RELU_EDGES:
    signed zeros, subnormals, tiny normals and huge values, alone and in runs."""
    x = RNG.normal(size=shape)
    at = RNG.choice(x.size, size=x.size // 4, replace=False)
    x.flat[at] = RNG.choice(RELU_EDGES, size=at.size)
    x.flat[:64] = -0.0  # a run wider than any vector lane
    return x


def test_relu_forward_bit_equal_to_select():
    for shape in ((31, 128), (127, 128)):
        x = relu_inputs(shape)
        out = Tensor(x).relu().data
        assert out.tobytes() == np.where(x > 0, x, 0.0).tobytes()
        assert not np.signbit(out).any()  # -0.0 and negative subnormals give +0.0


def test_relu_backward_bit_equal_to_masked_product():
    for shape in ((31, 128), (127, 128)):
        x, g = relu_inputs(shape), RNG.normal(size=shape)
        (got,) = Tensor(x, requires_grad=True).relu()._grad_fn(g)
        assert got.tobytes() == (g * (x > 0)).tobytes()


def test_relu_propagates_nan():
    out = Tensor([[np.nan, 1.5, -2.0], [-np.inf, np.inf, -np.nan]]).relu().data
    assert np.isnan(out[0, 0]) and np.isnan(out[1, 2])
    assert out[0, 1] == 1.5 and out[0, 2] == 0.0 and out[1, 0] == 0.0 and out[1, 1] == np.inf


def test_relu_output_never_aliases_input():
    for x in (np.ones((3, 4)), -np.ones((3, 4)), relu_inputs((31, 128))):
        t = Tensor(x.copy())
        out = t.relu()
        assert not np.shares_memory(out.data, t.data)
        out.data[...] = 7.0
        assert np.array_equal(t.data, x)


def test_grad_mean_and_axis_sums():
    x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    w0 = Tensor(RNG.normal(size=4))
    w1 = Tensor(RNG.normal(size=3))
    # a row mean is an axis sum times 1 / columns, as rms_norm's reference composes it
    check_grad(lambda t: (t.sum(axis=0) * w0).sum() + (t.sum(axis=1) * 0.25 * w1).sum()
               + t.sum() * (1.0 / 12), x)


def test_grad_take_rows_scatter_adds():
    table = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
    w = Tensor(RNG.normal(size=(4, 3)))
    check_grad(lambda t: (take_rows(t, [1, 1, 0, 4]) * w).sum(), table)


# -- mixture of LoRA experts ---------------------------------------------------


def eight_op_moe_lora(x, w0, gates, a, b, cols, scales, g):
    """Output and gradients (x, w0, gates, each a, each b) of the chain moe_lora
    replaced: linear with w0, a concat of the a's and of the b's, linear with each
    stack and with the spread built by a loop, a product and a sum, each as its
    own numpy step."""
    a_cat, b_cat = np.concatenate(a, axis=0), np.concatenate(b, axis=1)
    spread = np.zeros((a_cat.shape[0], gates.shape[1]))
    row = 0
    for c, scale, ai in zip(cols, scales, a):
        spread[row:row + ai.shape[0], c] = scale
        row += ai.shape[0]
    base = x @ w0.T
    xa = x @ a_cat.T
    gs = gates @ spread.T
    low = xa * gs
    out = base + low @ b_cat.T
    glow, gb_cat = g @ b_cat, g.T @ low
    gxa, ggs = glow * gs, glow * xa
    gx = g @ w0 + gxa @ a_cat  # flows from linear(x, w0) and linear(x, a_cat)
    splits = np.cumsum([ai.shape[0] for ai in a])[:-1]
    return (out, gx, g.T @ x, ggs @ spread, np.split(gxa.T @ x, splits),
            np.split(gb_cat, splits, axis=1))


SCALES = (2.0, 0.75, 3.5, 1.0, 0.1, 1.5, 0.5, 4.0)


def view_leaf(view: np.ndarray, requires_grad: bool) -> Tensor:
    """A leaf whose data is ``view`` itself (the constructor would copy a strided view)."""
    t = Tensor(np.zeros(0), requires_grad=requires_grad)
    t.data = view
    return t


def moe_lora_case(t, k, d, ranks, cols, trainable=True):
    """Random x [t x k] and w0 [d x k]; one expert of rank ``ranks[i]`` and scale SCALES[i]
    per gate column i, stacked as MoeLoraLayer.attach stacks them; gates [t x N] zero
    outside ``cols``. The experts at ``cols`` are the op's parents ``a`` and ``b``."""
    x = Tensor(RNG.normal(size=(t, k)), requires_grad=True)
    w0 = Tensor(RNG.normal(size=(d, k)), requires_grad=trainable)
    gates = np.zeros((t, len(ranks)))
    gates[:, list(cols)] = RNG.uniform(0.1, 1.0, size=(t, len(cols)))
    ends = np.cumsum(ranks)
    rows = [slice(e - r, e) for r, e in zip(ranks, ends)]
    a_stack, b_stack = RNG.normal(size=(ends[-1], k)), RNG.normal(size=(d, ends[-1]))
    spread = np.zeros((ends[-1], len(ranks)))
    for i, r in enumerate(rows):
        spread[r, i] = SCALES[i]
    a = [view_leaf(a_stack[rows[c]], trainable) for c in cols]
    b = [view_leaf(b_stack[:, rows[c]], trainable) for c in cols]
    return dict(x=x, w0=w0, gates=Tensor(gates, requires_grad=True), a_stack=a_stack,
                b_stack=b_stack, spread=spread, a=a, b=b, rows=[rows[c] for c in cols])


def test_moe_lora_bit_identical_to_eight_op_chain():
    # the op runs over every expert's ranks, the chain over the gated experts' only,
    # as the chain ran them; dead experts sit between live ones in the stacks
    for t, k, d, ranks, cols in ((1, 3, 2, (1,), (0,)), (6, 5, 7, (2, 1, 2, 3), (0, 1, 3)),
                                 (31, 64, 128, (16, 8, 16, 8, 32, 8, 16, 32), (0, 1, 4, 6, 7))):
        case = moe_lora_case(t, k, d, ranks, cols)
        g = RNG.normal(size=(t, d))
        out = moe_lora(**case)
        expect = eight_op_moe_lora(case["x"].data, case["w0"].data, case["gates"].data,
                                   [e.data for e in case["a"]], [e.data for e in case["b"]], cols,
                                   [SCALES[c] for c in cols], g)
        got = out._grad_fn(g)
        assert np.array_equal(out.data, expect[0])
        # in a dead gate column the op gives the true derivative, the chain gave 0
        assert np.array_equal(got[2][:, list(cols)], expect[3][:, list(cols)])
        for got_g, want in zip(got[:2] + got[3:], [*expect[1:3], *expect[4], *expect[5]], strict=True):
            assert np.array_equal(got_g, want)


def test_grad_moe_lora():
    # parents in any order of gate columns, a dead rank-2 expert between them
    case = moe_lora_case(4, 5, 3, (2, 2, 1), (2, 0))
    w = Tensor(RNG.normal(size=(4, 3)))
    parents = [case["x"], case["gates"], *case["a"], *case["b"]]
    for i, p in enumerate(parents):
        def loss(t, i=i):
            args = parents[:i] + [t] + parents[i + 1:]
            return (moe_lora(**case | dict(x=args[0], gates=args[1], a=args[2:4], b=args[4:])) * w).sum()

        check_grad(loss, p, tol=1e-9)


def test_moe_lora_gives_none_to_parents_that_need_no_grad():
    case = moe_lora_case(5, 4, 6, (2, 1, 3), (0, 2))
    case["x"].requires_grad = False
    case["w0"].requires_grad = False  # frozen base weight
    case["a"][0].requires_grad = case["b"][0].requires_grad = False  # frozen base expert
    grads = moe_lora(**case)._grad_fn(RNG.normal(size=(5, 6)))
    assert [g is None for g in grads] == [True, True, False, True, False, True, False]
    for e in (*case["a"], *case["b"]):  # every expert frozen: no stack gradient is formed at all
        e.requires_grad = False
    grads = moe_lora(**case)._grad_fn(RNG.normal(size=(5, 6)))
    assert [g is None for g in grads] == [True, True, False, True, True, True, True]


def moe_lora_losses():
    """The leaves of a moe_lora case (w0, gates, every expert's a and b) and two builders
    of a scalar loss through it, each with its own x and output weights."""
    case = moe_lora_case(6, 5, 4, (2, 3, 1), (0, 2))
    leaves = [case["w0"], case["gates"], *case["a"], *case["b"]]
    return leaves, [lambda x=Tensor(RNG.normal(size=(6, 5))), w=Tensor(RNG.normal(size=(6, 4))):
                    (moe_lora(**case | dict(x=x)) * w).sum() for _ in range(2)]


def per_tape_grads(leaves, losses):
    """Each leaf's gradient from each loss alone, starting from no gradient."""
    out = []
    for loss in losses:
        for p in leaves:
            p.zero_grad()
        loss().backward()
        out.append([p.grad.copy() for p in leaves])
    for p in leaves:
        p.zero_grad()
    return out


def test_moe_lora_grads_of_two_tapes_accumulate_to_their_sum():
    leaves, losses = moe_lora_losses()
    g1, g2 = per_tape_grads(leaves, losses)
    for loss in losses:  # no zero_grad in between
        loss().backward()
    for p, a, b in zip(leaves, g1, g2, strict=True):
        assert rel_err(p.grad, a + b) <= 1e-12


def test_moe_lora_grad_of_a_summed_loss_is_the_sum_of_grads():
    leaves, losses = moe_lora_losses()
    g1, g2 = per_tape_grads(leaves, losses)
    (losses[0]() + losses[1]()).backward()  # one tape through the layer twice
    for p, a, b in zip(leaves, g1, g2, strict=True):
        assert rel_err(p.grad, a + b) <= 1e-12


def test_moe_lora_grad_held_after_reset_survives_the_next_backward():
    leaves, losses = moe_lora_losses()
    g1, g2 = per_tape_grads(leaves, losses)
    losses[0]().backward()
    held = [p.grad for p in leaves]
    for p in leaves:
        p.grad = None
    losses[1]().backward()
    for p, h, a, b in zip(leaves, held, g1, g2, strict=True):
        assert rel_err(h, a) <= 1e-12 and rel_err(p.grad, b) <= 1e-12
        assert not np.shares_memory(h, p.grad)


def test_moe_lora_rejects_bad_shapes():
    case = moe_lora_case(5, 4, 6, (2, 1, 3), (0, 2))
    a, b, rows = case["a"], case["b"], case["rows"]
    bad = (
        dict(a=[], b=[], rows=[]), dict(rows=rows[:1]), dict(b=b[:1]),
        dict(x=Tensor(np.zeros((5, 3)))), dict(x=Tensor(np.zeros(4))),
        dict(gates=Tensor(np.zeros((4, 3)))), dict(gates=Tensor(np.zeros((5, 2)))),
        dict(w0=Tensor(np.zeros((6, 3)))), dict(w0=Tensor(np.zeros((5, 4)))),
        dict(a_stack=np.zeros((6, 3))), dict(a_stack=np.zeros((5, 4))),
        dict(b_stack=np.zeros((5, 6))), dict(b_stack=np.zeros(36)),
        dict(spread=np.zeros((6, 2))), dict(spread=np.zeros((5, 3))), dict(spread=np.zeros(6)),
    )
    for change in bad:
        with pytest.raises(ShapeError):
            moe_lora(**case | change)
    # parents that are not views of the stacks given: a copy, a swapped pair, another array
    for change in (dict(a=[a[0], Tensor(a[1].data.copy())]), dict(a=b, b=a, rows=rows),
                   dict(a_stack=case["a_stack"].copy()), dict(b_stack=case["b_stack"].copy())):
        with pytest.raises(ConfigError):
            moe_lora(**case | change)


# -- rms norm -------------------------------------------------------------------


def rms_norm_reference(x: np.ndarray, eps: float) -> np.ndarray:
    """The six-op composite rms_norm replaced: mul, row sum, mean's constant mul,
    add eps, pow -0.5 and a per-row scale, each as its own numpy step."""
    sq = x * x
    ms = np.sum(sq, axis=1) * (1.0 / x.shape[1])
    r = (ms + float(eps)) ** -0.5
    return x * r[:, None]


def test_rms_norm_forward_bit_identical_to_composite():
    for shape in ((1, 1), (200, 3), (50, 7), (31, 64), (127, 64)):
        for eps in (1e-6, 1e-2):
            x = RNG.normal(scale=3.0, size=shape)
            assert np.array_equal(rms_norm(Tensor(x), eps).data, rms_norm_reference(x, eps))
    assert rms_norm(Tensor(np.zeros((2, 4))), 1e-6).data.tolist() == [[0.0] * 4] * 2


def test_grad_rms_norm():
    for shape in ((1, 6), (4, 3), (5, 8), (3, 64)):
        x = Tensor(RNG.normal(size=shape), requires_grad=True)
        w = Tensor(RNG.normal(size=shape))
        check_grad(lambda t: (rms_norm(t, 1e-6) * w).sum(), x, tol=1e-9)


def test_rms_norm_rejects_bad_input():
    for shape in ((4,), (), (2, 3, 4), (3, 0)):
        with pytest.raises(ShapeError):
            rms_norm(Tensor(np.zeros(shape)), 1e-6)
    for eps in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            rms_norm(Tensor(np.ones((2, 3))), eps)


def test_rms_norm_rejects_overflowing_or_non_finite_rows():
    # an overflowing or non-finite row must raise, not come out as zeros or NaN
    for row in ([1e200, 1.0], [np.inf, 1.0], [np.nan, 1.0], [1e154, 1e154]):
        with pytest.raises(DomainError):
            rms_norm(Tensor([[0.5, 2.0], row]), 1e-6)


# -- causal attention ----------------------------------------------------------


def attention_reference(qkv: Tensor, n_heads: int) -> Tensor:
    """Per-head attention from plain ops, with an additive -1e30 causal mask."""
    t, d = qkv.shape[0], qkv.shape[1] // 3
    d_head = d // n_heads
    mask = Tensor(np.triu(np.full((t, t), -1e30), k=1))
    cols = qkv.T

    def part(p, h):  # p = 0, 1, 2 for q, k, v
        start = p * d + h * d_head
        return take_rows(cols, range(start, start + d_head)).T

    out = None
    for h in range(n_heads):
        q, k, v = part(0, h), part(1, h), part(2, h)
        scores = matmul(q, k.T) * (1.0 / math.sqrt(d_head)) + mask
        place = np.zeros((d_head, d))  # puts the head's columns at block h of the output
        place[:, h * d_head:(h + 1) * d_head] = np.eye(d_head)
        ctx = matmul(matmul(softmax(scores), v), Tensor(place))
        out = ctx if out is None else out + ctx
    return out


def test_causal_attention_matches_per_head_reference():
    for t, n_heads, d_head in ((1, 1, 3), (6, 2, 4), (9, 4, 2), (31, 4, 16)):
        data = RNG.normal(size=(t, 3 * n_heads * d_head))
        w = Tensor(RNG.normal(size=(t, n_heads * d_head)))
        fused = Tensor(data, requires_grad=True)
        ref = Tensor(data.copy(), requires_grad=True)
        out, expect = causal_attention(fused, n_heads), attention_reference(ref, n_heads)
        assert rel_err(out.data, expect.data) <= 1e-12
        (out * w).sum().backward()
        (expect * w).sum().backward()
        assert rel_err(fused.grad, ref.grad) <= 1e-12


def attention_loop_reference(qkv: np.ndarray, n_heads: int, g: np.ndarray):
    """Forward output and qkv gradient for upstream ``g``, one head at a time in numpy.

    The per-head form causal_attention replaced; the batched op must match it bit for bit.
    """
    t, width = qkv.shape
    d_head = width // (3 * n_heads)
    scale = 1.0 / math.sqrt(d_head)
    causal = np.tri(t, dtype=bool)
    q, k, v = qkv.reshape(t, 3, n_heads, d_head).transpose(1, 2, 0, 3)
    probs = np.zeros((n_heads, t, t))
    for h in range(n_heads):
        s = (q[h] @ k[h].T) * scale
        z = s - np.max(s, axis=1, where=causal, initial=-np.inf, keepdims=True)
        e = np.exp(z, where=causal, out=probs[h])
        e /= np.sum(e, axis=1, keepdims=True)
    out = np.stack([probs[h] @ v[h] for h in range(n_heads)], axis=1).reshape(t, width // 3)
    g = g.reshape(t, n_heads, d_head).transpose(1, 0, 2)
    gqkv = np.empty((3, n_heads, t, d_head))
    for h, y in enumerate(probs):
        gy = g[h] @ v[h].T
        gs = y * (gy - np.sum(gy * y, axis=1, keepdims=True)) * scale
        gqkv[0, h] = gs @ k[h]
        gqkv[1, h] = gs.T @ q[h]
        gqkv[2, h] = y.T @ g[h]
    return out, gqkv.transpose(2, 0, 1, 3).reshape(t, width)


def test_causal_attention_bit_identical_to_per_head_loop():
    for t in (1, 2, 31, 127):
        for n_heads, d_head in ((4, 16), (2, 24), (1, 7)):
            data = RNG.normal(scale=2.0, size=(t, 3 * n_heads * d_head))
            g = RNG.normal(size=(t, n_heads * d_head))
            out = causal_attention(Tensor(data, requires_grad=True), n_heads)
            expect_out, expect_grad = attention_loop_reference(data, n_heads, g)
            assert np.array_equal(out.data, expect_out)
            (grad,) = out._grad_fn(g)
            assert np.array_equal(grad, expect_grad)


def test_grad_causal_attention():
    for t in (1, 5):
        for n_heads in (1, 2, 4):
            x = Tensor(RNG.normal(size=(t, 3 * n_heads * 2)), requires_grad=True)
            w = Tensor(RNG.normal(size=(t, n_heads * 2)))
            check_grad(lambda z: (causal_attention(z, n_heads) * w).sum(), x, tol=1e-9)


def test_causal_attention_rejects_bad_shapes():
    for shape, n_heads in (((4, 13), 1), ((4, 12), 3), ((4, 12), 8), ((4, 12), 0),
                           ((0, 12), 2), ((12,), 2)):
        with pytest.raises(ShapeError):
            causal_attention(Tensor(np.zeros(shape)), n_heads)


def test_take_rows_out_of_range():
    with pytest.raises(IndexError):
        take_rows(Tensor(np.zeros((3, 2))), [0, 3])


def test_take_rows_rejects_non_integer_indices():
    table = Tensor(RNG.normal(size=(4, 2)))
    for bad in ([1.7, 2.2], [1.0], [True, False], np.array([0.0])):
        with pytest.raises(DomainError):
            take_rows(table, bad)
    assert np.array_equal(take_rows(table, np.array([1, 3], dtype=np.int32)).data,
                          table.data[[1, 3]])
    assert take_rows(table, []).shape == (0, 2)  # an empty list is float64 to numpy


# -- determinism and hygiene ---------------------------------------------------


def test_determinism_bit_identical():
    a = RNG.normal(size=(8, 8))
    b = RNG.normal(size=(8, 8))
    r1 = (Tensor(a) @ Tensor(b)).data
    r2 = (Tensor(a) @ Tensor(b)).data
    assert np.array_equal(r1, r2)
    s1 = softmax(Tensor(a)).data
    s2 = softmax(Tensor(a)).data
    assert np.array_equal(s1, s2)


def test_outputs_finite_on_finite_inputs():
    for _ in range(50):
        v = RNG.normal(scale=50.0, size=(1, 6))
        m = RNG.normal(scale=50.0, size=(6, 6))
        out = softmax(Tensor(v))
        assert np.all(np.isfinite(out.data))
        prod = Tensor(v) @ Tensor(m)
        assert np.all(np.isfinite(prod.data))
        for theta in (-1e6, 1e6):
            assert np.all(np.isfinite(tempered_softmax(Tensor(v * 20), Tensor([theta]), 0.05).data))


def test_grad_is_writable_buffer():
    x = Tensor(np.ones(3), requires_grad=True)
    x.sum().backward()
    x.grad *= 0.5  # optimizer-style in-place scaling must be legal
    assert np.array_equal(x.grad, [0.5, 0.5, 0.5])

