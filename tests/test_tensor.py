"""Tensor engine: forward values and gradients vs finite differences."""

import math

import numpy as np
import pytest

from moelora.errors import DomainError, ShapeError
from moelora.tensor import (
    Tensor,
    causal_attention,
    concat,
    cross_entropy,
    finite_diff_grad,
    linear,
    matmul,
    no_grad,
    rms_norm,
    softmax,
    softplus,
    take_rows,
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
    m = Tensor(RNG.normal(size=(3, 4)))
    v = Tensor(RNG.normal(size=4))
    w = Tensor(RNG.normal(size=3))
    assert (m @ v).shape == (3,)
    assert (w @ m).shape == (4,)
    d = matmul(v, v)
    assert d.shape == ()
    assert math.isclose(d.item(), float(v.data @ v.data))


# -- linear -----------------------------------------------------------------


def test_linear_equals_x_times_w_transposed():
    w = Tensor(RNG.normal(size=(3, 4)))
    for shape in ((4,), (5, 4)):
        x = Tensor(RNG.normal(size=shape))
        assert np.array_equal(linear(x, w).data, x.data @ w.data.T)


def test_grad_linear_both_operands():
    for shape in ((4,), (5, 4)):
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
                             ((4,), (3, 5)), ((2, 2, 4), (3, 4)), ((), (3, 4))):
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)))


# -- softmax ----------------------------------------------------------------


def test_softmax_symmetry():
    y = softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(y.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_analytic():
    y = softmax(Tensor([math.log(2.0), 0.0]))
    assert np.allclose(y.data, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_high_temperature_flattens():
    # temperature 1000 applied by the caller, as soft_merge_weights does
    y = softmax(Tensor([5.0, 0.0]) * 0.001)
    expect = math.exp(0.005) / (1.0 + math.exp(0.005))
    assert abs(y.data[0] - expect) < 1e-5
    assert abs(y.data[0] - 0.50125) < 1e-5


def test_softmax_sum_and_shift_invariance():
    for _ in range(200):
        v = RNG.normal(scale=10.0, size=RNG.integers(1, 12))
        y = softmax(Tensor(v)).data
        assert abs(y.sum() - 1.0) <= 1e-12
        assert np.all(y >= 0)
        shifted = softmax(Tensor(v + 123.456)).data
        assert np.max(np.abs(y - shifted)) <= 1e-12


def test_softmax_rows():
    m = RNG.normal(size=(5, 4))
    y = softmax(Tensor(m)).data
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_overflow_guard():
    y = softmax(Tensor([1000.0, 0.0])).data
    assert np.all(np.isfinite(y))
    assert abs(y.sum() - 1.0) <= 1e-12


def test_softmax_mask_gives_exact_zeros_and_kept_entry_softmax():
    for shape in ((6,), (4, 5)):
        mask = RNG.random(shape) < 0.5
        mask[..., 0] = True  # every row keeps an entry
        data = RNG.normal(scale=3.0, size=shape)
        data[~mask] = 1e300  # masked logits take no part, however large
        x = Tensor(data, requires_grad=True)
        y = softmax(x, where=mask).data
        assert np.all(y[~mask] == 0.0)
        assert np.all(np.abs(y.sum(axis=-1) - 1.0) <= 1e-12)
        for row, keep, got in zip(np.atleast_2d(data), np.atleast_2d(mask), np.atleast_2d(y)):
            assert rel_err(got[keep], softmax(Tensor(row[keep])).data) <= 1e-15
        x.data[...] = RNG.normal(size=shape)  # moderate logits keep finite differences exact
        w = Tensor(RNG.normal(size=shape))
        check_grad(lambda t: (softmax(t, where=mask) * w).sum(), x, tol=1e-9)
        assert np.all(x.grad[~mask] == 0.0)


def test_softmax_row_with_nothing_to_keep_rejected():
    for data, mask in (([1.0, 2.0], [False, False]), ([[1.0, 2.0], [3.0, 4.0]], [[True, False], [False, False]]),
                       ([-np.inf, -np.inf], True)):
        with pytest.raises(DomainError):
            softmax(Tensor(data), where=np.asarray(mask))


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
    w = Tensor(RNG.normal(size=5), requires_grad=True)
    x = Tensor(RNG.normal(size=5))
    matmul(w, x).backward()
    assert np.array_equal(w.grad, x.data)


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
    x = Tensor([0.0, 0.0])
    g = finite_diff_grad(lambda t: softmax(t).data[0], x, h=1e-6)
    assert np.allclose(g.data, [0.25, -0.25], atol=1e-8)


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


def test_grad_mul_scalar_tensor_broadcast():
    x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    s = Tensor([0.7], requires_grad=True)
    loss = (x * s).sum()
    loss.backward()
    gx, gs = x.grad.copy(), s.grad.copy()
    nx = finite_diff_grad(lambda t: (t * s).sum().item(), x).data
    ns = finite_diff_grad(lambda t: (x * t).sum().item(), s).data
    assert rel_err(gx, nx) < 1e-6
    assert rel_err(gs, ns) < 1e-6


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
    m = Tensor(RNG.normal(size=(3, 4)))
    x = Tensor(RNG.normal(size=4), requires_grad=True)
    check_grad(lambda t: ((m @ t) * (m @ t)).sum(), x)


def test_grad_transpose():
    x = Tensor(RNG.normal(size=(2, 5)), requires_grad=True)
    m = Tensor(RNG.normal(size=(2, 5)))
    check_grad(lambda t: (t.T @ m).sum(), x)


def test_grad_softmax():
    x = Tensor(RNG.normal(size=6), requires_grad=True)
    w = Tensor(RNG.normal(size=6))
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


def test_grad_softplus():
    x = Tensor(RNG.normal(scale=3.0, size=7), requires_grad=True)
    check_grad(lambda t: (softplus(t) * softplus(t)).sum(), x)


def test_grad_pow_reciprocal():
    x = Tensor(RNG.uniform(0.5, 2.0, size=6), requires_grad=True)
    check_grad(lambda t: (t.pow_const(-0.5) + t.reciprocal()).sum(), x)


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


def test_grad_concat():
    a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    w = Tensor(RNG.normal(size=(2, 5)))
    loss = (concat([a, b], axis=1) * w).sum()
    loss.backward()
    na = finite_diff_grad(lambda t: (concat([t, b], axis=1) * w).sum().item(), a).data
    nb = finite_diff_grad(lambda t: (concat([a, t], axis=1) * w).sum().item(), b).data
    assert rel_err(a.grad, na) < 1e-6
    assert rel_err(b.grad, nb) < 1e-6


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

    ctxs = []
    for h in range(n_heads):
        q, k, v = part(0, h), part(1, h), part(2, h)
        scores = matmul(q, k.T) * (1.0 / math.sqrt(d_head)) + mask
        ctxs.append(matmul(softmax(scores), v))
    return concat(ctxs, axis=1)


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
        v = RNG.normal(scale=50.0, size=6)
        m = RNG.normal(scale=50.0, size=(6, 6))
        out = softmax(Tensor(v))
        assert np.all(np.isfinite(out.data))
        prod = Tensor(m) @ Tensor(v)
        assert np.all(np.isfinite(prod.data))
        assert np.all(np.isfinite(softplus(Tensor(v * 20)).data))


def test_grad_is_writable_buffer():
    x = Tensor(np.ones(3), requires_grad=True)
    x.sum().backward()
    x.grad *= 0.5  # optimizer-style in-place scaling must be legal
    assert np.array_equal(x.grad, [0.5, 0.5, 0.5])

