"""Autodiff core: forward examples against independent oracles, reverse
mode against central finite differences."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lookupvnet import gradcore
from lookupvnet.gradcore import (
    ShapeMismatchError,
    Tensor,
    add,
    backward,
    conv2d,
    dense,
    finite_diff_grad,
    max_pool2d,
    max_rel_error,
    mul,
    relu,
    reshape,
    softmax_cross_entropy,
    sum_all,
)


def naive_conv2d(x, w, stride=1, padding=0):
    """Triple-loop cross-correlation oracle, no cleverness."""
    n, c, h, width = x.shape
    j, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (width + 2 * padding - k) // stride + 1
    out = np.zeros((n, j, ho, wo))
    for ni in range(n):
        for ji in range(j):
            for hi in range(ho):
                for wi in range(wo):
                    patch = xp[ni, :, hi * stride : hi * stride + k, wi * stride : wi * stride + k]
                    out[ni, ji, hi, wi] = (patch * w[ji]).sum()
    return out


def naive_conv2d_backward(x, w, g, stride=1, padding=0):
    """Loop adjoint of naive_conv2d: (input gradient, kernel gradient)."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for ni, ji, hi, wi in np.ndindex(*g.shape):
        rows = slice(hi * stride, hi * stride + k)
        cols = slice(wi * stride, wi * stride + k)
        gw[ji] += g[ni, ji, hi, wi] * xp[ni, :, rows, cols]
        gxp[ni, :, rows, cols] += g[ni, ji, hi, wi] * w[ji]
    return gxp[:, :, padding : padding + x.shape[2], padding : padding + x.shape[3]], gw


def naive_max_pool2d(x, g, window):
    """Loop max pooling over non-overlapping windows, cropping any ragged
    edge; the first maximum in row-major window order takes the gradient.
    Returns (pooled values, input gradient for upstream g)."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // window, w // window))
    gx = np.zeros_like(x)
    for ni, ci, hi, wi in np.ndindex(*out.shape):
        best = None
        for di in range(window):
            for dj in range(window):
                pos = (ni, ci, hi * window + di, wi * window + dj)
                if best is None or x[pos] > x[best]:
                    best = pos
        out[ni, ci, hi, wi] = x[best]
        gx[best] += g[ni, ci, hi, wi]
    return out, gx


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def naive_dense(x, w, b):
    n, d = x.shape
    _, k = w.shape
    out = np.zeros((n, k))
    for ni in range(n):
        for ki in range(k):
            acc = 0.0
            for di in range(d):
                acc += x[ni, di] * w[di, ki]
            out[ni, ki] = acc + b[ki]
    return out


def naive_log_softmax_loss(z, labels):
    total = 0.0
    for i, label in enumerate(labels):
        total += -np.log(np.exp(z[i, label]) / np.exp(z[i]).sum())
    return total / len(labels)


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = conv2d(x, w)
        assert np.array_equal(out.data, np.ones((1, 1, 3, 3)))

    def test_hand_computed_dot(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        w = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 1, 2, 2))
        out = conv2d(x, w)
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 5.0

    def test_zero_kernel_any_padding(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 5, 4)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        out = conv2d(x, w, stride=1, padding=2)
        assert out.data.shape == (2, 4, 7, 6)
        assert np.all(out.data == 0.0)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_naive_oracle(self, stride, padding):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 6, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        got = conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        want = naive_conv2d(x, w, stride=stride, padding=padding)
        assert np.allclose(got, want, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ShapeMismatchError, match=r"\(1, 2, 4, 4\).*\(1, 3, 3, 3\)"):
            conv2d(x, w)

    def test_empty_output_rejected(self):
        with pytest.raises(ShapeMismatchError, match="empty"):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)

        def loss_fn():
            out = conv2d(x, w, stride=2, padding=1)
            return sum_all(mul(out, out))

        grads = backward(loss_fn())
        for param in (x, w):
            assert max_rel_error(grads[param], finite_diff_grad(loss_fn, param)) < 1e-6

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_backward_matches_naive_oracle(self, stride, padding):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(2, 3, 7, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        out = conv2d(Tensor(x, requires_grad=True), Tensor(w), stride=stride, padding=padding)
        g = rng.normal(size=out.data.shape)
        gx, gw = out.vjp(g)
        want_gx, want_gw = naive_conv2d_backward(x, w, g, stride, padding)
        assert np.allclose(gw, want_gw, rtol=0, atol=1e-12)
        assert np.allclose(gx, want_gx, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_input_gradient_exact_on_integer_data(self, stride, padding):
        # small integers keep every product and partial sum exact, so the
        # input gradient must match the loop oracle bit for bit in any order
        rng = np.random.default_rng(41)
        x = rng.integers(-4, 5, size=(2, 3, 7, 6)).astype(np.float64)
        w = rng.integers(-4, 5, size=(4, 3, 3, 3)).astype(np.float64)
        out = conv2d(Tensor(x, requires_grad=True), Tensor(w), stride=stride, padding=padding)
        g = rng.integers(-4, 5, size=out.data.shape).astype(np.float64)
        gx, gw = out.vjp(g)
        want_gx, want_gw = naive_conv2d_backward(x, w, g, stride, padding)
        assert_same_bits(gx, want_gx)
        assert np.array_equal(gw, want_gw)

    @pytest.mark.parametrize(
        "x_shape,j,stride,padding",
        [((7, 12, 32, 32), 8, 1, 0), ((5, 5, 13, 11), 6, 2, 1)],
        ids=["ragged-blocks", "stride2-pad1"],
    )
    def test_batch_equals_per_image_calls_bit_for_bit(self, x_shape, j, stride, padding):
        # (7, 12, 32, 32) unrolls to more patches than one cache block holds,
        # so the batch call splits into blocks with a ragged last one; each
        # image must still see exactly the arithmetic of a call on it alone
        rng = np.random.default_rng(53)
        x = rng.normal(size=x_shape)
        w = rng.normal(size=(j, x_shape[1], 3, 3))
        out = conv2d(Tensor(x, requires_grad=True), Tensor(w), stride=stride, padding=padding)
        g = rng.normal(size=out.data.shape)
        gx, gw = out.vjp(g)
        singles = [
            conv2d(Tensor(x[i : i + 1], requires_grad=True), Tensor(w), stride=stride, padding=padding)
            for i in range(len(x))
        ]
        single_grads = [s.vjp(g[i : i + 1]) for i, s in enumerate(singles)]
        assert_same_bits(out.data, np.concatenate([s.data for s in singles]))
        assert_same_bits(gx, np.concatenate([sgx for sgx, _ in single_grads]))
        assert_same_bits(gw, functools.reduce(np.add, [sgw for _, sgw in single_grads]))

    def test_memory_peak_stays_block_sized(self):
        # u=4 conv0 at batch 64: a whole-batch im2col buffer alone is 50 MB
        rng = np.random.default_rng(59)
        x = Tensor(rng.normal(size=(64, 12, 32, 32)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 12, 3, 3)))
        g = rng.normal(size=(64, 8, 30, 30))
        tracemalloc.start()
        try:
            conv2d(x, w).vjp(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24e6, f"conv2d forward + vjp peaked at {peak / 1e6:.1f} MB"

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        j=st.integers(1, 3),
        k=st.integers(1, 3),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        extra_h=st.integers(0, 5),
        extra_w=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_loop_oracle(self, n, c, j, k, stride, padding, extra_h, extra_w, seed):
        rng = np.random.default_rng(seed)
        smallest = max(k - 2 * padding, 1)
        x = rng.normal(size=(n, c, smallest + extra_h, smallest + extra_w))
        w = rng.normal(size=(j, c, k, k))
        out = conv2d(Tensor(x, requires_grad=True), Tensor(w), stride=stride, padding=padding)
        assert np.allclose(out.data, naive_conv2d(x, w, stride, padding), rtol=0, atol=1e-12)
        g = rng.normal(size=out.data.shape)
        gx, gw = out.vjp(g)
        want_gx, want_gw = naive_conv2d_backward(x, w, g, stride, padding)
        assert np.allclose(gx, want_gx, rtol=0, atol=1e-12)
        assert np.allclose(gw, want_gw, rtol=0, atol=1e-12)


class TestDense:
    def test_identity(self):
        x = np.arange(6, dtype=float).reshape(2, 3)
        out = dense(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        assert np.array_equal(out.data, x)

    def test_sum_weights(self):
        out = dense(Tensor([[1.0, 2.0]]), Tensor([[1.0], [1.0]]), Tensor([0.0]))
        assert out.data.tolist() == [[3.0]]

    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3))
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=4)
        got = dense(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.allclose(got, naive_dense(x, w, b), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)

        def loss_fn():
            return sum_all(relu(dense(x, w, b)))

        grads = backward(loss_fn())
        for param in (x, w, b):
            assert max_rel_error(grads[param], finite_diff_grad(loss_fn, param)) < 1e-6


class TestPoolAndRelu:
    def test_pool_picks_window_max(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x))
        assert out.data.reshape(2, 2).tolist() == [[5.0, 7.0], [13.0, 15.0]]

    def test_pool_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)

        def loss_fn():
            return sum_all(mul(max_pool2d(x), max_pool2d(x)))

        grads = backward(loss_fn())
        assert max_rel_error(grads[x], finite_diff_grad(loss_fn, x)) < 1e-6

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng, shape: np.maximum(rng.normal(size=shape), 0.0),  # relu'd zeros
            lambda rng, shape: rng.integers(0, 2, size=shape).astype(np.float64),
        ],
        ids=["relu-zeros", "zero-one"],
    )
    @pytest.mark.parametrize("shape,window", [((3, 4, 8, 8), 2), ((2, 3, 13, 13), 2), ((2, 2, 9, 11), 3)])
    def test_pool_matches_loop_oracle_on_ties(self, draw, shape, window):
        rng = np.random.default_rng(43)
        x = draw(rng, shape)
        out = max_pool2d(Tensor(x), window=window)
        g = rng.normal(size=out.data.shape)
        want_out, want_gx = naive_max_pool2d(x, g, window)
        assert_same_bits(out.data, want_out)
        assert_same_bits(out.vjp(g)[0], want_gx)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        window=st.integers(1, 4),
        extra_h=st.integers(0, 9),
        extra_w=st.integers(0, 9),
        levels=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pool_property_matches_loop_oracle(self, n, c, window, extra_h, extra_w, levels, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, levels, size=(n, c, window + extra_h, window + extra_w)).astype(np.float64)
        out = max_pool2d(Tensor(x), window=window)
        g = rng.normal(size=out.data.shape)
        want_out, want_gx = naive_max_pool2d(x, g, window)
        assert_same_bits(out.data, want_out)
        assert_same_bits(out.vjp(g)[0], want_gx)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        window=st.integers(2, 3),
        extra_h=st.integers(0, 7),
        extra_w=st.integers(0, 7),
        signed_zeros=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_relu_commutes_with_pool(self, n, c, window, extra_h, extra_w, signed_zeros, seed):
        # relu is monotone, so relu(max(window)) == max(relu(window)); the
        # input gradients agree under ==, which lets a zero differ in sign
        rng = np.random.default_rng(seed)
        shape = (n, c, window + extra_h, window + extra_w)
        if signed_zeros:
            x = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0]), size=shape)
        else:
            x = np.maximum(rng.normal(size=shape), 0.0)
        pool_first = relu(max_pool2d(Tensor(x, requires_grad=True), window=window))
        relu_first = max_pool2d(relu(Tensor(x, requires_grad=True)), window=window)
        assert_same_bits(pool_first.data, relu_first.data)

        g = rng.normal(size=pool_first.data.shape)
        g[rng.random(g.shape) < 0.2] = -0.0
        pooled, = pool_first.parents
        gx_pool_first = pooled.vjp(pool_first.vjp(g)[0])[0]
        relued, = relu_first.parents
        gx_relu_first = relued.vjp(relu_first.vjp(g)[0])[0]
        assert np.array_equal(gx_pool_first, gx_relu_first)

    def test_relu_zeroes_negatives(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert out.data.tolist() == [0.0, 0.0, 2.0]


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((3, 10)))
        loss = softmax_cross_entropy(logits, np.array([0, 5, 9]))
        assert abs(float(loss.data) - np.log(10)) < 1e-12

    def test_saturated_case(self):
        loss = softmax_cross_entropy(Tensor([[30.0, -30.0]]), np.array([0]))
        assert float(loss.data) < 1e-12

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(17)
        z = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)
        got = float(softmax_cross_entropy(Tensor(z), labels).data)
        assert abs(got - naive_log_softmax_loss(z, labels)) < 1e-10

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label out of range"):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(19)
        z = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        labels = rng.integers(0, 5, size=4)

        def loss_fn():
            return softmax_cross_entropy(z, labels)

        grads = backward(loss_fn())
        assert max_rel_error(grads[z], finite_diff_grad(loss_fn, z)) < 1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        p = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        grads = backward(sum_all(p))
        assert np.array_equal(grads[p], np.ones((2, 3)))

    def test_quadratic_gives_two_p(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        grads = backward(sum_all(mul(p, p)))
        assert np.allclose(grads[p], 2 * p.data)

    def test_non_scalar_root_rejected(self):
        p = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(add(p, p))

    def test_accumulation_matches_two_single_use_graphs(self):
        rng = np.random.default_rng(23)
        values = rng.normal(size=(3, 3))
        shared = Tensor(values.copy(), requires_grad=True)
        twice = backward(sum_all(mul(shared, shared)))[shared]

        a = Tensor(values.copy(), requires_grad=True)
        b = Tensor(values.copy(), requires_grad=True)
        left = backward(sum_all(mul(a, Tensor(values))))[a]
        right = backward(sum_all(mul(Tensor(values), b)))[b]
        assert np.allclose(twice, left + right)

    def test_unreachable_leaf_absent(self):
        used = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        grads = backward(sum_all(used))
        assert used in grads and unused not in grads

    def test_deterministic_forward_backward(self):
        def run():
            rng = np.random.default_rng(29)
            x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
            out = relu(conv2d(x, w, padding=1))
            loss = sum_all(mul(out, out))
            grads = backward(loss)
            return float(loss.data), grads[w].copy()

        loss_a, grad_a = run()
        loss_b, grad_b = run()
        assert loss_a == loss_b
        assert np.array_equal(grad_a, grad_b)


def reference_backward(loss):
    """Every vjp on the tape, called in full; constants' gradients dropped."""
    order, seen = [], set()

    def visit(node):
        if id(node) not in seen:
            seen.add(id(node))
            for parent in node.parents:
                visit(parent)
            order.append(node)

    visit(loss)
    grads, leaf_grads = {id(loss): np.ones_like(loss.data)}, {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if not node.parents:
            if node.requires_grad:
                leaf_grads[node] = g
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is not None:
                grads[id(parent)] = pg if id(parent) not in grads else grads[id(parent)] + pg
    return leaf_grads


class TestNeedsGrad:
    """requires_grad flows forward; backward computes no gradient that no
    learnable leaf reads."""

    @pytest.mark.parametrize(
        "x_shape,j,stride,padding",
        [((64, 3, 32, 32), 8, 1, 0), ((5, 5, 13, 11), 6, 2, 1)],
        ids=["baseline-conv0", "stride2-pad1"],
    )
    def test_conv_vjp_skips_a_constant_input(self, x_shape, j, stride, padding):
        # (64, 3, 32, 32) spans several cache blocks, as the baseline's conv0
        rng = np.random.default_rng(61)
        x = rng.normal(size=x_shape)
        w = Tensor(rng.normal(size=(j, x_shape[1], 3, 3)), requires_grad=True)
        constant = conv2d(Tensor(x), w, stride=stride, padding=padding)
        learnable = conv2d(Tensor(x, requires_grad=True), w, stride=stride, padding=padding)
        g = rng.normal(size=constant.data.shape)
        gx, gw = constant.vjp(g)
        want_gx, want_gw = learnable.vjp(g)
        assert gx is None
        assert want_gx.shape == x_shape
        assert_same_bits(gw, want_gw)

    @pytest.mark.parametrize(
        "op,shapes",
        [
            (add, [(2, 3), (2, 3)]),
            (mul, [(2, 3), (2, 3)]),
            (sum_all, [(2, 3)]),
            (lambda x: reshape(x, (6,)), [(2, 3)]),
            (relu, [(2, 3)]),
            (max_pool2d, [(1, 2, 4, 4)]),
            (conv2d, [(1, 2, 5, 5), (3, 2, 3, 3)]),
            (dense, [(2, 3), (3, 4), (4,)]),
            (lambda z: softmax_cross_entropy(z, np.array([0, 2])), [(2, 3)]),
        ],
        ids=["add", "mul", "sum", "reshape", "relu", "pool", "conv", "dense", "softmax_ce"],
    )
    def test_output_needs_grad_exactly_when_a_parent_does(self, op, shapes):
        rng = np.random.default_rng(67)
        for flags in np.ndindex(*(2,) * len(shapes)):
            parents = [Tensor(rng.normal(size=s), requires_grad=bool(f)) for s, f in zip(shapes, flags)]
            out = op(*parents)
            assert out.requires_grad == any(flags), flags

    def test_backward_calls_no_vjp_without_a_learnable_ancestor(self):
        rng = np.random.default_rng(71)
        w_conv = Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.5, requires_grad=True)
        w_fc = Tensor(rng.normal(size=(16, 3)) * 0.5, requires_grad=True)
        b_fc = Tensor(np.zeros(3), requires_grad=True)
        a, b = rng.normal(size=(2, 4, 3, 6, 6))
        labels = rng.integers(0, 3, size=4)

        def build():
            # a constant pre-processing chain (mul, relu) feeds the conv net
            x = relu(mul(Tensor(a), Tensor(b)))
            h = reshape(max_pool2d(relu(conv2d(x, w_conv))), (4, -1))
            return softmax_cross_entropy(dense(h, w_fc, b_fc), labels)

        def record(node, calls):
            inner = node.vjp

            def vjp(g):
                calls.append(node)
                return inner(g)

            node.vjp = vjp

        loss, calls, nodes = build(), [], []
        stack = [loss]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.parents)
        for node in nodes:
            if node.parents:
                record(node, calls)
        constant_ops = [node.op for node in nodes if node.parents and not node.requires_grad]
        assert sorted(constant_ops) == ["mul", "relu"]

        grads = backward(loss)
        assert calls and all(node.requires_grad for node in calls)
        assert [node.op for node in calls].count("relu") == 1  # the conv's relu only
        want = reference_backward(build())
        assert grads.keys() == want.keys() == {w_conv, w_fc, b_fc}
        for leaf in want:
            assert_same_bits(grads[leaf], want[leaf])

    def test_constant_root_has_no_gradients(self):
        assert backward(sum_all(Tensor(np.ones(3)))) == {}


class TestNoGrad:
    @pytest.mark.parametrize(
        "op,shapes",
        [
            (add, [(2, 3), (2, 3)]),
            (mul, [(2, 3), (2, 3)]),
            (sum_all, [(2, 3)]),
            (lambda x: reshape(x, (6,)), [(2, 3)]),
            (relu, [(2, 3)]),
            (max_pool2d, [(1, 2, 4, 4)]),
            (conv2d, [(1, 2, 5, 5), (3, 2, 3, 3)]),
            (dense, [(2, 3), (3, 4), (4,)]),
            (lambda z: softmax_cross_entropy(z, np.array([0, 2])), [(2, 3)]),
        ],
        ids=["add", "mul", "sum", "reshape", "relu", "pool", "conv", "dense", "softmax_ce"],
    )
    def test_output_records_no_graph_even_from_learnable_parents(self, op, shapes):
        rng = np.random.default_rng(73)
        parents = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        want = op(*parents)
        with gradcore.no_grad():
            out = op(*parents)
        assert out.parents == () and out.vjp is None and out.requires_grad is False
        assert out.op == want.op
        assert_same_bits(out.data, want.data)

    def test_leaves_keep_their_flag(self):
        with gradcore.no_grad():
            leaf = Tensor(np.ones(2), requires_grad=True)
        assert leaf.requires_grad and leaf.parents == ()

    def test_mode_is_restored_after_an_exception(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError, match="inside"):
            with gradcore.no_grad():
                raise RuntimeError("inside")
        assert sum_all(w).parents == (w,)

    def test_nested_contexts_restore_the_outer_mode(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with gradcore.no_grad():
            with gradcore.no_grad():
                assert sum_all(w).parents == ()
            assert sum_all(w).parents == ()
        assert sum_all(w).requires_grad

    def test_backward_of_a_root_built_inside_is_empty(self):
        w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        with gradcore.no_grad():
            loss = sum_all(mul(w, w))
        assert backward(loss) == {}


class TestFiniteDiff:
    def test_quadratic_slope(self):
        theta = Tensor(np.array([3.0]), requires_grad=True)
        grad = finite_diff_grad(lambda: sum_all(mul(theta, theta)), theta, h=1e-5)
        assert abs(grad[0] - 6.0) < 1e-6

    def test_constant_gives_zero(self):
        theta = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        constant = Tensor(np.array(4.0))
        grad = finite_diff_grad(lambda: constant, theta)
        assert np.array_equal(grad, np.zeros(2))

    def test_step_must_be_positive(self):
        theta = Tensor(np.array([1.0]))
        with pytest.raises(ValueError):
            finite_diff_grad(lambda: sum_all(theta), theta, h=0.0)


class TestEndToEndGradient:
    def test_network_loss_on_small_batch(self):
        """Composite graph: conv/relu/pool/dense/loss vs finite differences."""
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(4, 3, 6, 6)), requires_grad=True)
        w_conv = Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.5, requires_grad=True)
        w_fc = Tensor(rng.normal(size=(16, 3)) * 0.5, requires_grad=True)
        b_fc = Tensor(np.zeros(3), requires_grad=True)
        labels = rng.integers(0, 3, size=4)

        def loss_fn():
            h = max_pool2d(relu(conv2d(x, w_conv)))
            h = reshape(h, (4, -1))
            return softmax_cross_entropy(dense(h, w_fc, b_fc), labels)

        grads = backward(loss_fn())
        for param in (x, w_conv, w_fc, b_fc):
            err = max_rel_error(grads[param], finite_diff_grad(loss_fn, param, h=1e-5))
            assert err < 1e-4


class TestFlopCounter:
    def test_conv_count_follows_convention(self):
        x = Tensor(np.zeros((1, 3, 8, 8)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        with gradcore.count_flops() as counter:
            conv2d(x, w)
        positions = 6 * 6
        assert counter.flops == positions * 4 * (2 * 9 * 3 + 1)

    def test_counter_inactive_outside_context(self):
        with gradcore.count_flops() as counter:
            pass
        conv2d(Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros((1, 1, 1, 1))))
        assert counter.flops == 0
