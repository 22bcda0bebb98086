import ctypes
import gc
import math
import weakref

import numpy as np
import pytest

from ferfuse.tensor import (
    LN_EPS,
    Graph,
    NonFiniteError,
    OpNode,
    ShapeError,
    Tensor,
    _SMALL_GEMM_MACS,
    _keep_freed_memory,
    _record,
    add,
    backward,
    concat,
    cross_entropy,
    finite_diff_check,
    gelu,
    layer_norm,
    leaf_grads,
    linear,
    matmul,
    mean_pool_patches,
    merge_heads,
    scale,
    softmax_rows,
    split_heads,
    swap_axes,
)
from ferfuse.training import label_smoothing_ce
from helpers import naive_layer_norm_row, naive_matmul, reference_cross_entropy


class TestMatmul:
    def test_identity(self):
        b = Tensor([[1.5, -2.0], [0.25, 4.0]])
        eye = Tensor(np.eye(2))
        assert np.array_equal(matmul(eye, b).data, b.data)

    def test_hand_arithmetic(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
        assert np.array_equal(out.data, [[2.0], [4.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(got - naive_matmul(a, b))) < 1e-12

    def test_oracle_agreement_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((3, 5))
            b = rng.standard_normal((5, 4))
            got = matmul(Tensor(a), Tensor(b)).data
            assert np.max(np.abs(got - naive_matmul(a, b))) < 1e-10

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as e:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)

    def test_batched_matches_per_matrix(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 3, 4))
        b2 = rng.standard_normal((4, 2))
        b3 = rng.standard_normal((5, 4, 2))
        got2 = matmul(Tensor(a), Tensor(b2)).data
        got3 = matmul(Tensor(a), Tensor(b3)).data
        for i in range(5):
            assert np.allclose(got2[i], a[i] @ b2, atol=1e-12)
            assert np.allclose(got3[i], a[i] @ b3[i], atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        c = rng.standard_normal((3, 2))

        def f():
            y = matmul(a, b)
            return add(y, y)

        assert finite_diff_check(f, {"a": a, "b": b}, cotangent=c).passed

    def test_batched_gradients(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        c = rng.standard_normal((2, 3, 2))

        def f():
            y = matmul(a, b)
            return add(y, y)

        assert finite_diff_check(f, {"a": a, "b": b}, cotangent=c).passed


class TestFoldedMatmul:
    """A stack times a 2-D matrix folds into one GEMM; other stacks do not."""

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 2, 3, 4)])
    def test_stack_times_matrix_matches_oracle(self, shape):
        rng = np.random.default_rng(21)
        a = rng.standard_normal(shape)
        b = rng.standard_normal((4, 5))
        got = matmul(Tensor(a), Tensor(b)).data
        assert got.shape == shape[:-1] + (5,)
        for idx in np.ndindex(*shape[:-2]):
            assert np.max(np.abs(got[idx] - naive_matmul(a[idx], b))) < 1e-12

    @pytest.mark.parametrize(
        "a_shape,b_shape",
        [
            ((2, 3, 4), (4, 5)),  # folded
            ((2, 2, 3, 4), (4, 5)),  # folded
            ((2, 2, 3, 4), (2, 2, 4, 5)),  # stacked, equal leading axes
        ],
    )
    def test_gradients(self, a_shape, b_shape):
        rng = np.random.default_rng(22)
        a = Tensor(rng.standard_normal(a_shape), requires_grad=True)
        b = Tensor(rng.standard_normal(b_shape), requires_grad=True)
        c = rng.standard_normal(a_shape[:-1] + b_shape[-1:])

        def f():
            y = matmul(a, b)
            return add(y, y)

        assert finite_diff_check(f, {"a": a, "b": b}, cotangent=c).passed

    @pytest.mark.parametrize(
        "a_shape,b_shape", [((3, 4), (2, 4, 5)), ((2, 3, 4), (3, 4, 5)), ((2, 2, 3, 4), (2, 4, 5))]
    )
    def test_stack_needs_equal_leading_axes(self, a_shape, b_shape):
        with pytest.raises(ShapeError, match="leading axes"):
            matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))

    def test_stack_of_small_products_keeps_stacked_forward(self):
        # Each 1x30 @ 30x31 product is small, their fold is over a million
        # multiply-adds, so the forward runs as a stack; the grads still fold.
        rng = np.random.default_rng(24)
        a = Tensor(rng.standard_normal((1100, 1, 30)), requires_grad=True)
        b = Tensor(rng.standard_normal((30, 31)), requires_grad=True)
        got = matmul(a, b).data
        for i in range(0, 1100, 157):
            assert np.max(np.abs(got[i] - naive_matmul(a.data[i], b.data))) < 1e-12

        def f():
            y = matmul(a, b)
            return add(y, y)

        c = rng.standard_normal((1100, 1, 31))
        report = finite_diff_check(f, {"a": a, "b": b}, samples_per_param=10, rng=np.random.default_rng(0), cotangent=c)
        assert report.passed

    @pytest.mark.parametrize("a_shape,b_shape", [((2, 3, 4), (4, 5)), ((3, 4), (4, 5)), ((2, 3, 4), (2, 4, 5))])
    def test_vjp_skips_operands_without_grad(self, a_shape, b_shape):
        rng = np.random.default_rng(23)
        for a_grad, b_grad in ((True, False), (False, True)):
            a = Tensor(rng.standard_normal(a_shape), requires_grad=a_grad)
            b = Tensor(rng.standard_normal(b_shape), requires_grad=b_grad)
            y = matmul(a, b)
            ga, gb = y.creator.vjp(np.ones(y.shape))
            assert (ga is None) != a_grad and (gb is None) != b_grad
            grad = ga if a_grad else gb
            assert grad.shape == (a_shape if a_grad else b_shape)


class TestBiasedMatmul:
    """``matmul(a, b, bias)`` records one op: the GEMM plus the bias, bitwise."""

    @pytest.mark.parametrize("a_shape", [(5, 16), (3, 7, 16), (1000, 8, 16), (16,)])
    def test_forward_and_grads_bitwise_equal_numpy(self, a_shape):
        k, n = 16, 12
        stacked = len(a_shape) > 2 and a_shape[-2] * k * n <= _SMALL_GEMM_MACS < math.prod(a_shape) * n
        assert stacked == (a_shape == (1000, 8, 16))  # one case runs the small-GEMM stack
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal(a_shape), requires_grad=True)
        w = Tensor(rng.standard_normal((k, n)), requires_grad=True)
        b = Tensor(rng.standard_normal(n), requires_grad=True)
        y = matmul(x, w, b)
        assert [node.name for node in Graph.trace(y).ops] == ["matmul"]
        x2 = x.data.reshape(-1, k)
        product = x.data @ w.data if stacked else (x2 @ w.data).reshape(a_shape[:-1] + (n,))
        assert y.data.tobytes() == (product + b.data).tobytes()
        g = rng.standard_normal(y.shape)
        g2 = g.reshape(-1, n)
        gx, gw, gb = y.creator.vjp(g)
        assert gx.tobytes() == (g2 @ w.data.T).reshape(a_shape).tobytes()
        assert gw.tobytes() == (x2.T @ g2).tobytes()
        assert gb.tobytes() == g2.sum(0).tobytes()

    def test_gradients(self):
        rng = np.random.default_rng(32)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True)
        c = rng.standard_normal((2, 3, 5))
        assert finite_diff_check(lambda: matmul(x, w, b), {"x": x, "w": w, "b": b}, cotangent=c).passed

    def test_bias_without_grad_gets_none(self):
        rng = np.random.default_rng(33)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        y = matmul(x, Tensor(np.ones((3, 4))), Tensor(np.ones(4)))
        gx, gw, gb = y.creator.vjp(np.ones(y.shape))
        assert gx.shape == (2, 3) and gw is None and gb is None

    @pytest.mark.parametrize("b_shape,bias_shape", [((2, 4, 5), (5,)), ((4, 5), (4,)), ((4, 5), (1, 5))])
    def test_bias_needs_a_matrix_and_one_entry_per_column(self, b_shape, bias_shape):
        with pytest.raises(ShapeError, match="bias"):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros(b_shape)), Tensor(np.zeros(bias_shape)))

    def test_finite_product_plus_finite_bias_that_overflows_names_matmul(self):
        big = np.finfo(np.float64).max
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match=r"^matmul: output contains"):
            matmul(Tensor([[1.0, 1.0]]), Tensor([[big], [0.0]]), Tensor([big]))


class TestResidualAdd:
    """``add(a, b, factor)`` is ``factor * a + b``: one op for a drop-path residual step."""

    @pytest.mark.parametrize("factor", [0.0, 1.0, 1.0 / (1.0 - 0.3)])
    def test_bitwise_equal_to_scale_then_add(self, factor):
        rng = np.random.default_rng(41)
        a = Tensor(rng.standard_normal((4, 6, 8)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 6, 8)), requires_grad=True)
        c = rng.standard_normal((4, 6, 8))
        results = []
        for fused in (True, False):
            y = add(a, b, factor) if fused else add(scale(a, factor), b)
            grads = {id(t): g for t, g in leaf_grads(y, cotangent=c)}
            results.append((y.data.tobytes(), grads[id(a)].tobytes(), grads[id(b)].tobytes(), len(Graph.trace(y).ops)))
        assert results[0][:3] == results[1][:3]
        assert results[0][3] == 1

    def test_gradients(self):
        rng = np.random.default_rng(42)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        c = rng.standard_normal((3, 4))
        assert finite_diff_check(lambda: add(a, b, 1.7), {"a": a, "b": b}, cotangent=c).passed


class TestSoftmax:
    def test_single_element_row(self):
        assert softmax_rows(Tensor([[3.7]])).data[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_equal_values_give_uniform(self):
        out = softmax_rows(Tensor([[2.0] * 5])).data
        assert np.allclose(out, 0.2, atol=1e-15)

    def test_closed_form_quarter(self):
        out = softmax_rows(Tensor([[0.0, math.log(3.0)]])).data
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-14)

    def test_rows_sum_to_one_and_bounded(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            out = softmax_rows(Tensor(rng.standard_normal((4, 6)) * 5)).data
            assert np.all(out >= 0) and np.all(out <= 1)
            assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12

    def test_large_values_stable(self):
        out = softmax_rows(Tensor([[1000.0, 1000.0, 999.0]])).data
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        c = rng.standard_normal((3, 4))

        assert finite_diff_check(lambda: softmax_rows(x), {"x": x}, cotangent=c).passed

    def test_factor_scales_inputs_and_gradients(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        c = rng.standard_normal((2, 3, 4))
        assert np.array_equal(softmax_rows(x, 0.35).data, softmax_rows(scale(x, 0.35)).data)

        assert finite_diff_check(lambda: softmax_rows(x, 0.35), {"x": x}, cotangent=c).passed


class TestCrossEntropy:
    def test_matches_log_of_softmax(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 5))
        q = rng.dirichlet(np.ones(5), size=3)
        want = -(q * np.log(softmax_rows(Tensor(x)).data)).sum() / 3
        assert cross_entropy(Tensor(x), q).item() == pytest.approx(want, abs=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        q = rng.dirichlet(np.ones(5), size=2)
        assert finite_diff_check(lambda: cross_entropy(x, q), {"x": x}).passed

    @pytest.mark.parametrize("b,n", [(1, 2), (3, 5), (8, 7), (64, 7)])
    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    def test_loss_and_grad_bitwise_equal_the_four_op_chain(self, b, n, smoothing):
        # The old loss recorded log_softmax_rows, scale by q, sum_all and scale
        # by -1/b; the one op keeps every bit of its loss and logit gradient.
        rng = np.random.default_rng(b * 100 + n)
        x = Tensor(3.0 * rng.standard_normal((b, n)), requires_grad=True)
        labels = rng.integers(0, n, size=b)
        q = np.full((b, n), smoothing / n)
        q[np.arange(b), labels] += 1.0 - smoothing
        want_loss, want_grad = reference_cross_entropy(x.data, q)
        loss = label_smoothing_ce(x, labels, smoothing)
        assert [op.name for op in Graph.trace(loss).ops] == ["cross_entropy"]
        assert loss.item() == want_loss
        [(leaf, grad)] = leaf_grads(loss)
        assert leaf is x and grad.tobytes() == want_grad.tobytes()


class TestLayerNorm:
    def test_constant_row_gives_zeros(self):
        x = Tensor([[5.0, 5.0, 5.0]])
        out = layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_closed_form(self):
        out = layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        r = 1.0 / np.sqrt(1.0 + LN_EPS)
        assert np.allclose(out.data, [[-r, r]], atol=1e-9)

    def test_matches_scalar_loop_oracle(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((3, 6))
            gamma = rng.standard_normal(6)
            beta = rng.standard_normal(6)
            got = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
            want = np.stack([naive_layer_norm_row(row, gamma, beta, LN_EPS) for row in x])
            assert np.max(np.abs(got - want)) < 1e-10

    def test_gradients(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        gamma = Tensor(1.0 + 0.1 * rng.standard_normal(5), requires_grad=True)
        beta = Tensor(0.1 * rng.standard_normal(5), requires_grad=True)
        c = rng.standard_normal((2, 5))

        def f():
            return layer_norm(x, gamma, beta)

        assert finite_diff_check(f, {"x": x, "gamma": gamma, "beta": beta}, cotangent=c).passed


class TestLinear:
    def test_identity_weight(self):
        x = Tensor([[1.0, -2.0], [0.5, 3.0]])
        out = linear(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))
        assert np.array_equal(out.data, x.data)

    def test_hand_arithmetic(self):
        out = linear(Tensor([1.0, 1.0]), Tensor([[2.0], [3.0]]), Tensor([1.0]))
        assert np.array_equal(out.data, [6.0])

    def test_batched_equals_per_row(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((4, 3))
            w = rng.standard_normal((3, 5))
            b = rng.standard_normal(5)
            got = linear(Tensor(x), Tensor(w), Tensor(b)).data
            for i in range(4):
                want = np.array([float(x[i] @ w[:, j]) + b[j] for j in range(5)])
                assert np.max(np.abs(got[i] - want)) < 1e-10

    def test_vector_input_is_one_matmul_and_bias(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        y = linear(x, w, b)
        assert [node.name for node in Graph.trace(y).ops] == ["matmul"]
        row = linear(Tensor(x.data.reshape(1, 3)), w, b)
        assert y.shape == (4,) and np.array_equal(y.data, row.data[0])

    def test_no_bias(self):
        x = Tensor([[1.0, 2.0]])
        w = Tensor([[1.0], [1.0]])
        assert np.array_equal(linear(x, w).data, [[3.0]])

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            linear(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.zeros((2, 2))))

    def test_gradients(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        c = rng.standard_normal((2, 4))

        def f():
            return linear(x, w, b)

        assert finite_diff_check(f, {"x": x, "w": w, "b": b}, cotangent=c).passed


class TestElementwiseAndStructural:
    def test_gelu_at_zero(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0

    def test_gelu_matches_erf_formula(self):
        xs = np.linspace(-3, 3, 13)
        got = gelu(Tensor(xs)).data
        want = np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in xs])
        assert np.max(np.abs(got - want)) < 1e-14

    def test_gelu_gradients(self):
        x = Tensor(np.linspace(-2, 2, 7), requires_grad=True)
        c = np.random.default_rng(16).standard_normal(7)

        def f():
            return add(gelu(x), gelu(x))

        assert finite_diff_check(f, {"x": x}, cotangent=c).passed

    def test_concat_patches_order_and_shape(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(9.0).reshape(3, 3) + 100)
        out = concat((a, b), axis=-2)
        assert out.shape == (5, 3)
        assert np.array_equal(out.data[:2], a.data)
        assert np.array_equal(out.data[2:], b.data)

    def test_concat_patches_width_mismatch(self):
        with pytest.raises(ShapeError):
            concat((Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))), axis=-2)

    def test_concat_gradients(self):
        a = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        b = Tensor(np.arange(2.0).reshape(1, 2), requires_grad=True)

        c = np.random.default_rng(17).standard_normal((3, 2))

        def f():
            y = concat((a, b), axis=0)
            return add(y, y)

        assert finite_diff_check(f, {"a": a, "b": b}, cotangent=c).passed

    def test_mean_pool_of_identical_rows(self):
        row = np.array([1.0, 2.0, 3.0])
        out = mean_pool_patches(Tensor(np.stack([row, row])))
        assert np.allclose(out.data, row, atol=1e-15)

    def test_mean_pool_gradients(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        c = np.array([2.0, -1.0])

        assert finite_diff_check(lambda: mean_pool_patches(x), {"x": x}, cotangent=c).passed

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            add(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_scale_and_linear(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Tensor(np.eye(3), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        c = np.random.default_rng(15).standard_normal((2, 3))

        def f():
            return add(scale(linear(x, w, b), 2.0), linear(x, w, b))

        assert finite_diff_check(f, {"x": x, "w": w, "b": b}, cotangent=c).passed

    def test_split_heads_and_swap_axes_round_trip(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        y = swap_axes(split_heads(x, 2), -3, -2)
        assert np.array_equal(y.data, x.data.reshape(2, 3, 2, 2))

        c = np.random.default_rng(18).standard_normal((2, 3, 2, 2))

        def f():
            z = swap_axes(split_heads(x, 2), -3, -2)
            return add(z, z)

        assert finite_diff_check(f, {"x": x}, cotangent=c).passed


class TestHeads:
    def test_split_puts_column_blocks_on_a_head_axis(self):
        x = np.arange(2 * 3 * 8, dtype=np.float64).reshape(2, 3, 8)
        out = split_heads(Tensor(x), 4).data
        assert out.shape == (2, 4, 3, 2)
        for h in range(4):
            assert np.array_equal(out[:, h], x[:, :, 2 * h : 2 * h + 2])

    def test_merge_inverts_split(self):
        x = Tensor(np.random.default_rng(8).standard_normal((2, 5, 12)))
        for heads in (1, 3, 4, 12):
            assert np.array_equal(merge_heads(split_heads(x, heads)).data, x.data)

    def test_gradients(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 3, 6)), requires_grad=True)
        y = Tensor(rng.standard_normal((2, 3, 3, 2)), requires_grad=True)
        cx = rng.standard_normal((2, 3, 3, 2))
        cy = rng.standard_normal((2, 3, 6))
        assert finite_diff_check(lambda: split_heads(x, 3), {"x": x}, cotangent=cx).passed
        assert finite_diff_check(lambda: merge_heads(y), {"y": y}, cotangent=cy).passed

    def test_bad_shapes_rejected(self):
        with pytest.raises(ShapeError):
            split_heads(Tensor(np.zeros((3, 6))), 4)
        with pytest.raises(ShapeError):
            split_heads(Tensor(np.zeros(6)), 2)
        with pytest.raises(ShapeError):
            merge_heads(Tensor(np.zeros((3, 6))))


def _dot(x):
    """x @ x.T for a (1, n) row x: a (1, 1) root that reads x along two paths."""
    return matmul(x, swap_axes(x, 0, 1))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        backward(matmul(x, Tensor(np.ones((5, 1)))))
        assert np.array_equal(x.grad, np.ones(5))

    def test_quadratic_gives_two_x(self):
        x = Tensor(np.array([[1.0, -2.0, 0.5]]), requires_grad=True)
        backward(_dot(x))
        assert np.allclose(x.grad, 2 * x.data, atol=1e-15)

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.ones((1, 3)), requires_grad=True)
        loss = _dot(x)
        backward(loss)
        backward(loss)
        assert np.allclose(x.grad, 4 * x.data, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(add(x, x))

    def test_detached_leaf_grad_stays_none(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones((3, 1)))  # no grad requested
        backward(matmul(x, y))
        assert y.grad is None
        assert x.grad is not None

    def test_intermediate_grads_freed_unless_watched(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        q = rng.dirichlet(np.ones(5), size=3)
        kept = matmul(x, w)
        dropped = gelu(kept)
        loss = cross_entropy(dropped, q)
        pairs = list(leaf_grads(loss, watch=[kept]))
        # The watched output comes once its gradient is complete, before its
        # own VJP hands gradients to the leaves below it.
        assert [t for t, _ in pairs] == [kept, x, w]
        backward(loss)
        assert kept.grad is None and dropped.grad is None and loss.grad is None
        assert w.grad is not None and x.grad is not None
        # The watched grad is the one a leaf in the same place receives.
        leaf = Tensor(kept.data, requires_grad=True)
        backward(cross_entropy(gelu(leaf), q))
        assert np.array_equal(pairs[0][1], leaf.grad)

    def test_leaf_loss_gets_unit_grad(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        backward(x)
        assert np.array_equal(x.grad, np.ones(()))

    def test_diamond_graph_counts_both_paths(self):
        # y = x + x, loss = y . y = 4 x . x, so grad must be 8x
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        y = add(x, x)
        backward(_dot(y))
        assert np.allclose(x.grad, 8 * x.data, atol=1e-15)

    def test_graph_trace_is_topological_and_unique(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = matmul(x, x)
        z = add(y, y)
        graph = Graph.trace(matmul(z, z))
        seen = set()
        positions = {}
        for idx, node in enumerate(graph.ops):
            assert id(node) not in seen  # each op exactly once
            seen.add(id(node))
            positions[id(node)] = idx
        for idx, node in enumerate(graph.ops):
            for parent in node.inputs:
                if parent.creator is not None:
                    assert positions[id(parent.creator)] < idx

    def test_trace_pairs_each_op_with_its_output(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        root = softmax_rows(gelu(matmul(x, x)))
        graph = Graph.trace(root)
        assert [node.name for node in graph.ops] == ["matmul", "gelu", "softmax_rows"]
        assert graph.ops[-1] is root.creator
        assert all(node.inputs[0] is prev for prev, node in zip(graph.ops, graph.ops[1:]))

    def test_tape_freed_by_refcount_when_loss_dropped(self):
        rng = np.random.default_rng(32)
        gc.disable()
        try:
            x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
            h = matmul(x, w)
            alive = weakref.ref(h.data)  # gelu's VJP reads it
            loss = cross_entropy(gelu(h), np.full((3, 5), 0.2))
            del h
            backward(loss)
            assert alive() is not None  # the loss still roots the graph
            del loss
            assert alive() is None  # freed with no help from the cyclic GC
            assert x.grad is not None and w.grad is not None
        finally:
            gc.enable()


class TestLeafGrads:
    def test_leaf_used_twice_by_one_op_is_yielded_once(self):
        a = Tensor(np.array([1.5, -2.0, 0.25]), requires_grad=True)
        c = np.array([0.5, 3.0, -1.0])
        pairs = list(leaf_grads(add(a, a), cotangent=c))
        assert len(pairs) == 1 and pairs[0][0] is a
        assert np.array_equal(pairs[0][1], 2 * c)

    def test_each_leaf_yielded_when_its_last_reader_has_run(self):
        rng = np.random.default_rng(51)
        x = Tensor(rng.standard_normal((3, 4)))
        w1, b1 = Tensor(rng.standard_normal((4, 5)), requires_grad=True), Tensor(rng.standard_normal(5), requires_grad=True)
        w2, b2 = Tensor(rng.standard_normal((5, 5)), requires_grad=True), Tensor(rng.standard_normal(5), requires_grad=True)
        first = matmul(x, w1, b1)
        ran = []
        vjp = first.creator.vjp
        first.creator.vjp = lambda g: (ran.append(True), vjp(g))[1]
        loss = cross_entropy(gelu(matmul(gelu(first), w2, b2)), np.full((3, 5), 0.2))
        walk = leaf_grads(loss)
        assert [next(walk)[0] for _ in range(2)] == [w2, b2]
        assert not ran  # yielded before the walk reached the first layer
        assert [t for t, _ in walk] == [w1, b1] and ran
        # The same gradients backward accumulates, bit for bit.
        got = {id(t): g for t, g in leaf_grads(loss)}
        backward(loss)
        for t in (w1, b1, w2, b2):
            assert np.array_equal(got[id(t)], t.grad)

    def test_leaf_read_by_two_ops_waits_for_both(self):
        rng = np.random.default_rng(52)
        x = Tensor(rng.standard_normal((2, 3)))
        w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        v = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        loss = cross_entropy(matmul(gelu(matmul(x, w)), add(w, v)), np.full((2, 3), 1 / 3))
        pairs = list(leaf_grads(loss))
        assert [t for t, _ in pairs] == [w, v]  # w once, complete, with the later reader
        backward(loss)
        assert np.array_equal(pairs[0][1], w.grad) and np.array_equal(pairs[1][1], v.grad)
        assert not np.array_equal(w.grad, v.grad)

    def test_leaf_whose_other_reader_gets_no_gradient_is_flushed_after_the_walk(self):
        rng = np.random.default_rng(53)
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        v = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        x = matmul(v, Tensor(rng.standard_normal((4, 4))))
        y = Tensor(rng.standard_normal((4, 4)))
        blocked = _record("stop", (add(w, y),), np.zeros((4, 4)), lambda g: (None,))
        c = rng.standard_normal((4, 4))
        pairs = list(leaf_grads(add(matmul(x, w), blocked), cotangent=c))
        # v's reader runs after w's only reader that ran, yet w comes last.
        assert [t for t, _ in pairs] == [v, w]
        assert np.array_equal(pairs[1][1], x.data.T @ c)

    def test_loss_that_is_a_leaf(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        pairs = list(leaf_grads(x))
        assert len(pairs) == 1 and pairs[0][0] is x and np.array_equal(pairs[0][1], np.ones(()))
        assert list(leaf_grads(Tensor(np.array(3.0)))) == []

    def test_watched_root_gets_ones_and_an_output_without_gradient_is_not_yielded(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        y = add(x, x)
        blocked = _record("stop", (y,), np.zeros(2), lambda g: (None,))
        loss = matmul(add(x, blocked), Tensor(np.ones((2, 1))))
        pairs = list(leaf_grads(loss, watch=[loss, y, blocked]))
        assert [t for t, _ in pairs] == [loss, blocked, x]
        assert np.array_equal(pairs[0][1], np.ones(1)) and np.array_equal(pairs[1][1], np.ones(2))

    def test_sets_no_grad_on_leaves(self):
        x = Tensor(np.ones(3), requires_grad=True)
        list(leaf_grads(add(x, x), cotangent=np.ones(3)))
        assert x.grad is None

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            next(leaf_grads(add(x, x)))

    @pytest.mark.parametrize(
        "cotangent,given", [(None, "none"), (np.ones(3), r"\(3,\)"), (np.ones(()), r"\(\)")], ids=["none", "row", "scalar"]
    )
    def test_cotangent_must_have_the_root_shape(self, cotangent, given):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ShapeError, match=rf"^root \(2, 3\) needs a same-shape cotangent, got {given}$"):
            next(leaf_grads(add(x, x), cotangent=cotangent))
        with pytest.raises(ShapeError, match=r"^root \(\) needs a same-shape cotangent, got \(1,\)$"):
            next(leaf_grads(Tensor(np.array(2.0), requires_grad=True), cotangent=np.ones(1)))

    def test_watched_root_yields_the_cotangent_itself(self):
        rng = np.random.default_rng(54)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        root = gelu(matmul(x, w))
        c = rng.standard_normal((2, 4))
        pairs = list(leaf_grads(root, watch=[root], cotangent=c))
        assert [t for t, _ in pairs] == [root, x, w] and pairs[0][1] is c
        assert finite_diff_check(lambda: gelu(matmul(x, w)), {"x": x, "w": w}, cotangent=c).passed


class TestTapeOwnership:
    """A node holds the ``OpNode`` that made an op-output input, never the
    output, so the tape keeps only the arrays its VJP closures read."""

    def test_node_inputs_are_leaves_or_nodes_with_what_the_benchmark_reads(self):
        # bench/tracing.py reads each input's requires_grad; bench/tests reads
        # creator and grad.
        rng = np.random.default_rng(61)
        x = Tensor(rng.standard_normal((2, 3)))
        w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        h = matmul(x, w)
        y = gelu(h)
        root = softmax_rows(add(y, h))
        ops = Graph.trace(root).ops
        assert [op.name for op in ops] == ["matmul", "gelu", "add", "softmax_rows"]
        assert ops[0].inputs[0] is x and ops[0].inputs[1] is w  # leaves are themselves
        assert ops[1].inputs[0] is h.creator and ops[2].inputs[1] is h.creator  # the producer, twice
        assert ops[2].inputs[0] is y.creator and ops[3].inputs[0] is ops[2]
        for op in ops:
            for t in op.inputs:
                if t.creator is not None:
                    assert isinstance(t, OpNode) and t.creator is t
                    assert t.requires_grad is True and t.grad is None and t.data is None
        assert x.creator is None and w.creator is None  # leaves have none

    def test_residual_sum_freed_once_the_forward_drops_it(self):
        # An add output read only by add and layer_norm: neither VJP reads it,
        # so reference counting frees it while the loss still roots the tape.
        rng = np.random.default_rng(62)
        x = Tensor(rng.standard_normal((3, 4, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 8)), requires_grad=True)
        gamma, beta = Tensor(np.ones(8), requires_grad=True), Tensor(np.zeros(8), requires_grad=True)
        c = rng.standard_normal((3, 4, 8))
        alive = []

        def f():
            r = add(matmul(x, w), x)
            alive.append(weakref.ref(r.data))
            return gelu(add(matmul(layer_norm(r, gamma, beta), w), r))

        gc.disable()
        try:
            root = f()
            assert alive[0]() is None and root.creator is not None
        finally:
            gc.enable()
        # The walk over a tape without the sum still gets every gradient right.
        assert finite_diff_check(f, {"x": x, "w": w, "gamma": gamma, "beta": beta}, cotangent=c).passed


class TestPurityAndFiniteness:
    def test_identical_inputs_bitwise_identical_outputs(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 4))

        def chain():
            t = Tensor(x)
            y = gelu(linear(t, Tensor(w)))
            return softmax_rows(y).data

        assert np.array_equal(chain(), chain())

    def test_non_finite_input_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.inf])
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])

    def test_overflowing_op_raises(self):
        x = Tensor([1e300])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            scale(scale(x, 1e300), 1e300)

    def test_screen_names_the_op(self):
        with np.errstate(over="ignore"), pytest.raises(
            NonFiniteError, match=r"^scale: output contains NaN/Inf \(shape \(1,\)\)$"
        ):
            scale(Tensor([1e300]), 1e300)

    def test_finite_output_whose_sum_overflows_passes_silently(self, recwarn):
        x = Tensor(np.full(8, np.finfo(np.float64).max / 2))
        out = scale(x, 1.5)
        assert not recwarn.list
        with np.errstate(over="ignore"):
            assert np.all(np.isfinite(out.data)) and out.data.sum() == np.inf

    def test_op_making_nan_raises(self):
        # the row mean overflows to inf, so (x - mean) * 1/sqrt(var) is -inf * 0
        big = np.finfo(np.float64).max
        x = Tensor([[big, big]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NonFiniteError, match=r"^layer_norm: output contains NaN/Inf"
        ):
            layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))


class TestFiniteDiffCheck:
    def test_quadratic_passes_tight_tolerance(self):
        x = Tensor(np.array([[1.0, -2.0], [3.0, 0.5]]), requires_grad=True)
        c = np.array([[0.5, -1.0], [2.0, 1.5]])
        report = finite_diff_check(lambda: matmul(x, x), {"x": x}, tol=1e-6, cotangent=c)
        assert report.passed
        assert report.max_rel_err < 1e-6

    def test_corrupted_matmul_adjoint_fails(self):
        rng = np.random.default_rng(17)
        a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 3)), requires_grad=True)

        def bad_matmul(p, q):
            out = p.data @ q.data

            def vjp(g):
                # deliberately wrong: 10% overscaled adjoint for the left input
                return 1.1 * (g @ q.data.T), p.data.T @ g

            return _record("bad_matmul", (p, q), out, vjp)

        c = rng.standard_normal((3, 3))
        report = finite_diff_check(lambda: bad_matmul(a, b), {"a": a, "b": b}, cotangent=c)
        assert not report.passed

    def test_sampled_subset(self):
        x = Tensor(np.arange(100.0), requires_grad=True)
        c = np.linspace(-1.0, 1.0, 100)
        report = finite_diff_check(lambda: add(x, x), {"x": x}, samples_per_param=5, rng=np.random.default_rng(0), cotangent=c)
        assert report.passed
        assert report.params[0].checked == 5

    def test_summary_mentions_verdict(self):
        x = Tensor(np.ones(2), requires_grad=True)
        report = finite_diff_check(lambda: add(x, x), {"x": x}, cotangent=np.ones(2))
        assert "PASS" in report.summary()

    @pytest.mark.parametrize(
        "kw",
        [{"h": 0.0}, {"h": -1e-5}, {"samples_per_param": 0}, {"samples_per_param": -2},
         {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")}],
    )
    def test_settings_that_check_nothing_rejected(self, kw):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError, match=next(iter(kw))):
            finite_diff_check(lambda: add(x, x), {"x": x}, cotangent=np.ones(2), **kw)


def _no_c_library(name):
    raise OSError("no C library")


class TestKeepFreedMemory:
    # Off glibc: a C library without mallopt, or none that loads.
    @pytest.mark.parametrize("cdll", [lambda name: object(), _no_c_library], ids=["no_mallopt", "no_library"])
    def test_without_mallopt_does_nothing(self, monkeypatch, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert _keep_freed_memory() is None

    def test_sets_arena_max_mmap_and_trim_thresholds_in_order(self, monkeypatch):
        calls = []

        class FakeLibc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        opened = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or FakeLibc())
        _keep_freed_memory()
        assert opened == [None]
        # M_ARENA_MAX = 1, M_MMAP_THRESHOLD = 32 MB, M_TRIM_THRESHOLD = 1 GB
        assert calls == [(-8, 1), (-3, 32 * 2**20), (-1, 2**30)]
