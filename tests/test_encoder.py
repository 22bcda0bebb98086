import numpy as np
import pytest

from ferfuse.encoder import block, drop_path, mlp, stack_forward
from ferfuse.model import ModelConfig, build_params
from ferfuse.tensor import LN_EPS, Graph, LinearParams, Tensor, add, concat, finite_diff_check, scale
from helpers import (
    FakeRng,
    make_cross_block_params,
    make_vanilla_block_params,
    msa_tensor,
    oracle_cross_fusion_block,
    oracle_gelu,
    oracle_vanilla_block,
    stream_tensor,
)


def _zeroed(params: tuple) -> tuple:
    for p in (s.msa for s in params):
        for tag in ("w_q", "w_k", "w_v", "w_o", "b_q", "b_k", "b_v", "b_o"):
            t = msa_tensor(p, tag)
            if t is not None:
                t.data = np.zeros_like(t.data)
    for s in params:
        for tag in ("norm1_gamma", "norm1_beta", "norm2_gamma", "norm2_beta", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"):
            t = stream_tensor(s, tag)
            t.data = np.zeros_like(t.data)
    return params


class TestDropPath:
    """``drop_path(x, branch, ...)`` is the residual step ``x + keep * branch``."""

    def _pair(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        return x, Tensor(np.linspace(-1.0, 1.5, 6).reshape(2, 3), requires_grad=True)

    def test_rate_zero_is_identity_in_both_modes(self):
        x, branch = self._pair()
        for training in (False, True):
            out = drop_path(x, branch, 0.0, training=training)
            assert out.data.tobytes() == (x.data + branch.data).tobytes()

    def test_eval_mode_is_identity_at_any_rate(self):
        x, branch = self._pair()
        out = drop_path(x, branch, 0.9, training=False)
        assert out.data.tobytes() == (x.data + branch.data).tobytes()
        assert [node.name for node in Graph.trace(out).ops] == ["add"]

    def test_rate_validation(self):
        x, branch = self._pair()
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                drop_path(x, branch, bad, training=True, rng=FakeRng([0.5]))

    def test_scripted_draws(self):
        x = Tensor(np.array([1.0, -3.0]))
        branch = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        dropped = drop_path(x, branch, 0.25, training=True, rng=FakeRng([0.1]))  # 0.1 < 0.25: drop
        kept = drop_path(x, branch, 0.25, training=True, rng=FakeRng([0.9]))
        assert np.array_equal(dropped.data, x.data)
        assert kept.data.tobytes() == (branch.data * (1.0 / 0.75) + x.data).tobytes()
        # one op per residual step, bitwise the scale-then-add it replaces
        for out, keep in ((dropped, 0.0), (kept, 1.0 / 0.75)):
            assert [node.name for node in Graph.trace(out).ops] == ["add"]
            assert out.data.tobytes() == add(scale(branch, keep), x).data.tobytes()

    def test_expectation_preserved_monte_carlo(self):
        # E[output] == x + branch: the mean of 1e5 draws of keep is 1
        rate = 0.3
        rng = np.random.default_rng(123)
        x, branch = Tensor(np.array([0.0])), Tensor(np.array([1.0]))
        total = 0.0
        n = 100_000
        for _ in range(n):
            total += drop_path(x, branch, rate, training=True, rng=rng).data[0]
        # std of the mean is sqrt(rate/(1-rate))/sqrt(n) ~ 0.002
        assert abs(total / n - 1.0) < 0.01

    def test_missing_rng_in_training(self):
        with pytest.raises(ValueError):
            drop_path(Tensor([0.0]), Tensor([1.0]), 0.5, training=True)


class TestMlp:
    def test_matches_oracle_and_every_affine_map_is_linear_params(self):
        rng = np.random.default_rng(21)
        fc1, fc2 = layers = tuple(
            LinearParams(
                Tensor(0.5 * rng.standard_normal((din, dout)), requires_grad=True),
                Tensor(0.1 * rng.standard_normal(dout), requires_grad=True),
            )
            for din, dout in ((4, 6), (6, 3))
        )
        x = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
        want = oracle_gelu(x.data @ fc1.w.data + fc1.b.data) @ fc2.w.data + fc2.b.data
        assert np.max(np.abs(mlp(x, layers).data - want)) < 1e-12
        c = rng.standard_normal((2, 5, 3))
        named = {"x": x, "w1": fc1.w, "b1": fc1.b, "w2": fc2.w, "b2": fc2.b}
        assert finite_diff_check(lambda: mlp(x, layers), named, cotangent=c).passed

        for qkv_bias in (True, False):
            cfg = ModelConfig(patches=4, base_dim=16, pyramid_dims=(16, 8), depth=2, heads_divisor=8, qkv_bias=qkv_bias)
            params = build_params(cfg)
            streams = [s for lvl in params.levels for b in lvl.blocks for s in b]
            for pair in [params.head] + [s.mlp for s in streams]:
                assert len(pair) == 2 and all(isinstance(lp, LinearParams) for lp in pair)
            for msa in (s.msa for s in streams):
                assert all(isinstance(lp, LinearParams) for lp in (msa.q, msa.k, msa.v, msa.o))
                assert [lp.b is None for lp in (msa.q, msa.k, msa.v)] == [not qkv_bias] * 3
                assert msa.o.b is not None


class TestVanillaBlock:
    def test_zero_weights_give_identity(self):
        rng = np.random.default_rng(0)
        p = _zeroed(make_vanilla_block_params(4, 2, 2, rng))
        x = Tensor(rng.standard_normal((3, 4)))
        out = block([x], p, training=False)[0]
        assert np.allclose(out.data, x.data, atol=1e-15)

    def test_matches_equation_literal_oracle(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            p = make_vanilla_block_params(4, 2, 2, rng)
            x = rng.standard_normal((3, 4))
            got = block([Tensor(x)], p, training=False)[0].data
            want = oracle_vanilla_block(x, p, LN_EPS)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_branch_drop_frequency(self):
        # over 1e4 seeded training forwards at rate 0.01, the attention
        # branch drops within +-0.005 of the rate; every output must equal
        # one of the four (attention kept/dropped x mlp kept/dropped) candidates
        rng = np.random.default_rng(1)
        rate = 0.01
        p = make_vanilla_block_params(2, 1, 2, rng)
        x = Tensor(rng.standard_normal((2, 2)))
        candidates = {}
        for attn_keep in (0, 1):
            for mlp_keep in (0, 1):
                draws = [0.5 if attn_keep else 0.0, 0.5 if mlp_keep else 0.0]
                out = block([x], p, training=True, rng=FakeRng(draws), drop_path_rate=rate)[0]
                candidates[(attn_keep, mlp_keep)] = out.data
        n = 10_000
        mc = np.random.default_rng(42)
        attn_drops = 0
        for _ in range(n):
            out = block([x], p, training=True, rng=mc, drop_path_rate=rate)[0].data
            matches = [key for key, cand in candidates.items() if np.array_equal(out, cand)]
            assert len(matches) == 1
            if matches[0][0] == 0:
                attn_drops += 1
        assert abs(attn_drops / n - rate) < 0.005

    def test_eval_forwards_bitwise_identical(self):
        rng = np.random.default_rng(2)
        p = make_vanilla_block_params(4, 2, 2, rng)
        x = Tensor(rng.standard_normal((3, 4)))
        a = block([x], p, training=False, drop_path_rate=0.5)[0].data
        b = block([x], p, training=False, drop_path_rate=0.5)[0].data
        assert np.array_equal(a, b)

    def test_pre_msa_norm_changes_output(self):
        rng = np.random.default_rng(3)
        p = make_vanilla_block_params(4, 2, 2, rng)
        x = Tensor(rng.standard_normal((3, 4)))
        plain = block([x], p, training=False)[0].data
        normed = block([x], p, training=False, pre_msa_norm=True)[0].data
        assert not np.allclose(plain, normed)


class TestCrossFusionBlock:
    def test_zero_weights_give_identity_per_stream(self):
        rng = np.random.default_rng(4)
        p = _zeroed(make_cross_block_params(4, 2, 2, rng))
        xi = Tensor(rng.standard_normal((3, 4)))
        xl = Tensor(rng.standard_normal((3, 4)))
        oi, ol = block([xi, xl], p, training=False, swapped=True)
        assert np.allclose(oi.data, xi.data, atol=1e-15)
        assert np.allclose(ol.data, xl.data, atol=1e-15)

    def test_tied_streams_reduce_to_vanilla_block(self):
        rng = np.random.default_rng(5)
        vp = make_vanilla_block_params(4, 2, 2, rng)
        cp = (vp[0], vp[0])
        x = Tensor(rng.standard_normal((3, 4)))
        want = block([x], vp, training=False)[0].data
        oi, ol = block([x, x], cp, training=False, swapped=True)
        assert np.array_equal(oi.data, want)
        assert np.array_equal(ol.data, want)

    def test_matches_equation_literal_oracle(self):
        for seed in range(10):
            rng = np.random.default_rng(30 + seed)
            p = make_cross_block_params(4, 1, 2, rng)
            xi = rng.standard_normal((3, 4))
            xl = rng.standard_normal((3, 4))
            oi, ol = block([Tensor(xi), Tensor(xl)], p, training=False, swapped=True)
            wi, wl = oracle_cross_fusion_block(xi, xl, p, LN_EPS)
            assert np.max(np.abs(oi.data - wi)) < 1e-10
            assert np.max(np.abs(ol.data - wl)) < 1e-10

    def test_unswapped_runs_per_stream_self_attention(self):
        rng = np.random.default_rng(6)
        p = make_cross_block_params(4, 2, 2, rng)
        xi = Tensor(rng.standard_normal((3, 4)))
        xl = Tensor(rng.standard_normal((3, 4)))
        oi, ol = block([xi, xl], p, training=False, swapped=False)
        # image stream must equal a vanilla block built from its own pieces
        assert np.array_equal(oi.data, block([xi], (p[0],), training=False)[0].data)
        assert np.array_equal(ol.data, block([xl], (p[1],), training=False)[0].data)

    def test_input_count_must_match_weight_sets(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((3, 4)))
        with pytest.raises(ValueError):
            block([x], make_cross_block_params(4, 2, 2, rng), training=False)
        with pytest.raises(ValueError):
            block([x, x], make_vanilla_block_params(4, 2, 2, rng), training=False)

    def test_stream_shape_mismatch(self):
        rng = np.random.default_rng(7)
        p = make_cross_block_params(4, 1, 2, rng)
        from ferfuse.tensor import ShapeError

        with pytest.raises(ShapeError):
            block([Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4)))], p, training=False, swapped=True)


class TestStackForward:
    def _tied_stack(self, rng, depth, dim=4, heads=2):
        """A cross-fusion stack whose streams share every tensor, plus the
        matching single-stream blocks."""
        vps = [make_vanilla_block_params(dim, heads, 2, rng) for _ in range(depth)]
        return vps, [(vp[0], vp[0]) for vp in vps]

    def test_full_swap_equals_manual_composition(self):
        rng = np.random.default_rng(8)
        blocks = [make_cross_block_params(4, 2, 2, rng) for _ in range(2)]
        xi = Tensor(rng.standard_normal((3, 4)))
        xl = Tensor(rng.standard_normal((3, 4)))
        oi, ol = stack_forward([xi, xl], blocks, training=False, swap_depth=2)
        mi, ml = xi, xl
        for b in blocks:
            mi, ml = block([mi, ml], b, training=False, swapped=True)
        assert np.max(np.abs(oi.data - mi.data)) < 1e-12
        assert np.max(np.abs(ol.data - ml.data)) < 1e-12

    def test_zero_swap_equals_independent_vanilla_stacks(self):
        rng = np.random.default_rng(9)
        blocks = [make_cross_block_params(4, 2, 2, rng) for _ in range(3)]
        xi = Tensor(rng.standard_normal((3, 4)))
        xl = Tensor(rng.standard_normal((3, 4)))
        oi, ol = stack_forward([xi, xl], blocks, training=False, swap_depth=0)
        img_blocks = [(b[0],) for b in blocks]
        lm_blocks = [(b[1],) for b in blocks]
        assert np.array_equal(oi.data, stack_forward([xi], img_blocks, training=False)[0].data)
        assert np.array_equal(ol.data, stack_forward([xl], lm_blocks, training=False)[0].data)

    def test_partial_swap_composition(self):
        rng = np.random.default_rng(10)
        blocks = [make_cross_block_params(4, 2, 2, rng) for _ in range(3)]
        xi = Tensor(rng.standard_normal((3, 4)))
        xl = Tensor(rng.standard_normal((3, 4)))
        oi, ol = stack_forward([xi, xl], blocks, training=False, swap_depth=1)
        mi, ml = block([xi, xl], blocks[0], training=False, swapped=True)
        for b in blocks[1:]:
            mi, ml = block([mi, ml], b, training=False, swapped=False)
        assert np.array_equal(oi.data, mi.data)
        assert np.array_equal(ol.data, ml.data)

    def test_tied_stream_reduction_arbitrary_depth(self):
        rng = np.random.default_rng(11)
        vps, cps = self._tied_stack(rng, depth=3)
        x = Tensor(rng.standard_normal((4, 4)))
        oi, ol = stack_forward([x, x], cps, training=False, swap_depth=3)
        want = stack_forward([x], vps, training=False)[0].data
        assert np.max(np.abs(oi.data - want)) < 1e-12
        assert np.max(np.abs(ol.data - want)) < 1e-12

    def test_gradients_through_depth_two_stack(self):
        rng = np.random.default_rng(13)
        blocks = [make_cross_block_params(4, 2, 2, rng) for _ in range(2)]
        xi = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        xl = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        c = np.concatenate((rng.standard_normal((2, 4)), rng.standard_normal((2, 4))))  # img rows, then lm rows
        params = {"xi": xi, "xl": xl}
        for k, b in enumerate(blocks):
            params[f"b{k}.img.w_q"] = b[0].msa.q.w
            params[f"b{k}.lm.w_v"] = b[1].msa.v.w
            params[f"b{k}.img.mlp_w1"] = b[0].mlp[0].w
            params[f"b{k}.lm.norm2_gamma"] = b[1].norm2_gamma

        def f():
            return concat(stack_forward([xi, xl], blocks, training=False, swap_depth=1), axis=-2)

        assert finite_diff_check(f, params, cotangent=c).passed

    def test_encoder_block_full_gradient_check(self):
        # every parameter of one vanilla block against finite differences
        rng = np.random.default_rng(14)
        p = make_vanilla_block_params(4, 2, 2, rng)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        c = rng.standard_normal((3, 4))
        named = {"x": x}
        for tag in ("w_q", "w_k", "w_v", "w_o", "b_q", "b_k", "b_v", "b_o"):
            named[f"msa.{tag}"] = msa_tensor(p[0].msa, tag)
        s = p[0]
        for tag in ("norm2_gamma", "norm2_beta", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"):
            named[f"stream.{tag}"] = stream_tensor(s, tag)

        report = finite_diff_check(lambda: block([x], p, training=False)[0], named, cotangent=c)
        assert report.passed
        assert report.max_rel_err < 1e-4
