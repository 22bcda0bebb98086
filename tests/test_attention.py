import numpy as np
import pytest

from ferfuse.attention import mhsa
from ferfuse.tensor import ShapeError, Tensor, concat, finite_diff_check
from helpers import make_cross_params, make_msa_params, msa_tensor, oracle_mhsa, oracle_query_swap_mhsa


def _named(prefix, p):
    out = {}
    for tag in ("w_q", "w_k", "w_v", "w_o", "b_q", "b_k", "b_v", "b_o"):
        t = msa_tensor(p, tag)
        if t is not None:
            out[f"{prefix}.{tag}"] = t
    return out


class TestMhsa:
    def test_single_patch_ignores_queries(self):
        # one row: the softmax weight is exactly 1, so q/k weights are irrelevant
        rng = np.random.default_rng(0)
        p = make_msa_params(4, 2, rng)
        x = Tensor(rng.standard_normal((1, 4)))
        out = mhsa([x], [p])[0]
        v = x.data @ p.v.w.data + p.v.b.data
        want = v @ p.o.w.data + p.o.b.data
        assert np.allclose(out.data, want, atol=1e-12)

    def test_zero_queries_give_uniform_attention(self):
        rng = np.random.default_rng(1)
        p = make_msa_params(4, 2, rng)
        p.q.w.data[:] = 0.0
        p.q.b.data[:] = 0.0
        x = Tensor(rng.standard_normal((5, 4)))
        out = mhsa([x], [p])[0]
        v = x.data @ p.v.w.data + p.v.b.data
        want = np.tile(v.mean(axis=0) @ p.o.w.data + p.o.b.data, (5, 1))
        assert np.allclose(out.data, want, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        p = make_msa_params(4, 2, rng)
        x = rng.standard_normal((3, 4))
        got = mhsa([Tensor(x)], [p])[0].data
        assert np.max(np.abs(got - oracle_mhsa(x, p))) < 1e-10

    def test_oracle_agreement_over_seeds(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            heads = 1 if seed % 2 else 2
            p = make_msa_params(6, heads, rng, bias=bool(seed % 3))
            x = rng.standard_normal((4, 6))
            got = mhsa([Tensor(x)], [p])[0].data
            assert np.max(np.abs(got - oracle_mhsa(x, p))) < 1e-10

    def test_shape_preserved_including_batch(self):
        rng = np.random.default_rng(3)
        p = make_msa_params(4, 2, rng)
        out = mhsa([Tensor(rng.standard_normal((7, 5, 4)))], [p])[0]
        assert out.shape == (7, 5, 4)

    def test_batched_rows_match_unbatched(self):
        rng = np.random.default_rng(4)
        p = make_msa_params(4, 2, rng)
        xs = rng.standard_normal((3, 5, 4))
        batched = mhsa([Tensor(xs)], [p])[0].data
        for i in range(3):
            single = mhsa([Tensor(xs[i])], [p])[0].data
            assert np.allclose(batched[i], single, atol=1e-12)

    def test_heads_must_divide_dim(self):
        rng = np.random.default_rng(5)
        p = make_msa_params(4, 2, rng)
        p.heads = 3
        with pytest.raises(ShapeError):
            mhsa([Tensor(rng.standard_normal((2, 4)))], [p])

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        p = make_msa_params(4, 2, rng)
        sink = []
        mhsa([Tensor(rng.standard_normal((5, 4)))], [p], sinks=[sink])
        (weights,) = sink
        assert weights.shape == (2, 5, 5)
        assert np.max(np.abs(weights.data.sum(axis=-1) - 1.0)) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        p = make_msa_params(6, 2, rng)
        x = rng.standard_normal((5, 6))
        perm = rng.permutation(5)
        direct = mhsa([Tensor(x[perm])], [p])[0].data
        permuted = mhsa([Tensor(x)], [p])[0].data[perm]
        assert np.max(np.abs(direct - permuted)) < 1e-12

    def test_gradients(self):
        rng = np.random.default_rng(8)
        p = make_msa_params(4, 2, rng)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        c = rng.standard_normal((3, 4))

        params = {"x": x, **_named("p", p)}
        assert finite_diff_check(lambda: mhsa([x], [p])[0], params, cotangent=c).passed


class TestCrossFusionMhsa:
    def test_tied_streams_reduce_to_self_attention(self):
        rng = np.random.default_rng(10)
        p = make_msa_params(4, 2, rng)
        tied = [p, p]
        x = Tensor(rng.standard_normal((5, 4)))
        want = mhsa([x], [p])[0].data
        out_img, out_lm = mhsa([x, x], tied, swapped=True)
        assert np.array_equal(out_img.data, want)
        assert np.array_equal(out_lm.data, want)

    def test_single_patch_ignores_swapped_queries(self):
        rng = np.random.default_rng(11)
        p = make_cross_params(4, 1, rng)
        xi = Tensor(rng.standard_normal((1, 4)))
        xl = Tensor(rng.standard_normal((1, 4)))
        out_img, out_lm = mhsa([xi, xl], p, swapped=True)
        want_img = (xi.data @ p[0].v.w.data + p[0].v.b.data) @ p[0].o.w.data + p[0].o.b.data
        want_lm = (xl.data @ p[1].v.w.data + p[1].v.b.data) @ p[1].o.w.data + p[1].o.b.data
        assert np.allclose(out_img.data, want_img, atol=1e-12)
        assert np.allclose(out_lm.data, want_lm, atol=1e-12)

    def test_matches_equation_literal_oracle(self):
        rng = np.random.default_rng(12)
        p = make_cross_params(4, 1, rng)
        xi = rng.standard_normal((2, 4))
        xl = rng.standard_normal((2, 4))
        out_img, out_lm = mhsa([Tensor(xi), Tensor(xl)], p, swapped=True)
        want_img, want_lm = oracle_query_swap_mhsa(xi, xl, p)
        assert np.max(np.abs(out_img.data - want_img)) < 1e-10
        assert np.max(np.abs(out_lm.data - want_lm)) < 1e-10

    def test_oracle_agreement_over_seeds(self):
        for seed in range(25):
            rng = np.random.default_rng(100 + seed)
            heads = 2 if seed % 2 else 1
            p = make_cross_params(4, heads, rng)
            xi = rng.standard_normal((3, 4))
            xl = rng.standard_normal((3, 4))
            out_img, out_lm = mhsa([Tensor(xi), Tensor(xl)], p, swapped=True)
            want_img, want_lm = oracle_query_swap_mhsa(xi, xl, p)
            assert np.max(np.abs(out_img.data - want_img)) < 1e-10
            assert np.max(np.abs(out_lm.data - want_lm)) < 1e-10

    def test_stream_shape_mismatch(self):
        rng = np.random.default_rng(13)
        p = make_cross_params(4, 1, rng)
        with pytest.raises(ShapeError):
            mhsa([Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4)))], p, swapped=True)

    def test_mismatched_stream_dims_rejected_at_construction(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ShapeError):
            ps = [make_msa_params(4, 1, rng), make_msa_params(6, 1, rng)]
            mhsa([Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 6)))], ps, swapped=True)

    def test_swapped_streams_must_share_heads(self):
        rng = np.random.default_rng(18)
        ps = [make_msa_params(4, 1, rng), make_msa_params(4, 2, rng)]
        xs = [Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4)))]
        mhsa(xs, ps)  # unswapped, each stream may keep its own head count
        with pytest.raises(ShapeError):
            mhsa(xs, ps, swapped=True)

    def test_swap_needs_two_streams(self):
        rng = np.random.default_rng(19)
        p = make_msa_params(4, 2, rng)
        with pytest.raises(ValueError):
            mhsa([Tensor(rng.standard_normal((3, 4)))], [p], swapped=True)

    def test_one_weight_set_per_stream(self):
        rng = np.random.default_rng(20)
        p = make_msa_params(4, 2, rng)
        x = Tensor(rng.standard_normal((3, 4)))
        with pytest.raises(ValueError):
            mhsa([x, x], [p])

    def test_shapes_preserved(self):
        rng = np.random.default_rng(15)
        p = make_cross_params(4, 2, rng)
        out_img, out_lm = mhsa(
            [Tensor(rng.standard_normal((6, 4))), Tensor(rng.standard_normal((6, 4)))], p, swapped=True
        )
        assert out_img.shape == (6, 4)
        assert out_lm.shape == (6, 4)

    def test_permutation_equivariance_joint(self):
        rng = np.random.default_rng(16)
        p = make_cross_params(4, 2, rng)
        xi = rng.standard_normal((5, 4))
        xl = rng.standard_normal((5, 4))
        perm = rng.permutation(5)
        oi, ol = mhsa([Tensor(xi), Tensor(xl)], p, swapped=True)
        pi, pl = mhsa([Tensor(xi[perm]), Tensor(xl[perm])], p, swapped=True)
        assert np.max(np.abs(pi.data - oi.data[perm])) < 1e-12
        assert np.max(np.abs(pl.data - ol.data[perm])) < 1e-12

    def test_gradients(self):
        rng = np.random.default_rng(17)
        p = make_cross_params(4, 2, rng)
        xi = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        xl = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        c = np.concatenate((rng.standard_normal((2, 4)), rng.standard_normal((2, 4))))  # img rows, then lm rows
        params = {"xi": xi, "xl": xl, **_named("img", p[0]), **_named("lm", p[1])}
        assert finite_diff_check(lambda: concat(mhsa([xi, xl], p, swapped=True), axis=-2), params, cotangent=c).passed
