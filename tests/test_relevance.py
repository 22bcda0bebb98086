import numpy as np
import pytest

from ferfuse.encoder import block
from ferfuse.model import VARIANTS, ModelConfig, build_params, forward
from ferfuse.relevance import (
    CapturedAttention,
    GridLayout,
    capture_attention,
    near_square_layout,
    relevance_rollout,
    render_map,
    stream_relevance,
    write_pgm,
    write_scores_csv,
)
from ferfuse.tensor import Tensor, finite_diff_check, matmul, observe


def tiny_config(**kw):
    base = dict(
        patches=2,
        base_dim=4,
        pyramid_dims=(4,),
        depth=1,
        heads_divisor=64,
        num_classes=3,
        variant="baseline_crossfusion",
        drop_path=0.0,
        seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


def _read_pgm(path):
    """Minimal independent P5 reader used as the round-trip oracle."""
    raw = path.read_bytes()
    assert raw.startswith(b"P5")
    parts = raw.split(b"\n", 3)
    width, height = (int(v) for v in parts[1].split())
    maxval = int(parts[2])
    assert maxval == 255
    pixels = np.frombuffer(parts[3][: width * height], dtype=np.uint8).reshape(height, width)
    return pixels


class TestCaptureAttention:
    def test_single_patch_attention_is_one(self):
        cfg = tiny_config(patches=1)
        params = build_params(cfg)
        rng = np.random.default_rng(0)
        captured = capture_attention(
            params, cfg, rng.standard_normal((1, 4)), rng.standard_normal((1, 4)), target_class=0
        )
        assert captured
        for cap in captured:
            assert np.allclose(cap.weights, 1.0, atol=1e-15)

    def test_captured_weights_match_forward_trace_bitwise(self):
        cfg = tiny_config()
        params = build_params(cfg)
        rng = np.random.default_rng(1)
        xi = rng.standard_normal((2, 4))
        xl = rng.standard_normal((2, 4))
        captured = capture_attention(params, cfg, xi, xl, target_class=1)
        seen = []
        with observe(lambda name, out: seen.append(out.data) if name == "softmax_rows" else None):
            forward(Tensor(xi), Tensor(xl), params, cfg, training=False)
        assert len(captured) == len(seen) == len(cfg.layout.streams)
        for cap, weights in zip(captured, seen):
            assert np.array_equal(cap.weights, weights)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_records_named_by_layout_stream(self, variant):
        cfg = tiny_config(variant=variant, depth=2)
        rng = np.random.default_rng(3)
        captured = capture_attention(
            build_params(cfg), cfg, rng.standard_normal((2, 4)), rng.standard_normal((2, 4)), target_class=0
        )
        assert [(c.block, c.stream) for c in captured] == [(j, s) for j in range(2) for s in cfg.layout.streams]
        for stream in cfg.layout.streams:
            assert stream_relevance(captured, stream).stream == stream

    def test_labels_name_the_level_block_and_stream_across_the_pyramid(self):
        # Capture labels records by their position in the forward; rerun each
        # block on its own and check the label holds that block's weights.
        cfg = tiny_config(variant="poster", pyramid_dims=(8, 4, 2), heads_divisor=2, depth=2, swap_depth=1)
        params = build_params(cfg)
        rng = np.random.default_rng(4)
        xi, xl = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
        captured = capture_attention(params, cfg, xi, xl, target_class=0)
        streams = cfg.layout.streams
        assert [(c.level, c.block, c.stream) for c in captured] == [
            (i, j, s) for i in range(3) for j in range(2) for s in streams
        ]
        dims = cfg.level_dims()
        assert sorted({cfg.heads_for(d) for d in dims}) == [1, 2, 4]
        for cap in captured:
            assert cap.weights.shape == (cfg.heads_for(dims[cap.level]), 2, 2)
        by_label = {(c.level, c.block, c.stream): c.weights for c in captured}
        for i, lvl in enumerate(params.levels):
            xs = [matmul(Tensor(x), proj.w, proj.b) for x, proj in zip((xi, xl), lvl.projs)]
            for j, ps in enumerate(lvl.blocks):
                seen = []
                with observe(lambda name, out: seen.append(out.data) if name == "softmax_rows" else None):
                    xs = block(xs, ps, training=False, swapped=j < cfg.swap_depth)
                assert len(seen) == len(streams)
                for stream, weights in zip(streams, seen):
                    assert np.array_equal(by_label[i, j, stream], weights)

    def test_target_class_range(self):
        cfg = tiny_config()
        params = build_params(cfg)
        with pytest.raises(ValueError):
            capture_attention(params, cfg, np.zeros((2, 4)), np.zeros((2, 4)), 3)

    def test_attention_gradients_match_finite_differences(self):
        # rebuild the image-stream path downstream of the attention weights
        # with the weights as a leaf tensor, then finite-difference it
        from ferfuse.tensor import (
            add,
            layer_norm,
            matmul,
            mean_pool_patches,
            concat,
            gelu,
            leaf_grads,
            merge_heads,
            split_heads,
        )

        cfg = tiny_config()
        params = build_params(cfg)
        rng = np.random.default_rng(2)
        xi_raw = rng.standard_normal((2, 4))
        xl_raw = rng.standard_normal((2, 4))
        target = 2
        captured = capture_attention(params, cfg, xi_raw, xl_raw, target_class=target)
        img_caps = [c for c in captured if c.stream == "img"]
        lm_caps = [c for c in captured if c.stream == "lm"]
        assert len(img_caps) == 1 and len(lm_caps) == 1

        lvl = params.levels[0]
        block = lvl.blocks[0]
        xi = matmul(Tensor(xi_raw), lvl.projs[0].w, lvl.projs[0].b)
        xl = matmul(Tensor(xl_raw), lvl.projs[1].w, lvl.projs[1].b)
        v_img = matmul(xi, block[0].msa.v.w, block[0].msa.v.b)
        vh = split_heads(v_img, 1)  # one head

        # the landmark stream does not depend on the image attention weights,
        # so its pooled output is a constant here
        logits_full = forward(Tensor(xi_raw), Tensor(xl_raw), params, cfg, training=False)
        from ferfuse.encoder import stack_forward

        _, lm_out = stack_forward([xi, xl], lvl.blocks, training=False, swap_depth=cfg.depth)
        lm_pooled_const = Tensor(lm_out.data.mean(axis=0))

        a_leaf = Tensor(img_caps[0].weights, requires_grad=True)
        s = block[0]
        onehot = np.zeros(cfg.num_classes)
        onehot[target] = 1.0

        def f():
            mixed = merge_heads(matmul(a_leaf, vh))
            att = matmul(mixed, s.msa.o.w, s.msa.o.b)
            x1 = add(att, xi)
            m = matmul(gelu(matmul(layer_norm(x1, s.norm2_gamma, s.norm2_beta), s.mlp[0].w, s.mlp[0].b)), s.mlp[1].w, s.mlp[1].b)
            out_img = add(m, x1)
            feat = concat((mean_pool_patches(out_img), lm_pooled_const), axis=-1)
            h = params.head
            return matmul(gelu(matmul(feat, h[0].w, h[0].b)), h[1].w, h[1].b)

        # reconstruction reproduces the full forward's target logit
        assert f().data[target] == pytest.approx(float(logits_full.data[target]), abs=1e-12)
        report = finite_diff_check(f, {"A": a_leaf}, h=1e-5, tol=1e-4, cotangent=onehot)
        assert report.passed
        # and the captured gradient equals the reconstruction's analytic one
        grads = {id(t): g for t, g in leaf_grads(f(), cotangent=onehot)}
        assert np.allclose(grads[id(a_leaf)], img_caps[0].grads, atol=1e-10)


class TestRelevanceRollout:
    def test_zero_gradients_give_identity_and_flat_scores(self):
        caps = [
            CapturedAttention(0, b, "img", np.full((2, 3, 3), 1 / 3), np.zeros((2, 3, 3)))
            for b in range(2)
        ]
        rel = relevance_rollout(caps)
        assert np.array_equal(rel.matrix, np.eye(3))
        assert np.allclose(rel.per_patch, 0.0, atol=1e-15)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            relevance_rollout([])

    def test_uniform_update_gives_uniform_scores(self):
        p = 3
        caps = [CapturedAttention(0, 0, "img", np.full((1, p, p), 1 / p), np.ones((1, p, p)))]
        rel = relevance_rollout(caps)
        assert np.allclose(rel.per_patch, rel.per_patch[0], atol=1e-15)
        assert np.allclose(rel.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_hand_computed_two_block_three_patch_case(self):
        p = 3
        a1 = np.array(
            [
                [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]],
                [[0.4, 0.4, 0.2], [0.3, 0.3, 0.4], [0.2, 0.6, 0.2]],
            ]
        )
        g1 = np.array(
            [
                [[1.0, -2.0, 0.5], [0.0, 1.0, 1.0], [2.0, -1.0, 0.0]],
                [[-1.0, 1.0, 2.0], [1.0, 0.0, -1.0], [0.5, 0.5, 0.5]],
            ]
        )
        a2 = np.array([[[0.5, 0.25, 0.25], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]]])
        g2 = np.array([[[0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [-3.0, 0.0, 1.0]]])

        # hand rollout, spelled out entry by entry
        r = np.eye(p)
        for a, g in ((a1, g1), (a2, g2)):
            heads = a.shape[0]
            a_bar = np.zeros((p, p))
            for i in range(p):
                for j in range(p):
                    total = 0.0
                    for h in range(heads):
                        total += max(g[h, i, j] * a[h, i, j], 0.0)
                    a_bar[i, j] = total / heads
            updated = np.zeros((p, p))
            for i in range(p):
                for j in range(p):
                    updated[i, j] = r[i, j] + sum(a_bar[i, k] * r[k, j] for k in range(p))
            for i in range(p):
                updated[i] /= updated[i].sum()
            r = updated
        want_scores = np.array(
            [(r[:, j].sum() - r[j, j]) / (p - 1) for j in range(p)]
        )

        caps = [
            CapturedAttention(0, 0, "img", a1, g1),
            CapturedAttention(0, 1, "img", a2, g2),
        ]
        rel = relevance_rollout(caps)
        assert np.max(np.abs(rel.matrix - r)) < 1e-12
        assert np.max(np.abs(rel.per_patch - want_scores)) < 1e-12

    def test_rows_stay_normalised_and_nonnegative(self):
        rng = np.random.default_rng(3)
        caps = []
        for b in range(3):
            raw = rng.random((2, 4, 4))
            a = raw / raw.sum(axis=-1, keepdims=True)
            caps.append(CapturedAttention(0, b, "img", a, rng.standard_normal((2, 4, 4))))
        rel = relevance_rollout(caps)
        assert np.all(rel.matrix >= 0)
        assert np.allclose(rel.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_incomplete_trace_rejected(self):
        caps = [
            CapturedAttention(0, 0, "img", np.full((1, 2, 2), 0.5), np.ones((1, 2, 2))),
            CapturedAttention(0, 2, "img", np.full((1, 2, 2), 0.5), np.ones((1, 2, 2))),
        ]
        with pytest.raises(ValueError):
            relevance_rollout(caps)

    def test_single_patch_score(self):
        caps = [CapturedAttention(0, 0, "img", np.ones((1, 1, 1)), np.ones((1, 1, 1)))]
        rel = relevance_rollout(caps)
        assert rel.per_patch.tolist() == [1.0]

    def test_stream_relevance_averages_levels(self):
        rng = np.random.default_rng(4)

        def block(level):
            raw = rng.random((1, 3, 3))
            return CapturedAttention(level, 0, "img", raw / raw.sum(-1, keepdims=True), rng.standard_normal((1, 3, 3)))

        caps = [block(0), block(1)]
        rel = stream_relevance(caps, "img")
        solo = [relevance_rollout([c]) for c in caps]
        want = np.mean([m.per_patch for m in solo], axis=0)
        assert np.allclose(rel.per_patch, want, atol=1e-15)

    def test_stream_relevance_missing_stream(self):
        with pytest.raises(ValueError):
            stream_relevance([], "img")

    def test_both_streams_from_one_capture(self):
        cfg = tiny_config(patches=3, depth=2)
        params = build_params(cfg)
        rng = np.random.default_rng(5)
        captured = capture_attention(
            params, cfg, rng.standard_normal((3, 4)), rng.standard_normal((3, 4)), target_class=0
        )
        rel_img = stream_relevance(captured, "img")
        rel_lm = stream_relevance(captured, "lm")
        assert rel_img.per_patch.shape == (3,)
        assert rel_lm.per_patch.shape == (3,)


class TestRendering:
    def test_constant_scores_give_mid_gray(self):
        pixels = render_map(np.full(6, 0.42), GridLayout(2, 3))
        assert pixels.shape == (2, 3)
        assert np.all(pixels == 128)

    def test_single_hot_patch_is_white(self):
        scores = np.zeros(4)
        scores[2] = 1.0
        pixels = render_map(scores, GridLayout(2, 2))
        assert pixels[1, 0] == 255
        assert pixels[0, 0] == 0 and pixels[0, 1] == 0 and pixels[1, 1] == 0

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_map(np.zeros(5), GridLayout(2, 2))

    def test_near_square_layout(self):
        layout = near_square_layout(8)
        assert (layout.rows, layout.cols) == (2, 4)
        assert near_square_layout(68).rows * near_square_layout(68).cols == 68

    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        pixels = rng.integers(0, 256, size=(3, 5)).astype(np.uint8)
        path = tmp_path / "map.pgm"
        write_pgm(path, pixels)
        again = _read_pgm(path)
        assert np.array_equal(again, pixels)

    def test_scores_csv(self, tmp_path):
        import csv

        path = tmp_path / "scores.csv"
        write_scores_csv(path, [0.25, 0.75])
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["patch", "score"]
        assert float(rows[1][1]) == 0.25
        assert float(rows[2][1]) == 0.75
