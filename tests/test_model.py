import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ferfuse import tensor
from ferfuse.binio import BadFieldError, BadMagicError, FormatVersionError, TruncatedFileError
from ferfuse.checkpoint import load_checkpoint, load_into, load_model, save_checkpoint, save_model
from ferfuse.encoder import stack_forward
from ferfuse.model import (
    VARIANTS,
    ModelConfig,
    build_params,
    count_params,
    estimate_flops,
    forward,
)
from ferfuse.tensor import Graph, ShapeError, Tensor, concat, finite_diff_check, gelu, leaf_grads, linear, mean_pool_patches
from ferfuse.data import gen_clusters
from ferfuse.training import TrainConfig, adam_step, init_adam_state, label_smoothing_ce, train_loop
from helpers import fed_fifo, msa_tensor, stream_tensor, traced_peak


def desk_config(**kw):
    base = dict(
        patches=8,
        base_dim=32,
        pyramid_dims=(32, 16, 8),
        depth=2,
        heads_divisor=16,
        num_classes=7,
        variant="poster",
        seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestModelConfig:
    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            desk_config(variant="resnet")

    def test_rejects_non_decreasing_dims(self):
        with pytest.raises(ValueError):
            desk_config(pyramid_dims=(16, 16))
        with pytest.raises(ValueError):
            desk_config(pyramid_dims=(16, 32))

    def test_rejects_empty_pyramid(self):
        with pytest.raises(ValueError, match="pyramid_dims"):
            desk_config(pyramid_dims=())

    def test_rejects_bad_swap_depth(self):
        with pytest.raises(ValueError):
            desk_config(swap_depth=3)
        with pytest.raises(ValueError):
            desk_config(swap_depth=-1)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            ModelConfig(base_dim=129, pyramid_dims=(129,), heads_divisor=64, variant="poster")

    @pytest.mark.parametrize(
        "field,value",
        [("heads_divisor", 0), ("heads_divisor", -4), ("head_hidden", 0), ("head_hidden", -1)],
    )
    def test_rejects_bad_heads_divisor_or_head_hidden(self, field, value):
        with pytest.raises(ValueError, match=field):
            desk_config(**{field: value})

    def test_heads_rule(self):
        cfg = ModelConfig(variant="poster")
        assert [cfg.heads_for(d) for d in (512, 256, 128, 32)] == [8, 4, 2, 1]

    def test_level_dims_by_variant(self):
        assert desk_config(variant="poster").level_dims() == (32, 16, 8)
        assert desk_config(variant="baseline_pyramid").level_dims() == (32, 16, 8)
        assert desk_config(variant="baseline").level_dims() == (32,)
        assert desk_config(variant="image_only").level_dims() == (32,)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            ModelConfig.from_dict({"variant": "poster", "bogus": 1})

    def test_dict_round_trip(self):
        cfg = desk_config(swap_depth=1)
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg


class TestProjectLevels:
    def test_identity_square_projection(self):
        cfg = desk_config(pyramid_dims=(32,))
        params = build_params(cfg)
        proj = params.levels[0].projs[0]
        proj.w.data = np.eye(32)
        proj.b.data = np.zeros(32)
        x = Tensor(np.random.default_rng(0).standard_normal((8, 32)))
        out = linear(x, proj.w, proj.b)
        assert np.allclose(out.data, x.data, atol=1e-15)

    def test_level_widths(self):
        cfg = desk_config()
        params = build_params(cfg)
        x = Tensor(np.random.default_rng(1).standard_normal((8, 32)))
        outs = [linear(x, lvl.projs[0].w, lvl.projs[0].b) for lvl in params.levels]
        assert [o.shape for o in outs] == [(8, 32), (8, 16), (8, 8)]

    def test_projection_gradients(self):
        cfg = desk_config(pyramid_dims=(32, 16))
        params = build_params(cfg)
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((4, 32)))
        proj = params.levels[1].projs[0]
        c = rng.standard_normal((4, 16))

        def f():
            return linear(x, proj.w, proj.b)

        assert finite_diff_check(f, {"w": proj.w, "b": proj.b}, samples_per_param=20, cotangent=c).passed


class TestVariantMatrix:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_construct_forward_backward(self, variant):
        cfg = desk_config(variant=variant)
        params = build_params(cfg)
        rng = np.random.default_rng(3)
        xi = Tensor(rng.standard_normal((8, 32)))
        xl = Tensor(rng.standard_normal((8, 32)))
        logits = forward(xi, xl, params, cfg, training=False)
        assert logits.shape == (7,)
        assert np.all(np.isfinite(logits.data))
        batch = forward(
            Tensor(rng.standard_normal((3, 8, 32))),
            Tensor(rng.standard_normal((3, 8, 32))),
            params,
            cfg,
            training=False,
        )
        assert batch.shape == (3, 7)
        loss = label_smoothing_ce(batch, np.array([0, 3, 6]), 0.1)
        assert all(np.all(np.isfinite(g)) for _, g in leaf_grads(loss))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_num_classes_sets_logit_length(self, variant):
        cfg = desk_config(variant=variant, num_classes=8, pyramid_dims=(16, 8), base_dim=16, patches=4)
        params = build_params(cfg)
        rng = np.random.default_rng(4)
        logits = forward(
            Tensor(rng.standard_normal((4, 16))), Tensor(rng.standard_normal((4, 16))), params, cfg, False
        )
        assert logits.shape == (8,)

    def test_training_mode_uses_drop_path(self):
        cfg = desk_config(variant="poster", drop_path=0.5, pyramid_dims=(16,), base_dim=16, patches=4)
        params = build_params(cfg)
        rng = np.random.default_rng(5)
        xi = Tensor(rng.standard_normal((4, 16)))
        xl = Tensor(rng.standard_normal((4, 16)))
        eval_logits = forward(xi, xl, params, cfg, training=False).data
        train_logits = forward(xi, xl, params, cfg, training=True, rng=np.random.default_rng(0)).data
        assert not np.allclose(eval_logits, train_logits)


class TestForwardReadsConfig:
    """The block settings come from the config given to ``forward``, not from
    the config the parameters were built with."""

    def _inputs(self, seed):
        rng = np.random.default_rng(seed)
        return Tensor(rng.standard_normal((4, 8, 32))), Tensor(rng.standard_normal((4, 8, 32)))

    def test_drop_path_rate(self):
        cfg = desk_config(drop_path=0.5)
        params = build_params(cfg)
        xi, xl = self._inputs(17)
        eval_logits = forward(xi, xl, params, cfg, training=False).data
        undropped = forward(xi, xl, params, replace(cfg, drop_path=0.0), True, rng=np.random.default_rng(0))
        dropped = forward(xi, xl, params, cfg, True, rng=np.random.default_rng(0))
        assert np.array_equal(undropped.data, eval_logits)
        assert not np.array_equal(dropped.data, eval_logits)

    def test_swap_depth(self):
        cfg = desk_config(swap_depth=0)
        params = build_params(cfg)
        xi, xl = self._inputs(18)
        logits = [forward(xi, xl, params, replace(cfg, swap_depth=k), False).data for k in (0, 1, None)]
        assert not np.array_equal(logits[0], logits[1])
        assert not np.array_equal(logits[1], logits[2])
        assert np.array_equal(logits[2], forward(xi, xl, params, replace(cfg, swap_depth=2), False).data)

    def test_fine_tune_under_new_swap_depth_round_trips(self, tmp_path):
        ds = gen_clusters(patches=8, dim=32, num_classes=7, per_class=4, sigma=0.2, seed=3)
        cfg = desk_config(swap_depth=0)
        tcfg = TrainConfig(batch_size=8, steps=2, seed=0)
        tuned_cfg = replace(cfg, swap_depth=1)
        tuned = train_loop(tuned_cfg, tcfg, ds, params=train_loop(cfg, tcfg, ds).params).params
        save_model(tmp_path / "tuned.pckpt", tuned, tuned_cfg)
        loaded, loaded_cfg = load_model(tmp_path / "tuned.pckpt")
        assert loaded_cfg == tuned_cfg
        xi, xl = Tensor(ds.x_img), Tensor(ds.x_lm)
        want = forward(xi, xl, tuned, tuned_cfg, training=False).data
        assert np.array_equal(forward(xi, xl, loaded, loaded_cfg, training=False).data, want)

    @pytest.mark.parametrize(
        "built,run,message",
        [
            (dict(pyramid_dims=(32, 16)), {}, "params have 2 levels, the config 3"),
            ({}, dict(variant="baseline_pyramid"), "level 0: params have 2 streams, the config 1"),
            ({}, dict(depth=1), "level 0: params have 2 blocks, the config 1"),
            ({}, dict(heads_divisor=4), "level 0: params have 2 heads, the config 8"),
        ],
        ids=["levels", "streams", "blocks", "heads"],
    )
    def test_params_that_do_not_fit_the_config_are_rejected(self, built, run, message):
        # The weights are the same names and shapes under either head count,
        # so only the check tells the two architectures apart.
        params = build_params(desk_config(**built))
        xi, xl = self._inputs(19)
        with pytest.raises(ValueError, match=f"^{message}$"):
            forward(xi, xl, params, desk_config(**run), training=False)


class TestPosterForward:
    def test_matches_hand_composed_pipeline(self):
        cfg = desk_config()
        params = build_params(cfg)
        rng = np.random.default_rng(6)
        xi = Tensor(rng.standard_normal((8, 32)))
        xl = Tensor(rng.standard_normal((8, 32)))
        got = forward(xi, xl, params, cfg, training=False).data

        pooled = []
        for lvl in params.levels:
            zi = linear(xi, lvl.projs[0].w, lvl.projs[0].b)
            zl = linear(xl, lvl.projs[1].w, lvl.projs[1].b)
            yi, yl = stack_forward([zi, zl], lvl.blocks, training=False, swap_depth=cfg.depth)
            pooled.append(mean_pool_patches(yi))
            pooled.append(mean_pool_patches(yl))
        feat = concat(pooled, axis=-1)
        h = params.head
        want = linear(gelu(linear(feat, h[0].w, h[0].b)), h[1].w, h[1].b).data
        assert np.max(np.abs(got - want)) < 1e-12

    def test_desk_training_step_records_233_ops(self):
        # Per stream and block, attention is 3 linear maps, 3 split_heads, the
        # key swap, 2 matmuls, the scaled softmax, merge_heads and the output
        # map; a linear map is one matmul, its bias added inside, and each
        # residual step is one add, its drop-path factor applied inside.
        cfg = desk_config()
        assert cfg.drop_path > 0
        rng = np.random.default_rng(16)
        x = [Tensor(rng.standard_normal((4, 8, 32))) for _ in range(2)]
        logits = forward(*x, build_params(cfg), cfg, training=True, rng=rng)
        loss = label_smoothing_ce(logits, np.arange(4), 0.1)
        ops = Graph.trace(loss).ops
        assert len(ops) == 233
        names = [op.name for op in ops]
        assert names.count("split_heads") == 36 and names.count("merge_heads") == 12
        assert names.count("cross_entropy") == 1 and names[-1] == "cross_entropy"  # the loss is one op
        assert not {"scale", "sum_all", "log_softmax_rows", "reshape"} & set(names)  # drop-path adds no scale

    def test_desk_eval_forward_records_232_ops(self):
        # The same ops as a training forward: drop-path changes the factor of
        # each residual add, never the count.
        cfg = desk_config()
        rng = np.random.default_rng(16)
        x = [Tensor(rng.standard_normal((4, 8, 32))) for _ in range(2)]
        ops = Graph.trace(forward(*x, build_params(cfg), cfg, training=False)).ops
        assert len(ops) == 232 and "scale" not in [op.name for op in ops]

    def test_training_forward_holds_at_most_four_fifths_of_its_op_outputs(self, monkeypatch):
        # A node holds an input's producer node, not the output, so residual sums,
        # output projections and merged heads are freed during the forward:
        # 12.2 of 17.4 MB here, against 16.4 MB when every node held its inputs.
        cfg = desk_config()
        params = build_params(cfg)
        rng = np.random.default_rng(16)
        x = [Tensor(rng.standard_normal((64, 8, 32))) for _ in range(2)]
        made = []
        record = tensor._record

        def counting(name, inputs, out, vjp):
            made.append(out.nbytes)
            return record(name, inputs, out, vjp)

        monkeypatch.setattr(tensor, "_record", counting)
        gc.collect()
        tracemalloc.start()
        try:
            logits = forward(*x, params, cfg, training=True, rng=rng)
            loss = label_smoothing_ce(logits, np.arange(64) % cfg.num_classes, 0.1)
            del logits
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(made) == 233 and loss.creator is not None
        assert held <= 0.8 * sum(made)

    def test_tied_streams_match_baseline_pyramid_on_duplicated_input(self):
        # with identical stream weights and x_img == x_lm, the query swap is
        # inert and patch-duplication in the fused baseline is redundant, so
        # both architectures compute the same level features; the heads are
        # tied by summing the poster head's img/lm row blocks.
        dims = (32, 16, 8)
        cfg_p = desk_config(variant="poster", head_hidden=16, num_classes=5)
        cfg_b = desk_config(variant="baseline_pyramid", head_hidden=16, num_classes=5)
        params_p = build_params(cfg_p)
        params_b = build_params(cfg_b)

        for lvl in params_p.levels:
            lvl.projs[1].w.data = lvl.projs[0].w.data.copy()
            lvl.projs[1].b.data = lvl.projs[0].b.data.copy()
            for img_s, lm_s in lvl.blocks:
                for tag in ("w_q", "w_k", "w_v", "w_o", "b_q", "b_k", "b_v", "b_o"):
                    msa_tensor(lm_s.msa, tag).data = msa_tensor(img_s.msa, tag).data.copy()
                for tag in (
                    "norm1_gamma",
                    "norm1_beta",
                    "norm2_gamma",
                    "norm2_beta",
                    "mlp_w1",
                    "mlp_b1",
                    "mlp_w2",
                    "mlp_b2",
                ):
                    stream_tensor(lm_s, tag).data = stream_tensor(img_s, tag).data.copy()

        for lvl_b, lvl_p in zip(params_b.levels, params_p.levels):
            lvl_b.projs[0].w.data = lvl_p.projs[0].w.data.copy()
            lvl_b.projs[0].b.data = lvl_p.projs[0].b.data.copy()
            for block_b, block_p in zip(lvl_b.blocks, lvl_p.blocks):
                s_b = block_b[0]
                s_p = block_p[0]
                for tag in ("w_q", "w_k", "w_v", "w_o", "b_q", "b_k", "b_v", "b_o"):
                    msa_tensor(s_b.msa, tag).data = msa_tensor(s_p.msa, tag).data.copy()
                for tag in (
                    "norm1_gamma",
                    "norm1_beta",
                    "norm2_gamma",
                    "norm2_beta",
                    "mlp_w1",
                    "mlp_b1",
                    "mlp_w2",
                    "mlp_b2",
                ):
                    stream_tensor(s_b, tag).data = stream_tensor(s_p, tag).data.copy()

        # poster head rows: [img_l0, lm_l0, img_l1, lm_l1, ...]
        w1p = params_p.head[0].w.data
        rows = []
        offset = 0
        for d in dims:
            rows.append(w1p[offset : offset + d] + w1p[offset + d : offset + 2 * d])
            offset += 2 * d
        params_b.head[0].w.data = np.concatenate(rows, axis=0)
        params_b.head[0].b.data = params_p.head[0].b.data.copy()
        params_b.head[1].w.data = params_p.head[1].w.data.copy()
        params_b.head[1].b.data = params_p.head[1].b.data.copy()

        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((8, 32)))
        logits_p = forward(x, x, params_p, cfg_p, training=False).data
        logits_b = forward(x, x, params_b, cfg_b, training=False).data
        assert np.max(np.abs(logits_p - logits_b)) < 1e-12


class TestBaselineForward:
    def test_fused_tensor_has_double_patch_rows(self):
        # the baseline encodes 2P patch rows; with depth 0 the pooled feature
        # is exactly the mean of the projected fused rows
        cfg = desk_config(variant="baseline", depth=0)
        params = build_params(cfg)
        rng = np.random.default_rng(8)
        xi = rng.standard_normal((8, 32))
        xl = rng.standard_normal((8, 32))
        got = forward(Tensor(xi), Tensor(xl), params, cfg, training=False).data
        fused = np.concatenate([xi, xl], axis=0)
        assert fused.shape == (16, 32)
        proj = fused @ params.levels[0].projs[0].w.data + params.levels[0].projs[0].b.data
        feat = Tensor(proj.mean(axis=0))
        h = params.head
        want = linear(gelu(linear(feat, h[0].w, h[0].b)), h[1].w, h[1].b).data
        assert np.max(np.abs(got - want)) < 1e-12

    def test_zero_encoder_weights_give_head_of_mean_fused_input(self):
        cfg = desk_config(variant="baseline")
        params = build_params(cfg)
        params.levels[0].projs[0].w.data = np.eye(32)
        params.levels[0].projs[0].b.data = np.zeros(32)
        for name, t in params.named.items():
            if ".block" in name:
                t.data = np.zeros_like(t.data)
        rng = np.random.default_rng(9)
        xi = rng.standard_normal((8, 32))
        xl = rng.standard_normal((8, 32))
        got = forward(Tensor(xi), Tensor(xl), params, cfg, training=False).data
        feat = Tensor(np.concatenate([xi, xl], axis=0).mean(axis=0))
        h = params.head
        want = linear(gelu(linear(feat, h[0].w, h[0].b)), h[1].w, h[1].b).data
        assert np.max(np.abs(got - want)) < 1e-12

    def test_matches_hand_composition(self):
        cfg = desk_config(variant="baseline_pyramid")
        params = build_params(cfg)
        rng = np.random.default_rng(10)
        xi = Tensor(rng.standard_normal((8, 32)))
        xl = Tensor(rng.standard_normal((8, 32)))
        got = forward(xi, xl, params, cfg, training=False).data
        fused = concat((xi, xl), axis=-2)
        pooled = []
        for lvl in params.levels:
            z = linear(fused, lvl.projs[0].w, lvl.projs[0].b)
            y = stack_forward([z], lvl.blocks, training=False)[0]
            pooled.append(mean_pool_patches(y))
        h = params.head
        want = linear(gelu(linear(concat(pooled, axis=-1), h[0].w, h[0].b)), h[1].w, h[1].b).data
        assert np.max(np.abs(got - want)) < 1e-12


class TestSingleStreamForward:
    def test_landmark_only_uses_landmark_stream(self):
        cfg = desk_config(variant="landmark_only")
        params = build_params(cfg)
        rng = np.random.default_rng(11)
        xl = Tensor(rng.standard_normal((8, 32)))
        a = forward(Tensor(rng.standard_normal((8, 32))), xl, params, cfg, False).data
        b = forward(Tensor(rng.standard_normal((8, 32))), xl, params, cfg, False).data
        assert np.array_equal(a, b)  # image stream is ignored

    def test_image_only_uses_image_stream(self):
        cfg = desk_config(variant="image_only")
        params = build_params(cfg)
        rng = np.random.default_rng(12)
        xi = Tensor(rng.standard_normal((8, 32)))
        a = forward(xi, Tensor(rng.standard_normal((8, 32))), params, cfg, False).data
        b = forward(xi, Tensor(rng.standard_normal((8, 32))), params, cfg, False).data
        assert np.array_equal(a, b)

    def test_matches_hand_composition(self):
        cfg = desk_config(variant="image_only")
        params = build_params(cfg)
        rng = np.random.default_rng(13)
        xi = Tensor(rng.standard_normal((8, 32)))
        got = forward(xi, Tensor(np.zeros((8, 32))), params, cfg, False).data
        lvl = params.levels[0]
        z = linear(xi, lvl.projs[0].w, lvl.projs[0].b)
        y = stack_forward([z], lvl.blocks, training=False)[0]
        h = params.head
        want = linear(gelu(linear(mean_pool_patches(y), h[0].w, h[0].b)), h[1].w, h[1].b).data
        assert np.max(np.abs(got - want)) < 1e-12


class TestCountParams:
    def test_cross_fusion_block_closed_form(self):
        d = 32
        cfg = desk_config(pyramid_dims=(d,), depth=1, num_classes=2)
        params = build_params(cfg)
        enumerated = sum(t.size for name, t in params.named.items() if ".block" in name)
        closed = 2 * (4 * d * d + 4 * d + 2 * 2 * d * d + 3 * d + 2 * 2 * d)
        assert enumerated == closed
        assert count_params(cfg)["blocks"] == closed

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_count_equals_enumeration(self, variant):
        cfg = desk_config(variant=variant)
        params = build_params(cfg)
        counts = count_params(cfg)
        assert counts["total"] == params.scalar_count()
        by_prefix = {"projections": 0, "blocks": 0, "head": 0}
        for name, t in params.named.items():
            if name.startswith("head."):
                by_prefix["head"] += t.size
            elif ".block" in name:
                by_prefix["blocks"] += t.size
            else:
                by_prefix["projections"] += t.size
        assert by_prefix == {k: counts[k] for k in by_prefix}

    def test_depth_doubling_exactly_doubles_block_count(self):
        c8 = count_params(ModelConfig(variant="poster", depth=8))
        c4 = count_params(ModelConfig(variant="poster", depth=4))
        assert c8["blocks"] == 2 * c4["blocks"]

    def test_depth_zero_has_no_block_params(self):
        cfg = desk_config(depth=0)
        assert count_params(cfg)["blocks"] == 0
        assert build_params(cfg).scalar_count() == count_params(cfg)["total"]

    def test_share_unswapped_counts(self):
        cfg = desk_config(swap_depth=1, share_unswapped=True)
        params = build_params(cfg)
        assert count_params(cfg)["total"] == params.scalar_count()
        shared_block = params.levels[0].blocks[1]
        assert shared_block[0] is shared_block[1]
        rng = np.random.default_rng(14)
        logits = forward(
            Tensor(rng.standard_normal((8, 32))), Tensor(rng.standard_normal((8, 32))), params, cfg, False
        )
        assert logits.shape == (7,)

    def test_qkv_bias_toggle(self):
        with_bias = count_params(desk_config())["total"]
        without = count_params(desk_config(qkv_bias=False))["total"]
        assert with_bias > without
        cfg = desk_config(qkv_bias=False)
        assert count_params(cfg)["total"] == build_params(cfg).scalar_count()

    def test_name_map_stable_and_unique(self):
        cfg = desk_config()
        a = build_params(cfg)
        b = build_params(cfg)
        assert list(a.named.keys()) == list(b.named.keys())
        assert all(a.named[k].shape == b.named[k].shape for k in a.named)
        assert all(np.array_equal(a.named[k].data, b.named[k].data) for k in a.named)
        c = build_params(desk_config(seed=99))
        assert list(c.named.keys()) == list(a.named.keys())
        assert all(c.named[k].shape == a.named[k].shape for k in a.named)


class TestEstimateFlops:
    def test_single_linear_layer_exact(self):
        cfg = desk_config(variant="image_only", depth=0)
        flops = estimate_flops(cfg)
        assert flops["projections"] == 8 * 32 * 32

    def test_scales_linearly_in_depth(self):
        f2 = estimate_flops(desk_config(depth=2))
        f4 = estimate_flops(desk_config(depth=4))
        for key in ("attention_linear", "attention_scores", "mlp"):
            assert f4[key] == 2 * f2[key]

    def test_quadratic_in_patches(self):
        f1 = estimate_flops(desk_config(patches=8))
        f2 = estimate_flops(desk_config(patches=16))
        assert f2["attention_scores"] == 4 * f1["attention_scores"]
        assert f2["attention_linear"] == 2 * f1["attention_linear"]

    def test_formula_documented(self):
        assert "rows" in estimate_flops(desk_config())["formula"]


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = desk_config(pyramid_dims=(16, 8), base_dim=16, patches=4)
        params = build_params(cfg)
        path = tmp_path / "model.pckpt"
        save_checkpoint(path, params.named)
        loaded = load_checkpoint(path)
        assert list(loaded.keys()) == list(params.named.keys())
        for name, t in params.named.items():
            assert np.array_equal(loaded[name], t.data)

    def test_model_file_round_trip(self, tmp_path):
        cfg = desk_config(pyramid_dims=(16, 8), base_dim=16, patches=4, swap_depth=1)
        params = build_params(cfg)
        path = tmp_path / "model.pckpt"
        save_model(path, params, cfg)
        assert (tmp_path / "model.pckpt.json").exists()
        loaded, loaded_cfg = load_model(path)
        assert loaded_cfg == cfg
        assert list(loaded.named) == list(params.named)
        for name, t in params.named.items():
            assert np.array_equal(loaded.named[name].data, t.data)

    def test_forward_identical_after_reload(self, tmp_path):
        cfg = desk_config(pyramid_dims=(16, 8), base_dim=16, patches=4)
        params = build_params(cfg)
        rng = np.random.default_rng(15)
        xi = Tensor(rng.standard_normal((4, 16)))
        xl = Tensor(rng.standard_normal((4, 16)))
        before = forward(xi, xl, params, cfg, False).data
        path = tmp_path / "model.pckpt"
        save_checkpoint(path, params.named)
        fresh = build_params(desk_config(pyramid_dims=(16, 8), base_dim=16, patches=4, seed=5))
        load_into(fresh, path)
        after = forward(xi, xl, fresh, cfg, False).data
        assert np.array_equal(before, after)

    def test_mismatched_dims_named_error(self, tmp_path):
        cfg_a = desk_config(pyramid_dims=(16, 8), base_dim=16, patches=4)
        cfg_b = desk_config(pyramid_dims=(16, 4), base_dim=16, patches=4)
        path = tmp_path / "model.pckpt"
        save_checkpoint(path, build_params(cfg_a).named)
        target = build_params(cfg_b)
        with pytest.raises(ShapeError) as e:
            load_into(target, path)
        assert "level1" in str(e.value)

    def test_name_mismatch_error(self, tmp_path):
        cfg_a = desk_config(variant="baseline")
        cfg_b = desk_config(variant="poster")
        path = tmp_path / "model.pckpt"
        save_checkpoint(path, build_params(cfg_a).named)
        with pytest.raises(KeyError):
            load_into(build_params(cfg_b), path)

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "model.pckpt"
        save_checkpoint(path, build_params(desk_config(depth=0)).named)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "model.pckpt"
        save_checkpoint(path, build_params(desk_config(depth=0)).named)
        raw = bytearray(path.read_bytes())
        raw[5:9] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatVersionError):
            load_checkpoint(path)

    def test_extents_larger_than_file(self, tmp_path):
        path = tmp_path / "model.pckpt"
        u32 = lambda v: v.to_bytes(4, "little")  # noqa: E731
        path.write_bytes(b"PCKPT" + u32(1) + u32(1) + u32(1) + b"w" + u32(2) + u32(0xFFFFFFF) * 2)
        with pytest.raises(TruncatedFileError):
            load_checkpoint(path)

    def test_pipe_header_promising_terabytes_fails_in_bounded_memory(self, tmp_path):
        # A 2^20 x 2^20 tensor, 8 TiB of float64, of which 1 MB is sent.
        u32 = lambda v: v.to_bytes(4, "little")  # noqa: E731
        payload = b"PCKPT" + u32(1) + u32(1) + u32(1) + b"w" + u32(2) + u32(2**20) * 2 + bytes(1 << 20)
        with traced_peak() as peak, fed_fifo(tmp_path, payload) as fifo:
            with pytest.raises(TruncatedFileError, match=r"data of w \(1048576/8796093022208 bytes\)"):
                load_checkpoint(fifo)
        assert peak[0] < 64 << 20

    def test_zero_extent_beside_unindexable_extents(self, tmp_path):
        # 0 x 2^31 x 2^31 holds no data, but numpy rejects the shape
        path = tmp_path / "model.pckpt"
        u32 = lambda v: v.to_bytes(4, "little")  # noqa: E731
        path.write_bytes(b"PCKPT" + u32(1) + u32(1) + u32(1) + b"w" + u32(3) + u32(0) + u32(2**31) * 2)
        with pytest.raises(BadFieldError, match="tensor 0"):
            load_checkpoint(path)

    def test_name_not_utf8(self, tmp_path):
        path = tmp_path / "model.pckpt"
        save_checkpoint(path, {"a": np.zeros(2), "b": np.ones(3)})
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"b")] = 0xFF  # a lone 0xFF never starts a UTF-8 sequence
        path.write_bytes(bytes(raw))
        with pytest.raises(BadFieldError, match="tensor 1"):
            load_checkpoint(path)

    def test_repeated_name(self, tmp_path):
        # one extra copy of a tensor, appended with the count raised, must
        # not load with the copy's values winning
        cfg = desk_config(variant="baseline", depth=0)
        params = build_params(cfg)
        path = tmp_path / "model.pckpt"
        save_checkpoint(path, params.named)
        dup = tmp_path / "dup.pckpt"
        save_checkpoint(dup, {"level0.proj.w": params.named["level0.proj.w"].data + 1.0})
        raw = bytearray(path.read_bytes())
        count = len(params.named)
        raw[9:13] = (count + 1).to_bytes(4, "little")
        path.write_bytes(bytes(raw) + dup.read_bytes()[13:])
        with pytest.raises(BadFieldError, match=f"tensor {count} "):
            load_checkpoint(path)
        with pytest.raises(BadFieldError):
            load_into(build_params(cfg), path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_named(self, tmp_path, bad):
        path = tmp_path / "model.pckpt"
        save_checkpoint(path, {"a": np.zeros(2), "b": np.ones(3)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-8] + np.array([bad], dtype="<f8").tobytes())
        with pytest.raises(BadFieldError, match=r"tensor 1 \(b\) contains NaN/Inf"):
            load_checkpoint(path)

    def test_load_into_keeps_adam_arena_views(self, tmp_path):
        cfg = desk_config(pyramid_dims=(16, 8), base_dim=16, patches=4)
        source = build_params(cfg)
        path = tmp_path / "model.pckpt"
        save_checkpoint(path, source.named)
        target = build_params(desk_config(pyramid_dims=(16, 8), base_dim=16, patches=4, seed=5))
        state = init_adam_state(target.named)
        load_into(target, path)
        for name, t in target.named.items():
            assert t.data is state.views[name]
            assert np.array_equal(t.data, source.named[name].data)
        adam_step(target.named, state, [(t, np.ones_like(t.data)) for t in target.named.values()], lr=1e-3)
        assert not np.array_equal(target.named["head.w1"].data, source.named["head.w1"].data)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "model.pckpt"
        save_checkpoint(path, build_params(desk_config(depth=0)).named)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(path)
