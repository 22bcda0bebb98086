"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavy fusion-task criterion trains 25 desk-scale models and
dominates the runtime (about 1.5 minutes on 2 cores, in a process pool);
everything else is seconds.
"""

import csv
import inspect
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from ferfuse import tensor
from ferfuse.attention import mhsa
from ferfuse.binio import BadMagicError, FormatVersionError, TruncatedFileError
from ferfuse.checkpoint import load_checkpoint, save_checkpoint
from ferfuse.cli import main as cli_main
from ferfuse.data import gen_clusters, gen_xor, read_features, split_dataset, write_features
from ferfuse.encoder import block, stack_forward
from ferfuse.metrics import ConfusionMatrix, mean_class_accuracy, prediction_percentage_table, round_percent
from ferfuse.model import ModelConfig, build_params, count_params, forward
from ferfuse.relevance import CapturedAttention, relevance_rollout
from ferfuse.tensor import (
    LN_EPS,
    Tensor,
    add,
    concat,
    cross_entropy,
    finite_diff_check,
    gelu,
    layer_norm,
    matmul,
    mean_pool_patches,
    scale,
    softmax_rows,
)
from ferfuse.training import TrainConfig, evaluate, label_smoothing_ce, train_loop
from helpers import (
    make_cross_block_params,
    make_cross_params,
    make_msa_params,
    make_vanilla_block_params,
    msa_tensor,
    oracle_cross_fusion_block,
    oracle_mhsa,
    oracle_query_swap_mhsa,
    oracle_vanilla_block,
)

GRAD_TOL = 1e-4
GRAD_H = 1e-5


def _report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def desk_model_config(**kw):
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


def _gradient_suite():
    """Acceptance 1's cases, ``(name, f, params, kw)`` with ``kw`` for
    ``finite_diff_check``: one for every op in ``tensor``, then attention,
    both blocks and the desk model."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    b = Tensor(rng.standard_normal(5), requires_grad=True)
    c34 = rng.standard_normal((3, 4))
    c35 = rng.standard_normal((3, 5))
    rng3 = np.random.default_rng(1)  # a stream of its own keeps the draws below as they were
    x3 = Tensor(rng3.standard_normal((2, 3, 4)), requires_grad=True)
    c235 = rng3.standard_normal((2, 3, 5))
    q = np.exp(c34) / np.exp(c34).sum(axis=-1, keepdims=True)  # a target distribution per row

    cases = [
        ("matmul", lambda: matmul(x, w), {"x": x, "w": w}, {"cotangent": c35}),
        ("matmul with bias", lambda: matmul(x, w, b), {"x": x, "w": w, "b": b}, {"cotangent": c35}),
        ("softmax_rows", lambda: softmax_rows(x), {"x": x}, {"cotangent": c34}),
        ("cross_entropy", lambda: cross_entropy(x, q), {"x": x}, {}),
        ("gelu", lambda: gelu(x), {"x": x}, {"cotangent": c34}),
        ("add", lambda: add(x, x), {"x": x}, {"cotangent": c34}),
        ("matmul+bias", lambda: matmul(x3, w, b), {"x3": x3, "w": w, "b": b}, {"cotangent": c235}),
        ("add*factor", lambda: add(x, x, 1.25), {"x": x}, {"cotangent": c34}),
        ("scale", lambda: scale(x, -1.5), {"x": x}, {"cotangent": c34}),
        ("mean_pool", lambda: mean_pool_patches(x), {"x": x}, {"cotangent": c34[0]}),
        ("concat", lambda: concat((x, x), axis=-2), {"x": x}, {"cotangent": np.concatenate((c34, -c34))}),
    ]
    gamma = Tensor(1.0 + 0.1 * rng.standard_normal(4), requires_grad=True)
    beta = Tensor(0.1 * rng.standard_normal(4), requires_grad=True)
    named = {"x": x, "gamma": gamma, "beta": beta}
    cases.append(("layer_norm", lambda: layer_norm(x, gamma, beta), named, {"cotangent": c34}))

    # attention and encoder blocks, all parameters
    p_msa = make_msa_params(4, 2, rng)
    xa = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    named = {"x": xa}
    for tag in ("w_q", "w_k", "w_v", "w_o", "b_q", "b_k", "b_v", "b_o"):
        named[tag] = msa_tensor(p_msa, tag)
    cases.append(("mhsa", lambda: mhsa([xa], [p_msa])[0], named, {"cotangent": c34}))

    p_cross = make_cross_params(4, 2, rng)
    xi = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    xl = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    c_il = np.concatenate((rng.standard_normal((2, 4)), rng.standard_normal((2, 4))))  # both streams' patches
    named = {"xi": xi, "xl": xl}
    for stream, pp in zip(("img", "lm"), p_cross):
        for tag in ("w_q", "w_k", "w_v", "w_o", "b_q", "b_k", "b_v", "b_o"):
            named[f"{stream}.{tag}"] = msa_tensor(pp, tag)

    def f_cross():  # both streams' outputs as one tensor, img rows first
        return concat(mhsa([xi, xl], p_cross, swapped=True), axis=-2)

    cases.append(("mhsa swapped", f_cross, named, {"cotangent": c_il}))

    vb = make_vanilla_block_params(4, 2, 2, rng)
    named = {"x": xa}
    for tag in ("w_q", "w_v", "w_o"):
        named[tag] = msa_tensor(vb[0].msa, tag)
    named["mlp_w1"] = vb[0].mlp[0].w
    named["norm2_gamma"] = vb[0].norm2_gamma
    cases.append(("vanilla_block", lambda: block([xa], vb, False)[0], named, {"cotangent": c34}))

    cb = make_cross_block_params(4, 2, 2, rng)
    named = {"xi": xi, "xl": xl, "img.w_q": cb[0].msa.q.w, "lm.w_k": cb[1].msa.k.w}
    named["img.mlp_w2"] = cb[0].mlp[1].w
    named["lm.norm2_beta"] = cb[1].norm2_beta

    def f_block():
        return concat(block([xi, xl], cb, False, swapped=True), axis=-2)

    cases.append(("cross_fusion_block", f_block, named, {"cotangent": c_il}))

    # the full depth-2 cross-fusion pyramid model, sampled entries per tensor
    cfg = desk_model_config()
    params = build_params(cfg)
    data_rng = np.random.default_rng(1)
    bx_img = Tensor(data_rng.standard_normal((2, 8, 32)))
    bx_lm = Tensor(data_rng.standard_normal((2, 8, 32)))
    labels = np.array([1, 5])

    def f_model():
        logits = forward(bx_img, bx_lm, params, cfg, training=False)
        return label_smoothing_ce(logits, labels, 0.1)

    cases.append(("model", f_model, params.named, {"samples_per_param": 3, "rng": np.random.default_rng(2)}))
    return cases


class TestCriterion01GradientSuite:
    def test_every_op_and_model_pass_finite_differences(self):
        start = time.monotonic()
        worst = 0.0
        for name, f, params, kw in _gradient_suite():
            report = finite_diff_check(f, params, h=GRAD_H, tol=GRAD_TOL, **kw)
            assert report.passed, f"{name}: worst {report.max_rel_err:.3e}\n{report.summary()}"
            worst = max(worst, report.max_rel_err)

        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
        _report(1, f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")

    def test_every_public_op_records_in_the_suite(self, monkeypatch):
        recorded = set()
        record = tensor._record
        monkeypatch.setattr(tensor, "_record", lambda name, *args: recorded.add(name) or record(name, *args))
        for _, f, _, _ in _gradient_suite():
            f()
        public = {
            name for name, obj in vars(tensor).items()
            if inspect.isfunction(obj) and obj.__module__ == tensor.__name__ and not name.startswith("_")
        }
        # These run or check the backward walk.
        not_ops = {"leaf_grads", "backward", "zero_grads", "finite_diff_check"}
        assert recorded == public - not_ops


class TestCriterion02EquationLiteralOracles:
    def test_hundred_seeded_instances_per_op(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            heads = 2 if seed % 2 else 1
            bias = bool(seed % 3)

            p = make_msa_params(4, heads, rng, bias=bias)
            x = rng.standard_normal((3, 4))
            assert np.max(np.abs(mhsa([Tensor(x)], [p])[0].data - oracle_mhsa(x, p))) < 1e-10

            pc = make_cross_params(4, heads, rng, bias=bias)
            xi = rng.standard_normal((3, 4))
            xl = rng.standard_normal((3, 4))
            oi, ol = mhsa([Tensor(xi), Tensor(xl)], pc, swapped=True)
            wi, wl = oracle_query_swap_mhsa(xi, xl, pc)
            assert np.max(np.abs(oi.data - wi)) < 1e-10
            assert np.max(np.abs(ol.data - wl)) < 1e-10

            vb = make_vanilla_block_params(4, heads, 2, rng)
            xv = rng.standard_normal((3, 4))
            got = block([Tensor(xv)], vb, training=False)[0].data
            assert np.max(np.abs(got - oracle_vanilla_block(xv, vb, LN_EPS))) < 1e-10

            cb = make_cross_block_params(4, heads, 2, rng)
            bi, bl = block([Tensor(xi), Tensor(xl)], cb, training=False, swapped=True)
            qi, ql = oracle_cross_fusion_block(xi, xl, cb, LN_EPS)
            assert np.max(np.abs(bi.data - qi)) < 1e-10
            assert np.max(np.abs(bl.data - ql)) < 1e-10
        _report(2, "(mhsa, swapped mhsa, vanilla_block, cross_fusion_block x 100 seeds)")


class TestCriterion03TiedStreamReduction:
    def test_arbitrary_depth_stack_reduces_to_self_attention(self):
        for seed, depth in ((0, 1), (1, 3), (2, 5)):
            rng = np.random.default_rng(seed)
            vanilla_blocks = [make_vanilla_block_params(4, 2, 2, rng) for _ in range(depth)]
            cross_blocks = [(vb[0], vb[0]) for vb in vanilla_blocks]
            x = Tensor(rng.standard_normal((5, 4)))
            out_img, out_lm = stack_forward([x, x], cross_blocks, training=False, swap_depth=depth)
            want = stack_forward([x], vanilla_blocks, training=False)[0].data
            assert np.max(np.abs(out_img.data - want)) < 1e-12
            assert np.max(np.abs(out_lm.data - want)) < 1e-12
        _report(3, "(depths 1, 3, 5 at 1e-12)")


class TestCriterion04ClassAccuracyArithmetic:
    def test_seven_class_row_means(self):
        poster_row = [92.35, 96.96, 91.21, 90.27, 67.57, 75.00, 88.89]
        baseline_row = [90.44, 96.71, 90.38, 87.23, 62.16, 76.25, 88.89]
        poster_mean = mean_class_accuracy(poster_row)
        baseline_mean = mean_class_accuracy(baseline_row)
        assert poster_mean == pytest.approx(86.04, abs=0.01)
        assert baseline_mean == pytest.approx(84.58, abs=0.01)
        _report(4, f"(means {poster_mean:.4f}, {baseline_mean:.4f})")


class TestCriterion05PercentageRows:
    def test_rows_sum_to_hundred_and_rounded_row_reproduces(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            counts = rng.integers(1, 60, size=(7, 7))
            table = prediction_percentage_table(ConfusionMatrix(counts=counts))
            assert np.max(np.abs(table.sum(axis=1) - 100.0)) < 1e-9
        counts = np.zeros((7, 7), dtype=int)
        counts[0] = [615, 17, 31, 11, 0, 5, 1]  # 680 first-class samples
        for i in range(1, 7):
            counts[i, i] = 1
        table = prediction_percentage_table(ConfusionMatrix(counts=counts))
        rounded = round_percent(table[0])
        assert np.array_equal(rounded, [90.44, 2.50, 4.56, 1.62, 0.00, 0.74, 0.15])
        assert rounded.sum() == pytest.approx(100.01, abs=1e-9)
        assert abs(table[0].sum() - 100.0) < 1e-9
        _report(5, "(exact row sums; rounded row sums to 100.01)")


def _xor_fusion_accuracy(job):
    """Test accuracy of one (seed, variant) desk training on the XOR task.

    Runs in a worker process: it builds its own data, so nothing but the
    job and its accuracy crosses the process boundary."""
    s, variant = job
    full = gen_xor(patches=8, dim=32, per_class=1500, sigma=0.3, seed=1000 + s)
    train_ds, test_ds = split_dataset(full, 2000 / 3000, seed=s)
    assert len(train_ds) == 2000 and len(test_ds) == 1000
    cfg = desk_model_config(variant=variant, num_classes=2, seed=10 * s)
    tcfg = TrainConfig(batch_size=100, learning_rate=1e-3, steps=250, seed=10 * s + 1)
    result = train_loop(cfg, tcfg, train_ds)
    return evaluate(result.params, cfg, test_ds).accuracy


class TestCriterion06XorFusionProperty:
    VARIANTS = ("landmark_only", "image_only", "baseline", "baseline_crossfusion", "poster")

    def test_fusion_needed_to_beat_bayes_cap(self, monkeypatch):
        start = time.monotonic()
        # Each training is seeded on its own, so they run in a pool: one
        # spawned worker per core, each with one BLAS thread, so that the
        # workers do not compete for cores (forked workers inherit the
        # parent's BLAS thread pool). The costliest variants go first, so
        # that no long training starts last.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        jobs = [(s, v) for v in reversed(self.VARIANTS) for s in range(5)]
        workers = min(len(jobs), len(os.sched_getaffinity(0)))
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(_xor_fusion_accuracy, jobs))
        accuracies = {v: [] for v in self.VARIANTS}
        for (_, variant), accuracy in zip(jobs, results):
            accuracies[variant].append(accuracy)
        means = {v: float(np.mean(a)) for v, a in accuracies.items()}
        for v in ("landmark_only", "image_only"):
            assert abs(means[v] - 0.5) <= 0.05, f"{v} mean {means[v]:.3f} not at the Bayes cap"
        for v in ("baseline", "baseline_crossfusion", "poster"):
            assert means[v] >= 0.90, f"{v} mean {means[v]:.3f} below 0.90"
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"fusion criterion took {elapsed:.0f}s"
        detail = ", ".join(f"{v}={means[v]:.3f}" for v in self.VARIANTS)
        _report(6, f"({detail}; {elapsed:.0f}s)")


class TestCriterion07AblationGrids:
    def _rows(self, path):
        with open(path) as f:
            return list(csv.DictReader(f))

    def test_all_three_grids_complete(self, tmp_path):
        data = tmp_path / "clusters.pfer"
        write_features(gen_clusters(patches=6, dim=16, num_classes=3, per_class=40, sigma=0.1, seed=0), data)
        flags = [
            "--patches", "6", "--base-dim", "16", "--pyramid-dims", "16,8", "--depth", "2",
            "--heads-divisor", "16", "--num-classes", "3", "--batch-size", "32",
            "--learning-rate", "2e-3", "--steps", "5", "--seed", "0",
        ]
        expected = {
            "table4": ["landmark_only", "image_only", "baseline", "baseline_pyramid", "baseline_crossfusion", "poster"],
            "swapdepth": ["no_swap", "swap_first_1", "swap_first_2", "swap_first_4", "swap_all"],
            "pyramid": ["levels_16", "levels_16x8", "levels_16x8x4", "levels_16x8x4x2"],
        }
        for grid, labels in expected.items():
            out = tmp_path / grid
            grid_flags = list(flags)
            if grid == "swapdepth":
                # run at depth 8 so the five rows cover swap depths 0/1/2/4/8
                grid_flags[grid_flags.index("--depth") + 1] = "8"
            code = cli_main(["ablate", "--data", str(data), "--grid", grid, "--seeds", "1", "--out", str(out)] + grid_flags)
            assert code == 0
            rows = self._rows(out / "results.csv")
            assert [r["variant"] for r in rows] == labels, grid
            for r in rows:
                assert np.isfinite(float(r["acc"])) and 0.0 <= float(r["acc"]) <= 100.0
                assert np.isfinite(float(r["mean_acc"])) and 0.0 <= float(r["mean_acc"]) <= 100.0
                assert int(r["params"]) > 0 and int(r["flops"]) > 0
            assert not (out / "errors.csv").exists()
        _report(7, "(table4: 6 rows, swapdepth: 5 rows, pyramid: 4 rows)")


class TestCriterion08ParameterAccounting:
    def test_depth_ratio_and_enumeration(self):
        blocks8 = count_params(ModelConfig(variant="poster", depth=8))["blocks"]
        blocks4 = count_params(ModelConfig(variant="poster", depth=4))["blocks"]
        assert blocks8 == 2 * blocks4
        for variant in ("poster", "baseline", "baseline_pyramid", "image_only"):
            cfg = desk_model_config(variant=variant)
            assert count_params(cfg)["total"] == build_params(cfg).scalar_count()
        d = 32
        cfg = desk_model_config(pyramid_dims=(d,), depth=1)
        closed = 2 * (4 * d * d + 4 * d + 2 * 2 * d * d + 3 * d + 2 * 2 * d)
        assert count_params(cfg)["blocks"] == closed
        assert sum(t.size for n, t in build_params(cfg).named.items() if ".block" in n) == closed
        _report(8, f"(depth-8 blocks {blocks8:,} = 2 x depth-4 {blocks4:,})")


class TestCriterion09Determinism:
    def test_two_runs_bitwise_identical(self, tmp_path):
        data = tmp_path / "clusters.pfer"
        write_features(gen_clusters(patches=6, dim=16, num_classes=3, per_class=30, sigma=0.2, seed=3), data)
        flags = [
            "--patches", "6", "--base-dim", "16", "--pyramid-dims", "16,8", "--depth", "1",
            "--heads-divisor", "16", "--num-classes", "3", "--batch-size", "32",
            "--learning-rate", "2e-3", "--steps", "25", "--seed", "7", "--variant", "poster",
        ]
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"run_{tag}"
            assert cli_main(["train", "--data", str(data), "--out", str(out)] + flags) == 0
            eval_dir = tmp_path / f"eval_{tag}"
            assert cli_main([
                "eval", "--checkpoint", str(out / "checkpoint_final.pckpt"),
                "--data", str(data), "--out", str(eval_dir),
            ]) == 0
            outputs.append((out, eval_dir))
        (run_a, eval_a), (run_b, eval_b) = outputs
        assert (run_a / "checkpoint_final.pckpt").read_bytes() == (run_b / "checkpoint_final.pckpt").read_bytes()
        assert (run_a / "effective_config.json").read_bytes() == (run_b / "effective_config.json").read_bytes()
        for name in ("metrics.csv", "confusion.csv", "prediction_percent.csv"):
            assert (eval_a / name).read_bytes() == (eval_b / name).read_bytes()

        # the training log's wall-clock seconds column is inherently
        # nondeterministic; every other column must match bitwise
        def deterministic_columns(path):
            with open(path) as f:
                return [row[:3] for row in csv.reader(f)]

        assert deterministic_columns(run_a / "train_log.csv") == deterministic_columns(run_b / "train_log.csv")
        _report(9, "(checkpoints, reports, configs bitwise; logs modulo wall-clock column)")


class TestCriterion10RelevanceSanity:
    def test_rollout_identities_and_visualize(self, tmp_path):
        # zero gradients keep the rollout at identity
        caps = [
            CapturedAttention(0, b, "img", np.full((2, 3, 3), 1 / 3), np.zeros((2, 3, 3)))
            for b in range(3)
        ]
        rel = relevance_rollout(caps)
        assert np.array_equal(rel.matrix, np.eye(3))

        # hand-computed depth-2, 3-patch rollout
        p = 3
        a1 = np.array([[[0.5, 0.25, 0.25], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]]])
        g1 = np.array([[[1.0, -1.0, 2.0], [0.5, 1.5, -0.5], [0.0, 2.0, 1.0]]])
        a2 = np.array([[[0.7, 0.2, 0.1], [0.25, 0.5, 0.25], [0.1, 0.4, 0.5]]])
        g2 = np.array([[[0.0, 1.0, -1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]]])
        r = np.eye(p)
        for a, g in ((a1, g1), (a2, g2)):
            a_bar = np.maximum(g[0] * a[0], 0.0)
            r = r + a_bar @ r
            r = r / r.sum(axis=1, keepdims=True)
        want = np.array([(r[:, j].sum() - r[j, j]) / (p - 1) for j in range(p)])
        got = relevance_rollout(
            [CapturedAttention(0, 0, "img", a1, g1), CapturedAttention(0, 1, "img", a2, g2)]
        )
        assert np.max(np.abs(got.matrix - r)) < 1e-12
        assert np.max(np.abs(got.per_patch - want)) < 1e-12

        # visualize writes exactly one map per stream
        data = tmp_path / "clusters.pfer"
        write_features(gen_clusters(patches=6, dim=16, num_classes=3, per_class=10, sigma=0.2, seed=5), data)
        out = tmp_path / "run"
        flags = [
            "--patches", "6", "--base-dim", "16", "--pyramid-dims", "16,8", "--depth", "1",
            "--heads-divisor", "16", "--num-classes", "3", "--batch-size", "16",
            "--learning-rate", "1e-3", "--steps", "4", "--seed", "0", "--variant", "poster",
        ]
        assert cli_main(["train", "--data", str(data), "--out", str(out)] + flags) == 0
        vis = tmp_path / "vis"
        assert cli_main([
            "visualize", "--checkpoint", str(out / "checkpoint_final.pckpt"),
            "--data", str(data), "--sample", "0", "--class", "1", "--out", str(vis),
        ]) == 0
        pgms = sorted(f.name for f in vis.glob("*.pgm"))
        assert pgms == ["relevance_img.pgm", "relevance_lm.pgm"]
        _report(10, "(identity rollout, hand-computed rollout at 1e-12, 2 stream maps)")


class TestCriterion11FormatRoundTrips:
    def test_lossless_round_trips_and_typed_header_errors(self, tmp_path):
        # PFER: storage is f32, so the first write quantises; after that the
        # round trip is bitwise stable and equals the f32 cast of the source
        ds = gen_clusters(patches=4, dim=8, num_classes=3, per_class=6, sigma=0.4, seed=1)
        f1 = tmp_path / "a.pfer"
        write_features(ds, f1)
        once = read_features(f1)
        assert np.array_equal(once.x_img, ds.x_img.astype(np.float32).astype(np.float64))
        assert np.array_equal(once.labels, ds.labels)
        f2 = tmp_path / "b.pfer"
        write_features(once, f2)
        twice = read_features(f2)
        assert np.array_equal(twice.x_img, once.x_img)
        assert np.array_equal(twice.x_lm, once.x_lm)

        cfg = desk_model_config(pyramid_dims=(16, 8), base_dim=16, patches=4)
        params = build_params(cfg)
        ckpt = tmp_path / "model.pckpt"
        save_checkpoint(ckpt, params.named)
        loaded = load_checkpoint(ckpt)
        assert list(loaded.keys()) == list(params.named.keys())
        assert all(np.array_equal(loaded[k], t.data) for k, t in params.named.items())

        for path, reader in ((f1, read_features), (ckpt, load_checkpoint)):
            raw = bytearray(path.read_bytes())
            bad_magic = tmp_path / f"magic_{path.name}"
            corrupted = bytearray(raw)
            corrupted[0] ^= 0xAA
            bad_magic.write_bytes(bytes(corrupted))
            with pytest.raises(BadMagicError):
                reader(bad_magic)

            bad_version = tmp_path / f"version_{path.name}"
            corrupted = bytearray(raw)
            magic_len = 4 if reader is read_features else 5
            corrupted[magic_len : magic_len + 4] = (41).to_bytes(4, "little")
            bad_version.write_bytes(bytes(corrupted))
            with pytest.raises(FormatVersionError):
                reader(bad_version)

            truncated = tmp_path / f"trunc_{path.name}"
            truncated.write_bytes(bytes(raw[: len(raw) - 7]))
            with pytest.raises(TruncatedFileError):
                reader(truncated)
        _report(11, "(PFER + PCKPT round trips, typed magic/version/truncation errors)")
