import gc
import json
import math
import platform
import tracemalloc

import numpy as np
import pytest

from ferfuse import training
from ferfuse.cli import PRESETS, RunConfig
from ferfuse.data import FeatureDataset, gen_clusters
from ferfuse.model import VARIANTS, ModelConfig, build_params, forward
from ferfuse.tensor import Graph, NonFiniteError, Tensor, backward, finite_diff_check, leaf_grads
from ferfuse.training import (
    _ADAM_CHUNK,
    OptimizerState,
    _batch_tensors,
    _step_rng,
    TrainConfig,
    adam_step,
    evaluate,
    init_adam_state,
    label_smoothing_ce,
    predict,
    train_loop,
)


def desk_config(**kw):
    base = dict(
        patches=6,
        base_dim=16,
        pyramid_dims=(16, 8),
        depth=1,
        heads_divisor=16,
        num_classes=4,
        variant="poster",
        seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


def backward_then_update(cfg, tcfg, ds):
    """``train_loop``'s steps with every gradient held at once: the whole
    ``leaf_grads`` walk into a list, then one ``adam_step`` over all of them."""
    params = build_params(cfg)
    state = init_adam_state(params.named, tcfg)
    losses = []
    for step in range(1, tcfg.steps + 1):
        rng = _step_rng(tcfg.seed, step)
        x_img, x_lm, labels = _batch_tensors(ds, rng.choice(len(ds), size=min(tcfg.batch_size, len(ds)), replace=False))
        loss = label_smoothing_ce(forward(x_img, x_lm, params, cfg, training=True, rng=rng), labels, cfg.label_smoothing)
        grads = list(leaf_grads(loss))
        adam_step(state, grads)
        losses.append(loss.item())
        del loss, grads
    return state, losses


def train_with_state(cfg, tcfg, ds, monkeypatch):
    """``train_loop``'s result and the optimizer state it built."""
    states = []

    def capture(named, cfg):
        states.append(init_adam_state(named, cfg))
        return states[-1]

    monkeypatch.setattr(training, "init_adam_state", capture)
    return train_loop(cfg, tcfg, ds), states[0]


def _ce_oracle(logits, labels, eps):
    b, n = logits.shape
    total = 0.0
    for i in range(b):
        z = logits[i] - logits[i].max()
        logp = z - math.log(sum(math.exp(v) for v in z))
        q = [eps / n] * n
        q[labels[i]] += 1.0 - eps
        total += -sum(q[c] * logp[c] for c in range(n))
    return total / b


class TestLabelSmoothingCe:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
    def test_uniform_logits_give_log_n(self, eps):
        logits = Tensor(np.zeros((3, 7)))
        loss = label_smoothing_ce(logits, np.array([0, 3, 6]), eps)
        assert loss.item() == pytest.approx(math.log(7), abs=1e-12)

    def test_zero_smoothing_perfect_margin_drives_loss_to_zero(self):
        losses = []
        for margin in (5.0, 20.0, 80.0):
            logits = np.zeros((2, 3))
            logits[0, 1] = margin
            logits[1, 2] = margin
            losses.append(label_smoothing_ce(Tensor(logits), np.array([1, 2]), 0.0).item())
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-10

    def test_matches_scalar_loop_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            logits = rng.standard_normal((5, 6)) * 3
            labels = rng.integers(0, 6, size=5)
            got = label_smoothing_ce(Tensor(logits), labels, 0.1).item()
            assert abs(got - _ce_oracle(logits, labels, 0.1)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            label_smoothing_ce(Tensor(np.zeros((2, 3))), np.array([0, 3]), 0.1)
        with pytest.raises(ValueError):
            label_smoothing_ce(Tensor(np.zeros((2, 3))), np.array([-1, 0]), 0.1)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            logits = Tensor(rng.standard_normal((4, 5)) * 4)
            labels = rng.integers(0, 5, size=4)
            assert label_smoothing_ce(logits, labels, 0.1).item() >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        labels = np.array([0, 2, 3])

        def f():
            return label_smoothing_ce(logits, labels, 0.1)

        report = finite_diff_check(f, {"logits": logits}, h=1e-5)
        assert report.passed


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        named = {"t": t}
        state = init_adam_state(named, TrainConfig(learning_rate=0.1))
        adam_step(state, [(t, np.zeros(2))])
        assert np.array_equal(t.data, [1.0, 2.0])

    def test_first_step_is_signed_lr(self):
        for g in (3.0, -0.25):
            t = Tensor(np.array([1.0]), requires_grad=True)
            named = {"t": t}
            state = init_adam_state(named, TrainConfig(learning_rate=0.01))
            adam_step(state, [(t, np.array([g]))])
            # bias-corrected first step is -lr * g / (|g| + eps) ~ -lr * sign(g)
            assert t.data[0] == pytest.approx(1.0 - 0.01 * np.sign(g), abs=1e-6)

    def test_ten_steps_strictly_decrease_quadratic(self):
        target = np.array([3.0, -2.0, 0.5])
        t = Tensor(np.zeros(3), requires_grad=True)
        named = {"t": t}
        state = init_adam_state(named, TrainConfig(learning_rate=0.05))
        losses = []
        for _ in range(10):
            losses.append(float(((t.data - target) ** 2).sum()))
            adam_step(state, [(t, 2.0 * (t.data - target))])
        diffs = np.diff(losses)
        assert np.all(diffs < 0)

    @pytest.mark.parametrize("shape", [(3, 4), (5, 7000), ()])  # (5, 7000) spans several slices
    def test_in_place_update_matches_formula_bitwise(self, shape):
        rng = np.random.default_rng(41)
        t = Tensor(rng.standard_normal(shape), requires_grad=True)
        named = {"t": t}
        # Rates away from the defaults, so a step that ignores state.cfg fails.
        lr, b1, b2, eps = 1e-3, 0.8, 0.99, 1e-3
        state = init_adam_state(named, TrainConfig(learning_rate=lr, beta1=b1, beta2=b2, adam_eps=eps))
        data = t.data
        p, m, v = t.data.copy(), np.zeros(shape), np.zeros(shape)
        for step in range(1, 6):
            g = rng.standard_normal(shape)
            adam_step(state, [(t, g)])
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            p = p - lr * (m / (1.0 - b1**step)) / (np.sqrt(v / (1.0 - b2**step)) + eps)
            assert np.array_equal(t.data, p)
            assert t.data is data

    def test_arena_matches_per_tensor_formula_bitwise(self):
        # small tensors, one over a chunk, a 0-d one, and one that gets no grad
        rng = np.random.default_rng(42)
        shapes = {"a": (3, 4), "big": (3, _ADAM_CHUNK // 2 + 5), "s": (), "b": (7,), "none": (2, 2), "c": (5, 6)}
        named = {name: Tensor(rng.standard_normal(shape), requires_grad=True) for name, shape in shapes.items()}
        lr, b1, b2, eps = 2e-3, 0.85, 0.95, 1e-4  # not the defaults
        state = init_adam_state(named, TrainConfig(learning_rate=lr, beta1=b1, beta2=b2, adam_eps=eps))
        assert isinstance(state, OptimizerState)
        held = {name: t.data for name, t in named.items()}
        ref = {name: (t.data.copy(), np.zeros(t.shape), np.zeros(t.shape)) for name, t in named.items()}
        for step in range(1, 6):
            grads = {name: rng.standard_normal(t.shape) for name, t in named.items() if name != "none"}
            adam_step(state, [(named[name], g) for name, g in grads.items()])
            for name, t in named.items():
                g = grads.get(name, np.zeros(t.shape))
                p, m, v = ref[name]
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g * g
                p = p - lr * (m / (1.0 - b1**step)) / (np.sqrt(v / (1.0 - b2**step)) + eps)
                ref[name] = p, m, v
                assert t.data is held[name]
                assert np.array_equal(t.data, p) and np.array_equal(state.m[name], m) and np.array_equal(state.v[name], v)
        assert np.array_equal(named["none"].data, ref["none"][0])

    def test_rebinding_a_parameter_after_init_raises(self):
        # "a" is a span of its own, ahead of "b": it is not updated either.
        a = Tensor(np.ones(_ADAM_CHUNK + 1), requires_grad=True)
        named = {"a": a, "b": Tensor(np.ones(2), requires_grad=True)}
        state = init_adam_state(named, TrainConfig(learning_rate=0.1))
        named["b"].data = np.ones(2)
        with pytest.raises(ValueError, match="'b' was rebound"):
            adam_step(state, [(a, np.ones(a.shape)), (named["b"], np.ones(2))])
        assert state.step == 0 and np.all(a.data == 1.0)
        assert not state.flat[1].any() and not state.flat[2].any()
        named["b"].data = state.views["b"]
        named["b"].data[...] = 2.0  # copying into the view is the supported way
        adam_step(state, [])

    def test_moment_shapes_mirror_params(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        state = init_adam_state({"t": t}, TrainConfig())
        assert state.m["t"].shape == (2, 3)
        assert state.v["t"].shape == (2, 3)

    def test_span_updates_as_soon_as_its_last_grad_arrives(self):
        big = Tensor(np.ones(_ADAM_CHUNK + 3), requires_grad=True)
        a, b = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
        named = {"big": big, "a": a, "b": b}
        state = init_adam_state(named, TrainConfig(learning_rate=0.1))
        seen = []

        def grads():
            yield big, np.ones(big.shape)
            seen.append((big.data[0], state.step))  # big's span is complete
            yield a, np.ones(2)
            seen.append(a.data[0])  # a's span still waits for b
            yield b, np.ones(3)
            seen.append(a.data[0])

        adam_step(state, grads())
        assert seen[0] == (pytest.approx(0.9), 1)
        assert seen[1] == 1.0 and seen[2] == pytest.approx(0.9)

    def test_bad_grad_stops_before_its_span_updates(self):
        # Spans complete before the bad grad arrives keep their update.
        big = Tensor(np.ones(_ADAM_CHUNK + 1), requires_grad=True)
        a, b = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
        named = {"big": big, "a": a, "b": b}
        state = init_adam_state(named, TrainConfig(learning_rate=0.1))
        with pytest.raises(ValueError, match="gradient shape"):
            adam_step(state, [(big, np.ones(big.shape)), (a, np.ones(2)), (b, np.ones(2))])
        assert state.step == 1 and big.data[0] == pytest.approx(0.9)
        assert np.all(a.data == 1.0) and np.all(b.data == 1.0) and not state.m["a"].any()

    @pytest.mark.parametrize("case", ["outside", "twice"])
    def test_grad_outside_the_state_or_given_twice_rejected(self, case):
        t, u = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
        named = {"t": t, "u": u}
        state = init_adam_state(named, TrainConfig(learning_rate=0.1))
        other = Tensor(np.ones(2), requires_grad=True) if case == "outside" else t
        with pytest.raises(ValueError, match="not a parameter of this state" if case == "outside" else "'t' given twice"):
            adam_step(state, [(t, np.ones(2)), (other, np.ones(2))])
        assert state.step == 0 and np.all(t.data == 1.0)

    def test_shape_mismatch_rejected(self):
        t = Tensor(np.ones(2), requires_grad=True)
        named = {"t": t}
        state = init_adam_state(named, TrainConfig(learning_rate=0.1))
        with pytest.raises(ValueError, match="gradient shape"):
            adam_step(state, [(t, np.ones(3))])
        assert state.step == 0 and np.all(t.data == 1.0) and not state.m["t"].any() and not state.v["t"].any()


class TestTrainLoop:
    def test_equal_seeds_give_identical_loss_curves(self):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=30, sigma=0.2, seed=3)
        cfg = desk_config()
        tcfg = TrainConfig(batch_size=32, learning_rate=1e-3, steps=12, seed=9)
        log_a = [row[1] for row in train_loop(cfg, tcfg, ds).log]
        log_b = [row[1] for row in train_loop(cfg, tcfg, ds).log]
        assert log_a == log_b

    def test_different_seeds_differ(self):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=30, sigma=0.2, seed=3)
        cfg = desk_config()
        a = train_loop(cfg, TrainConfig(batch_size=32, learning_rate=1e-3, steps=6, seed=1), ds)
        b = train_loop(cfg, TrainConfig(batch_size=32, learning_rate=1e-3, steps=6, seed=2), ds)
        assert [r[1] for r in a.log] != [r[1] for r in b.log]

    def test_frozen_model_eval_loss_constant(self):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=10, sigma=0.2, seed=4)
        cfg = desk_config()
        params = build_params(cfg)
        x_img = Tensor(ds.x_img[:16])
        x_lm = Tensor(ds.x_lm[:16])

        def eval_loss():
            logits = forward(x_img, x_lm, params, cfg, training=False)
            return label_smoothing_ce(logits, ds.labels[:16], 0.1).item()

        assert eval_loss() == eval_loss()

    @pytest.mark.parametrize("variant", ["poster", "baseline", "image_only"])
    def test_separable_clusters_reach_train_accuracy(self, variant):
        # sigma 0 clusters are linearly separable; well within 500 steps every
        # variant should fit the training set
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=40, sigma=0.0, seed=5)
        cfg = desk_config(variant=variant)
        tcfg = TrainConfig(batch_size=40, learning_rate=2e-3, steps=300, seed=0)
        result = train_loop(cfg, tcfg, ds)
        report = evaluate(result.params, cfg, ds)
        assert report.accuracy >= 0.95

    def test_checkpoints_written_at_cadence(self, tmp_path):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=10, sigma=0.2, seed=6)
        cfg = desk_config()
        tcfg = TrainConfig(batch_size=16, learning_rate=1e-3, steps=4, seed=0, checkpoint_every=2)
        train_loop(cfg, tcfg, ds, out_dir=tmp_path)
        for name in ("checkpoint_000002.pckpt", "checkpoint_000004.pckpt", "checkpoint_final.pckpt"):
            assert (tmp_path / name).exists()
            assert json.loads((tmp_path / f"{name}.json").read_text()) == cfg.to_dict()
        assert (tmp_path / "train_log.csv").exists()
        header = (tmp_path / "train_log.csv").read_text().splitlines()[0]
        assert header == "step,loss,lr,seconds"

    def test_non_finite_loss_aborts_with_step_diagnostic(self):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=10, sigma=0.2, seed=7)
        cfg = desk_config()
        tcfg = TrainConfig(batch_size=16, learning_rate=1e150, steps=10, seed=0)
        with pytest.raises(NonFiniteError) as e:
            train_loop(cfg, tcfg, ds)
        assert "step" in str(e.value)

    def test_non_finite_abort_names_the_step_and_the_op(self):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=10, sigma=0.2, seed=7)
        tcfg = TrainConfig(batch_size=16, learning_rate=1e150, steps=10, seed=0)
        with pytest.raises(
            NonFiniteError, match=r"^non-finite loss at step [2-9]: [a-z_]+: output contains NaN/Inf \(shape \("
        ):
            train_loop(desk_config(), tcfg, ds)

    def test_stopped_run_leaves_the_log_of_its_finished_steps(self, tmp_path):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=10, sigma=0.2, seed=7)
        tcfg = TrainConfig(batch_size=16, learning_rate=1e150, steps=10, seed=0, checkpoint_every=1)
        with pytest.raises(NonFiniteError, match="^non-finite loss at step 2:"):
            train_loop(desk_config(), tcfg, ds, out_dir=tmp_path)
        assert (tmp_path / "checkpoint_000001.pckpt").exists()
        header, row = (tmp_path / "train_log.csv").read_bytes().split(b"\r\n")[:2]
        assert header == b"step,loss,lr,seconds"
        step, loss, lr, seconds = row.decode().split(",")
        assert (step, lr) == ("1", "1e+150") and math.isfinite(float(loss)) and float(seconds) >= 0
        assert (tmp_path / "train_log.csv").read_bytes().endswith(row + b"\r\n")

    def test_finished_run_logs_every_step(self, tmp_path):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=10, sigma=0.2, seed=6)
        tcfg = TrainConfig(batch_size=16, learning_rate=1e-3, steps=3, seed=0)
        result = train_loop(desk_config(), tcfg, ds, out_dir=tmp_path)
        lines = [f"{s},{loss!r},{lr!r},{sec:.3f}\r\n" for s, loss, lr, sec in result.log]
        assert (tmp_path / "train_log.csv").read_bytes().decode() == "step,loss,lr,seconds\r\n" + "".join(lines)

    def test_steps_and_checkpoint_cadence_validated(self):
        for bad in (0, -2):
            with pytest.raises(ValueError, match="steps must be >= 1"):
                TrainConfig(steps=bad)
        with pytest.raises(ValueError, match="checkpoint_every must be >= 0"):
            TrainConfig(checkpoint_every=-1)
        assert TrainConfig(steps=1, checkpoint_every=0).steps == 1

    @pytest.mark.parametrize(
        "field,value",
        [("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.5), ("beta2", 1.0), ("adam_eps", 0.0), ("adam_eps", -1e-8),
         ("adam_eps", math.inf), ("learning_rate", 0.0), ("learning_rate", -0.1), ("learning_rate", math.nan), ("learning_rate", math.inf)],
    )
    def test_adam_hyperparameters_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [("steps", 2.5), ("batch_size", "8"), ("seed", True), ("checkpoint_every", None), ("learning_rate", True),
         ("beta1", None), ("adam_eps", "1e-8")],
    )
    def test_rejects_a_value_of_the_wrong_type(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be (an integer|a real number), got {value!r}$"):
            TrainConfig(**{field: value})

    def test_takes_numpy_integers_and_an_integer_rate(self):
        cfg = TrainConfig(steps=np.int64(3), batch_size=np.int32(4), learning_rate=1, beta1=np.float32(0.5))
        assert (cfg.steps, cfg.batch_size, cfg.learning_rate) == (3, 4, 1)

    def test_train_and_evaluate_leave_no_cyclic_garbage(self):
        # Every step's tape and every eval batch's tape is freed by reference
        # counting, so the cyclic collector finds nothing left over.
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=10, sigma=0.2, seed=9)
        gc.collect()
        gc.disable()
        try:
            for variant in VARIANTS:
                cfg = desk_config(variant=variant)
                result = train_loop(cfg, TrainConfig(batch_size=16, learning_rate=1e-3, steps=3, seed=0), ds)
                evaluate(result.params, cfg, ds)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("variant,share", [(v, False) for v in VARIANTS] + [("poster", True)])
    def test_matches_backward_then_update_bitwise(self, variant, share, monkeypatch):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=12, sigma=0.3, seed=15)
        cfg = desk_config(variant=variant, depth=2, drop_path=0.3, swap_depth=1, share_unswapped=share)
        tcfg = TrainConfig(batch_size=16, learning_rate=1e-2, steps=4, seed=2)
        result, state = train_with_state(cfg, tcfg, ds, monkeypatch)
        want, losses = backward_then_update(cfg, tcfg, ds)
        assert [row[1] for row in result.log] == losses
        assert state.step == want.step == 4
        for got, ref in zip(state.flat, want.flat):  # parameters, m and v
            assert got.tobytes() == ref.tobytes()
        assert all(t.grad is None for t in result.params.named.values())

    def test_norm1_without_pre_msa_norm_updated_with_zeros(self, monkeypatch):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=10, sigma=0.3, seed=16)
        cfg = desk_config(pre_msa_norm=False)
        norm1 = [name for name in build_params(cfg).named if ".norm1." in name]
        assert norm1
        params = build_params(cfg)
        logits = forward(Tensor(ds.x_img[:8]), Tensor(ds.x_lm[:8]), params, cfg, training=False)
        yielded = {id(t) for t, _ in leaf_grads(label_smoothing_ce(logits, ds.labels[:8], 0.1))}
        assert not any(id(params.named[name]) in yielded for name in norm1)
        result, state = train_with_state(cfg, TrainConfig(batch_size=8, learning_rate=1e-2, steps=3, seed=0), ds, monkeypatch)
        initial = build_params(cfg).named
        for name in norm1:
            assert np.array_equal(result.params.named[name].data, initial[name].data)
            assert not state.m[name].any() and not state.v[name].any()

    def test_leaf_grads_with_streams_sharing_weights_match_backward(self):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=10, sigma=0.3, seed=17)
        cfg = desk_config(depth=2, swap_depth=1, share_unswapped=True)
        params = build_params(cfg)

        def loss():
            logits = forward(Tensor(ds.x_img[:8]), Tensor(ds.x_lm[:8]), params, cfg, training=False)
            return label_smoothing_ce(logits, ds.labels[:8], 0.1)

        root = loss()
        shared = [t for name, t in params.named.items() if ".shared.attn." in name]
        assert shared and all(Graph.trace(root).leaf_uses[id(t)] == 2 for t in shared)  # one read per stream
        pairs = list(leaf_grads(root))
        assert len({id(t) for t, _ in pairs}) == len(pairs)
        got = {id(t): g for t, g in pairs}
        assert all(id(t) in got for t in shared)
        backward(loss())
        for t in params.named.values():
            assert (id(t) in got) == (t.grad is not None)
            if t.grad is not None:
                assert np.array_equal(got[id(t)], t.grad)

    def test_peak_memory_below_backward_then_update(self):
        # Traced heap peak of two steps: train_loop never holds every
        # parameter gradient at once, so it stays at least half the
        # parameter bytes below backward-then-update. Seen: 38.8 against
        # 44.3 MB, with 6.5 MB of parameters.
        cfg = ModelConfig(patches=16, base_dim=128, pyramid_dims=(128, 64, 32), depth=2, heads_divisor=16,
                          num_classes=4, variant="poster", seed=0)
        tcfg = TrainConfig(batch_size=8, learning_rate=1e-3, steps=2, seed=0)
        ds = gen_clusters(patches=16, dim=128, num_classes=4, per_class=4, sigma=0.3, seed=18)
        param_bytes = sum(t.data.nbytes for t in build_params(cfg).named.values())

        def traced_peak(run):
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run(cfg, tcfg, ds)
            return tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            held = traced_peak(backward_then_update)
            streamed = traced_peak(train_loop)
        finally:
            tracemalloc.stop()
        assert streamed <= held - param_bytes / 2

    def test_injected_clock_recorded(self):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=10, sigma=0.2, seed=8)
        cfg = desk_config()
        ticks = iter(range(100))
        result = train_loop(cfg, TrainConfig(batch_size=16, learning_rate=1e-3, steps=3, seed=0), ds, clock=lambda: float(next(ticks)))
        seconds = [row[3] for row in result.log]
        assert seconds == [1.0, 2.0, 3.0]


MISFITS = [
    ({"patches": 5}, "P=5"),
    ({"dim": 12}, "D=12"),
    ({"num_classes": 5}, "5 classes"),
]


def misfit_data(patches=6, dim=16, num_classes=4):
    return gen_clusters(patches=patches, dim=dim, num_classes=num_classes, per_class=4, sigma=0.3, seed=14)


class TestDataMustFitModel:
    @pytest.mark.parametrize("data_kw,named", MISFITS)
    def test_train_loop_rejects(self, data_kw, named, tmp_path):
        with pytest.raises(ValueError, match=named) as e:
            train_loop(desk_config(), TrainConfig(steps=1), misfit_data(**data_kw), out_dir=tmp_path / "run")
        assert "patches=6, base_dim=16, num_classes=4" in str(e.value)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("data_kw,named", MISFITS)
    def test_predict_and_evaluate_reject(self, data_kw, named):
        cfg = desk_config()
        params = build_params(cfg)
        for run in (predict, evaluate):
            with pytest.raises(ValueError, match=named):
                run(params, cfg, misfit_data(**data_kw))

    def test_fewer_classes_than_the_model_fit(self):
        cfg = desk_config()
        assert predict(build_params(cfg), cfg, misfit_data(num_classes=2)).shape == (8,)


class TestEvaluate:
    def test_model_predicting_true_labels_scores_one(self):
        # make the labels whatever the model already predicts
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=10, sigma=0.3, seed=9)
        cfg = desk_config()
        params = build_params(cfg)
        preds = predict(params, cfg, ds)
        ds.labels = preds.astype(np.int64)
        report = evaluate(params, cfg, ds)
        assert report.accuracy == 1.0

    def test_constant_class_predictor_on_balanced_data(self):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=25, sigma=0.3, seed=10)
        cfg = desk_config()
        params = build_params(cfg)
        for name, t in params.named.items():
            t.data = np.zeros_like(t.data)
        params.head[1].b.data = np.array([0.0, 5.0, 0.0, 0.0])  # always predict class 1
        report = evaluate(params, cfg, ds)
        assert report.accuracy == pytest.approx(0.25, abs=1e-12)
        assert np.all(np.asarray(report.confusion.counts)[:, 1] == 25)

    def test_report_cross_checks_against_manual_counts(self):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=15, sigma=0.5, seed=11)
        cfg = desk_config()
        params = build_params(cfg)
        preds = predict(params, cfg, ds)
        report = evaluate(params, cfg, ds)
        manual_acc = float(np.mean(preds == ds.labels))
        assert report.accuracy == pytest.approx(manual_acc, abs=1e-15)
        for t in range(4):
            for p in range(4):
                want = int(np.sum((ds.labels == t) & (preds == p)))
                assert report.confusion.counts[t, p] == want

    def test_empty_dataset_rejected(self):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=2, sigma=0.1, seed=12)
        ds.x_img = ds.x_img[:0]
        ds.x_lm = ds.x_lm[:0]
        ds.labels = ds.labels[:0]
        cfg = desk_config()
        params = build_params(cfg)
        with pytest.raises(ValueError):
            evaluate(params, cfg, ds)

    def test_predict_names_an_empty_dataset(self):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=2, sigma=0.1, seed=12)
        empty = FeatureDataset(x_img=ds.x_img[:0], x_lm=ds.x_lm[:0], labels=ds.labels[:0], num_classes=4)
        cfg = desk_config()
        with pytest.raises(ValueError, match="^empty evaluation dataset$"):
            predict(build_params(cfg), cfg, empty)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_predict_and_evaluate_reject_batch_size_below_one(self, batch_size):
        cfg = desk_config()
        params = build_params(cfg)
        for run in (predict, evaluate):
            with pytest.raises(ValueError, match="batch_size must be >= 1"):
                run(params, cfg, misfit_data(), batch_size)

    def test_eval_forwards_have_no_drop_path(self):
        ds = gen_clusters(patches=6, dim=16, num_classes=4, per_class=10, sigma=0.3, seed=13)
        cfg = desk_config(drop_path=0.5)
        params = build_params(cfg)
        a = predict(params, cfg, ds)
        b = predict(params, cfg, ds)
        assert np.array_equal(a, b)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator setting is glibc's mallopt")
def test_second_predict_pass_reuses_freed_memory():
    # A freed eval tape stays in the process, so the next pass over the same
    # data faults no pages in: 0 minor faults here, about 35,000 when glibc
    # hands every freed activation back to the OS.
    import resource  # Unix only, like glibc

    run = RunConfig(**PRESETS["desk"])
    cfg = run.model_config(variant="poster", seed=0)
    ds = gen_clusters(cfg.patches, cfg.base_dim, 6, per_class=100, sigma=0.5, seed=21)
    result = train_loop(cfg, run.train_config(steps=3, seed=0), ds)
    first = predict(result.params, cfg, ds)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    second = predict(result.params, cfg, ds)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert np.array_equal(first, second)
    assert faults < 2000
