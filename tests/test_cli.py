import argparse
import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ferfuse
from ferfuse.checkpoint import load_model, save_checkpoint
from ferfuse.cli import RunConfig, _add_config_flags, build_parser, main, resolve_config
from ferfuse.data import read_features
from ferfuse.model import ModelConfig, estimate_memory
from ferfuse.relevance import capture_attention
from ferfuse.tensor import Tensor
from ferfuse.training import TrainConfig
from helpers import oracle_rollout


def run(*argv):
    return main([str(a) for a in argv])


def desk_flags(*pairs):
    flags = {
        "--patches": 6,
        "--base-dim": 16,
        "--pyramid-dims": "16,8",
        "--depth": 1,
        "--heads-divisor": 16,
        "--num-classes": 3,
        "--batch-size": 32,
        "--learning-rate": 2e-3,
        "--steps": 30,
        "--seed": 0,
    }
    flags.update(dict(zip(pairs[::2], pairs[1::2])))
    out = []
    for k, v in flags.items():
        out += [k, v]
    return out


@pytest.fixture(scope="module")
def cluster_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "clusters.pfer"
    assert run(
        "gen-data", "--task", "clusters", "--p", 6, "--d", 16, "--classes", 3,
        "--count", 40, "--sigma", 0.0, "--seed", 4, "--out", path,
    ) == 0
    return path


class TestGenData:
    def test_writes_pfer_and_sidecar(self, tmp_path):
        out = tmp_path / "x.pfer"
        assert run(
            "gen-data", "--task", "xor", "--p", 4, "--d", 16, "--count", 10,
            "--sigma", 0.3, "--seed", 1, "--out", out,
        ) == 0
        ds = read_features(out)
        assert len(ds) == 20 and ds.num_classes == 2
        with open(str(out) + ".json") as f:
            assert json.load(f)["format"] == "PFER"

    def test_xor_rejects_other_class_counts(self, tmp_path, capsys):
        code = run(
            "gen-data", "--task", "xor", "--p", 4, "--d", 16, "--classes", 5,
            "--count", 10, "--sigma", 0.3, "--seed", 1, "--out", tmp_path / "x.pfer",
        )
        assert code == 1
        assert "binary" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,named",
        [
            (("--task", "clusters"), "--classes"),
            (("--task", "clusters", "--classes", 1), "num_classes"),
            (("--task", "clusters", "--classes", 3, "--p", 0), "patches"),
            (("--task", "clusters", "--classes", 3, "--d", 0), "dim"),
            (("--task", "xor", "--p", 0), "patches"),
            (("--task", "xor", "--count", 0), "per_class"),
            (("--task", "clusters", "--classes", 3, "--count", 0), "per_class"),
        ],
    )
    def test_inputs_that_give_no_usable_file_rejected(self, argv, named, tmp_path, capsys):
        out = tmp_path / "x.pfer"
        assert run("gen-data", "--count", 4, *argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.pfer"
        b = tmp_path / "b.pfer"
        for out in (a, b):
            run("gen-data", "--task", "clusters", "--p", 4, "--d", 8, "--classes", 2,
                "--count", 6, "--sigma", 0.5, "--seed", 9, "--out", out)
        assert a.read_bytes() == b.read_bytes()


class TestTrainEval:
    def test_train_then_eval_reaches_accuracy(self, cluster_file, tmp_path):
        out = tmp_path / "run"
        assert run("train", "--data", cluster_file, "--out", out, *desk_flags("--steps", 250, "--variant", "poster")) == 0
        ckpt = out / "checkpoint_final.pckpt"
        assert ckpt.exists()
        assert (out / "effective_config.json").exists()
        eval_dir = tmp_path / "eval"
        assert run("eval", "--checkpoint", ckpt, "--data", cluster_file, "--out", eval_dir) == 0
        with open(eval_dir / "metrics.csv") as f:
            kv = {row[0]: row[1] for row in csv.reader(f) if row and row[0] != "key"}
        assert float(kv["accuracy"]) >= 0.95
        assert (eval_dir / "confusion.csv").exists()
        assert (eval_dir / "prediction_percent.csv").exists()

    def test_eval_twice_identical_reports(self, cluster_file, tmp_path):
        out = tmp_path / "run"
        run("train", "--data", cluster_file, "--out", out, *desk_flags("--steps", 10))
        a = tmp_path / "eval_a"
        b = tmp_path / "eval_b"
        for d in (a, b):
            assert run("eval", "--checkpoint", out / "checkpoint_final.pckpt", "--data", cluster_file, "--out", d) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "confusion.csv").read_bytes() == (b / "confusion.csv").read_bytes()

    def test_mismatched_checkpoint_dims_named_error(self, cluster_file, tmp_path, capsys):
        out = tmp_path / "run"
        run("train", "--data", cluster_file, "--out", out, *desk_flags("--steps", 5))
        # rewrite the sidecar with different dims so loading must fail by name
        sidecar = out / "checkpoint_final.pckpt.json"
        cfg = json.loads(sidecar.read_text())
        cfg["pyramid_dims"] = [16, 4]
        sidecar.write_text(json.dumps(cfg))
        code = run("eval", "--checkpoint", out / "checkpoint_final.pckpt", "--data", cluster_file, "--out", tmp_path / "e")
        assert code == 1
        assert "level1" in capsys.readouterr().err

    def test_sidecar_value_of_the_wrong_type_named(self, cluster_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("train", "--data", cluster_file, "--out", out, *desk_flags("--steps", 1, "--variant", "poster")) == 0
        sidecar = out / "checkpoint_final.pckpt.json"
        cfg = json.loads(sidecar.read_text())
        cfg["depth"] = str(cfg["depth"])
        sidecar.write_text(json.dumps(cfg))
        capsys.readouterr()
        ckpt = out / "checkpoint_final.pckpt"
        for cmd in (("eval",), ("visualize", "--class", 0)):
            assert run(*cmd, "--checkpoint", ckpt, "--data", cluster_file, "--out", tmp_path / "e") == 1
            assert capsys.readouterr().err == "error: depth must be an integer, got '1'\n"
        assert not (tmp_path / "e").exists()

    def test_missing_checkpoint_or_sidecar_named(self, cluster_file, tmp_path, capsys):
        ckpt = tmp_path / "model.pckpt"
        commands = (("eval",), ("visualize", "--class", 0))
        for cmd in commands:
            assert run(*cmd, "--checkpoint", ckpt, "--data", cluster_file, "--out", tmp_path / "o") == 1
            assert capsys.readouterr().err == f"error: checkpoint not found: {ckpt}\n"
        save_checkpoint(ckpt, {"w": Tensor(np.zeros(2))})
        for cmd in commands:
            assert run(*cmd, "--checkpoint", ckpt, "--data", cluster_file, "--out", tmp_path / "o") == 1
            assert capsys.readouterr().err == f"error: missing model config sidecar: {ckpt}.json\n"
        assert not (tmp_path / "o").exists()

    def test_periodic_checkpoint_evaluates(self, cluster_file, tmp_path):
        out = tmp_path / "run"
        assert run("train", "--data", cluster_file, "--out", out, *desk_flags("--steps", 4, "--checkpoint-every", 2)) == 0
        ckpt = out / "checkpoint_000002.pckpt"
        assert run("eval", "--checkpoint", ckpt, "--data", cluster_file, "--out", tmp_path / "eval") == 0
        assert (tmp_path / "eval" / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "gen_flags,named", [(("--p", 5), "P=5"), (("--d", 8), "D=8"), (("--classes", 4), "4 classes")]
    )
    def test_data_that_does_not_fit_the_model_rejected(self, cluster_file, gen_flags, named, tmp_path, capsys):
        misfit = tmp_path / "misfit.pfer"
        flags = dict(zip(("--p", "--d", "--classes"), (6, 16, 3)))
        flags.update(dict(zip(gen_flags[::2], gen_flags[1::2])))
        run("gen-data", "--task", "clusters", *[a for kv in flags.items() for a in kv], "--count", 4, "--out", misfit)
        capsys.readouterr()
        assert run("train", "--data", misfit, "--out", tmp_path / "bad", *desk_flags("--steps", 2)) == 1
        err = capsys.readouterr().err
        assert named in err and "num_classes=3" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "bad").exists()
        good = tmp_path / "good"
        assert run("train", "--data", cluster_file, "--out", good, *desk_flags("--steps", 2)) == 0
        ckpt = good / "checkpoint_final.pckpt"
        assert run("eval", "--checkpoint", ckpt, "--data", misfit, "--out", tmp_path / "e") == 1
        assert named in capsys.readouterr().err

    def test_non_finite_features_rejected(self, cluster_file, tmp_path, capsys):
        raw = bytearray(cluster_file.read_bytes())
        sample = 3
        at = 24 + sample * (2 * 4 * 6 * 16 + 4) + 4 * 6 * 16  # first landmark entry of the sample
        raw[at : at + 4] = np.float32(np.nan).tobytes()
        hostile = tmp_path / "nan.pfer"
        hostile.write_bytes(bytes(raw))
        assert run("train", "--data", hostile, "--out", tmp_path / "bad", *desk_flags("--steps", 2)) == 1
        assert capsys.readouterr().err == f"error: {hostile}: features of sample {sample} contain NaN/Inf\n"
        assert not (tmp_path / "bad").exists()

    def test_diverging_run_exits_with_step_diagnostic(self, tmp_path, capsys):
        data = tmp_path / "c.pfer"
        gen = ("--p", 6, "--d", 16, "--classes", 4, "--count", 10, "--sigma", 0.2, "--seed", 7)
        assert run("gen-data", "--task", "clusters", *gen, "--out", data) == 0
        flags = desk_flags("--num-classes", 4, "--batch-size", 16, "--learning-rate", 1e150, "--steps", 10)
        assert run("train", "--data", data, "--out", tmp_path / "run", *flags) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: non-finite loss at step [2-9]: [a-z_]+: output contains NaN/Inf \(shape \(.*\)\)\n", err)

    def test_diverging_run_writes_only_its_error_line_to_stderr(self, tmp_path):
        # A fresh interpreter, with Python's default warning filters, prints
        # whatever numpy warns; the run must print its error line alone.
        data = tmp_path / "desk.pfer"
        assert run("gen-data", "--task", "clusters", "--classes", 7, "--count", 3, "--out", data) == 0
        src = str(Path(ferfuse.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "ferfuse", "train", "--preset", "desk", "--data", str(data),
             "--out", str(tmp_path / "run"), "--learning-rate", "1e150", "--steps", "5"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert re.fullmatch(r"error: non-finite loss at step [2-5]: .*\n", proc.stderr)

    def test_missing_data_path_fails(self, tmp_path, capsys):
        code = run("train", "--data", tmp_path / "nope.pfer", "--out", tmp_path / "o", *desk_flags())
        assert code == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,bad",
        [
            ("params", {"depth": "2"}),
            ("params", {"patches": 8.5}),
            ("params", {"pyramid_dims": [16, 8.5]}),
            ("params", {"qkv_bias": 1}),
            ("train", {"steps": 2.5}),
            ("train", {"learning_rate": True}),
        ],
    )
    def test_config_file_value_of_the_wrong_type_rejected(self, cluster_file, tmp_path, capsys, command, bad):
        # the rest of the file fits cluster_file, so only the bad value can stop the run
        fits = {"patches": 6, "base_dim": 16, "pyramid_dims": [16, 8], "depth": 1, "heads_divisor": 16}
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**fits, "num_classes": 3, "batch_size": 8, "steps": 2, **bad}))
        out = tmp_path / "run"
        args = ("--data", cluster_file, "--out", out) if command == "train" else ()
        assert run(command, *args, "--config", config) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {next(iter(bad))} must be ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_bad_steps_or_checkpoint_cadence_rejected(self, cluster_file, tmp_path, capsys):
        for flag, value, message in (
            ("--steps", 0, "steps must be >= 1"),
            ("--steps", -2, "steps must be >= 1"),
            ("--checkpoint-every", -1, "checkpoint_every must be >= 0"),
        ):
            out = tmp_path / f"run{flag}{value}"
            assert run("train", "--data", cluster_file, "--out", out, *desk_flags(flag, value)) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_rejected(self, cluster_file, tmp_path, capsys, value):
        out = tmp_path / "run"
        assert run("train", "--data", cluster_file, "--out", out, *desk_flags("--steps", 2), "--lr", value) == 1
        err = capsys.readouterr().err
        assert "learning_rate must be finite and > 0" in err and "Traceback" not in err
        assert not out.exists()

    def test_effective_config_replay_reproduces_run(self, cluster_file, tmp_path):
        out_a = tmp_path / "a"
        assert run("train", "--data", cluster_file, "--out", out_a, *desk_flags("--steps", 8)) == 0
        out_b = tmp_path / "b"
        assert run("train", "--data", cluster_file, "--out", out_b, "--config", out_a / "effective_config.json") == 0
        same = (out_a / "checkpoint_final.pckpt").read_bytes() == (out_b / "checkpoint_final.pckpt").read_bytes()
        assert same

    def test_flags_override_config_file(self, cluster_file, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"steps": 4, "variant": "baseline", "patches": 6, "base_dim": 16,
                                        "pyramid_dims": [16, 8], "depth": 1, "heads_divisor": 16,
                                        "num_classes": 3, "batch_size": 16, "learning_rate": 1e-3}))
        out = tmp_path / "run"
        assert run("train", "--data", cluster_file, "--out", out, "--config", cfg_path, "--variant", "image_only") == 0
        eff = json.loads((out / "effective_config.json").read_text())
        assert eff["variant"] == "image_only"
        assert eff["steps"] == 4

    def test_unknown_config_key_rejected(self, cluster_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"variantt": "poster"}))
        code = run("train", "--data", cluster_file, "--out", tmp_path / "o", "--config", cfg_path)
        assert code == 1
        assert "variantt" in capsys.readouterr().err


class TestAblate:
    def _rows(self, path):
        with open(path) as f:
            return list(csv.DictReader(f))

    def test_table4_grid_emits_six_variants(self, cluster_file, tmp_path):
        out = tmp_path / "grid"
        assert run("ablate", "--data", cluster_file, "--grid", "table4", "--seeds", 1,
                   "--out", out, *desk_flags("--steps", 6)) == 0
        rows = self._rows(out / "results.csv")
        assert [r["variant"] for r in rows] == [
            "landmark_only", "image_only", "baseline", "baseline_pyramid", "baseline_crossfusion", "poster",
        ]
        for r in rows:
            assert 0.0 <= float(r["acc"]) <= 100.0
            assert 0.0 <= float(r["mean_acc"]) <= 100.0
            assert int(r["params"]) > 0 and int(r["flops"]) > 0
        assert len(self._rows(out / "summary.csv")) == 6

    def test_swapdepth_grid_emits_five_rows(self, cluster_file, tmp_path):
        out = tmp_path / "grid"
        assert run("ablate", "--data", cluster_file, "--grid", "swapdepth", "--seeds", 1,
                   "--out", out, *desk_flags("--steps", 4, "--depth", 2)) == 0
        rows = self._rows(out / "results.csv")
        assert [r["variant"] for r in rows] == [
            "no_swap", "swap_first_1", "swap_first_2", "swap_first_4", "swap_all",
        ]

    def test_pyramid_grid_emits_four_rows(self, cluster_file, tmp_path):
        out = tmp_path / "grid"
        assert run("ablate", "--data", cluster_file, "--grid", "pyramid", "--seeds", 1,
                   "--out", out, *desk_flags("--steps", 4)) == 0
        rows = self._rows(out / "results.csv")
        assert len(rows) == 4
        assert rows[0]["variant"].startswith("levels_16")

    def test_seeds_add_rows_and_summary_aggregates(self, cluster_file, tmp_path):
        out = tmp_path / "grid"
        assert run("ablate", "--data", cluster_file, "--grid", "table4", "--seeds", 2,
                   "--out", out, *desk_flags("--steps", 4)) == 0
        rows = self._rows(out / "results.csv")
        assert len(rows) == 12
        summary = self._rows(out / "summary.csv")
        assert len(summary) == 6
        assert all("acc_std" in r for r in summary)

    def test_parallel_workers_produce_identical_results(self, cluster_file, tmp_path):
        a = tmp_path / "serial"
        b = tmp_path / "parallel"
        for out, workers in ((a, 1), (b, 3)):
            assert run("ablate", "--data", cluster_file, "--grid", "pyramid", "--seeds", 2,
                       "--workers", workers, "--out", out, *desk_flags("--steps", 4)) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_workers_below_one_rejected(self, cluster_file, tmp_path, capsys):
        out = tmp_path / "grid"
        assert run("ablate", "--data", cluster_file, "--grid", "pyramid", "--workers", 0,
                   "--out", out, *desk_flags("--steps", 4)) == 1
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_seeds_below_one_rejected(self, cluster_file, tmp_path, capsys):
        for seeds in (0, -3):
            out = tmp_path / f"grid{seeds}"
            assert run("ablate", "--data", cluster_file, "--grid", "pyramid", "--seeds", seeds,
                       "--out", out, *desk_flags("--steps", 4)) == 1
            assert "--seeds must be >= 1" in capsys.readouterr().err
            assert not out.exists()

    def test_steps_below_one_rejected(self, cluster_file, tmp_path, capsys):
        out = tmp_path / "grid"
        assert run("ablate", "--data", cluster_file, "--grid", "table4",
                   "--out", out, *desk_flags("--steps", 0)) == 1
        assert "steps must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_data_that_does_not_fit_the_model_rejected(self, cluster_file, tmp_path, capsys):
        misfit = tmp_path / "p5.pfer"
        run("gen-data", "--task", "clusters", "--p", 5, "--d", 16, "--classes", 3, "--count", 4, "--out", misfit)
        for data in (("--data", misfit), ("--data", cluster_file, "--test-data", misfit)):
            capsys.readouterr()
            out = tmp_path / "grid"
            assert run("ablate", *data, "--grid", "table4", "--out", out, *desk_flags("--steps", 2)) == 1
            assert "P=5" in capsys.readouterr().err
            assert not out.exists()

    def test_diverging_cells_recorded_as_non_finite(self, cluster_file, tmp_path):
        # numpy's error state is per thread, so each worker must set its own
        out = tmp_path / "grid"
        assert run("ablate", "--data", cluster_file, "--grid", "pyramid", "--workers", 2, "--out", out,
                   *desk_flags("--steps", 10, "--learning-rate", 1e150)) == 0
        errors = self._rows(out / "errors.csv")
        assert len(errors) == 4
        for row in errors:
            assert row["error"].startswith("NonFiniteError: non-finite loss at step ")

    def test_unknown_grid_rejected(self, cluster_file, tmp_path):
        with pytest.raises(SystemExit) as e:  # argparse rejects the choice
            run("ablate", "--data", cluster_file, "--grid", "table9", "--out", tmp_path / "g")
        assert e.value.code == 2

    def test_single_stream_rows_capped_at_chance_on_xor(self, tmp_path):
        # the xor task is constructed so one stream alone carries no label
        # information: its grid rows must sit at 0.5 whatever the training does
        data = tmp_path / "xor.pfer"
        run("gen-data", "--task", "xor", "--p", 6, "--d", 16, "--count", 600,
            "--sigma", 0.3, "--seed", 3, "--out", data)
        out = tmp_path / "grid"
        assert run("ablate", "--data", data, "--grid", "table4", "--seeds", 2, "--out", out,
                   *desk_flags("--steps", 40, "--num-classes", 2, "--batch-size", 64)) == 0
        by_variant = {}
        for row in self._rows(out / "results.csv"):
            by_variant.setdefault(row["variant"], []).append(float(row["acc"]))
        for variant in ("landmark_only", "image_only"):
            mean = np.mean(by_variant[variant])
            assert abs(mean - 50.0) <= 5.0, f"{variant} at {mean:.1f}%"


class TestConfigMirror:
    def test_run_config_is_model_then_train_fields(self):
        model = [f.name for f in fields(ModelConfig)]
        train = [f.name for f in fields(TrainConfig) if f.name not in model]
        assert [f.name for f in fields(RunConfig)] == model + train
        assert len(model + train) == 23

    def test_every_field_has_a_flag_and_every_flag_a_field(self):
        parser = argparse.ArgumentParser()
        _add_config_flags(parser)
        dests = {a.dest for a in parser._actions} - {"help", "config", "preset"}
        assert dests == {f.name for f in fields(RunConfig)}

    def test_every_flag_parses_into_its_typed_field(self):
        flags = {
            "--patches": ("6", 6),
            "--base-dim": ("8", 8),
            "--pyramid-dims": ("8,4", (8, 4)),
            "--depth": ("2", 2),
            "--mlp-ratio": ("3", 3),
            "--drop-path": ("0.2", 0.2),
            "--heads-divisor": ("4", 4),
            "--swap-depth": ("-1", None),
            "--num-classes": ("5", 5),
            "--variant": ("baseline_pyramid", "baseline_pyramid"),
            "--label-smoothing": ("0.05", 0.05),
            "--no-qkv-bias": (None, False),
            "--pre-msa-norm": (None, True),
            "--share-unswapped": (None, True),
            "--head-hidden": ("5", 5),
            "--seed": ("3", 3),
            "--batch-size": ("16", 16),
            "--lr": ("0.01", 0.01),
            "--steps": ("9", 9),
            "--beta1": ("0.8", 0.8),
            "--beta2": ("0.99", 0.99),
            "--adam-eps": ("1e-07", 1e-07),
            "--checkpoint-every": ("3", 3),
        }
        argv = ["params"]
        for flag, (text, _) in flags.items():
            argv += [flag] if text is None else [flag, text]
        cfg = resolve_config(build_parser().parse_args(argv))
        want = [value for _, value in flags.values()]
        assert [getattr(cfg, f.name) for f in fields(RunConfig)] == want
        for f, value in zip(fields(RunConfig), want):
            assert type(getattr(cfg, f.name)) is type(value), f.name

    def test_split_keeps_model_label_smoothing_and_shared_seed(self):
        cfg = RunConfig(label_smoothing=0.2, seed=5, steps=7)
        assert cfg.model_config().label_smoothing == 0.2
        assert cfg.model_config().seed == cfg.train_config().seed == 5
        assert cfg.train_config().steps == 7


class TestGradcheckAndParams:
    def test_gradcheck_passes_on_desk_config(self, capsys):
        assert run("gradcheck", *desk_flags(), "--samples", 2, "--tol", 1e-4) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "worst relative error" in out

    def test_params_reports_block_doubling(self, capsys):
        assert run("params", *desk_flags("--depth", 4)) == 0
        four = capsys.readouterr().out
        assert run("params", *desk_flags("--depth", 8)) == 0
        eight = capsys.readouterr().out

        def blocks(text):
            for line in text.splitlines():
                if line.startswith("params:"):
                    return int(line.split("blocks")[1].split()[0].replace(",", ""))
            raise AssertionError(text)

        assert blocks(eight) == 2 * blocks(four)

    def test_params_prints_formula(self, capsys):
        assert run("params", *desk_flags()) == 0
        assert "MACs" in capsys.readouterr().out

    def test_params_prints_memory_below_macs(self, capsys):
        assert run("params", *desk_flags()) == 0
        lines = capsys.readouterr().out.splitlines()
        mcfg = resolve_config(build_parser().parse_args(["params", *map(str, desk_flags())])).model_config()
        mem = estimate_memory(mcfg)
        at = next(i for i, line in enumerate(lines) if line.startswith("memory (bytes):"))
        assert lines[at - 1].startswith("flops (MACs/sample):")
        tape, const, adam = (int(n.replace(",", "")) for n in re.findall(r"[\d,]{2,}", lines[at]))
        assert (tape, const, adam) == (mem["per_sample"]["total"], mem["constant"]["total"], mem["adam"])
        assert lines[-1] == mem["formula"]

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("params", "--heads-divisor", 0),
            ("params", "--head-hidden", 0),
            ("params", "--swap-depth", -2),
            ("params", "--swap-depth", -7),
            ("train", "--beta1", 1),
            ("train", "--adam-eps", 0),
            ("params", "--adam-eps", "inf"),
        ],
    )
    def test_config_values_that_break_training_rejected(self, command, flag, value, tmp_path, capsys):
        out = tmp_path / "run"
        args = ("--data", tmp_path / "none.pfer", "--out", out) if command == "train" else ()
        assert run(command, "--preset", "desk", *args, flag, value) == 1
        err = capsys.readouterr().err
        assert flag[2:].replace("-", "_") in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flag,value,named",
        [
            ("gradcheck", "--samples", 0, "samples_per_param"),
            ("gradcheck", "--samples", -1, "samples_per_param"),
            ("gradcheck", "--h", 0, "step h"),
            ("gradcheck", "--tol", 0, "tol"),
            ("gradcheck", "--tol", -1, "tol"),
            ("params", "--pyramid-dims", ",", "pyramid_dims"),
        ],
    )
    def test_settings_that_check_or_build_nothing_rejected(self, command, flag, value, named, capsys):
        assert run(command, "--preset", "desk", flag, value) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err and len(err.splitlines()) == 1

    def test_desk_preset_resolves(self, capsys):
        assert run("params", "--preset", "desk") == 0
        out = capsys.readouterr().out
        assert "levels [32, 16, 8]" in out


class TestVisualize:
    def test_emits_one_map_per_stream(self, cluster_file, tmp_path):
        out = tmp_path / "run"
        run("train", "--data", cluster_file, "--out", out, *desk_flags("--steps", 5, "--variant", "poster"))
        vis = tmp_path / "vis"
        assert run("visualize", "--checkpoint", out / "checkpoint_final.pckpt", "--data", cluster_file,
                   "--sample", 0, "--class", 1, "--out", vis) == 0
        pgms = sorted(p.name for p in vis.glob("*.pgm"))
        assert pgms == ["relevance_img.pgm", "relevance_lm.pgm"]
        assert (vis / "relevance_img.csv").exists()
        assert (vis / "relevance_lm.csv").exists()

    def test_scores_match_the_hand_rollout_averaged_over_levels(self, tmp_path):
        data = tmp_path / "desk.pfer"
        assert run("gen-data", "--task", "clusters", "--classes", 7, "--count", 3, "--out", data) == 0
        out = tmp_path / "run"
        assert run("train", "--preset", "desk", "--data", data, "--out", out,
                   "--steps", 4, "--drop-path", 0.3, "--variant", "poster") == 0
        ckpt = out / "checkpoint_final.pckpt"
        vis = tmp_path / "vis"
        assert run("visualize", "--checkpoint", ckpt, "--data", data, "--sample", 1, "--class", 2, "--out", vis) == 0
        params, mcfg = load_model(ckpt)
        x_img, x_lm, _ = read_features(data).sample(1)
        captured = capture_attention(params, mcfg, x_img, x_lm, 2)
        for stream in ("img", "lm"):
            assert [len(blocks) for blocks in captured[stream]] == [2, 2, 2]
            want = np.mean([oracle_rollout(blocks)[1] for blocks in captured[stream]], axis=0)
            with open(vis / f"relevance_{stream}.csv") as f:
                got = np.array([float(row["score"]) for row in csv.DictReader(f)])
            assert got.shape == (8,)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_rejects_fused_variant(self, cluster_file, tmp_path, capsys):
        out = tmp_path / "run"
        run("train", "--data", cluster_file, "--out", out, *desk_flags("--steps", 5, "--variant", "baseline"))
        code = run("visualize", "--checkpoint", out / "checkpoint_final.pckpt", "--data", cluster_file,
                   "--sample", 0, "--class", 0, "--out", tmp_path / "vis")
        assert code == 1
        assert "two-stream" in capsys.readouterr().err
