"""Smoke test of the benchmark at tiny sizes.

Checks that every metric BENCHMARK.json names is printed with its unit, on
every workload, traced and untraced, and that corrupting an output of the
program raises the failure count, whether the corruption is in the forward
pass, in a VJP or in a grid cell.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ferfuse import cli, tensor, training  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
W = workloads.WORKLOADS
TINY = {
    "paper_width": replace(
        W["paper_width"],
        patches=4,
        base_dim=16,
        pyramid_dims=(16, 8, 4),
        heads_divisor=4,
        per_class=2,
        batch_size=4,
        steps=2,
        eval_batch=4,
        setups=1,
    ),
    "ablate_grid": replace(W["ablate_grid"], per_class=16, steps=2, setups=1),
}


@pytest.fixture(scope="module")
def tiny_reference():
    """Golden outputs of the tiny configurations, from the unmodified build."""
    return {
        key: reference.golden(*case)
        for w in TINY.values()
        for key, case in workloads.reference_cases(w, reference.REFERENCE_SEED)
    }


@pytest.fixture
def tiny(monkeypatch, tiny_reference):
    for name, w in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, w)
    monkeypatch.setattr(reference, "load", lambda: tiny_reference)
    # run.main pins BLAS threads for ablate_grid; restore the environment after.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))


def result_of(capsys, workload, trace=0):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    out, err = capsys.readouterr()
    sys.stderr.write(err)  # the failed checks, named; pytest captures them again
    return json.loads(out.strip().splitlines()[-1])


def test_workload_names_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_reference_covers_every_configuration():
    keys = {key for w in W.values() for key, _ in workloads.reference_cases(w, reference.REFERENCE_SEED)}
    assert set(reference.load()) == keys


def _corrupt_op(monkeypatch, op, forward=1.0, grads=1.0):
    """Scale the output and the VJP grads of every ``op`` node the tape records."""
    record = tensor._record

    def corrupted(name, inputs, out_data, vjp):
        if name == op:
            out_data = out_data * forward
            inner = vjp
            vjp = lambda g: tuple(None if x is None else x * grads for x in inner(g))  # noqa: E731
        return record(name, inputs, out_data, vjp)

    monkeypatch.setattr(tensor, "_record", corrupted)


@pytest.mark.parametrize("workload", list(TINY))
def test_scaled_matmul_vjp_is_counted(tiny, capsys, monkeypatch, workload):
    # Grads 1% too large: every round still repeats the warm-up exactly, and
    # Adam's first update hardly depends on the gradient's scale.
    _corrupt_op(monkeypatch, "matmul", grads=1.01)
    result = result_of(capsys, workload)
    assert result["failed"] >= 1
    assert result["correct"] is False
    assert "derivative along the gradient direction" in capsys.readouterr().err


@pytest.mark.parametrize("workload", list(TINY))
def test_dropped_gradient_is_counted(tiny, capsys, monkeypatch, workload):
    # The largest parameter left without a grad by the backward pass of the
    # finite-difference check. Along the gradient itself the derivative
    # still matches, so only the random direction can tell.
    backward = tensor.backward

    def dropping(loss):
        backward(loss)
        inputs = (t for node in tensor.Graph.trace(loss).ops for t in node.inputs)
        max((t for t in inputs if t.creator is None and t.grad is not None), key=lambda t: t.size).grad = None

    monkeypatch.setattr(reference.tensor, "backward", dropping)
    result = result_of(capsys, workload)
    assert result["failed"] >= 1
    err = capsys.readouterr().err
    assert "derivative along the random direction" in err
    assert "gradient direction" not in err


@pytest.mark.parametrize("workload", list(TINY))
def test_wrong_forward_is_counted(tiny, capsys, monkeypatch, workload):
    # gelu 1% too large, with a VJP that matches it, so that only the
    # recorded reference can tell.
    _corrupt_op(monkeypatch, "gelu", forward=1.01, grads=1.01)
    result = result_of(capsys, workload)
    assert result["failed"] >= 1
    assert result["correct"] is False
    assert "golden" in capsys.readouterr().err


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_prints_every_metric_with_its_unit(tiny, capsys, workload, trace):
    result = result_of(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) and m["value"] == m["value"] for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["model.macs_match"]["value"] == 1.0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_loss_is_counted(tiny, capsys, monkeypatch):
    ce = training.label_smoothing_ce
    monkeypatch.setattr(training, "label_smoothing_ce", lambda *a: tensor.scale(ce(*a), 1.5))
    result = result_of(capsys, "paper_width")
    assert result["failed"] >= 1
    assert result["correct"] is False


def test_loss_that_changes_between_rounds_is_counted(tiny, capsys, monkeypatch):
    ce = training.label_smoothing_ce
    calls = []

    def drifting(*a):
        calls.append(None)
        loss = ce(*a)
        return tensor.scale(loss, 1.001) if len(calls) > TINY["paper_width"].steps else loss

    monkeypatch.setattr(training, "label_smoothing_ce", drifting)
    assert result_of(capsys, "paper_width")["failed"] >= 1


def test_failed_grid_cell_is_counted(tiny, capsys, monkeypatch):
    run_cell = cli._run_cell

    def flaky(cfg, label, *a):
        if label == "poster":
            raise RuntimeError("injected cell failure")
        return run_cell(cfg, label, *a)

    monkeypatch.setattr(cli, "_run_cell", flaky)
    result = result_of(capsys, "ablate_grid")
    assert result["failed"] >= 1
    assert result["correct"] is False


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "paper_width", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
