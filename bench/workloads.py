"""The ferfuse benchmark workloads: set-up, timed rounds and output checks.

Each workload is a closed loop driven by one process: the next round starts
when the previous one has returned. The first round warms up: it is checked
and its outputs become the reference that every later round is checked
against, but it is not timed. Timed rounds then repeat until the run's
seconds are spent. All inputs come from the seed.

- paper_width: the paper's shapes (P=68, widths 512/256/128, 8/4/2 heads)
  at depth 2 and batch 8, trained for a few steps per round on cluster
  data, then evaluated on the held-out half.
- ablate_grid: one ``ferfuse ablate --grid table4 --preset desk`` call per
  round, on a PFER file of XOR data written during set-up, with
  ``--workers`` equal to the core count and BLAS pinned to one thread.

With tracing on, odd rounds run traced and the other rounds untraced, so
the tracing overhead is measured in the same process.

After the last round, untimed and untraced, the outputs are also checked
against references that do not come from the build under test: see
``reference.py``.

Between rounds the benchmark runs a full garbage collection, outside the
timed region. The tape holds reference cycles (a tensor and the op that
made it point at each other), so without it tapes of earlier rounds pile
up, and the memory state, and with it the step time, drifts from round to
round. Inside a round the program's own collection behaviour is unchanged.
"""

from __future__ import annotations

import csv
import gc
import gzip
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from ferfuse import cli, data, model, tensor, training

import machine
import reference
import tracing

# A model that has not trained yet predicts nearly uniform classes, so the
# first step's loss sits within this share of ln(classes). It also holds
# with label smoothing, because the smoothed target still sums to one.
INITIAL_LOSS_TOL = 0.02
# Timed rounds repeat the warm-up round on the same inputs; their losses
# must agree with the warm-up round's to this share.
REPEAT_LOSS_RTOL = 1e-9


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    patches: int
    base_dim: int
    pyramid_dims: tuple
    depth: int
    heads_divisor: int
    num_classes: int
    per_class: int
    sigma: float
    batch_size: int
    learning_rate: float
    steps: int  # training steps per round
    eval_batch: int
    setups: int  # set-up repetitions; setup_s is their median


@dataclass(frozen=True)
class GridWorkload:
    name: str
    grid: str
    num_classes: int
    learning_rate: float
    per_class: int
    sigma: float
    steps: int  # training steps per cell
    setups: int


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            name="paper_width",
            patches=68,
            base_dim=512,
            pyramid_dims=(512, 256, 128),
            depth=2,
            heads_divisor=64,
            num_classes=7,
            per_class=4,
            sigma=1.0,
            batch_size=8,
            learning_rate=1e-3,
            steps=3,
            eval_batch=8,
            setups=3,
        ),
        GridWorkload(
            name="ablate_grid",
            grid="table4",
            num_classes=2,
            learning_rate=1e-3,
            per_class=1500,
            sigma=0.3,
            steps=20,
            setups=5,
        ),
    )
}


def train_configs(w: TrainWorkload, seed: int):
    """The model and training configuration of a paper_width round."""
    mcfg = model.ModelConfig(
        patches=w.patches,
        base_dim=w.base_dim,
        pyramid_dims=w.pyramid_dims,
        depth=w.depth,
        heads_divisor=w.heads_divisor,
        num_classes=w.num_classes,
        variant="poster",
        seed=seed,
    )
    tcfg = training.TrainConfig(batch_size=w.batch_size, learning_rate=w.learning_rate, steps=w.steps, seed=seed)
    return mcfg, tcfg


def train_inputs(w: TrainWorkload, seed: int):
    """The (train, held-out) halves of a paper_width run's data."""
    ds = data.gen_clusters(w.patches, w.base_dim, w.num_classes, w.per_class, w.sigma, seed)
    return data.split_dataset(ds, 0.5, seed=seed)


def grid_config(w: GridWorkload, seed: int):
    """The ``ablate`` call's configuration: the desk preset and the flags it is given."""
    flags = {"num_classes": w.num_classes, "learning_rate": w.learning_rate, "steps": w.steps, "seed": seed}
    return cli.RunConfig(**{**cli.PRESETS["desk"], **flags})


def grid_inputs(w: GridWorkload, seed: int):
    desk = cli.PRESETS["desk"]
    return data.gen_xor(desk["patches"], desk["base_dim"], w.per_class, w.sigma, seed)


def reference_cases(w, seed: int):
    """(key, (model config, train config, train, held-out, eval batch)) of
    every model configuration the workload runs, for ``reference.golden``."""
    if isinstance(w, TrainWorkload):
        mcfg, tcfg = train_configs(w, seed)
        yield w.name, (mcfg, tcfg, *train_inputs(w, seed), w.eval_batch)
        return
    cfg = grid_config(w, seed)
    # ablate splits its data like this when it is given no test file.
    train, held_out = data.split_dataset(grid_inputs(w, seed), 0.8, seed=seed)
    eval_batch = 256  # evaluate's default, which ablate's cells use
    for label, overrides in cli.grid_cells(w.grid, cfg):
        yield f"{w.name}/{label}", (cfg.model_config(**overrides), cfg.train_config(), train, held_out, eval_batch)


class Checks:
    """Counts operations attempted and failed; names each failure on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, count: int, what: str) -> None:
        self.failed += count
        print(f"check failed ({count}): {what}", file=sys.stderr)


def _median(values) -> float:
    return statistics.median(values)


def _p90(values) -> float:
    # Inclusive method: for a few samples (paper_width has about twenty
    # steps per run) it interpolates inside the range instead of past it.
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _deltas(log) -> list:
    seconds = [0.0] + [row[3] for row in log]
    return [b - a for a, b in zip(seconds, seconds[1:])]


def _timed_rounds(do_round, seconds: float, tracer) -> None:
    """Run the warm-up round, then timed rounds for ``seconds``.

    A timed round is not started when one more round of the last round's
    length would run past ``seconds``, but at least one runs; with a tracer
    at least two, since odd rounds are traced and even ones are not.
    """
    min_timed = 1 if tracer is None else 2
    i = 0
    start = last = None
    while True:
        traced = tracer is not None and i % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        began = time.perf_counter()
        try:
            do_round(i, traced)
        finally:
            if traced:
                tracer.uninstall()
        end = time.perf_counter()
        if i == 0:
            start = end
        else:
            last = end - began
        if i >= min_timed and end - start + last > seconds:
            return
        i += 1


def _timed_setups(setup, reps: int, tracer):
    """Median set-up seconds over ``reps`` runs, and the last run's result.

    With a tracer, the last set-up runs traced, so the data layer shows in
    the spans.
    """
    times = []
    result = None
    for i in range(reps):
        result = None  # free the previous set-up before building the next
        traced = tracer is not None and i == reps - 1
        if traced:
            tracer.install()
        try:
            start = time.perf_counter()
            result = setup()
            times.append(time.perf_counter() - start)
        finally:
            if traced:
                tracer.uninstall()
    return _median(times), result


class _Run:
    """Timings and checks shared by the workload runners.

    Only timed rounds (after the warm-up) add samples. Steps are kept apart
    by whether their round was traced; the other timings come from
    untraced rounds only.
    """

    workers = 1

    def __init__(self, w, seed: int, scratch: Path, checks: Checks):
        self.w = w
        self.seed = seed
        self.scratch = scratch
        self.checks = checks
        self.reference = None  # outputs of round 0, which later rounds must repeat
        self.steps = {False: [], True: []}  # step seconds, by traced
        self.eval_rates: list = []  # held-out samples per second
        self.walls: list = []  # seconds per round

    def check_golden(self) -> None:
        """Compare each configuration's outputs at the reference seed with
        the recorded ones."""
        expected = reference.load()
        for key, case in reference_cases(self.w, reference.REFERENCE_SEED):
            self.checks.attempted += 1
            try:
                bad = reference.golden_mismatches(reference.golden(*case), expected[key])
            except tensor.NonFiniteError as e:
                bad = [str(e)]
            if bad:
                self.checks.fail(1, f"golden {key}: {'; '.join(bad)}")

    def check_gradients(self) -> None:
        """Finite-difference check of ``backward`` on this run's inputs."""
        for key, mcfg, params, dataset, batch in self.gradient_cases():
            self.checks.attempted += 2  # one per direction
            try:
                errors = reference.directional(mcfg, params, dataset, batch, self.seed)
            except tensor.NonFiniteError as e:
                self.checks.fail(2, f"{key}: {e}")
                continue
            for kind, err in errors.items():
                if not err <= reference.DIRECTIONAL_RTOL:
                    self.checks.fail(1, f"{key}: derivative along the {kind} direction off by {err:.2e} (relative)")

    def end_to_end(self) -> dict:
        steps = self.steps[False]
        if not steps:
            raise RuntimeError(f"{self.w.name}: no timed round completed")
        return {
            "step_ms_p50": (_median(steps) * 1e3, "ms"),
            "step_ms_p90": (_p90(steps) * 1e3, "ms"),
            "eval_samples_per_s": (_median(self.eval_rates), "samples/s"),
            "grid_wall_s": (_median(self.walls), "s"),
        }


class TrainRun(_Run):
    """paper_width: train a fixed number of steps, then evaluate.

    Every round starts from the same initial parameters and batch order, so
    a timed round's losses repeat the warm-up round's.
    """

    def __init__(self, w: TrainWorkload, seed: int, scratch: Path, checks: Checks):
        super().__init__(w, seed, scratch, checks)
        self.mcfg, self.tcfg = train_configs(w, seed)

    def setup(self):
        return (*train_inputs(self.w, self.seed), model.build_params(self.mcfg))

    def start(self, inputs) -> None:
        self.train, self.held_out, self.params = inputs
        self.initial = {name: t.data.copy() for name, t in self.params.named.items()}

    def gradient_cases(self):
        yield self.w.name, self.mcfg, self.params, self.train, self.w.batch_size

    def round(self, i: int, traced: bool) -> None:
        w, checks = self.w, self.checks
        for name, t in self.params.named.items():
            t.data = self.initial[name].copy()
            t.grad = None
        checks.attempted += w.steps + 1
        start = time.perf_counter()
        try:
            result = training.train_loop(self.mcfg, self.tcfg, self.train, params=self.params)
        except tensor.NonFiniteError as e:
            checks.fail(w.steps + 1, f"round {i}: {e}")
            return
        began = time.perf_counter()
        training.evaluate(result.params, self.mcfg, self.held_out, batch_size=w.eval_batch)
        end = time.perf_counter()
        self.check_round(i, [row[1] for row in result.log])
        if i == 0:
            return
        self.steps[traced].extend(_deltas(result.log))
        if not traced:
            self.eval_rates.append(len(self.held_out) / (end - began))
            self.walls.append(end - start)

    def check_round(self, i: int, losses: list) -> None:
        w = self.w
        if len(losses) != w.steps:
            self.checks.fail(w.steps, f"round {i}: {len(losses)} steps logged, expected {w.steps}")
            return
        bad = {k for k, loss in enumerate(losses) if not math.isfinite(loss)}
        initial = math.log(w.num_classes)
        if not abs(losses[0] - initial) <= INITIAL_LOSS_TOL * initial:
            bad.add(0)
        if self.reference is None:
            self.reference = losses
        else:
            bad.update(
                k for k, (loss, ref) in enumerate(zip(losses, self.reference))
                if not math.isclose(loss, ref, rel_tol=REPEAT_LOSS_RTOL)
            )
        if bad:
            self.checks.fail(len(bad), f"round {i}: losses at steps {sorted(k + 1 for k in bad)} of {losses}")

    def summary(self) -> str:
        n = len(self.steps[False])
        return (
            f"{self.w.name}: {len(self.walls)} timed untraced rounds of {self.w.steps} steps, "
            f"{n} timed steps ({n - math.ceil(0.9 * n)} beyond p90), "
            f"{len(self.eval_rates)} evaluations of {len(self.held_out)} held-out samples"
        )


class GridRun(_Run):
    """ablate_grid: one ``ablate`` CLI call per round."""

    def __init__(self, w: GridWorkload, seed: int, scratch: Path, checks: Checks):
        super().__init__(w, seed, scratch, checks)
        self.workers = machine.nproc()
        self.pfer = scratch / "grid.pfer"
        self.cfg = grid_config(w, seed)
        self.labels = [label for label, _ in cli.grid_cells(w.grid, self.cfg)]
        self._cell_steps: list = []
        self._evals: list = []

    def setup(self):
        ds = grid_inputs(self.w, self.seed)
        data.write_features(ds, self.pfer)
        return ds

    def start(self, inputs) -> None:
        self.dataset = inputs

    def gradient_cases(self):
        for label, overrides in cli.grid_cells(self.w.grid, self.cfg):
            mcfg = self.cfg.model_config(**overrides)
            yield f"{self.w.name}/{label}", mcfg, model.build_params(mcfg), self.dataset, self.cfg.batch_size

    # cli runs each cell as train_loop then evaluate, imported by name.
    # These probes stand in at cli's names and call through the training
    # module, so the step log and evaluation time of every cell are seen.
    def _train_probe(self, *args, **kwargs):
        result = training.train_loop(*args, **kwargs)
        self._cell_steps.extend(_deltas(result.log))
        return result

    def _evaluate_probe(self, params, cfg, dataset, *args, **kwargs):
        start = time.perf_counter()
        report = training.evaluate(params, cfg, dataset, *args, **kwargs)
        self._evals.append((len(dataset), time.perf_counter() - start))
        return report

    def round(self, i: int, traced: bool) -> None:
        w, checks = self.w, self.checks
        out = self.scratch / f"grid{i}"
        argv = ["ablate", "--grid", w.grid, "--preset", "desk",
                "--num-classes", str(w.num_classes), "--learning-rate", str(w.learning_rate),
                "--steps", str(w.steps), "--seed", str(self.seed), "--data", str(self.pfer),
                "--workers", str(self.workers), "--out", str(out)]
        self._cell_steps, self._evals = [], []
        saved = cli.train_loop, cli.evaluate
        cli.train_loop, cli.evaluate = self._train_probe, self._evaluate_probe
        try:
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        finally:
            cli.train_loop, cli.evaluate = saved
        checks.attempted += len(self.labels)
        if code != 0:
            checks.fail(len(self.labels), f"round {i}: ablate exited with {code}")
            return
        self.check_round(i, out)
        shutil.rmtree(out)
        if i == 0:
            return
        self.steps[traced].extend(self._cell_steps)
        if not traced:
            self.eval_rates.append(sum(n for n, _ in self._evals) / sum(s for _, s in self._evals))
            self.walls.append(wall)

    def check_round(self, i: int, out: Path) -> None:
        checks = self.checks
        with open(out / "results.csv", newline="") as f:
            rows = {row["variant"]: row for row in csv.DictReader(f)}
        errored = set()
        if (out / "errors.csv").exists():
            with open(out / "errors.csv", newline="") as f:
                errored = {row["variant"] for row in csv.DictReader(f)}
        bad = {label for label in self.labels if label not in rows or label in errored}
        if self.reference is None:
            self.reference = rows
        else:
            bad.update(label for label in self.labels if rows.get(label) != self.reference.get(label))
        if bad:
            checks.fail(len(bad), f"round {i}: cells missing, failed or changed: {sorted(bad)}")

    def summary(self) -> str:
        n = len(self.steps[False])
        return (
            f"{self.w.name}: {len(self.walls)} timed untraced grids of {len(self.labels)} cells x {self.w.steps} steps, "
            f"{self.workers} workers, {n} timed steps ({n - math.ceil(0.9 * n)} beyond p90)"
        )


def run(w, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=out_dir))
    try:
        gemm = machine.gemm_gmacs()
        print("machine", json.dumps(machine.machine_block(gemm)))
        checks = Checks()
        runner = (TrainRun if isinstance(w, TrainWorkload) else GridRun)(w, seed, scratch, checks)
        tracer = tracing.Tracer() if trace else None
        setup_s, inputs = _timed_setups(runner.setup, w.setups, tracer)
        runner.start(inputs)
        _timed_rounds(runner.round, seconds, tracer)
        print(runner.summary())
        # Read before the reference checks, whose memory is not the workload's.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gc.collect()
        runner.check_gradients()
        runner.check_golden()
        if trace:
            untraced, traced = runner.steps[False], runner.steps[True]
            metrics = tracing.layer_metrics(
                tracer.spans,
                gemm,
                untraced_step_ms=_median(untraced) * 1e3,
                traced_step_ms=_median(traced) * 1e3,
                workers=runner.workers,
            )
            if metrics["model.macs_match"]["value"] != 1.0:
                checks.fail(1, "traced forward matmul MACs differ from estimate_flops x batch")
            spans_path = out_dir / f"{w.name}-seed{seed}-spans.tsv.gz"
            with gzip.open(spans_path, "wt", compresslevel=1) as f:
                tracing.write_spans(tracer.spans, f)
            print(f"spans: {len(tracer.spans)} written to {spans_path}")
            print(f"unmeasured modules (on no workload's hot path): {', '.join(tracing.UNMEASURED)}")
        else:
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in runner.end_to_end().items()}
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
            metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
