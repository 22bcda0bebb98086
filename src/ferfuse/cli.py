"""Command-line front end: data generation, training, evaluation, ablation
grids, gradient checking, parameter accounting, and relevance rendering.

Config resolution order is defaults < preset < JSON file < flags. The
effective config is echoed to the output directory as JSON; replaying a
command with that file and no extra flags reproduces the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import field, fields, make_dataclass
from pathlib import Path

import numpy as np

from .binio import FileFormatError, write_csv, write_json
from .checkpoint import load_model
from .data import FeatureDataset, gen_clusters, gen_xor, read_features, split_dataset, write_features
from .metrics import round_percent, write_confusion_csv, write_metrics_csv
from .model import VARIANTS, ModelConfig, build_params, count_params, estimate_flops, estimate_memory, forward
from .relevance import (
    capture_attention,
    near_square_layout,
    render_map,
    stream_relevance,
    write_pgm,
    write_scores_csv,
)
from .tensor import NonFiniteError, ShapeError, Tensor, finite_diff_check
from .training import TrainConfig, check_fits, evaluate, label_smoothing_ce, train_loop


_MODEL_KEYS = tuple(f.name for f in fields(ModelConfig))
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))  # seed is shared by both configs


class _RunConfigMethods:
    def model_config(self, **overrides) -> ModelConfig:
        d = {k: getattr(self, k) for k in _MODEL_KEYS}
        d.update(overrides)
        return ModelConfig.from_dict(d)

    def train_config(self, **overrides) -> TrainConfig:
        d = {k: getattr(self, k) for k in _TRAIN_KEYS}
        d.update(overrides)
        return TrainConfig(**d)

    to_dict = ModelConfig.to_dict  # every field, pyramid_dims as a list


# Every ModelConfig field, then the TrainConfig fields the model config lacks.
RunConfig = make_dataclass(
    "RunConfig",
    [
        (f.name, f.type, field(default=f.default))
        for f in fields(ModelConfig) + tuple(f for f in fields(TrainConfig) if f.name not in _MODEL_KEYS)
    ],
    bases=(_RunConfigMethods,),
    namespace={
        "__module__": __name__,
        "__doc__": "Flat union of the model and training knobs, one JSON key per field.",
    },
)

_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))

PRESETS = {
    # desk: the small everything-checkable configuration used by the tests
    "desk": {
        "patches": 8,
        "base_dim": 32,
        "pyramid_dims": (32, 16, 8),
        "depth": 2,
        "heads_divisor": 16,
        "num_classes": 7,
        "batch_size": 64,
        "learning_rate": 2e-3,
        "steps": 300,
    },
}


class CliError(Exception):
    pass


def _parse_dims(value) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(value)  # ModelConfig checks that each entry is an integer
    try:
        return tuple(int(v) for v in str(value).split(",") if v.strip())
    except ValueError:
        raise CliError(f"cannot parse pyramid dims from {value!r}") from None


def resolve_config(args) -> RunConfig:
    values = {f.name: f.default for f in fields(RunConfig)}
    preset = getattr(args, "preset", None)
    if preset:
        values.update(PRESETS[preset])
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as f:
            loaded = json.load(f)
        unknown = set(loaded) - set(_CONFIG_KEYS)
        if unknown:
            raise CliError(f"unknown config keys in {config_path}: {sorted(unknown)}")
        values.update(loaded)
    for key in _CONFIG_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    values["pyramid_dims"] = _parse_dims(values["pyramid_dims"])
    if values.get("swap_depth") == -1:
        values["swap_depth"] = None
    cfg = RunConfig(**values)
    # Build both configs eagerly so bad values fail before any work.
    cfg.model_config()
    cfg.train_config()
    return cfg


def write_effective_config(cfg: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(cfg.to_dict(), out_dir / "effective_config.json")


# What a config flag needs beyond its field's name and type.
_FLAG_ALIASES = {"learning_rate": ("--lr",)}
_FLAG_OPTIONS = {
    "pyramid_dims": {"help": "comma separated, e.g. 512,256,128"},
    "swap_depth": {"help": "-1 means swap in every block"},
    "variant": {"choices": VARIANTS},
}


def _add_config_flags(parser) -> None:
    """``--config``, ``--preset``, then one flag per RunConfig field, ``--`` plus its name with ``-`` for ``_``,
    typed by the field: ``int | None`` as int, the tuple as text for ``_parse_dims``, a bool as ``--x/--no-x``."""
    g = parser.add_argument_group("config", "defaults < --preset < --config file < flags")
    g.add_argument("--config", type=Path, help="JSON config file")
    g.add_argument("--preset", choices=sorted(PRESETS), help="named base configuration")
    hints = typing.get_type_hints(RunConfig)
    for f in fields(RunConfig):
        kind = (typing.get_args(hints[f.name]) or (hints[f.name],))[0]
        typed = {"action": argparse.BooleanOptionalAction} if kind is bool else {"type": str if kind is tuple else kind}
        flag = "--" + f.name.replace("_", "-")
        g.add_argument(flag, *_FLAG_ALIASES.get(f.name, ()), **typed, **_FLAG_OPTIONS.get(f.name, {}))


def _load_features(path) -> FeatureDataset:
    path = Path(path)
    if not path.exists():
        raise CliError(f"data file not found: {path}")
    return read_features(path)


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    if args.task == "clusters":
        if args.classes is None:
            raise CliError("clusters data needs --classes")
        ds = gen_clusters(args.p, args.d, args.classes, args.count, args.sigma, args.seed)
    else:
        if args.classes not in (None, 2):
            raise CliError("xor data is binary; drop --classes or pass 2")
        ds = gen_xor(args.p, args.d, args.count, args.sigma, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_features(ds, out)
    print(f"wrote {len(ds)} samples (P={ds.patches}, D={ds.dim}, classes={ds.num_classes}) to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    train_ds = _load_features(args.data)
    mcfg = cfg.model_config()
    tcfg = cfg.train_config()
    check_fits(mcfg, train_ds)  # a misfit leaves no output directory behind
    out_dir = Path(args.out)
    write_effective_config(cfg, out_dir)
    result = train_loop(mcfg, tcfg, train_ds, out_dir=out_dir)
    print(f"trained {mcfg.variant} for {tcfg.steps} steps, final loss {result.log[-1][1]:.6f}")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    params, mcfg = load_model(args.checkpoint)
    ds = _load_features(args.data)
    report = evaluate(params, mcfg, ds)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_confusion_csv(report.confusion, out_dir / "confusion.csv")
    write_metrics_csv(report, out_dir / "metrics.csv")
    names = report.confusion.class_names
    percents = ([name] + [f"{v:.2f}" for v in round_percent(row)] for name, row in zip(names, report.row_percentages))
    write_csv(out_dir / "prediction_percent.csv", ["truth\\pred"] + names, percents)
    print(f"accuracy {100*report.accuracy:.2f}%  mean class accuracy {100*report.mean_class_accuracy:.2f}%")
    return 0


def _stable_seed(master: int, label: str, seed_index: int) -> int:
    digest = hashlib.sha256(f"{master}:{label}:{seed_index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def grid_cells(name: str, cfg: RunConfig) -> list:
    """(label, model-config overrides) pairs for one ablation grid."""
    if name == "table4":
        return [(v, {"variant": v}) for v in VARIANTS]
    if name == "pyramid":
        chains = []
        for k in range(1, 5):
            dims = tuple(cfg.base_dim // (2**j) for j in range(k))
            if any(d < 1 for d in dims) or len(set(dims)) != len(dims):
                raise CliError(f"base_dim {cfg.base_dim} cannot form a {k}-level pyramid")
            chains.append(dims)
        return [(f"levels_{'x'.join(str(d) for d in dims)}", {"variant": "poster", "pyramid_dims": dims}) for dims in chains]
    if name == "swapdepth":
        rows = [("no_swap", 0), ("swap_first_1", 1), ("swap_first_2", 2), ("swap_first_4", 4), ("swap_all", None)]
        cells = []
        for label, k in rows:
            value = cfg.depth if k is None else min(k, cfg.depth)
            cells.append((label, {"variant": "poster", "swap_depth": value}))
        return cells
    if name == "depth":
        return [(f"depth_{k}", {"depth": k, "swap_depth": None}) for k in (1, 2, 4, 6, 8)]
    raise CliError(f"unknown grid {name!r}")


def _run_cell(cfg: RunConfig, label: str, overrides: dict, seed_index: int, train_ds, test_ds):
    cell_seed = _stable_seed(cfg.seed, label, seed_index)
    mcfg = cfg.model_config(seed=cell_seed, **overrides)
    tcfg = cfg.train_config(seed=cell_seed)
    result = train_loop(mcfg, tcfg, train_ds)
    report = evaluate(result.params, mcfg, test_ds)
    acc, mean_acc = 100.0 * report.accuracy, 100.0 * report.mean_class_accuracy
    return [label, seed_index, acc, mean_acc, count_params(mcfg)["total"], estimate_flops(mcfg)["total"]]


def cmd_ablate(args) -> int:
    if args.workers < 1:
        raise CliError(f"--workers must be >= 1, got {args.workers}")
    if args.seeds < 1:
        raise CliError(f"--seeds must be >= 1, got {args.seeds}")
    cfg = resolve_config(args)
    train_ds = _load_features(args.data)
    if args.test_data:
        test_ds = _load_features(args.test_data)
    else:
        train_ds, test_ds = split_dataset(train_ds, 0.8, seed=cfg.seed)
    for ds in (train_ds, test_ds):  # no cell changes patches, base_dim or num_classes
        check_fits(cfg.model_config(), ds)
    out_dir = Path(args.out)
    write_effective_config(cfg, out_dir)
    cells = grid_cells(args.grid, cfg)
    jobs = [(label, overrides, s) for label, overrides in cells for s in range(args.seeds)]

    def run(job):  # (results row, None) or (None, errors row)
        label, overrides, s = job
        try:
            return _run_cell(cfg, label, overrides, s, train_ds, test_ds), None
        except Exception as e:  # cell failures are recorded, the grid continues
            return None, [label, s, f"{type(e).__name__}: {e}"]

    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        outcomes = list(pool.map(run, jobs))  # in job order: by cell, then seed
    rows = [row for row, _ in outcomes if row]
    errors = [error for _, error in outcomes if error]
    write_csv(out_dir / "results.csv", ["variant", "seed", "acc", "mean_acc", "params", "flops"], rows)
    summary = []
    for label, _ in cells:
        got = [r for r in rows if r[0] == label]
        if not got:
            continue
        accs, maccs = (np.array([r[i] for r in got]) for i in (2, 3))
        summary.append([label, accs.mean(), accs.std(), maccs.mean(), maccs.std(), *got[0][4:]])
        print(
            f"{label:24s} acc {accs.mean():6.2f} +- {accs.std():5.2f}   "
            f"mean acc {maccs.mean():6.2f} +- {maccs.std():5.2f}"
        )
    header = ["variant", "acc_mean", "acc_std", "mean_acc_mean", "mean_acc_std", "params", "flops"]
    write_csv(out_dir / "summary.csv", header, summary)
    if errors:
        write_csv(out_dir / "errors.csv", ["variant", "seed", "error"], errors)
        print(f"{len(errors)} cell(s) failed; see errors.csv", file=sys.stderr)
    return 0


def cmd_gradcheck(args) -> int:
    cfg = resolve_config(args)
    mcfg = cfg.model_config()
    params = build_params(mcfg)
    rng = np.random.default_rng([cfg.seed, 71])
    x_img = Tensor(rng.standard_normal((2, mcfg.patches, mcfg.base_dim)))
    x_lm = Tensor(rng.standard_normal((2, mcfg.patches, mcfg.base_dim)))
    labels = rng.integers(0, mcfg.num_classes, size=2)

    def f():
        logits = forward(x_img, x_lm, params, mcfg, training=False)
        return label_smoothing_ce(logits, labels, mcfg.label_smoothing)

    report = finite_diff_check(
        f,
        params.named,
        h=args.h,
        tol=args.tol,
        samples_per_param=args.samples,
        rng=np.random.default_rng([cfg.seed, 73]),
    )
    print(f"checked {sum(p.checked for p in report.params)} entries over {len(report.params)} tensors")
    print(f"worst relative error {report.max_rel_err:.3e} (tol {report.tol:.1e}): "
          f"{'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_params(args) -> int:
    cfg = resolve_config(args)
    mcfg = cfg.model_config()
    counts = count_params(mcfg)
    flops = estimate_flops(mcfg)
    print(f"variant {mcfg.variant}, levels {list(mcfg.level_dims())}, depth {mcfg.depth}")
    for lvl in counts["per_level"]:
        print(f"  level dim {lvl['dim']:4d}: projections {lvl['projections']:>12,d}  blocks {lvl['blocks']:>12,d}")
    print(f"  head: {counts['head']:,d}")
    print(f"params: projections {counts['projections']:,d}  blocks {counts['blocks']:,d}  total {counts['total']:,d}")
    print(
        "flops (MACs/sample): "
        f"projections {flops['projections']:,d}  attention {flops['attention_linear'] + flops['attention_scores']:,d}  "
        f"mlp {flops['mlp']:,d}  head {flops['head']:,d}  total {flops['total']:,d}"
    )
    mem = estimate_memory(mcfg)
    print(
        f"memory (bytes): tape {mem['per_sample']['total']:,d}/sample + {mem['constant']['total']:,d}  "
        f"adam {mem['adam']:,d}"
    )
    print(flops["formula"])
    print(mem["formula"])
    return 0


def cmd_visualize(args) -> int:
    params, mcfg = load_model(args.checkpoint)
    if not mcfg.layout.two_stream:
        raise CliError(f"visualize needs a two-stream variant checkpoint, got {mcfg.variant!r}")
    ds = _load_features(args.data)
    check_fits(mcfg, ds)
    if not 0 <= args.sample < len(ds):
        raise CliError(f"sample index {args.sample} out of range [0, {len(ds)})")
    x_img, x_lm, _ = ds.sample(args.sample)
    target = args.target_class
    captured = capture_attention(params, mcfg, x_img, x_lm, target)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    layout = near_square_layout(mcfg.patches)
    for stream in ("img", "lm"):
        rel = stream_relevance(captured, stream)
        write_pgm(out_dir / f"relevance_{stream}.pgm", render_map(rel.per_patch, layout))
        write_scores_csv(out_dir / f"relevance_{stream}.csv", rel.per_patch)
    print(f"wrote relevance_img.pgm and relevance_lm.pgm to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ferfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic PFER feature file")
    p.add_argument("--task", choices=["clusters", "xor"], required=True)
    p.add_argument("--p", type=int, default=8, help="patches per stream")
    p.add_argument("--d", type=int, default=32, help="feature dim per patch")
    p.add_argument("--classes", type=int, default=None, help="class count (clusters only)")
    p.add_argument("--count", type=int, required=True, help="samples per class")
    p.add_argument("--sigma", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a variant on a PFER file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a PFER file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run an ablation grid")
    p.add_argument("--data", required=True)
    p.add_argument("--test-data", dest="test_data", default=None, help="held-out PFER file; default 80/20 split")
    p.add_argument("--grid", choices=["table4", "pyramid", "swapdepth", "depth"], required=True)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of the configured model")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--samples", type=int, default=3, help="entries checked per parameter tensor")
    _add_config_flags(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("params", help="print parameter and FLOP accounting")
    _add_config_flags(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("visualize", help="render per-stream relevance maps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--sample", type=int, default=0)
    p.add_argument("--class", dest="target_class", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_visualize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, FileFormatError, ShapeError, ValueError, KeyError, FileNotFoundError, NonFiniteError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
