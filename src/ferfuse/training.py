"""Label-smoothing cross-entropy, Adam, and the seeded train/eval loops.

Everything downstream of the seed is deterministic: the per-step rng is
derived from (seed, step) alone, so two runs with the same config and data
produce identical parameters, losses, and reports. Wall-clock seconds in
the training log are the only nondeterministic output column.

Ownership of parameter memory: ``init_adam_state`` (run once per
``train_loop``) packs every parameter into one flat arena, rebinds each
``data`` to its view and keeps the ``TrainConfig``, the one source of
Adam's rates. After that nothing may rebind a parameter's ``data``;
``adam_step`` raises if one was. Copy new values into the view instead,
with ``t.data[...] = values``. ``train_loop`` feeds ``tensor.leaf_grads`` to
``adam_step``, so a gradient lives only until the update of its span.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics
from .binio import csv_rows
from .checkpoint import save_model
from .data import FeatureDataset
from .model import ModelConfig, ModelParams, build_params, check_fields, forward
from .tensor import NonFiniteError, Tensor, cross_entropy, leaf_grads


@dataclass
class TrainConfig:
    batch_size: int = 100
    learning_rate: float = 4e-5
    steps: int = 500
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    checkpoint_every: int = 0  # 0: only the final checkpoint

    def __post_init__(self):
        check_fields(self, {"batch_size": 1, "steps": 1, "checkpoint_every": 0})
        if not 0 < self.learning_rate < float("inf"):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {beta}")
        if not 0 < self.adam_eps < float("inf"):
            raise ValueError(f"adam_eps must be finite and > 0, got {self.adam_eps}")


def label_smoothing_ce(logits: Tensor, labels, smoothing: float) -> Tensor:
    """Mean over the batch of -sum_c q_c * log softmax(logits)_c, one
    ``cross_entropy`` op, with the smoothed target q = (1 - eps) * onehot + eps / N."""
    if logits.ndim != 2:
        raise ValueError(f"logits must be (batch, classes), got {logits.shape}")
    if not 0.0 <= smoothing < 1.0:
        raise ValueError(f"smoothing must be in [0, 1), got {smoothing}")
    labels = np.asarray(labels, dtype=np.int64)
    b, n = logits.shape
    if labels.shape != (b,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {b}")
    if len(labels) == 0:
        raise ValueError("empty batch")
    if labels.min() < 0 or labels.max() >= n:
        raise ValueError(f"labels out of range [0, {n})")
    q = np.full((b, n), smoothing / n)
    q[np.arange(b), labels] += 1.0 - smoothing
    return cross_entropy(logits, q)


# Entries updated together: the update is elementwise, so running it over
# spans of at most this many entries keeps its temporaries in cache
# without changing any result bit.
_ADAM_CHUNK = 1 << 14


@dataclass
class OptimizerState:
    """Adam over a flat arena, bound once to the parameters ``named`` and to
    ``cfg``, whose ``learning_rate``, betas and ``adam_eps`` every step applies.

    ``flat`` holds the arena and the two moment buffers, each with every
    parameter end to end, in order; ``views``, ``m`` and ``v`` map each
    name to its view into them. ``spans`` lists (lo, hi, names): a run of
    consecutive tensors of at most ``_ADAM_CHUNK`` entries in all, or one
    larger tensor; ``where`` maps each parameter's ``id`` to (span, name).
    """

    named: dict
    cfg: TrainConfig
    flat: tuple
    views: dict
    m: dict
    v: dict
    spans: list
    where: dict
    step: int = 0


def init_adam_state(named, cfg: TrainConfig) -> OptimizerState:
    """Pack every parameter of ``named``, in order, into one arena for Adam at ``cfg``'s rates.

    Each ``t.data`` is copied into the arena and rebound to its view there.
    From then on nothing may rebind a parameter's ``data``: ``adam_step``
    updates the arena and raises if a tensor no longer reads it. Copy
    into ``t.data`` instead.
    """
    offsets = np.cumsum([0] + [t.size for t in named.values()]).tolist()
    flat = tuple(np.zeros(offsets[-1]) for _ in range(3))
    views, m, v, spans, where = {}, {}, {}, [], {}
    for (name, t), lo, hi in zip(named.items(), offsets, offsets[1:]):
        views[name], m[name], v[name] = (a[lo:hi].reshape(t.shape) for a in flat)
        views[name][...] = t.data
        t.data = views[name]
        if spans and hi - spans[-1][0] <= _ADAM_CHUNK:
            spans[-1][1] = hi
            spans[-1][2].append(name)
        else:
            spans.append([lo, hi, [name]])
        where[id(t)] = (len(spans) - 1, name)
    return OptimizerState(dict(named), cfg, flat, views, m, v, spans, where)


def adam_step(state: OptimizerState, grads) -> None:
    """One bias-corrected Adam update of ``state``'s arena, in place, at
    ``state.cfg``'s rates, from ``grads``: ``(tensor, grad)`` pairs such as
    ``tensor.leaf_grads(loss)``.

    A span is updated, and its grads dropped, as soon as the last grad of
    its tensors arrives; spans still short of one when the pairs run out
    are updated last, with zeros for the missing grads. Span updates are
    independent and bitwise ``p - lr * (m / bc1) / (sqrt(v / bc2) + eps)``,
    so their order changes no bit. A span's grads are gathered into one
    temporary of at most ``_ADAM_CHUNK`` entries; a larger tensor is read
    from its own grad.

    Raises ValueError before any update if a parameter's ``data`` is no
    longer its arena view, and before a grad's span updates if the grad has
    the wrong shape, is for a tensor outside the state or is given twice.
    ``state.step`` counts the calls that updated a span.
    """
    for name, p in state.named.items():
        if p.data is not state.views[name]:
            raise ValueError(f"param {name!r} was rebound after init_adam_state; copy into its data instead")
    lr, beta1, beta2, eps = state.cfg.learning_rate, state.cfg.beta1, state.cfg.beta2, state.cfg.adam_eps
    t = state.step + 1
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    arena, m, v = state.flat
    got = [{} for _ in state.spans]  # per span, name -> grad; None once updated

    def update(k):
        lo, hi, names = state.spans[k]
        span, got[k] = got[k], None
        parts = [span[name] if name in span else np.zeros(state.views[name].shape) for name in names]
        g = parts[0].reshape(-1) if len(parts) == 1 else np.concatenate(parts, axis=None)
        state.step = t
        for a in range(lo, hi, _ADAM_CHUNK):
            s = slice(a, min(a + _ADAM_CHUNK, hi))
            _adam_update(arena[s], g[a - lo : s.stop - lo], m[s], v[s], lr, beta1, beta2, eps, bc1, bc2)

    for p, g in grads:
        k, name = state.where.get(id(p), (None, None))
        if k is None:
            raise ValueError(f"gradient for a tensor of shape {p.shape} that is not a parameter of this state")
        if got[k] is None or name in got[k]:
            raise ValueError(f"gradient for param {name!r} given twice")
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match param {name!r} {p.shape}")
        got[k][name] = g
        if len(got[k]) == len(state.spans[k][2]):
            update(k)
    for k, span in enumerate(got):
        if span is not None:
            update(k)


def _adam_update(p, g, m, v, lr, beta1, beta2, eps, bc1, bc2) -> None:
    step = np.multiply(g, 1.0 - beta1)
    m *= beta1
    m += step
    np.multiply(g, 1.0 - beta2, out=step)
    step *= g
    v *= beta2
    v += step
    denom = np.divide(v, bc2)
    np.sqrt(denom, out=denom)
    denom += eps
    np.divide(m, bc1, out=step)
    step *= lr
    step /= denom
    p -= step


@dataclass
class TrainResult:
    params: ModelParams
    log: list  # rows of (step, loss, lr, seconds)
    checkpoint_path: Path | None = None


def _step_rng(seed: int, step: int) -> np.random.Generator:
    return np.random.default_rng([seed, 101, step])


def _batch_tensors(dataset: FeatureDataset, idx):
    return (
        Tensor(dataset.x_img[idx]),
        Tensor(dataset.x_lm[idx]),
        dataset.labels[idx],
    )


def check_fits(cfg: ModelConfig, dataset: FeatureDataset) -> None:
    """Raise ValueError unless ``dataset`` has the model's patch count and
    feature width, and no more classes than the model predicts."""
    if (dataset.patches, dataset.dim) != (cfg.patches, cfg.base_dim) or dataset.num_classes > cfg.num_classes:
        raise ValueError(
            f"data (P={dataset.patches}, D={dataset.dim}, {dataset.num_classes} classes) does not fit the model "
            f"(patches={cfg.patches}, base_dim={cfg.base_dim}, num_classes={cfg.num_classes})"
        )


def train_loop(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    dataset: FeatureDataset,
    out_dir=None,
    params: ModelParams | None = None,
    clock=time.perf_counter,
) -> TrainResult:
    """Train ``model_cfg`` on ``dataset`` and return the final parameters.

    When ``out_dir`` is given, writes train_log.csv (step,loss,lr,seconds),
    periodic checkpoints per ``checkpoint_every``, and checkpoint_final.pckpt,
    each with its ``model_cfg`` beside it as ``<checkpoint>.json``. The log
    gets its header first and each row, flushed, as its step ends, so a run
    that stops leaves the rows of the steps it finished.
    A non-finite loss aborts with a diagnostic naming the step.
    """
    if len(dataset) == 0:
        raise ValueError("empty training dataset")
    check_fits(model_cfg, dataset)
    if params is None:
        params = build_params(model_cfg)
    state = init_adam_state(params.named, train_cfg)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    log = []
    start = clock()
    batch = min(train_cfg.batch_size, len(dataset))
    header = ["step", "loss", "lr", "seconds"]
    with nullcontext(lambda row: None) if out_path is None else csv_rows(out_path / "train_log.csv", header) as write_row:
        for step in range(1, train_cfg.steps + 1):
            rng = _step_rng(train_cfg.seed, step)
            idx = rng.choice(len(dataset), size=batch, replace=False)
            x_img, x_lm, labels = _batch_tensors(dataset, idx)
            try:
                logits = forward(x_img, x_lm, params, model_cfg, training=True, rng=rng)
                loss = label_smoothing_ce(logits, labels, model_cfg.label_smoothing)
            except NonFiniteError as e:
                raise NonFiniteError(f"non-finite loss at step {step}: {e}") from e
            # Each gradient is applied, and freed, as soon as its span is complete.
            adam_step(state, leaf_grads(loss))
            seconds = clock() - start
            log.append((step, loss.item(), train_cfg.learning_rate, seconds))
            write_row([step, repr(loss.item()), repr(train_cfg.learning_rate), f"{seconds:.3f}"])
            # The loss roots this step's tape; free it before the next forward.
            del logits, loss
            if out_path is not None and train_cfg.checkpoint_every and step % train_cfg.checkpoint_every == 0:
                save_model(out_path / f"checkpoint_{step:06d}.pckpt", params, model_cfg)
    ckpt = None
    if out_path is not None:
        ckpt = out_path / "checkpoint_final.pckpt"
        save_model(ckpt, params, model_cfg)
    return TrainResult(params=params, log=log, checkpoint_path=ckpt)


def predict(
    params: ModelParams,
    cfg: ModelConfig,
    dataset: FeatureDataset,
    batch_size: int = 256,
) -> np.ndarray:
    """Argmax class predictions in dataset order, eval mode."""
    check_fits(cfg, dataset)
    if len(dataset) == 0:
        raise ValueError("empty evaluation dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    preds = []
    for lo in range(0, len(dataset), batch_size):
        x_img, x_lm, _ = _batch_tensors(dataset, slice(lo, lo + batch_size))
        # The logits are never named, so their tape is freed before the argmax.
        preds.append(np.argmax(forward(x_img, x_lm, params, cfg, training=False).data, axis=-1))
    return np.concatenate(preds)


def evaluate(
    params: ModelParams,
    cfg: ModelConfig,
    dataset: FeatureDataset,
    batch_size: int = 256,
) -> metrics.EvalReport:
    """Eval-mode predictions scored into an EvalReport."""
    preds = predict(params, cfg, dataset, batch_size)
    return metrics.build_report(dataset.labels, preds, cfg.num_classes)
