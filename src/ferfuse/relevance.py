"""Attention relevance maps for the two encoder streams.

The rule implemented here (this artifact's formulation, stated plainly so
it can be checked): capture every block's attention weights A and their
gradients dA with respect to one target-class logit, form the per-block
update A_bar = mean over heads of max(dA * A, 0), and roll out

    R <- I;  per block:  R <- R + A_bar @ R;  rows renormalised to sum 1

The per-patch score of patch j is the column mean of R excluding the
diagonal. Each stream's map follows that stream's own attention matrices,
i.e. the operator that actually mixes that stream's value rows. With a
feature pyramid, one rollout per level is computed and the per-patch
scores are averaged across levels.

Rendering is a plain min-max normalised grayscale grid written as a
binary PGM (P5, maxval 255) plus a raw CSV of the scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binio import write_csv
from .model import ModelConfig, ModelParams, forward
from .tensor import Tensor, leaf_grads, observe


@dataclass
class CapturedAttention:
    """One block's attention weights and their target-logit gradients."""

    level: int
    block: int
    stream: str
    weights: np.ndarray  # (heads, P, P)
    grads: np.ndarray  # same shape


@dataclass
class RelevanceMap:
    stream: str
    matrix: np.ndarray  # (P, P), rows sum to 1
    per_patch: np.ndarray  # (P,)


def capture_attention(
    params: ModelParams,
    cfg: ModelConfig,
    x_img: np.ndarray,
    x_lm: np.ndarray,
    target_class: int,
) -> list:
    """Run one eval forward on a single sample, given as two (P, D) arrays,
    and record, for every block and head, the attention weights and their
    gradient with respect to the target-class logit."""
    if not 0 <= target_class < cfg.num_classes:
        raise ValueError(f"target_class {target_class} out of range [0, {cfg.num_classes})")
    if x_img.ndim != 2:
        raise ValueError(f"capture works on a single (P, D) sample, got {x_img.shape}")
    weights = []  # every softmax_rows output: one per level, block and stream, in that order
    with observe(lambda name, out: weights.append(out) if name == "softmax_rows" else None):
        logits = forward(Tensor(x_img), Tensor(x_lm), params, cfg, training=False)
    onehot = np.eye(cfg.num_classes)[target_class]  # the cotangent that selects the target logit
    grads = {id(t): g for t, g in leaf_grads(logits, watch=weights, cotangent=onehot) if t.creator is not None}
    s = len(cfg.layout.streams)
    return [
        CapturedAttention(
            level=i // (s * cfg.depth),
            block=i // s % cfg.depth,
            stream=cfg.layout.streams[i % s],
            weights=w.data.copy(),
            grads=grads[id(w)].copy() if id(w) in grads else np.zeros_like(w.data),
        )
        for i, w in enumerate(weights)
    ]


def relevance_rollout(captured: list) -> RelevanceMap:
    """Roll a non-empty sequence of captured blocks (one stream, one level,
    in block order) into a relevance map for their stream."""
    if not captured:
        raise ValueError("relevance rollout needs at least one captured block")
    blocks = sorted(captured, key=lambda c: c.block)
    if [c.block for c in blocks] != list(range(len(blocks))):
        raise ValueError(
            f"incomplete trace: expected consecutive blocks from 0, got {[c.block for c in blocks]}"
        )
    patches = blocks[0].weights.shape[-1]
    r = np.eye(patches)
    for cap in blocks:
        if cap.weights.shape[-2:] != (patches, patches):
            raise ValueError(f"block {cap.block} attention shape {cap.weights.shape} != {patches} patches")
        a_bar = np.maximum(cap.grads * cap.weights, 0.0).mean(axis=0)
        r = r + a_bar @ r
        r = r / r.sum(axis=1, keepdims=True)
    if patches == 1:
        per_patch = np.array([1.0])
    else:
        per_patch = (r.sum(axis=0) - np.diag(r)) / (patches - 1)
    return RelevanceMap(stream=blocks[0].stream, matrix=r, per_patch=per_patch)


def stream_relevance(captured: list, stream: str) -> RelevanceMap:
    """Per-patch relevance for one stream, averaged over pyramid levels."""
    records = [c for c in captured if c.stream == stream]
    if not records:
        raise ValueError(f"no captured attention for stream {stream!r}")
    levels = sorted({c.level for c in records})
    maps = [relevance_rollout([c for c in records if c.level == lvl]) for lvl in levels]
    per_patch = np.mean([m.per_patch for m in maps], axis=0)
    matrix = np.mean([m.matrix for m in maps], axis=0)
    return RelevanceMap(stream=stream, matrix=matrix, per_patch=per_patch)


@dataclass
class GridLayout:
    """A rows x cols grid holding patch i at (i // cols, i % cols)."""

    rows: int
    cols: int


def near_square_layout(patches: int) -> GridLayout:
    """Smallest rows x cols grid with rows*cols == patches and rows <= cols."""
    rows = int(np.sqrt(patches))
    while rows > 1 and patches % rows != 0:
        rows -= 1
    return GridLayout(rows=rows, cols=patches // rows)


def render_map(scores, layout: GridLayout) -> np.ndarray:
    """Min-max normalise per-patch scores onto a uint8 grayscale grid.

    Constant scores give a uniform mid-gray (128) image.
    """
    scores = np.asarray(scores, dtype=np.float64)
    patches = layout.rows * layout.cols
    if scores.ndim != 1 or patches != scores.size:
        raise ValueError(f"layout holds {patches} patches but scores have shape {scores.shape}")
    lo, hi = scores.min(), scores.max()
    if hi > lo:
        levels = np.rint((scores - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        levels = np.full(scores.shape, 128, dtype=np.uint8)
    return levels.reshape(layout.rows, layout.cols)


def write_pgm(path, pixels: np.ndarray) -> None:
    """Binary PGM, maxval 255."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 2:
        raise ValueError(f"PGM pixels must be 2-D, got shape {pixels.shape}")
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


def write_scores_csv(path, scores) -> None:
    write_csv(path, ["patch", "score"], enumerate(map(repr, np.asarray(scores, dtype=np.float64).tolist())))
