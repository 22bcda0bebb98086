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

The forward runs its attention level by level, block by block and, in a
block, stream by stream in layout order; ``capture_attention`` slices that
sequence into ``{stream: [per level: [(weights, grads) per block]]}``.

Rendering is a plain min-max normalised grayscale grid written as a
binary PGM (P5, maxval 255) plus a raw CSV of the scores.
"""

from __future__ import annotations

import numpy as np

from .binio import write_csv
from .model import ModelConfig, ModelParams, forward
from .tensor import Tensor, leaf_grads, observe


def capture_attention(
    params: ModelParams,
    cfg: ModelConfig,
    x_img: np.ndarray,
    x_lm: np.ndarray,
    target_class: int,
) -> dict:
    """Run one eval forward on a single sample, given as two (P, D) arrays,
    and record, for every block and head, the attention weights and their
    gradient with respect to the target-class logit, as ``{stream: [per
    level: [(weights, grads) per block, in block order]]}`` of (heads, P, P) arrays."""
    if not 0 <= target_class < cfg.num_classes:
        raise ValueError(f"target_class {target_class} out of range [0, {cfg.num_classes})")
    if x_img.ndim != 2:
        raise ValueError(f"capture works on a single (P, D) sample, got {x_img.shape}")
    weights = []  # every softmax_rows output: one per level, block and stream, in that order
    with observe(lambda name, out: weights.append(out) if name == "softmax_rows" else None):
        logits = forward(Tensor(x_img), Tensor(x_lm), params, cfg, training=False)
    onehot = np.eye(cfg.num_classes)[target_class]  # the cotangent that selects the target logit
    grads = {id(t): g for t, g in leaf_grads(logits, watch=weights, cotangent=onehot) if t.creator is not None}
    pairs = [(w.data.copy(), grads[id(w)].copy() if id(w) in grads else np.zeros_like(w.data)) for w in weights]
    streams = cfg.layout.streams
    per_level = len(streams) * cfg.depth
    return {
        stream: [pairs[lo + k : lo + per_level : len(streams)] for lo in range(0, len(pairs), per_level)]
        for k, stream in enumerate(streams)
    }


def relevance_rollout(blocks) -> np.ndarray:
    """Roll a non-empty sequence of (weights, grads) pairs, one stream's
    blocks at one level in block order, into its (P, P) relevance matrix,
    whose rows sum to 1."""
    if not blocks:
        raise ValueError("relevance rollout needs at least one captured block")
    patches = blocks[0][0].shape[-1]
    r = np.eye(patches)
    for k, (weights, grads) in enumerate(blocks):
        if weights.shape[-2:] != (patches, patches):
            raise ValueError(f"block {k} attention shape {weights.shape} != {patches} patches")
        a_bar = np.maximum(grads * weights, 0.0).mean(axis=0)
        r = r + a_bar @ r
        r = r / r.sum(axis=1, keepdims=True)
    return r


def patch_scores(r: np.ndarray) -> np.ndarray:
    """Per-patch scores of a rollout: the column mean of ``r`` without its
    diagonal, or 1 for a single patch."""
    patches = r.shape[0]
    if patches == 1:
        return np.array([1.0])
    return (r.sum(axis=0) - np.diag(r)) / (patches - 1)


def stream_relevance(captured: dict, stream: str) -> np.ndarray:
    """Per-patch relevance for one stream of a capture, averaged over pyramid levels."""
    if not captured.get(stream):
        raise ValueError(f"no captured attention for stream {stream!r}")
    return np.mean([patch_scores(relevance_rollout(blocks)) for blocks in captured[stream]], axis=0)


def near_square_layout(patches: int) -> tuple:
    """Smallest (rows, cols) grid with rows*cols == patches and rows <= cols;
    it holds patch i at (i // cols, i % cols)."""
    rows = int(np.sqrt(patches))
    while rows > 1 and patches % rows != 0:
        rows -= 1
    return rows, patches // rows


def render_map(scores, layout: tuple) -> np.ndarray:
    """Min-max normalise per-patch scores onto a uint8 (rows, cols) grayscale grid.

    Constant scores give a uniform mid-gray (128) image.
    """
    scores = np.asarray(scores, dtype=np.float64)
    rows, cols = layout
    if scores.ndim != 1 or rows * cols != scores.size:
        raise ValueError(f"layout holds {rows * cols} patches but scores have shape {scores.shape}")
    lo, hi = scores.min(), scores.max()
    if hi > lo:
        levels = np.rint((scores - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        levels = np.full(scores.shape, 128, dtype=np.uint8)
    return levels.reshape(rows, cols)


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
