"""Multi-head self-attention and the two-stream cross-fusion variant.

Both ops project their input(s) to queries, keys and values with full
D x D weights, split heads, score with softmax(QK^T / sqrt(d)) where d is
the per-head width, and finish with an output projection. The cross-fusion
op runs one attention per stream but exchanges the query matrices: the
image stream is scored by the landmark queries and vice versa, so each
stream mixes its own values under the other stream's addressing.

Attention weight tensors stay alive in the graph and can be collected via
an ``AttentionTrace`` for relevance analysis; mark them ``retain_grad``
before ``backward`` to keep their gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .tensor import (
    ShapeError,
    Tensor,
    linear,
    matmul,
    reshape,
    scale,
    softmax_rows,
    swap_axes,
)


@dataclass
class MsaParams:
    """Projection weights for one multi-head self-attention layer.

    All four weights are D x D; biases are length D and optional.
    ``heads`` must divide D; the scaled-dot scores use d = D / heads.
    """

    heads: int
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    b_q: Tensor | None = None
    b_k: Tensor | None = None
    b_v: Tensor | None = None
    b_o: Tensor | None = None

    @property
    def dim(self) -> int:
        return self.w_q.shape[0]


@dataclass
class CrossFusionMsaParams:
    """Independent per-stream attention weights sharing D and head count."""

    img: MsaParams
    lm: MsaParams

    def __post_init__(self):
        if self.img.dim != self.lm.dim or self.img.heads != self.lm.heads:
            raise ShapeError(
                f"cross-fusion streams must share dim/heads, got "
                f"({self.img.dim}, {self.img.heads}) vs ({self.lm.dim}, {self.lm.heads})"
            )


@dataclass
class AttentionRecord:
    """One attention-weight tensor captured during a forward pass."""

    level: int
    block: int
    stream: str  # "img" | "lm" | "fused"
    weights: Tensor  # (.., heads, P, P), rows sum to 1


class AttentionTrace:
    """Collects AttentionRecords as a forward pass runs."""

    def __init__(self):
        self.records: list[AttentionRecord] = []

    def add(self, level: int, block: int, stream: str, weights: Tensor) -> None:
        self.records.append(AttentionRecord(level, block, stream, weights))

    def for_stream(self, stream: str, level: int | None = None) -> list[AttentionRecord]:
        return [
            r
            for r in self.records
            if r.stream == stream and (level is None or r.level == level)
        ]

    def levels(self) -> list[int]:
        return sorted({r.level for r in self.records})


def _check_input(x: Tensor, p: MsaParams, label: str) -> tuple[int, int]:
    if x.ndim < 2:
        raise ShapeError(f"{label} input must be (.., P, D), got {x.shape}")
    d = x.shape[-1]
    if p.w_q.shape != (d, d):
        raise ShapeError(f"{label}: weights {p.w_q.shape} do not match input {x.shape}")
    if d % p.heads != 0:
        raise ShapeError(f"{label}: dim {d} not divisible by heads {p.heads}")
    return d, p.heads


def _split_heads(t: Tensor, heads: int) -> Tensor:
    # (.., P, D) -> (.., heads, P, d)
    p, d = t.shape[-2], t.shape[-1]
    t = reshape(t, t.shape[:-1] + (heads, d // heads))
    return swap_axes(t, -3, -2)


def _merge_heads(t: Tensor) -> Tensor:
    # (.., heads, P, d) -> (.., P, heads * d)
    heads, p, dh = t.shape[-3], t.shape[-2], t.shape[-1]
    t = swap_axes(t, -3, -2)
    return reshape(t, t.shape[:-2] + (heads * dh,))


def _attend(q: Tensor, k: Tensor, v: Tensor, heads: int, sink: list | None) -> Tensor:
    """Head-split scaled-dot attention; appends the weight tensor to sink."""
    dh = q.shape[-1] // heads
    qh = _split_heads(q, heads)
    kh = _split_heads(k, heads)
    vh = _split_heads(v, heads)
    scores = scale(matmul(qh, swap_axes(kh, -1, -2)), 1.0 / math.sqrt(dh))
    weights = softmax_rows(scores)
    if sink is not None:
        sink.append(weights)
    return _merge_heads(matmul(weights, vh))


def mhsa(x: Tensor, p: MsaParams, attn_sink: list | None = None) -> Tensor:
    """Multi-head self-attention over the patch rows of x (.., P, D).

    Output shape equals input shape. If ``attn_sink`` is given, the
    (.., heads, P, P) softmax weight tensor is appended to it.
    """
    _check_input(x, p, "mhsa")
    q = linear(x, p.w_q, p.b_q)
    k = linear(x, p.w_k, p.b_k)
    v = linear(x, p.w_v, p.b_v)
    out = _attend(q, k, v, p.heads, attn_sink)
    return linear(out, p.w_o, p.b_o)


def cross_fusion_mhsa(
    x_img: Tensor,
    x_lm: Tensor,
    p: CrossFusionMsaParams,
    attn_sink_img: list | None = None,
    attn_sink_lm: list | None = None,
) -> tuple[Tensor, Tensor]:
    """Two-stream attention with exchanged queries.

    The image output attends over image keys/values under the landmark
    queries; the landmark output attends over landmark keys/values under
    the image queries. Each stream applies its own output projection.
    Both outputs keep the (.., P, D) input shape.
    """
    _check_input(x_img, p.img, "cross_fusion_mhsa[img]")
    _check_input(x_lm, p.lm, "cross_fusion_mhsa[lm]")
    if x_img.shape != x_lm.shape:
        raise ShapeError(f"stream shapes differ: img {x_img.shape} vs lm {x_lm.shape}")
    q_img = linear(x_img, p.img.w_q, p.img.b_q)
    k_img = linear(x_img, p.img.w_k, p.img.b_k)
    v_img = linear(x_img, p.img.w_v, p.img.b_v)
    q_lm = linear(x_lm, p.lm.w_q, p.lm.b_q)
    k_lm = linear(x_lm, p.lm.w_k, p.lm.b_k)
    v_lm = linear(x_lm, p.lm.w_v, p.lm.b_v)
    # Query swap: each stream is addressed by the other stream's queries.
    out_img = _attend(q_lm, k_img, v_img, p.img.heads, attn_sink_img)
    out_lm = _attend(q_img, k_lm, v_lm, p.lm.heads, attn_sink_lm)
    return (
        linear(out_img, p.img.w_o, p.img.b_o),
        linear(out_lm, p.lm.w_o, p.lm.b_o),
    )
