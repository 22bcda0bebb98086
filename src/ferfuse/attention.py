"""Multi-head attention over one or two token streams, with query swap.

Each stream projects its queries, keys and values with its own D x D
``LinearParams`` (the one weight unit of every affine map in the model),
splits heads, scores with softmax(QK^T / sqrt(d)) where d is the per-head
width, and finishes with its own output projection. Self-attention
scores each stream with its own queries. Cross-fusion swaps the two
streams' query matrices: the image stream is scored by the landmark queries
and vice versa, so each stream mixes its own values under the other
stream's addressing. A tied pair passes the same weight set twice.

The tape keeps the attention weight arrays, read by the softmax and value
mixing VJPs, not their tensors; given a trace list, a forward appends one
``AttentionRecord`` (holding the tensor) per block and stream for relevance
analysis. Pass its weights to ``leaf_grads(..., watch=...)`` for gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .tensor import (
    LinearParams,
    ShapeError,
    Tensor,
    linear,
    matmul,
    merge_heads,
    softmax_rows,
    split_heads,
    swap_axes,
)


@dataclass
class MsaParams:
    """Query, key, value and output projections of one multi-head
    attention layer, each a D x D ``LinearParams`` with an optional bias.
    ``heads`` must divide D; the scaled-dot scores use d = D / heads.
    """

    heads: int
    q: LinearParams
    k: LinearParams
    v: LinearParams
    o: LinearParams


@dataclass
class AttentionRecord:
    """One attention-weight tensor captured during a forward pass."""

    level: int
    block: int
    stream: int  # position of the stream in the forward's stream list
    weights: Tensor  # (.., heads, P, P), rows sum to 1


def _check_input(x: Tensor, p: MsaParams, label: str) -> None:
    if x.ndim < 2:
        raise ShapeError(f"{label} input must be (.., P, D), got {x.shape}")
    d = x.shape[-1]
    if p.q.w.shape != (d, d):
        raise ShapeError(f"{label}: weights {p.q.w.shape} do not match input {x.shape}")
    if d % p.heads != 0:
        raise ShapeError(f"{label}: dim {d} not divisible by heads {p.heads}")


def _attend(q: Tensor, k: Tensor, v: Tensor, heads: int, sink: list | None) -> Tensor:
    """Head-split scaled-dot attention; appends the weight tensor to sink."""
    dh = q.shape[-1] // heads
    scores = matmul(split_heads(q, heads), swap_axes(split_heads(k, heads), -1, -2))
    weights = softmax_rows(scores, 1.0 / math.sqrt(dh))
    if sink is not None:
        sink.append(weights)
    return merge_heads(matmul(weights, split_heads(v, heads)))


def mhsa(xs: list, ps: list, swapped: bool = False, sinks: list | None = None) -> list:
    """Multi-head attention over a list of one or two token streams.

    Stream k, of shape (.., P, D), projects Q, K and V with ``ps[k]`` and
    applies ``ps[k]``'s output projection; each output keeps its input's
    shape. With ``swapped`` the two streams exchange queries, so they must
    share shape and head count. ``sinks``, if given, holds one list per
    stream; each gets that stream's (.., heads, P, P) softmax weights.
    """
    if len(ps) != len(xs):
        raise ValueError(f"mhsa needs one weight set per stream, got {len(ps)} for {len(xs)} streams")
    for k, (x, p) in enumerate(zip(xs, ps)):
        _check_input(x, p, f"mhsa[{k}]")
    if swapped:
        if len(xs) != 2:
            raise ValueError(f"a query swap needs 2 streams, got {len(xs)}")
        if xs[0].shape != xs[1].shape or ps[0].heads != ps[1].heads:
            raise ShapeError(
                f"swapped streams must share shape and heads, got {xs[0].shape} with {ps[0].heads} heads "
                f"vs {xs[1].shape} with {ps[1].heads}"
            )
    qs = [linear(x, p.q.w, p.q.b) for x, p in zip(xs, ps)]
    if swapped:
        qs.reverse()
    outs = []
    for x, p, q, sink in zip(xs, ps, qs, sinks if sinks is not None else [None] * len(xs)):
        k = linear(x, p.k.w, p.k.b)
        v = linear(x, p.v.w, p.v.b)
        outs.append(linear(_attend(q, k, v, p.heads, sink), p.o.w, p.o.b))
    return outs
