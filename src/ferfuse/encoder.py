"""Transformer encoder blocks, drop-path, and the encoder stack.

Every variant runs the same stack over a list of one or two token
streams. Each block computes, stream by stream,

    x'  = x  + keep * attention(x)
    out = x' + keep * mlp(norm(x'))

with ``keep`` drawn by ``drop_path`` per branch (stochastic depth), one
tape op per residual step. The attention branch runs on the raw input
with no preceding normalisation; the only norm sits in front of the MLP.
A ``pre_msa_norm`` flag turns on a conventional pre-attention norm for
experiments; its gamma/beta are allocated either way so parameter
layouts do not depend on the flag.

A block is a tuple of per-stream weight sets (``StreamBlockParams``:
attention, norms and MLP); a tied two-stream block holds the same set
twice. Every affine map is a ``LinearParams``, and one ``mlp`` runs both
the block MLP and the model's classifier head. The attention is
per-stream self-attention, except in the first ``swap_depth`` blocks of a
two-stream stack, where the streams exchange queries (cross-fusion). The
drop-path rate, swap depth and ``pre_msa_norm`` are arguments, not
weights: ``model.forward`` reads them from the config on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attention import AttentionRecord, MsaParams, mhsa
from .tensor import Tensor, add, gelu, layer_norm, matmul


@dataclass
class StreamBlockParams:
    """Attention, norm and MLP parameters owned by one stream of one block."""

    msa: MsaParams
    norm1_gamma: Tensor  # pre-attention site, inert unless pre_msa_norm
    norm1_beta: Tensor
    norm2_gamma: Tensor  # pre-MLP site
    norm2_beta: Tensor
    mlp: tuple  # (fc1, fc2) LinearParams: D -> ratio * D -> D


def drop_path(x: Tensor, branch: Tensor, rate: float, training: bool, rng=None) -> Tensor:
    """The residual step ``x + keep * branch`` as one op, under stochastic depth.

    ``keep`` is 1 in eval mode or at rate 0. In training mode it is 0 with
    probability ``rate`` and 1/(1-rate) otherwise, so the expectation is
    ``x + branch``. One Bernoulli draw per call, so a batched branch is kept
    or dropped as a unit (Huang et al. 2016 draw per sample; per batch keeps
    the training numbers of earlier builds).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"drop_path rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return add(branch, x)
    if rng is None:
        raise ValueError("drop_path needs an rng in training mode with rate > 0")
    return add(branch, x, 0.0 if rng.random() < rate else 1.0 / (1.0 - rate))


def mlp(x: Tensor, layers: tuple) -> Tensor:
    """Two-layer MLP along the last axis: ``fc1``, exact GELU, then ``fc2``,
    for the ``(fc1, fc2)`` pair of ``LinearParams`` in ``layers``."""
    fc1, fc2 = layers
    return matmul(gelu(matmul(x, fc1.w, fc1.b)), fc2.w, fc2.b)


def _residual_tail(x: Tensor, attn_out: Tensor, s: StreamBlockParams, rate, training, rng) -> Tensor:
    x1 = drop_path(x, attn_out, rate, training, rng)
    return drop_path(x1, mlp(layer_norm(x1, s.norm2_gamma, s.norm2_beta), s.mlp), rate, training, rng)


def block(
    xs: list,
    ps: tuple,
    training: bool,
    rng=None,
    swapped: bool = False,
    drop_path_rate: float = 0.0,
    pre_msa_norm: bool = False,
    sinks: list | None = None,
) -> list:
    """One encoder block over a list of one or two token streams.

    Stream k runs with ``ps[k]``: attention (queries exchanged between the
    two streams when ``swapped``), then the residual and MLP tail.
    ``sinks`` holds one attention-weight list per stream.
    """
    if len(xs) != len(ps):
        raise ValueError(f"block has {len(ps)} stream weight sets, got {len(xs)} inputs")
    hs = [layer_norm(x, s.norm1_gamma, s.norm1_beta) if pre_msa_norm else x for x, s in zip(xs, ps)]
    attn = mhsa(hs, [s.msa for s in ps], swapped, sinks)
    return [_residual_tail(x, a, s, drop_path_rate, training, rng) for x, a, s in zip(xs, attn, ps)]


def stack_forward(
    xs: list,
    blocks: list,
    training: bool,
    rng=None,
    swap_depth: int = 0,
    drop_path_rate: float = 0.0,
    pre_msa_norm: bool = False,
    trace: list | None = None,
    level: int = 0,
) -> list:
    """Run a stack of blocks over one or two token streams: blocks below
    ``swap_depth`` swap queries, the rest self-attend per stream.

    Attention weights are appended to ``trace`` as ``AttentionRecord``s
    holding the position of their stream in ``xs``.
    """
    for i, ps in enumerate(blocks):
        sinks = [[] for _ in xs]
        xs = block(xs, ps, training, rng, i < swap_depth, drop_path_rate, pre_msa_norm, sinks)
        if trace is not None:
            trace.extend(AttentionRecord(level, i, k, w) for k, sink in enumerate(sinks) for w in sink)
    return xs
