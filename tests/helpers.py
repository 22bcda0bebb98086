"""Shared test fixtures: independent oracles written straight from the
attention equations, and small parameter factories.

The oracles deliberately avoid the package's tape, head-split reshapes,
and stabilised softmax; they spell the math out with explicit loops so a
bug in the implementation cannot hide in its own oracle.
"""

import os
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np

from ferfuse.attention import MsaParams
from ferfuse.encoder import StreamBlockParams
from ferfuse.tensor import LinearParams, Tensor


def make_msa_params(dim, heads, rng, scale=0.3, bias=True):
    def w():
        return Tensor(rng.standard_normal((dim, dim)) * scale, requires_grad=True)

    def b():
        return Tensor(rng.standard_normal(dim) * 0.1, requires_grad=True) if bias else None

    ws = [w() for _ in range(4)]  # all four weights are drawn before any bias
    bs = [b() for _ in range(4)]
    return MsaParams(heads, *(LinearParams(w_, b_) for w_, b_ in zip(ws, bs)))


def msa_tensor(p: MsaParams, tag):
    """The tensor of ``p`` that a parameter-name tag (``w_q`` ... ``b_o``) addresses."""
    return getattr(getattr(p, tag[-1]), tag[0])


def stream_tensor(s: StreamBlockParams, tag):
    """The tensor of ``s`` that a tag addresses: a norm field, or ``mlp_w1`` ... ``mlp_b2``."""
    if tag.startswith("mlp_"):
        return getattr(s.mlp[int(tag[-1]) - 1], tag[-2])
    return getattr(s, tag)


def make_cross_params(dim, heads, rng, scale=0.3, bias=True):
    """Independent [img, lm] attention weight sets."""
    return [make_msa_params(dim, heads, rng, scale, bias), make_msa_params(dim, heads, rng, scale, bias)]


def make_stream_params(dim, ratio, rng, msa, scale=0.3):
    hidden = ratio * dim
    return StreamBlockParams(
        msa=msa,
        norm1_gamma=Tensor(np.ones(dim), requires_grad=True),
        norm1_beta=Tensor(np.zeros(dim), requires_grad=True),
        norm2_gamma=Tensor(1.0 + 0.1 * rng.standard_normal(dim), requires_grad=True),
        norm2_beta=Tensor(0.1 * rng.standard_normal(dim), requires_grad=True),
        mlp=(
            LinearParams(
                Tensor(rng.standard_normal((dim, hidden)) * scale, requires_grad=True),
                Tensor(0.1 * rng.standard_normal(hidden), requires_grad=True),
            ),
            LinearParams(
                Tensor(rng.standard_normal((hidden, dim)) * scale, requires_grad=True),
                Tensor(0.1 * rng.standard_normal(dim), requires_grad=True),
            ),
        ),
    )


def make_vanilla_block_params(dim, heads, ratio, rng):
    """A one-stream block: a 1-tuple of ``StreamBlockParams``."""
    return (make_stream_params(dim, ratio, rng, make_msa_params(dim, heads, rng)),)


def make_cross_block_params(dim, heads, ratio, rng):
    """A two-stream block: independent (img, lm) ``StreamBlockParams``."""
    return tuple(make_stream_params(dim, ratio, rng, msa) for msa in make_cross_params(dim, heads, rng))


class FakeRng:
    """Plays back a scripted sequence of uniform draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


# ---------------------------------------------------------------------------
# oracles


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def naive_softmax_row(row):
    e = [np.exp(v) for v in row]
    z = sum(e)
    return np.array([v / z for v in e])


def naive_layer_norm_row(row, gamma, beta, eps):
    d = len(row)
    mu = sum(row) / d
    var = sum((v - mu) ** 2 for v in row) / d
    return np.array([gamma[i] * (row[i] - mu) / np.sqrt(var + eps) + beta[i] for i in range(d)])


def _proj(x, p: LinearParams):
    out = x @ p.w.data
    if p.b is not None:
        out = out + p.b.data
    return out


def oracle_attention(q, k, v, heads):
    """Per-head loops of softmax(Q K^T / sqrt(d)) V, concatenated."""
    p, dim = q.shape
    dh = dim // heads
    out = np.zeros((p, dim))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        scores = np.zeros((p, p))
        for i in range(p):
            for j in range(p):
                scores[i, j] = float(qh[i] @ kh[j]) / np.sqrt(dh)
        for i in range(p):
            weights = naive_softmax_row(scores[i])
            out[i, sl] = sum(weights[j] * vh[j] for j in range(p))
    return out


def oracle_mhsa(x, p: MsaParams):
    att = oracle_attention(_proj(x, p.q), _proj(x, p.k), _proj(x, p.v), p.heads)
    return _proj(att, p.o)


def oracle_query_swap_mhsa(x_img, x_lm, p):
    """Literal query swap: image output scored by landmark queries and
    vice versa, each stream keeping its own keys, values, and output map.
    ``p`` is the [img, lm] pair of MsaParams."""
    p_img, p_lm = p
    q_img, k_img, v_img = _proj(x_img, p_img.q), _proj(x_img, p_img.k), _proj(x_img, p_img.v)
    q_lm, k_lm, v_lm = _proj(x_lm, p_lm.q), _proj(x_lm, p_lm.k), _proj(x_lm, p_lm.v)
    out_img = oracle_attention(q_lm, k_img, v_img, p_img.heads)
    out_lm = oracle_attention(q_img, k_lm, v_lm, p_lm.heads)
    return _proj(out_img, p_img.o), _proj(out_lm, p_lm.o)


def oracle_gelu(x):
    import math

    return np.vectorize(lambda v: 0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))))(x)


def _oracle_stream_tail(x, attn_out, s: StreamBlockParams, eps):
    x1 = attn_out + x
    normed = np.stack([naive_layer_norm_row(row, s.norm2_gamma.data, s.norm2_beta.data, eps) for row in x1])
    m = oracle_gelu(_proj(normed, s.mlp[0]))
    m = _proj(m, s.mlp[1])
    return m + x1


def oracle_vanilla_block(x, p: tuple, eps):
    """Residual attention then residual MLP over a norm, written literally."""
    return _oracle_stream_tail(x, oracle_mhsa(x, p[0].msa), p[0], eps)


def oracle_cross_fusion_block(x_img, x_lm, p: tuple, eps):
    a_img, a_lm = oracle_query_swap_mhsa(x_img, x_lm, [s.msa for s in p])
    return (
        _oracle_stream_tail(x_img, a_img, p[0], eps),
        _oracle_stream_tail(x_lm, a_lm, p[-1], eps),
    )


def reference_cross_entropy(x, q):
    """Loss and logit gradient of the mean cross-entropy of (b, n) logits
    ``x`` against target ``q``, as the four-op chain log_softmax_rows ->
    scale by q -> sum_all -> scale by -1/b computed them: each op's forward,
    then each VJP in reverse from a seed of 1, with that op's own arithmetic."""
    c = np.asarray(-1.0 / x.shape[0])
    z = x - x.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    loss = np.asarray((logp * q).sum()) * c
    g = np.ones(()) * c  # the outer scale
    g = np.broadcast_to(g, q.shape).copy()  # sum_all
    g = g * q  # scale by q
    return float(loss), g - np.exp(logp) * g.sum(axis=-1, keepdims=True)  # log_softmax_rows


def oracle_rollout(blocks):
    """The relevance rollout of (weights, grads) pairs in block order, spelled
    out entry by entry: returns (R, per-patch scores), a score being the
    column mean of R without its diagonal (two or more patches)."""
    p = blocks[0][0].shape[-1]
    r = np.eye(p)
    for a, g in blocks:
        heads = a.shape[0]
        a_bar = np.zeros((p, p))
        for i in range(p):
            for j in range(p):
                total = 0.0
                for h in range(heads):
                    total += max(g[h, i, j] * a[h, i, j], 0.0)
                a_bar[i, j] = total / heads
        updated = np.zeros((p, p))
        for i in range(p):
            for j in range(p):
                updated[i, j] = r[i, j] + sum(a_bar[i, k] * r[k, j] for k in range(p))
        for i in range(p):
            updated[i] /= updated[i].sum()
        r = updated
    return r, np.array([(r[:, j].sum() - r[j, j]) / (p - 1) for j in range(p)])


@contextmanager
def fed_fifo(tmp_path, payload: bytes):
    """Yield a FIFO in ``tmp_path`` that a thread writes ``payload`` into and then closes."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(payload,), daemon=True)
    writer.start()
    try:
        yield fifo
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


@contextmanager
def traced_peak():
    """Yield a list that holds, on exit, the peak bytes ``tracemalloc`` traced in the block."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
        peak.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
