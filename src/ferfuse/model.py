"""Model assembly: the six architecture variants as one computation,
parameter registration, and analytic parameter/FLOP accounting.

Every variant is ``levels x stack_forward(streams, swap prefix)``: per
pyramid level, each stream is projected to the level width, runs one
encoder stack, and is mean-pooled; the pooled features of all levels and
streams are concatenated into a two-layer MLP head, run by the same
``encoder.mlp`` as the block MLPs. Variants differ only in
the streams they feed the stack and in whether they have a pyramid:

    streams                  attention                           variants
    [x]                      self-attention                      landmark_only ([x_lm]), image_only ([x_img])
    [concat(x_img, x_lm)]    self-attention over 2P rows         baseline, baseline_pyramid
    [x_img, x_lm]            query swap in the first swap_depth  baseline_crossfusion, poster
                             blocks, then self-attention

``baseline_pyramid`` and ``poster`` run one level per ``pyramid_dims``
entry; the others run a single level at ``base_dim``.

Each level holds one input projection per stream, and each block is a
tuple of one weight set (attention, norms, MLP) per stream. Every affine
map, from the input projections to the head, is a ``tensor.LinearParams``
applied as one ``tensor.matmul(x, p.w, p.b)``. ``ModelConfig.block_sets``
names the distinct sets of a block; a two-stream block past the swap prefix
with ``share_unswapped`` has one set, used by both streams. The parameters
hold the weights and each ``MsaParams.heads``, fixed at build time, which
``forward`` checks against the config; it reads the swap depth, drop-path
rate and ``pre_msa_norm`` from the config it is given.

Every learnable tensor is registered under a hierarchical dotted name
(level0.block1.img.attn.w_q, head.w2, ...); the name -> shape map is stable
across runs for a fixed config and is the checkpoint addressing scheme.
"""

from __future__ import annotations

import numbers
import typing
from collections import OrderedDict
from dataclasses import dataclass, field, fields

import numpy as np

from .attention import MsaParams
from .encoder import StreamBlockParams, mlp, stack_forward
from .tensor import LinearParams, ShapeError, Tensor, concat, matmul, mean_pool_patches


@dataclass(frozen=True)
class Layout:
    """A variant's token streams (``"fused"``: both streams patch-concatenated)
    and whether it runs one level per ``pyramid_dims`` entry."""

    streams: tuple
    pyramid: bool

    @property
    def two_stream(self) -> bool:
        return len(self.streams) == 2


LAYOUTS = {
    "landmark_only": Layout(("lm",), pyramid=False),
    "image_only": Layout(("img",), pyramid=False),
    "baseline": Layout(("fused",), pyramid=False),
    "baseline_pyramid": Layout(("fused",), pyramid=True),
    "baseline_crossfusion": Layout(("img", "lm"), pyramid=False),
    "poster": Layout(("img", "lm"), pyramid=True),
}
VARIANTS = tuple(LAYOUTS)
_KIND_NAMES = {int: "an integer", float: "a real number", bool: "a bool", str: "a string", tuple: "a list of integers"}


def _fits(value, kind) -> bool:
    """An int is an integer and a float a real number, and neither is a bool."""
    abc = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    return isinstance(value, abc) and (kind is bool or not isinstance(value, bool))


def check_fields(cfg, least: dict) -> None:
    """Raise ValueError naming the first field of the dataclass ``cfg`` whose
    value its annotation does not allow, else the first field in ``least``
    below its bound there. ``X | None`` also takes None, and a ``tuple``
    field takes a tuple or list of integers."""
    for name, hint in typing.get_type_hints(type(cfg)).items():
        value = getattr(cfg, name)
        kind, *none = typing.get_args(hint) or (hint,)
        if kind is tuple:
            ok = isinstance(value, (tuple, list)) and all(_fits(v, int) for v in value)
        else:
            ok = _fits(value, kind) or (value is None and none)
        if not ok:
            raise ValueError(f"{name} must be {_KIND_NAMES[kind]}{' or None' if none else ''}, got {value!r}")
    for name, low in least.items():
        if getattr(cfg, name) < low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(cfg, name)}")


@dataclass
class ModelConfig:
    """Every architectural knob in one place.

    ``pyramid_dims`` only takes effect for the pyramid variants; the rest
    run a single level at ``base_dim``. Heads per level follow
    max(1, dim // heads_divisor), so the defaults give 8/4/2 heads at
    512/256/128. ``swap_depth=None`` means swap queries in every block.
    """

    patches: int = 68
    base_dim: int = 512
    pyramid_dims: tuple = (512, 256, 128)
    depth: int = 8
    mlp_ratio: int = 2
    drop_path: float = 0.01
    heads_divisor: int = 64
    swap_depth: int | None = None
    num_classes: int = 7
    variant: str = "poster"
    label_smoothing: float = 0.1
    qkv_bias: bool = True
    pre_msa_norm: bool = False
    share_unswapped: bool = False
    head_hidden: int | None = None
    seed: int = 0

    def __post_init__(self):
        least = {"patches": 1, "base_dim": 1, "depth": 0, "mlp_ratio": 1, "num_classes": 2, "heads_divisor": 1}
        check_fields(self, least)
        self.pyramid_dims = tuple(int(d) for d in self.pyramid_dims)
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if not 0.0 <= self.drop_path < 1.0:
            raise ValueError(f"drop_path must be in [0, 1), got {self.drop_path}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        if self.head_hidden is not None and self.head_hidden < 1:
            raise ValueError(f"head_hidden must be >= 1 when set, got {self.head_hidden}")
        if not self.pyramid_dims:
            raise ValueError("pyramid_dims must hold at least one level")
        if any(d < 1 for d in self.pyramid_dims) or any(
            a <= b for a, b in zip(self.pyramid_dims, self.pyramid_dims[1:])
        ):
            raise ValueError(f"pyramid_dims must be strictly decreasing, got {self.pyramid_dims}")
        if self.swap_depth is not None and not 0 <= self.swap_depth <= self.depth:
            raise ValueError(f"swap_depth {self.swap_depth} out of range [0, {self.depth}]")
        for d in self.level_dims():
            if d % self.heads_for(d) != 0:
                raise ValueError(f"dim {d} not divisible by its head count {self.heads_for(d)}")

    def heads_for(self, dim: int) -> int:
        return max(1, dim // self.heads_divisor)

    @property
    def layout(self) -> Layout:
        return LAYOUTS[self.variant]

    def level_dims(self) -> tuple:
        return self.pyramid_dims if self.layout.pyramid else (self.base_dim,)

    def effective_swap_depth(self) -> int:
        return self.depth if self.swap_depth is None else self.swap_depth

    def block_sets(self, j: int) -> tuple:
        """Name tags of block ``j``'s distinct per-stream weight sets:
        ``("",)`` for a one-stream block, ``("shared",)`` for a two-stream
        block past the swap prefix with ``share_unswapped``, else
        ``("img", "lm")``."""
        if not self.layout.two_stream:
            return ("",)
        if self.share_unswapped and j >= self.effective_swap_depth():
            return ("shared",)
        return ("img", "lm")

    def feature_dim(self) -> int:
        return len(self.layout.streams) * sum(self.level_dims())

    def head_hidden_dim(self) -> int:
        if self.head_hidden is not None:
            return self.head_hidden
        return max(self.num_classes, self.feature_dim() // 2)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["pyramid_dims"] = list(self.pyramid_dims)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class LevelParams:
    projs: tuple  # one LinearParams per stream
    blocks: list  # per block, a tuple of one StreamBlockParams per stream


@dataclass
class ModelParams:
    levels: list
    head: tuple  # (fc1, fc2) LinearParams: features -> hidden -> classes
    named: "OrderedDict[str, Tensor]" = field(default_factory=OrderedDict)

    def scalar_count(self) -> int:
        return sum(t.size for t in self.named.values())


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal samples redrawn until within +-2 sigma, then scaled by 0.02. Each
    round re-checks only what it redrew, drawing what a whole-array rescan would."""
    out = rng.standard_normal(shape)
    flat = out.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2.0)
    while bad.size:
        redrawn = rng.standard_normal(bad.size)
        flat[bad] = redrawn
        bad = bad[np.abs(redrawn) > 2.0]
    out *= 0.02
    return out


class _Registry:
    """Registers each learnable tensor under its name, in build order. A
    fresh build makes each array by its init rule (``self.normal``,
    ``np.zeros`` or ``np.ones``); a load takes it from ``weights`` and
    draws nothing."""

    def __init__(self, seed: int, weights):
        self.named: OrderedDict[str, Tensor] = OrderedDict()
        self.shapes: dict = {}
        self.rng = np.random.default_rng([seed, 1])
        self.weights = weights

    def normal(self, shape) -> np.ndarray:
        return trunc_normal(self.rng, shape)

    def add(self, name: str, shape: tuple, init) -> Tensor:
        if name in self.named:
            raise ValueError(f"duplicate parameter name {name!r}")
        self.shapes[name] = shape
        # A missing name gets an empty placeholder; check_weights raises before it is read.
        arr = init(shape) if self.weights is None else self.weights.get(name, np.zeros(0))
        # Drawn and filled arrays are finite by construction, and given ones were screened as read.
        t = Tensor(arr, requires_grad=True, screen=False)
        self.named[name] = t
        return t

    def check_weights(self) -> None:
        """KeyError on missing or unexpected names, else ShapeError naming
        the first tensor whose loaded shape is not the model's."""
        missing = [n for n in self.named if n not in self.weights]
        extra = [n for n in self.weights if n not in self.named]
        if missing or extra:
            raise KeyError(f"checkpoint name mismatch, missing {missing}, unexpected {extra}")
        for name, shape in self.shapes.items():
            if self.weights[name].shape != shape:
                raise ShapeError(f"tensor {name!r} has shape {self.weights[name].shape}, model expects {shape}")


def _init_linear(reg, prefix, din, dout, tag="") -> LinearParams:
    w = reg.add(f"{prefix}.w{tag}", (din, dout), reg.normal)
    b = reg.add(f"{prefix}.b{tag}", (dout,), np.zeros)
    return LinearParams(w, b)


def _init_mlp(reg, prefix, din, hidden, dout) -> tuple:
    return _init_linear(reg, prefix, din, hidden, "1"), _init_linear(reg, prefix, hidden, dout, "2")


def _init_msa(reg, prefix, dim, heads, qkv_bias) -> MsaParams:
    # All four weights are registered (and drawn) before the biases; the
    # output projection always carries a bias.
    tags = ("q", "k", "v", "o")
    ws = [reg.add(f"{prefix}.w_{t}", (dim, dim), reg.normal) for t in tags]
    bs = [reg.add(f"{prefix}.b_{t}", (dim,), np.zeros) if qkv_bias or t == "o" else None for t in tags]
    return MsaParams(heads, *(LinearParams(w, b) for w, b in zip(ws, bs)))


def _init_stream(reg, prefix, msa, dim, ratio) -> StreamBlockParams:
    return StreamBlockParams(
        msa=msa,
        norm1_gamma=reg.add(f"{prefix}.norm1.gamma", (dim,), np.ones),
        norm1_beta=reg.add(f"{prefix}.norm1.beta", (dim,), np.zeros),
        norm2_gamma=reg.add(f"{prefix}.norm2.gamma", (dim,), np.ones),
        norm2_beta=reg.add(f"{prefix}.norm2.beta", (dim,), np.zeros),
        mlp=_init_mlp(reg, f"{prefix}.mlp", dim, ratio * dim, dim),
    )


def _init_block(reg, prefix, cfg, dim, j) -> tuple:
    # All attention sets are registered before the norm/MLP sets.
    prefixes = [f"{prefix}.{tag}" if tag else prefix for tag in cfg.block_sets(j)]
    msas = [_init_msa(reg, f"{pre}.attn", dim, cfg.heads_for(dim), cfg.qkv_bias) for pre in prefixes]
    sets = tuple(_init_stream(reg, pre, msa, dim, cfg.mlp_ratio) for pre, msa in zip(prefixes, msas))
    return sets * (len(cfg.layout.streams) // len(sets))  # a shared set serves both streams


def build_params(cfg: ModelConfig, weights=None) -> ModelParams:
    """Initialise all learnable tensors for ``cfg``, or take them from ``weights``.

    Projections and MLPs get truncated-normal weights (sigma 0.02, clipped
    at 2 sigma), biases start at zero, norm gamma/beta at one/zero. The
    draw order is the registration order, so equal configs (and seeds)
    give identical parameters.

    ``weights``, a name -> array map such as ``checkpoint.load_checkpoint``
    returns (it screens each array for NaN/Inf), supplies every tensor's
    array, not copied or screened again, and nothing is drawn. Raises
    KeyError on missing or unexpected names, then ShapeError naming the
    first tensor whose shape does not fit ``cfg``.
    """
    reg = _Registry(cfg.seed, weights)
    streams = cfg.layout.streams
    proj_names = ["proj"] if len(streams) == 1 else [f"proj_{s}" for s in streams]
    levels = []
    for i, dim in enumerate(cfg.level_dims()):
        projs = tuple(_init_linear(reg, f"level{i}.{name}", cfg.base_dim, dim) for name in proj_names)
        blocks = [_init_block(reg, f"level{i}.block{j}", cfg, dim, j) for j in range(cfg.depth)]
        levels.append(LevelParams(projs=projs, blocks=blocks))
    head = _init_mlp(reg, "head", cfg.feature_dim(), cfg.head_hidden_dim(), cfg.num_classes)
    if weights is not None:
        reg.check_weights()
    return ModelParams(levels=levels, head=head, named=reg.named)


# ---------------------------------------------------------------------------
# forward pass


def forward(
    x_img: Tensor,
    x_lm: Tensor,
    params: ModelParams,
    cfg: ModelConfig,
    training: bool,
    rng=None,
) -> Tensor:
    """Inputs are (.., P, base_dim) per stream; output is (.., num_classes)
    logits. Per level: project each stream, run the stack, mean-pool every
    output stream into the head's feature vector. The swap depth, drop-path
    rate and ``pre_msa_norm`` come from ``cfg`` on every call, and ``params``
    must fit its level, stream, block and head counts (else ``ValueError``)."""
    dims = cfg.level_dims()
    if len(params.levels) != len(dims):
        raise ValueError(f"params have {len(params.levels)} levels, the config {len(dims)}")
    for i, (lvl, dim) in enumerate(zip(params.levels, dims)):
        fits = [("streams", len(lvl.projs), len(cfg.layout.streams)), ("blocks", len(lvl.blocks), cfg.depth)]
        for what, have, want in fits + [("heads", s.msa.heads, cfg.heads_for(dim)) for b in lvl.blocks for s in b]:
            if have != want:
                raise ValueError(f"level {i}: params have {have} {what}, the config {want}")
    inputs = {"img": x_img, "lm": x_lm}
    xs = [concat((x_img, x_lm), axis=-2) if s == "fused" else inputs[s] for s in cfg.layout.streams]
    swap = cfg.effective_swap_depth() if cfg.layout.two_stream else 0
    pooled = []
    for i, lvl in enumerate(params.levels):
        zs = [matmul(x, proj.w, proj.b) for x, proj in zip(xs, lvl.projs)]
        ys = stack_forward(zs, lvl.blocks, training, rng, swap, cfg.drop_path, cfg.pre_msa_norm, level=i)
        pooled.extend(mean_pool_patches(y) for y in ys)
    return mlp(concat(pooled, axis=-1), params.head)


# ---------------------------------------------------------------------------
# accounting


def _msa_param_count(dim: int, qkv_bias: bool) -> int:
    return 4 * dim * dim + (3 * dim if qkv_bias else 0) + dim


def _stream_param_count(dim: int, ratio: int) -> int:
    # two norm sites (2 * 2D) + MLP weights and biases
    return 4 * dim + 2 * ratio * dim * dim + (ratio + 1) * dim


def count_params(cfg: ModelConfig) -> dict:
    """Exact learnable-scalar counts, by component and in total.

    The returned dict mirrors the registered name map: summing the sizes
    of the actual ModelParams tensors gives the same numbers. Keys:
    ``projections``, ``blocks``, ``head``, ``total``, and ``per_level``
    with one entry per pyramid level.
    """
    per_level = []
    proj_total = 0
    block_total = 0
    for dim in cfg.level_dims():
        proj = len(cfg.layout.streams) * (cfg.base_dim * dim + dim)
        one_stream = _msa_param_count(dim, cfg.qkv_bias) + _stream_param_count(dim, cfg.mlp_ratio)
        blocks = sum(len(cfg.block_sets(j)) for j in range(cfg.depth)) * one_stream
        per_level.append({"dim": dim, "projections": proj, "blocks": blocks})
        proj_total += proj
        block_total += blocks
    feat = cfg.feature_dim()
    hidden = cfg.head_hidden_dim()
    head = feat * hidden + hidden + hidden * cfg.num_classes + cfg.num_classes
    return {
        "projections": proj_total,
        "blocks": block_total,
        "head": head,
        "total": proj_total + block_total + head,
        "per_level": per_level,
    }


def estimate_flops(cfg: ModelConfig) -> dict:
    """Analytic multiply-accumulate count for one forward sample.

    Counted: every linear map as rows * Din * Dout, attention scores and
    value mixing as 2 * heads * rows^2 * head_dim = 2 * rows^2 * dim per
    stream per block, and the MLP as 2 * ratio * rows * dim^2. Softmax,
    norms, GELU and pooling are not MACs and are not counted. The
    ``formula`` entry spells this out.
    """
    p = cfg.patches
    stream_rows = [2 * p if s == "fused" else p for s in cfg.layout.streams]
    projections = attn_linear = attn_scores = mlp = 0
    for dim in cfg.level_dims():
        for rows in stream_rows:
            projections += rows * cfg.base_dim * dim
            attn_linear += cfg.depth * 4 * rows * dim * dim
            attn_scores += cfg.depth * 2 * rows * rows * dim
            mlp += cfg.depth * 2 * cfg.mlp_ratio * rows * dim * dim
    feat = cfg.feature_dim()
    hidden = cfg.head_hidden_dim()
    head = feat * hidden + hidden * cfg.num_classes
    total = projections + attn_linear + attn_scores + mlp + head
    return {
        "projections": projections,
        "attention_linear": attn_linear,
        "attention_scores": attn_scores,
        "mlp": mlp,
        "head": head,
        "total": total,
        "formula": (
            "MACs: linear = rows*Din*Dout; attention = 4*rows*D^2 (q,k,v,out) "
            "+ 2*rows^2*D (scores, values) per stream per block; "
            "mlp = 2*ratio*rows*D^2; head = F*H + H*N. rows = P per stream, "
            "2P fused; softmax/norm/gelu/pooling uncounted."
        ),
    }


def estimate_memory(cfg: ModelConfig) -> dict:
    """Bytes the tape of a training forward plus loss keeps, and Adam's state.

    The tape holds ``per_sample["total"] * batch + constant["total"]`` bytes:
    the distinct arrays its VJP closures keep, each counted once, under the
    first op kind listed whose VJP keeps it. Per sample: ``softmax_rows``'
    output; the left operand of every linear map and the operands of the
    attention products, under ``matmul``; ``layer_norm``'s 1/std, since its
    output, from which it reads xhat back, is the next linear map's operand;
    ``cross_entropy``'s target and log-probabilities; ``gelu``'s Phi(x),
    since its output is fc2's operand. The constant: the weights of every
    linear map but the input projections (their inputs need no gradient)
    and the head concat's split offsets. ``adam``: the arena and two
    moments, 24 bytes per parameter. The ``formula`` entry spells this out.
    """
    rows = [2 * cfg.patches if s == "fused" else cfg.patches for s in cfg.layout.streams]
    feat, hidden, n = cfg.feature_dim(), cfg.head_hidden_dim(), cfg.num_classes
    soft = norm = 0
    mm = sum(rows) * cfg.base_dim + feat + hidden  # the stream inputs and the head's two operands
    phi = hidden
    weights = feat * hidden + hidden * n
    for dim in cfg.level_dims():
        weights += sum(len(cfg.block_sets(j)) for j in range(cfg.depth)) * (4 + 2 * cfg.mlp_ratio) * dim * dim
        for r in rows:
            soft += cfg.depth * cfg.heads_for(dim) * r * r
            norm += cfg.depth * (1 + cfg.pre_msa_norm) * r
            mm += cfg.depth * (6 + cfg.mlp_ratio) * r * dim
            phi += cfg.depth * cfg.mlp_ratio * r * dim
    per = {"softmax_rows": soft, "matmul": mm, "layer_norm": norm, "cross_entropy": 2 * n, "gelu": phi}
    const = {"matmul": weights, "concat": len(rows) * len(cfg.level_dims())}
    return {
        "per_sample": {**{k: 8 * v for k, v in per.items()}, "total": 8 * sum(per.values())},
        "constant": {**{k: 8 * v for k, v in const.items()}, "total": 8 * sum(const.values())},
        "adam": 24 * count_params(cfg)["total"],
        "formula": (
            "tape bytes = per_sample * batch + constant, 8 per entry. Per sample, per stream per block: "
            "softmax heads*rows^2; matmul (6+ratio)*rows*D (block input, q, k, v, merged heads, "
            "normed rows, GELU output); layer_norm norms*rows (1/std: xhat is read back from the normed "
            "rows); gelu ratio*rows*D (Phi); then the stream inputs, the head's F+2H and the loss's 2N. "
            "Constant: block and head weights, one offset per pooled feature. Adam: 24 bytes/param."
        ),
    }
