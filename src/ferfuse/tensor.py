"""Dense float64 tensors with a reverse-mode autodiff tape.

Every higher-level piece (attention, encoder blocks, the training loop) is
built from the primitives in this module. Ops record themselves onto a
dynamic graph as they run; ``leaf_grads`` walks that graph once, in reverse
topological order, from a root and its cotangent, and yields each leaf's
vector-Jacobian product as soon as the last op that reads the leaf has run
its VJP. ``training.adam_step`` uses each one and drops it, so a step never
holds every parameter gradient at once; its loss is one ``cross_entropy`` op.

The tape keeps only what its VJPs read. An op output holds its ``OpNode``;
a node holds a leaf input itself, the ``OpNode`` that made an op-output
input, and a VJP closure that keeps only the arrays and shapes it reads.
So an op output is freed as soon as the forward drops it, unless a VJP
saved its data, and the acyclic tape is freed by reference counting, with
no wait for Python's cyclic garbage collector, when its root (the loss, or
the logits) goes. The walk frees each intermediate's gradient once its
op's VJP has run, unless it was asked to ``watch`` that output.
A VJP may return ``None`` for an input that does not require grad, and
``matmul``'s does, so no work goes into gradients nobody asked for.
``matmul`` adds a linear map's bias and ``add`` scales a residual branch
in the same op, so neither keeps a second activation on the tape.
``gelu`` keeps Phi(x) and its output, which the next linear map keeps
anyway, and its VJP divides to read x back, so its input is not kept.
``layer_norm`` keeps 1/std and its output, which the next linear map keeps
too, and reads xhat back as (out - beta) / gamma, within about 1.2e-13;
only the columns where gamma is 0 or subnormal, or |beta| >= 1024 |gamma|,
keep xhat itself, and at gamma 1, beta 0 there are none.
``model.estimate_memory`` states the bytes the tape keeps, exactly.
``observe(fn)`` is the one tape hook: while it is active, each op the current
thread records calls ``fn(name, output)`` once the output holds its node.

All data is float64 and row-major. Any NaN or Inf entering or leaving an
op is a contract violation and raises ``NonFiniteError`` immediately,
naming the op. The screen is one reduction: an array is finite when its
sum is; only when the sum is not finite (NaN/Inf, or finite entries whose
sum overflows) does the exact elementwise check decide. ``Tensor(...)``
screens its data the same way. Ops that only move data (``swap_axes``,
``concat``, ``split_heads``, ``merge_heads``) skip the screen: their
outputs are entries of inputs already screened.
A graph and its tensors belong to a single thread; detached value arrays
are plain numpy and safe to share read-only.
"""

from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327
_TINY = np.finfo(np.float64).tiny
LN_EPS = 1e-5  # added to the variance in every layer norm


def _keep_freed_memory() -> None:
    """glibc only: one arena for all threads, heap blocks up to 32 MB and no trim
    below 1 GB, so freed activations stay for the next step or batch to reuse."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    for param, value in ((-8, 1), (-3, 32 << 20), (-1, 1 << 30)):  # M_ARENA_MAX, M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
        mallopt(param, value)


_keep_freed_memory()


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NonFiniteError(FloatingPointError):
    """A NaN or Inf showed up in tensor data."""


class Tensor:
    """Dense float64 array node in the autodiff graph.

    ``requires_grad`` marks tensors whose gradient ``leaf_grads`` should
    compute. An op output inherits the flag from the op's inputs and holds
    the op that made it (``creator``); the ops that read it hold that node,
    not it. ``backward`` stores ``grad`` on leaves.
    ``screen=False`` skips the NaN/Inf screen; ops pass it, since they
    screen their outputs themselves, or move only screened entries.
    """

    __slots__ = ("data", "requires_grad", "grad", "creator")

    def __init__(self, data, requires_grad: bool = False, screen: bool = True):
        arr = data if type(data) is np.ndarray and data.dtype == np.float64 else np.asarray(data, dtype=np.float64)
        if screen and not _finite(arr):
            raise NonFiniteError(f"tensor data contains NaN/Inf (shape {arr.shape})")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.creator: OpNode | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _finite(arr: np.ndarray) -> bool:
    """Whether every entry of ``arr`` is finite, by one sum when it is finite."""
    with np.errstate(over="ignore"):
        total = arr.sum()
    return math.isfinite(total) or bool(np.isfinite(arr).all())


class OpNode:
    """One executed primitive op: its inputs (a leaf itself, or the ``OpNode``
    that made an op output, never the output, which holds this node) and its
    adjoint rule. As an input it stands for its output: ``requires_grad``,
    no ``data`` or ``grad``, itself as ``creator``; gradients route by its ``id``."""

    __slots__ = ("name", "inputs", "vjp")
    data = grad = None
    requires_grad = True

    def __init__(self, name, inputs, vjp):
        self.name = name
        self.inputs = inputs
        self.vjp = vjp

    @property
    def creator(self) -> "OpNode":
        return self  # a property, not a slot: a slot holding self is a cycle


@dataclass
class Graph:
    """Ordered record of the ops that produce one output tensor.

    ``ops`` is topologically sorted: every op appears after the ops that
    produced its inputs, and each op appears exactly once; the root's own
    op is last. ``leaf_uses`` counts, by ``id``, the input slots of ``ops``
    that hold each leaf requiring grad.
    """

    ops: list
    leaf_uses: dict

    @staticmethod
    def trace(root: Tensor) -> "Graph":
        ops: list[OpNode] = []
        visited: set[int] = set()
        uses: dict[int, int] = {}
        stack: list[tuple[OpNode, bool]] = [] if root.creator is None else [(root.creator, False)]
        while stack:
            node, ready = stack.pop()
            if ready:
                ops.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node.inputs:
                if parent.creator is not None:
                    stack.append((parent, False))
                elif parent.requires_grad:
                    uses[id(parent)] = uses.get(id(parent), 0) + 1
        return Graph(ops, uses)


def leaf_grads(root: Tensor, watch=(), cotangent=None):
    """Yield ``(leaf, grad)``, once per leaf, for every leaf reachable from
    ``root`` that requires grad and gets a gradient: ``cotangent`` (of
    ``root``'s shape; 1 by default for a scalar ``root``) times d(root)/d(leaf).

    This is the one backward walk. A leaf is yielded as soon as the last op
    that reads it has run its VJP, and the walk then drops its gradient. A
    leaf some of whose readers got no gradient is yielded after the walk, as
    is a ``root`` that is itself a leaf. Each op output in ``watch`` that gets
    a gradient is yielded too, as ``(output, grad)``, once the gradient is
    complete (a watched ``root`` gets ``cotangent`` itself); the walk passes
    that array on to the output's VJP, so it must not be modified. The graph
    is not freed.
    """
    seed = np.ones_like(root.data) if cotangent is None and root.size == 1 else cotangent
    if seed is None or np.shape(seed) != root.shape:
        raise ShapeError(f"root {root.shape} needs a same-shape cotangent, got {'none' if seed is None else np.shape(seed)}")
    graph = Graph.trace(root)
    uses = graph.leaf_uses
    fresh: dict[int, np.ndarray] = {id(root.creator or root): np.asarray(seed, dtype=np.float64)}
    leaves: dict[int, Tensor] = {id(root): root} if root.creator is None and root.requires_grad else {}
    watched = {id(t.creator): t for t in watch}  # by node, as gradients are keyed
    for node in reversed(graph.ops):
        # Every consumer of this node's output ran earlier in reverse order,
        # so its gradient is complete here and nothing reads it after this VJP.
        gout = fresh.pop(id(node), None)
        if gout is None:
            continue
        if id(node) in watched:
            yield watched[id(node)], gout
        for parent, g in zip(node.inputs, node.vjp(gout)):
            if not parent.requires_grad:
                continue
            pid = id(parent)
            if g is not None:
                fresh[pid] = fresh[pid] + g if pid in fresh else g
                if parent.creator is None:
                    leaves[pid] = parent
            if parent.creator is None:
                uses[pid] -= 1
                if not uses[pid] and pid in leaves:
                    yield leaves.pop(pid), fresh.pop(pid)
    for pid, t in leaves.items():
        yield t, fresh.pop(pid)


# ``backward``, ``zero_grads``, ``scale`` and the ``grad`` slot have no caller in this
# package; they stay because the benchmark harness under ``bench/`` calls them.
def backward(loss: Tensor) -> None:
    """Add the gradients of ``leaf_grads(loss)`` to each leaf's ``grad``: each
    call adds one more copy, so callers reset with ``zero_grads`` between steps."""
    for t, g in leaf_grads(loss):
        t.grad = g if t.grad is None else t.grad + g


def zero_grads(named) -> None:
    """Clear ``grad`` on every tensor of a name -> Tensor mapping."""
    for t in named.values():
        t.grad = None


# Ops that only move entries of their inputs, which were screened already;
# their outputs skip the screen.
_MOVES_DATA = frozenset(("swap_axes", "concat", "split_heads", "merge_heads"))


class _Observers(threading.local):
    fns = ()  # a class attribute, so a thread that never observes reads it without a lookup miss


_observers = _Observers()


@contextmanager
def observe(fn):
    """Call ``fn(name, out)`` for every op this thread records inside the block,
    after any observers already active; the previous observers come back on exit."""
    outer = _observers.fns
    _observers.fns = outer + (fn,)
    try:
        yield
    finally:
        _observers.fns = outer


def _record(name, inputs, out_data, vjp) -> Tensor:
    out = Tensor(out_data, screen=False)
    if name not in _MOVES_DATA and not _finite(out.data):
        raise NonFiniteError(f"{name}: output contains NaN/Inf (shape {out.shape})")
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.creator = OpNode(name, [t.creator or t for t in inputs], vjp)
    for fn in _observers.fns:
        fn(name, out)
    return out


# OpenBLAS, as bundled with numpy, runs a product of up to about this many
# multiply-adds with an unpacked small-matrix kernel. A stack of such
# products beats one folded product above the limit: (256, 8, 32) @ (32, 32)
# took 106 us as a stack and 148 us folded on one thread of a Xeon core
# (numpy 2.4); at paper widths the fold is 15-40% faster.
_SMALL_GEMM_MACS = 1_000_000


# ---------------------------------------------------------------------------
# primitive ops


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product over the last two axes, plus an (n,) ``bias`` if ``b`` is (k, n).

    2-D operands give the plain m x k @ k x n product. Higher-rank operands
    are stacks of matrices; a stacked right operand needs a left operand
    with exactly its leading axes.

    Any left operand times one 2-D matrix, the shape of every linear map,
    folds into rows, a (k,) vector into one row: both gradients, and the
    forward unless a stack is made of small products, are then single 2-D
    GEMMs, and the weight gradient needs no sum over the stack.
    """
    if b.ndim < 2 or a.ndim < (1 if b.ndim == 2 else 2):
        raise ShapeError(f"matmul needs rank >= 2 operands or a vector @ matrix, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    if b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul leading axes differ: {a.shape} vs {b.shape}")
    if bias is not None and (b.ndim != 2 or bias.shape != b.shape[-1:]):
        raise ShapeError(f"matmul bias {bias.shape} needs a 2-D right operand with as many columns: {b.shape}")
    # The VJP keeps a's data only for b's gradient, and b's only for a's.
    ad, bd = a.data if b.requires_grad else None, b.data if a.requires_grad else None
    if b.ndim == 2:
        k, n = b.shape
        if a.ndim > 2 and a.shape[-2] * k * n <= _SMALL_GEMM_MACS < a.size * n:
            # Each product fits the small-matrix kernel; their fold does not.
            out = a.data @ b.data
        else:
            out = (a.data.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + (n,))
        if bias is not None:
            out += bias.data

        def vjp(g):
            g2 = g.reshape(-1, n)
            ga = None if bd is None else (g2 @ bd.T).reshape(g.shape[:-1] + (k,))
            gb = None if ad is None else ad.reshape(-1, k).T @ g2
            return (ga, gb) if bias is None else (ga, gb, g2.sum(axis=0) if bias.requires_grad else None)

    else:
        out = a.data @ b.data

        def vjp(g):
            ga = None if bd is None else g @ np.swapaxes(bd, -1, -2)
            gb = None if ad is None else np.swapaxes(ad, -1, -2) @ g
            return ga, gb

    return _record("matmul", (a, b) if bias is None else (a, b, bias), out, vjp)


def add(a: Tensor, b: Tensor, factor: float = 1.0) -> Tensor:
    """``factor * a + b`` for same-shape tensors and a python scalar: one op
    for a residual step whose branch is scaled (drop-path), rounded as
    ``scale`` then ``add`` would round it."""
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    if factor == 1.0:
        return _record("add", (a, b), a.data + b.data, lambda g: (g, g))
    out = a.data * factor
    out += b.data
    return _record("add", (a, b), out, lambda g: (g * factor, g))


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar. No gradient flows to the factor."""
    return _record("scale", (x,), x.data * factor, lambda g: (g * factor,))


@dataclass
class LinearParams:
    """Weight (Din, Dout) and optional bias (Dout,) of one affine map, the
    weight unit of every projection, MLP layer and classifier layer."""

    w: Tensor
    b: Tensor | None = None


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, exact form 0.5 * x * (1 + erf(x / sqrt(2))).

    The VJP keeps the output and ``cdf`` = Phi(x), not x: the next linear
    map keeps the output anyway, and x = out / cdf where cdf > 0. Where
    Phi(x) rounds to 0 (x below about -8.3), x is read as 0, so the
    derivative reads 0 there, not x * pdf(x), which is under 1e-14.
    """
    xd = x.data
    cdf = xd * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = xd * cdf

    def vjp(g):
        # g * (cdf + x * pdf), pdf = exp(-0.5 * x * x) / sqrt(2 pi); out is
        # +-0 where cdf is 0, and cdf is 0 or above 1e-17, so no division by 0
        xr = np.maximum(cdf, _TINY)
        np.divide(out, xr, out=xr)
        d = -0.5 * xr
        d *= xr
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        d *= xr
        d += cdf
        d *= g
        return (d,)

    return _record("gelu", (x,), out, vjp)


def softmax_rows(x: Tensor, factor: float = 1.0) -> Tensor:
    """Softmax of ``factor * x`` along the last axis, stabilised by per-row
    max subtraction.

    Output rows are non-negative and sum to 1.
    """
    y = x.data * factor
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def vjp(g):
        # y * (g - rowsum(g * y)), then times factor
        d = g * y
        np.subtract(g, d.sum(axis=-1, keepdims=True), out=d)
        d *= y
        d *= factor
        return (d,)

    return _record("softmax_rows", (x,), y, vjp)


def cross_entropy(logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean over the b rows of -sum_c target_c * log softmax(logits)_c, for
    (b, n) logits and a constant target of their shape, which gets no gradient."""
    if logits.ndim != 2 or np.shape(target) != logits.shape:
        raise ShapeError(f"cross_entropy needs 2-D logits and a target of their shape: {logits.shape} vs {np.shape(target)}")
    b = logits.shape[0]
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    def vjp(g):
        gq = target * (g * (-1.0 / b))
        return (gq - np.exp(logp) * gq.sum(axis=-1, keepdims=True),)

    return _record("cross_entropy", (logits,), (logp * target).sum() * (-1.0 / b), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalise the last axis to zero mean / unit variance, then apply
    the gamma/beta affine. Variance is the population variance (divide by
    D), plus ``LN_EPS``.

    The VJP keeps the output, which the next linear map keeps anyway, and
    1/std, not xhat: it reads xhat back as (out - beta) / gamma, within
    (1025 + 4 |xhat|) * 2^-53 of the forward's (exact at gamma 1, beta 0).
    The columns where that bound could fail, gamma 0 or subnormal or
    |beta| >= 1024 |gamma|, keep their xhat as computed.
    """
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match last axis of {x.shape}"
        )
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    # np.var's own arithmetic on the centred rows, so bitwise its result.
    inv = (xhat * xhat).sum(axis=-1, keepdims=True) / d
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    out = gamma.data * xhat
    out += beta.data
    gabs = np.abs(gamma.data)
    cols = np.flatnonzero((gabs < _TINY) | (np.abs(beta.data) >= 1024 * gabs))
    kept = xhat[..., cols]  # (.., 0) at gamma 1, beta 0

    def vjp(g):
        den = gamma.data.copy()
        den[cols] = 1.0  # no division by 0: these columns come from kept
        xhat = out - beta.data
        xhat /= den
        xhat[..., cols] = kept
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        dxhat = g * gamma.data
        t = g * xhat
        dgamma = t.reshape(-1, d).sum(axis=0)
        dbeta = g.reshape(-1, d).sum(axis=0)
        m1 = dxhat.mean(axis=-1, keepdims=True)
        np.multiply(dxhat, xhat, out=t)
        m2 = t.mean(axis=-1, keepdims=True)
        np.multiply(xhat, m2, out=t)
        dxhat -= m1
        dxhat -= t
        dxhat *= inv
        return dxhat, dgamma, dbeta

    return _record("layer_norm", (x, gamma, beta), out, vjp)


def concat(tensors, axis: int) -> Tensor:
    """Concatenate tensors along one axis; all other extents must agree."""
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat needs at least one tensor")
    ndim = ts[0].ndim
    ax = axis if axis >= 0 else axis + ndim
    if not 0 <= ax < ndim:
        raise ShapeError(f"concat axis {axis} out of range for rank {ndim}")
    ref = list(ts[0].shape)
    for t in ts[1:]:
        other = list(t.shape)
        if t.ndim != ndim or other[:ax] + other[ax + 1 :] != ref[:ax] + ref[ax + 1 :]:
            raise ShapeError(f"concat shapes differ off axis {axis}: {ts[0].shape} vs {t.shape}")
    sizes = [t.shape[ax] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=ax))

    return _record("concat", tuple(ts), np.concatenate([t.data for t in ts], axis=ax), vjp)


def mean_pool_patches(x: Tensor) -> Tensor:
    """Average a (.., P, D) tensor over its patch axis, giving (.., D)."""
    if x.ndim < 2:
        raise ShapeError(f"mean_pool_patches needs rank >= 2, got {x.shape}")
    shape, p = x.shape, x.shape[-2]

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, -2), shape) / p,)

    return _record("mean_pool_patches", (x,), x.data.mean(axis=-2), vjp)


def swap_axes(x: Tensor, ax1: int, ax2: int) -> Tensor:
    return _record("swap_axes", (x,), np.swapaxes(x.data, ax1, ax2), lambda g: (np.swapaxes(g, ax1, ax2),))


def split_heads(x: Tensor, heads: int) -> Tensor:
    """(.., P, D) -> (.., heads, P, D // heads): head h holds columns
    [h * D // heads, (h + 1) * D // heads) of every row."""
    if x.ndim < 2 or heads < 1 or x.shape[-1] % heads:
        raise ShapeError(f"split_heads needs (.., P, D) with D divisible by {heads} heads, got {x.shape}")
    shape = x.shape
    out = np.swapaxes(x.data.reshape(shape[:-1] + (heads, shape[-1] // heads)), -3, -2)
    return _record("split_heads", (x,), out, lambda g: (np.swapaxes(g, -3, -2).reshape(shape),))


def merge_heads(x: Tensor) -> Tensor:
    """(.., heads, P, d) -> (.., P, heads * d), the inverse of ``split_heads``."""
    if x.ndim < 3:
        raise ShapeError(f"merge_heads needs (.., heads, P, d), got {x.shape}")
    lead, (heads, p, dh) = x.shape[:-3], x.shape[-3:]
    out = np.swapaxes(x.data, -3, -2).reshape(lead + (p, heads * dh))
    return _record("merge_heads", (x,), out, lambda g: (np.swapaxes(g.reshape(lead + (p, heads, dh)), -3, -2),))


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class ParamCheck:
    """Finite-difference result for one named parameter tensor."""

    name: str
    checked: int
    max_rel_err: float


@dataclass
class FiniteDiffReport:
    h: float
    tol: float
    params: list = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((p.max_rel_err for p in self.params), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def summary(self) -> str:
        lines = [f"{p.name}: max rel err {p.max_rel_err:.3e} over {p.checked} entries" for p in self.params]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"worst {self.max_rel_err:.3e} vs tol {self.tol:.1e}: {verdict}")
        return "\n".join(lines)


def finite_diff_check(
    f,
    params,
    h: float = 1e-5,
    tol: float = 1e-4,
    samples_per_param: int | None = None,
    rng: np.random.Generator | None = None,
    cotangent=None,
) -> FiniteDiffReport:
    """Compare ``leaf_grads(f(), cotangent=cotangent)`` against central
    finite differences of ``np.vdot(cotangent, f())``.

    ``f`` is a zero-argument callable returning a Tensor (a scalar one if
    ``cotangent`` is omitted); it must be deterministic (run stochastic layers
    in eval mode). ``params`` maps names to leaf tensors. By default every entry
    of every parameter is perturbed; ``samples_per_param`` caps the entries per
    tensor (chosen with ``rng``) so large models stay checkable in seconds.

    The error reported per entry is |analytic - numeric| scaled by
    max(1, |analytic|, |numeric|), i.e. relative for large gradients and
    absolute near zero.
    """
    if not h > 0:
        raise ValueError(f"finite-difference step h must be > 0, got {h}")
    if not tol > 0:
        raise ValueError(f"tolerance tol must be > 0, got {tol}")
    if samples_per_param is not None and samples_per_param < 1:
        raise ValueError(f"samples_per_param must be >= 1 when set, got {samples_per_param}")
    grads = {id(t): g for t, g in leaf_grads(f(), cotangent=cotangent)}
    analytic = {name: grads.get(id(t), np.zeros_like(t.data)) for name, t in params.items()}

    direction = 1.0 if cotangent is None else cotangent  # a scalar f() is projected onto 1
    report = FiniteDiffReport(h=h, tol=tol)
    if rng is None:
        rng = np.random.default_rng(0)
    for name, t in params.items():
        flat = t.data.reshape(-1)
        n = flat.size
        if samples_per_param is None or samples_per_param >= n:
            indices = range(n)
        else:
            indices = sorted(rng.choice(n, size=samples_per_param, replace=False).tolist())
        worst = 0.0
        aflat = analytic[name].reshape(-1)
        for i in indices:
            orig = flat[i]
            flat[i] = orig + h
            fp = float(np.vdot(direction, f().data))
            flat[i] = orig - h
            fm = float(np.vdot(direction, f().data))
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = aflat[i]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
        report.params.append(ParamCheck(name=name, checked=len(indices), max_rel_err=worst))
    return report
