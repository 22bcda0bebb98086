"""Span tracing of ferfuse from outside the package.

``Tracer.install`` replaces every public function of the measured modules,
at every ferfuse module that holds it (the defining module and each module
that imported it by name), with a wrapper that records a span: id, name,
start, end, parent span and thread. When a tensor op returns a tape node,
the node's VJP closure is wrapped too, so backward time splits per op kind
and is timed apart from the forward. Nothing in ``src/`` is edited;
``uninstall`` puts the original functions back.

Spans stay in memory until the run ends. ``layer_metrics`` derives the
per-layer numbers from them; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import statistics
import threading
import time

# Modules timed as layers. checkpoint, metrics and relevance are on no
# workload's hot path and stay unmeasured.
MEASURED = ("tensor", "attention", "encoder", "model", "training", "data", "cli")
UNMEASURED = ("checkpoint", "metrics", "relevance")
# Every module whose namespace may hold an imported function. __main__ is
# left out: importing it runs the CLI.
SITES = ("ferfuse", "ferfuse.binio") + tuple(f"ferfuse.{m}" for m in MEASURED + UNMEASURED)
# Op kinds reported one by one; all ops count towards the tensor totals.
OPS = ("matmul", "add_bias", "add", "scale", "swap_axes", "reshape", "gelu", "softmax_rows", "layer_norm")
LEVELS = 3

TRAIN = "training.train_loop"
PREDICT = "training.predict"
CELL = "cli._run_cell"


class Tracer:
    """Records spans while installed. One tracer serves every thread."""

    def __init__(self):
        # (id, name, start, end, parent id or -1, thread id, extra dict or None)
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, extra):
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, name, start, clock(), parent, threading.get_ident(), None))
                raise
            end = clock()
            stack.pop()
            info = extra(args, kwargs, out) if extra is not None else None
            spans.append((sid, name, start, end, parent, threading.get_ident(), info))
            return out

        return wrapper

    def _op_extra(self, args, kwargs, out):
        """Wrap the VJP of the tape node this op call recorded, if any.

        Composite ops (``linear``) return a node an inner primitive already
        wrapped; they get no entry, so each node is counted once.
        """
        node = getattr(out, "creator", None)
        if node is None or getattr(node.vjp, "traced", False):
            return None
        name = node.name
        info = {"op": name, "bytes": out.data.nbytes}
        per_grad_macs = 0
        if name == "matmul":
            per_grad_macs = out.data.size * args[0].shape[-1]
            info["macs"] = per_grad_macs
        vjp, inputs = node.vjp, node.inputs
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter
        span_name = f"tensor.{name}.vjp"

        def timed_vjp(g):
            start = clock()
            grads = vjp(g)
            end = clock()
            total = unused = macs = 0
            for parent, grad in zip(inputs, grads):
                if grad is None:
                    continue
                total += grad.nbytes
                macs += per_grad_macs
                if not parent.requires_grad:
                    unused += grad.nbytes
            stack = stack_of()
            spans.append(
                (
                    next(ids),
                    span_name,
                    start,
                    end,
                    stack[-1] if stack else -1,
                    threading.get_ident(),
                    {"op": name, "bytes": total, "unused": unused, "macs": macs},
                )
            )
            return grads

        timed_vjp.traced = True
        node.vjp = timed_vjp
        return info

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        model = importlib.import_module("ferfuse.model")
        estimate_flops = model.estimate_flops

        def forward_extra(fn):
            sig = inspect.signature(fn)

            def extra(args, kwargs, out):
                bound = sig.bind(*args, **kwargs).arguments
                batch = bound["x_img"].shape[0]
                return {"expected_macs": estimate_flops(bound["cfg"])["total"] * batch}

            return extra

        def level_extra(args, kwargs, out):
            return {"level": kwargs.get("level", 0)}

        def predict_extra(fn):
            sig = inspect.signature(fn)

            def extra(args, kwargs, out):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                return {"batches": math.ceil(len(a["dataset"]) / a["batch_size"])}

            return extra

        def train_extra(args, kwargs, out):
            return {"steps": len(out.log), "step_s": out.log[-1][3] if out.log else 0.0}

        wrappers = {}
        for layer in MEASURED:
            mod = importlib.import_module(f"ferfuse.{layer}")
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if layer == "tensor":
                    extra = self._op_extra
                elif name == "model.forward":
                    extra = forward_extra(fn)
                elif name in ("encoder.stack_forward", "encoder.fused_stack_forward"):
                    extra = level_extra
                elif name == PREDICT:
                    extra = predict_extra(fn)
                elif name == TRAIN:
                    extra = train_extra
                else:
                    extra = None
                wrappers[fn] = self._wrap(name, fn, extra)
        # The ablate cell boundary is private; it is looked up by name at
        # call time, so wrapping it in cli's namespace times every cell.
        cli = importlib.import_module("ferfuse.cli")
        wrappers[cli._run_cell] = self._wrap(CELL, cli._run_cell, None)
        for site in SITES:
            mod = importlib.import_module(site)
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched.clear()


def write_spans(spans, f) -> None:
    """Write spans as tab-separated text to an open file, one span per line."""
    f.write("id\tname\tstart\tend\tparent\tthread\textra\n")
    for sid, name, start, end, parent, thread, info in spans:
        extra = "" if info is None else ";".join(f"{k}={v}" for k, v in info.items())
        f.write(f"{sid}\t{name}\t{start!r}\t{end!r}\t{parent}\t{thread}\t{extra}\n")


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, gemm_gmacs: float, untraced_step_ms: float, traced_step_ms: float, workers: int) -> dict:
    """Per-layer numbers from one run's spans.

    Per-step figures cover the spans inside ``train_loop`` calls, divided
    by the number of traced training steps. Layers a workload never calls
    read 0.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict = {}
    for s in spans:
        if s[4] != -1:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
    # Whether a span runs inside a train_loop call. A parent ends after its
    # children, so walking the list backwards meets it first.
    in_train: dict = {}
    for s in reversed(spans):
        in_train[s[0]] = s[1] == TRAIN or in_train.get(s[4], False)

    def dur(s):
        return s[3] - s[2]

    def self_time(s):
        return dur(s) - child_time.get(s[0], 0.0)

    train = [s for s in spans if in_train[s[0]]]
    loops = [s for s in spans if s[1] == TRAIN and s[6] is not None]
    steps = sum(s[6]["steps"] for s in loops)
    step_s = sum(s[6]["step_s"] for s in loops)
    per_step = 1e3 / steps if steps else 0.0  # seconds -> ms per step

    out: dict = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    fwd = [s for s in train if s[1].startswith("tensor.") and not s[1].endswith(".vjp")
           and s[1] not in ("tensor.backward", "tensor.zero_grads")]
    ops = [s for s in fwd if s[6] is not None]
    vjps = [s for s in train if s[1].endswith(".vjp")]
    backwards = [s for s in train if s[1] == "tensor.backward"]
    put("tensor.ops", len(ops) / steps if steps else 0, "count")
    put("tensor.fwd_ms", sum(map(self_time, fwd)) * per_step, "ms")
    put("tensor.vjp_ms", sum(map(dur, vjps)) * per_step, "ms")
    put("tensor.backward_overhead_ms", sum(map(self_time, backwards)) * per_step, "ms")
    for op in OPS:
        op_fwd = [s for s in ops if s[6]["op"] == op]
        put(f"tensor.{op}.calls", len(op_fwd) / steps if steps else 0, "count")
        put(f"tensor.{op}.fwd_ms", sum(map(self_time, op_fwd)) * per_step, "ms")
        put(f"tensor.{op}.vjp_ms", sum(dur(s) for s in vjps if s[6]["op"] == op) * per_step, "ms")
    mm_fwd = [s for s in ops if s[6]["op"] == "matmul"]
    mm_vjp = [s for s in vjps if s[6]["op"] == "matmul"]
    fwd_macs = sum(s[6]["macs"] for s in mm_fwd)
    vjp_macs = sum(s[6]["macs"] for s in mm_vjp)
    mm_s = sum(map(self_time, mm_fwd)) + sum(map(dur, mm_vjp))
    gmacs = (fwd_macs + vjp_macs) / mm_s / 1e9 if mm_s else 0.0
    put("tensor.matmul.fwd_macs", fwd_macs / steps if steps else 0, "count")
    put("tensor.matmul.vjp_macs", vjp_macs / steps if steps else 0, "count")
    put("tensor.matmul.gmacs", gmacs, "GMAC/s")
    put("tensor.matmul.gemm_share", gmacs / gemm_gmacs if gemm_gmacs else 0.0, "ratio")
    put("tensor.tape_mb", sum(s[6]["bytes"] for s in ops) / steps / 2**20 if steps else 0, "MB")
    vjp_bytes = sum(s[6]["bytes"] for s in vjps)
    put("tensor.vjp_unused_share", sum(s[6]["unused"] for s in vjps) / vjp_bytes if vjp_bytes else 0.0, "ratio")

    for name in ("mhsa", "cross_fusion_mhsa"):
        put(f"attention.{name}.ms", sum(dur(s) for s in train if s[1] == f"attention.{name}") * per_step, "ms")
    stacks = [s for s in train if s[1] in ("encoder.stack_forward", "encoder.fused_stack_forward")]
    for level in range(LEVELS):
        put(f"encoder.level{level}.fwd_ms", sum(dur(s) for s in stacks if s[6]["level"] == level) * per_step, "ms")

    # Forward matmul MACs under each model.forward call, against the
    # analytic count for its config and batch.
    forward_macs: dict = {}
    for s in spans:
        if s[1] == "tensor.matmul" and s[6] is not None:
            p = s[4]
            while p != -1 and by_id[p][1] != "model.forward":
                p = by_id[p][4]
            if p != -1:
                forward_macs[p] = forward_macs.get(p, 0) + s[6]["macs"]
    forwards = [s for s in spans if s[1] == "model.forward"]
    macs_match = bool(forwards) and all(forward_macs.get(s[0], 0) == s[6]["expected_macs"] for s in forwards)
    put("model.forward_ms", sum(dur(s) for s in forwards if in_train[s[0]]) * per_step, "ms")
    put("model.macs_match", 1.0 if macs_match else 0.0, "bool")

    def train_child(name):
        return sum(dur(s) for s in train if s[1] == name and by_id.get(s[4], (None, None))[1] == TRAIN)

    parts = {
        "forward": train_child("model.forward"),
        "loss": train_child("training.label_smoothing_ce"),
        "backward": train_child("tensor.backward"),
        "adam": train_child("training.adam_step"),
    }
    for part, seconds in parts.items():
        put(f"training.{part}_ms", seconds * per_step, "ms")
    put("training.other_ms", (step_s - sum(parts.values())) * per_step, "ms")
    predicts = [s for s in spans if s[1] == PREDICT]
    batches = sum(s[6]["batches"] for s in predicts)
    put("training.predict_ms_per_batch", sum(map(dur, predicts)) * 1e3 / batches if batches else 0.0, "ms")

    for name in ("read_features", "write_features"):
        put(f"data.{name}_ms", _median_or_zero([dur(s) * 1e3 for s in spans if s[1] == f"data.{name}"]), "ms")

    grids = [s for s in spans if s[1] == "cli.main"]
    cells = [s for s in spans if s[1] == CELL]
    busy = []
    counts = []
    for g in grids:
        inside = [c for c in cells if g[2] <= c[2] and c[3] <= g[3]]
        counts.append(len(inside))
        busy.append(sum(map(dur, inside)) / (workers * dur(g)))
    put("cli.ablate.cells", _median_or_zero(counts), "count")
    put("cli.ablate.cell_s_p50", _median_or_zero([dur(c) for c in cells]), "s")
    put("cli.ablate.busy_share", _median_or_zero(busy), "ratio")

    op_s = sum(map(self_time, ops)) + sum(map(dur, vjps))
    put("trace.coverage", op_s / step_s if step_s else 0.0, "ratio")
    put("trace.overhead", traced_step_ms / untraced_step_ms if untraced_step_ms else 0.0, "ratio")
    put("machine.gemm_gmacs", gemm_gmacs, "GMAC/s")
    return out
