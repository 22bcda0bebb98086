"""PCKPT checkpoint files: named float64 tensors in a flat binary layout.

    magic   b"PCKPT"
    u32 LE  format version (currently 1)
    u32 LE  tensor count
    per tensor:
        u32 LE        name length, then that many UTF-8 bytes
        u32 LE        rank, then one u32 LE extent per axis
        f64 LE        row-major data

Names are unique and data is finite. Round trips are bitwise lossless.
Loading a model checks names and shapes against its config and reports the
first mismatch by name.

A model file is a checkpoint plus its ``ModelConfig`` as JSON in a sidecar
named ``<checkpoint>.json``; ``save_model`` and ``load_model`` are the only
code that knows that rule.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .binio import (
    BadFieldError,
    FormatVersionError,
    check_magic,
    check_shape,
    read_exact,
    read_u32,
    write_json,
    write_u32,
)
from .model import ModelConfig, ModelParams, build_params
from .tensor import ShapeError, _finite

MAGIC = b"PCKPT"
VERSION = 1


def save_checkpoint(path, named) -> None:
    """Write a name -> Tensor mapping to ``path``."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        write_u32(f, VERSION, len(named))
        for name, t in named.items():
            arr = np.asarray(t.data, dtype="<f8", order="C")  # the tensor's own buffer, unless it is strided
            encoded = name.encode("utf-8")
            write_u32(f, len(encoded))
            f.write(encoded)
            write_u32(f, arr.ndim, *arr.shape)
            f.write(arr)


def load_checkpoint(path) -> "OrderedDict[str, np.ndarray]":
    """Read a checkpoint back into an ordered name -> float64 array map."""
    out: OrderedDict[str, np.ndarray] = OrderedDict()
    with open(path, "rb") as f:
        check_magic(f, MAGIC, path)
        version = read_u32(f, "version")
        if version != VERSION:
            raise FormatVersionError(f"{path}: unsupported checkpoint version {version}")
        count = read_u32(f, "tensor count")
        for i in range(count):
            name_len = read_u32(f, f"name length of tensor {i}")
            try:
                name = read_exact(f, name_len, f"name of tensor {i}").tobytes().decode("utf-8")
            except UnicodeDecodeError:
                raise BadFieldError(f"{path}: name of tensor {i} is not valid UTF-8") from None
            if name in out:
                raise BadFieldError(f"{path}: tensor {i} repeats the name {name!r}")
            rank = read_u32(f, f"rank of {name}")
            shape = tuple(read_exact(f, 4 * rank, f"extents of {name}").view("<u4").tolist())
            check_shape(shape, f"tensor {i} ({name})")
            arr = read_exact(f, 8 * math.prod(shape), f"data of {name}").view("<f8").reshape(shape)
            if not _finite(arr):  # the one screen of a loaded tensor; build_params trusts it
                raise BadFieldError(f"{path}: data of tensor {i} ({name}) contains NaN/Inf")
            out[name] = arr
    return out


def save_model(path, params: ModelParams, cfg: ModelConfig) -> None:
    """Write ``params`` to ``path`` and ``cfg`` to the sidecar ``<path>.json``."""
    save_checkpoint(path, params.named)
    write_json(cfg.to_dict(), f"{path}.json")


def load_model(path) -> tuple:
    """Build the model the sidecar of ``path`` describes from the arrays of
    ``path``, drawing nothing; returns ``(params, cfg)``. Raises
    FileNotFoundError naming the checkpoint or the sidecar when either is
    missing, and KeyError or ShapeError, naming ``path``, when the
    checkpoint does not fit the config."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    sidecar = Path(f"{path}.json")
    if not sidecar.exists():
        raise FileNotFoundError(f"missing model config sidecar: {sidecar}")
    with open(sidecar) as f:
        cfg = ModelConfig.from_dict(json.load(f))
    try:
        return build_params(cfg, load_checkpoint(path)), cfg
    except (KeyError, ShapeError) as e:
        raise type(e)(f"{path}: {e.args[0]}") from None
