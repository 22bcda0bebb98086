"""Hostile-input fuzzing of the PFER and PCKPT readers.

A small valid file of each format is truncated at every offset and has
bits flipped in its structural fields: headers, tensor names, ranks and
extents, and sample labels. Every case must either load or raise a
FileFormatError subclass; a MemoryError, a UnicodeDecodeError or a bare
numpy/ValueError fails the test. Hypothesis runs derandomized with a
bounded example count, so the cases are the same on every run.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferfuse.binio import FileFormatError
from ferfuse.checkpoint import load_checkpoint, save_checkpoint
from ferfuse.data import gen_clusters, read_features, write_features
from ferfuse.tensor import Tensor

FUZZ = settings(derandomize=True, max_examples=300, database=None, deadline=None)

PFER_HEADER = 24  # magic, version, P, D, class count, sample count


def _pckpt_fields(named):
    """Byte ranges of every tensor's name length, name, rank and extents."""
    ranges = [range(0, 13)]  # magic, version, tensor count
    pos = 13
    for name, arr in named.items():
        n = len(name.encode("utf-8"))
        end = pos + 4 + n + 4 + 4 * arr.ndim
        ranges.append(range(pos, end))
        pos = end + 8 * arr.size
    return ranges


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    ds = gen_clusters(patches=2, dim=2, num_classes=3, per_class=1, sigma=0.1, seed=0)
    pfer = root / "small.pfer"
    write_features(ds, pfer)
    sample = 2 * 4 * ds.patches * ds.dim + 4
    label_bytes = [
        o for k in range(len(ds)) for o in range(PFER_HEADER + (k + 1) * sample - 4, PFER_HEADER + (k + 1) * sample)
    ]
    named = {"w": np.arange(6.0).reshape(2, 3), "bias": np.ones(3), "scale": np.array(2.0), "é": np.zeros((1, 1, 2))}
    pckpt = root / "small.pckpt"
    save_checkpoint(pckpt, {name: Tensor(arr) for name, arr in named.items()})
    return {
        "root": root,
        "pfer": (pfer.read_bytes(), list(range(PFER_HEADER)) + label_bytes, read_features),
        "pckpt": (pckpt.read_bytes(), [o for r in _pckpt_fields(named) for o in r], load_checkpoint),
    }


def _loads_or_format_error(reader, path) -> bool:
    try:
        reader(path)
    except FileFormatError:
        return False
    return True


@pytest.mark.parametrize("fmt", ["pfer", "pckpt"])
def test_truncation_at_every_offset(files, fmt):
    raw, _, reader = files[fmt]
    path = files["root"] / f"cut.{fmt}"
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        assert not _loads_or_format_error(reader, path), f"{fmt} cut at {cut} of {len(raw)} loaded"
    path.write_bytes(raw)
    assert _loads_or_format_error(reader, path)


def test_structural_offsets_cover_fields(files):
    raw, offsets, _ = files["pckpt"]
    # every tensor's name is inside the fuzzed ranges, the data is not
    assert raw.index(b"bias") in offsets and raw.index("é".encode("utf-8")) in offsets
    assert raw.index(struct.pack("<d", 5.0)) not in offsets


def _flips(fmt):
    return st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 7)), min_size=1, max_size=3).map(
        lambda picks: (fmt, picks)
    )


@FUZZ
@given(st.one_of(_flips("pfer"), _flips("pckpt")))
def test_bit_flips_in_structural_fields(files, case):
    fmt, picks = case
    raw, offsets, reader = files[fmt]
    data = bytearray(raw)
    for pick, bit in picks:
        data[offsets[pick % len(offsets)]] ^= 1 << bit
    path = files["root"] / f"flip.{fmt}"
    path.write_bytes(bytes(data))
    _loads_or_format_error(reader, path)
