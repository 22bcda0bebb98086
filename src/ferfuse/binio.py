"""Shared helpers for the little-endian binary file formats, and the one
writer of every JSON file (sidecars, configs) and every CSV table, which
``train_loop`` streams row by row.

Every read whose size a file states goes through ``read_exact``, the one
place that checks a read's size against what the file holds."""

from __future__ import annotations

import csv
import json
import math
import os
import stat
import struct
import sys
from contextlib import contextmanager

import numpy as np


class FileFormatError(ValueError):
    """Base for malformed binary files."""


class BadMagicError(FileFormatError):
    """File does not start with the expected magic bytes."""


class FormatVersionError(FileFormatError):
    """File has an unsupported format version."""


class TruncatedFileError(FileFormatError):
    """File ended before the payload it promised."""


class BadFieldError(FileFormatError):
    """A header or record field holds a value the format does not allow."""


_PIPE_CHUNK = 1 << 24  # the largest single read from a pipe
_SMALL_READ = 1 << 16  # a read this size is bounded by its size alone


def read_exact(f, n: int, what: str) -> np.ndarray:
    """Read ``n`` bytes into a new writable uint8 array, else raise TruncatedFileError.

    Every read is bounded here: a read of at most ``_SMALL_READ`` bytes, from
    any file, fills the array with one ``readinto``. A larger one from a
    regular file must find ``n`` more bytes in it before anything is
    allocated, and is then read the same way; a pipe has no size to check,
    so it is read in chunks and a header promising more costs only what arrives.
    """
    st = None if n <= _SMALL_READ else os.fstat(f.fileno())
    if st is None or stat.S_ISREG(st.st_mode):
        got = n if st is None else min(n, st.st_size - f.tell())
        if got == n:
            buf = np.empty(n, dtype=np.uint8)
            got = f.readinto(buf)
    else:
        buf = bytearray()
        while len(buf) < n and (part := f.read(min(n - len(buf), _PIPE_CHUNK))):
            buf += part
        got, buf = len(buf), np.frombuffer(buf, dtype=np.uint8)
    if got != n:
        raise TruncatedFileError(f"unexpected end of file while reading {what} ({got}/{n} bytes)")
    return buf


def check_shape(shape: tuple, what: str) -> None:
    """Raise BadFieldError unless numpy can build a float64 array of ``shape``.

    numpy multiplies the nonzero extents and rejects the shape if the byte
    count passes the largest it can index, even when another extent is 0
    and the array would be empty.
    """
    if 8 * math.prod(d for d in shape if d) > sys.maxsize:
        raise BadFieldError(f"{what} has shape {shape}, larger than any array can be")


def read_u32(f, what: str) -> int:
    return struct.unpack("<I", read_exact(f, 4, what))[0]


def write_u32(f, *values: int) -> None:
    """Write each of ``values`` as a u32 LE."""
    f.write(struct.pack(f"<{len(values)}I", *values))


def check_magic(f, magic: bytes, path) -> None:
    got = f.read(len(magic))
    if got != magic:
        raise BadMagicError(f"{path}: expected magic {magic!r}, found {got!r}")


def write_json(obj, path) -> None:
    """Write ``obj`` as JSON, indented 2 with sorted keys and a trailing newline."""
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


@contextmanager
def csv_rows(path, header):
    """Write ``header`` as excel-dialect CSV (CRLF line ends, ``str()`` of each
    value) and yield a function that writes one row and flushes it."""
    with open(path, "w", newline="", buffering=1) as f:  # line-buffered: each row is flushed
        writer = csv.writer(f)
        writer.writerow(header)
        yield writer.writerow


def write_csv(path, header, rows) -> None:
    """Write ``header`` then ``rows`` through ``csv_rows``."""
    with csv_rows(path, header) as put:
        for row in rows:
            put(row)
