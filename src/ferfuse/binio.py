"""Shared helpers for the little-endian binary file formats, and the one
writer of every JSON file (sidecars, configs) and every CSV table."""

from __future__ import annotations

import csv
import json
import math
import os
import stat
import struct
import sys


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


def read_exact(f, n: int, what: str) -> bytes:
    """Read ``n`` bytes, else raise TruncatedFileError: a regular file at once, as ``expect_bytes``
    has bounded ``n``; a pipe in chunks, so a header promising more costs only what arrives."""
    if n <= _PIPE_CHUNK or stat.S_ISREG(os.fstat(f.fileno()).st_mode):
        buf = f.read(n)
    else:
        buf = bytearray()
        while len(buf) < n and (part := f.read(min(n - len(buf), _PIPE_CHUNK))):
            buf += part
    if len(buf) != n:
        raise TruncatedFileError(f"unexpected end of file while reading {what} ({len(buf)}/{n} bytes)")
    return buf


def expect_bytes(f, n: int, what: str) -> None:
    """Raise TruncatedFileError unless at least ``n`` bytes remain in ``f``.

    Readers call this with the size a header implies before they allocate
    for it, so a corrupt header fails fast instead of asking for memory.
    A pipe has no size to check against and passes.
    """
    st = os.fstat(f.fileno())
    if not stat.S_ISREG(st.st_mode):
        return
    left = st.st_size - f.tell()
    if n > left:
        raise TruncatedFileError(f"{what} needs {n} bytes but only {left} remain in the file")


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


def write_u32(f, value: int) -> None:
    f.write(struct.pack("<I", value))


def check_magic(f, magic: bytes, path) -> None:
    got = f.read(len(magic))
    if got != magic:
        raise BadMagicError(f"{path}: expected magic {magic!r}, found {got!r}")


def write_json(obj, path) -> None:
    """Write ``obj`` as JSON, indented 2 with sorted keys and a trailing newline."""
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def write_csv(path, header, rows) -> None:
    """Write ``header`` then ``rows`` as excel-dialect CSV: CRLF line ends, ``str()`` of each value."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
