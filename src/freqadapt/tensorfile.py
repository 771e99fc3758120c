"""Bit-exact binary tensor files.

Layout (all integers little-endian):

    magic   4 bytes  "FTNS"
    version u32      1
    ndim    u32
    dims    ndim x u64
    payload product(dims) x f64, IEEE-754 little-endian, row-major

Writing then reading returns the identical bytes, so payloads round-trip
bitwise, signed zeros included.
"""

from __future__ import annotations

import math
import os
import stat
import struct

import numpy as np

from .errors import TensorFileError

MAGIC = b"FTNS"
VERSION = 1

_MAX_NDIM = 32  # sanity bound against corrupted headers


def write_tensor(path, arr) -> None:
    """Write an ndarray (any ndim >= 1) as a tensor file.

    The header is written first and then the payload straight from the
    array's own buffer; only an input that is not C-ordered little-endian
    float64 is copied first.
    """
    data = np.ascontiguousarray(arr, dtype="<f8")  # a 0-d input comes back as shape (1,)
    header = MAGIC + struct.pack("<II", VERSION, data.ndim)
    header += struct.pack(f"<{data.ndim}Q", *data.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.data)


def read_tensor(path) -> np.ndarray:
    """Read a tensor file back into a float64 ndarray.

    The payload is read straight into the array returned, a fresh one
    that owns its buffer. The size of a regular file is checked against
    its header before that array is allocated.
    """
    try:
        with open(path, "rb") as fh:
            info = os.fstat(fh.fileno())
            return _read(fh, path, info.st_size if stat.S_ISREG(info.st_mode) else None)
    except OSError as exc:
        raise TensorFileError(f"cannot read {path}: {exc}") from exc


def _read(fh, path, size: int | None) -> np.ndarray:
    """The tensor of the open file ``fh`` of ``size`` bytes (None: unknown, as for a pipe)."""
    raw = fh.read(12)
    if len(raw) < 12:
        raise TensorFileError(f"{path}: truncated header ({len(raw)} bytes)")
    if raw[:4] != MAGIC:
        raise TensorFileError(f"{path}: bad magic {raw[:4]!r}")
    version, ndim = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise TensorFileError(f"{path}: unsupported version {version}")
    if not 1 <= ndim <= _MAX_NDIM:
        raise TensorFileError(f"{path}: implausible ndim {ndim}")
    header_len = 12 + 8 * ndim
    raw = fh.read(8 * ndim)
    if len(raw) < 8 * ndim:
        raise TensorFileError(f"{path}: truncated dims")
    dims = struct.unpack(f"<{ndim}Q", raw)
    if any(d < 1 for d in dims):
        raise TensorFileError(f"{path}: zero-sized dim in {dims}")
    count = math.prod(dims)

    def wrong_size(payload_bytes: int) -> TensorFileError:
        return TensorFileError(
            f"{path}: payload is {payload_bytes} bytes, dims {dims} need {8 * count}"
        )

    if size is not None and size != header_len + 8 * count:
        raise wrong_size(size - header_len)
    out = np.empty(dims, dtype="<f8")
    got = fh.readinto(out.data.cast("B"))
    if got != 8 * count or fh.peek(1):
        raise wrong_size(got + len(fh.read()))  # the file changed, or is not a regular one
    return out.astype(np.float64, copy=False)  # a no-op on a little-endian host
