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

import struct
from pathlib import Path

import numpy as np

from .errors import TensorFileError

MAGIC = b"FTNS"
VERSION = 1

_MAX_NDIM = 32  # sanity bound against corrupted headers


def write_tensor(path, arr) -> None:
    """Write an ndarray (any ndim >= 1) as a tensor file."""
    data = np.ascontiguousarray(arr, dtype=np.float64)
    if data.ndim < 1:
        data = data.reshape(1)
    header = MAGIC + struct.pack("<II", VERSION, data.ndim)
    header += struct.pack(f"<{data.ndim}Q", *data.shape)
    Path(path).write_bytes(header + data.astype("<f8", copy=False).tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    """Read a tensor file back into a float64 ndarray."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise TensorFileError(f"cannot read {path}: {exc}") from exc
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
    if len(raw) < header_len:
        raise TensorFileError(f"{path}: truncated dims")
    dims = struct.unpack_from(f"<{ndim}Q", raw, 12)
    if any(d < 1 for d in dims):
        raise TensorFileError(f"{path}: zero-sized dim in {dims}")
    count = 1
    for d in dims:
        count *= d
    expected = header_len + 8 * count
    if len(raw) != expected:
        raise TensorFileError(
            f"{path}: payload is {len(raw) - header_len} bytes, dims {dims} need {8 * count}"
        )
    payload = np.frombuffer(raw, dtype="<f8", count=count, offset=header_len).reshape(dims)
    return payload.astype(np.float64, order="C")  # a fresh array that owns its buffer
