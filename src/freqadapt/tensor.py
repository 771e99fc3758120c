"""Dense float64 tensor containers and the basic neural ops built on them.

Everything is double precision and immutable after construction: the
wrapped arrays are copied in and marked read-only, so values are safe to
share across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError


def _frozen(data, dtype=np.float64) -> np.ndarray:
    arr = np.array(data, dtype=dtype, order="C", copy=True)
    arr.flags.writeable = False
    return arr


class FeatureMap:
    """A channels x height x width activation tensor, row-major (c, h, w)."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeMismatchError(f"FeatureMap needs 3 axes, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"FeatureMap axes must be >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("FeatureMap values must be finite")
        self.data = _frozen(arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def __repr__(self):
        c, h, w = self.shape
        return f"FeatureMap({c}x{h}x{w})"


class Matrix:
    """A rows x cols real matrix, row-major, double precision."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeMismatchError(f"Matrix needs 2 axes, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"Matrix axes must be >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("Matrix values must be finite")
        self.data = _frozen(arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def conv2d(x: FeatureMap, kernel, padding: int) -> FeatureMap:
    """Same-size 2D convolution with zero padding.

    ``kernel`` has axes [c_out, c_in, k, k] with k odd; ``padding`` must be
    (k - 1) / 2 so the spatial extent is preserved. The sum runs by kernel
    offset: one [c_out, c_in] x [c_in, H*W] product per (dy, dx), so working
    memory stays O(C*H*W) whatever k is.
    """
    kern = np.asarray(kernel, dtype=np.float64)
    if kern.ndim != 4 or kern.shape[2] != kern.shape[3]:
        raise ShapeMismatchError(f"kernel must be [c_out, c_in, k, k], got {kern.shape}")
    k = kern.shape[2]
    if k % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {k}")
    if kern.shape[1] != x.channels:
        raise ShapeMismatchError(
            f"kernel expects {kern.shape[1]} input channels, map has {x.channels}"
        )
    if padding != (k - 1) // 2:
        raise ValueError(f"padding must be {(k - 1) // 2} for k={k}, got {padding}")
    if not np.all(np.isfinite(kern)):
        raise ValueError("kernel values must be finite")
    c, h, w = x.shape
    padded = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((kern.shape[0], h * w))
    for dy in range(k):
        for dx in range(k):
            out += kern[:, :, dy, dx] @ padded[:, dy:dy + h, dx:dx + w].reshape(c, h * w)
    return FeatureMap(out.reshape(-1, h, w))


def _sigmoid(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def silu(x: FeatureMap) -> FeatureMap:
    """Elementwise x * sigmoid(x)."""
    return FeatureMap(x.data * _sigmoid(x.data))


def softmax_rows(m: Matrix) -> Matrix:
    """Row-wise softmax with per-row max subtraction for stability."""
    shifted = m.data - m.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return Matrix(e / e.sum(axis=1, keepdims=True))
