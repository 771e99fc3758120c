"""Dense float64 tensor containers and the basic neural ops built on them.

Everything is double precision and immutable after construction: every
array the library stores, in these containers and in the adapter and
attention weights, passes through :func:`_checked`, which copies it in
once, checks it and marks it read-only, so values are safe to share
across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError


def _checked(data, rank: int, name: str) -> np.ndarray:
    """``data`` as a read-only float64 C-order copy, checked for rank, size and finiteness.

    The one guard for every array the library stores: the copy is the
    only one made, so mutating the source afterwards changes nothing.
    Raises ShapeMismatchError on a rank other than ``rank`` and ValueError
    on an empty axis or a non-finite value.
    """
    arr = np.array(data, dtype=np.float64, order="C", copy=True)
    if arr.ndim != rank:
        raise ShapeMismatchError(f"{name} needs {rank} axes, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValueError(f"{name} axes must be >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} values must be finite")
    arr.flags.writeable = False
    return arr


class _Checked:
    """A finite float64 array of rank ``_rank``, non-empty on every axis."""

    __slots__ = ("data",)
    _rank: int

    def __init__(self, data):
        self.data = _checked(data, self._rank, type(self).__name__)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self):
        return f"{type(self).__name__}({'x'.join(map(str, self.shape))})"


class FeatureMap(_Checked):
    """A channels x height x width activation tensor, row-major (c, h, w)."""

    __slots__ = ()
    _rank = 3

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


class Matrix(_Checked):
    """A rows x cols real matrix, row-major, double precision."""

    __slots__ = ()
    _rank = 2

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


def conv2d(x: FeatureMap, kernel) -> FeatureMap:
    """Same-size 2D convolution with zero padding.

    ``kernel`` has axes [c_out, c_in, k, k] with k odd; the map is padded
    by p = (k - 1) / 2 so the spatial extent is preserved. The map is
    zero-padded once into a (c_in, H + 2p + 1, W + 2p) buffer and flattened
    per channel. Tap (dy, dx) is then one [c_out, c_in] x [c_in, H*(W + 2p)]
    product on the window starting at dy*(W + 2p) + dx, a view with no copy;
    the spare row keeps the last tap's window in bounds. Each output row
    carries 2p junk columns, which wrapped around a padded row edge, and
    they are sliced off at the end.
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
    if not np.all(np.isfinite(kern)):
        raise ValueError("kernel values must be finite")
    c, h, w = x.shape
    p = (k - 1) // 2
    wp = w + 2 * p
    padded = np.zeros((c, h + 2 * p + 1, wp))
    padded[:, p:p + h, p:p + w] = x.data
    flat = padded.reshape(c, -1)
    n = h * wp
    out = np.zeros((kern.shape[0], n))
    tap = np.empty_like(out)
    for dy in range(k):
        for dx in range(k):
            s = dy * wp + dx
            np.matmul(kern[:, :, dy, dx], flat[:, s:s + n], out=tap)
            out += tap
    return FeatureMap(out.reshape(-1, h, wp)[:, :, :w])


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # exp(-|v|) never overflows; for v < 0 it is exactly exp(v)
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def silu(x: FeatureMap) -> FeatureMap:
    """Elementwise x * sigmoid(x)."""
    return FeatureMap(x.data * _sigmoid(x.data))


def softmax_rows(m: Matrix) -> Matrix:
    """Row-wise softmax with per-row max subtraction for stability."""
    shifted = m.data - m.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return Matrix(e / e.sum(axis=1, keepdims=True))
