"""Dense float64 tensor containers and the basic neural ops built on them.

Everything is double precision and immutable after construction: every
array the library stores, in these containers and in the adapter and
attention weights, is checked once by :func:`_frozen` and marked
read-only, so values are safe to share across threads. The public
constructors copy their input in first (:func:`_checked`), so mutating
the source afterwards changes nothing, and a non-finite input raises
ValueError. Every array the library computes reaches a container through
:meth:`_Checked._adopt`, after the same checks, and a non-finite result
raises :class:`~freqadapt.errors.NonFiniteResultError`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteResultError, ShapeMismatchError


def _frozen(arr: np.ndarray, rank: int, name: str, scale: float | None = None,
            non_finite: type[ValueError] = ValueError) -> np.ndarray:
    """``arr`` marked read-only after the checks for rank, size and finiteness.

    Raises ShapeMismatchError on a rank other than ``rank``, ValueError on
    an empty axis and ``non_finite`` on a non-finite value. A caller that
    has already taken ``scale`` = max|arr| passes it, and the finiteness
    check reads it instead of scanning ``arr``: a NaN carries into the max
    and an infinity makes it infinite, so the scale is finite only if
    ``arr`` is.
    """
    if arr.ndim != rank:
        raise ShapeMismatchError(f"{name} needs {rank} axes, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValueError(f"{name} axes must be >= 1, got shape {arr.shape}")
    if not (np.all(np.isfinite(arr)) if scale is None else math.isfinite(scale)):
        raise non_finite(f"{name} values must be finite")
    arr.flags.writeable = False
    return arr


def _checked(data, rank: int, name: str) -> np.ndarray:
    """``data`` as a read-only float64 C-order copy, checked by :func:`_frozen`.

    The guard of every public constructor: the copy is the only one made,
    so mutating the source afterwards changes nothing.
    """
    return _frozen(np.array(data, dtype=np.float64, order="C", copy=True), rank, name)


class _Checked:
    """A finite float64 array of rank ``_rank``, non-empty on every axis."""

    __slots__ = ("data",)
    _rank: int

    def __init__(self, data):
        self.data = _checked(data, self._rank, type(self).__name__)

    @classmethod
    def _adopt(cls, arr: np.ndarray, scale: float | None = None):
        """Wrap an array the library has just computed, without copying it.

        ``arr`` is frozen in place after the checks the constructor runs,
        so the caller must hold no other reference it writes through;
        ``scale``, if given, is max|arr| (see :func:`_frozen`). A view, an
        array that does not own its buffer, or one that is not C-ordered
        float64 is copied first, as the constructor copies. A non-finite
        value raises :class:`~freqadapt.errors.NonFiniteResultError`.
        """
        if arr.dtype != np.float64 or not (arr.flags.owndata and arr.flags.c_contiguous):
            arr = np.array(arr, dtype=np.float64, order="C")
        obj = cls.__new__(cls)
        obj.data = _frozen(arr, cls._rank, cls.__name__, scale, NonFiniteResultError)
        return obj

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


def _tap_sum(data: np.ndarray, c_out: int, weights: np.ndarray, product: np.ufunc) -> np.ndarray:
    """The (c_out, H, W) sum over the k x k taps of a same-size convolution of ``data``.

    The (C, H, W) map is zero-padded by p = (k - 1) / 2 once into a
    (C, H + 2p + 1, W + 2p) buffer and flattened per channel, k the last
    axis of ``weights``. Tap (dy, dx) is then
    product(weights[..., dy, dx], window, out=tap) on the (C, H*(W + 2p))
    window starting at dy*(W + 2p) + dx, a view with no copy; the spare row
    keeps the last tap's window in bounds. The taps are summed in (dy, dx)
    order. Each output row carries 2p junk columns, which wrapped around a
    padded row edge, and the returned view leaves them out. ``data`` is
    released once padded, so a temporary map the caller passes in is freed
    before the taps run and at most three map-sized buffers are alive.
    """
    c, h, w = data.shape
    k = weights.shape[-1]
    p = (k - 1) // 2
    wp = w + 2 * p
    padded = np.zeros((c, h + 2 * p + 1, wp))
    padded[:, p:p + h, p:p + w] = data
    del data
    flat = padded.reshape(c, -1)
    n = h * wp
    out = np.zeros((c_out, n))
    tap = np.empty_like(out)
    for dy in range(k):
        for dx in range(k):
            s = dy * wp + dx
            product(weights[..., dy, dx], flat[:, s:s + n], out=tap)
            out += tap
    return out.reshape(c_out, h, wp)[:, :, :w]


def conv2d(x: FeatureMap, kernel) -> FeatureMap:
    """Same-size 2D convolution with zero padding.

    ``kernel`` has axes [c_out, c_in, k, k] with k odd; the map is padded
    by p = (k - 1) / 2 so the spatial extent is preserved. Tap (dy, dx) is
    one [c_out, c_in] x [c_in, H*(W + 2p)] product in :func:`_tap_sum`.
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
    return FeatureMap._adopt(_tap_sum(x.data, kern.shape[0], kern, np.matmul))


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # exp(-|v|) never overflows; for v < 0 it is exactly exp(v). One division
    # gives 1 / (1 + e) for v >= 0 and e / (1 + e) below
    e = np.abs(v)
    np.negative(e, out=e)
    np.exp(e, out=e)
    s = np.where(v >= 0, 1.0, e)
    e += 1.0
    s /= e
    return s


def silu(x: FeatureMap) -> FeatureMap:
    """Elementwise x * sigmoid(x)."""
    s = _sigmoid(x.data)
    s *= x.data
    return FeatureMap._adopt(s)


def softmax_rows(m: Matrix) -> Matrix:
    """Row-wise softmax with per-row max subtraction for stability."""
    shifted = m.data - m.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return Matrix._adopt(e / e.sum(axis=1, keepdims=True))
