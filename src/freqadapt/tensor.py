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
import threading

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


def _quiet() -> np.errstate:
    """A local ``np.errstate`` with numpy's overflow, invalid and divide warnings off.

    For a computation whose result :meth:`_Checked._adopt` or a typed
    check of the caller decides: an overflow then ends in a typed error,
    whatever the warning filters are.
    """
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


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


def _tap_sum(padded: np.ndarray, weights: np.ndarray, product: np.ufunc,
             out: np.ndarray, tap: np.ndarray) -> np.ndarray:
    """The (c_out, H, W) sum over the k x k taps of a same-size convolution.

    The caller owns all three buffers, so this loop allocates nothing.
    ``padded`` is (C, H + 2p + 1, W + 2p), k the last axis of ``weights``
    and p = (k - 1) / 2: the (C, H, W) map sits in its interior and the
    rest is zero. ``out`` and ``tap`` are (c_out, H*(W + 2p)). Flattened
    per channel, tap (dy, dx) is product(weights[..., dy, dx], window,
    out=tap) on the (C, H*(W + 2p)) window starting at dy*(W + 2p) + dx, a
    view with no copy; the spare row keeps the last tap's window in
    bounds. The taps are summed into ``out``, zeroed first, in (dy, dx)
    order. Each output row carries 2p junk columns, which wrapped around a
    padded row edge, and the returned view of ``out`` leaves them out.
    Only ``out`` and ``tap`` are written. :func:`conv2d` keeps its three
    buffers per thread; ``gen_features("smooth")`` passes fresh ones.
    """
    c, hp, wp = padded.shape
    k = weights.shape[-1]
    h, w = hp - k, wp - k + 1
    flat = padded.reshape(c, -1)
    n = h * wp
    out.fill(0.0)
    for dy in range(k):
        for dx in range(k):
            s = dy * wp + dx
            product(weights[..., dy, dx], flat[:, s:s + n], out=tap)
            out += tap
    return out.reshape(-1, h, wp)[:, :, :w]


_conv_buffers = threading.local()


def conv2d(x: FeatureMap, kernel) -> FeatureMap:
    """Same-size 2D convolution with zero padding.

    ``kernel`` has axes [c_out, c_in, k, k] with k odd; the map is padded
    by p = (k - 1) / 2 so the spatial extent is preserved. Tap (dy, dx) is
    one [c_out, c_in] x [c_in, H*(W + 2p)] product in :func:`_tap_sum`.

    Each thread keeps the padded, output and tap buffers of its last
    call's shape (``threading.local``): about 0.5 MB after a 16x32x32 call
    with a 16-channel 7x7 kernel and 5.6 MB after a 64x56x56 one with 64.
    The padded border is zeroed once, when the buffer is allocated, and a
    call writes only the interior. So a call at the last shape allocates
    only its result, a fresh C-ordered (c_out, H, W) array that shares no
    memory with the buffers, plus the kernel's finiteness mask; a call at
    a new shape frees the old buffers and allocates new ones first.
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
    key = (c, h, w, kern.shape[0], k)
    if getattr(_conv_buffers, "key", None) != key:
        _conv_buffers.key = _conv_buffers.bufs = None  # free the old shape's buffers first
        padded = np.zeros((c, h + 2 * p + 1, w + 2 * p))
        out = np.empty((kern.shape[0], h * (w + 2 * p)))
        _conv_buffers.bufs = padded, out, np.empty_like(out)
        _conv_buffers.key = key
    padded, out, tap = _conv_buffers.bufs
    padded[:, p:p + h, p:p + w] = x.data
    with _quiet():
        conv = _tap_sum(padded, kern, np.matmul, out, tap)
    return FeatureMap._adopt(np.array(conv, order="C"))


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
    """Row-wise softmax with per-row max subtraction for stability.

    The row max is exact, so it has the same bits however numpy orders
    its comparisons. numpy's overflow, invalid and divide warnings are off
    inside, so a shift that overflows, as in [[1e308, -1e308]], gives
    exp(-inf) = 0 whatever the warning filters are.
    """
    d = m.data
    with _quiet():
        e = d - d.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        e /= e.sum(axis=1, keepdims=True)
    return Matrix._adopt(e)
