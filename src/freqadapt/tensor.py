"""Dense float64 tensor containers on the one read-only base, and the basic neural ops.

Everything is double precision and immutable after construction. Every
array the library stores is a field of a :class:`_Frozen`: the one
``data`` of :class:`FeatureMap` and :class:`Matrix`, or a named array of
:class:`~freqadapt.adapter.AdapterWeights` and
:class:`~freqadapt.crossmodal.AttentionParams`. Each is checked once,
marked read-only and never reassigned, so values are safe to share
across threads. The public constructors copy their input in first, so
mutating the source afterwards changes nothing, and a non-finite input
raises ValueError. Every array the library computes reaches a container
through :meth:`_Frozen._adopt`, after the same checks, and a non-finite
result raises :class:`~freqadapt.errors.NonFiniteResultError`.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import NonFiniteResultError, ShapeMismatchError


class _Frozen:
    """A fixed set of named finite float64 arrays of rank ``_rank``, each read-only.

    A subclass names its arrays in ``_fields``, which are also its
    ``__slots__``, and checks their shapes against each other in
    ``_check_shapes``. The constructor takes the arrays by keyword or in
    ``_fields`` order and copies each in; a missing or unknown name raises
    TypeError. Assigning or deleting an attribute raises AttributeError,
    so a copy or an unpickled object is built through the constructor
    (:meth:`__reduce__`).
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _rank: int

    def __init__(self, *arrays, **named):
        given = dict(zip(self._fields, arrays), **named)
        if len(arrays) + len(named) != len(given) or given.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the arrays {', '.join(self._fields)}, "
                            f"each once, by keyword or in that order")
        # the copy is the only one made, so mutating the source afterwards changes nothing
        self._freeze([np.array(given[name], dtype=np.float64, order="C", copy=True)
                      for name in self._fields], ValueError)

    @classmethod
    def _adopt(cls, *arrays: np.ndarray, scale: float | None = None):
        """The object of ``arrays``, in ``_fields`` order, which the library has just computed.

        A C-ordered float64 array is frozen in place, without a copy, if it
        owns its buffer or is a view of a read-only array that does, as
        the parts of one :meth:`~freqadapt.rng.SplitMix64.normal_parts`
        draw are; so the caller must hold no other reference it writes
        through. Any other array is copied first, as the constructor
        copies. ``scale``, if given, is max|data| of a one-field container
        (see :meth:`_freeze`). A non-finite value raises
        :class:`~freqadapt.errors.NonFiniteResultError`.
        """
        owned = []
        for arr in arrays:
            base = arr.base
            if arr.dtype != np.float64 or not arr.flags.c_contiguous or not (
                    arr.flags.owndata or isinstance(base, np.ndarray) and base.flags.owndata
                    and not base.flags.writeable):
                arr = np.array(arr, dtype=np.float64, order="C")
            owned.append(arr)
        obj = cls.__new__(cls)
        obj._freeze(owned, NonFiniteResultError, scale)
        return obj

    def _freeze(self, arrays: list[np.ndarray], non_finite: type[ValueError],
                scale: float | None = None) -> None:
        """Store ``arrays`` as the fields, each marked read-only after the one guard.

        Raises ShapeMismatchError on a rank other than ``_rank``, ValueError
        on an empty axis and ``non_finite`` on a non-finite value; the
        message names the array, or the class for a one-field container.
        A caller that has already taken ``scale`` = max|data| passes it, and
        the finiteness check reads it instead of scanning the array: a NaN
        carries into the max and an infinity makes it infinite, so the
        scale is finite only if the array is.
        """
        for name, arr in zip(self._fields, arrays):
            label = type(self).__name__ if name == "data" else name
            if arr.ndim != self._rank:
                raise ShapeMismatchError(f"{label} needs {self._rank} axes, got shape {arr.shape}")
            if min(arr.shape) < 1:
                raise ValueError(f"{label} axes must be >= 1, got shape {arr.shape}")
            if not (np.all(np.isfinite(arr)) if scale is None else math.isfinite(scale)):
                raise non_finite(f"{label} values must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        self._check_shapes()

    def _check_shapes(self) -> None:
        """Nothing to check across the arrays of a one-field container."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __repr__(self):
        shapes = ("x".join(map(str, getattr(self, name).shape)) for name in self._fields)
        return f"{type(self).__name__}({', '.join(shapes)})"


def _quiet() -> np.errstate:
    """A local ``np.errstate`` with numpy's overflow, invalid and divide warnings off.

    For a computation whose result :meth:`_Frozen._adopt` or a typed
    check of the caller decides: an overflow then ends in a typed error,
    whatever the warning filters are.
    """
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


class FeatureMap(_Frozen):
    """A channels x height x width activation tensor, row-major (c, h, w)."""

    __slots__ = _fields = ("data",)
    _rank = 3

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


class Matrix(_Frozen):
    """A rows x cols real matrix, row-major, double precision."""

    __slots__ = _fields = ("data",)
    _rank = 2

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

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
