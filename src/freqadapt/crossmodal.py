"""Text-conditioned feature enhancement with spectral amplitude normalization.

Visual tokens attend to caller-supplied text embeddings (single-head
scaled dot-product attention), and the enhanced map's amplitude spectrum
is standardized per channel. Standardizing the amplitude shrinks the
dominant low-frequency bins relative to everything else, which shifts
energy toward high frequencies while the phase (and with it the spatial
structure) is untouched.

Tokens are :class:`~freqadapt.tensor.Matrix` rows: a C x H x W map
flattens into H*W rows of dim C, and text embeddings hold one row per
token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, ShapeMismatchError
from .rng import SplitMix64
from .spectral import AMP_EPS, _band_split, _rfft2, amp_map, mirror_weights
from .tensor import FeatureMap, Matrix, _checked, softmax_rows

NORM_SCOPES = ("channel", "tensor")

_SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class AttentionParams:
    """Projection weights for single-head cross-attention.

    wq: visual_dim x d_k, wk/wv: text_dim x d_k, wo: d_k x visual_dim, all
    checked at construction, so a call only checks the token dims.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    d_k: int

    def __post_init__(self):
        if self.d_k < 1:
            raise ValueError(f"d_k must be >= 1, got {self.d_k}")
        for name in ("wq", "wk", "wv", "wo"):
            object.__setattr__(self, name, _checked(getattr(self, name), 2, name))
        if any(w.shape[1] != self.d_k for w in (self.wq, self.wk, self.wv)):
            raise ShapeMismatchError("wq/wk/wv must project to d_k columns")
        if self.wk.shape[0] != self.wv.shape[0]:
            raise ShapeMismatchError("wk and wv must share the text dimension")
        if self.wo.shape != (self.d_k, self.visual_dim):
            raise ShapeMismatchError(
                f"wo must be (d_k, visual_dim) = {(self.d_k, self.visual_dim)}, got {self.wo.shape}"
            )

    @property
    def visual_dim(self) -> int:
        return self.wq.shape[0]

    @property
    def text_dim(self) -> int:
        return self.wk.shape[0]

    @classmethod
    def seeded(cls, visual_dim: int, text_dim: int, d_k: int, seed: int) -> "AttentionParams":
        """Gaussian projections scaled by 1/sqrt(fan_in), from one seeded stream."""
        if min(visual_dim, text_dim, d_k) < 1:
            raise ValueError(f"dims must be >= 1, got {(visual_dim, text_dim, d_k)}")
        rng = SplitMix64(seed)

        def draw(rows, cols, fan):
            return rng.normal_array(rows * cols, scale=1.0 / math.sqrt(fan)).reshape(rows, cols)

        return cls(
            wq=draw(visual_dim, d_k, visual_dim),
            wk=draw(text_dim, d_k, text_dim),
            wv=draw(text_dim, d_k, text_dim),
            wo=draw(d_k, visual_dim, d_k),
            d_k=d_k,
        )


def flatten_tokens(x: FeatureMap) -> Matrix:
    """Turn a C x H x W map into H*W token rows of dim C; token i sits at (i // W, i % W)."""
    c = x.channels
    return Matrix(x.data.reshape(c, -1).T)


def unflatten_tokens(t: Matrix, height: int, width: int) -> FeatureMap:
    """Inverse of :func:`flatten_tokens`; requires rows == height * width."""
    if t.rows != height * width:
        raise ShapeMismatchError(
            f"cannot unflatten {t.rows} tokens into {height}x{width} plane"
        )
    return FeatureMap(t.data.T.reshape(t.cols, height, width))


def _attention_terms(xv: Matrix, xt: Matrix, p: AttentionParams):
    """Keys, values and softmax weights of :func:`cross_attention`, dimensions checked."""
    if xv.cols != p.visual_dim:
        raise ShapeMismatchError(f"visual tokens have dim {xv.cols}, wq expects {p.visual_dim}")
    if xt.cols != p.text_dim:
        raise ShapeMismatchError(f"text tokens have dim {xt.cols}, wk/wv expect {p.text_dim}")
    k = xt.data @ p.wk
    v = xt.data @ p.wv
    scores = np.linalg.multi_dot([xv.data, p.wq, k.T]) / math.sqrt(p.d_k)
    return k, v, softmax_rows(Matrix._adopt(scores)).data


def cross_attention(xv: Matrix, xt: Matrix, p: AttentionParams) -> Matrix:
    """softmax(Q K^T / sqrt(d_k)) V, projected back to the visual dim.

    Q comes from the visual tokens, K and V from the text tokens. The
    output has the visual token count and dim; any residual connection is
    the caller's concern. Each matrix chain runs in the order its shapes
    make cheapest (``np.linalg.multi_dot``).
    """
    _, v, attn = _attention_terms(xv, xt, p)
    return Matrix._adopt(np.linalg.multi_dot([attn, v, p.wo]))


def _attend(x: FeatureMap, xt: Matrix, p: AttentionParams) -> FeatureMap:
    """:func:`cross_attention` over a map's tokens, as a map of the same shape."""
    return unflatten_tokens(cross_attention(flatten_tokens(x), xt, p), x.height, x.width)


def _group_mean(v: np.ndarray, scope: str, weight) -> np.ndarray:
    """Mean of each normalization group, bin (c, u, v) counted ``weight[v]`` times.

    The group size is the sum of the weight's own entries times the size
    of the axes it broadcasts along, not a sum of the broadcast weights:
    the same value, exactly, since the weights are small integers.
    """
    axes = (1, 2) if scope == "channel" else (0, 1, 2)
    w = np.asarray(weight)
    w = w.reshape((1,) * (v.ndim - w.ndim) + w.shape)
    size = w.sum(axis=axes, keepdims=True) * math.prod(v.shape[a] for a in axes if w.shape[a] == 1)
    return (weight * v).sum(axis=axes, keepdims=True) / size


def _check_scope(scope: str) -> None:
    if scope not in NORM_SCOPES:
        raise ValueError(f"scope must be one of {NORM_SCOPES}, got {scope!r}")


def _standardize(a: np.ndarray, scope: str, weight=1.0, first: int = 0) -> np.ndarray:
    """Amplitudes at mean 0, population std 1 per normalization group.

    ``weight`` broadcasts against the last axis: 1 on a full grid, and
    :func:`~freqadapt.spectral.mirror_weights` on a half spectrum, whose
    weighted statistics are then those of the full grid. ``first`` is the
    index of a's first group in the whole map, so that an error names a
    group of a channel block by its index in the map.
    """
    _check_scope(scope)
    out = a - _group_mean(a, scope, weight)
    sd = np.sqrt(_group_mean(out * out, scope, weight))
    if np.any(sd <= _SIGMA_FLOOR):
        bad = int(np.argmax(sd.ravel() <= _SIGMA_FLOOR))
        raise DegenerateSpectrumError(
            f"amplitude std {sd.ravel()[bad]:.3e} in group {first + bad} is below "
            f"{_SIGMA_FLOOR:.0e}; normalization is undefined"
        )
    out /= sd
    return out


def spectral_normalize(x: FeatureMap, scope: str = "channel") -> FeatureMap:
    """Standardize a map's amplitude spectrum and reconstruct it.

    Every bin keeps its phase (see :func:`amp_map`), so this redistributes
    energy across frequencies without moving structure. Scope "channel"
    standardizes each channel alone, so :func:`amp_map` may split the map
    into channel blocks and run them on several threads; scope "tensor"
    takes its statistics over all channels, so it runs as one block. The
    scope is checked before any transform.
    """
    _check_scope(scope)
    weight = mirror_weights(x.width)
    if scope == "tensor":
        return amp_map(x, lambda a: _standardize(a, scope, weight))
    return amp_map(x, lambda a, ch: _standardize(a, scope, weight, ch.start), per_channel=True)


def crossmodal_forward(
    x: FeatureMap,
    xt: Matrix,
    p: AttentionParams,
    scope: str = "channel",
) -> FeatureMap:
    """Full pipeline: cross-attend to text tokens, then normalize the spectrum."""
    return spectral_normalize(_attend(x, xt, p), scope=scope)


def _high_fraction(x: FeatureMap, radial_cut: float) -> float:
    """High-band share of the power spectrum, on half-spectrum amplitudes scaled to peak 1.

    Scaling by the peak keeps the squares finite for huge maps and keeps
    AMP_EPS from swamping tiny ones, so the share is scale-invariant.
    """
    m = np.abs(_rfft2(x.data))
    peak = m.max()
    if peak > 0.0:
        m /= peak
    m *= m
    m += AMP_EPS
    low, high = _band_split(m, x.width, radial_cut)
    return high / (low + high)


def high_freq_shift(x_before: FeatureMap, x_after: FeatureMap, radial_cut: float) -> float:
    """Change in high-band energy fraction: after minus before."""
    if x_before.shape != x_after.shape:
        raise ShapeMismatchError(
            f"shapes disagree: {x_before.shape} vs {x_after.shape}"
        )
    return _high_fraction(x_after, radial_cut) - _high_fraction(x_before, radial_cut)
