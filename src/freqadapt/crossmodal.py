"""Text-conditioned feature enhancement with spectral amplitude normalization.

Visual tokens attend to caller-supplied text embeddings (single-head
scaled dot-product attention), and the enhanced map's amplitude spectrum
is standardized per channel. Standardizing the amplitude shrinks the
dominant low-frequency bins relative to everything else, which shifts
energy toward high frequencies while the phase (and with it the spatial
structure) is untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, ShapeMismatchError
from .rng import SplitMix64
from .spectral import AMP_EPS, AmpPhase, _band_split, amp_map, fft2, mirror_weights
from .tensor import FeatureMap, Matrix, _frozen, softmax_rows

NORM_SCOPES = ("channel", "tensor")

_SIGMA_FLOOR = 1e-12


class TokenMatrix:
    """Row-major token embeddings: one row per token."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeMismatchError(f"TokenMatrix needs 2 axes, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"TokenMatrix axes must be >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("TokenMatrix values must be finite")
        self.data = _frozen(arr)

    @property
    def tokens(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def __repr__(self):
        return f"TokenMatrix({self.tokens}x{self.dim})"


@dataclass(frozen=True)
class AttentionParams:
    """Projection weights for single-head cross-attention.

    wq: visual_dim x d_k, wk/wv: text_dim x d_k, wo: d_k x visual_dim.
    ``wo_bias`` is optional (length visual_dim); the default is no bias.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    d_k: int
    wo_bias: np.ndarray | None = None

    def __post_init__(self):
        wq = np.asarray(self.wq, dtype=np.float64)
        wk = np.asarray(self.wk, dtype=np.float64)
        wv = np.asarray(self.wv, dtype=np.float64)
        wo = np.asarray(self.wo, dtype=np.float64)
        if self.d_k < 1:
            raise ValueError(f"d_k must be >= 1, got {self.d_k}")
        for name, w in (("wq", wq), ("wk", wk), ("wv", wv), ("wo", wo)):
            if w.ndim != 2:
                raise ShapeMismatchError(f"{name} must be 2D, got shape {w.shape}")
            if not np.all(np.isfinite(w)):
                raise ValueError(f"{name} values must be finite")
        if wq.shape[1] != self.d_k or wk.shape[1] != self.d_k or wv.shape[1] != self.d_k:
            raise ShapeMismatchError("wq/wk/wv must project to d_k columns")
        if wk.shape[0] != wv.shape[0]:
            raise ShapeMismatchError("wk and wv must share the text dimension")
        if wo.shape[0] != self.d_k:
            raise ShapeMismatchError("wo must consume d_k rows")
        bias = self.wo_bias
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != (wo.shape[1],):
                raise ShapeMismatchError(f"wo_bias must have length {wo.shape[1]}")
            if not np.all(np.isfinite(bias)):
                raise ValueError("wo_bias values must be finite")
            object.__setattr__(self, "wo_bias", _frozen(bias))
        object.__setattr__(self, "wq", _frozen(wq))
        object.__setattr__(self, "wk", _frozen(wk))
        object.__setattr__(self, "wv", _frozen(wv))
        object.__setattr__(self, "wo", _frozen(wo))

    @property
    def visual_dim(self) -> int:
        return self.wq.shape[0]

    @property
    def text_dim(self) -> int:
        return self.wk.shape[0]

    @classmethod
    def seeded(cls, visual_dim: int, text_dim: int, d_k: int, seed: int) -> "AttentionParams":
        """Gaussian projections scaled by 1/sqrt(fan_in), from one seeded stream."""
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


def flatten_tokens(x: FeatureMap) -> TokenMatrix:
    """Turn a C x H x W map into H*W tokens of dim C; token i sits at (i // W, i % W)."""
    c = x.channels
    return TokenMatrix(x.data.reshape(c, -1).T)


def unflatten_tokens(t: TokenMatrix, height: int, width: int) -> FeatureMap:
    """Inverse of :func:`flatten_tokens`; requires tokens == height * width."""
    if t.tokens != height * width:
        raise ShapeMismatchError(
            f"cannot unflatten {t.tokens} tokens into {height}x{width} plane"
        )
    return FeatureMap(t.data.T.reshape(t.dim, height, width))


def cross_attention(xv: TokenMatrix, xt: TokenMatrix, p: AttentionParams) -> TokenMatrix:
    """softmax(Q K^T / sqrt(d_k)) V, projected back to the visual dim.

    Q comes from the visual tokens, K and V from the text tokens. The
    output has the visual token count and dim; any residual connection is
    the caller's concern.
    """
    if xv.dim != p.visual_dim:
        raise ShapeMismatchError(f"visual tokens have dim {xv.dim}, wq expects {p.visual_dim}")
    if xt.dim != p.text_dim:
        raise ShapeMismatchError(f"text tokens have dim {xt.dim}, wk/wv expect {p.text_dim}")
    if p.wo.shape[1] != xv.dim:
        raise ShapeMismatchError(f"wo outputs dim {p.wo.shape[1]}, visual tokens have {xv.dim}")
    q = xv.data @ p.wq
    k = xt.data @ p.wk
    v = xt.data @ p.wv
    scores = q @ k.T / math.sqrt(p.d_k)
    attn = softmax_rows(Matrix(scores))
    out = (attn.data @ v) @ p.wo
    if p.wo_bias is not None:
        out = out + p.wo_bias
    return TokenMatrix(out)


def _group_mean(v: np.ndarray, scope: str, weight) -> np.ndarray:
    """Mean of each normalization group, bin (c, u, v) counted ``weight[v]`` times."""
    axes = (1, 2) if scope == "channel" else (0, 1, 2)
    w = np.broadcast_to(weight, v.shape)
    return (w * v).sum(axis=axes, keepdims=True) / w.sum(axis=axes, keepdims=True)


def _standardize(a: np.ndarray, scope: str, weight=1.0) -> np.ndarray:
    """Amplitudes at mean 0, population std 1 per normalization group.

    ``weight`` broadcasts against the last axis: 1 on a full grid, and
    :func:`~freqadapt.spectral.mirror_weights` on a half spectrum, whose
    weighted statistics are then those of the full grid.
    """
    if scope not in NORM_SCOPES:
        raise ValueError(f"scope must be one of {NORM_SCOPES}, got {scope!r}")
    out = a - _group_mean(a, scope, weight)
    sd = np.sqrt(_group_mean(out * out, scope, weight))
    if np.any(sd <= _SIGMA_FLOOR):
        bad = int(np.argmax(sd.ravel() <= _SIGMA_FLOOR))
        raise DegenerateSpectrumError(
            f"amplitude std {sd.ravel()[bad]:.3e} in group {bad} is below {_SIGMA_FLOOR:.0e}; "
            "normalization is undefined"
        )
    out /= sd
    return out


def amp_normalize(ap: AmpPhase, scope: str = "channel") -> AmpPhase:
    """Standardize the amplitude to mean 0, population std 1.

    With scope="channel" (the default) each channel's H*W bins form one
    normalization group; scope="tensor" standardizes over all bins at
    once. The result carries signed amplitudes; phase passes through
    bit-identical. Groups with std <= 1e-12 raise
    :class:`DegenerateSpectrumError`.
    """
    return AmpPhase(_standardize(ap.amplitude, scope), ap.phase)


def spectral_normalize(x: FeatureMap, scope: str = "channel") -> FeatureMap:
    """Standardize a map's amplitude spectrum and reconstruct it.

    Every bin keeps its phase (see :func:`amp_map`), so this redistributes
    energy across frequencies without moving structure.
    """
    weight = mirror_weights(x.width)
    return amp_map(x, lambda a: _standardize(a, scope, weight))


def crossmodal_forward(
    x: FeatureMap,
    xt: TokenMatrix,
    p: AttentionParams,
    scope: str = "channel",
) -> FeatureMap:
    """Full pipeline: cross-attend to text tokens, then normalize the spectrum."""
    enhanced = cross_attention(flatten_tokens(x), xt, p)
    return spectral_normalize(unflatten_tokens(enhanced, x.height, x.width), scope=scope)


def _high_fraction(x: FeatureMap, radial_cut: float) -> float:
    z = fft2(x).data
    low, high = _band_split(z.real**2 + z.imag**2 + AMP_EPS, radial_cut)
    total = low + high
    if total == 0.0:
        return 0.0
    return high / total


def high_freq_shift(x_before: FeatureMap, x_after: FeatureMap, radial_cut: float) -> float:
    """Change in high-band energy fraction: after minus before."""
    if x_before.shape != x_after.shape:
        raise ShapeMismatchError(
            f"shapes disagree: {x_before.shape} vs {x_after.shape}"
        )
    return _high_fraction(x_after, radial_cut) - _high_fraction(x_before, radial_cut)
