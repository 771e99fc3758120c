"""The lightweight adapter block and per-stage placement.

The block runs three parallel convolutions (3x3, 5x5, 7x7) over the same
input, averages them, aggregates with a 1x1 convolution, applies SiLU,
passes the result through an augmentation slot, adds the skip connection
and projects with a final 1x1 convolution. The branches are linear, so
they run as one fused 7x7 convolution; the 1x1 aggregation and projection
each run as one [C, C] x [C, H*W] product, so a block runs one
convolution.
Augmentation choices per backbone stage are described by
:class:`PlacementConfig`; stage seeds are derived independently so
evaluation order never matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .crossmodal import AttentionParams, crossmodal_forward
from .errors import ShapeMismatchError
from .rng import SplitMix64, mix_seed
from .style import style_diversify
from .synth import gen_text_tokens
from .tensor import FeatureMap, Matrix, _checked, _frozen, conv2d, silu

STAGE_KINDS = ("none", "plain", "style", "crossmodal")

# substream tags for per-stage seed derivation
_TAG_WEIGHTS = 1
_TAG_STYLE = 2
_TAG_TEXT = 3
_TAG_ATTENTION = 4

# the arrays of an adapter block and their kernel sizes, in the order seeded draws them
_KERNELS = (("k3", 3), ("k5", 5), ("k7", 7), ("agg", 1), ("proj", 1))


@dataclass(frozen=True)
class AdapterWeights:
    """Convolution weights of one adapter block: 3/5/7 branches, 1x1 agg and proj."""

    k3: np.ndarray
    k5: np.ndarray
    k7: np.ndarray
    agg: np.ndarray
    proj: np.ndarray

    def __post_init__(self):
        self._check(_checked)

    def _check(self, freeze: Callable[[np.ndarray, int, str], np.ndarray]) -> None:
        """Pass each array through ``freeze`` and check the [C, C, k, k] shapes."""
        c = None
        for name, k in _KERNELS:
            arr = freeze(getattr(self, name), 4, name)
            c = arr.shape[0] if c is None else c
            if arr.shape != (c, c, k, k):
                raise ShapeMismatchError(f"{name} must be {(c, c, k, k)}, got {arr.shape}")
            object.__setattr__(self, name, arr)

    @property
    def channels(self) -> int:
        return self.k3.shape[0]

    @classmethod
    def zero_identity(cls, channels: int) -> "AdapterWeights":
        """All-zero branches with an identity projection: the block becomes a no-op."""
        eye = np.eye(channels)[:, :, None, None]
        return cls(
            k3=np.zeros((channels, channels, 3, 3)),
            k5=np.zeros((channels, channels, 5, 5)),
            k7=np.zeros((channels, channels, 7, 7)),
            agg=np.zeros((channels, channels, 1, 1)),
            proj=eye,
        )

    @classmethod
    def seeded(cls, channels: int, seed: int) -> "AdapterWeights":
        """Gaussian weights scaled by 1/(C * k^2) per branch, identity-plus-noise projection."""
        if channels < 1:
            raise ValueError(f"channels must be >= 1, got {channels}")
        # times the reciprocal, as normal_array(n, scale) scales: dividing rounds differently
        parts = SplitMix64(seed).normal_parts([(channels, channels, k, k) for _, k in _KERNELS],
                                              [1.0 / (channels * k * k) for _, k in _KERNELS])
        # each part is frozen as the view of the one draw it is: the draw is fresh,
        # so the copy __init__ makes is not needed
        obj = cls.__new__(cls)
        for (name, _), part in zip(_KERNELS, parts):
            object.__setattr__(obj, name, part)
        noise = obj.proj
        noise *= 0.1
        np.add(np.eye(channels)[:, :, None, None], noise, out=noise)  # eye + 0.1 * noise
        parts[0].base.flags.writeable = False  # so no view of the draw can be made writeable again
        obj._check(_frozen)
        return obj


def _fused_kernel(w: AdapterWeights) -> np.ndarray:
    """mean(conv3, conv5, conv7) as one 7x7 kernel.

    The branches are linear, so they re-parameterize into a single
    convolution (RepVGG, Ding et al. 2021): zero-pad k3 and k5 to 7x7 and
    average them with k7. The aggregation is not folded in: contracting
    it with this kernel costs 2*49*C^3 FLOP, more than running it on the
    conv output (2*C^2*H*W) whenever H*W < 49*C.
    """
    branches = w.k7.copy()
    branches[:, :, 1:6, 1:6] += w.k5
    branches[:, :, 2:5, 2:5] += w.k3
    branches /= 3.0
    return branches


def adapter_forward(
    x: FeatureMap,
    w: AdapterWeights,
    augment: Callable[[FeatureMap], FeatureMap] | None = None,
) -> FeatureMap:
    """One adapter block pass; ``augment`` fills the augmentation slot.

    Computes proj(x + augment(silu(agg(avg(conv3, conv5, conv7))))), with
    the three branches run as one fused 7x7 convolution, the block's only
    one. The 1x1 aggregation and projection each run as one
    [C, C] x [C, H*W] product.
    """
    if w.channels != x.channels:
        raise ShapeMismatchError(f"weights expect {w.channels} channels, map has {x.channels}")
    activated = silu(_pointwise(w.agg, conv2d(x, _fused_kernel(w)).data))
    augmented = augment(activated) if augment is not None else activated
    if augmented.shape != x.shape:
        raise ShapeMismatchError(
            f"augmentation changed the shape: {augmented.shape} vs {x.shape}"
        )
    return _pointwise(w.proj, x.data + augmented.data)


def _pointwise(kernel: np.ndarray, v: np.ndarray) -> FeatureMap:
    """The 1x1 convolution ``kernel`` of a C x H x W array, as one [C, C] x [C, H*W] product."""
    out = np.empty(v.shape)
    c = v.shape[0]
    np.matmul(kernel[:, :, 0, 0], v.reshape(c, -1), out=out.reshape(c, -1))
    return FeatureMap._adopt(out)


@dataclass(frozen=True)
class PlacementConfig:
    """Which augmentation runs at which backbone stage, plus its knobs.

    Stage indices are 1-based. The default places the style adapter at
    stage 1 and the cross-modal adapter at stage 3, the strongest
    placement; stage 2 stays untouched. ``text_tokens`` (a :class:`Matrix`,
    one row per token) may be supplied by the caller; otherwise eight
    16-dim tokens are synthesized from the per-stage seed. The attention
    weights are always drawn from it.
    """

    stage_assignments: dict = field(default_factory=lambda: {1: "style", 3: "crossmodal"})
    alpha: tuple | None = None
    text_tokens: Matrix | None = None
    d_k: int = 64
    seed: int = 0
    num_stages: int = 3

    def __post_init__(self):
        if self.num_stages < 1:
            raise ValueError("num_stages must be >= 1")
        object.__setattr__(self, "stage_assignments", dict(self.stage_assignments))
        for idx, kind in self.stage_assignments.items():
            if not 1 <= idx <= self.num_stages:
                raise ValueError(f"stage index {idx} outside 1..{self.num_stages}")
            if kind not in STAGE_KINDS:
                raise ValueError(f"unknown stage kind {kind!r}; expected one of {STAGE_KINDS}")
        if self.alpha is not None:
            avec = tuple(float(a) for a in self.alpha)
            if any(a <= 0 or not math.isfinite(a) for a in avec):
                raise ValueError("alpha entries must be finite and > 0")
            object.__setattr__(self, "alpha", avec)
        if self.d_k < 1:
            raise ValueError("d_k must be >= 1")


def stage_seed(cfg: PlacementConfig, index: int) -> int:
    """Independent 64-bit seed for one stage, order-free by construction."""
    return mix_seed(cfg.seed, index)


def apply_stage(x: FeatureMap, cfg: PlacementConfig, index: int) -> FeatureMap:
    """Run stage ``index``'s configured adapter on one feature map.

    A pure function of (x, cfg, index): stages never see each other's
    state, so any evaluation order gives identical results.
    """
    if not 1 <= index <= cfg.num_stages:
        raise ValueError(f"stage index {index} outside 1..{cfg.num_stages}")
    kind = cfg.stage_assignments.get(index, "none")
    if kind == "none":
        return x
    sseed = stage_seed(cfg, index)
    weights = AdapterWeights.seeded(x.channels, mix_seed(sseed, _TAG_WEIGHTS))
    if kind == "plain":
        augment = None
    elif kind == "style":
        alpha = cfg.alpha if cfg.alpha is not None else 1.0
        style_seed = mix_seed(sseed, _TAG_STYLE)
        augment = lambda fm: style_diversify(fm, alpha, style_seed)
    else:  # crossmodal
        text = cfg.text_tokens
        if text is None:
            text = gen_text_tokens(8, 16, mix_seed(sseed, _TAG_TEXT))
        params = AttentionParams.seeded(
            x.channels, text.cols, cfg.d_k, mix_seed(sseed, _TAG_ATTENTION)
        )
        augment = lambda fm: crossmodal_forward(fm, text, params)
    return adapter_forward(x, weights, augment)


def run_stack(features: list[FeatureMap], cfg: PlacementConfig) -> list[FeatureMap]:
    """Apply each stage's configured adapter to its feature map independently."""
    if len(features) != cfg.num_stages:
        raise ShapeMismatchError(
            f"expected {cfg.num_stages} stage maps, got {len(features)}"
        )
    return [apply_stage(fm, cfg, i + 1) for i, fm in enumerate(features)]
