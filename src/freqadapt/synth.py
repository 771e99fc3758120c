"""Seeded synthetic inputs: feature maps and stand-in text embeddings.

These generators replace a real backbone and text encoder so the
transforms can be exercised and verified in isolation. Noise values are
drawn from the documented SplitMix64 stream in row-major (c, h, w) order,
which is what the golden files pin.
"""

from __future__ import annotations

import numpy as np

from .rng import SplitMix64
from .tensor import FeatureMap, Matrix, _tap_sum

FEATURE_KINDS = ("noise", "smooth", "checker")


def _gaussian_kernel_5x5(sigma: float = 1.0) -> np.ndarray:
    offsets = np.arange(5) - 2
    g1 = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    k = np.outer(g1, g1)
    return k / k.sum()


def gen_features(kind: str, channels: int, height: int, width: int, seed: int) -> FeatureMap:
    """Deterministic synthetic feature map.

    noise   -- uniform(-1, 1) per element;
    smooth  -- the same noise convolved with a 5x5 Gaussian (sigma 1.0,
               zero-padded), i.e. a low-passed map, on conv2d's tap loop
               (:func:`~freqadapt.tensor._tap_sum`) with one product per
               tap over all channels at once, so the map is bitwise equal
               to a per-channel conv2d;
    checker -- the (-1)^(h+w) Nyquist checkerboard.
    """
    if min(channels, height, width) < 1:
        raise ValueError("all dims must be >= 1")
    if kind == "noise":
        rng = SplitMix64(seed)
        flat = rng.uniform_array(channels * height * width, low=-1.0, high=1.0)
        return FeatureMap(flat.reshape(channels, height, width))
    if kind == "smooth":
        return FeatureMap(_tap_sum(gen_features("noise", channels, height, width, seed).data,
                                   channels, _gaussian_kernel_5x5(), np.multiply))
    if kind == "checker":
        h_idx = np.arange(height)[:, None]
        w_idx = np.arange(width)[None, :]
        plane = np.where((h_idx + w_idx) % 2 == 0, 1.0, -1.0)
        return FeatureMap(np.broadcast_to(plane, (channels, height, width)).copy())
    raise ValueError(f"unknown feature kind {kind!r}; expected one of {FEATURE_KINDS}")


def gen_text_tokens(tokens: int, dim: int, seed: int) -> Matrix:
    """Standard-normal stand-in text embeddings, one row per token."""
    if tokens < 1 or dim < 1:
        raise ValueError("tokens and dim must be >= 1")
    rng = SplitMix64(seed)
    return Matrix(rng.normal_array(tokens * dim).reshape(tokens, dim))
