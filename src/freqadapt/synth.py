"""Seeded synthetic inputs: feature maps and stand-in text embeddings.

These generators replace a real backbone and text encoder so the
transforms can be exercised and verified in isolation. Noise values are
drawn from the documented SplitMix64 stream in row-major (c, h, w) order,
which is what the golden files pin.
"""

from __future__ import annotations

import numpy as np

from .rng import SplitMix64
from .spectral import _BLOCK_BYTES
from .tensor import FeatureMap, Matrix, _tap_sum

FEATURE_KINDS = ("noise", "smooth", "checker")


def _gaussian_kernel_5x5(sigma: float = 1.0) -> np.ndarray:
    offsets = np.arange(5) - 2
    g1 = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    k = np.outer(g1, g1)
    return k / k.sum()


def _smooth_block(noise: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The (C, H, W) ``noise`` convolved with the 5x5 ``kernel`` on :func:`_tap_sum`.

    The buffers are fresh, as cached ones would outlive the call. The noise
    is freed once padded, before the two work buffers are allocated, so at
    most three block-sized buffers are alive.
    """
    n, h, w = noise.shape
    padded = np.zeros((n, h + 5, w + 4))
    padded[:, 2:2 + h, 2:2 + w] = noise
    del noise
    acc = np.empty((n, h * (w + 4)))
    return _tap_sum(padded, kernel, np.multiply, acc, np.empty_like(acc))


def gen_features(kind: str, channels: int, height: int, width: int, seed: int) -> FeatureMap:
    """Deterministic synthetic feature map.

    noise   -- uniform(-1, 1) per element;
    smooth  -- the same noise convolved with a 5x5 Gaussian (sigma 1.0,
               zero-padded), i.e. a low-passed map, on conv2d's tap loop
               (:func:`~freqadapt.tensor._tap_sum`) with one product per
               tap, so the map is bitwise equal to a per-channel conv2d.
               It runs on blocks of consecutive channels whose padded
               buffer fits ``spectral._BLOCK_BYTES``, so a block's taps
               stay in cache; the blocks draw the noise in turn, which
               continues one row-major stream;
    checker -- the (-1)^(h+w) Nyquist checkerboard.
    """
    if min(channels, height, width) < 1:
        raise ValueError("all dims must be >= 1")
    if kind == "noise":
        rng = SplitMix64(seed)
        flat = rng.uniform_array(channels * height * width, low=-1.0, high=1.0)
        return FeatureMap(flat.reshape(channels, height, width))
    if kind == "smooth":
        kernel = _gaussian_kernel_5x5()
        rng = SplitMix64(seed)
        out = np.empty((channels, height, width))
        # channels per block: a block's plane is padded to (H + 5) x (W + 4) for a 5x5 kernel
        step = max(1, _BLOCK_BYTES // (8 * (height + 5) * (width + 4)))
        for c0 in range(0, channels, step):
            n = min(step, channels - c0)
            out[c0:c0 + n] = _smooth_block(
                rng.uniform_array(n * height * width, low=-1.0, high=1.0).reshape(n, height, width),
                kernel)
        return FeatureMap._adopt(out)
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
