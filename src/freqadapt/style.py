"""Amplitude-domain style diversification.

A feature map's per-channel spatial statistics act as its style. The
transform reweights those statistics with Dirichlet-sampled simplex
weights and applies the resulting per-channel affine map to the amplitude
spectrum only, leaving phase untouched, so spatial structure survives
while the style is randomized.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError
from .rng import SplitMix64
from .spectral import amp_map
from .tensor import FeatureMap

SCALE_MODES = ("times_C", "raw")


def channel_stats(x: FeatureMap) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and population std over the spatial plane, as (mu, sigma).

    The std is the root mean squared deviation from ``mu``: the steps, and
    so the bits, of ``np.std``, which would compute ``mu`` a second time.
    """
    mu = x.data.mean(axis=(1, 2))
    dev = x.data - mu[:, None, None]
    return mu, np.sqrt(np.square(dev, out=dev).mean(axis=(1, 2)))


def sample_dirichlet(alpha, seed: int) -> np.ndarray:
    """Draw simplex weights from Dirichlet(alpha), deterministically.

    Each component is an independent Gamma(alpha_i, 1) variate from a
    single SplitMix64 stream seeded with ``seed``, normalized by the sum.
    """
    avec = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    if avec.ndim != 1 or avec.size < 1:
        raise ValueError("alpha must be a non-empty vector")
    if not np.all(np.isfinite(avec)) or np.any(avec <= 0):
        raise ValueError("all Dirichlet concentrations must be finite and > 0")
    rng = SplitMix64(seed)
    draws = np.array([rng.gamma(a) for a in avec])
    total = draws.sum()
    if not total > 0.0:
        raise ValueError(
            f"Dirichlet concentrations {avec.tolist()} are too small: every gamma draw "
            "underflowed to 0, so the weights cannot be normalized"
        )
    return draws / total


def _amp_affine(a: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    fused = sigma[:, None, None] * a
    fused += mu[:, None, None]
    return fused


def _as_channel_vec(value, channels: int, name: str) -> np.ndarray:
    vec = np.atleast_1d(np.asarray(value, dtype=np.float64))
    if vec.size == 1:
        vec = np.full(channels, vec[0])
    if vec.shape != (channels,):
        raise ShapeMismatchError(f"{name} must have length {channels}, got {vec.shape}")
    return vec


def style_transform(x: FeatureMap, mu, sigma) -> FeatureMap:
    """Spectral pipeline with a fixed per-channel amplitude affine map.

    Gives every bin of channel c the amplitude sigma[c] * amp + mu[c] and
    keeps its phase (see :func:`amp_map`). ``mu``/``sigma`` may be scalars
    or length-C vectors. This is the deterministic core of
    :func:`style_diversify`; it is also what the gradient checks
    differentiate.
    """
    mu_vec = _as_channel_vec(mu, x.channels, "mu")
    sigma_vec = _as_channel_vec(sigma, x.channels, "sigma")
    return amp_map(x, lambda a: _amp_affine(a, mu_vec, sigma_vec))


def _style_coefficients(x: FeatureMap, alpha, seed: int, scale_mode: str = "times_C"):
    """The sampled affine map (mu, sigma): Dirichlet weights times the channel statistics.

    "times_C" rescales the simplex weights by the channel count so their
    expected value is 1, keeping the fused statistics near the map's own;
    "raw" uses them as sampled.
    """
    if scale_mode not in SCALE_MODES:
        raise ValueError(f"scale_mode must be one of {SCALE_MODES}, got {scale_mode!r}")
    avec = _as_channel_vec(alpha, x.channels, "alpha")
    mu, sigma = channel_stats(x)
    w = sample_dirichlet(avec, seed)
    if scale_mode == "times_C":
        w = w * x.channels
    return w * mu, w * sigma


def style_diversify(x: FeatureMap, alpha, seed: int, scale_mode: str = "times_C") -> FeatureMap:
    """Randomize a map's style by Dirichlet-reweighting its amplitude spectrum.

    Deterministic given (x, alpha, seed, scale_mode). For a fixed affine
    map, e.g. the identity ``(0, 1)`` used as a verification hook, call
    :func:`style_transform` directly.
    """
    return style_transform(x, *_style_coefficients(x, alpha, seed, scale_mode))
