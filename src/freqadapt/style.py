"""Amplitude-domain style diversification.

A feature map's per-channel spatial statistics act as its style. The
transform reweights those statistics with Dirichlet-sampled simplex
weights and applies the resulting per-channel affine map to the amplitude
spectrum only, leaving phase untouched, so spatial structure survives
while the style is randomized.

Nothing in the pass needs the whole map at once: channel c's weight,
mean and std act on channel c's amplitude alone. So
:func:`style_diversify` draws the weights up front and takes the
statistics inside each channel block of :func:`amp_map`, with the same
bits as :func:`channel_stats` over the whole map.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError
from .rng import SplitMix64
from .spectral import amp_map
from .tensor import FeatureMap

SCALE_MODES = ("times_C", "raw")

# Dirichlet draws of at least this many components use SplitMix64.gamma_array.
# Its window costs a fixed ~45 us, and each component then costs ~2.4 us
# against ~8 us on the scalar path. Median us per draw, alpha = 1, scalar
# vs window, 1,500 interleaved draws per count on a 2-vCPU Xeon VM:
# 1: 9.1 vs 51.9, 4: 32.4 vs 59.7, 8: 65.1 vs 71.2, 9: 72.5 vs 73.5,
# 10: 79.9 vs 75.4, 12: 93.8 vs 78.5, 16: 126 vs 90, 32: 249 vs 127,
# 64: 508 vs 205. The style checks of ``verify`` draw 1-3 components.
_GAMMA_WINDOW = 10


def _stats(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel (mean, population std) of a (C, H, W) array.

    The std is the root mean squared deviation from the mean: the steps,
    and so the bits, of ``np.std``, which would compute the mean a second
    time. Each channel's pair depends on that channel alone, so a block
    of channels gets the bits of the whole map's.
    """
    mu = data.mean(axis=(1, 2))
    dev = data - mu[:, None, None]
    return mu, np.sqrt(np.square(dev, out=dev).mean(axis=(1, 2)))


def channel_stats(x: FeatureMap) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and population std over the spatial plane, as (mu, sigma).

    Bitwise equal to ``x.data.mean(axis=(1, 2))`` and ``x.data.std(axis=(1, 2))``.
    """
    return _stats(x.data)


def sample_dirichlet(alpha, seed: int) -> np.ndarray:
    """Draw simplex weights from Dirichlet(alpha), deterministically.

    Each component is an independent Gamma(alpha_i, 1) variate from a
    single SplitMix64 stream seeded with ``seed``, normalized by the sum.
    From ``_GAMMA_WINDOW`` components on, the stream is drawn with
    :meth:`~freqadapt.rng.SplitMix64.gamma_array`, which gives the scalar
    stream's bits.
    """
    avec = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    if avec.ndim != 1 or avec.size < 1:
        raise ValueError("alpha must be a non-empty vector")
    if not np.all(np.isfinite(avec)) or np.any(avec <= 0):
        raise ValueError("all Dirichlet concentrations must be finite and > 0")
    rng = SplitMix64(seed)
    if avec.size >= _GAMMA_WINDOW:
        draws = rng.gamma_array(avec)
    else:
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
    or length-C vectors. :func:`style_diversify` applies this map with
    its sampled (mu, sigma); this form is what the gradient checks
    differentiate.
    """
    mu_vec = _as_channel_vec(mu, x.channels, "mu")
    sigma_vec = _as_channel_vec(sigma, x.channels, "sigma")
    return amp_map(x, lambda a, ch: _amp_affine(a, mu_vec[ch], sigma_vec[ch]), per_channel=True)


def _style_weights(channels: int, alpha, seed: int, scale_mode: str) -> np.ndarray:
    """The per-channel weights of the style statistics: validated, drawn and scaled.

    "times_C" rescales the simplex weights by the channel count so their
    expected value is 1, keeping the fused statistics near the map's own;
    "raw" uses them as sampled.
    """
    if scale_mode not in SCALE_MODES:
        raise ValueError(f"scale_mode must be one of {SCALE_MODES}, got {scale_mode!r}")
    w = sample_dirichlet(_as_channel_vec(alpha, channels, "alpha"), seed)
    return w * channels if scale_mode == "times_C" else w


def _style_coefficients(x: FeatureMap, alpha, seed: int, scale_mode: str = "times_C"):
    """The sampled affine map (mu, sigma): Dirichlet weights times the channel statistics.

    :func:`style_diversify` applies the same map, with the statistics
    taken per block; the gradient checks use this whole-map form.
    """
    w = _style_weights(x.channels, alpha, seed, scale_mode)
    mu, sigma = channel_stats(x)
    return w * mu, w * sigma


def style_diversify(x: FeatureMap, alpha, seed: int, scale_mode: str = "times_C") -> FeatureMap:
    """Randomize a map's style by Dirichlet-reweighting its amplitude spectrum.

    Deterministic given (x, alpha, seed, scale_mode), and bitwise equal to
    ``style_transform(x, *_style_coefficients(x, alpha, seed, scale_mode))``.
    The weights are validated and drawn before any transform. The
    statistics of each channel block are taken inside the block, on the
    thread that runs it and while the block is in cache (see
    :func:`amp_map`). For a fixed affine map, e.g. the identity
    ``(0, 1)`` used as a verification hook, call :func:`style_transform`
    directly.
    """
    w = _style_weights(x.channels, alpha, seed, scale_mode)
    data = x.data

    def affine(a, channels):
        mu, sigma = _stats(data[channels])
        return _amp_affine(a, w[channels] * mu, w[channels] * sigma)

    return amp_map(x, affine, per_channel=True)
