"""Amplitude-domain style diversification.

A feature map's per-channel spatial statistics act as its style. The
transform reweights those statistics with Dirichlet-sampled simplex
weights and applies the resulting per-channel affine map to the amplitude
spectrum only, leaving phase untouched, so spatial structure survives
while the style is randomized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .rng import SplitMix64
from .spectral import amp_map
from .tensor import FeatureMap, _frozen

SCALE_MODES = ("times_C", "raw")


@dataclass(frozen=True)
class StyleStats:
    """Per-channel spatial mean and population standard deviation."""

    mu_base: np.ndarray
    sigma_base: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu_base, dtype=np.float64))
        sigma = np.atleast_1d(np.asarray(self.sigma_base, dtype=np.float64))
        if mu.ndim != 1 or sigma.shape != mu.shape:
            raise ShapeMismatchError("mu_base and sigma_base must be equal-length vectors")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise ValueError("style statistics must be finite")
        if np.any(sigma < 0):
            raise ValueError("sigma_base must be nonnegative")
        object.__setattr__(self, "mu_base", _frozen(mu))
        object.__setattr__(self, "sigma_base", _frozen(sigma))

    @property
    def channels(self) -> int:
        return self.mu_base.shape[0]


@dataclass(frozen=True)
class StyleWeights:
    """Dirichlet concentrations plus one sampled simplex point.

    ``scale_mode`` controls the multiplier used during fusion: "times_C"
    rescales the simplex weights by the channel count so their expected
    value is 1 (keeping fused statistics near the base statistics), "raw"
    uses them as sampled.
    """

    alpha: np.ndarray
    weights: np.ndarray
    scale_mode: str = "times_C"

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=np.float64))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        if alpha.ndim != 1 or weights.shape != alpha.shape:
            raise ShapeMismatchError("alpha and weights must be equal-length vectors")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(weights))):
            raise ValueError("style weights must be finite")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if self.scale_mode not in SCALE_MODES:
            raise ValueError(f"scale_mode must be one of {SCALE_MODES}, got {self.scale_mode!r}")
        object.__setattr__(self, "alpha", _frozen(alpha))
        object.__setattr__(self, "weights", _frozen(weights))

    @property
    def channels(self) -> int:
        return self.weights.shape[0]

    def effective(self) -> np.ndarray:
        """Weights after the optional channel-count rescale."""
        if self.scale_mode == "times_C":
            return self.weights * self.channels
        return self.weights.copy()


def channel_stats(x: FeatureMap) -> StyleStats:
    """Per-channel mean and population std over the spatial plane."""
    return StyleStats(x.data.mean(axis=(1, 2)), x.data.std(axis=(1, 2)))


def sample_dirichlet(alpha, seed: int, scale_mode: str = "times_C") -> StyleWeights:
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
        raise ArithmeticError("gamma draws summed to zero; cannot normalize")
    return StyleWeights(avec, draws / total, scale_mode)


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
    """The sampled affine map (mu, sigma): Dirichlet weights times the channel statistics."""
    avec = _as_channel_vec(alpha, x.channels, "alpha")
    stats = channel_stats(x)
    eff = sample_dirichlet(avec, seed, scale_mode).effective()
    return eff * stats.mu_base, eff * stats.sigma_base


def style_diversify(
    x: FeatureMap,
    alpha,
    seed: int,
    scale_mode: str = "times_C",
    style_override: tuple | None = None,
) -> FeatureMap:
    """Randomize a map's style by Dirichlet-reweighting its amplitude spectrum.

    Deterministic given (x, alpha, seed). ``style_override=(mu, sigma)``
    bypasses the sampled statistics and applies the given per-channel
    affine map directly; (0, 1) makes the whole pipeline an identity up to
    round-trip error, which is the verification hook used by the tests and
    the CLI.
    """
    if style_override is not None:
        mu, sigma = style_override
    else:
        mu, sigma = _style_coefficients(x, alpha, seed, scale_mode)
    return style_transform(x, mu, sigma)
