"""Batched 2D Fourier transforms and amplitude/phase machinery.

Conventions, fixed so round-trip and cross-implementation tests are
unambiguous:

* transforms act on the H x W plane of each channel independently, in
  one batched call over the channel axis (bitwise equal to transforming
  each channel on its own);
* the forward transform is unnormalized (DC bin = sum of spatial values),
  the inverse carries the 1/(H*W) factor;
* amplitude is sqrt(re^2 + im^2 + 1e-24); the epsilon keeps the gradient
  of amplitude defined at zero bins and perturbs any bin with magnitude
  above 1e-6 by less than 1e-12;
* phase is atan2(im, re), normalized to (-pi, pi]; :func:`amp_map` keeps
  it as the unit phasor z/|z| instead, which is the same phase without
  the atan2/cos/sin round trip;
* :func:`amp_map` works on the half spectrum, the bins (u, v) with
  v <= W/2 that a real map's spectrum mirrors into the rest; statistics
  over it weight each column by :func:`mirror_weights`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ShapeMismatchError, SymmetryViolationError
from .tensor import FeatureMap, Matrix, _frozen

AMP_EPS = 1e-24

ORACLE_MAX_PLANE = 4096  # H*W guard for the quadratic-time oracle


class Spectrum:
    """Complex frequency bins (c, u, v) for a C x H x W map."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.complex128)
        if arr.ndim != 3:
            raise ShapeMismatchError(f"Spectrum needs 3 axes, got shape {arr.shape}")
        self.data = _frozen(arr, dtype=np.complex128)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def conjugate_asymmetry(self) -> float:
        """Max |Z(u, v) - conj(Z(-u, -v))| over all bins; ~0 for spectra of real maps."""
        flipped = self.data[:, ::-1, ::-1]
        mirrored = np.roll(flipped, shift=(1, 1), axis=(1, 2))
        return float(np.abs(self.data - np.conj(mirrored)).max())

    def __repr__(self):
        c, h, w = self.shape
        return f"Spectrum({c}x{h}x{w})"


class AmpPhase:
    """Polar form of a spectrum: amplitude and phase arrays, bins (c, u, v).

    Amplitude is nonnegative when produced by :func:`decompose`; signed
    values are permitted (they compose back exactly as pi phase flips).
    """

    __slots__ = ("amplitude", "phase")

    def __init__(self, amplitude, phase):
        amp = np.asarray(amplitude, dtype=np.float64)
        ph = np.asarray(phase, dtype=np.float64)
        if amp.ndim != 3 or ph.shape != amp.shape:
            raise ShapeMismatchError(
                f"amplitude/phase shapes disagree: {amp.shape} vs {ph.shape}"
            )
        self.amplitude = _frozen(amp)
        self.phase = _frozen(ph)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.amplitude.shape

    def __repr__(self):
        c, h, w = self.shape
        return f"AmpPhase({c}x{h}x{w})"


def fft2(x: FeatureMap) -> Spectrum:
    """Unnormalized forward transform of each channel's H x W plane."""
    return Spectrum(np.fft.fft2(x.data, axes=(1, 2)))


def ifft2(s: Spectrum) -> tuple[FeatureMap, float]:
    """Inverse transform with 1/(H*W) normalization.

    Returns the real part together with the max absolute imaginary
    residue. A residue above 1e-6 of the output magnitude means the
    spectrum was not conjugate-symmetric and raises
    :class:`SymmetryViolationError`.
    """
    full = np.fft.ifft2(s.data, axes=(1, 2))
    real = full.real
    residue = float(np.abs(full.imag).max())
    limit = 1e-6 * float(np.abs(real).max())
    if residue > limit:
        raise SymmetryViolationError(
            f"imaginary residue {residue:.3e} exceeds {limit:.3e}; spectrum is not conjugate-symmetric"
        )
    return FeatureMap(real), residue


def dft2_oracle(x: FeatureMap) -> Spectrum:
    """Direct double-sum 2D DFT, the quadratic-time correctness oracle.

    Evaluates the defining sums via explicit transform matrices; no fast
    factorization of any kind is involved.
    """
    c, h, w = x.shape
    if h * w > ORACLE_MAX_PLANE:
        raise ValueError(f"oracle plane {h}x{w} exceeds guard of {ORACLE_MAX_PLANE} bins")
    eh = np.exp(-2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
    ew = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
    out = np.empty((c, h, w), dtype=np.complex128)
    for ch in range(c):
        out[ch] = eh @ x.data[ch].astype(np.complex128) @ ew.T
    return Spectrum(out)


def decompose(s: Spectrum) -> AmpPhase:
    """Split a spectrum into amplitude and phase."""
    amp = np.sqrt(s.data.real**2 + s.data.imag**2 + AMP_EPS)
    phase = np.arctan2(s.data.imag, s.data.real)
    phase = np.where(phase == -np.pi, np.pi, phase)  # keep phase in (-pi, pi]
    return AmpPhase(amp, phase)


def compose(ap: AmpPhase) -> Spectrum:
    """Rebuild a spectrum as amplitude * exp(i * phase).

    Negative amplitudes are legal and exact: they are the same spectrum as
    |amplitude| with the phase flipped by pi.
    """
    re = ap.amplitude * np.cos(ap.phase)
    im = ap.amplitude * np.sin(ap.phase)
    return Spectrum(re + 1j * im)


def _unit_phasors(z: np.ndarray) -> np.ndarray:
    """Replace each bin of ``z`` by its phase as a unit phasor, in place.

    Returns the amplitude :func:`decompose` gives the bins. A bin becomes
    z / |z|; one with |z| == 0 becomes copysign(1, re), the phase 0 or pi
    that :func:`decompose` gives it. Dividing by |z| before any rescale
    keeps bins of subnormal magnitude finite.
    """
    re, im = z.real, z.imag
    amp = re**2
    amp += im**2
    amp += AMP_EPS
    np.sqrt(amp, out=amp)
    mag = np.abs(z)
    zero = mag == 0.0
    if zero.any():
        mag[zero] = 1.0
        re[zero] = np.copysign(1.0, re[zero])
    re /= mag
    im /= mag
    return amp


def _rescale(z: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Give each bin of ``z`` the amplitude fn(amp) and keep its phase, in place."""
    new = fn(_unit_phasors(z))
    re, im = z.real, z.imag
    re *= new
    im *= new
    return z


def _self_mirrored(n: int) -> list[int]:
    """Indices k of a length-n FFT axis with -k = k mod n: 0, and n/2 when n is even."""
    return [0, n // 2] if n % 2 == 0 else [0]


def _rfft2(x: FeatureMap) -> np.ndarray:
    """Half spectrum (C, H, W//2+1) of the unnormalized forward transform.

    The spectrum of a real map is conjugate-symmetric, but the FFT gives
    the self-mirrored columns only up to rounding, and a bin at rounding
    level (or an exact zero with a signed zero its mirror lacks) has a
    phase unrelated to its mirror's. So on those columns rows u > H/2
    are set to the conjugate of rows H - u, and the bins that are their
    own mirror (rows 0 and H/2) to their real part: exactly symmetric.
    """
    z = np.fft.rfft2(x.data, axes=(1, 2))
    h = z.shape[1]
    cols = _self_mirrored(x.width)
    rows = np.arange(h // 2 + 1, h)[:, None]
    z[:, rows, cols] = np.conj(z[:, h - rows, cols])
    z.imag[:, np.array(_self_mirrored(h))[:, None], cols] = 0.0
    return z


def _irfft2(z: np.ndarray, shape: tuple[int, int, int]) -> FeatureMap:
    """Real C x H x W map of a half spectrum, with the 1/(H*W) factor."""
    return FeatureMap(np.fft.irfft2(z, s=shape[1:], axes=(1, 2)))


def mirror_weights(width: int) -> np.ndarray:
    """How many full-grid columns each half-spectrum column stands for.

    Column v > 0 of the half spectrum also stands for its mirror W - v,
    so it weighs 2; the self-mirrored columns weigh 1. The weights sum
    to W, and a weighted sum over a real map's half-spectrum amplitude
    equals the plain sum over the full grid.
    """
    weights = np.full(width // 2 + 1, 2.0)
    weights[_self_mirrored(width)] = 1.0
    return weights


def _mirror_residue(z: np.ndarray, width: int) -> float:
    """Max |Z(u, v) - conj(Z(-u, v))| / (H*W) over the self-mirrored columns.

    Only there can a half spectrum break conjugate symmetry; the inverse
    keeps the symmetric part, and a pair broken by d would have put up to
    d / (H*W) into the imaginary part of a full-grid inverse.
    """
    h = z.shape[1]
    cols = z[:, :, _self_mirrored(width)]
    mirror = cols[:, -np.arange(h) % h]
    return float(np.abs(cols - np.conj(mirror)).max()) / (h * width)


def amp_map(x: FeatureMap, fn: Callable[[np.ndarray], np.ndarray]) -> FeatureMap:
    """Rewrite a map's amplitude spectrum with ``fn`` and reconstruct it.

    ``fn`` maps the half-spectrum amplitude, shape (C, H, W//2+1) and
    computed as :func:`decompose` computes it, to the new amplitude; the
    mirrored bins follow by conjugate symmetry, so the result is real by
    construction. Each bin keeps its phase as z/|z|, and for an ``fn``
    that treats mirrored bins alike the result equals
    ifft2(compose(AmpPhase(fn(amp), phase))) of the input's spectrum. An
    ``fn`` that breaks the symmetry of a self-mirrored column (v = 0, and
    v = W/2 when W is even) by more than 1e-8 of the output magnitude,
    measured as :func:`_mirror_residue`, raises
    :class:`SymmetryViolationError`.
    """
    z = _rescale(_rfft2(x), fn)
    residue = _mirror_residue(z, x.width)
    out = _irfft2(z, x.shape)
    scale = float(np.abs(out.data).max())
    if residue > 1e-8 * scale:
        raise SymmetryViolationError(
            f"amplitude map residue {residue:.3e} exceeds 1e-8 * {scale:.3e}"
        )
    return out


def _radius_grid(h: int, w: int) -> np.ndarray:
    cy, cx = h // 2, w // 2
    dy = (np.arange(h) - cy) / max(cy, 1)
    dx = (np.arange(w) - cx) / max(cx, 1)
    return np.sqrt(dy[:, None] ** 2 + dx[None, :] ** 2) / math.sqrt(2.0)


def _band_split(power: np.ndarray, radial_cut: float) -> tuple[float, float]:
    """(low, high) sums of a full-grid power array, averaged over channels."""
    if not 0.0 < radial_cut < 1.0:
        raise ValueError(f"radial_cut must be in (0, 1), got {radial_cut}")
    _, h, w = power.shape
    shifted = np.fft.fftshift(power, axes=(1, 2))
    low_mask = _radius_grid(h, w) <= radial_cut
    low = float(shifted[:, low_mask].sum(axis=1).mean())
    high = float(shifted[:, ~low_mask].sum(axis=1).mean())
    return low, high


def heatmap(ap: AmpPhase) -> Matrix:
    """Channel-averaged log(1 + amplitude), centered with DC in the middle."""
    avg = np.log1p(ap.amplitude).mean(axis=0)
    return Matrix(np.fft.fftshift(avg))
