"""Batched 2D Fourier transforms and amplitude/phase machinery.

Conventions, fixed so round-trip and cross-implementation tests are
unambiguous:

* transforms act on the H x W plane of each channel independently, in
  one batched call over the channel axis (bitwise equal to transforming
  each channel on its own);
* the forward transform is unnormalized (DC bin = sum of spatial values),
  the inverse carries the 1/(H*W) factor;
* the shipped code works on the half spectrum, plain (C, H, W//2+1)
  complex arrays from :func:`_rfft2`: the bins (u, v) with v <= W/2 that
  a real map's spectrum mirrors into the rest. Sums and statistics over
  it weight each column by :func:`mirror_weights`, so they equal those of
  the full grid;
* each way runs as two in-place 1-D passes, the ones ``rfft2``/``irfft2``
  run themselves (so the bits are theirs): :func:`_rfft2` writes the
  complex pass along H into the real pass's output, and :func:`_irfft2`
  runs the inverse complex pass in place on the spectrum it consumes and
  the real pass into an output buffer that :func:`amp_map` allocates
  before the forward transform, so each spectrum buffer is allocated once
  (``np.fft`` takes ``out=`` from numpy 2.0 on, the package's floor);
* the full-grid :func:`fft2`, :func:`ifft2`, :func:`dft2_oracle`,
  :func:`decompose` and :func:`compose` are references, on plain arrays;
* amplitude is sqrt(re^2 + im^2 + 1e-24); the epsilon keeps the gradient
  of amplitude defined at zero bins and perturbs any bin with magnitude
  above 1e-6 by less than 1e-12;
* phase is atan2(im, re), normalized to (-pi, pi]; :func:`amp_map` keeps
  it as the unit phasor z/|z| instead, which is the same phase without
  the atan2/cos/sin round trip.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import SymmetryViolationError
from .tensor import FeatureMap, Matrix

AMP_EPS = 1e-24

ORACLE_MAX_PLANE = 4096  # H*W guard for the quadratic-time oracle


def fft2(x: FeatureMap) -> np.ndarray:
    """Full-grid (C, H, W) spectrum of the unnormalized forward transform.

    A reference: the shipped transforms run on :func:`_rfft2`'s half.
    """
    return np.fft.fft2(x.data, axes=(1, 2))


def ifft2(z: np.ndarray) -> tuple[FeatureMap, float]:
    """Full-grid inverse with 1/(H*W) normalization, the reference for :func:`_irfft2`.

    Returns the real part together with the max absolute imaginary
    residue. A residue above 1e-6 of the output magnitude means the
    spectrum was not conjugate-symmetric and raises
    :class:`SymmetryViolationError`.
    """
    full = np.fft.ifft2(z, axes=(1, 2))
    real = full.real
    residue = float(np.abs(full.imag).max())
    limit = 1e-6 * float(np.abs(real).max())
    if residue > limit:
        raise SymmetryViolationError(
            f"imaginary residue {residue:.3e} exceeds {limit:.3e}; spectrum is not conjugate-symmetric"
        )
    return FeatureMap(real), residue


def dft2_oracle(x: FeatureMap) -> np.ndarray:
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
    return out


def conjugate_asymmetry(z: np.ndarray) -> float:
    """Max |Z(u, v) - conj(Z(-u, -v))| over a full-grid spectrum; ~0 for real maps."""
    mirrored = np.roll(z[:, ::-1, ::-1], shift=(1, 1), axis=(1, 2))
    return float(np.abs(z - np.conj(mirrored)).max())


def decompose(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(amplitude, phase) of a spectrum's bins."""
    amp = np.sqrt(z.real**2 + z.imag**2 + AMP_EPS)
    phase = np.arctan2(z.imag, z.real)
    phase = np.where(phase == -np.pi, np.pi, phase)  # keep phase in (-pi, pi]
    return amp, phase


def compose(amplitude: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """The spectrum amplitude * exp(i * phase).

    Negative amplitudes are legal and exact: they are the same spectrum as
    |amplitude| with the phase flipped by pi.
    """
    return amplitude * np.cos(phase) + 1j * (amplitude * np.sin(phase))


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


def _self_mirrored(n: int) -> slice:
    """Indices k of a length-n FFT axis with -k = k mod n: 0, and n/2 when n is even.

    A slice, so they index as a view: for n even, a step of n/2 picks
    exactly 0 and n/2 from the H rows of a spectrum and from the
    W//2+1 columns of a half spectrum alike.
    """
    return slice(None, None, n // 2) if n % 2 == 0 else slice(0, 1)


def _rfft2(x: FeatureMap) -> np.ndarray:
    """Half spectrum (C, H, W//2+1) of the unnormalized forward transform.

    Two 1-D passes, the real one along W and then the complex one along
    H in place: the passes ``rfft2`` runs itself, so the bits are its own.
    The spectrum of a real map is conjugate-symmetric, but the FFT gives
    the self-mirrored columns only up to rounding, and a bin at rounding
    level (or an exact zero with a signed zero its mirror lacks) has a
    phase unrelated to its mirror's. So on those columns rows u > H/2
    are set to the conjugate of rows H - u, and the bins that are their
    own mirror (rows 0 and H/2) to their real part: exactly symmetric.
    """
    z = np.fft.rfft(x.data, axis=2)
    np.fft.fft(z, axis=1, out=z)
    h = z.shape[1]
    cols = z[:, :, _self_mirrored(x.width)]
    cols[:, h // 2 + 1:] = np.conj(cols[:, 1:(h + 1) // 2][:, ::-1])
    cols.imag[:, _self_mirrored(h)] = 0.0
    return z


def _irfft2(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Real C x H x W map of a half spectrum, with the 1/(H*W) factor, written into ``out``.

    Two 1-D passes, the inverse of :func:`_rfft2`'s: the complex one along
    H in place, which consumes ``z``, then the real one along W into
    ``out``. Returns ``out``.
    """
    np.fft.ifft(z, axis=1, out=z)
    return np.fft.irfft(z, n=out.shape[2], axis=2, out=out)


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
    mirror = np.concatenate((cols[:, :1], cols[:, :0:-1]), axis=1)  # rows -u mod H
    return float(np.abs(cols - np.conj(mirror)).max()) / (h * width)


def amp_map(x: FeatureMap, fn: Callable[[np.ndarray], np.ndarray]) -> FeatureMap:
    """Rewrite a map's amplitude spectrum with ``fn`` and reconstruct it.

    ``fn`` maps the half-spectrum amplitude, shape (C, H, W//2+1) and
    computed as :func:`decompose` computes it, to the new amplitude; the
    mirrored bins follow by conjugate symmetry, so the result is real by
    construction. Each bin keeps its phase as z/|z|, and for an ``fn``
    that treats mirrored bins alike the result equals the full-grid
    reference ifft2(compose(fn(amp), phase)), with (amp, phase) =
    decompose(fft2(x)), up to rounding. An
    ``fn`` that breaks the symmetry of a self-mirrored column (v = 0, and
    v = W/2 when W is even) by more than 1e-8 of the output magnitude,
    measured as :func:`_mirror_residue`, raises
    :class:`SymmetryViolationError`.
    """
    out = np.empty(x.shape)
    z = _rescale(_rfft2(x), fn)
    residue = _mirror_residue(z, x.width)
    _irfft2(z, out)
    scale = float(max(out.max(), -out.min()))
    if residue > 1e-8 * scale:
        raise SymmetryViolationError(
            f"amplitude map residue {residue:.3e} exceeds 1e-8 * {scale:.3e}"
        )
    return FeatureMap._adopt(out)


def amp_map_jvp(
    x: FeatureMap, direction: FeatureMap, fn: Callable[[np.ndarray], np.ndarray], dfn: Callable
) -> FeatureMap:
    """Derivative of amp_map(x, fn) along ``direction``.

    ``dfn(a, da)`` is the derivative of ``fn`` at ``a`` along ``da``. A bin
    u * a with unit phasor u becomes u * fn(a), so along a bin derivative
    with amplitude part da and phase part dp it moves by
    u * (dfn(a, da) + i * fn(a) * dp). ``fn`` runs before ``dfn``, so the
    forward's guards fire first.
    """
    out = np.empty(x.shape)
    z = _rfft2(x)
    dz = _rfft2(direction)
    re, im = z.real, z.imag
    r2 = re * re + im * im
    if np.any(r2 == 0.0):
        raise ValueError("phase derivative undefined at zero-magnitude bins")
    da = re * dz.real + im * dz.imag
    dp = (re * dz.imag - im * dz.real) / r2
    a = _unit_phasors(z)
    da /= a
    new = fn(a)
    return FeatureMap._adopt(_irfft2(z * (dfn(a, da) + 1j * new * dp), out))


def _radius_grid(h: int, w: int) -> np.ndarray:
    """Radius of each bin of the fftshift-centered H x W grid: 0 at DC, 1 at the corners."""
    cy, cx = h // 2, w // 2
    dy = (np.arange(h) - cy) / max(cy, 1)
    dx = (np.arange(w) - cx) / max(cx, 1)
    return np.sqrt(dy[:, None] ** 2 + dx[None, :] ** 2) / math.sqrt(2.0)


def _band_split(power: np.ndarray, width: int, radial_cut: float) -> tuple[float, float]:
    """(low, high) full-grid sums of a half-spectrum power array, averaged over channels.

    The radius is the same at (u, v) and (-u, -v), so each half-spectrum
    bin stands for its mirror too and weighs :func:`mirror_weights`.
    """
    if not 0.0 < radial_cut < 1.0:
        raise ValueError(f"radial_cut must be in (0, 1), got {radial_cut}")
    h = power.shape[1]
    radius = np.fft.ifftshift(_radius_grid(h, width))[:, : width // 2 + 1]
    low_mask = radius <= radial_cut
    weighted = power * mirror_weights(width)
    low = float(weighted[:, low_mask].sum(axis=1).mean())
    high = float(weighted[:, ~low_mask].sum(axis=1).mean())
    return low, high


def heatmap(x: FeatureMap) -> Matrix:
    """Channel-averaged log(1 + |Z|) of the full-grid spectrum, DC in the middle.

    |Z| carries no epsilon and np.abs does not square, so the field stays
    finite for huge maps and keeps its structure for tiny ones.
    """
    avg = np.log1p(np.abs(fft2(x))).mean(axis=0)
    return Matrix(np.fft.fftshift(avg))
