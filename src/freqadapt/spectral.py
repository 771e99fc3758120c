"""Batched 2D Fourier transforms and amplitude/phase machinery.

Conventions, fixed so round-trip and cross-implementation tests are
unambiguous:

* transforms act on the H x W plane of each channel independently,
  batched over the channel axis (bitwise equal to transforming each
  channel on its own). :func:`amp_map` with a per-channel ``fn`` runs
  over blocks of consecutive channels, in channel order on the calling
  thread, so the first failing block raises; every other transform is
  one call over all channels. That block loop is one core,
  :func:`_rewrite_blocks`, which the amplitude-map JVP in
  :mod:`freqadapt.gradcheck` runs too;
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
  before the forward transform. Each block's forward transform writes
  into a prefix of one spectrum buffer, sized for :func:`amp_map`'s
  largest block, which each thread keeps between calls
  (``np.fft`` takes ``out=`` from numpy 2.0 on, the package's floor);
* the full-grid references (``fft2``, ``dft2_oracle``, ``decompose``,
  ``conjugate_asymmetry``) live in :mod:`freqadapt.verify`, which checks
  this module against them; :func:`heatmap` calls ``np.fft.fft2`` itself;
* amplitude is sqrt(re^2 + im^2 + 1e-24); the epsilon keeps the gradient
  of amplitude defined at zero bins and perturbs any bin with magnitude
  above 1e-6 by less than 1e-12;
* phase is atan2(im, re), normalized to (-pi, pi]; :func:`amp_map` keeps
  it as the unit phasor z/|z| instead, which is the same phase without
  the atan2/cos/sin round trip.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Callable

import numpy as np

from .errors import SymmetryViolationError
from .tensor import FeatureMap, Matrix, _quiet

AMP_EPS = 1e-24

# Half-spectrum bytes per block of a per-channel amp_map. With 2 MB of L2
# per core, a block's spectrum and the rescale's temporaries stay in cache.
_BLOCK_BYTES = 512 * 1024

# the spectrum buffer each thread keeps between amp_map calls, see _spectrum_buffer
_spectra = threading.local()


def _unit_phasors(z: np.ndarray) -> np.ndarray:
    """Replace each bin of ``z`` by its phase as a unit phasor, in place.

    Returns the amplitude :func:`freqadapt.verify.decompose` gives the
    bins. A bin becomes z / |z|; one with |z| == 0 becomes copysign(1, re),
    the phase 0 or pi that ``decompose`` gives it. Dividing by |z| before
    any rescale keeps bins of subnormal magnitude finite.
    """
    re, im = z.real, z.imag
    amp = re**2
    mag = im**2  # reused below for |z|
    amp += mag
    amp += AMP_EPS
    np.sqrt(amp, out=amp)
    np.abs(z, out=mag)
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


def _rfft2(data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum (C, H, W//2+1) of the unnormalized forward transform of a (C, H, W) array.

    Two 1-D passes, the real one along W and then the complex one along
    H in place: the passes ``rfft2`` runs itself, so the bits are its own.
    The spectrum of a real map is conjugate-symmetric, but the FFT gives
    the self-mirrored columns only up to rounding, and a bin at rounding
    level (or an exact zero with a signed zero its mirror lacks) has a
    phase unrelated to its mirror's. So on those columns rows u > H/2
    are set to the conjugate of rows H - u, and the bins that are their
    own mirror (rows 0 and H/2) to their real part: exactly symmetric.
    ``out``, if given, is the complex array the spectrum is written into.
    """
    z = np.fft.rfft(data, axis=2, out=out)
    np.fft.fft(z, axis=1, out=z)
    h = z.shape[1]
    cols = z[:, :, _self_mirrored(data.shape[2])]
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


def _spectrum_buffer(size: int) -> np.ndarray:
    """A flat complex buffer of at least ``size`` bins, for one :func:`amp_map` call.

    It is the one this thread kept, when that is large enough, or a new
    one. Either way the thread's slot is emptied until the call hands the
    buffer back, so an ``fn`` that calls amp_map itself gets a buffer of
    its own.
    """
    buf = getattr(_spectra, "buf", None)
    _spectra.buf = None
    if buf is None or buf.size < size:
        buf = None  # free a kept buffer that is too small before allocating
        buf = np.empty(size, dtype=np.complex128)
    return buf


def amp_map(x: FeatureMap, fn: Callable[..., np.ndarray], per_channel: bool = False) -> FeatureMap:
    """Rewrite a map's amplitude spectrum with ``fn`` and reconstruct it.

    ``fn`` maps the half-spectrum amplitude, shape (C, H, W//2+1) and
    computed as :func:`freqadapt.verify.decompose` computes it, to the new
    amplitude; the mirrored bins follow by conjugate symmetry, so the
    result is real by construction. Each bin keeps its phase as z/|z|, and
    for an ``fn`` that treats mirrored bins alike the result equals the
    full-grid inverse transform of fn(amp) * exp(i * phase), with (amp,
    phase) = decompose(fft2(x)), up to rounding. An
    ``fn`` that breaks the symmetry of a self-mirrored column (v = 0, and
    v = W/2 when W is even) by more than 1e-8 of the output magnitude,
    measured as :func:`_mirror_residue`, raises
    :class:`SymmetryViolationError`.

    An ``fn`` that acts on each channel alone is passed with
    ``per_channel``: it is then called as fn(a, channels) on blocks of
    consecutive channels, ``channels`` the slice of x's channels that
    ``a`` holds. It may read ``x.data[channels]`` too, as the style pass
    does for its channel statistics: that work then runs while the block
    is in cache. Any ``fn`` without ``per_channel`` runs as one block on
    the whole map.

    The block plan. A block's half spectrum fills about ``_BLOCK_BYTES``,
    so it stays in cache from the forward transform to the inverse. A map
    of ``n`` blocks' worth of half spectrum is cut into blocks of
    ceil(C / n) channels, the last taking what is left (64x56x56: four
    blocks of 16 channels; 256x14x14 fits in one). The blocks run in
    channel order on the calling thread, so the first failing block
    raises, and the bits are those of the map as one block. Each block's
    forward transform writes into a prefix of one spectrum buffer, sized
    for the largest block. Each thread keeps that buffer for its next call
    (:func:`_spectrum_buffer`) and replaces it only with a larger one: 139
    KB after a 16x32x32 call, 459 KB after a 256x14x14 one. A call whose
    block raises drops it.

    The blocks, ``fn`` included, run with numpy's overflow, invalid and
    divide warnings off. So an overflow on a huge map ends in a typed
    error, the output's :class:`~freqadapt.errors.NonFiniteResultError`
    or one ``fn`` raises, whatever the caller's warning filters are.
    """
    return _rewrite_blocks(x, lambda z, channels: _rescale(
        z, (lambda a: fn(a, channels)) if per_channel else fn), per_channel)


def _rewrite_blocks(x: FeatureMap, rewrite: Callable[[np.ndarray, slice], np.ndarray],
                    per_channel: bool) -> FeatureMap:
    """The map whose half spectrum, block by block, is rewrite(z, channels); :func:`amp_map`'s core.

    ``rewrite`` gets the half spectrum ``z`` of the channels ``channels``
    of ``x``, in the kept buffer, and returns the spectrum to invert, which
    it may write into ``z``. The blocks follow :func:`amp_map`'s plan when
    ``per_channel`` is set, and are one block of all channels otherwise;
    the residue guard and the finiteness check are :func:`amp_map`'s.
    """
    c, h, w = x.shape
    out = np.empty(x.shape)
    step = c
    if per_channel:
        step = -(-c // min(c, -(-c * h * (w // 2 + 1) * 16 // _BLOCK_BYTES)))
    size = step * h * (w // 2 + 1)
    buf = _spectrum_buffer(size)
    spectrum = buf[:size].reshape(step, h, w // 2 + 1)
    residue, scales = 0.0, []
    # an overflow or a NaN is decided by the typed checks below, not by the warning filters
    with _quiet():
        for c0 in range(0, c, step):
            channels = slice(c0, min(c0 + step, c))
            z = rewrite(_rfft2(x.data[channels], spectrum[:channels.stop - c0]), channels)
            # max drops a NaN residue, which cannot change the outcome: it comes
            # from a non-finite self-mirrored bin, which the inverse spreads into
            # out, so scale is NaN or inf, no residue exceeds it, and _adopt raises
            residue = max(residue, _mirror_residue(z, w))
            block = _irfft2(z, out[channels])
            scales.append(max(block.max(), -block.min()))  # while the block is in cache
    _spectra.buf = buf
    scale = float(np.max(scales))  # np.max keeps a NaN scale
    if residue > 1e-8 * scale:
        raise SymmetryViolationError(
            f"amplitude map residue {residue:.3e} exceeds 1e-8 * {scale:.3e}"
        )
    return FeatureMap._adopt(out, scale=scale)  # a finite scale stands for the finiteness scan


def _radius_grid(h: int, w: int) -> np.ndarray:
    """Radius of each bin of the fftshift-centered H x W grid: 0 at DC, 1 at the corners."""
    cy, cx = h // 2, w // 2
    dy = (np.arange(h) - cy) / max(cy, 1)
    dx = (np.arange(w) - cx) / max(cx, 1)
    return np.sqrt(dy[:, None] ** 2 + dx[None, :] ** 2) / math.sqrt(2.0)


@functools.lru_cache(maxsize=32)
def _band_masks(h: int, w: int, radial_cut: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The half spectrum's low-band and high-band masks and its mirror weights, read-only."""
    radius = np.fft.ifftshift(_radius_grid(h, w))[:, : w // 2 + 1]
    low_mask = radius <= radial_cut
    masks = low_mask, ~low_mask, mirror_weights(w)
    for arr in masks:
        arr.flags.writeable = False
    return masks


def _band_split(power: np.ndarray, width: int, radial_cut: float) -> tuple[float, float]:
    """(low, high) full-grid sums of a half-spectrum power array, averaged over channels.

    The radius is the same at (u, v) and (-u, -v), so each half-spectrum
    bin stands for its mirror too and weighs :func:`mirror_weights`. The
    masks and weights of the last 32 (H, W, cut) are kept. The caller,
    :func:`~freqadapt.crossmodal.high_fraction`, checks ``radial_cut``.
    """
    low_mask, high_mask, weights = _band_masks(power.shape[1], width, radial_cut)
    weighted = power * weights
    low = float(weighted[:, low_mask].sum(axis=1).mean())
    high = float(weighted[:, high_mask].sum(axis=1).mean())
    return low, high


def heatmap(x: FeatureMap) -> Matrix:
    """Channel-averaged log(1 + |Z|) of the full-grid spectrum, DC in the middle.

    |Z| carries no epsilon and np.abs does not square, so the field stays
    finite for huge maps and keeps its structure for tiny ones. numpy's
    overflow, invalid and divide warnings are off inside: a transform that
    overflows ends in :class:`~freqadapt.errors.NonFiniteResultError`
    whatever the warning filters are.
    """
    with _quiet():
        avg = np.log1p(np.abs(np.fft.fft2(x.data, axes=(1, 2)))).mean(axis=0)
    return Matrix._adopt(np.fft.fftshift(avg))
