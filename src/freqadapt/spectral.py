"""Batched 2D Fourier transforms and amplitude/phase machinery.

Conventions, fixed so round-trip and cross-implementation tests are
unambiguous:

* transforms act on the H x W plane of each channel independently,
  batched over the channel axis (bitwise equal to transforming each
  channel on its own). :func:`amp_map` with a per-channel ``fn`` runs
  over blocks of consecutive channels; every other transform is one
  call over all channels;
* the blocks of a multi-block map may run on several threads, so a
  per-channel ``fn`` may be called concurrently on disjoint blocks. The
  bits do not depend on the thread count, the caller's ``np.errstate``
  holds on the helper threads, and if blocks fail, the first failing
  block in channel order raises. :func:`amp_map` describes the block
  plan and the hand-off;
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
  before the forward transform, so each spectrum buffer (one per block)
  is allocated once
  (``np.fft`` takes ``out=`` from numpy 2.0 on, the package's floor);
* the full-grid :func:`fft2`, :func:`dft2_oracle` and :func:`decompose`
  are references, on plain arrays;
* amplitude is sqrt(re^2 + im^2 + 1e-24); the epsilon keeps the gradient
  of amplitude defined at zero bins and perturbs any bin with magnitude
  above 1e-6 by less than 1e-12;
* phase is atan2(im, re), normalized to (-pi, pi]; :func:`amp_map` keeps
  it as the unit phasor z/|z| instead, which is the same phase without
  the atan2/cos/sin round trip.
"""

from __future__ import annotations

import contextvars
import math
import os
import queue
import threading
from typing import Callable

import numpy as np

from .errors import SymmetryViolationError
from .tensor import FeatureMap, Matrix

AMP_EPS = 1e-24

ORACLE_MAX_PLANE = 4096  # H*W guard for the quadratic-time oracle

# Half-spectrum bytes per block of a per-channel amp_map. With 2 MB of L2
# per core, a block's spectrum and the rescale's temporaries stay in cache.
_BLOCK_BYTES = 512 * 1024
# A per-channel map of more than this much half spectrum is cut into one
# block per CPU, but into no more than ceil(bytes / _SPLIT_BYTES) blocks.
# Handing a block to a helper thread and back costs about 0.3 ms on a
# 2-vCPU VM. Cut in two there, maps of 408 and 448 KB (256x14x14) ran
# 19-34% faster, 272 KB as fast, 204-224 KB 3-28% slower and 136 KB
# (16x32x32) 60% slower. Cuts over more than two CPUs are unmeasured.
_SPLIT_BYTES = _BLOCK_BYTES // 2


def fft2(x: FeatureMap) -> np.ndarray:
    """Full-grid (C, H, W) spectrum of the unnormalized forward transform.

    A reference: the shipped transforms run on :func:`_rfft2`'s half.
    """
    return np.fft.fft2(x.data, axes=(1, 2))


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


def _rfft2(data: np.ndarray) -> np.ndarray:
    """Half spectrum (C, H, W//2+1) of the unnormalized forward transform of a (C, H, W) array.

    Two 1-D passes, the real one along W and then the complex one along
    H in place: the passes ``rfft2`` runs itself, so the bits are its own.
    The spectrum of a real map is conjugate-symmetric, but the FFT gives
    the self-mirrored columns only up to rounding, and a bin at rounding
    level (or an exact zero with a signed zero its mirror lacks) has a
    phase unrelated to its mirror's. So on those columns rows u > H/2
    are set to the conjugate of rows H - u, and the bins that are their
    own mirror (rows 0 and H/2) to their real part: exactly symmetric.
    """
    z = np.fft.rfft(data, axis=2)
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


def _workers() -> int:
    """Threads the blocks of one amp_map may run on: the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Helper threads for multi-block maps: daemon threads, started on first need
# and then kept, each serving the tasks of its own queue. A forked child
# starts its own (see _forget_helpers).
_queues: list[queue.SimpleQueue] = []
_queues_lock = threading.Lock()
_local = threading.local()  # _local.helper is set on helper threads


def _serve(tasks: queue.SimpleQueue) -> None:
    """A helper's loop: run each share of ``tasks`` in its context and hand back (index, outcome).

    A task is (context, share, k, handed); share(k) returns what its
    blocks raised instead of raising it, so the loop never ends.
    """
    _local.helper = True
    while True:
        context, share, k, handed = tasks.get()
        handed.put((k, context.run(share, k)))
        del context, share, handed  # hold no array of the call while waiting for the next


def _helpers(k: int) -> list[queue.SimpleQueue]:
    """The task queues of ``k`` helper threads, starting those not yet running."""
    with _queues_lock:
        while len(_queues) < k:
            tasks = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(tasks,), daemon=True,
                             name=f"freqadapt-amp-{len(_queues) + 1}").start()
            _queues.append(tasks)
        return _queues[:k]


def _forget_helpers() -> None:
    """In a forked child: drop the parent's helpers, which did not survive the fork."""
    global _queues_lock
    _queues.clear()
    _queues_lock = threading.Lock()  # the parent may have held it while forking


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _threads() -> int:
    """Threads the blocks of one amp_map may run on: :func:`_workers`, or 1 on a helper thread.

    A helper runs the blocks of an amp_map called from an ``fn`` itself,
    so it never waits on a task queued behind its own.
    """
    return 1 if getattr(_local, "helper", False) else _workers()


def _amp_block(data: np.ndarray, fn: Callable[[np.ndarray], np.ndarray],
               out: np.ndarray) -> tuple[float, float]:
    """amp_map's pipeline on the channels ``data``, written into ``out``.

    Returns the block's :func:`_mirror_residue` and its output scale
    max|out|, taken while the block is still in cache.
    """
    z = _rescale(_rfft2(data), fn)
    residue = _mirror_residue(z, data.shape[2])
    _irfft2(z, out)
    return residue, float(max(out.max(), -out.min()))


def _amp_blocks(data: np.ndarray, fn: Callable[..., np.ndarray], out: np.ndarray,
                n: int, threads: int) -> tuple[float, float]:
    """:func:`_amp_block` on ``n`` or so blocks of consecutive channels, on up to ``threads`` threads.

    The block plan and the hand-off are described in :func:`amp_map`.
    Returns the largest residue and the output scale over all blocks.
    """
    c = data.shape[0]
    workers = min(threads, n)
    step = -(-c // (-(-n // workers) * workers))
    blocks = [slice(c0, min(c0 + step, c)) for c0 in range(0, c, step)]
    workers = min(workers, len(blocks))
    bounds = [k * len(blocks) // workers for k in range(workers + 1)]

    def share(k):
        """The (residue, scale) of each block of share ``k``, or what its first failing block raised."""
        try:
            return [_amp_block(data[channels], lambda a: fn(a, channels), out[channels])
                    for channels in blocks[bounds[k]:bounds[k + 1]]]
        except BaseException as exc:
            return exc

    handed = queue.SimpleQueue()
    for k, tasks in enumerate(_helpers(workers - 1), start=1):
        # each share runs in a copy of the caller's context, so numpy's errstate
        # (a context variable) holds on the helper as it does on the caller
        tasks.put((contextvars.copy_context(), share, k, handed))
    outcomes = {0: share(0)}
    outcomes.update(handed.get() for _ in range(workers - 1))
    shares = [outcomes.pop(k) for k in range(workers)]
    for found in shares:
        if isinstance(found, BaseException):
            # the traceback will hold this frame, so the frame lets go of the
            # error: a cycle would keep the failing block's arrays alive until gc
            shares.clear()
            try:
                raise found
            finally:
                del found
    residues, scales = zip(*(block for found in shares for block in found))
    # max may drop a NaN residue, which cannot change the outcome: it comes
    # from a non-finite self-mirrored bin, which the inverse spreads into
    # out, so scale is NaN or inf, no residue exceeds it, and _adopt raises
    return max(0.0, *residues), float(np.max(scales))  # np.max keeps a NaN scale


def amp_map(x: FeatureMap, fn: Callable[..., np.ndarray], per_channel: bool = False) -> FeatureMap:
    """Rewrite a map's amplitude spectrum with ``fn`` and reconstruct it.

    ``fn`` maps the half-spectrum amplitude, shape (C, H, W//2+1) and
    computed as :func:`decompose` computes it, to the new amplitude; the
    mirrored bins follow by conjugate symmetry, so the result is real by
    construction. Each bin keeps its phase as z/|z|, and for an ``fn``
    that treats mirrored bins alike the result equals the full-grid
    inverse transform of fn(amp) * exp(i * phase), with (amp, phase) =
    decompose(fft2(x)), up to rounding. An
    ``fn`` that breaks the symmetry of a self-mirrored column (v = 0, and
    v = W/2 when W is even) by more than 1e-8 of the output magnitude,
    measured as :func:`_mirror_residue`, raises
    :class:`SymmetryViolationError`.

    An ``fn`` that acts on each channel alone is passed with
    ``per_channel``: it is then called as fn(a, channels) on blocks of
    consecutive channels, ``channels`` the slice of x's channels that
    ``a`` holds. It may read ``x.data[channels]`` too, as the style pass
    does for its channel statistics: that work then runs on the block's
    thread while the block is in cache. A map of one block, and any
    ``fn`` without ``per_channel``, runs as one block on the calling
    thread.

    The block plan. A block's half spectrum fills about ``_BLOCK_BYTES``,
    so it stays in cache from the forward transform to the inverse. The
    thread count is the number of CPUs the process may use, or 1 on a
    helper thread. A map of ``n`` blocks' worth of half spectrum is cut
    into ``n`` blocks of ceil(C / n) channels. Above ``_SPLIT_BYTES``
    (half a block), ``n`` is at least the thread count or
    ceil(bytes / ``_SPLIT_BYTES``), whichever is fewer. ``n`` is then
    rounded up to a multiple of the threads used, and each thread runs
    one share, a run of consecutive blocks; shares differ by at most one
    block (64x56x56 on two CPUs: four blocks of 16 channels, two per
    thread).

    The hand-off. The calling thread runs the first share. Each other
    share goes on the task queue of its own helper thread and runs there
    in a copy of the caller's ``contextvars`` context, so a
    ``np.errstate`` set by the caller holds on the helper. A share
    returns its blocks' (residue, scale), or what its first failing
    block raised, and the helper puts that on a queue made for the call.
    The caller takes every share's outcome before it raises or reduces,
    so no block of the call still runs when it returns. If blocks fail,
    the first failing block in channel order raises. So ``fn`` may be
    called concurrently on disjoint blocks, and the result is bitwise
    that of one block on one thread, whatever the thread count. The
    helpers are daemon threads, started on the first multi-block map and
    reused after it; a forked child starts its own. Called on a helper
    thread (from an ``fn``), amp_map runs all its blocks there.
    """
    c, h, w = x.shape
    out = np.empty(x.shape)
    n = 1
    if per_channel:
        threads = _threads()
        size = c * h * (w // 2 + 1) * 16
        n = min(c, max(-(-size // _BLOCK_BYTES), min(threads, -(-size // _SPLIT_BYTES))))
    if n == 1:
        residue, scale = _amp_block(x.data, (lambda a: fn(a, slice(0, c))) if per_channel else fn, out)
    else:
        residue, scale = _amp_blocks(x.data, fn, out, n, threads)
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
    forward's guards fire first. It runs once, in its whole-map form
    fn(a), on the whole map: the zero-bin check fires before it.
    """
    out = np.empty(x.shape)
    z = _rfft2(x.data)
    dz = _rfft2(direction.data)
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
