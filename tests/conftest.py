import math
import os
import subprocess
import sys
from unittest import mock

import mpmath as mp
import numpy as np

import freqadapt
from freqadapt import spectral
from freqadapt.errors import SymmetryViolationError
from freqadapt.spectral import _radius_grid, _rescale, _unit_phasors, mirror_weights
from freqadapt.adapter import AdapterWeights
from freqadapt.crossmodal import AttentionParams
from freqadapt.rng import SplitMix64
from freqadapt.synth import _gaussian_kernel_5x5, gen_features
from freqadapt.tensor import FeatureMap, Matrix, conv2d


def attention_oracle_mp(xv, xt, p, dps=50):
    """Extended-precision dense recomputation of the attention stack."""
    with mp.workdps(dps):
        q = mp.matrix(xv.tolist()) * mp.matrix(p.wq.tolist())
        k = mp.matrix(xt.tolist()) * mp.matrix(p.wk.tolist())
        v = mp.matrix(xt.tolist()) * mp.matrix(p.wv.tolist())
        scale = mp.sqrt(mp.mpf(p.d_k))
        out_rows = []
        for i in range(q.rows):
            scores = [sum(q[i, a] * k[j, a] for a in range(p.d_k)) / scale for j in range(k.rows)]
            m = max(scores)
            exps = [mp.e ** (s - m) for s in scores]
            z = sum(exps)
            attn = [e / z for e in exps]
            ctx = [sum(attn[j] * v[j, a] for j in range(k.rows)) for a in range(p.d_k)]
            row = [float(sum(ctx[a] * mp.mpf(p.wo[a, b]) for a in range(p.d_k)))
                   for b in range(p.wo.shape[1])]
            out_rows.append(row)
        return np.asarray(out_rows)


def smooth_reference(channels, height, width, seed):
    """``gen_features("smooth")`` as one zero-padded 5x5 ``conv2d`` per channel."""
    base = gen_features("noise", channels, height, width, seed)
    kernel = _gaussian_kernel_5x5()[None, None]
    out = np.empty((channels, height, width))
    for c in range(channels):
        out[c] = conv2d(FeatureMap(base.data[c : c + 1]), kernel).data[0]
    return FeatureMap(out)


def gamma_reference(rng, shape):
    """``SplitMix64.gamma`` as it ran before its method was shared with ``gamma_array``, kept verbatim."""
    if not shape > 0.0:
        raise ValueError(f"gamma shape must be > 0, got {shape}")
    if shape < 1.0:
        boost = rng.uniform() ** (1.0 / shape)
        return gamma_reference(rng, shape + 1.0) * boost
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.normal()
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = rng.uniform()
        if u < 1.0 - 0.0331 * x * x * x * x:
            return d * v
        if u == 0.0 or math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


# The full-grid inverse and the polar compose: references for the
# half-spectrum core, with no caller in the package.


def ifft2_reference(z: np.ndarray) -> tuple[FeatureMap, float]:
    """Full-grid inverse with 1/(H*W) normalization, the reference for ``spectral._irfft2``.

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


def compose_reference(amplitude: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """The spectrum amplitude * exp(i * phase).

    Negative amplitudes are legal and exact: they are the same spectrum as
    |amplitude| with the phase flipped by pi.
    """
    return amplitude * np.cos(phase) + 1j * (amplitude * np.sin(phase))


def conv2d_reference(x, kernel):
    """``conv2d``'s padded-tap loop as it ran inline, kept verbatim as its bitwise reference."""
    kern = np.asarray(kernel, dtype=np.float64)
    c, h, w = x.shape
    k = kern.shape[2]
    p = (k - 1) // 2
    wp = w + 2 * p
    padded = np.zeros((c, h + 2 * p + 1, wp))
    padded[:, p:p + h, p:p + w] = x.data
    flat = padded.reshape(c, -1)
    n = h * wp
    out = np.zeros((kern.shape[0], n))
    tap = np.empty_like(out)
    for dy in range(k):
        for dx in range(k):
            s = dy * wp + dx
            np.matmul(kern[:, :, dy, dx], flat[:, s:s + n], out=tap)
            out += tap
    return FeatureMap(out.reshape(-1, h, wp)[:, :, :w])


def seeded_reference(channels, seed):
    """``AdapterWeights.seeded`` as it ran through the copying constructor, kept verbatim as its bitwise reference."""
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    sizes = (3, 5, 7, 1, 1)
    ends = np.cumsum([channels * channels * k * k for k in sizes])
    flat = SplitMix64(seed).normal_array(int(ends[-1]))
    # times the reciprocal, as normal_array(n, scale) scales: dividing rounds differently
    k3, k5, k7, agg, noise = (
        (1.0 / (channels * k * k)) * part.reshape(channels, channels, k, k)
        for k, part in zip(sizes, np.split(flat, ends[:-1])))
    eye = np.eye(channels)[:, :, None, None]
    return AdapterWeights(k3=k3, k5=k5, k7=k7, agg=agg, proj=eye + 0.1 * noise)


# The seeded draws, the band split and the softmax as they ran before the
# step tables, the single attention draw, the kept band masks and the
# column-wise row max, kept verbatim as their bitwise references.

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_PAIR_CHUNK = 8192


def _finalize_reference(z):
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z &= _MASK64
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= _MASK64
    z ^= z >> 31
    return z


def uniforms_reference(rng, n):
    """``SplitMix64._uniforms``: the next n uniforms of ``rng``, its state advanced past them."""
    if n < 0:
        raise ValueError(f"sample count must be >= 0, got {n}")
    words = np.arange(1, n + 1, dtype=np.uint64)
    words *= _GOLDEN
    words += rng._state
    words = _finalize_reference(words)
    rng._state = (rng._state + n * _GOLDEN) & _MASK64
    words >>= 11
    u = words.astype(np.float64)
    u *= 2.0 ** -53
    return u


def normal_array_reference(rng, n, scale=1.0):
    """``SplitMix64.normal_array``, drawing its polar pairs through :func:`uniforms_reference`."""
    vals = np.empty(n, dtype=np.float64)
    done = 0
    while done < n:
        need = n - done
        start = rng._state
        # acceptance is pi/4, so this usually finishes in one chunk
        uv = uniforms_reference(rng, 2 * min(_PAIR_CHUNK, need + need // 3 + 8))
        uv *= 2.0
        uv -= 1.0
        u, v = uv[0::2], uv[1::2]
        s = u * u
        s += v * v
        kept = np.flatnonzero((0.0 < s) & (s < 1.0))[:need]
        if kept.size == need:
            rng._state = (start + 2 * (int(kept[-1]) + 1) * _GOLDEN) & _MASK64
        s = s[kept]
        # scale * (u * sqrt(-2 log(s) / s)), the scalar path's order, written into vals
        r = vals[done:done + kept.size]
        np.log(s, out=r)
        r *= -2.0
        r /= s
        np.sqrt(r, out=r)
        r *= u[kept]
        r *= scale
        done += kept.size
    return vals


def attention_seeded_reference(visual_dim, text_dim, d_k, seed):
    """``AttentionParams.seeded``: one ``normal_array`` call per projection, through the constructor."""
    if min(visual_dim, text_dim, d_k) < 1:
        raise ValueError(f"dims must be >= 1, got {(visual_dim, text_dim, d_k)}")
    rng = SplitMix64(seed)

    def draw(rows, cols, fan):
        return normal_array_reference(rng, rows * cols, scale=1.0 / math.sqrt(fan)).reshape(rows, cols)

    return AttentionParams(
        wq=draw(visual_dim, d_k, visual_dim),
        wk=draw(text_dim, d_k, text_dim),
        wv=draw(text_dim, d_k, text_dim),
        wo=draw(d_k, visual_dim, d_k),
        d_k=d_k,
    )


def half_band_split_reference(power, width, radial_cut):
    """``spectral._band_split``, its masks and weights built on every call."""
    if not 0.0 < radial_cut < 1.0:
        raise ValueError(f"radial_cut must be in (0, 1), got {radial_cut}")
    h = power.shape[1]
    radius = np.fft.ifftshift(_radius_grid(h, width))[:, : width // 2 + 1]
    low_mask = radius <= radial_cut
    weighted = power * mirror_weights(width)
    low = float(weighted[:, low_mask].sum(axis=1).mean())
    high = float(weighted[:, ~low_mask].sum(axis=1).mean())
    return low, high


def softmax_rows_reference(m):
    """``softmax_rows`` with its row max taken by ``max(axis=1)``."""
    shifted = m.data - m.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return Matrix._adopt(e / e.sum(axis=1, keepdims=True))


def idft2_reference(z):
    """Inverse DFT via conjugate transform matrices; independent of the fft path."""
    c, h, w = z.shape
    eh = np.exp(2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
    ew = np.exp(2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
    out = np.empty_like(z)
    for ch in range(c):
        out[ch] = eh @ z[ch] @ ew.T / (h * w)
    return out


def phase_gap_mod_pi(p_out, p_in):
    """Phase deviation allowing exact pi flips (negative-amplitude bins)."""
    d = np.abs(np.mod(p_out - p_in + np.pi, 2.0 * np.pi) - np.pi)
    return np.minimum(d, np.abs(np.pi - d))


def band_split_reference(power, cut):
    """(low, high) sums of a full-grid power array, bin by bin on the centered grid, channel mean."""
    c, h, w = power.shape
    shifted = np.fft.fftshift(power, axes=(1, 2))
    r = _radius_grid(h, w)
    low = np.mean([shifted[k][r <= cut].sum() for k in range(c)])
    high = np.mean([shifted[k][r > cut].sum() for k in range(c)])
    return float(low), float(high)


# The half-spectrum core as it ran on np.fft.rfft2/irfft2 with fancy-index
# symmetrization, kept verbatim as the bitwise reference for the two-pass core.


def _self_mirrored_reference(n):
    return [0, n // 2] if n % 2 == 0 else [0]


def rfft2_reference(x):
    z = np.fft.rfft2(x.data, axes=(1, 2))
    h = z.shape[1]
    cols = _self_mirrored_reference(x.width)
    rows = np.arange(h // 2 + 1, h)[:, None]
    z[:, rows, cols] = np.conj(z[:, h - rows, cols])
    z.imag[:, np.array(_self_mirrored_reference(h))[:, None], cols] = 0.0
    return z


def _irfft2_reference(z, shape):
    return FeatureMap._adopt(np.fft.irfft2(z, s=shape[1:], axes=(1, 2)))


def _mirror_residue_reference(z, width):
    h = z.shape[1]
    cols = z[:, :, _self_mirrored_reference(width)]
    mirror = cols[:, -np.arange(h) % h]
    return float(np.abs(cols - np.conj(mirror)).max()) / (h * width)


def amp_map_reference(x, fn):
    z = _rescale(rfft2_reference(x), fn)
    residue = _mirror_residue_reference(z, x.width)
    out = _irfft2_reference(z, x.shape)
    scale = float(np.abs(out.data).max())
    if residue > 1e-8 * scale:
        raise SymmetryViolationError(
            f"amplitude map residue {residue:.3e} exceeds 1e-8 * {scale:.3e}"
        )
    return out


def amp_map_jvp_reference(x, direction, fn, dfn):
    z = rfft2_reference(x)
    dz = rfft2_reference(direction)
    re, im = z.real, z.imag
    r2 = re * re + im * im
    if np.any(r2 == 0.0):
        raise ValueError("phase derivative undefined at zero-magnitude bins")
    da = re * dz.real + im * dz.imag
    dp = (re * dz.imag - im * dz.real) / r2
    a = _unit_phasors(z)
    da /= a
    new = fn(a)
    return _irfft2_reference(z * (dfn(a, da) + 1j * new * dp), x.shape)


def channel_stats_reference(x):
    return x.data.mean(axis=(1, 2)), x.data.std(axis=(1, 2))


def outcome(f, *args):
    """What ``f(*args)`` gives, comparable bit for bit: its bytes, or its exception's type and text."""
    try:
        result = f(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return tuple(np.asarray(r).tobytes() for r in result)
    return np.asarray(getattr(result, "data", result)).tobytes()


def channel_blocks(n, shape):
    """Patch amp_map's block size so a per-channel block of a ``shape`` map holds ``n`` channels."""
    return mock.patch.object(spectral, "_BLOCK_BYTES", n * shape[1] * (shape[2] // 2 + 1) * 16)


def run_python(script, timeout=60):
    """Run ``script`` in a fresh interpreter that imports this freqadapt; it must exit 0 within ``timeout`` s."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(freqadapt.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=timeout, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


FFT_NAMES = ("rfft", "irfft", "fft", "ifft", "rfft2", "irfft2", "fft2", "ifft2", "fftn", "ifftn")


def count_fft_calls(monkeypatch):
    """Count calls to the 1-D, 2D and n-D transforms of np.fft; returns the live name -> count dict."""
    calls = dict.fromkeys(FFT_NAMES, 0)

    def counted(name):
        original = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in FFT_NAMES:
        monkeypatch.setattr(np.fft, name, counted(name))
    return calls
