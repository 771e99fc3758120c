import mpmath as mp
import numpy as np

from freqadapt.spectral import _radius_grid


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


FFT_NAMES = ("rfft2", "irfft2", "fft2", "ifft2", "fftn", "ifftn")


def count_fft_calls(monkeypatch):
    """Count calls to the 2D and n-D transforms of np.fft; returns the live name -> count dict."""
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
