"""Deterministic random primitives shared by every seeded operation.

All randomness in the toolkit flows through :class:`SplitMix64`, so seeded
results are reproducible. The generator and the derived samplers are fixed,
fully specified algorithms rather than wrappers around a library RNG, because
golden tests pin their exact output streams:

* state update -- splitmix64 (Steele/Lea/Flood): one 64-bit word, golden
  gamma increment, xor-shift-multiply finalizer.
* uniforms -- top 53 bits of the next output word, scaled by 2**-53.
* normals -- Marsaglia polar method; one variate per accepted pair, the
  second variate of the pair is discarded. The log is ``np.log``, which
  numpy dispatches by CPU feature set (its SIMD log can differ from libm in
  the last ulp), so normal streams are bitwise reproducible per numpy build
  and CPU; uniforms and :func:`mix_seed` are exact everywhere.
* gammas -- Marsaglia-Tsang squeeze method for shape >= 1, with the
  u**(1/shape) boost below 1.

The array samplers are numpy-vectorized and bitwise equal to the scalar
streams: the same values, and the same state afterwards. They finalize
their uint64 words in place and scale the results in place, so a draw
allocates a few arrays, not one per arithmetic step. ``gamma_array``
vectorizes the words and the polar normals only: a Marsaglia-Tsang
rejection takes a variable number of words, so a scalar walk consumes
them in order.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_PAIR_CHUNK = 8192  # polar pairs per vectorized draw; bounds normal_array's working memory


def _finalize(z: int | np.ndarray) -> int | np.ndarray:
    """splitmix64 output mix of one word, or elementwise of a uint64 array.

    A uint64 array is updated in place (numpy wraps mod 2**64, so its masks
    change nothing) and returned; an int is immutable and comes back new.
    """
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z &= _MASK64
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= _MASK64
    z ^= z >> 31
    return z


def mix_seed(seed: int, index: int) -> int:
    """Derive an independent substream seed from (seed, index).

    Applies the splitmix64 finalizer to ``seed + index * golden``; distinct
    indices give distinct, statistically independent seeds, and the result
    does not depend on any evaluation order.
    """
    return _finalize((seed + index * _GOLDEN) & _MASK64)


class SplitMix64:
    """Sequential 64-bit PRNG with fixed uniform/normal/gamma samplers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _finalize(self._state)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self) -> float:
        """Standard normal via the Marsaglia polar method."""
        while True:
            u = 2.0 * self.uniform() - 1.0
            v = 2.0 * self.uniform() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                return u * math.sqrt(-2.0 * float(np.log(s)) / s)

    def gamma(self, shape: float) -> float:
        """Gamma(shape, 1) variate via Marsaglia-Tsang."""
        if not shape > 0.0:
            raise ValueError(f"gamma shape must be > 0, got {shape}")
        if shape < 1.0:
            boost = self.uniform() ** (1.0 / shape)
            return self.gamma(shape + 1.0) * boost
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.normal()
            v = 1.0 + c * x
            if v <= 0.0:
                continue
            v = v * v * v
            u = self.uniform()
            if u < 1.0 - 0.0331 * x * x * x * x:
                return d * v
            if u == 0.0 or math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                return d * v

    def _uniforms(self, n: int) -> np.ndarray:
        """The next n ``uniform()`` values as one array, state advanced past them.

        splitmix64 is counter-based: word i is the finalizer of
        ``state + i * golden``, so the whole run is one uint64 computation
        (numpy wraps mod 2**64 as the scalar path masks).
        """
        if n < 0:
            raise ValueError(f"sample count must be >= 0, got {n}")
        words = np.arange(1, n + 1, dtype=np.uint64)
        words *= _GOLDEN
        words += self._state
        words = _finalize(words)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        words >>= 11
        u = words.astype(np.float64)
        u *= 2.0 ** -53
        return u

    def uniform_array(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Bitwise equal to n calls of ``low + (high - low) * uniform()``."""
        u = self._uniforms(n)
        u *= high - low
        u += low
        return u

    def normal_array(self, n: int, scale: float = 1.0) -> np.ndarray:
        """Bitwise equal to n calls of ``scale * normal()``, state included.

        Polar pairs are drawn in bounded chunks; the accepted pairs are kept
        in order and the state is rewound to just after the pair that gave
        the n-th variate. Both paths take the log with ``np.log``, whose
        scalar and array kernels agree bitwise.
        """
        vals = np.empty(n, dtype=np.float64)
        done = 0
        while done < n:
            need = n - done
            start = self._state
            # acceptance is pi/4, so this usually finishes in one chunk
            uv = self._uniforms(2 * min(_PAIR_CHUNK, need + need // 3 + 8))
            uv *= 2.0
            uv -= 1.0
            u, v = uv[0::2], uv[1::2]
            s = u * u
            s += v * v
            kept = np.flatnonzero((0.0 < s) & (s < 1.0))[:need]
            if kept.size == need:
                self._state = (start + 2 * (int(kept[-1]) + 1) * _GOLDEN) & _MASK64
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

    def _polar_window(self, n: int) -> tuple[list, list, list]:
        """The next n uniforms, and the polar candidate of each word offset, as lists.

        Offset i pairs words i and i + 1: ``accepted[i]`` says whether
        ``normal()`` would accept them and ``normals[i]`` is the variate
        it would return, computed as :meth:`normal_array` computes it.
        Only accepted offsets go through the log.
        """
        uv = self._uniforms(n)
        words = uv.tolist()
        uv *= 2.0
        uv -= 1.0
        u, v = uv[:-1], uv[1:]
        s = u * u
        s += v * v
        ok = (0.0 < s) & (s < 1.0)
        r = np.zeros_like(s)
        np.log(s, out=r, where=ok)
        r *= -2.0
        np.divide(r, s, out=r, where=ok)
        np.sqrt(r, out=r)
        r *= u
        return words, ok.tolist(), r.tolist()

    def gamma_array(self, shapes) -> np.ndarray:
        """Bitwise equal to ``[self.gamma(a) for a in shapes]``, state included.

        A rejection uses a variable number of words, so the words are
        drawn as a window, with the polar candidate of every offset (see
        :meth:`_polar_window`). A walk then runs the scalar method over
        them in order: 2 words per polar try, 1 per squeeze uniform and 1
        per boost uniform below shape 1, with the scalar arithmetic on
        the same types. A component that runs past the window is walked
        again over a window twice as long, drawn from the same start, and
        the state is rewound to just after the last word used. Every
        shape is checked before any word is drawn.
        """
        shapes = list(shapes)
        for shape in shapes:
            if not shape > 0.0:
                raise ValueError(f"gamma shape must be > 0, got {shape}")
        start = self._state
        size = 4 * len(shapes) + 8  # about 3.7 words per component at shape 1
        window = self._polar_window(size)
        vals, pos = [], 0
        for shape in shapes:
            while True:
                try:
                    val, pos_after = _gamma_walk(shape, pos, *window)
                    break
                except IndexError:  # the component ran past the window
                    size *= 2
                    self._state = start
                    window = self._polar_window(size)
            vals.append(val)
            pos = pos_after
        self._state = (start + pos * _GOLDEN) & _MASK64
        return np.array(vals, dtype=np.float64)


def _gamma_walk(shape, pos: int, words: list, accepted: list, normals: list):
    """``gamma(shape)`` on the words of a window from offset ``pos``: (variate, offset after).

    The steps of :meth:`SplitMix64.gamma`, with each uniform and polar
    normal read from the window. Raises IndexError at its end.
    """
    boost = 1.0
    if shape < 1.0:
        boost = words[pos] ** (1.0 / shape)
        pos += 1
        shape = shape + 1.0
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        while not accepted[pos]:
            pos += 2
        x = normals[pos]
        pos += 2
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = words[pos]
        pos += 1
        if (u < 1.0 - 0.0331 * x * x * x * x or u == 0.0
                or math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v))):
            return d * v * boost, pos
