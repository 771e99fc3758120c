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
their uint64 words in place, through one shift buffer and with no mask
passes (numpy wraps uint64 arithmetic mod 2**64), and scale the results
in place, so a draw allocates a few arrays, not one per arithmetic step.
The normal sampler builds the u words and the v words of a chunk's polar
pairs as the two rows of one array, each row contiguous, and maps their
top 53 bits straight to 2U - 1, which is exact. The Marsaglia-Tsang steps are written once, and
read their draws in order from the scalar stream or from a window of
words and polar normals drawn as arrays.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_PAIR_CHUNK = 8192  # polar pairs per vectorized draw; bounds normal_array's working memory

# gamma_array reads its words from a window from this many components on.
# The window costs a fixed ~45 us, and each component then costs ~2.4 us
# against ~7 us on the scalar stream. Median us per draw, alpha = 1, scalar
# vs window, 1,500 interleaved draws per count on a 2-vCPU Xeon VM:
# 1: 8.6 vs 44.7, 4: 29.1 vs 50.1, 8: 62.0 vs 67.1, 9: 67.2 vs 66.8,
# 10: 76.3 vs 72.6, 11: 84.4 vs 76.8, 12: 95.5 vs 78.6, 16: 120 vs 83,
# 32: 227 vs 119. The style checks of ``verify`` draw 1-3 components.
_GAMMA_WINDOW = 10


def _finalize(z: int) -> int:
    """splitmix64 output mix of one word."""
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _finalize_words(z: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """:func:`_finalize` of each word of a uint64 array, in place; returns ``z``.

    ``shift`` is a uint64 work buffer of z's size that takes each shifted
    copy. numpy wraps uint64 products mod 2**64, so no pass masks them.
    """
    z ^= np.right_shift(z, 30, out=shift)
    z *= 0xBF58476D1CE4E5B9
    z ^= np.right_shift(z, 27, out=shift)
    z *= 0x94D049BB133111EB
    z ^= np.right_shift(z, 31, out=shift)
    return z


def _unit_words(z: np.ndarray, shift: np.ndarray, scale: float) -> np.ndarray:
    """The top 53 bits of each finalized word of ``z`` times ``scale``, as a new float64 array.

    ``z`` is finalized and shifted in place (see :func:`_finalize_words`).
    The shifted words are below 2**53, so they convert to float64 exactly,
    and through int64, whose conversion is faster than uint64's; a power
    of two ``scale`` scales them exactly too.
    """
    _finalize_words(z, shift)
    z >>= 11
    u = z.view(np.int64).astype(np.float64)
    u *= scale
    return u


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
        shape = float(shape)
        if not shape > 0.0:
            raise ValueError(f"gamma shape must be > 0, got {shape}")
        return _marsaglia_tsang(shape, self.uniform, self.normal)

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
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return _unit_words(words, np.empty_like(words), 2.0 ** -53)

    def uniform_array(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Bitwise equal to n calls of ``low + (high - low) * uniform()``."""
        u = self._uniforms(n)
        u *= high - low
        u += low
        return u

    def normal_array(self, n: int, scale: float = 1.0) -> np.ndarray:
        """Bitwise equal to n calls of ``scale * normal()``, state included.

        Polar pairs are drawn in chunks of at most ``_PAIR_CHUNK``; the
        accepted pairs are kept in order and the state is rewound to just
        after the pair that gave the n-th variate. Pair i of a chunk reads
        words 2i + 1 (u) and 2i + 2 (v) past the chunk's start state, so
        its u words are the start plus ``(2i + 1) * golden``, from a step
        array built once per call, and its v words are the u words plus
        golden. The two are the rows of one array, finalized together and
        mapped straight to 2U - 1: the top 53 bits times 2**-52, minus 1,
        which is exactly ``2.0 * uniform() - 1.0``.
        Both paths take the log with ``np.log``, whose scalar and array
        kernels agree bitwise.
        """
        vals = np.empty(n, dtype=np.float64)
        # acceptance is pi/4, so this usually finishes in one chunk, and no later chunk is longer
        first = min(_PAIR_CHUNK, n + n // 3 + 8)
        steps = np.arange(1, 2 * first, 2, dtype=np.uint64)
        steps *= _GOLDEN
        words = np.empty((2, first), dtype=np.uint64)
        shift = np.empty_like(words)
        done = 0
        while done < n:
            need = n - done
            start = self._state
            m = min(_PAIR_CHUNK, need + need // 3 + 8)
            uv = words[:, :m]
            np.add(steps[:m], start, out=uv[0])
            np.add(uv[0], _GOLDEN, out=uv[1])
            uv = _unit_words(uv, shift[:, :m], 2.0 ** -52)
            uv -= 1.0
            u, v = uv
            s = u * u
            s += v * v
            kept = np.flatnonzero((0.0 < s) & (s < 1.0))[:need]
            pairs = int(kept[-1]) + 1 if kept.size == need else m
            self._state = (start + 2 * pairs * _GOLDEN) & _MASK64
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

    def normal_parts(self, shapes, scales) -> list[np.ndarray]:
        """One :meth:`normal_array` draw cut into arrays of ``shapes``, each scaled in place.

        Part i is bitwise equal to ``normal_array(size_i, scales[i])``, the
        calls made in order, and the state ends where they leave it: a draw
        at scale 1 times one multiply rounds as the scaled draw does. The
        parts are writeable views of one fresh array, their common
        ``base``, which is marked read-only: a caller can still write
        through a part, but once it is frozen no view of the draw can be
        made writeable again, so a container adopts the parts uncopied
        (:meth:`~freqadapt.tensor._Frozen._adopt`).
        """
        sizes = [math.prod(shape) for shape in shapes]
        flat = self.normal_array(sum(sizes))
        parts, at = [], 0
        for shape, size, scale in zip(shapes, sizes, scales):
            part = flat[at:at + size]
            part *= scale
            parts.append(part.reshape(shape))
            at += size
        flat.flags.writeable = False
        return parts

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

        Every shape is checked before any word is drawn. Below
        ``_GAMMA_WINDOW`` components the method reads the scalar stream.
        From there on it reads a window of words with the polar candidate
        of every offset (see :meth:`_polar_window`), in the scalar order. A
        component that runs past the window is drawn again from a window
        twice as long, from the same start, and the state is rewound to
        just after the last word used.
        """
        shapes = [float(a) for a in shapes]
        for shape in shapes:
            if not shape > 0.0:
                raise ValueError(f"gamma shape must be > 0, got {shape}")
        if len(shapes) < _GAMMA_WINDOW:
            return np.array([_marsaglia_tsang(a, self.uniform, self.normal) for a in shapes])
        start, vals = self._state, []
        size = 4 * len(shapes) + 8  # about 3.7 words per component at shape 1
        window = _Window(*self._polar_window(size))
        for shape in shapes:
            pos = window.pos
            while True:
                try:
                    vals.append(_marsaglia_tsang(shape, window.uniform, window.normal))
                    break
                except IndexError:  # the component ran past the window
                    size *= 2
                    self._state = start
                    window = _Window(*self._polar_window(size), pos)
        self._state = (start + window.pos * _GOLDEN) & _MASK64
        return np.array(vals, dtype=np.float64)


def _marsaglia_tsang(shape: float, uniform, normal) -> float:
    """Gamma(shape, 1) from ``uniform()`` and polar ``normal()`` draws.

    ``shape`` is a Python float > 0: past 2e307, ``9 * d`` is inf with no numpy warning.
    """
    if shape < 1.0:
        boost = uniform() ** (1.0 / shape)
        return _marsaglia_tsang(shape + 1.0, uniform, normal) * boost
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = normal()
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = uniform()
        if (u < 1.0 - 0.0331 * x * x * x * x or u == 0.0
                or math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v))):
            return d * v


class _Window:
    """The draws of :meth:`SplitMix64.uniform` and :meth:`~SplitMix64.normal`, read from
    a :meth:`~SplitMix64._polar_window` from word ``pos`` on. Raises IndexError at its end."""

    def __init__(self, words: list, accepted: list, normals: list, pos: int = 0):
        self.words, self.accepted, self.normals, self.pos = words, accepted, normals, pos

    def uniform(self) -> float:
        u = self.words[self.pos]
        self.pos += 1
        return u

    def normal(self) -> float:
        pos = self.pos
        while not self.accepted[pos]:
            pos += 2
        self.pos = pos + 2
        return self.normals[pos]
