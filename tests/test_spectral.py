import gc
import os
import threading
import time
import weakref
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    amp_map_jvp_reference,
    amp_map_reference,
    band_split_reference,
    channel_blocks,
    compose_reference,
    count_fft_calls,
    ifft2_reference,
    outcome,
    rfft2_reference,
    run_python,
    workers,
)
from freqadapt import (
    DegenerateSpectrumError,
    FeatureMap,
    SymmetryViolationError,
    amp_map,
    decompose,
    dft2_oracle,
    fft2,
    heatmap,
    spectral_normalize,
    spectral,
    style_transform,
)
from freqadapt.crossmodal import NORM_SCOPES, _group_mean, _standardize
from freqadapt.gradcheck import _normalize_jvp
from freqadapt.spectral import (
    _band_split,
    _rescale,
    _rfft2,
    _unit_phasors,
    amp_map_jvp,
    conjugate_asymmetry,
    mirror_weights,
)
from freqadapt.style import _amp_affine


def idft2_reference(z):
    """Inverse DFT via conjugate transform matrices; independent of the fft path."""
    c, h, w = z.shape
    eh = np.exp(2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
    ew = np.exp(2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
    out = np.empty_like(z)
    for ch in range(c):
        out[ch] = eh @ z[ch] @ ew.T / (h * w)
    return out


def rand_map(rng, c, h, w):
    return FeatureMap(rng.uniform(-1, 1, size=(c, h, w)))


planes = st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9))
map_seeds = st.integers(0, 2**32 - 1)


class TestFft2:
    def test_constant_map(self):
        s = fft2(FeatureMap(np.ones((1, 2, 2))))
        assert s[0, 0, 0] == pytest.approx(4.0)
        rest = s[0].ravel()[1:]
        assert np.abs(rest).max() < 1e-14

    def test_impulse(self):
        data = np.zeros((1, 2, 2))
        data[0, 0, 0] = 1.0
        s = fft2(FeatureMap(data))
        assert np.abs(s - 1.0).max() < 1e-14

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(10)
        x = rand_map(rng, 1, 4, 4)
        assert np.abs(fft2(x) - dft2_oracle(x)).max() < 1e-10

    def test_matches_oracle_all_small_sizes(self):
        rng = np.random.default_rng(11)
        for c in (1, 3):
            for h in (2, 3, 4, 5, 8):
                for w in (2, 3, 4, 5, 8):
                    x = rand_map(rng, c, h, w)
                    assert np.abs(fft2(x) - dft2_oracle(x)).max() < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(12)
        x, y = rand_map(rng, 2, 5, 6), rand_map(rng, 2, 5, 6)
        combo = fft2(FeatureMap(2.0 * x.data - 0.5 * y.data))
        split = 2.0 * fft2(x) - 0.5 * fft2(y)
        assert np.abs(combo - split).max() < 1e-10

    def test_real_input_needs_no_complex_cast(self):
        rng = np.random.default_rng(27)
        shapes = ((1, 1, 1), (2, 1, 7), (3, 5, 4), (2, 8, 8), (2, 97, 101))
        for shape in shapes:
            for scale in (1e-20, 1.0, 1e20):
                data = scale * rng.uniform(-1.0, 1.0, size=shape)
                data[0, 0, 0] = -0.0
                cast = np.fft.fft2(data.astype(np.complex128), axes=(1, 2))
                assert fft2(FeatureMap(data)).tobytes() == cast.tobytes()

    def test_real_input_conjugate_symmetric(self):
        rng = np.random.default_rng(13)
        for h, w in ((4, 4), (5, 7), (8, 3)):
            assert conjugate_asymmetry(fft2(rand_map(rng, 2, h, w))) < 1e-9


class TestIfft2:
    def test_roundtrip(self):
        rng = np.random.default_rng(14)
        x = rand_map(rng, 3, 8, 8)
        back, residue = ifft2_reference(fft2(x))
        assert np.abs(back.data - x.data).max() < 1e-10
        assert residue <= 1e-10

    def test_dc_only_spectrum(self):
        h, w = 4, 6
        z = np.zeros((1, h, w), dtype=complex)
        z[0, 0, 0] = h * w
        out, residue = ifft2_reference(z)
        assert np.abs(out.data - 1.0).max() < 1e-12
        assert residue < 1e-12

    def test_matches_reference_inverse(self):
        rng = np.random.default_rng(15)
        x = rand_map(rng, 2, 5, 7)
        z = fft2(x)  # conjugate-symmetric by construction
        out, _ = ifft2_reference(z)
        want = idft2_reference(z).real
        assert np.abs(out.data - want).max() < 1e-10

    def test_flags_asymmetric_spectrum(self):
        rng = np.random.default_rng(16)
        z = rng.normal(size=(1, 4, 4)) + 1j * rng.normal(size=(1, 4, 4))
        with pytest.raises(SymmetryViolationError):
            ifft2_reference(z)

    def test_linearity(self):
        rng = np.random.default_rng(26)
        za = fft2(rand_map(rng, 2, 5, 6))
        zb = fft2(rand_map(rng, 2, 5, 6))
        a, b = -1.2, 0.8
        combo, _ = ifft2_reference(a * za + b * zb)
        xa, _ = ifft2_reference(za)
        xb, _ = ifft2_reference(zb)
        assert np.abs(combo.data - (a * xa.data + b * xb.data)).max() < 1e-10


class TestDftOracle:
    def test_constant_is_dc_only(self):
        s = dft2_oracle(FeatureMap(np.full((1, 3, 3), 2.0)))
        assert s[0, 0, 0] == pytest.approx(18.0)
        assert np.abs(s[0].ravel()[1:]).max() < 1e-12

    def test_single_cosine_along_width(self):
        w = 8
        x = np.cos(2 * np.pi * np.arange(w) / w)[None, None, :].repeat(4, axis=1)
        s = dft2_oracle(FeatureMap(x))
        mag = np.abs(s[0])
        hot = {(0, 1), (0, w - 1)}
        for u in range(4):
            for v in range(w):
                if (u, v) in hot:
                    assert mag[u, v] > 1.0
                else:
                    assert mag[u, v] < 1e-10

    def test_cross_check_non_power_of_two(self):
        rng = np.random.default_rng(17)
        x = rand_map(rng, 2, 5, 7)
        assert np.abs(dft2_oracle(x) - fft2(x)).max() < 1e-10

    def test_size_guard(self):
        with pytest.raises(ValueError):
            dft2_oracle(FeatureMap(np.zeros((1, 65, 64))))


class TestDecomposeCompose:
    def test_three_four_five(self):
        z = np.full((1, 1, 1), 3.0 + 4.0j)
        amp, phase = decompose(z)
        assert amp[0, 0, 0] == pytest.approx(5.0, abs=1e-12)
        # mpmath, 50 digits: atan2(4, 3)
        assert phase[0, 0, 0] == pytest.approx(0.92729521800161223243, abs=1e-15)

    def test_negative_real(self):
        amp, phase = decompose(np.full((1, 1, 1), -1.0 + 0.0j))
        assert amp[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert phase[0, 0, 0] == pytest.approx(np.pi)

    def test_phase_range(self):
        rng = np.random.default_rng(18)
        z = rng.normal(size=(2, 6, 6)) + 1j * rng.normal(size=(2, 6, 6))
        z[0, 0, 0] = -1.0 - 0.0j  # atan2 would give -pi without normalization
        _, phase = decompose(z)
        assert np.all(phase > -np.pi)
        assert np.all(phase <= np.pi)

    def test_roundtrip_spectrum(self):
        rng = np.random.default_rng(19)
        z = rng.normal(size=(2, 5, 5)) + 1j * rng.normal(size=(2, 5, 5))
        amp, phase = decompose(z)
        back = compose_reference(amp, phase)
        mask = amp > 1e-9
        assert np.abs((back - z)[mask]).max() < 1e-9

    def test_unit_amplitude_zero_phase(self):
        s = compose_reference(np.ones((1, 1, 1)), np.zeros((1, 1, 1)))
        assert s[0, 0, 0] == pytest.approx(1.0 + 0.0j)

    def test_negative_amplitude_is_pi_flip(self):
        a = compose_reference(np.full((1, 1, 1), -2.0), np.zeros((1, 1, 1)))
        b = compose_reference(np.full((1, 1, 1), 2.0), np.full((1, 1, 1), np.pi))
        assert a[0, 0, 0].real == pytest.approx(-2.0, abs=1e-15)
        assert np.abs(a - b).max() < 1e-15

    def test_compose_decompose_mod_flip(self):
        rng = np.random.default_rng(20)
        amp = rng.uniform(-2, 2, size=(1, 4, 4))
        phase = rng.uniform(-3, 3, size=(1, 4, 4))
        amp2, phase2 = decompose(compose_reference(amp, phase))
        assert np.abs(amp2 - np.abs(amp)).max() < 1e-9
        gap = np.abs(np.mod(phase2 - phase + np.pi, 2 * np.pi) - np.pi)
        gap = np.minimum(gap, np.abs(np.pi - gap))
        assert gap.max() < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(21)
        for h in range(4, 10):
            for w in range(4, 10):
                x = rand_map(rng, 2, h, w)
                amp = decompose(fft2(x))[0]
                lhs = (x.data**2).sum()
                rhs = (amp**2).sum() / (h * w)
                assert abs(lhs - rhs) / abs(lhs) < 1e-8


def half_power(x):
    return np.abs(_rfft2(x.data)) ** 2


class TestBandEnergy:
    def test_constant_map_all_low(self):
        low, high = _band_split(half_power(FeatureMap(np.full((1, 6, 6), 3.0))), 6, 0.25)
        assert low > 0
        assert high < 1e-12

    def test_checkerboard_all_high(self):
        h = w = 6
        plane = np.fromfunction(lambda i, j: (-1.0) ** (i + j), (h, w))
        low, high = _band_split(half_power(FeatureMap(plane[None])), w, 0.25)
        assert high > 1.0
        assert low < 1e-12

    def test_matches_per_bin_summation(self):
        rng = np.random.default_rng(22)
        x = rand_map(rng, 2, 8, 8)
        cut = 0.25
        low, high = _band_split(half_power(x), 8, cut)
        low_ref, high_ref = band_split_reference(np.abs(fft2(x)) ** 2, cut)
        assert low == pytest.approx(low_ref, rel=1e-12)
        assert high == pytest.approx(high_ref, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(shape=planes, seed=map_seeds,
           cut=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_half_spectrum_matches_full_grid(self, shape, seed, cut):
        # the same bins on both sides: only the mirror weighting differs
        x = FeatureMap(np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape))
        half = _rfft2(x.data)
        low, high = _band_split(np.abs(half) ** 2, shape[2], cut)
        low_ref, high_ref = band_split_reference(np.abs(full_spectrum(half, shape[2])) ** 2, cut)
        assert abs(low - low_ref) <= 1e-12 * low_ref
        assert abs(high - high_ref) <= 1e-12 * high_ref

    def test_rejects_bad_cut(self):
        with pytest.raises(ValueError):
            _band_split(np.ones((1, 4, 3)), 4, 1.0)


class TestAmpMap:
    def test_asymmetric_amplitude_rejected(self):
        rng = np.random.default_rng(25)
        x = rand_map(rng, 2, 6, 6)
        # column v = 0 is its own mirror: bin (1, 0) without (5, 0) breaks conjugate
        # symmetry; the bump is small enough to pass ifft2_reference's 1e-6 guard and must trip
        # the 1e-8 one
        def lopsided(a):
            bumped = a.copy()
            bumped[:, 1, 0] += 1e-5
            return bumped

        amp, phase = decompose(fft2(x))
        ifft2_reference(compose_reference(lopsided(amp), phase))
        with pytest.raises(SymmetryViolationError, match="amplitude map residue"):
            amp_map(x, lopsided)

    def test_residue_guard_takes_the_whole_map(self):
        # channel 1 is 1e-6 the size of channel 0. A bump of 3.6e-11 in its column v = 0
        # leaves a residue of 1e-12: far below 1e-8 of the whole output, above 1e-8 of its own
        data = np.random.default_rng(31).uniform(-1.0, 1.0, size=(2, 6, 6))
        data[1] *= 1e-6
        x = FeatureMap(data)

        def lopsided(channel, bump, nan_in=None):
            def fn(a, channels):
                bumped = a.copy()
                index = np.arange(channels.start, channels.stop)
                bumped[index == channel, 1, 0] += bump
                bumped[index == nan_in] = np.nan
                return bumped
            return fn

        # a NaN in a later block makes the scale NaN: no residue exceeds it, and the
        # finiteness error wins over the asymmetry of channel 0
        for channel, bump, nan_in, error in ((1, 3.6e-11, None, None),
                                             (0, 1e-5, None, SymmetryViolationError),
                                             (0, 1e-5, 1, ValueError)):
            fn = lopsided(channel, bump, nan_in)
            want = outcome(amp_map_reference, x, lambda a: fn(a, slice(0, 2)))
            assert (want[0] if isinstance(want, tuple) else None) is error
            for per_block in (1, 2):
                for n in (1, 2, 3):
                    with channel_blocks(per_block, x.shape), workers(n):
                        assert outcome(amp_map, x, fn, True) == want, (channel, per_block, n)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_on_a_helper_keeps_the_callers_errstate(self, bad):
        # numpy's errstate is a context variable. A helper that did not run in a copy
        # of the caller's context would warn where the inf meets a zero (0 * inf in the
        # rescale), and the warning filter would raise that instead
        x = rand_map(np.random.default_rng(32), 4, 6, 6)

        def bad_in_channel_3(a, channels):
            return a + np.where(np.arange(channels.start, channels.stop) == 3, bad, 0.0)[:, None, None]

        with channel_blocks(1, x.shape), workers(2), np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ValueError, match="FeatureMap values must be finite"):
                amp_map(x, bad_in_channel_3, per_channel=True)

    def test_first_failing_block_raises_its_own_error(self):
        x = rand_map(np.random.default_rng(33), 4, 6, 6)
        for failing in ((1, 3), (3,), (0, 1, 2, 3)):
            raised = {}

            def fn(a, channels):
                if channels.start in failing:
                    raised[channels.start] = ValueError(f"block {channels.start}")
                    raise raised[channels.start]
                return a

            # 2 workers run blocks 0-1 and 2-3, 3 workers 0, 1 and 2-3
            for n in (1, 2, 3):
                raised.clear()
                with channel_blocks(1, x.shape), workers(n):
                    with pytest.raises(ValueError) as caught:
                        amp_map(x, fn, per_channel=True)
                assert caught.value is raised[failing[0]], (failing, n)

    @pytest.mark.parametrize("failing", [0, 3])
    def test_failing_map_frees_its_blocks_without_the_cyclic_collector(self, failing):
        # the re-raised error's traceback holds _amp_blocks' frame; if that frame still
        # held the error, the cycle would keep the failing block's arrays alive until
        # gc ran. 2 workers: channel 0 fails on the calling thread, which then skips
        # channel 1; channel 3 fails on the helper, after all the others ran
        x = rand_map(np.random.default_rng(41), 4, 6, 6)
        seen = []

        def fn(a, channels):
            seen.append(weakref.ref(a))
            if channels.start == failing:
                raise ValueError(f"block {failing}")
            return a

        enabled = gc.isenabled()
        gc.disable()
        try:
            with channel_blocks(1, x.shape), workers(2):
                try:
                    amp_map(x, fn, per_channel=True)
                except ValueError as exc:
                    assert str(exc) == f"block {failing}"
                else:
                    pytest.fail("amp_map did not raise")
            alive = [ref() is not None for ref in seen]
        finally:
            if enabled:
                gc.enable()
        assert len(alive) == (3 if failing == 0 else 4) and not any(alive), alive

    def test_raises_only_after_every_share_has_finished(self):
        # channel 0, in the caller's share, fails at once while the helper's share
        # (channels 2 and 3) still runs; amp_map must collect that share before raising
        x = rand_map(np.random.default_rng(40), 4, 6, 6)
        finished = []

        def fn(a, channels):
            if channels.start == 0:
                raise ValueError("block 0")
            if channels.start >= 2:
                time.sleep(0.1)
                finished.append(channels.start)
            return a

        with channel_blocks(1, x.shape), workers(2):
            with pytest.raises(ValueError, match="block 0"):
                amp_map(x, fn, per_channel=True)
        assert sorted(finished) == [2, 3]

    def test_one_block_maps_start_no_thread(self, monkeypatch):
        handed = []
        helpers = spectral._helpers

        def counted(k):
            if k:
                handed.append(k)
            return helpers(k)

        monkeypatch.setattr(spectral, "_helpers", counted)
        rng = np.random.default_rng(34)
        big = rand_map(rng, 256, 14, 14)
        for n in (1, 2):
            with workers(n):
                for shape in ((16, 32, 32), (3, 9, 9)):
                    x = rand_map(rng, *shape)
                    style_transform(x, rng.uniform(-1.0, 1.0, shape[0]), rng.uniform(0.1, 2.0, shape[0]))
                spectral_normalize(big, "tensor")
        with workers(1):
            spectral_normalize(big, "channel")
            # one worker runs a map of four blocks on the calling thread too
            x = rand_map(rng, 64, 56, 56)
            style_transform(x, rng.uniform(-1.0, 1.0, 64), rng.uniform(0.1, 2.0, 64))
        assert handed == []
        # a map above half a block is split, one block per worker
        with workers(2):
            spectral_normalize(big, "channel")
        assert handed == [1]

    def test_split_is_capped_by_block_size(self):
        # above half a block a map is cut into one block per worker, but into no more
        # than ceil(bytes / _SPLIT_BYTES) blocks: 64x56x56 (1.6 MB) into at most 7 and
        # 256x14x14 (448 KB) into 2, however many CPUs there are
        rng = np.random.default_rng(39)
        want = {(16, 32, 32): {2: [16], 3: [16], 64: [16]},
                (256, 14, 14): {2: [128, 128], 3: [128, 128], 64: [128, 128]},
                (64, 56, 56): {2: [16] * 4, 3: [11] * 5 + [9], 64: [10] * 6 + [4]}}
        for shape, by_workers in want.items():
            x = rand_map(rng, *shape)
            for n, sizes in by_workers.items():
                seen = []

                def fn(a, channels):
                    seen.append(channels)
                    return a

                with workers(n):
                    amp_map(x, fn, per_channel=True)
                seen.sort(key=lambda channels: channels.start)
                assert [ch.stop - ch.start for ch in seen] == sizes, (shape, n)
                assert len(seen) <= -(-np.prod(shape[:2]) * (shape[2] // 2 + 1) * 16 // spectral._SPLIT_BYTES)

    def test_helpers_are_started_once_per_process(self):
        # in a fresh process, 5 multi-block calls at 2 workers then 5 at 3 start
        # one helper and then one more: w - 1 threads in all. A 384x14x14 map (672 KB)
        # holds three 256 KB parts, so 3 workers cut it in three
        script = """
import threading
import numpy as np
from unittest import mock
from freqadapt import FeatureMap, spectral, spectral_normalize
x = FeatureMap(np.random.default_rng(0).uniform(-1.0, 1.0, (384, 14, 14)))
for n in (2, 3):
    with mock.patch.object(spectral, "_workers", lambda: n):
        for _ in range(5):
            spectral_normalize(x)
    print(sorted(t.name for t in threading.enumerate() if t is not threading.main_thread()))
"""
        proc = run_python(script)
        assert proc.stdout.split("\n")[:2] == ["['freqadapt-amp-1']", "['freqadapt-amp-1', 'freqadapt-amp-2']"]

    def test_signed_zero_bins_keep_decompose_phase(self):
        # all four signed zeros: decompose gives +-0 + 0j phase 0 and -0 +- 0j phase pi
        z = np.zeros((1, 2, 3), dtype=np.complex128)
        z.real[0, 0] = (0.0, 0.0, -0.0)
        z.imag[0, 0] = (0.0, -0.0, 0.0)
        z[0, 1] = (complex(-0.0, -0.0), 3.0 - 4.0j, -2.0 + 0.5j)
        for fn in (lambda a: a - 2.0, lambda a: 3.0 * a + 0.25, lambda a: a):
            amp, phase = decompose(z)
            want = compose_reference(fn(amp), phase)
            got = _rescale(z.copy(), fn)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_subnormal_bins_stay_finite(self):
        # DC bin 2e-320: fn(amp) / |z| overflows, z / |z| first does not
        x = FeatureMap(np.full((1, 1, 2), 1e-320))
        fn = lambda a: a + 1.0
        want = amp_map_oracle(x, fn)
        assert np.abs(amp_map(x, fn).data - want.data).max() <= 1e-15

    def test_rounding_level_bins_keep_the_output_real(self):
        # bins (3, 0) and (3, 1) of this map cancel only up to rounding, so their phases
        # are noise; an fn with fn(0) != 0 used to turn that noise into an imaginary residue
        data = np.array([0, 1, -0.5, 1, -0.5, -0.0, 0.5, -0.0, 0, -1, 0.5, 0.0])
        x = FeatureMap(data.reshape(1, 6, 2))
        for fn in (lambda a: a + 0.5, lambda a: _standardize(a, "channel", mirror_weights(2))):
            want = amp_map_oracle(x, fn)
            assert np.abs(amp_map(x, fn).data - want.data).max() <= 1e-12 * np.abs(want.data).max()


def full_spectrum(half, width):
    """The (C, H, W) spectrum a half spectrum stands for: bin (u, v > W/2) is conj(bin (-u, W - v))."""
    c, h, n = half.shape
    full = np.empty((c, h, width), dtype=np.complex128)
    full[:, :, :n] = half
    for v in range(n, width):
        full[:, :, v] = np.conj(half[:, -np.arange(h) % h, width - v])
    return full


def amp_map_oracle(x, fn):
    """The full-grid decompose/compose path on the spectrum amp_map's half spectrum stands for."""
    amp, phase = decompose(full_spectrum(_rfft2(x.data), x.width))
    return ifft2_reference(compose_reference(fn(amp), phase))[0]


def affine_fn(rng, channels):
    mu = rng.uniform(-1.0, 1.0, size=(channels, 1, 1))
    sigma = rng.uniform(0.1, 2.0, size=(channels, 1, 1))
    return lambda a: sigma * a + mu


class TestAmpMapProperty:
    @settings(max_examples=150, deadline=None)
    @given(shape=planes, seed=map_seeds, snap=st.booleans(),
           scope=st.sampled_from(NORM_SCOPES))
    def test_matches_decompose_compose_oracle(self, shape, seed, snap, scope):
        rng = np.random.default_rng(seed)
        data = rng.uniform(-1.0, 1.0, size=shape)
        if snap:  # coarse values cancel exactly and leave exact-zero bins
            data = np.round(2.0 * data) / 2.0
        x = FeatureMap(data)
        affine = affine_fn(rng, shape[0])
        weight = mirror_weights(shape[2])
        fns = (
            (affine, affine),
            (lambda a: _standardize(a, scope), lambda a: _standardize(a, scope, weight)),
        )
        for full_fn, half_fn in fns:
            try:
                want = amp_map_oracle(x, full_fn)
            except DegenerateSpectrumError:
                with pytest.raises(DegenerateSpectrumError):
                    amp_map(x, half_fn)
                continue
            got = amp_map(x, half_fn)
            assert np.abs(got.data - want.data).max() <= 1e-12 * np.abs(want.data).max()

    @settings(max_examples=100, deadline=None)
    @given(shape=planes, seed=map_seeds)
    def test_identity_returns_input(self, shape, seed):
        x = FeatureMap(np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape))
        out = amp_map(x, lambda a: a)
        assert np.abs(out.data - x.data).max() <= 1e-12 * np.abs(x.data).max()


def run_counted(calls, x, per_channel=True, on_thread=lambda thread: None):
    """The (shape, channels) each ``fn`` call of amp_map(x, ...) sees, with ``calls`` reset first.

    ``on_thread`` gets the thread of each call.
    """
    seen = []

    def fn(a, channels=None):
        seen.append((a.shape, channels))
        on_thread(threading.current_thread())
        return 2.0 * a

    for name in calls:
        calls[name] = 0
    amp_map(x, fn, per_channel)
    return seen


def fft_pairs(n):
    """The np.fft call counts of ``n`` real forward/inverse pairs, two 1-D passes each way."""
    return {"rfft": n, "fft": n, "ifft": n, "irfft": n, "rfft2": 0, "irfft2": 0,
            "fft2": 0, "ifft2": 0, "fftn": 0, "ifftn": 0}


class TestHalfSpectrum:
    def test_amp_map_runs_one_real_fft_pair(self, monkeypatch):
        calls = count_fft_calls(monkeypatch)
        rng = np.random.default_rng(28)
        for c, h, w in ((2, 6, 6), (3, 5, 7), (1, 4, 1), (2, 1, 2), (1, 1, 1), (16, 32, 32),
                        (256, 14, 14)):
            x = rand_map(rng, c, h, w)
            # a map that fits in one block: one real forward/inverse pair and no full grid.
            # On one worker, a map above half a block (256x14x14, 458 KB) is not split
            with workers(1):
                assert run_counted(calls, x) == [((c, h, w // 2 + 1), slice(0, c))]
            assert calls == fft_pairs(1)
            assert run_counted(calls, x, per_channel=False) == [((c, h, w // 2 + 1), None)]
            assert calls == fft_pairs(1)
        # on two workers it is cut into one block per worker
        with workers(2):
            seen = run_counted(calls, x)
        assert sorted(seen, key=lambda call: call[1].start) == [
            ((128, 14, 8), slice(0, 128)), ((128, 14, 8), slice(128, 256))]
        assert calls == fft_pairs(2)

    def test_amp_map_runs_one_fft_pair_per_block(self, monkeypatch):
        calls = count_fft_calls(monkeypatch)
        x = rand_map(np.random.default_rng(29), 7, 6, 7)
        # n = ceil(7 / per_block) blocks, rounded up to a multiple of min(workers, n),
        # of ceil(7 / n) channels each; the last block takes what is left.
        # Block sizes at 1, 2 and 3 workers:
        sizes = {1: ([1] * 7,) * 3, 2: ([2, 2, 2, 1],) * 3, 3: ([3, 3, 1], [2, 2, 2, 1], [3, 3, 1]),
                 4: ([4, 3],) * 3, 7: ([7],) * 3, 9: ([7],) * 3}
        for per_block, by_workers in sizes.items():
            for n, blocks in enumerate(by_workers, start=1):
                starts = np.cumsum([0] + blocks)
                with channel_blocks(per_block, x.shape), workers(n):
                    threads = set()
                    seen = run_counted(calls, x, on_thread=threads.add)
                    # blocks may run in any order, on as many threads as there are workers
                    assert sorted(seen, key=lambda call: call[1].start) == [
                        ((size, 6, 4), slice(start, start + size)) for start, size in zip(starts, blocks)]
                    assert len(threads) == min(n, len(blocks))
                    assert calls == fft_pairs(len(blocks))
                    # an fn that is not per-channel gets the whole map at any block size
                    assert run_counted(calls, x, per_channel=False) == [((7, 6, 4), None)]
                    assert calls == fft_pairs(1)

    @settings(max_examples=150, deadline=None)
    @given(shape=planes, seed=map_seeds, snap=st.booleans())
    def test_rfft2_is_the_exactly_symmetric_fft_half(self, shape, seed, snap):
        data = np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape)
        if snap:
            data = np.round(2.0 * data) / 2.0
        x = FeatureMap(data)
        half = _rfft2(x.data)
        full = fft2(x)
        assert half.shape == shape[:2] + (shape[2] // 2 + 1,)
        gap = np.abs(half - full[:, :, : shape[2] // 2 + 1]).max()
        assert gap <= 1e-12 * np.abs(full).max()
        assert conjugate_asymmetry(full_spectrum(half, shape[2])) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(shape=planes, seed=map_seeds, scope=st.sampled_from(NORM_SCOPES))
    def test_mirror_weighted_stats_match_full_grid(self, shape, seed, scope):
        x = FeatureMap(np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape))
        full = decompose(fft2(x))[0]
        half = _unit_phasors(_rfft2(x.data))
        assert half.shape == shape[:2] + (shape[2] // 2 + 1,)
        weight = mirror_weights(shape[2])
        axes = (1, 2) if scope == "channel" else (0, 1, 2)
        mu = _group_mean(half, scope, weight)
        sd = np.sqrt(_group_mean((half - mu) ** 2, scope, weight))
        want_mu = full.mean(axis=axes, keepdims=True)
        want_sd = full.std(axis=axes, keepdims=True)
        assert np.all(np.abs(mu - want_mu) <= 1e-12 * np.abs(want_mu))
        assert np.all(np.abs(sd - want_sd) <= 1e-12 * np.abs(want_sd))


def amplitude_maps(rng, x):
    """(name, fn, dfn, op) for each amplitude map the adapters run: the style affine and both scopes.

    ``fn`` is the whole-map amplitude map and ``dfn`` its derivative; ``op`` is the public
    transform that runs ``fn`` on a map: per channel for the style affine, whole for both scopes.
    """
    mu = rng.uniform(-1.0, 1.0, size=x.channels)
    sigma = rng.uniform(0.1, 2.0, size=x.channels)
    weight = mirror_weights(x.width)
    yield ("style", lambda a: _amp_affine(a, mu, sigma), lambda a, da: sigma[:, None, None] * da,
           lambda m: style_transform(m, mu, sigma))
    for scope in NORM_SCOPES:
        yield (scope, lambda a, s=scope: _standardize(a, s, weight),
               lambda a, da, s=scope: _normalize_jvp(a, da, s, weight),
               lambda m, s=scope: spectral_normalize(m, s))


def pinned_map(shape, seed, snap):
    """A uniform map; ``snap`` rounds it to halves, which gives exact-zero and tied bins."""
    data = np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape)
    return FeatureMap(np.round(2.0 * data) / 2.0 if snap else data)


class TestBitwiseAgainstRfft2Core:
    """The two-pass core gives the bits of the rfft2/irfft2 core it replaced, errors included.

    So do the public transforms when amp_map runs them in blocks of 1, 2 or 3 channels on
    1, 2 or 3 threads.
    """

    def check(self, shape, seed, snap):
        x = pinned_map(shape, seed, snap)
        rng = np.random.default_rng(seed)
        direction = FeatureMap(rng.uniform(-1.0, 1.0, size=shape))
        assert _rfft2(x.data).tobytes() == rfft2_reference(x).tobytes()
        for name, fn, dfn, op in amplitude_maps(rng, x):
            want = outcome(amp_map_reference, x, fn)
            assert outcome(amp_map, x, fn) == want, name
            for per_block in (1, 2, 3):
                for n in (1, 2, 3):
                    with channel_blocks(per_block, shape), workers(n):
                        assert outcome(op, x) == want, (name, per_block, n)
            assert (outcome(amp_map_jvp, x, direction, fn, dfn)
                    == outcome(amp_map_jvp_reference, x, direction, fn, dfn)), name

    @settings(max_examples=150, deadline=None)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9)),
           seed=map_seeds, snap=st.booleans())
    def test_small_planes(self, shape, seed, snap):
        self.check(shape, seed, snap)

    @pytest.mark.parametrize("shape", [(64, 56, 56), (256, 14, 14)])
    def test_backbone_shapes(self, shape):
        self.check(shape, 5, False)


def standardize_whole(x):
    """Channel-scope standardization as one block: the reference a split map must match."""
    weight = mirror_weights(x.width)
    return outcome(amp_map_reference, x, lambda a: _standardize(a, "channel", weight))


def split_outcomes(x, block_sizes=(None, 1, 2, 3)):
    """(per_block, workers, outcome) of channel-scope spectral_normalize(x) under each block size and 1-3 workers.

    ``per_block`` None keeps the shipped block size.
    """
    for per_block in block_sizes:
        for n in (1, 2, 3):
            blocks = nullcontext() if per_block is None else channel_blocks(per_block, x.shape)
            with blocks, workers(n):
                yield per_block, n, outcome(spectral_normalize, x, "channel")


class TestSplitNormalization:
    """Channel-scope spectral_normalize in channel blocks on 1-3 threads gives the one-block bits."""

    @pytest.mark.parametrize("seed", [0, 123456789])
    def test_cross_modal_slot(self, seed):
        x = pinned_map((256, 14, 14), seed, False)
        want = standardize_whole(x)
        for per_block, n, got in split_outcomes(x, (None, 64)):
            assert got == want, (per_block, n)

    def test_degenerate_channel_in_a_later_block(self):
        data = np.random.default_rng(30).uniform(-1.0, 1.0, size=(5, 6, 6))
        data[3] = 0.0  # every amplitude at the epsilon floor: std 0
        x = FeatureMap(data)
        want = standardize_whole(x)
        assert want[0] is DegenerateSpectrumError and "in group 3 " in want[1]
        for per_block, n, got in split_outcomes(x, (1, 2, 3, 5)):
            assert got == want, (per_block, n)

    def test_nan_block_before_a_degenerate_block(self):
        # channel 0 overflows the forward transform, so its amplitude is inf and its
        # standardized amplitude NaN, which no sigma check catches; channel 2 is zero,
        # so its amplitude is flat. The whole map raises for channel 2, and so must
        # the block that holds it
        data = np.random.default_rng(35).uniform(-1.0, 1.0, size=(4, 6, 6))
        data[0] *= 1e308
        data[2] = 0.0
        x = FeatureMap(data)
        with np.errstate(over="ignore", invalid="ignore"):
            want = standardize_whole(x)
            assert want[0] is DegenerateSpectrumError and "in group 2 " in want[1]
            for per_block, n, got in split_outcomes(x, (1, 2)):
                assert got == want, (per_block, n)
            # without the flat channel the NaN reaches the output
            data[2] = np.random.default_rng(36).uniform(-1.0, 1.0, size=(6, 6))
            x = FeatureMap(data)
            want = standardize_whole(x)
            assert want == (ValueError, "FeatureMap values must be finite")
            for per_block, n, got in split_outcomes(x, (1, 2)):
                assert got == want, (per_block, n)

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 9)).flatmap(
               lambda cn: st.sampled_from([(cn[0], 1, cn[1]), (cn[0], cn[1], 1)])),
           seed=map_seeds, snap=st.booleans())
    def test_line_planes(self, shape, seed, snap):
        x = pinned_map(shape, seed, snap)
        want = standardize_whole(x)
        for per_block, n, got in split_outcomes(x):
            assert got == want, (per_block, n)


class TestHelperThreads:
    """The helper threads of multi-block maps: lifetime, fork, reentry, concurrent callers."""

    def test_process_exits_with_helpers_running(self):
        # a helper that kept the interpreter alive would time this out
        start = time.perf_counter()
        run_python("""
import numpy as np
from freqadapt import FeatureMap, spectral_normalize
spectral_normalize(FeatureMap(np.random.default_rng(0).uniform(-1.0, 1.0, (256, 14, 14))))
""", timeout=60)
        assert time.perf_counter() - start < 30.0

    def test_forked_child_starts_its_own_helpers(self):
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork on this platform")
        run_python("""
import os, sys, warnings
import numpy as np
from unittest import mock
from freqadapt import FeatureMap, spectral, spectral_normalize, style_transform
warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
x = FeatureMap(np.random.default_rng(0).uniform(-1.0, 1.0, (256, 14, 14)))
y = FeatureMap(np.random.default_rng(1).uniform(-1.0, 1.0, (64, 56, 56)))
mu, sigma = np.linspace(-1.0, 1.0, 64), np.linspace(0.1, 2.0, 64)
with mock.patch.object(spectral, "_workers", lambda: 2):
    want = spectral_normalize(x).data.tobytes(), style_transform(y, mu, sigma).data.tobytes()
    pid = os.fork()
    if pid == 0:
        got = spectral_normalize(x).data.tobytes(), style_transform(y, mu, sigma).data.tobytes()
        os._exit(0 if got == want else 3)
    _, status = os.waitpid(pid, 0)
sys.exit(os.waitstatus_to_exitcode(status))
""", timeout=60)

    def test_amp_map_called_on_a_helper_runs_inline(self):
        # the fn of the helper's block calls a multi-block amp_map, whose blocks would
        # otherwise queue behind the task the helper is running
        run_python("""
import threading
import numpy as np
from unittest import mock
from freqadapt import FeatureMap, spectral, spectral_normalize
x = FeatureMap(np.random.default_rng(0).uniform(-1.0, 1.0, (256, 14, 14)))
want = spectral_normalize(x).data.tobytes()
inner = []

def fn(a, channels):
    if threading.current_thread() is not threading.main_thread():
        inner.append(spectral_normalize(x).data.tobytes())
    return a

with mock.patch.object(spectral, "_workers", lambda: 2):
    spectral.amp_map(x, fn, per_channel=True)
assert inner == [want], len(inner)
""", timeout=60)

    def test_concurrent_callers_get_single_thread_bits(self):
        rng = np.random.default_rng(37)
        style_in = rand_map(rng, 64, 56, 56)
        mu, sigma = rng.uniform(-1.0, 1.0, 64), rng.uniform(0.1, 2.0, 64)
        norm_in = rand_map(rng, 256, 14, 14)
        calls = {"style": lambda: style_transform(style_in, mu, sigma),
                 "normalize": lambda: spectral_normalize(norm_in)}
        with workers(1):
            want = {name: call().data.tobytes() for name, call in calls.items()}
        got = {name: [] for name in calls}

        def repeat(name):
            for _ in range(6):
                got[name].append(calls[name]().data.tobytes())

        with workers(2):
            threads = [threading.Thread(target=repeat, args=(name,), daemon=True) for name in calls]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {name: [bits] * 6 for name, bits in want.items()}

    def test_keyboard_interrupt_on_a_helper_leaves_it_serving(self):
        x = rand_map(np.random.default_rng(38), 4, 6, 6)

        def fn(a, channels):  # 2 workers: the helper runs blocks 2 and 3
            if channels.start == 3:
                raise KeyboardInterrupt
            return a

        with channel_blocks(1, x.shape), workers(2):
            with pytest.raises(KeyboardInterrupt):
                amp_map(x, fn, per_channel=True)
            want = outcome(amp_map, x, lambda a, channels: 2.0 * a, True)
            got = []
            # a helper whose loop had died would leave this waiting for ever
            thread = threading.Thread(daemon=True, target=lambda: got.append(
                outcome(amp_map, x, lambda a, channels: 2.0 * a, True)))
            thread.start()
            thread.join(timeout=60)
        assert got == [want]
        assert want == outcome(amp_map_reference, x, lambda a: 2.0 * a)


class TestHeatmap:
    def test_zero_map(self):
        hm = heatmap(FeatureMap(np.zeros((2, 4, 4))))
        # the amplitude carries no epsilon: a zero map gives an exact-zero field
        assert not hm.data.any()

    def test_constant_map_single_center_peak(self):
        h, w = 5, 4
        hm = heatmap(FeatureMap(np.full((1, h, w), 2.0)))
        center = (h // 2, w // 2)
        assert hm.data[center] > 1.0
        rest = hm.data.copy()
        rest[center] = 0.0
        assert np.abs(rest).max() < 1e-11

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(23)
        x = rand_map(rng, 3, 6, 7)
        want = np.fft.fftshift(np.log1p(np.abs(fft2(x))).mean(axis=0))
        hm = heatmap(x)
        assert np.array_equal(hm.data, want)
        assert np.all(hm.data >= 0)
