import gc
import threading
import warnings
import weakref
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    amp_map_jvp_reference,
    amp_map_reference,
    band_split_reference,
    channel_blocks,
    compose_reference,
    count_fft_calls,
    half_band_split_reference,
    ifft2_reference,
    outcome,
    rfft2_reference,
    run_python,
)
from freqadapt import (
    AttentionParams,
    DegenerateSpectrumError,
    FeatureMap,
    Matrix,
    NonFiniteResultError,
    SymmetryViolationError,
    amp_map,
    conv2d,
    cross_attention,
    decompose,
    dft2_oracle,
    fft2,
    heatmap,
    high_freq_shift,
    softmax_rows,
    spectral_normalize,
    spectral,
    style_diversify,
    style_transform,
)
from freqadapt.crossmodal import NORM_SCOPES, _group_mean, _standardize, flatten_tokens
from freqadapt.gradcheck import _normalize_jvp, amp_map_jvp, jvp_style_transform
from freqadapt.spectral import (
    _band_masks,
    _band_split,
    _rescale,
    _rfft2,
    _unit_phasors,
    mirror_weights,
)
from freqadapt.style import _amp_affine
from freqadapt.verify import conjugate_asymmetry


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

    def test_rejects_bad_cut(self, monkeypatch):
        # high_fraction checks the cut before it transforms anything
        x = FeatureMap(np.random.default_rng(23).uniform(-1.0, 1.0, size=(64, 56, 56)))
        calls = count_fft_calls(monkeypatch)
        for cut in (0.0, 1.0, 1.5, -0.25, float("nan")):
            with pytest.raises(ValueError, match="radial_cut must be in"):
                high_freq_shift(x, x, cut)
        assert sum(calls.values()) == 0

    @pytest.mark.parametrize("shape", [(2, 8, 8), (3, 7, 5), (2, 6, 9), (3, 9, 6), (1, 1, 6),
                                       (2, 7, 1), (1, 1, 1), (16, 32, 32)])
    @pytest.mark.parametrize("cut", [0.05, 0.25, 0.5, 0.7071, 0.99])
    def test_bitwise_equals_masks_built_per_call(self, shape, cut):
        c, h, w = shape
        power = np.random.default_rng(h * 10 + w).uniform(0.0, 1.0, size=(c, h, w // 2 + 1))
        want = half_band_split_reference(power, w, cut)
        # the first call builds the masks, the second reads the kept ones
        assert _band_split(power, w, cut) == want
        assert _band_split(power, w, cut) == want

    def test_kept_masks_are_read_only(self):
        _band_split(np.ones((2, 6, 4)), 6, 0.25)
        low, high, weights = _band_masks(6, 6, 0.25)
        assert low.shape == high.shape == (6, 4) and weights.shape == (4,)
        assert np.array_equal(high, ~low)
        for arr in (low, high, weights):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]


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
                                             (0, 1e-5, 1, NonFiniteResultError)):
            fn = lopsided(channel, bump, nan_in)
            want = outcome(amp_map_reference, x, lambda a: fn(a, slice(0, 2)))
            assert (want[0] if isinstance(want, tuple) else None) is error
            for per_block in (1, 2):
                with channel_blocks(per_block, x.shape):
                    assert outcome(amp_map, x, fn, True) == want, (channel, per_block)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_later_block_fails_the_finiteness_check(self, bad):
        # amp_map adopts its output on the strength of the blocks' max|out| alone: a
        # non-finite value in any block must still fail as the finiteness scan would
        x = rand_map(np.random.default_rng(34), 6, 8, 8)

        def bad_in_last_block(a, channels):
            return a * bad if channels.stop == 6 else a

        with channel_blocks(2, x.shape), np.errstate(invalid="ignore", over="ignore"):
            assert outcome(amp_map, x, bad_in_last_block, True) == \
                (NonFiniteResultError, "FeatureMap values must be finite")

    def test_first_failing_block_raises_its_own_error(self):
        x = rand_map(np.random.default_rng(33), 4, 6, 6)
        for failing in ((1, 3), (3,), (0, 1, 2, 3)):
            raised = {}

            def fn(a, channels):
                if channels.start in failing:
                    raised[channels.start] = ValueError(f"block {channels.start}")
                    raise raised[channels.start]
                return a

            # the blocks run in channel order, so no block after the first failing one runs
            with channel_blocks(1, x.shape):
                with pytest.raises(ValueError) as caught:
                    amp_map(x, fn, per_channel=True)
            assert caught.value is raised[failing[0]] and list(raised) == [failing[0]], failing

    @pytest.mark.parametrize("failing", [0, 3])
    def test_failing_map_frees_its_blocks_without_the_cyclic_collector(self, failing):
        # the error's traceback holds amp_map's frame; a cycle through that frame would
        # keep the failing block's arrays alive until gc ran. The blocks after the
        # failing one never run
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
            with channel_blocks(1, x.shape):
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
        assert len(alive) == failing + 1 and not any(alive), alive

    def test_shorter_last_block_keeps_the_bits(self):
        # 7 channels in blocks of 3: the last block's forward transform writes into
        # the first channel of the call's spectrum buffer, which still holds the
        # first two blocks' spectra
        rng = np.random.default_rng(40)
        x = rand_map(rng, 7, 6, 7)
        mu, sigma = rng.uniform(-1.0, 1.0, 7), rng.uniform(0.1, 2.0, 7)
        want = outcome(amp_map_reference, x, lambda a: _amp_affine(a, mu, sigma))
        seen = []

        def fn(a, channels):
            seen.append(channels)
            return _amp_affine(a, mu[channels], sigma[channels])

        with channel_blocks(3, x.shape):
            assert outcome(amp_map, x, fn, True) == want
        assert seen == [slice(0, 3), slice(3, 6), slice(6, 7)]
        for channels in seen:
            block = x.data[channels]
            buffer = np.full((3, 6, 4), np.nan, dtype=np.complex128)
            got = _rfft2(block, buffer[:channels.stop - channels.start])
            assert np.shares_memory(got, buffer) and got.tobytes() == _rfft2(block).tobytes()

    def test_one_block_maps_start_no_thread(self):
        # every block of every map runs on the calling thread: one-block maps and
        # maps of several blocks alike
        rng = np.random.default_rng(34)
        threads = set()
        before = threading.active_count()
        for shape, per_block in (((16, 32, 32), None), ((3, 9, 9), None), ((256, 14, 14), None),
                                 ((64, 56, 56), None), ((7, 6, 7), 2)):
            x = rand_map(rng, *shape)
            blocks = nullcontext() if per_block is None else channel_blocks(per_block, shape)
            with blocks:
                run_counted({}, x, on_thread=threads.add)
                run_counted({}, x, per_channel=False, on_thread=threads.add)
        assert threads == {threading.current_thread()}
        assert threading.active_count() == before

    def test_block_plan_at_backbone_shapes(self):
        # a map of n blocks' worth of half spectrum runs as blocks of ceil(C / n)
        # channels, in channel order: 64x56x56 (1.6 MB) as four blocks of 16 channels
        rng = np.random.default_rng(39)
        want = {(16, 32, 32): [16], (256, 14, 14): [256], (64, 56, 56): [16] * 4}
        for shape, sizes in want.items():
            seen = [channels for _, channels in run_counted({}, rand_map(rng, *shape))]
            assert [ch.stop - ch.start for ch in seen] == sizes, shape
            assert [ch.start for ch in seen] == list(np.cumsum([0] + sizes[:-1])), shape

    def test_backbone_maps_start_no_thread(self):
        # in a fresh process, the style pass at 64x56x56 (four blocks) and the
        # cross-modal stage at 256x14x14 leave the main thread alone
        proc = run_python("""
import threading
import numpy as np
from freqadapt import AttentionParams, FeatureMap, crossmodal_forward, gen_text_tokens, style_diversify
rng = np.random.default_rng(0)
style_diversify(FeatureMap(rng.uniform(-1.0, 1.0, (64, 56, 56))), np.ones(64), 3)
crossmodal_forward(FeatureMap(rng.uniform(-1.0, 1.0, (256, 14, 14))), gen_text_tokens(8, 64, 1),
                   AttentionParams.seeded(256, 64, 64, 2))
print([t.name for t in threading.enumerate()])
""")
        assert proc.stdout.split("\n")[0] == "['MainThread']"

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


# the public calls that run amp_map on a caller's map, and what each may raise
AMP_MAP_CALLS = {
    "style_transform": lambda x: style_transform(x, 0.0, 1.0),
    "style_diversify": lambda x: style_diversify(x, 1.0, 5),
    "spectral_normalize channel": lambda x: spectral_normalize(x, "channel"),
    "spectral_normalize tensor": lambda x: spectral_normalize(x, "tensor"),
}
TYPED_ERRORS = (NonFiniteResultError, SymmetryViolationError, DegenerateSpectrumError)


def outcomes_with_warnings_as_errors(x):
    """Each AMP_MAP_CALLS entry's result or typed error, run with every warning an error."""
    got = {}
    for name, call in AMP_MAP_CALLS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = call(x)
            except TYPED_ERRORS as exc:
                got[name] = type(exc)
                continue
        assert out.shape == x.shape and np.all(np.isfinite(out.data)), name
        got[name] = "result"
    return got


class TestWarningFilters:
    """A call's outcome does not depend on numpy's warning state or the warning filters."""

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
    @pytest.mark.parametrize("shape", [(3, 8, 8), (4, 9, 6), (2, 1, 7), (2, 7, 1), (1, 1, 1)])
    def test_huge_maps_raise_no_warning(self, shape, scale):
        x = FeatureMap(scale * np.random.default_rng(77).uniform(-1, 1, size=shape))
        outcomes_with_warnings_as_errors(x)

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(1, 4), h=st.integers(1, 9), w=st.integers(1, 9),
           exponent=st.floats(-300, 300), seed=st.integers(0, 2**32 - 1))
    @example(c=3, h=1, w=8, exponent=300.0, seed=1)
    @example(c=2, h=7, w=1, exponent=-300.0, seed=2)
    @example(c=1, h=1, w=1, exponent=155.0, seed=3)
    @example(c=4, h=9, w=6, exponent=200.0, seed=4)
    def test_result_or_typed_error_at_any_scale(self, c, h, w, exponent, seed):
        x = FeatureMap(10.0**exponent * np.random.default_rng(seed).uniform(-1, 1, size=(c, h, w)))
        outcomes_with_warnings_as_errors(x)

    def test_outcome_does_not_follow_the_errstate(self):
        # the same result or error under numpy's default state and under one that ignores all
        x = FeatureMap(1e155 * np.random.default_rng(78).uniform(-1, 1, size=(3, 8, 8)))
        default = outcomes_with_warnings_as_errors(x)
        with np.errstate(all="ignore"):
            assert outcomes_with_warnings_as_errors(x) == default

    # calls other than AMP_MAP_CALLS whose numpy operations overflow on these inputs; the
    # JVP runs amp_map's block core
    @pytest.mark.parametrize("call", [
        lambda: conv2d(FeatureMap(np.full((2, 5, 5), 1e307)), np.full((2, 2, 3, 3), 10.0)),
        lambda: heatmap(FeatureMap(np.full((2, 6, 6), 1.5e308))),
        lambda: cross_attention(Matrix(np.full((5, 4), 1e200)), Matrix(np.full((3, 4), 1e200)),
                                AttentionParams.seeded(4, 4, 3, 1)),
        lambda: jvp_style_transform(
            FeatureMap(1e155 * np.random.default_rng(77).uniform(-1, 1, size=(3, 8, 8))),
            FeatureMap(np.random.default_rng(78).uniform(-1, 1, size=(3, 8, 8))), 0.0, 1.0),
    ], ids=["conv2d", "heatmap", "cross_attention", "jvp_style_transform"])
    def test_an_overflow_ends_in_a_typed_error(self, call):
        for state in ("warn", "ignore"):
            with warnings.catch_warnings(), np.errstate(all=state):
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteResultError):
                    call()

    @settings(max_examples=100, deadline=None)
    @given(c=st.integers(1, 4), h=st.integers(1, 9), w=st.integers(1, 9),
           scale=st.integers(-300, 300).map(lambda e: 10.0**e) | st.just(0.0),
           seed=st.integers(0, 2**32 - 1))
    @example(c=3, h=1, w=8, scale=1e300, seed=1)
    @example(c=2, h=7, w=1, scale=1e-300, seed=2)
    @example(c=3, h=8, w=8, scale=1e155, seed=3)
    @example(c=4, h=9, w=6, scale=1e200, seed=4)
    def test_python_api_result_or_typed_error_at_any_scale(self, c, h, w, scale, seed):
        # test_cli_fuzz.py::test_payload_scales on the Python API: each call gives a finite
        # result or a typed error, with every warning an error
        rng = np.random.default_rng(seed)
        x = FeatureMap(scale * rng.uniform(-1, 1, size=(c, h, w)))
        kernel = rng.uniform(-1, 1, size=(c, c, 3, 3))
        text = Matrix(rng.uniform(-1, 1, size=(5, 4)))
        params = AttentionParams.seeded(c, 4, 8, seed)
        direction = FeatureMap(rng.uniform(-1, 1, size=(c, h, w)))
        for name, call in {
            "conv2d": lambda: conv2d(x, kernel),
            "cross_attention": lambda: cross_attention(flatten_tokens(x), text, params),
            "softmax_rows": lambda: softmax_rows(Matrix(x.data.reshape(c, -1))),
            "heatmap": lambda: heatmap(x),
            "jvp_style_transform": lambda: jvp_style_transform(x, direction, 0.5, 2.0),
        }.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    out = call()
                except TYPED_ERRORS:
                    continue
                except ValueError as exc:
                    # the JVP's own guard, a plain ValueError: below about 1e-160 a bin's
                    # re^2 + im^2 underflows to 0, and at scale 0 the bins are 0
                    assert name == "jvp_style_transform" and scale < 1e-150, (name, exc)
                    assert str(exc) == "phase derivative undefined at zero-magnitude bins"
                    continue
            assert np.all(np.isfinite(out.data)), name

    def test_softmax_of_a_row_whose_shift_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = softmax_rows(Matrix([[1e308, -1e308]]))
        assert out.data.tolist() == [[1.0, 0.0]]

    @pytest.mark.parametrize("scale", [1.5e308, 1.7e308, 1e-300])
    def test_high_freq_shift_reads_clean(self, scale):
        rng = np.random.default_rng(80)
        before, after = (FeatureMap(scale * rng.uniform(-1, 1, size=(3, 8, 8))) for _ in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shift = high_freq_shift(before, after, 0.25)
        assert np.isfinite(shift)


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
            # a map that fits in one block (256x14x14 is 458 KB): one real forward/inverse
            # pair and no full grid
            assert run_counted(calls, x) == [((c, h, w // 2 + 1), slice(0, c))]
            assert calls == fft_pairs(1)
            assert run_counted(calls, x, per_channel=False) == [((c, h, w // 2 + 1), None)]
            assert calls == fft_pairs(1)

    def test_amp_map_runs_one_fft_pair_per_block(self, monkeypatch):
        calls = count_fft_calls(monkeypatch)
        x = rand_map(np.random.default_rng(29), 7, 6, 7)
        # n = ceil(7 / per_block) blocks of ceil(7 / n) channels each, in channel order;
        # the last block takes what is left
        sizes = {1: [1] * 7, 2: [2, 2, 2, 1], 3: [3, 3, 1], 4: [4, 3], 7: [7], 9: [7]}
        for per_block, blocks in sizes.items():
            starts = np.cumsum([0] + blocks)
            with channel_blocks(per_block, x.shape):
                assert run_counted(calls, x) == [
                    ((size, 6, 4), slice(start, start + size)) for start, size in zip(starts, blocks)]
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

    So do the public transforms when amp_map runs them in blocks of 1, 2 or 3 channels.
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
                with channel_blocks(per_block, shape):
                    assert outcome(op, x) == want, (name, per_block)
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
    """(per_block, outcome) of channel-scope spectral_normalize(x) under each block size.

    ``per_block`` None keeps the shipped block size.
    """
    for per_block in block_sizes:
        with nullcontext() if per_block is None else channel_blocks(per_block, x.shape):
            yield per_block, outcome(spectral_normalize, x, "channel")


class TestSplitNormalization:
    """Channel-scope spectral_normalize in channel blocks gives the one-block bits."""

    @pytest.mark.parametrize("seed", [0, 123456789])
    def test_cross_modal_slot(self, seed):
        x = pinned_map((256, 14, 14), seed, False)
        want = standardize_whole(x)
        for per_block, got in split_outcomes(x, (None, 64)):
            assert got == want, per_block

    def test_degenerate_channel_in_a_later_block(self):
        data = np.random.default_rng(30).uniform(-1.0, 1.0, size=(5, 6, 6))
        data[3] = 0.0  # every amplitude at the epsilon floor: std 0
        x = FeatureMap(data)
        want = standardize_whole(x)
        assert want[0] is DegenerateSpectrumError and "in group 3 " in want[1]
        for per_block, got in split_outcomes(x, (1, 2, 3, 5)):
            assert got == want, per_block

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
            for per_block, got in split_outcomes(x, (1, 2)):
                assert got == want, per_block
            # without the flat channel the NaN reaches the output
            data[2] = np.random.default_rng(36).uniform(-1.0, 1.0, size=(6, 6))
            x = FeatureMap(data)
            want = standardize_whole(x)
            assert want == (NonFiniteResultError, "FeatureMap values must be finite")
            for per_block, got in split_outcomes(x, (1, 2)):
                assert got == want, per_block

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 9)).flatmap(
               lambda cn: st.sampled_from([(cn[0], 1, cn[1]), (cn[0], cn[1], 1)])),
           seed=map_seeds, snap=st.booleans())
    def test_line_planes(self, shape, seed, snap):
        x = pinned_map(shape, seed, snap)
        want = standardize_whole(x)
        for per_block, got in split_outcomes(x):
            assert got == want, per_block


class TestCallers:
    """What callers of amp_map may do: call it from several threads, or from an ``fn``."""

    def test_concurrent_callers_get_single_thread_bits(self):
        rng = np.random.default_rng(37)
        style_in = rand_map(rng, 64, 56, 56)
        mu, sigma = rng.uniform(-1.0, 1.0, 64), rng.uniform(0.1, 2.0, 64)
        norm_in = rand_map(rng, 256, 14, 14)
        calls = {"style": lambda: style_transform(style_in, mu, sigma),
                 "normalize": lambda: spectral_normalize(norm_in)}
        want = {name: call().data.tobytes() for name, call in calls.items()}
        got = {name: [] for name in calls}

        def repeat(name):
            for _ in range(6):
                got[name].append(calls[name]().data.tobytes())

        threads = [threading.Thread(target=repeat, args=(name,), daemon=True) for name in calls]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {name: [bits] * 6 for name, bits in want.items()}

    def test_thread_keeps_the_largest_spectrum_buffer(self):
        # a call at the kept size or below reuses it, a larger map replaces it, and every
        # result still has the reference bits
        rng = np.random.default_rng(39)
        small, large = rand_map(rng, 2, 6, 7), rand_map(rng, 3, 8, 9)
        kept = []

        def run(x):
            assert outcome(amp_map, x, lambda a: 2.0 * a) == outcome(
                amp_map_reference, x, lambda a: 2.0 * a)
            kept.append(spectral._spectra.buf)

        def in_thread():
            for x in (small, small, large, small, large):
                run(x)

        thread = threading.Thread(target=in_thread)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert [b.size for b in kept] == [2 * 6 * 4, 2 * 6 * 4] + [3 * 8 * 5] * 3
        assert kept[0] is kept[1] and kept[2] is kept[3] is kept[4] and kept[1] is not kept[2]

    def test_amp_map_called_from_fn_gets_its_own_buffer(self):
        # each block's fn runs a multi-block map of its own while the outer block's
        # spectrum is live: a spectrum buffer shared between calls would mix them
        x = rand_map(np.random.default_rng(38), 5, 6, 7)
        inner = []
        with channel_blocks(2, x.shape):
            want_inner = spectral_normalize(x).data.tobytes()
            want = outcome(amp_map, x, lambda a, channels: 2.0 * a, True)

            def fn(a, channels):
                inner.append(spectral_normalize(x).data.tobytes())
                return 2.0 * a

            assert outcome(amp_map, x, fn, True) == want
        assert inner == [want_inner] * 3
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
