import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    amp_map_jvp_reference,
    amp_map_reference,
    band_split_reference,
    count_fft_calls,
    outcome,
    rfft2_reference,
)
from freqadapt import (
    DegenerateSpectrumError,
    FeatureMap,
    SymmetryViolationError,
    amp_map,
    compose,
    decompose,
    dft2_oracle,
    fft2,
    heatmap,
    ifft2,
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
        back, residue = ifft2(fft2(x))
        assert np.abs(back.data - x.data).max() < 1e-10
        assert residue <= 1e-10

    def test_dc_only_spectrum(self):
        h, w = 4, 6
        z = np.zeros((1, h, w), dtype=complex)
        z[0, 0, 0] = h * w
        out, residue = ifft2(z)
        assert np.abs(out.data - 1.0).max() < 1e-12
        assert residue < 1e-12

    def test_matches_reference_inverse(self):
        rng = np.random.default_rng(15)
        x = rand_map(rng, 2, 5, 7)
        z = fft2(x)  # conjugate-symmetric by construction
        out, _ = ifft2(z)
        want = idft2_reference(z).real
        assert np.abs(out.data - want).max() < 1e-10

    def test_flags_asymmetric_spectrum(self):
        rng = np.random.default_rng(16)
        z = rng.normal(size=(1, 4, 4)) + 1j * rng.normal(size=(1, 4, 4))
        with pytest.raises(SymmetryViolationError):
            ifft2(z)

    def test_linearity(self):
        rng = np.random.default_rng(26)
        za = fft2(rand_map(rng, 2, 5, 6))
        zb = fft2(rand_map(rng, 2, 5, 6))
        a, b = -1.2, 0.8
        combo, _ = ifft2(a * za + b * zb)
        xa, _ = ifft2(za)
        xb, _ = ifft2(zb)
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
        back = compose(amp, phase)
        mask = amp > 1e-9
        assert np.abs((back - z)[mask]).max() < 1e-9

    def test_unit_amplitude_zero_phase(self):
        s = compose(np.ones((1, 1, 1)), np.zeros((1, 1, 1)))
        assert s[0, 0, 0] == pytest.approx(1.0 + 0.0j)

    def test_negative_amplitude_is_pi_flip(self):
        a = compose(np.full((1, 1, 1), -2.0), np.zeros((1, 1, 1)))
        b = compose(np.full((1, 1, 1), 2.0), np.full((1, 1, 1), np.pi))
        assert a[0, 0, 0].real == pytest.approx(-2.0, abs=1e-15)
        assert np.abs(a - b).max() < 1e-15

    def test_compose_decompose_mod_flip(self):
        rng = np.random.default_rng(20)
        amp = rng.uniform(-2, 2, size=(1, 4, 4))
        phase = rng.uniform(-3, 3, size=(1, 4, 4))
        amp2, phase2 = decompose(compose(amp, phase))
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
    return np.abs(_rfft2(x)) ** 2


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
        half = _rfft2(x)
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
        # symmetry; the bump is small enough to pass ifft2's 1e-6 guard and must trip
        # the 1e-8 one
        def lopsided(a):
            bumped = a.copy()
            bumped[:, 1, 0] += 1e-5
            return bumped

        amp, phase = decompose(fft2(x))
        ifft2(compose(lopsided(amp), phase))
        with pytest.raises(SymmetryViolationError, match="amplitude map residue"):
            amp_map(x, lopsided)

    def test_signed_zero_bins_keep_decompose_phase(self):
        # all four signed zeros: decompose gives +-0 + 0j phase 0 and -0 +- 0j phase pi
        z = np.zeros((1, 2, 3), dtype=np.complex128)
        z.real[0, 0] = (0.0, 0.0, -0.0)
        z.imag[0, 0] = (0.0, -0.0, 0.0)
        z[0, 1] = (complex(-0.0, -0.0), 3.0 - 4.0j, -2.0 + 0.5j)
        for fn in (lambda a: a - 2.0, lambda a: 3.0 * a + 0.25, lambda a: a):
            amp, phase = decompose(z)
            want = compose(fn(amp), phase)
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
    amp, phase = decompose(full_spectrum(_rfft2(x), x.width))
    return ifft2(compose(fn(amp), phase))[0]


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


class TestHalfSpectrum:
    def test_amp_map_runs_one_real_fft_pair(self, monkeypatch):
        calls = count_fft_calls(monkeypatch)
        rng = np.random.default_rng(28)
        for c, h, w in ((2, 6, 6), (3, 5, 7), (1, 4, 1), (2, 1, 2), (1, 1, 1)):
            seen = []

            def fn(a):
                seen.append(a.shape)
                return 2.0 * a

            for name in calls:
                calls[name] = 0
            amp_map(rand_map(rng, c, h, w), fn)
            assert seen == [(c, h, w // 2 + 1)]
            # one real forward/inverse pair, as two 1-D passes each way, and no full grid
            assert calls == {"rfft": 1, "fft": 1, "ifft": 1, "irfft": 1, "rfft2": 0, "irfft2": 0,
                             "fft2": 0, "ifft2": 0, "fftn": 0, "ifftn": 0}

    @settings(max_examples=150, deadline=None)
    @given(shape=planes, seed=map_seeds, snap=st.booleans())
    def test_rfft2_is_the_exactly_symmetric_fft_half(self, shape, seed, snap):
        data = np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape)
        if snap:
            data = np.round(2.0 * data) / 2.0
        x = FeatureMap(data)
        half = _rfft2(x)
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
        half = _unit_phasors(_rfft2(x))
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
    """(name, fn, dfn) for each amplitude map the adapters run: the style affine and both scopes."""
    mu = rng.uniform(-1.0, 1.0, size=x.channels)
    sigma = rng.uniform(0.1, 2.0, size=x.channels)
    weight = mirror_weights(x.width)
    yield ("style", lambda a: _amp_affine(a, mu, sigma), lambda a, da: sigma[:, None, None] * da)
    for scope in NORM_SCOPES:
        yield (scope, lambda a, s=scope: _standardize(a, s, weight),
               lambda a, da, s=scope: _normalize_jvp(a, da, s, weight))


def pinned_map(shape, seed, snap):
    """A uniform map; ``snap`` rounds it to halves, which gives exact-zero and tied bins."""
    data = np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape)
    return FeatureMap(np.round(2.0 * data) / 2.0 if snap else data)


class TestBitwiseAgainstRfft2Core:
    """The two-pass core gives the bits of the rfft2/irfft2 core it replaced, errors included."""

    def check(self, shape, seed, snap):
        x = pinned_map(shape, seed, snap)
        rng = np.random.default_rng(seed)
        direction = FeatureMap(rng.uniform(-1.0, 1.0, size=shape))
        assert _rfft2(x).tobytes() == rfft2_reference(x).tobytes()
        for name, fn, dfn in amplitude_maps(rng, x):
            assert outcome(amp_map, x, fn) == outcome(amp_map_reference, x, fn), name
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
