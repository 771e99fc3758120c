import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    attention_oracle_mp,
    attention_seeded_reference,
    band_split_reference,
    channel_blocks,
    compose_reference,
    count_fft_calls,
    idft2_reference,
    ifft2_reference,
    phase_gap_mod_pi,
)
from freqadapt import (
    AttentionParams,
    DegenerateSpectrumError,
    FeatureMap,
    Matrix,
    ShapeMismatchError,
    cross_attention,
    crossmodal_forward,
    decompose,
    dft2_oracle,
    fft2,
    flatten_tokens,
    high_freq_shift,
    spectral_normalize,
    unflatten_tokens,
)
from freqadapt.crossmodal import NORM_SCOPES, _group_mean, _standardize, high_fraction
from freqadapt.spectral import _rfft2, _unit_phasors, mirror_weights
from freqadapt.rng import SplitMix64
from freqadapt.synth import gen_features, gen_text_tokens


class TestTokens:
    def test_roundtrip_small(self):
        x = FeatureMap(np.arange(8, dtype=float).reshape(2, 2, 2))
        t = flatten_tokens(x)
        assert t.rows == 4 and t.cols == 2
        back = unflatten_tokens(t, 2, 2)
        assert np.array_equal(back.data, x.data)

    def test_token_layout(self):
        x = FeatureMap(np.arange(12, dtype=float).reshape(1, 3, 4))
        t = flatten_tokens(x)
        # token i sits at (i // W, i % W)
        assert t.data[5, 0] == x.data[0, 1, 1]

    def test_single_cell(self):
        t = flatten_tokens(FeatureMap(np.array([[[3.0]]])))
        assert t.rows == 1 and t.cols == 1

    def test_roundtrip_random_bitwise(self):
        rng = np.random.default_rng(50)
        x = FeatureMap(rng.uniform(-1, 1, size=(5, 6, 7)))
        back = unflatten_tokens(flatten_tokens(x), 6, 7)
        assert np.array_equal(back.data, x.data)

    def test_unflatten_rejects_bad_count(self):
        t = Matrix(np.zeros((5, 2)))
        with pytest.raises(ShapeMismatchError):
            unflatten_tokens(t, 2, 2)


class TestCrossAttention:
    def test_single_text_token(self):
        rng = np.random.default_rng(51)
        xv = Matrix(rng.uniform(-1, 1, size=(6, 3)))
        xt = Matrix(rng.uniform(-1, 1, size=(1, 4)))
        p = AttentionParams.seeded(3, 4, 2, 7)
        out = cross_attention(xv, xt, p)
        want_row = (xt.data @ p.wv) @ p.wo
        for i in range(6):
            assert np.array_equal(out.data[i], want_row[0])

    def test_two_identical_text_tokens(self):
        rng = np.random.default_rng(52)
        xv = Matrix(rng.uniform(-1, 1, size=(4, 3)))
        row = rng.uniform(-1, 1, size=(1, 4))
        p = AttentionParams.seeded(3, 4, 2, 8)
        one = cross_attention(xv, Matrix(row), p)
        two = cross_attention(xv, Matrix(np.vstack([row, row])), p)
        assert np.abs(one.data - two.data).max() < 1e-15

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(53)
        for i in range(25):
            xv = rng.uniform(-1, 1, size=(4, 3))
            xt = rng.uniform(-1, 1, size=(3, 2))
            p = AttentionParams.seeded(3, 2, 2, 1000 + i)
            got = cross_attention(Matrix(xv), Matrix(xt), p).data
            want = attention_oracle_mp(xv, xt, p)
            assert np.abs(got - want).max() < 1e-12

    def test_many_text_tokens_keep_the_query_first_order(self):
        # 200 text tokens, d_k 8, dim 16: (xv wq) k^T and (attn v) wo are the cheaper chains
        n, c, t, d_k = 36, 16, 200, 8
        assert n * d_k * (c + t) < c * t * (d_k + n)
        rng = np.random.default_rng(55)
        xv = rng.uniform(-1, 1, size=(n, c))
        xt = gen_text_tokens(t, 3, 9)
        p = AttentionParams.seeded(c, 3, d_k, 10)
        got = cross_attention(Matrix(xv), xt, p).data
        scores = (xv @ p.wq) @ (xt.data @ p.wk).T / np.sqrt(d_k)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        want = ((e / e.sum(axis=1, keepdims=True)) @ (xt.data @ p.wv)) @ p.wo
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_attention_rows_sum_to_one(self):
        # inherited from softmax_rows; verified through the output of a
        # value matrix whose columns are all ones
        rng = np.random.default_rng(54)
        xv = Matrix(rng.uniform(-1, 1, size=(5, 3)))
        xt = Matrix(rng.uniform(-1, 1, size=(4, 2)))
        p = AttentionParams(
            wq=rng.normal(size=(3, 2)),
            wk=rng.normal(size=(2, 2)),
            wv=np.ones((2, 2)) * 0.0,
            wo=np.eye(2, 3),
            d_k=2,
        )
        out = cross_attention(xv, xt, p)
        assert np.abs(out.data).max() < 1e-15  # zero V rows stay zero under convex weights

    def test_dimension_mismatch_rejected(self):
        xv = Matrix(np.zeros((4, 3)))
        xt = Matrix(np.zeros((2, 5)))
        p = AttentionParams.seeded(3, 4, 2, 0)
        with pytest.raises(ShapeMismatchError):
            cross_attention(xv, xt, p)

    @pytest.mark.parametrize("wo_shape", [(2, 4), (3, 3), (2, 2)])
    def test_wrong_wo_shape_rejected_at_construction(self, wo_shape):
        # wo must be (d_k, visual_dim) = (2, 3)
        with pytest.raises(ShapeMismatchError):
            AttentionParams(wq=np.ones((3, 2)), wk=np.ones((4, 2)), wv=np.ones((4, 2)),
                            wo=np.ones(wo_shape), d_k=2)

    def test_zero_dim_params_rejected(self):
        # no valid map or token matrix has a zero dim to meet these weights
        for dims in [(0, 4, 2), (3, 0, 2), (3, 4, 0)]:
            with pytest.raises(ValueError):
                AttentionParams.seeded(*dims, 0)


class TestSeededParams:
    @pytest.mark.parametrize("dims", [(1, 1, 1), (3, 5, 2), (16, 16, 64), (256, 16, 64)])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_bitwise_equals_one_draw_per_projection(self, dims, seed):
        p, want = AttentionParams.seeded(*dims, seed), attention_seeded_reference(*dims, seed)
        assert p.d_k == want.d_k
        for name in ("wq", "wk", "wv", "wo"):
            a, b = getattr(p, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_arrays_are_read_only(self):
        # views of the one draw, which is read-only too, so no view can be made writeable
        p = AttentionParams.seeded(3, 5, 2, 11)
        for name in ("wq", "wk", "wv", "wo"):
            arr = getattr(p, name)
            assert arr.dtype == np.float64 and arr.flags.c_contiguous
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
            with pytest.raises(ValueError):
                arr.flags.writeable = True

    def test_one_normal_draw(self, monkeypatch):
        calls = []
        real = SplitMix64.normal_array

        def counted(self, n, scale=1.0):
            calls.append(n)
            return real(self, n, scale)

        monkeypatch.setattr(SplitMix64, "normal_array", counted)
        AttentionParams.seeded(16, 8, 64, 3)
        assert calls == [16 * 64 + 2 * 8 * 64 + 64 * 16]


def half_amplitude(x):
    """The half-spectrum amplitude that spectral_normalize standardizes."""
    return _unit_phasors(_rfft2(x.data))


def weighted_mean_std(a, weight, axes):
    """Mirror-weighted mean and population std, independent of _group_mean."""
    w = np.broadcast_to(weight, a.shape)
    mean = np.average(a, axis=axes, weights=w, keepdims=True)
    var = np.average((a - mean) ** 2, axis=axes, weights=w, keepdims=True)
    return mean, np.sqrt(var)


class TestAmpNormalize:
    """Amplitude standardization as spectral_normalize runs it."""

    @pytest.mark.parametrize("shape", [(3, 8, 5), (1, 1, 1), (4, 7, 4), (128, 14, 8)])
    def test_group_mean_divides_by_the_exact_group_size(self, shape):
        # the summed broadcast weights it once divided by are exact integers, so
        # the group size computed from the shape gives the same bits
        a = np.random.default_rng(66).uniform(0.0, 3.0, size=shape)
        widths = {max(2 * shape[2] - 2, 1), 2 * shape[2] - 1}  # the even and odd W of a half spectrum
        weights = [mirror_weights(width) for width in widths]
        for weight in (1.0, *weights, np.broadcast_to(weights[0], shape)):
            for scope, axes in (("channel", (1, 2)), ("tensor", (0, 1, 2))):
                w = np.broadcast_to(weight, a.shape)
                want = (w * a).sum(axis=axes, keepdims=True) / w.sum(axis=axes, keepdims=True)
                assert _group_mean(a, scope, weight).tobytes() == want.tobytes(), (np.shape(weight), scope)

    def test_hand_values(self):
        amp = np.array([2.0, 4.0, 6.0, 8.0]).reshape(1, 2, 2)
        out = _standardize(amp, "channel")
        # mu=5, sigma=sqrt(5); mpmath 50 digits for 3/sqrt5 and 1/sqrt5
        want = np.array([-1.3416407864998738178, -0.44721359549995793928,
                         0.44721359549995793928, 1.3416407864998738178]).reshape(1, 2, 2)
        assert np.abs(out - want).max() < 1e-12

    def test_idempotent_on_normalized(self):
        rng = np.random.default_rng(56)
        a = rng.normal(size=(1, 4, 4))
        a = (a - a.mean()) / a.std()
        assert np.abs(_standardize(a, "channel") - a).max() < 1e-12

    def test_matches_scalar_loop(self):
        # the mirror-weighted half spectrum standardizes like the full grid
        rng = np.random.default_rng(57)
        x = FeatureMap(rng.uniform(-1, 1, size=(3, 4, 5)))
        full = decompose(fft2(x))[0]
        out = _standardize(half_amplitude(x), "channel", mirror_weights(5))
        for c in range(3):
            vals = full[c].ravel()
            mu = vals.mean()
            sd = np.sqrt(((vals - mu) ** 2).mean())
            for u in range(4):
                for v in range(3):
                    assert abs(out[c, u, v] - (full[c, u, v] - mu) / sd) < 1e-12

    def test_contract_mean_zero_std_one(self):
        rng = np.random.default_rng(58)
        weight = mirror_weights(6)
        for _ in range(50):
            x = FeatureMap(rng.uniform(-1, 1, size=(2, 6, 6)))
            out = _standardize(half_amplitude(x), "channel", weight)
            mean, std = weighted_mean_std(out, weight, (1, 2))
            assert np.abs(mean).max() <= 1e-10
            assert np.abs(std - 1.0).max() <= 1e-10
            amp_before, phase_before = decompose(fft2(x))
            _, phase_after = decompose(fft2(spectral_normalize(x)))
            mask = amp_before > 1e-6
            assert phase_gap_mod_pi(phase_after[mask], phase_before[mask]).max() <= 1e-6

    def test_whole_tensor_scope(self):
        rng = np.random.default_rng(59)
        x = FeatureMap(rng.uniform(-1, 1, size=(3, 4, 4)))
        weight = mirror_weights(4)
        out = _standardize(half_amplitude(x), "tensor", weight)
        mean, std = weighted_mean_std(out, weight, (0, 1, 2))
        assert abs(mean.item()) <= 1e-10
        assert abs(std.item() - 1.0) <= 1e-10

    def test_degenerate_raises(self):
        zero = FeatureMap(np.zeros((1, 4, 4)))
        with pytest.raises(DegenerateSpectrumError):
            _standardize(half_amplitude(zero), "channel", mirror_weights(4))
        with pytest.raises(DegenerateSpectrumError):
            spectral_normalize(zero)

    @settings(max_examples=150, deadline=None)
    @given(shape=st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9)),
           seed=st.integers(0, 2**32 - 1), log_scale=st.integers(-30, 30),
           scope=st.sampled_from(NORM_SCOPES))
    def test_bitwise_equals_plain_mean_std(self, shape, seed, log_scale, scope):
        a = 10.0**log_scale * np.random.default_rng(seed).uniform(0.0, 1.0, size=shape)
        axes = (1, 2) if scope == "channel" else (0, 1, 2)
        sd = a.std(axis=axes, keepdims=True)
        if np.any(sd <= 1e-12):
            with pytest.raises(DegenerateSpectrumError):
                _standardize(a, scope)
            return
        want = (a - a.mean(axis=axes, keepdims=True)) / sd
        assert _standardize(a, scope).tobytes() == want.tobytes()


class TestCrossmodalForward:
    def test_zero_map_zero_text_raises(self):
        zero = FeatureMap(np.zeros((2, 4, 4)))
        zero_text = Matrix(np.zeros((3, 5)))
        p = AttentionParams.seeded(2, 5, 4, 1)
        with pytest.raises(DegenerateSpectrumError):
            crossmodal_forward(zero, zero_text, p)

    def test_constant_map_does_not_raise(self):
        x = FeatureMap(np.full((2, 4, 4), 1.5))
        text = gen_text_tokens(3, 5, 2)
        p = AttentionParams.seeded(2, 5, 4, 3)
        out = crossmodal_forward(x, text, p)
        assert out.shape == x.shape

    def test_equals_normalize_after_attention(self):
        # two-step recomputation: attention by hand, then the spectral stage
        rng = np.random.default_rng(60)
        x = FeatureMap(rng.uniform(-1, 1, size=(3, 6, 6)))
        text = gen_text_tokens(4, 5, 7)
        p = AttentionParams.seeded(3, 5, 8, 8)
        enhanced = unflatten_tokens(cross_attention(flatten_tokens(x), text, p), 6, 6)
        want = spectral_normalize(enhanced)
        got = crossmodal_forward(x, text, p)
        assert np.array_equal(got.data, want.data)

    def test_spectral_normalize_matches_manual(self):
        rng = np.random.default_rng(61)
        x = FeatureMap(rng.uniform(-1, 1, size=(2, 5, 5)))
        amp, phase = decompose(fft2(x))
        z = _standardize(amp, "channel") * np.exp(1j * phase)
        want = idft2_reference(z).real
        got = spectral_normalize(x)
        assert np.abs(got.data - want).max() < 1e-9

    def test_spectral_normalize_exact_zero_bins(self):
        # constant columns: every row u != 0 of the spectrum is exactly 0, and
        # standardizing gives those bins a negative amplitude at phase 0
        x = FeatureMap(np.tile(np.arange(8.0), (2, 8, 1)))
        assert np.count_nonzero(fft2(x) == 0) == 2 * 7 * 8
        amp, phase = decompose(fft2(x))
        for scope in ("channel", "tensor"):
            want = ifft2_reference(compose_reference(_standardize(amp, scope), phase))[0]
            got = spectral_normalize(x, scope=scope)
            assert np.abs(got.data - want.data).max() <= 1e-12 * np.abs(want.data).max()

    def test_matches_oracle_path(self):
        rng = np.random.default_rng(62)
        x = FeatureMap(rng.uniform(-1, 1, size=(4, 8, 8)))
        text = gen_text_tokens(5, 6, 12)
        p = AttentionParams.seeded(4, 6, 16, 13)
        got = crossmodal_forward(x, text, p)
        enhanced = unflatten_tokens(cross_attention(flatten_tokens(x), text, p), 8, 8)
        z = dft2_oracle(enhanced)
        amp = np.sqrt(z.real**2 + z.imag**2 + 1e-24)
        phase = np.arctan2(z.imag, z.real)
        mu = amp.mean(axis=(1, 2), keepdims=True)
        sd = amp.std(axis=(1, 2), keepdims=True)
        a_norm = (amp - mu) / sd
        want = idft2_reference(a_norm * np.cos(phase) + 1j * a_norm * np.sin(phase)).real
        assert np.abs(got.data - want).max() < 1e-9

    def test_shape_and_determinism(self):
        rng = np.random.default_rng(63)
        x = FeatureMap(rng.uniform(-1, 1, size=(2, 4, 6)))
        text = gen_text_tokens(3, 4, 20)
        p = AttentionParams.seeded(2, 4, 8, 21)
        a = crossmodal_forward(x, text, p)
        b = crossmodal_forward(x, text, p)
        assert a.shape == x.shape
        assert np.array_equal(a.data, b.data)


class TestUnknownScope:
    @pytest.mark.parametrize("shape", [(3, 8, 8), (256, 14, 14)])
    def test_unknown_scope_is_rejected(self, monkeypatch, shape):
        # in blocks of 64 channels the 256x14x14 map runs as four blocks; the scope is
        # rejected before any block's forward transform
        x = FeatureMap(np.random.default_rng(65).uniform(-1, 1, size=shape))
        text = gen_text_tokens(3, 5, 22)
        p = AttentionParams.seeded(shape[0], 5, 8, 23)
        want = "scope must be one of ('channel', 'tensor'), got 'global'"
        calls = count_fft_calls(monkeypatch)
        with channel_blocks(64, shape):
            for call in (lambda: spectral_normalize(x, "global"),
                         lambda: crossmodal_forward(x, text, p, scope="global")):
                with pytest.raises(ValueError) as caught:
                    call()
                assert str(caught.value) == want
        assert calls["rfft"] == 0 and not any(calls.values())


class TestHighFreqShift:
    def test_zero_for_identical(self):
        rng = np.random.default_rng(64)
        x = FeatureMap(rng.uniform(-1, 1, size=(2, 6, 6)))
        assert high_freq_shift(x, x, 0.25) == 0.0

    def test_positive_noise_vs_smooth(self):
        noise = gen_features("noise", 2, 12, 12, 5)
        smooth = gen_features("smooth", 2, 12, 12, 5)
        assert high_freq_shift(smooth, noise, 0.25) > 0.0

    def test_positive_through_pipeline_on_smooth_corpus(self):
        base = gen_features("smooth", 4, 8, 8, 77)
        x = FeatureMap(base.data + 4.0)
        text = gen_text_tokens(8, 16, 78)
        p = AttentionParams.seeded(4, 16, 64, 79)
        out = crossmodal_forward(x, text, p)
        assert high_freq_shift(x, out, 0.25) > 0.0

    def test_matches_band_energy_of_decompose(self):
        rng = np.random.default_rng(65)
        for shape in ((2, 6, 6), (3, 5, 7), (1, 1, 4), (16, 32, 32)):
            before = FeatureMap(rng.uniform(-1, 1, size=shape))
            after = gen_features("noise", *shape, 66)

            def fraction(x):
                low, high = band_split_reference(decompose(fft2(x))[0] ** 2, 0.25)
                return high / (low + high)

            want = fraction(after) - fraction(before)
            assert abs(high_freq_shift(before, after, 0.25) - want) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9)),
           seed=st.integers(0, 2**32 - 1), log_scale=st.integers(-150, 150))
    def test_scale_invariant(self, shape, seed, log_scale):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, size=shape)
        b = rng.uniform(-1, 1, size=shape)
        k = 10.0**log_scale
        want = high_freq_shift(FeatureMap(a), FeatureMap(b), 0.25)
        got = high_freq_shift(FeatureMap(k * a), FeatureMap(k * b), 0.25)
        assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("shape", [(3, 8, 8), (2, 7, 5), (16, 32, 32)])
    def test_finite_when_the_transform_overflows(self, shape):
        # near the largest float the forward transform overflows; the share is then
        # taken on the map scaled by 2**-1024, exactly, and matches the unit-scale one
        noise = gen_features("noise", *shape, 67).data
        smooth = gen_features("smooth", *shape, 67).data
        huge = [FeatureMap(m / np.abs(m).max() * 1.5e308) for m in (noise, smooth)]
        with np.errstate(over="raise", invalid="raise"):
            got = [high_fraction(m, 0.25) for m in huge]
        assert got == [high_fraction(FeatureMap(np.ldexp(m.data, -1024)), 0.25) for m in huge]
        want = high_freq_shift(FeatureMap(smooth), FeatureMap(noise), 0.25)
        assert abs(high_freq_shift(huge[1], huge[0], 0.25) - want) <= 1e-12

    def test_shape_mismatch_rejected(self):
        a = FeatureMap(np.zeros((1, 4, 4)))
        b = FeatureMap(np.zeros((1, 4, 5)))
        with pytest.raises(ShapeMismatchError):
            high_freq_shift(a, b, 0.25)
