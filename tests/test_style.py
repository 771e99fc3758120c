import json
import math
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    channel_blocks,
    channel_stats_reference,
    compose_reference,
    count_fft_calls,
    idft2_reference,
    ifft2_reference,
    outcome,
    phase_gap_mod_pi,
)
from freqadapt import (
    FeatureMap,
    channel_stats,
    decompose,
    dft2_oracle,
    fft2,
    sample_dirichlet,
    style_diversify,
    style_transform,
)
from freqadapt import style
from freqadapt.errors import ShapeMismatchError
from freqadapt.rng import _GAMMA_WINDOW, SplitMix64, mix_seed
from freqadapt.style import _style_coefficients


def style_reference(x, alpha, seed):
    """Step-by-step recomputation through the direct-DFT path, times_C scaling."""
    mu, sigma = channel_stats(x)
    eff = sample_dirichlet(alpha, seed) * x.channels
    z = dft2_oracle(x)
    amp = np.sqrt(z.real**2 + z.imag**2 + 1e-24)
    phase = np.arctan2(z.imag, z.real)
    a_new = (eff * sigma)[:, None, None] * amp + (eff * mu)[:, None, None]
    z_new = a_new * np.cos(phase) + 1j * a_new * np.sin(phase)
    return idft2_reference(z_new).real


class TestChannelStats:
    def test_hand_values(self):
        x = FeatureMap(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 2, 2))
        mu, sigma = channel_stats(x)
        assert mu[0] == pytest.approx(2.5, abs=1e-15)
        # mpmath, 50 digits: sqrt(5/4)
        assert sigma[0] == pytest.approx(1.1180339887498948482, abs=1e-15)

    def test_constant_channel(self):
        mu, sigma = channel_stats(FeatureMap(np.full((1, 3, 3), 7.0)))
        assert mu[0] == pytest.approx(7.0)
        assert sigma[0] == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9)),
           seed=st.integers(0, 2**32 - 1), log_scale=st.integers(-100, 100))
    def test_bitwise_equal_to_numpy_mean_and_std(self, shape, seed, log_scale):
        data = np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape) * 10.0**log_scale
        x = FeatureMap(data)
        assert outcome(channel_stats, x) == outcome(channel_stats_reference, x)

    @pytest.mark.parametrize("shape", [(64, 56, 56), (256, 14, 14)])
    def test_bitwise_equal_to_numpy_at_backbone_shapes(self, shape):
        x = FeatureMap(np.random.default_rng(31).uniform(-1.0, 1.0, size=shape))
        assert outcome(channel_stats, x) == outcome(channel_stats_reference, x)

    def test_matches_fsum_two_pass(self):
        rng = np.random.default_rng(30)
        x = rng.uniform(-5, 5, size=(3, 8, 8))
        mu_c, sigma_c = channel_stats(FeatureMap(x))
        for c in range(3):
            vals = x[c].ravel().tolist()
            mu = math.fsum(vals) / len(vals)
            var = math.fsum((v - mu) ** 2 for v in vals) / len(vals)
            assert abs(mu_c[c] - mu) < 1e-12
            assert abs(sigma_c[c] - math.sqrt(var)) < 1e-12


class TestSampleDirichlet:
    def test_single_component(self):
        for seed in (0, 1, 999):
            w = sample_dirichlet([2.5], seed)
            assert w[0] == 1.0

    def test_concentration(self):
        w = sample_dirichlet([1000.0] * 8, 123)
        assert np.abs(w - 0.125).max() < 0.05

    def test_golden_triple(self):
        golden = json.loads(resources.files("freqadapt").joinpath("golden.json").read_text())
        g = golden["dirichlet"]
        w = sample_dirichlet(g["alpha"], g["seed"])
        assert np.abs(w - np.asarray(g["weights"])).max() <= g["tolerance"]

    def test_simplex_invariants(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            alpha = rng.uniform(0.2, 5.0, size=rng.integers(2, 6))
            w = sample_dirichlet(alpha, int(rng.integers(0, 2**63)))
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_mean_tracks_alpha(self):
        alpha = np.array([2.0, 5.0, 3.0])
        total = np.zeros(3)
        n = 4000
        for i in range(n):
            total += sample_dirichlet(alpha, mix_seed(77, i))
        assert np.abs(total / n - alpha / alpha.sum()).max() < 0.01

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sample_dirichlet([1.0, 0.0], 0)
        with pytest.raises(ValueError):
            sample_dirichlet([-1.0], 0)

    @pytest.mark.parametrize("alpha", [[np.nan, 1.0], [1.0, np.inf], [-np.inf]])
    def test_rejects_non_finite(self, alpha):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            sample_dirichlet(alpha, 0)

    def test_underflowing_concentrations_name_themselves(self):
        # every Gamma(1e-300) draw underflows to 0, so there is no simplex point to return
        with pytest.raises(ValueError, match=r"concentrations \[1e-300, 1e-300, 1e-300\]"):
            sample_dirichlet([1e-300] * 3, 0)

    @pytest.mark.parametrize("alpha", [[1e307] * 30, [1e308] * 3])
    def test_overflowing_concentrations_name_themselves(self, alpha):
        # the gamma draws are finite, but their sum is inf, so there is no simplex point either
        with pytest.raises(ValueError, match=re.escape(f"concentrations {alpha} are too large")):
            sample_dirichlet(alpha, 1)

    def test_denormal_concentrations_underflow_without_warnings(self):
        # 1 / 5e-324 is inf; the suite turns any numpy warning on the way into an error
        with pytest.raises(ValueError, match="every gamma draw underflowed"):
            sample_dirichlet([5e-324] * 3, 0)

    def test_huge_concentration_with_a_finite_sum_draws_without_warnings(self):
        # 9 * d overflows to inf inside the method, which then returns d
        w = sample_dirichlet([2e307, 1.0], 0)
        assert np.all(np.isfinite(w)) and w.sum() == 1.0 and w[0] == 1.0

    def test_determinism(self):
        a = sample_dirichlet([1.0, 2.0, 3.0], 5)
        b = sample_dirichlet([1.0, 2.0, 3.0], 5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [1, _GAMMA_WINDOW - 1, _GAMMA_WINDOW, 64, 257])
    def test_both_gamma_paths_give_the_scalar_draws(self, k):
        rng = np.random.default_rng(k)
        for alpha in (np.ones(k), rng.uniform(0.05, 3.0, k)):
            for seed in (0, 9, 2**64 - 1):
                gen = SplitMix64(seed)
                draws = np.array([gen.gamma(a) for a in alpha])
                assert sample_dirichlet(alpha, seed).tobytes() == (draws / draws.sum()).tobytes()


class TestStyleCoefficients:
    def test_raw_vs_times_c(self):
        x = FeatureMap(np.random.default_rng(34).uniform(-1, 1, size=(3, 5, 6)))
        mu, sigma = channel_stats(x)
        w = sample_dirichlet([1.0, 2.0, 0.5], 21)
        mu_raw, sigma_raw = _style_coefficients(x, [1.0, 2.0, 0.5], 21, "raw")
        assert np.array_equal(mu_raw, w * mu) and np.array_equal(sigma_raw, w * sigma)
        mu_c, sigma_c = _style_coefficients(x, [1.0, 2.0, 0.5], 21, "times_C")
        assert np.array_equal(mu_c, (3 * w) * mu) and np.array_equal(sigma_c, (3 * w) * sigma)

    def test_unknown_scale_mode_rejected(self):
        x = FeatureMap(np.ones((2, 3, 3)))
        with pytest.raises(ValueError, match="scale_mode"):
            style_diversify(x, np.ones(2), 0, scale_mode="bogus")

    @pytest.mark.parametrize("args, error, match", [
        ((np.ones(64), 0, "bogus"), ValueError, "scale_mode must be one of"),
        ((np.ones(63), 0, "times_C"), ShapeMismatchError, "alpha must have length 64"),
        ((np.full(64, 1e-300), 0, "times_C"), ValueError, "every gamma draw underflowed"),
    ])
    def test_bad_weights_raise_before_any_transform(self, monkeypatch, args, error, match):
        calls = count_fft_calls(monkeypatch)
        x = FeatureMap(np.random.default_rng(41).uniform(-1, 1, size=(64, 56, 56)))
        with pytest.raises(error, match=match):
            style_diversify(x, *args)
        assert not any(calls.values())


class TestStyleDiversify:
    def test_identity_hook(self):
        rng = np.random.default_rng(35)
        x = FeatureMap(rng.uniform(-1, 1, size=(3, 8, 8)))
        out = style_transform(x, 0.0, 1.0)
        assert np.abs(out.data - x.data).max() < 1e-9

    def test_zero_map_collapses_to_zero(self):
        out = style_diversify(FeatureMap(np.zeros((2, 4, 4))), np.ones(2), 3)
        assert np.all(out.data == 0.0)

    def test_constant_map_identity_override(self):
        x = FeatureMap(np.full((2, 6, 6), 3.5))
        out = style_transform(x, 0.0, 1.0)
        assert np.abs(out.data - x.data).max() < 1e-9

    def test_matches_oracle_path(self):
        rng = np.random.default_rng(36)
        x = FeatureMap(rng.uniform(-1, 1, size=(4, 8, 8)))
        got = style_diversify(x, np.ones(4), 11)
        want = style_reference(x, np.ones(4), 11)
        assert np.abs(got.data - want).max() < 1e-9

    def test_phase_preserved_mod_flips(self):
        rng = np.random.default_rng(37)
        for i in range(20):
            x = FeatureMap(rng.uniform(-1, 1, size=(3, 8, 8)))
            amp_before, phase_before = decompose(fft2(x))
            out = style_diversify(x, np.ones(3), mix_seed(8, i))
            _, phase_after = decompose(fft2(out))
            mask = amp_before > 1e-6
            assert phase_gap_mod_pi(phase_after[mask], phase_before[mask]).max() < 1e-6

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(38)
        x = FeatureMap(rng.uniform(-1, 1, size=(2, 5, 7)))
        a = style_diversify(x, (2.0, 0.5), 99)
        b = style_diversify(x, (2.0, 0.5), 99)
        assert np.array_equal(a.data, b.data)

    def test_shape_preserved(self):
        rng = np.random.default_rng(39)
        for c, h, w in ((1, 1, 1), (2, 3, 9), (4, 8, 8)):
            x = FeatureMap(rng.uniform(-1, 1, size=(c, h, w)))
            assert style_diversify(x, np.ones(c), 0).shape == (c, h, w)

    def test_alpha_length_validated(self):
        x = FeatureMap(np.zeros((3, 4, 4)))
        with pytest.raises(Exception):
            style_diversify(x, np.ones(2), 0)

    def test_style_transform_exact_zero_bins(self):
        # constant columns leave exact-zero bins; mu < 0 gives them negative amplitudes
        x = FeatureMap(np.tile(np.arange(8.0), (2, 8, 1)))
        mu, sigma = np.array([-0.5, 0.25]), np.array([1.5, 0.75])
        amp, phase = decompose(fft2(x))
        fused = sigma[:, None, None] * amp + mu[:, None, None]
        want = ifft2_reference(compose_reference(fused, phase))[0]
        got = style_transform(x, mu, sigma)
        assert np.abs(got.data - want.data).max() <= 1e-12 * np.abs(want.data).max()

    @pytest.mark.parametrize("shape", [(7, 6, 5), (4, 9, 8), (1, 3, 3)])
    def test_blocks_match_the_whole_map_coefficients(self, shape):
        # the statistics taken per block give the bits of the whole-map ones
        rng = np.random.default_rng(42)
        x = FeatureMap(rng.uniform(-1, 1, size=shape) * 10.0 ** rng.integers(-3, 3))
        for seed in (0, 5):
            for mode in ("times_C", "raw"):
                alpha = rng.uniform(0.2, 3.0, shape[0])
                want = style_transform(x, *_style_coefficients(x, alpha, seed, mode)).data.tobytes()
                for per_block in (1, 2, 3):
                    with channel_blocks(per_block, shape):
                        got = style_diversify(x, alpha, seed, mode)
                    assert got.data.tobytes() == want, (seed, mode, per_block)

    def test_blocks_take_statistics_without_the_public_name(self, monkeypatch):
        # perfbench wraps style.channel_stats with a tracer, which would count one
        # call per block; the blocks must reach the statistics through the private core
        x = FeatureMap(np.random.default_rng(43).uniform(-1, 1, size=(64, 56, 56)))
        want = style_diversify(x, np.ones(64), 3).data.tobytes()

        def no_channel_stats(x):
            raise AssertionError("style_diversify called channel_stats")

        monkeypatch.setattr(style, "channel_stats", no_channel_stats)
        assert style_diversify(x, np.ones(64), 3).data.tobytes() == want

    def test_style_transform_scalar_broadcast(self):
        rng = np.random.default_rng(40)
        x = FeatureMap(rng.uniform(-1, 1, size=(2, 4, 4)))
        a = style_transform(x, 0.0, 1.0)
        b = style_transform(x, np.zeros(2), np.ones(2))
        assert np.array_equal(a.data, b.data)
