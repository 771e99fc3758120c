import json
import math
from importlib import resources

import numpy as np
import pytest

from conftest import idft2_reference, phase_gap_mod_pi
from freqadapt import (
    FeatureMap,
    channel_stats,
    compose,
    decompose,
    dft2_oracle,
    fft2,
    ifft2,
    sample_dirichlet,
    style_diversify,
    style_transform,
)
from freqadapt.rng import mix_seed
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

    def test_underflowing_concentrations_name_themselves(self):
        # every Gamma(1e-300) draw underflows to 0, so there is no simplex point to return
        with pytest.raises(ValueError, match=r"concentrations \[1e-300, 1e-300, 1e-300\]"):
            sample_dirichlet([1e-300] * 3, 0)

    def test_determinism(self):
        a = sample_dirichlet([1.0, 2.0, 3.0], 5)
        b = sample_dirichlet([1.0, 2.0, 3.0], 5)
        assert np.array_equal(a, b)


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
        want = ifft2(compose(fused, phase))[0]
        got = style_transform(x, mu, sigma)
        assert np.abs(got.data - want.data).max() <= 1e-12 * np.abs(want.data).max()

    def test_style_transform_scalar_broadcast(self):
        rng = np.random.default_rng(40)
        x = FeatureMap(rng.uniform(-1, 1, size=(2, 4, 4)))
        a = style_transform(x, 0.0, 1.0)
        b = style_transform(x, np.zeros(2), np.ones(2))
        assert np.array_equal(a.data, b.data)
