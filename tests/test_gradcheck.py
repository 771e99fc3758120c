import warnings

import numpy as np
import pytest

from freqadapt import (
    AttentionParams,
    DegenerateSpectrumError,
    FeatureMap,
    TokenMatrix,
    fd_directional,
    jvp_cross_attention,
    jvp_crossmodal,
    jvp_silu,
    jvp_style_transform,
    run_gradcheck,
)
from freqadapt.crossmodal import _group_mean, _standardize
from freqadapt.gradcheck import GRADCHECK_OPS, _normalize_jvp
from freqadapt.spectral import _rfft2, _unit_phasors, mirror_weights
from freqadapt.synth import gen_text_tokens


def normalize_jvp_without(drop):
    """The standardization JVP with one piece removed: "dmu", "dsd", "weight" or None."""

    def jvp(a, da, scope, weight=1.0):
        w = 1.0 if drop == "weight" else weight
        dev = a - _group_mean(a, scope, w)
        sd = np.sqrt(_group_mean(dev * dev, scope, w))
        dmu = 0.0 if drop == "dmu" else _group_mean(da, scope, w)
        dsd = 0.0 if drop == "dsd" else _group_mean(dev * da, scope, w) / sd
        return (da - dmu) / sd - dev * dsd / (sd * sd)

    return jvp


class TestFdDirectional:
    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(90)
        x = FeatureMap(rng.uniform(-1, 1, size=(2, 3, 3)))
        i = (1, 2, 0)
        e_i = np.zeros((2, 3, 3))
        e_i[i] = 1.0
        f = lambda m: float((m.data**2).sum())
        got = fd_directional(f, x, FeatureMap(e_i), 1e-4)
        assert abs(got - 2.0 * x.data[i]) < 1e-8

    def test_constant_function(self):
        x = FeatureMap(np.ones((1, 2, 2)))
        d = FeatureMap(np.ones((1, 2, 2)))
        assert abs(fd_directional(lambda m: 4.2, x, d, 1e-5)) < 1e-12

    def test_rejects_bad_step_and_zero_direction(self):
        x = FeatureMap(np.ones((1, 2, 2)))
        with pytest.raises(ValueError):
            fd_directional(lambda m: 0.0, x, FeatureMap(np.ones((1, 2, 2))), 0.0)
        with pytest.raises(ValueError):
            fd_directional(lambda m: 0.0, x, FeatureMap(np.zeros((1, 2, 2))), 1e-5)


class TestJvps:
    def test_linear_chain_identity(self):
        # sigma=1, mu=0 makes the spectral chain linear: jvp == direction
        rng = np.random.default_rng(91)
        x = FeatureMap(rng.uniform(-1, 1, size=(2, 6, 6)))
        d = FeatureMap(rng.uniform(-1, 1, size=(2, 6, 6)))
        out = jvp_style_transform(x, d, 0.0, 1.0)
        assert np.abs(out.data - d.data).max() < 1e-12

    def test_normalized_radial_direction_is_null(self):
        # standardization is scale invariant, so the radial direction (the
        # normalized amplitude itself) sits in the Jacobian's null space
        rng = np.random.default_rng(92)
        a = rng.normal(size=(1, 4, 4))
        a = (a - a.mean()) / a.std()
        assert np.abs(_normalize_jvp(a, a, "channel")).max() < 1e-12

    def test_amp_normalize_jvp_vs_fd(self):
        # the mirror-weighted half-spectrum standardization spectral_normalize runs
        rng = np.random.default_rng(93)
        a = _unit_phasors(_rfft2(FeatureMap(rng.uniform(-1, 1, size=(2, 5, 5)))))
        weight = mirror_weights(5)
        d = rng.uniform(-1, 1, size=a.shape)
        analytic = _normalize_jvp(a, d, "channel", weight)
        step = 1e-5
        fd = (
            _standardize(a + step * d, "channel", weight)
            - _standardize(a - step * d, "channel", weight)
        ) / (2 * step)
        assert np.abs(analytic - fd).max() < 1e-6

    def test_single_text_token_zero_jvp(self):
        rng = np.random.default_rng(94)
        xv = TokenMatrix(rng.uniform(-1, 1, size=(5, 3)))
        xt = TokenMatrix(rng.uniform(-1, 1, size=(1, 4)))
        p = AttentionParams.seeded(3, 4, 2, 0)
        d = TokenMatrix(rng.uniform(-1, 1, size=(5, 3)))
        out = jvp_cross_attention(xv, d, xt, p)
        assert np.abs(out.data).max() < 1e-15

    def test_jvp_linearity(self):
        rng = np.random.default_rng(95)
        x = FeatureMap(rng.uniform(-1, 1, size=(2, 6, 6)))
        d1 = rng.uniform(-1, 1, size=(2, 6, 6))
        d2 = rng.uniform(-1, 1, size=(2, 6, 6))
        a, b = 1.3, -0.7
        mu, sigma = np.array([0.1, -0.2]), np.array([1.5, 0.7])
        combo = jvp_style_transform(x, FeatureMap(a * d1 + b * d2), mu, sigma).data
        split = (
            a * jvp_style_transform(x, FeatureMap(d1), mu, sigma).data
            + b * jvp_style_transform(x, FeatureMap(d2), mu, sigma).data
        )
        assert np.abs(combo - split).max() < 1e-10

    def test_silu_jvp_vs_fd(self):
        rng = np.random.default_rng(96)
        x = FeatureMap(rng.uniform(-2, 2, size=(1, 4, 4)))
        d = FeatureMap(rng.uniform(-1, 1, size=(1, 4, 4)))
        from freqadapt import silu

        cot = rng.uniform(-1, 1, size=(1, 4, 4))
        analytic = float((cot * jvp_silu(x, d).data).sum())
        fd = fd_directional(lambda m: float((cot * silu(m).data).sum()), x, d, 1e-5)
        assert abs(analytic - fd) / max(abs(analytic), 1e-8) < 1e-7

    def test_crossmodal_jvp_vs_fd(self):
        rng = np.random.default_rng(97)
        x = FeatureMap(rng.uniform(-1, 1, size=(2, 6, 6)))
        text = gen_text_tokens(4, 3, 5)
        p = AttentionParams.seeded(2, 3, 4, 6)
        d = FeatureMap(rng.uniform(-1, 1, size=(2, 6, 6)))
        from freqadapt import crossmodal_forward

        cot = rng.uniform(-1, 1, size=(2, 6, 6))
        analytic = float((cot * jvp_crossmodal(x, d, text, p).data).sum())
        fd = fd_directional(
            lambda m: float((cot * crossmodal_forward(m, text, p).data).sum()), x, d, 1e-5
        )
        assert abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8) < 1e-6

    def test_crossmodal_jvp_degenerate_group_typed_error(self):
        # a one-bin amplitude group has zero spread: the JVP must fail the way
        # the forward does, before any numpy warning
        x = FeatureMap(np.full((1, 1, 1), 0.3))
        d = FeatureMap(np.ones((1, 1, 1)))
        text = gen_text_tokens(4, 3, 5)
        p = AttentionParams.seeded(1, 3, 4, 6)
        from freqadapt import crossmodal_forward

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSpectrumError):
                crossmodal_forward(x, text, p)
            for scope in ("channel", "tensor"):
                with pytest.raises(DegenerateSpectrumError):
                    jvp_crossmodal(x, d, text, p, scope=scope)


class TestRunGradcheck:
    def test_silu_suite_tight(self):
        (report,) = run_gradcheck(("silu",), seed=0, probes=10)
        assert report.max_rel_err < 1e-7
        assert report.num_probes == 10

    def test_all_ops_within_tolerance(self):
        reports = run_gradcheck(GRADCHECK_OPS, seed=0, probes=10)
        assert [r.op_name for r in reports] == list(GRADCHECK_OPS)
        for r in reports:
            assert r.max_rel_err < 1e-5
            assert r.converged_fraction >= 0.9

    def test_deterministic(self):
        a = run_gradcheck(("style",), seed=42, probes=5)
        b = run_gradcheck(("style",), seed=42, probes=5)
        assert a[0].max_rel_err == b[0].max_rel_err

    def test_probe_stream_independent_of_selection(self):
        solo = run_gradcheck(("crossmodal",), seed=1, probes=5)[0]
        joint = run_gradcheck(("silu", "crossmodal"), seed=1, probes=5)[1]
        assert solo.max_rel_err == joint.max_rel_err

    def test_crossmodal_probe_redraws_attention_weights(self):
        # with this seed one probe's first attention weights leave a bin below the
        # spectral guard for every map; the probe must redraw the weights, not give up
        (report,) = run_gradcheck(("crossmodal",), seed=8972547277105952781, probes=50)
        assert report.op_name == "crossmodal"
        assert report.num_probes == 50
        assert report.max_rel_err < 1e-5

    @pytest.mark.parametrize("drop", ["dmu", "dsd", "weight"])
    def test_amp_normalize_op_catches_wrong_jvp(self, monkeypatch, drop):
        monkeypatch.setattr("freqadapt.gradcheck._normalize_jvp", normalize_jvp_without(drop))
        (report,) = run_gradcheck(("amp_normalize",), seed=0, probes=10)
        assert report.max_rel_err > 1e-3

    def test_amp_normalize_op_mutation_harness_is_faithful(self, monkeypatch):
        monkeypatch.setattr("freqadapt.gradcheck._normalize_jvp", normalize_jvp_without(None))
        (report,) = run_gradcheck(("amp_normalize",), seed=0, probes=10)
        assert report.max_rel_err < 1e-5

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            run_gradcheck(("nope",), seed=0, probes=1)

    def test_rejects_zero_probes(self):
        with pytest.raises(ValueError):
            run_gradcheck(("silu",), seed=0, probes=0)
