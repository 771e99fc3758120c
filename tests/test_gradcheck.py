import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freqadapt import (
    AttentionParams,
    DegenerateSpectrumError,
    FeatureMap,
    Matrix,
    ShapeMismatchError,
    fd_directional,
    jvp_cross_attention,
    jvp_crossmodal,
    jvp_silu,
    jvp_style_transform,
    run_gradcheck,
    style_transform,
)
from freqadapt.crossmodal import _group_mean, _standardize
from freqadapt.gradcheck import GRAD_TOL, GRADCHECK_OPS, _normalize_jvp, _ridders, amp_map_jvp
from freqadapt.spectral import _rfft2, _unit_phasors, mirror_weights
from freqadapt.synth import gen_text_tokens

SMALL_SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9))


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


def amp_map_jvp_without(drop):
    """amp_map_jvp with one term zeroed: "dfn" (amplitude) or "fn" (phase)."""

    def jvp(x, direction, fn, dfn):
        if drop == "dfn":
            return amp_map_jvp(x, direction, fn, lambda a, da: np.zeros_like(da))
        return amp_map_jvp(x, direction, lambda a: 0.0 * fn(a), dfn)

    return jvp


def min_half_bin(x):
    return float(np.abs(_rfft2(x)).min())


class TestFdDirectional:
    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(90)
        x = rng.uniform(-1, 1, size=(2, 3, 3))
        i = (1, 2, 0)
        e_i = np.zeros((2, 3, 3))
        e_i[i] = 1.0
        f = lambda m: float((m**2).sum())
        got = fd_directional(f, x, e_i, 1e-4)
        assert abs(got - 2.0 * x[i]) < 1e-8

    def test_constant_function(self):
        x = np.ones((1, 2, 2))
        d = np.ones((1, 2, 2))
        assert abs(fd_directional(lambda m: 4.2, x, d, 1e-5)) < 1e-12

    def test_rejects_bad_step_and_zero_direction(self):
        x = np.ones((1, 2, 2))
        with pytest.raises(ValueError):
            fd_directional(lambda m: 0.0, x, np.ones((1, 2, 2)), 0.0)
        with pytest.raises(ValueError):
            fd_directional(lambda m: 0.0, x, np.zeros((1, 2, 2)), 1e-5)


class TestJvps:
    @settings(max_examples=150, deadline=None)
    @given(shape=SMALL_SHAPES, seed=st.integers(0, 2**32 - 1))
    def test_linear_chain_identity(self, shape, seed):
        # an identity amplitude map makes the spectral chain linear: jvp == direction
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=shape)
        d = rng.uniform(-1, 1, size=shape)
        assume(min_half_bin(x) >= 1e-3)
        out = amp_map_jvp(FeatureMap(x), FeatureMap(d), lambda a: a, lambda a, da: da)
        assert np.abs(out.data - d).max() <= 1e-12 * np.abs(d).max()

    @settings(max_examples=150, deadline=None)
    @given(shape=SMALL_SHAPES, seed=st.integers(0, 2**32 - 1))
    def test_style_jvp_matches_central_difference(self, shape, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=shape)
        d = rng.uniform(-1, 1, size=shape)
        mu = rng.uniform(-1, 1, size=shape[0])
        sigma = rng.uniform(0.1, 2, size=shape[0])
        assume(min_half_bin(x) >= 1e-2)
        step = 1e-6
        fd = (
            style_transform(FeatureMap(x + step * d), mu, sigma).data
            - style_transform(FeatureMap(x - step * d), mu, sigma).data
        ) / (2 * step)
        analytic = jvp_style_transform(FeatureMap(x), FeatureMap(d), mu, sigma).data
        assert np.abs(analytic - fd).max() <= 1e-5 * max(np.abs(analytic).max(), 1e-8)

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
        a = _unit_phasors(_rfft2(rng.uniform(-1, 1, size=(2, 5, 5))))
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
        xv = Matrix(rng.uniform(-1, 1, size=(5, 3)))
        xt = Matrix(rng.uniform(-1, 1, size=(1, 4)))
        p = AttentionParams.seeded(3, 4, 2, 0)
        d = Matrix(rng.uniform(-1, 1, size=(5, 3)))
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
        x = rng.uniform(-2, 2, size=(1, 4, 4))
        d = rng.uniform(-1, 1, size=(1, 4, 4))
        from freqadapt import silu

        cot = rng.uniform(-1, 1, size=(1, 4, 4))
        analytic = float((cot * jvp_silu(FeatureMap(x), FeatureMap(d)).data).sum())
        fd = fd_directional(lambda m: float((cot * silu(FeatureMap(m)).data).sum()), x, d, 1e-5)
        assert abs(analytic - fd) / max(abs(analytic), 1e-8) < 1e-7

    def test_crossmodal_jvp_vs_fd(self):
        rng = np.random.default_rng(97)
        x = rng.uniform(-1, 1, size=(2, 6, 6))
        text = gen_text_tokens(4, 3, 5)
        p = AttentionParams.seeded(2, 3, 4, 6)
        d = rng.uniform(-1, 1, size=(2, 6, 6))
        from freqadapt import crossmodal_forward

        cot = rng.uniform(-1, 1, size=(2, 6, 6))
        analytic = float((cot * jvp_crossmodal(FeatureMap(x), FeatureMap(d), text, p).data).sum())
        fd = fd_directional(
            lambda m: float((cot * crossmodal_forward(FeatureMap(m), text, p).data).sum()),
            x, d, 1e-5,
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


    def test_crossmodal_jvp_attends_once(self, monkeypatch):
        # the point and the tangent of jvp_crossmodal share one set of attention weights
        from freqadapt import crossmodal, gradcheck

        calls = []
        terms = crossmodal._attention_terms

        def counting(*args):
            calls.append(args)
            return terms(*args)

        monkeypatch.setattr(crossmodal, "_attention_terms", counting)
        monkeypatch.setattr(gradcheck, "_attention_terms", counting)
        rng = np.random.default_rng(98)
        x = FeatureMap(rng.uniform(-1, 1, size=(3, 8, 8)))
        d = FeatureMap(rng.uniform(-1, 1, size=(3, 8, 8)))
        jvp_crossmodal(x, d, gen_text_tokens(4, 3, 5), AttentionParams.seeded(3, 3, 4, 6))
        assert len(calls) == 1

    def test_cross_attention_jvp_with_many_text_tokens(self):
        # 200 text tokens and d_k 8 run the chains query-first, unlike the 8-token probes
        from freqadapt import cross_attention

        rng = np.random.default_rng(100)
        xv = rng.uniform(-1, 1, size=(36, 16))
        d = rng.uniform(-1, 1, size=(36, 16))
        xt = gen_text_tokens(200, 3, 9)
        p = AttentionParams.seeded(16, 3, 8, 10)
        cot = rng.uniform(-1, 1, size=(36, 16))
        analytic = float((cot * jvp_cross_attention(Matrix(xv), Matrix(d), xt, p).data).sum())
        fd = fd_directional(
            lambda m: float((cot * cross_attention(Matrix(m), xt, p).data).sum()), xv, d, 1e-5
        )
        assert abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8) < GRAD_TOL

    def test_attention_point_is_cross_attention_bitwise(self):
        from freqadapt import cross_attention
        from freqadapt.gradcheck import _attention_and_jvp

        rng = np.random.default_rng(99)
        xv = Matrix(rng.uniform(-1, 1, size=(10, 3)))
        d = Matrix(rng.uniform(-1, 1, size=(10, 3)))
        xt = gen_text_tokens(4, 5, 7)
        p = AttentionParams.seeded(3, 5, 4, 8)
        point, tangent = _attention_and_jvp(xv, d, xt, p)
        assert np.array_equal(point.data, cross_attention(xv, xt, p).data)
        assert np.array_equal(tangent.data, jvp_cross_attention(xv, d, xt, p).data)


# the map JVPs, each as jvp(x, d, xt, p); xt and p feed the cross-modal one
MAP_JVPS = {
    "amp_map_jvp": lambda x, d, xt, p: amp_map_jvp(x, d, lambda a: a, lambda a, da: da),
    "jvp_style_transform": lambda x, d, xt, p: jvp_style_transform(x, d, 0.0, 1.0),
    "jvp_silu": lambda x, d, xt, p: jvp_silu(x, d),
    "jvp_crossmodal": lambda x, d, xt, p: jvp_crossmodal(x, d, xt, p),
}


class TestDirectionShape:
    """A direction of another shape than the point raises; none is broadcast or truncated."""

    @pytest.mark.parametrize("name", MAP_JVPS)
    # the last pair, a transposed plane, flattens to token matrices of one shape
    @pytest.mark.parametrize("shape, direction_shape", [
        ((3, 8, 8), (1, 8, 8)), ((3, 8, 8), (3, 1, 8)), ((3, 8, 8), (4, 8, 8)),
        ((3, 4, 8), (3, 8, 4))])
    def test_map_jvps_reject_a_direction_of_another_shape(self, name, shape, direction_shape):
        rng = np.random.default_rng(97)
        x = FeatureMap(rng.uniform(-1, 1, size=shape))
        d = FeatureMap(rng.uniform(-1, 1, size=direction_shape))
        xt = Matrix(rng.uniform(-1, 1, size=(5, 4)))
        with pytest.raises(ShapeMismatchError, match="direction shape"):
            MAP_JVPS[name](x, d, xt, AttentionParams.seeded(3, 4, 8, 1))

    def test_cross_attention_rejects_a_direction_of_another_shape(self):
        rng = np.random.default_rng(99)
        with pytest.raises(ShapeMismatchError, match="direction shape"):
            jvp_cross_attention(Matrix(rng.uniform(-1, 1, size=(8, 4))),
                                Matrix(rng.uniform(-1, 1, size=(4, 8))),
                                Matrix(rng.uniform(-1, 1, size=(5, 3))),
                                AttentionParams.seeded(4, 3, 4, 1))


class TestRidders:
    def test_extrapolation_beats_every_step(self):
        f, x, d = np.sin, np.array(0.7), np.array(1.0)
        diffs = [fd_directional(f, x, d, step) for step in (1e-1, 1e-2, 1e-3)]
        estimate, at = _ridders(diffs, 10.0)
        assert abs(estimate - np.cos(0.7)) < 1e-11
        assert min(abs(diff - np.cos(0.7)) for diff in diffs) > 1e-8
        assert at in (1, 2)

    def test_polynomial_of_degree_three_is_exact_after_one_order(self):
        # the central difference of x^3 errs by exactly h^2 * d^3: one order removes it
        f, x, d = (lambda m: m**3), np.array(2.0), np.array(1.0)
        diffs = [fd_directional(f, x, d, step) for step in (0.5, 0.25)]
        assert _ridders(diffs, 2.0) == (12.0, 1)

    def test_single_step_is_its_own_estimate(self):
        assert _ridders([3.5], 10.0) == (3.5, 0)


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

    def test_crossmodal_seed_at_the_central_difference_floor(self):
        # every central difference errs by about 1.05e-5 on one of these probes, above
        # GRAD_TOL, while the JVP is right; the extrapolated reference clears it by far
        (report,) = run_gradcheck(("crossmodal",), seed=3248800117070709450, probes=50)
        assert report.passed
        assert report.max_rel_err < 1e-6
        assert report.converged_fraction == 1.0

    @pytest.mark.parametrize("drop", ["dmu", "dsd", "weight"])
    def test_amp_normalize_op_catches_wrong_jvp(self, monkeypatch, drop):
        monkeypatch.setattr("freqadapt.gradcheck._normalize_jvp", normalize_jvp_without(drop))
        (report,) = run_gradcheck(("amp_normalize",), seed=0, probes=10)
        assert report.max_rel_err > 1e-3

    def test_amp_normalize_op_mutation_harness_is_faithful(self, monkeypatch):
        monkeypatch.setattr("freqadapt.gradcheck._normalize_jvp", normalize_jvp_without(None))
        (report,) = run_gradcheck(("amp_normalize",), seed=0, probes=10)
        assert report.max_rel_err < 1e-5

    @pytest.mark.parametrize("drop", ["dfn", "fn"])
    def test_spectral_ops_catch_wrong_amp_map_jvp(self, monkeypatch, drop):
        monkeypatch.setattr("freqadapt.gradcheck.amp_map_jvp", amp_map_jvp_without(drop))
        for report in run_gradcheck(("style", "crossmodal"), seed=0, probes=10):
            assert report.max_rel_err > 1e-3, report

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            run_gradcheck(("nope",), seed=0, probes=1)

    def test_rejects_zero_probes(self):
        with pytest.raises(ValueError):
            run_gradcheck(("silu",), seed=0, probes=0)
