import numpy as np
import pytest

import freqadapt.adapter
from conftest import seeded_reference
from freqadapt import (
    AdapterWeights,
    FeatureMap,
    PlacementConfig,
    ShapeMismatchError,
    adapter_forward,
    apply_stage,
    conv2d,
    run_stack,
    silu,
    style_transform,
)
from freqadapt.rng import SplitMix64, mix_seed


# the default shape, then planes smaller than the 7x7 kernel
SHAPES = [(3, 6, 6), (1, 1, 1), (2, 1, 7), (3, 5, 4)]


def rand_map(rng, c=3, h=6, w=6):
    return FeatureMap(rng.uniform(-1, 1, size=(c, h, w)))


def stepwise_activation(x, w):
    """silu(agg(mean(conv3, conv5, conv7))), one convolution per branch."""
    avg = (conv2d(x, w.k3).data + conv2d(x, w.k5).data + conv2d(x, w.k7).data) / 3.0
    return silu(conv2d(FeatureMap(avg), w.agg))


def five_draw_weights(channels, seed):
    """One normal_array call per kernel, 3/5/7/agg/proj in that order."""
    rng = SplitMix64(seed)

    def draw(k):
        scale = 1.0 / (channels * k * k)
        return rng.normal_array(channels * channels * k * k, scale=scale).reshape(
            channels, channels, k, k)

    eye = np.eye(channels)[:, :, None, None]
    return draw(3), draw(5), draw(7), draw(1), eye + 0.1 * draw(1)


class TestSeededWeights:
    @pytest.mark.parametrize("channels", [1, 2, 3, 16])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_bitwise_equals_five_draws(self, channels, seed):
        w = AdapterWeights.seeded(channels, seed)
        got = (w.k3, w.k5, w.k7, w.agg, w.proj)
        for name, a, b in zip(("k3", "k5", "k7", "agg", "proj"), got,
                              five_draw_weights(channels, seed)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("channels", [1, 2, 3, 16])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_bitwise_equals_the_copying_constructor(self, channels, seed):
        w, want = AdapterWeights.seeded(channels, seed), seeded_reference(channels, seed)
        for name in ("k3", "k5", "k7", "agg", "proj"):
            a, b = getattr(w, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_arrays_are_read_only(self):
        # views of the one draw, which is read-only too, so no view can be made writeable
        w = AdapterWeights.seeded(3, 11)
        for name in ("k3", "k5", "k7", "agg", "proj"):
            arr = getattr(w, name)
            assert arr.dtype == np.float64 and arr.flags.c_contiguous
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[(0,) * 4] = 1.0
            with pytest.raises(ValueError):
                arr.flags.writeable = True

    def test_one_normal_draw_per_block(self, monkeypatch):
        calls = []
        real = SplitMix64.normal_array

        def counted(self, n, scale=1.0):
            calls.append(n)
            return real(self, n, scale)

        monkeypatch.setattr(SplitMix64, "normal_array", counted)
        AdapterWeights.seeded(4, 3)
        assert calls == [4 * 4 * (9 + 25 + 49 + 1 + 1)]

    def test_zero_channels_rejected(self):
        # no valid map has zero channels to meet these weights
        with pytest.raises(ValueError):
            AdapterWeights.zero_identity(0)
        with pytest.raises(ValueError):
            AdapterWeights.seeded(0, 3)


class TestAdapterForward:
    def test_zero_weights_identity(self):
        rng = np.random.default_rng(70)
        for shape in SHAPES:
            x = rand_map(rng, *shape)
            out = adapter_forward(x, AdapterWeights.zero_identity(shape[0]))
            assert np.array_equal(out.data, x.data), shape

    def test_identity_augment_equals_style_identity_hook(self):
        rng = np.random.default_rng(71)
        x = rand_map(rng)
        w = AdapterWeights.seeded(3, 5)
        plain = adapter_forward(x, w)
        hooked = adapter_forward(x, w, augment=lambda fm: style_transform(fm, 0.0, 1.0))
        assert np.abs(plain.data - hooked.data).max() < 1e-9

    def test_matches_stepwise_composition(self):
        # the three-branch block, run branch by branch, is the oracle for the fused kernel
        rng = np.random.default_rng(72)
        for shape in SHAPES:
            x = rand_map(rng, *shape)
            w = AdapterWeights.seeded(shape[0], 6)
            want = conv2d(FeatureMap(x.data + stepwise_activation(x, w).data), w.proj)
            got = adapter_forward(x, w)
            assert np.abs(got.data - want.data).max() < 1e-10, shape

    def test_one_convolution_per_block(self, monkeypatch):
        calls = []
        real = freqadapt.adapter.conv2d

        def counted(*args):
            calls.append(args[1].shape)
            return real(*args)

        monkeypatch.setattr(freqadapt.adapter, "conv2d", counted)
        adapter_forward(rand_map(np.random.default_rng(75)), AdapterWeights.seeded(3, 8))
        assert calls == [(3, 3, 7, 7)]

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            adapter_forward(FeatureMap(np.zeros((2, 6, 6))), AdapterWeights.zero_identity(3))

    def test_shape_changing_augment_rejected(self):
        rng = np.random.default_rng(74)
        x = rand_map(rng)
        w = AdapterWeights.zero_identity(3)
        bad = lambda fm: FeatureMap(np.zeros((3, 2, 2)))
        with pytest.raises(ShapeMismatchError):
            adapter_forward(x, w, augment=bad)


class TestPlacement:
    def test_all_none_is_bitwise_passthrough(self):
        rng = np.random.default_rng(75)
        stages = [rand_map(rng) for _ in range(3)]
        cfg = PlacementConfig(stage_assignments={}, seed=1)
        out = run_stack(stages, cfg)
        for a, b in zip(out, stages):
            assert np.array_equal(a.data, b.data)

    def test_default_leaves_stage2_untouched(self):
        rng = np.random.default_rng(76)
        stages = [rand_map(rng) for _ in range(3)]
        out = run_stack(stages, PlacementConfig(seed=2))
        assert np.array_equal(out[1].data, stages[1].data)
        assert not np.array_equal(out[0].data, stages[0].data)
        assert not np.array_equal(out[2].data, stages[2].data)

    def test_repeated_runs_bitwise(self):
        rng = np.random.default_rng(77)
        stages = [rand_map(rng) for _ in range(3)]
        cfg = PlacementConfig(stage_assignments={1: "style"}, seed=3)
        a = run_stack(stages, cfg)
        b = run_stack(stages, cfg)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.data, fb.data)

    def test_apply_stage_in_any_order(self):
        rng = np.random.default_rng(78)
        stages = [rand_map(rng) for _ in range(3)]
        cfg = PlacementConfig(seed=4)
        expected = run_stack(stages, cfg)
        shuffled = {i: apply_stage(stages[i - 1], cfg, i) for i in (3, 1, 2)}
        for i in (1, 2, 3):
            assert np.array_equal(shuffled[i].data, expected[i - 1].data)

    def test_plain_and_crossmodal_kinds(self):
        rng = np.random.default_rng(79)
        stages = [rand_map(rng) for _ in range(3)]
        cfg = PlacementConfig(stage_assignments={1: "plain", 2: "crossmodal"}, seed=5)
        out = run_stack(stages, cfg)
        assert not np.array_equal(out[0].data, stages[0].data)
        assert not np.array_equal(out[1].data, stages[1].data)
        assert np.array_equal(out[2].data, stages[2].data)

    def test_stage_count_mismatch_rejected(self):
        rng = np.random.default_rng(80)
        with pytest.raises(ShapeMismatchError):
            run_stack([rand_map(rng)], PlacementConfig(seed=0))

    def test_out_of_range_stage_rejected(self):
        with pytest.raises(ValueError):
            PlacementConfig(stage_assignments={4: "style"})
        cfg = PlacementConfig(seed=0)
        with pytest.raises(ValueError):
            apply_stage(FeatureMap(np.zeros((1, 2, 2))), cfg, 4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PlacementConfig(stage_assignments={1: "mystery"})

    def test_mix_seed_distinct_streams(self):
        base = 123456789
        derived = {mix_seed(base, i) for i in range(64)}
        assert len(derived) == 64

    def test_deep_stack_placement(self):
        # transformer-style insertion: 12 layers, style after the 4th,
        # cross-modal after the 8th
        rng = np.random.default_rng(81)
        stages = [rand_map(rng, 2, 4, 4) for _ in range(12)]
        cfg = PlacementConfig(
            stage_assignments={4: "style", 8: "crossmodal"}, seed=6, num_stages=12
        )
        out = run_stack(stages, cfg)
        for i in range(12):
            if i in (3, 7):
                assert not np.array_equal(out[i].data, stages[i].data)
            else:
                assert np.array_equal(out[i].data, stages[i].data)
