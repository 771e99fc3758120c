import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import freqadapt.spectral
import freqadapt.synth
import freqadapt.tensor
from conftest import smooth_reference
from freqadapt.synth import gen_features

SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))


class TestSmooth:
    # planes smaller than the 5x5 kernel, odd and even sizes
    @settings(max_examples=150, deadline=None)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9)), seed=SEEDS)
    @example(shape=(1, 1, 1), seed=0)
    @example(shape=(2, 1, 7), seed=2**64 - 1)
    def test_bitwise_equal_to_per_channel_conv2d(self, shape, seed):
        got = gen_features("smooth", *shape, seed)
        assert got.data.tobytes() == smooth_reference(*shape, seed).data.tobytes()

    # planes whose padded (H + 5) x (W + 4) buffer lets only a few channels into a block:
    # even, odd and mixed sides, and sides of 1
    @pytest.mark.parametrize("height, width", [(126, 126), (127, 125), (128, 121), (1, 3121),
                                               (3120, 1)])
    def test_bitwise_equal_across_channel_blocks(self, monkeypatch, height, width):
        step = freqadapt.spectral._BLOCK_BYTES // (8 * (height + 5) * (width + 4))
        assert 2 <= step <= 5
        blocks = []
        real = freqadapt.synth._tap_sum

        def recorded(data, *args):
            blocks.append(data.shape[0])
            return real(data, *args)

        monkeypatch.setattr(freqadapt.synth, "_tap_sum", recorded)
        for channels in (step - 1, step, step + 1, 2 * step + 1):
            blocks.clear()
            got = gen_features("smooth", channels, height, width, 21)
            assert blocks == [step] * (channels // step) + [channels % step] * (channels % step > 0)
            want = smooth_reference(channels, height, width, 21)
            assert got.data.tobytes() == want.data.tobytes(), (channels, height, width)

    @pytest.mark.parametrize("shape, seed", [((16, 32, 32), 3), ((64, 56, 56), 11),
                                             ((256, 14, 14), 2**64 - 1)])
    def test_bitwise_equal_at_backbone_shapes(self, shape, seed):
        got = gen_features("smooth", *shape, seed)
        assert got.data.tobytes() == smooth_reference(*shape, seed).data.tobytes()

    def test_makes_no_conv2d_call(self, monkeypatch):
        calls = []
        real = freqadapt.tensor.conv2d

        def counted(*args):
            calls.append(args[1].shape)
            return real(*args)

        # both the module attribute and a name synth might import from it
        monkeypatch.setattr(freqadapt.tensor, "conv2d", counted)
        monkeypatch.setattr(freqadapt.synth, "conv2d", counted, raising=False)
        gen_features("smooth", 3, 8, 8, 5)
        assert calls == []

    def test_peak_memory_leaves_out_the_noise_map(self):
        # the noise map is freed once padded: the taps run on the padded buffer and two
        # (C, H*(W+4)) work buffers, and the bound leaves half a map of slack for the rest
        c, h, w = 64, 56, 56
        bound = 8 * (c * (h + 5) * (w + 4) + 2 * c * h * (w + 4) + c * h * w // 2)
        gen_features("smooth", c, h, w, 9)
        tracemalloc.start()
        try:
            gen_features("smooth", c, h, w, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)
