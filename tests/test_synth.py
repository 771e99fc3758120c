import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
