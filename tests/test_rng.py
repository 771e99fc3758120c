import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqadapt.rng import SplitMix64, _finalize

seeds = st.integers(min_value=0, max_value=2**64 - 1)
counts = st.integers(min_value=0, max_value=5000)
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def scalar_uniforms(rng, n, low, high):
    span = high - low
    return np.array([low + span * rng.uniform() for _ in range(n)], dtype=np.float64)


def scalar_normals(rng, n, scale):
    return np.array([scale * rng.normal() for _ in range(n)], dtype=np.float64)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestArraySamplersMatchScalarStreams:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.one_of(st.sampled_from([0, 2**64 - 1]), seeds), n=counts,
           low=finite, high=finite)
    def test_uniform_array(self, seed, n, low, high):
        vec, twin = SplitMix64(seed), SplitMix64(seed)
        assert same_bits(vec.uniform_array(n, low, high), scalar_uniforms(twin, n, low, high))
        assert vec._state == twin._state

    @settings(max_examples=60, deadline=None)
    @given(seed=st.one_of(st.sampled_from([0, 2**64 - 1]), seeds), n=counts,
           scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_normal_array(self, seed, n, scale):
        vec, twin = SplitMix64(seed), SplitMix64(seed)
        assert same_bits(vec.normal_array(n, scale), scalar_normals(twin, n, scale))
        assert vec._state == twin._state

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, calls=st.lists(
        st.tuples(st.sampled_from(["uniform", "normal", "uniform_array", "normal_array"]),
                  st.integers(min_value=0, max_value=300)),
        max_size=12))
    def test_interleaved_calls_continue_one_stream(self, seed, calls):
        mixed, twin = SplitMix64(seed), SplitMix64(seed)
        for kind, n in calls:
            if kind == "uniform":
                assert mixed.uniform() == twin.uniform()
            elif kind == "normal":
                assert mixed.normal() == twin.normal()
            elif kind == "uniform_array":
                assert same_bits(mixed.uniform_array(n, -1.0, 1.0),
                                 scalar_uniforms(twin, n, -1.0, 1.0))
            else:
                assert same_bits(mixed.normal_array(n, 0.5), scalar_normals(twin, n, 0.5))
            assert mixed._state == twin._state

    def test_long_normal_stream_spans_chunks(self):
        # 30000 variates need more polar pairs than one vectorized chunk holds
        vec, twin = SplitMix64(2**64 - 1), SplitMix64(2**64 - 1)
        assert same_bits(vec.normal_array(30000), scalar_normals(twin, 30000, 1.0))
        assert vec._state == twin._state

    def test_normal_array_takes_no_per_element_log(self, monkeypatch):
        # a per-element math.log finish would raise here; the array path must not need one
        def no_math_log(x):
            raise AssertionError("normal_array called math.log")

        monkeypatch.setattr("freqadapt.rng.math.log", no_math_log)
        vals = SplitMix64(11).normal_array(30000)
        assert vals.shape == (30000,) and np.all(np.isfinite(vals))


class TestFinalize:
    @settings(max_examples=200, deadline=None)
    @given(word=seeds)
    @example(word=0)
    @example(word=1)
    @example(word=2**64 - 1)
    def test_int_and_uint64_array_agree(self, word):
        arr = np.array([word], dtype=np.uint64)
        mixed = _finalize(arr)
        assert mixed is arr  # array words are finalized in place
        assert int(mixed[0]) == _finalize(word)
        assert 0 <= _finalize(word) < 2**64


def test_uniform_array_is_fresh_and_writable():
    rng = SplitMix64(3)
    first = rng.uniform_array(100, -1.0, 1.0)
    kept = first.copy()
    assert first.flags.writeable and first.flags.owndata
    later = [rng.uniform_array(100, -1.0, 1.0), rng.normal_array(100), rng.uniform_array(0)]
    rng.uniform()
    rng.normal()
    assert first.tobytes() == kept.tobytes()
    assert not any(np.shares_memory(first, arr) for arr in later)
