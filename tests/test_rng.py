import numpy as np
import pytest
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


def scalar_gammas(rng, shapes):
    return np.array([rng.gamma(a) for a in shapes], dtype=np.float64)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


gamma_shapes = st.one_of(
    st.floats(min_value=1e-3, max_value=1.0, exclude_max=True),
    st.just(1.0),
    st.floats(min_value=1.0, max_value=1e3),
)


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


class TestGammaArray:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.one_of(st.sampled_from([0, 2**64 - 1]), seeds),
           shapes=st.lists(gamma_shapes, min_size=1, max_size=300),
           as_array=st.booleans())
    def test_matches_the_scalar_stream(self, seed, shapes, as_array):
        if as_array:  # sample_dirichlet passes an array: its elements are numpy floats
            shapes = np.asarray(shapes)
        vec, twin = SplitMix64(seed), SplitMix64(seed)
        assert same_bits(vec.gamma_array(shapes), scalar_gammas(twin, shapes))
        assert vec._state == twin._state
        assert vec.next_u64() == twin.next_u64()

    def test_window_extends(self, monkeypatch):
        # below shape 1 a component takes about 4.7 words, more than the 4 per
        # component the first window holds, so 300 of them run past it
        windows = []
        draw = SplitMix64._polar_window

        def counted(self, n):
            windows.append(n)
            return draw(self, n)

        monkeypatch.setattr(SplitMix64, "_polar_window", counted)
        shapes = np.full(300, 0.5)
        vec, twin = SplitMix64(17), SplitMix64(17)
        assert same_bits(vec.gamma_array(shapes), scalar_gammas(twin, shapes))
        assert vec._state == twin._state
        assert windows[:2] == [1208, 2416]

    def test_bad_shape_is_rejected_before_any_draw(self):
        rng = SplitMix64(5)
        with pytest.raises(ValueError, match="gamma shape must be > 0, got 0.0"):
            rng.gamma_array([1.0, 2.0, 0.0])
        assert rng._state == 5

    def test_empty_draw_leaves_the_state(self):
        rng = SplitMix64(5)
        assert same_bits(rng.gamma_array([]), np.array([], dtype=np.float64))
        assert rng._state == 5


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
