import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gamma_reference, normal_array_reference, uniforms_reference
from freqadapt.rng import (_GAMMA_WINDOW, _GOLDEN, _PAIR_CHUNK, SplitMix64,
                           _finalize, _finalize_words, mix_seed)
from freqadapt.style import sample_dirichlet

seeds = st.integers(min_value=0, max_value=2**64 - 1)
counts = st.integers(min_value=0, max_value=5000)
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def scalar_uniforms(rng, n, low, high):
    span = high - low
    return np.array([low + span * rng.uniform() for _ in range(n)], dtype=np.float64)


def scalar_normals(rng, n, scale):
    return np.array([scale * rng.normal() for _ in range(n)], dtype=np.float64)


def scalar_gammas(rng, shapes):
    return np.array([gamma_reference(rng, a) for a in shapes], dtype=np.float64)


def count_windows(monkeypatch):
    """Record the size of every ``_polar_window`` draw; returns the live list."""
    windows = []
    draw = SplitMix64._polar_window

    def counted(self, n):
        windows.append(n)
        return draw(self, n)

    monkeypatch.setattr(SplitMix64, "_polar_window", counted)
    return windows


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


class TestGamma:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.one_of(st.sampled_from([0, 2**64 - 1]), seeds), shape=gamma_shapes,
           as_numpy=st.booleans())
    def test_matches_the_reference(self, seed, shape, as_numpy):
        if as_numpy:
            shape = np.float64(shape)
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        assert same_bits(np.array([rng.gamma(shape)]), np.array([gamma_reference(ref, shape)]))
        assert rng._state == ref._state


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

    @pytest.mark.parametrize("k", [1, _GAMMA_WINDOW - 1, _GAMMA_WINDOW, _GAMMA_WINDOW + 1, 64])
    @pytest.mark.parametrize("shape", [0.05, 0.5, 1.0, 7.3, 900.0])
    def test_both_sides_of_the_crossover_match_the_reference(self, k, shape):
        for seed in (0, 9, 2**64 - 1):
            shapes = np.full(k, shape)
            vec, ref = SplitMix64(seed), SplitMix64(seed)
            assert same_bits(vec.gamma_array(shapes), scalar_gammas(ref, shapes))
            assert vec._state == ref._state

    @pytest.mark.parametrize("draw", [lambda a: SplitMix64(3).gamma_array(a),
                                      lambda a: sample_dirichlet(a, 3)],
                             ids=["gamma_array", "sample_dirichlet"])
    def test_the_window_starts_at_the_crossover(self, monkeypatch, draw):
        windows = count_windows(monkeypatch)
        draw(np.ones(_GAMMA_WINDOW - 1))
        assert windows == []
        draw(np.ones(_GAMMA_WINDOW))
        assert len(windows) == 1

    def test_window_extends(self, monkeypatch):
        # below shape 1 a component takes about 4.7 words, more than the 4 per
        # component the first window holds, so 300 of them run past it
        windows = count_windows(monkeypatch)
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


# states from which the stream wraps mod 2**64 at once or within a few words:
# from (-k * golden) mod 2**64, word k is the finalizer of 0
WRAP_STATES = [0, 2**64 - 1, 2**64 - 2, -_GOLDEN % 2**64, -3 * _GOLDEN % 2**64,
               -2 * _PAIR_CHUNK * _GOLDEN % 2**64]


def chunk_ends(seed, chunks):
    """Variates accepted by the first 1, 2, ... ``chunks`` full chunks of polar pairs from ``seed``."""
    uv = uniforms_reference(SplitMix64(seed), 2 * _PAIR_CHUNK * chunks)
    uv *= 2.0
    uv -= 1.0
    u, v = uv[0::2], uv[1::2]
    s = u * u + v * v
    return np.cumsum(((0.0 < s) & (s < 1.0)).reshape(chunks, -1).sum(axis=1))


class TestAgainstTheUnpairedDraws:
    """normal_array and _uniforms give the bits and the state of the interleaved draws they replaced."""

    @pytest.mark.parametrize("seed", WRAP_STATES)
    def test_normal_array_on_both_sides_of_chunk_boundaries(self, seed):
        # a draw of ends[k] variates takes k + 1 full chunks exactly; one more starts another.
        # 6138 is the smallest count whose first chunk holds all _PAIR_CHUNK pairs
        ends = chunk_ends(seed, 3)
        assert ends[0] > 6138
        for n in sorted({0, 1, 2, 6137, 6138, *(int(e) + d for e in ends for d in (-1, 0, 1))}):
            vec, ref = SplitMix64(seed), SplitMix64(seed)
            assert same_bits(vec.normal_array(n, 0.3), normal_array_reference(ref, n, 0.3)), n
            assert vec._state == ref._state, n

    @pytest.mark.parametrize("seed", WRAP_STATES)
    def test_uniforms(self, seed):
        for n in (0, 1, 2, 7, 2 * _PAIR_CHUNK, 2 * _PAIR_CHUNK + 1):
            vec, ref = SplitMix64(seed), SplitMix64(seed)
            assert same_bits(vec._uniforms(n), uniforms_reference(ref, n)), n
            assert vec._state == ref._state, n

    @pytest.mark.parametrize("shape", [0.5, 1.0, 7.3])
    @pytest.mark.parametrize("seed", WRAP_STATES)
    def test_gamma_array_windows(self, monkeypatch, seed, shape):
        # 300 components at shape 0.5 run past the first window and draw a second
        shapes = np.full(300, shape)
        ref = SplitMix64(seed)
        with monkeypatch.context() as patch:
            patch.setattr(SplitMix64, "_uniforms", uniforms_reference)
            want = ref.gamma_array(shapes)
        vec = SplitMix64(seed)
        assert same_bits(vec.gamma_array(shapes), want)
        assert vec._state == ref._state


class TestNormalParts:
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_bitwise_equals_one_scaled_draw_per_part(self, seed):
        shapes, scales = [(3, 4), (1,), (2, 2, 5, 5), (7, 1)], [0.5, 3.0, 1.0 / 75, 1.0 / 3.0]
        vec, ref = SplitMix64(seed), SplitMix64(seed)
        parts = vec.normal_parts(shapes, scales)
        for part, shape, scale in zip(parts, shapes, scales):
            want = ref.normal_array(int(np.prod(shape)), scale).reshape(shape)
            assert part.shape == shape and same_bits(part, want)
        assert vec._state == ref._state

    def test_parts_are_writeable_views_of_one_draw(self):
        parts = SplitMix64(4).normal_parts([(2, 3), (4,)], [1.0, 2.0])
        base = parts[0].base
        assert base is not None and all(part.base is base for part in parts)
        assert all(part.flags.writeable and part.flags.c_contiguous for part in parts)
        assert not base.flags.writeable
        parts[1].flags.writeable = False
        with pytest.raises(ValueError):
            parts[1].flags.writeable = True


class TestFinalize:
    @settings(max_examples=200, deadline=None)
    @given(word=seeds)
    @example(word=0)
    @example(word=1)
    @example(word=2**64 - 1)
    def test_int_and_uint64_array_agree(self, word):
        arr = np.array([word], dtype=np.uint64)
        mixed = _finalize_words(arr, np.empty_like(arr))
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


def test_mix_seed_is_distinct_per_index_and_repeatable():
    # apply_stage's per-stage seeds: one base seed, stage indices 1..3, in any order
    seeds = [mix_seed(9, i) for i in (1, 2, 3)]
    assert len(set(seeds)) == 3
    assert seeds == [mix_seed(9, i) for i in (3, 2, 1)][::-1]
