import copy
import pickle
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import channel_blocks, conv2d_reference, outcome, softmax_rows_reference
from freqadapt import (
    AdapterWeights,
    AttentionParams,
    FeatureMap,
    Matrix,
    NonFiniteResultError,
    ShapeMismatchError,
    adapter_forward,
    amp_map,
    conv2d,
    cross_attention,
    silu,
    softmax_rows,
)
from freqadapt.tensor import _sigmoid


def conv2d_naive(x, kernel, padding):
    """Six-nested-loop reference convolution, zero padded."""
    c_out, c_in, k, _ = kernel.shape
    _, h, w = x.shape
    out = np.zeros((c_out, h, w))
    for co in range(c_out):
        for oh in range(h):
            for ow in range(w):
                acc = 0.0
                for ci in range(c_in):
                    for ky in range(k):
                        for kx in range(k):
                            iy = oh + ky - padding
                            ix = ow + kx - padding
                            if 0 <= iy < h and 0 <= ix < w:
                                acc += x[ci, iy, ix] * kernel[co, ci, ky, kx]
                out[co, oh, ow] = acc
    return out


# every type that stores arrays: its constructor and the shape of each array field
GUARDED = {
    "FeatureMap": (FeatureMap, {"data": (2, 3, 4)}),
    "Matrix": (Matrix, {"data": (3, 4)}),
    "AttentionParams": (AttentionParams, {"wq": (3, 2), "wk": (4, 2), "wv": (4, 2), "wo": (2, 3)}),
    "AdapterWeights": (AdapterWeights, {"k3": (2, 2, 3, 3), "k5": (2, 2, 5, 5),
                                        "k7": (2, 2, 7, 7), "agg": (2, 2, 1, 1),
                                        "proj": (2, 2, 1, 1)}),
}

# each weight set's cross-array shape checks: one array of GUARDED's replaced by one
# of this shape, and a name the error message must contain
MISMATCHED = {
    "AttentionParams": [("wk", (4, 3), "wk"), ("wv", (4, 1), "wv"), ("wv", (5, 2), "wv"),
                        ("wk", (3, 2), "wk")],
    "AdapterWeights": [("k5", (3, 3, 5, 5), "k5"), ("k7", (2, 2, 5, 5), "k7"),
                       ("agg", (2, 3, 1, 1), "agg"), ("k3", (3, 3, 3, 3), "k5")],
}


# the weight sets built by their seeded draws, at GUARDED's field names
SEEDED = {
    "AttentionParams": (lambda: AttentionParams.seeded(3, 3, 2, 7),),
    "AdapterWeights": (lambda: AdapterWeights.seeded(2, 7),),
}


@pytest.mark.parametrize("kind", GUARDED)
class TestArrayGuard:
    """The one array guard, as every container and weight set applies it."""

    def fields(self, kind):
        rng = np.random.default_rng(3)
        return {name: rng.uniform(-1, 1, size=shape) for name, shape in GUARDED[kind][1].items()}

    def each_bad_field(self, kind, corrupt):
        """The fields with one array replaced by ``corrupt(array)``, for each field in turn."""
        for name, arr in self.fields(kind).items():
            yield {**self.fields(kind), name: corrupt(arr)}

    def test_copies_its_input(self, kind):
        build, _ = GUARDED[kind]
        fields = self.fields(kind)
        before = {name: arr.copy() for name, arr in fields.items()}
        obj = build(**fields)
        for arr in fields.values():
            arr += 1.0
        for name, arr in before.items():
            assert np.array_equal(getattr(obj, name), arr), name

    def test_immutable(self, kind):
        build, _ = GUARDED[kind]
        obj = build(**self.fields(kind))
        for name in GUARDED[kind][1]:
            stored = getattr(obj, name)
            assert stored.dtype == np.float64 and stored.flags.c_contiguous, name
            with pytest.raises(ValueError):
                stored.flat[0] = 1.0

    def test_accepts_arrays_in_order(self, kind):
        build, _ = GUARDED[kind]
        fields = self.fields(kind)
        obj = build(*fields.values())
        for name, arr in fields.items():
            assert getattr(obj, name).tobytes() == arr.tobytes(), name

    def test_copies_and_pickles(self, kind):
        # made by the constructor, adopted, and, for a weight set, seeded
        build, _ = GUARDED[kind]
        made = [build(**self.fields(kind)), build._adopt(*self.fields(kind).values())]
        made += [seed() for seed in SEEDED.get(kind, ())]
        for obj in made:
            for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert type(twin) is type(obj)
                for name in GUARDED[kind][1]:
                    assert getattr(twin, name).tobytes() == getattr(obj, name).tobytes(), name
                    assert not getattr(twin, name).flags.writeable, name

    def test_accepts_lists(self, kind):
        build, _ = GUARDED[kind]
        fields = self.fields(kind)
        obj = build(**{name: arr.tolist() for name, arr in fields.items()})
        for name, arr in fields.items():
            assert getattr(obj, name).tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nan(self, kind, bad):
        build, _ = GUARDED[kind]

        def corrupt(arr):
            arr.flat[-1] = bad
            return arr

        for fields in self.each_bad_field(kind, corrupt):
            with pytest.raises(ValueError, match="finite"):
                build(**fields)

    def test_rejects_wrong_ndim(self, kind):
        build, _ = GUARDED[kind]
        for corrupt in (lambda a: a[None], lambda a: a[0]):
            for fields in self.each_bad_field(kind, corrupt):
                with pytest.raises(ShapeMismatchError):
                    build(**fields)

    def test_rejects_empty_axis(self, kind):
        build, _ = GUARDED[kind]
        for fields in self.each_bad_field(kind, lambda a: a[:0]):
            with pytest.raises(ValueError, match="axes must be >= 1"):
                build(**fields)


def weight_set(kind, **replaced):
    """The GUARDED weight set ``kind`` built from ones, with the ``replaced`` arrays."""
    build, shapes = GUARDED[kind]
    return build(**{**{name: np.ones(shape) for name, shape in shapes.items()}, **replaced})


@pytest.mark.parametrize("kind", MISMATCHED)
def test_weight_set_rejects_mismatched_shapes(kind):
    for name, shape, named in MISMATCHED[kind]:
        with pytest.raises(ShapeMismatchError, match=named):
            weight_set(kind, **{name: np.ones(shape)})


@pytest.mark.parametrize("kind", GUARDED)
def test_weight_set_is_read_only(kind):
    # constructed, adopted and unpickled: no field of any of them can be replaced or removed
    build, shapes = GUARDED[kind]
    made = weight_set(kind)
    adopted = build._adopt(*(np.ones(shape) for shape in shapes.values()))
    for obj in (made, adopted, pickle.loads(pickle.dumps(made))):
        for name, shape in shapes.items():
            kept = getattr(obj, name)
            with pytest.raises(AttributeError, match=f"{kind}.{name} is read-only"):
                setattr(obj, name, np.full(shape, np.nan))
            with pytest.raises(AttributeError, match=f"{kind}.{name} is read-only"):
                delattr(obj, name)
            assert getattr(obj, name) is kept and not kept.flags.writeable
            assert np.array_equal(kept, np.ones(shape))
        with pytest.raises(AttributeError):
            obj.extra = 1


@pytest.mark.parametrize("kind", MISMATCHED)
def test_weight_set_takes_each_named_array_once(kind):
    build, shapes = GUARDED[kind]
    arrays = {name: np.ones(shape) for name, shape in shapes.items()}
    first, *rest = arrays
    calls = [
        lambda: build(**{name: arrays[name] for name in rest}),  # one missing
        lambda: build(**arrays, extra=np.ones(1)),  # one unknown
        lambda: build(arrays[first], **arrays),  # the first twice
        lambda: build(*arrays.values(), np.ones(1)),  # one too many in order
    ]
    for call in calls:
        with pytest.raises(TypeError, match=f"{kind} takes the arrays"):
            call()


class TestAdoption:
    """Arrays the library computes are frozen in place after the constructor's checks."""

    def fresh(self, shape=(2, 3, 4)):
        return np.random.default_rng(4).uniform(-1, 1, size=shape)

    def test_adopts_a_fresh_array_without_a_copy(self):
        for kind, shape in ((FeatureMap, (2, 3, 4)), (Matrix, (3, 4))):
            arr = self.fresh(shape)
            obj = kind._adopt(arr)
            assert type(obj) is kind and obj.data is arr
            assert not arr.flags.writeable

    def test_copies_what_it_cannot_own(self):
        base = self.fresh((4, 3, 4))
        cases = {
            "view": base[:2],
            "reshaped view": base.reshape(-1).reshape(4, 3, 4),
            "non-owning buffer": np.frombuffer(base.tobytes()).reshape(4, 3, 4),
            "float32": base.astype(np.float32),
            "fortran order": np.asfortranarray(base),
        }
        for name, arr in cases.items():
            writeable = arr.flags.writeable
            obj = FeatureMap._adopt(arr)
            assert not np.shares_memory(obj.data, arr), name
            assert arr.flags.writeable == writeable, name
            assert obj.data.dtype == np.float64 and obj.data.flags.c_contiguous, name
            assert not obj.data.flags.writeable, name
            assert obj.data.tobytes() == FeatureMap(arr).data.tobytes(), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_like_the_constructor(self, bad):
        # the same text, but a computed array that is not finite is a result the
        # library cannot represent, while the constructor rejects its input
        arr = self.fresh()
        arr[1, 2, 3] = bad
        assert outcome(FeatureMap, arr) == (ValueError, "FeatureMap values must be finite")
        for adopted in (arr, arr[:, ::2]):  # adopted in place, and copied first
            assert outcome(FeatureMap._adopt, adopted) == \
                (NonFiniteResultError, "FeatureMap values must be finite")

    def test_rejects_bad_shapes_like_the_constructor(self):
        for arr in (self.fresh((3, 4)), self.fresh((1, 2, 3, 4)), self.fresh((2, 0, 4))):
            want = outcome(FeatureMap, arr)
            assert isinstance(want, tuple) and want[0] in (ShapeMismatchError, ValueError)
            assert outcome(FeatureMap._adopt, arr) == want

    def test_request_path_outputs_are_their_own(self):
        x = FeatureMap(self.fresh())
        w = AdapterWeights.seeded(2, 7)
        tokens = Matrix(self.fresh((5, 3)))
        p = AttentionParams.seeded(3, 3, 2, 7)
        # the identity amplitude map included: its output still owns a buffer of its own
        for inp, out in ((x, amp_map(x, lambda a: a)), (x, silu(x)), (x, adapter_forward(x, w)),
                         (x, adapter_forward(x, w, silu)), (tokens, softmax_rows(tokens)),
                         (tokens, cross_attention(tokens, tokens, p))):
            assert not out.data.flags.writeable and out.data.flags.owndata
            assert not np.shares_memory(out.data, inp.data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_amp_map_non_finite_result_raises(self, bad):
        x = FeatureMap(self.fresh((5, 3, 4)))

        def last_channel(a, channels):  # non-finite in the last block only
            return a + np.where(np.arange(channels.start, channels.stop) == 4, bad, 0.0)[:, None, None]

        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NonFiniteResultError, match="FeatureMap values must be finite"):
                amp_map(x, lambda a: a + bad)
            for per_block in (1, 2, 3):
                with channel_blocks(per_block, x.shape):
                    for fn in (lambda a, channels: a + bad, last_channel):
                        with pytest.raises(NonFiniteResultError,
                                           match="FeatureMap values must be finite"):
                            amp_map(x, fn, per_channel=True)


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = FeatureMap(rng.uniform(-1, 1, size=(1, 5, 5)))
        kernel = np.ones((1, 1, 1, 1))
        out = conv2d(x, kernel)
        assert np.array_equal(out.data, x.data)

    def test_constant_map_border(self):
        x = FeatureMap(np.full((1, 4, 4), 2.0))
        kernel = np.full((1, 1, 3, 3), 1.0 / 9.0)
        out = conv2d(x, kernel)
        assert out.data[0, 1, 1] == pytest.approx(2.0, abs=1e-12)
        assert out.data[0, 0, 0] == pytest.approx(2.0 * 4.0 / 9.0, abs=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        # then planes smaller than the kernel, where most taps fall in the zero padding
        cases = [((3, 4, 4), 3)] + [(shape, k) for shape in [(1, 1, 1), (2, 1, 7), (3, 5, 4)]
                                    for k in (1, 3, 5, 7)]
        for shape, k in cases:
            x = rng.uniform(-1, 1, size=shape)
            kernel = rng.uniform(-1, 1, size=(2, shape[0], k, k))
            got = conv2d(FeatureMap(x), kernel).data
            want = conv2d_naive(x, kernel, (k - 1) // 2)
            assert np.abs(got - want).max() < 1e-12, (shape, k)

    @settings(max_examples=80, deadline=None)
    @given(c_in=st.integers(1, 4), c_out=st.integers(1, 4), h=st.integers(1, 9),
           w=st.integers(1, 9), k=st.sampled_from([1, 3, 5, 7]), seed=st.integers(0, 2**32 - 1))
    # each k on a plane smaller than the kernel, and on H = 1 and W = 1
    @example(c_in=2, c_out=3, h=1, w=1, k=1, seed=1)
    @example(c_in=2, c_out=3, h=2, w=2, k=3, seed=2)
    @example(c_in=2, c_out=3, h=3, w=4, k=5, seed=3)
    @example(c_in=2, c_out=3, h=5, w=6, k=7, seed=4)
    @example(c_in=3, c_out=2, h=1, w=9, k=5, seed=5)
    @example(c_in=3, c_out=2, h=9, w=1, k=7, seed=6)
    def test_matches_naive_loop_property(self, c_in, c_out, h, w, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=(c_in, h, w))
        kernel = rng.uniform(-1, 1, size=(c_out, c_in, k, k))
        got = conv2d(FeatureMap(x), kernel).data
        assert got.shape == (c_out, h, w)
        assert got.flags.c_contiguous and not got.flags.writeable
        assert np.abs(got - conv2d_naive(x, kernel, (k - 1) // 2)).max() < 1e-12
        assert got.tobytes() == conv2d_reference(FeatureMap(x), kernel).data.tobytes()

    def test_stack_shape_matches_reference_bits(self):
        # the 7x7 fused adapter kernel on a 16x32x32 map, as every apply stack block runs it
        rng = np.random.default_rng(7)
        x = FeatureMap(rng.uniform(-1, 1, size=(16, 32, 32)))
        kernel = rng.uniform(-1, 1, size=(16, 16, 7, 7))
        assert conv2d(x, kernel).data.tobytes() == conv2d_reference(x, kernel).data.tobytes()

    def test_four_threads_match_reference_bits(self):
        # each thread runs a shape all four share, on data of its own, and every fourth call
        # a shape of its own, which replaces its buffers; the maps are large enough that
        # numpy releases the GIL inside the taps
        rng = np.random.default_rng(41)

        def case(shape, c_out, k):
            return (FeatureMap(rng.uniform(-1, 1, size=shape)),
                    rng.uniform(-1, 1, size=(c_out, shape[0], k, k)))

        shared = [case((8, 32, 32), 8, 7) for _ in range(4)]
        distinct = [case(*spec) for spec in [((8, 24, 24), 8, 5), ((6, 20, 28), 4, 3),
                                             ((4, 31, 9), 6, 7), ((2, 5, 7), 3, 1)]]
        wants = {id(c): conv2d_reference(*c).data.tobytes() for c in shared + distinct}
        mismatches = []
        barrier = threading.Barrier(4)

        def run(i):
            barrier.wait()
            for r in range(40):
                c = distinct[i] if r % 4 == 0 else shared[i]
                if conv2d(*c).data.tobytes() != wants[id(c)]:
                    mismatches.append((i, r))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_result_is_its_own_array(self):
        # a later call at the same shape reuses the work buffers, not the result
        rng = np.random.default_rng(42)
        kernel = rng.uniform(-1, 1, size=(3, 2, 5, 5))
        x, y = (FeatureMap(rng.uniform(-1, 1, size=(2, 6, 7))) for _ in range(2))
        first = conv2d(x, kernel).data
        kept = first.tobytes()
        second = conv2d(y, kernel).data
        assert first.flags.owndata and second.flags.owndata
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept == conv2d_reference(x, kernel).data.tobytes()
        assert second.tobytes() == conv2d_reference(y, kernel).data.tobytes()

    def test_new_shape_after_old_matches_reference(self):
        # one map shape with a new kernel size, then a new output count, then larger and
        # smaller planes and channel counts, then the first again: a stale buffer, or a
        # border written by a larger map, would show in the bits
        rng = np.random.default_rng(43)
        for shape, c_out, k in [((2, 6, 6), 2, 3), ((2, 6, 6), 2, 5), ((2, 6, 6), 3, 5),
                                ((2, 9, 4), 3, 7), ((3, 3, 3), 1, 5), ((2, 9, 4), 2, 1),
                                ((2, 6, 6), 2, 3)]:
            x = FeatureMap(rng.uniform(-1, 1, size=shape))
            kernel = rng.uniform(-1, 1, size=(c_out, shape[0], k, k))
            assert conv2d(x, kernel).data.tobytes() == conv2d_reference(x, kernel).data.tobytes()

    def test_linearity(self):
        rng = np.random.default_rng(2)
        kernel = rng.uniform(-1, 1, size=(2, 2, 3, 3))
        x = rng.uniform(-1, 1, size=(2, 5, 5))
        y = rng.uniform(-1, 1, size=(2, 5, 5))
        a, b = 1.7, -0.4
        lhs = conv2d(FeatureMap(a * x + b * y), kernel).data
        rhs = a * conv2d(FeatureMap(x), kernel).data + b * conv2d(FeatureMap(y), kernel).data
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() / scale < 1e-9

    def test_rejects_even_kernel(self):
        x = FeatureMap(np.zeros((1, 4, 4)))
        with pytest.raises(ValueError):
            conv2d(x, np.zeros((1, 1, 2, 2)))

    def test_rejects_channel_mismatch(self):
        x = FeatureMap(np.zeros((2, 4, 4)))
        with pytest.raises(ShapeMismatchError):
            conv2d(x, np.zeros((1, 3, 3, 3)))


class TestSilu:
    def test_zero(self):
        out = silu(FeatureMap(np.zeros((1, 2, 2))))
        assert np.array_equal(out.data, np.zeros((1, 2, 2)))

    def test_saturation(self):
        out = silu(FeatureMap(np.full((1, 1, 1), 20.0)))
        assert abs(out.data[0, 0, 0] - 20.0) / 20.0 < 1e-6

    def test_at_one(self):
        # mpmath, 50 digits: 1 / (1 + e^-1)
        out = silu(FeatureMap(np.ones((1, 1, 1))))
        assert out.data[0, 0, 0] == pytest.approx(0.73105857863000487925, abs=1e-15)

    def test_large_negative_is_finite(self):
        out = silu(FeatureMap(np.full((1, 1, 1), -745.0)))
        assert abs(out.data[0, 0, 0]) < 1e-300

    def test_bitwise_equals_map_times_masked_sigmoid(self):
        data = np.random.default_rng(7).normal(scale=4.0, size=(16, 32, 32))
        data.flat[:len(SIGMOID_EDGES)] = SIGMOID_EDGES
        assert silu(FeatureMap(data)).data.tobytes() == (data * masked_sigmoid(data)).tobytes()


def masked_sigmoid(v):
    """The two-branch sigmoid: 1/(1+exp(-v)) where v >= 0, exp(v)/(1+exp(v)) elsewhere."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


SIGMOID_EDGES = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, 5e-324, -5e-324,
                 2.2250738585072014e-308, -2.2250738585072014e-308, 1.7976931348623157e308]


class TestSigmoid:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(st.sampled_from(SIGMOID_EDGES),
                                      st.floats(allow_nan=False, allow_infinity=False)),
                           min_size=1, max_size=64))
    def test_bitwise_equals_masked_branches(self, values):
        v = np.array(values, dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _sigmoid(v)
        want = masked_sigmoid(v)
        assert got.tobytes() == want.tobytes()


class TestSoftmaxRows:
    @pytest.mark.parametrize("rows", [
        [[1.0, 2.0, 2.0, -1.0]],  # a tie at the max
        [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, -1.0]],  # signed zeros at the max
        [[3.5], [-2.0], [0.0]],  # one column
        [[1e308, -1e308], [-1e308, 1e308]],  # the shift overflows to -inf
    ])
    def test_edge_rows_bitwise_equal_the_reference(self, rows):
        m = np.array(rows)
        for data in (m, np.tile(m, (64, 1)), np.tile(m, (1, 20))):
            with np.errstate(all="ignore"):
                want = softmax_rows_reference(Matrix(data)).data
            assert softmax_rows(Matrix(data)).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1024, 8), (196, 8), (16, 1), (15, 1), (256, 16), (255, 16),
                                       (4096, 17), (8, 1024), (100, 100), (3, 5)])
    def test_bitwise_equals_the_reference(self, shape):
        rng = np.random.default_rng(shape[0] * 7 + shape[1])
        m = rng.uniform(-40.0, 40.0, size=shape)
        m[:, -1] = m[:, 0]  # a tie in every row
        assert (softmax_rows(Matrix(m)).data.tobytes()
                == softmax_rows_reference(Matrix(m)).data.tobytes())

    def test_uniform_on_equal_values(self):
        out = softmax_rows(Matrix(np.full((2, 4), 3.7)))
        assert np.abs(out.data - 0.25).max() < 1e-15

    def test_saturation(self):
        out = softmax_rows(Matrix(np.array([[0.0, 1000.0]])))
        assert out.data[0, 1] == pytest.approx(1.0, abs=1e-300)
        assert out.data[0, 0] == pytest.approx(0.0, abs=1e-300)

    def test_known_row(self):
        # mpmath, 50 digits: e^k / (e^1 + e^2 + e^3)
        out = softmax_rows(Matrix(np.array([[1.0, 2.0, 3.0]])))
        want = [0.090030573170380457998, 0.24472847105479765247, 0.66524095577482188953]
        assert np.abs(out.data[0] - want).max() < 1e-15

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = rng.uniform(-40, 40, size=(5, 7))
            out = softmax_rows(Matrix(m))
            assert np.all(out.data >= 0)
            assert np.abs(out.data.sum(axis=1) - 1.0).max() <= 1e-12
            shifted = softmax_rows(Matrix(m + rng.uniform(-5, 5)))
            assert np.abs(out.data - shifted.data).max() <= 1e-12
