import numpy as np
import pytest

from freqadapt import FeatureMap, Matrix, ShapeMismatchError, conv2d, silu, softmax_rows


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


class TestFeatureMap:
    def test_rejects_nan(self):
        data = np.zeros((1, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            FeatureMap(data)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ShapeMismatchError):
            FeatureMap(np.zeros((2, 2)))

    def test_immutable(self):
        fm = FeatureMap(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            fm.data[0, 0, 0] = 1.0


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = FeatureMap(rng.uniform(-1, 1, size=(1, 5, 5)))
        kernel = np.ones((1, 1, 1, 1))
        out = conv2d(x, kernel, 0)
        assert np.array_equal(out.data, x.data)

    def test_constant_map_border(self):
        x = FeatureMap(np.full((1, 4, 4), 2.0))
        kernel = np.full((1, 1, 3, 3), 1.0 / 9.0)
        out = conv2d(x, kernel, 1)
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
            got = conv2d(FeatureMap(x), kernel, (k - 1) // 2).data
            want = conv2d_naive(x, kernel, (k - 1) // 2)
            assert np.abs(got - want).max() < 1e-12, (shape, k)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        kernel = rng.uniform(-1, 1, size=(2, 2, 3, 3))
        x = rng.uniform(-1, 1, size=(2, 5, 5))
        y = rng.uniform(-1, 1, size=(2, 5, 5))
        a, b = 1.7, -0.4
        lhs = conv2d(FeatureMap(a * x + b * y), kernel, 1).data
        rhs = a * conv2d(FeatureMap(x), kernel, 1).data + b * conv2d(FeatureMap(y), kernel, 1).data
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() / scale < 1e-9

    def test_rejects_even_kernel(self):
        x = FeatureMap(np.zeros((1, 4, 4)))
        with pytest.raises(ValueError):
            conv2d(x, np.zeros((1, 1, 2, 2)), 0)

    def test_rejects_channel_mismatch(self):
        x = FeatureMap(np.zeros((2, 4, 4)))
        with pytest.raises(ShapeMismatchError):
            conv2d(x, np.zeros((1, 3, 3, 3)), 1)

    def test_rejects_wrong_padding(self):
        x = FeatureMap(np.zeros((1, 4, 4)))
        with pytest.raises(ValueError):
            conv2d(x, np.zeros((1, 1, 3, 3)), 0)


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


class TestSoftmaxRows:
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
