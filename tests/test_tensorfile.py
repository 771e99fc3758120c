import struct

import numpy as np
import pytest

from freqadapt import TensorFileError, read_tensor, write_tensor
from freqadapt.tensorfile import MAGIC


def roundtrip(tmp_path, arr):
    path = tmp_path / "t.ftns"
    write_tensor(path, arr)
    return read_tensor(path)


class TestRoundTrip:
    def test_bitwise_random(self, tmp_path):
        rng = np.random.default_rng(100)
        for shape in ((5,), (2, 3), (3, 4, 5), (2, 2, 2, 3)):
            arr = rng.uniform(-1e6, 1e6, size=shape)
            back = roundtrip(tmp_path, arr)
            assert back.shape == arr.shape
            assert back.tobytes() == arr.tobytes()

    def test_returns_a_fresh_array_it_owns(self, tmp_path):
        # so a map read by the CLI is adopted without a second copy
        back = roundtrip(tmp_path, np.ones((2, 3, 4)))
        assert back.dtype == np.float64 and back.flags.c_contiguous
        assert back.flags.owndata and back.flags.writeable

    def test_signed_zeros_and_denormals(self, tmp_path):
        arr = np.array([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]).reshape(1, 5)
        back = roundtrip(tmp_path, arr)
        assert back.tobytes() == arr.tobytes()
        assert np.signbit(back[0, 1])

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.ftns"
        write_tensor(path, np.arange(6, dtype=float).reshape(2, 3))
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        version, ndim = struct.unpack_from("<II", raw, 4)
        assert (version, ndim) == (1, 2)
        assert struct.unpack_from("<2Q", raw, 12) == (2, 3)
        assert len(raw) == 12 + 16 + 6 * 8


class TestRejects:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ftns"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(TensorFileError):
            read_tensor(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.ftns"
        path.write_bytes(MAGIC + struct.pack("<II", 9, 1) + struct.pack("<Q", 1) + b"\x00" * 8)
        with pytest.raises(TensorFileError):
            read_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.ftns"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(TensorFileError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.ftns"
        write_tensor(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TensorFileError):
            read_tensor(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "bad.ftns"
        write_tensor(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TensorFileError):
            read_tensor(path)

    def test_zero_dim(self, tmp_path):
        path = tmp_path / "bad.ftns"
        path.write_bytes(MAGIC + struct.pack("<II", 1, 1) + struct.pack("<Q", 0))
        with pytest.raises(TensorFileError):
            read_tensor(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TensorFileError):
            read_tensor(tmp_path / "absent.ftns")

    def test_implausible_ndim(self, tmp_path):
        path = tmp_path / "bad.ftns"
        path.write_bytes(MAGIC + struct.pack("<II", 1, 4000) + b"\x00" * 64)
        with pytest.raises(TensorFileError):
            read_tensor(path)
