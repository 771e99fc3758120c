import os
import struct
import threading

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

    @pytest.mark.parametrize("arr", [
        np.arange(24.0).reshape(2, 3, 4),
        np.asfortranarray(np.arange(24.0).reshape(2, 3, 4)),
        np.linspace(-1, 1, 6, dtype=np.float32).reshape(3, 2),
        np.array(-2.5),
    ], ids=["c-order", "f-order", "float32", "0-d"])
    def test_bytes_are_header_then_payload(self, tmp_path, arr):
        path = tmp_path / "t.ftns"
        write_tensor(path, arr)
        want = np.array(arr, dtype="<f8", ndmin=1)
        header = MAGIC + struct.pack("<II", 1, want.ndim) + struct.pack(f"<{want.ndim}Q", *want.shape)
        assert path.read_bytes() == header + want.tobytes(order="C")

    def test_reads_from_a_pipe(self, tmp_path):
        # a file with no size up front: the payload is read to its end and checked after
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes on this platform")
        arr = np.arange(6.0).reshape(2, 3)
        raw_path = tmp_path / "t.ftns"
        write_tensor(raw_path, arr)
        raw = raw_path.read_bytes()
        for payload, message in ((raw, None), (raw + b"\x00", "payload is 49 bytes"),
                                 (raw[:-8], "payload is 40 bytes")):
            fifo = tmp_path / "pipe"
            os.mkfifo(fifo)
            writer = threading.Thread(target=fifo.write_bytes, args=(payload,))
            writer.start()
            try:
                if message is None:
                    assert read_tensor(fifo).tobytes() == arr.tobytes()
                else:
                    with pytest.raises(TensorFileError, match=message):
                        read_tensor(fifo)
            finally:
                writer.join()
                fifo.unlink()

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


class TestErrorTexts:
    """Each TensorFileError keeps its text, word for word."""

    CASES = [
        (MAGIC + b"\x01", "truncated header (5 bytes)"),
        (b"NOPE" + b"\x00" * 32, "bad magic b'NOPE'"),
        (MAGIC + struct.pack("<II", 9, 1) + struct.pack("<Q", 1) + b"\x00" * 8,
         "unsupported version 9"),
        (MAGIC + struct.pack("<II", 1, 0), "implausible ndim 0"),
        (MAGIC + struct.pack("<II", 1, 4000) + b"\x00" * 64, "implausible ndim 4000"),
        (MAGIC + struct.pack("<II", 1, 2) + struct.pack("<Q", 2), "truncated dims"),
        (MAGIC + struct.pack("<II", 1, 2) + struct.pack("<2Q", 2, 0), "zero-sized dim in (2, 0)"),
        (MAGIC + struct.pack("<II", 1, 2) + struct.pack("<2Q", 2, 2) + b"\x00" * 24,
         "payload is 24 bytes, dims (2, 2) need 32"),
        (MAGIC + struct.pack("<II", 1, 2) + struct.pack("<2Q", 2, 2) + b"\x00" * 33,
         "payload is 33 bytes, dims (2, 2) need 32"),
        (MAGIC + struct.pack("<II", 1, 1) + struct.pack("<Q", 2**40),
         f"payload is 0 bytes, dims ({2**40},) need {8 * 2**40}"),
    ]

    @pytest.mark.parametrize("raw, text", CASES)
    def test_text(self, tmp_path, raw, text):
        path = tmp_path / "bad.ftns"
        path.write_bytes(raw)
        with pytest.raises(TensorFileError) as info:
            read_tensor(path)
        assert str(info.value) == f"{path}: {text}"

    def test_missing_file_text(self, tmp_path):
        path = tmp_path / "absent.ftns"
        with pytest.raises(TensorFileError, match=f"^cannot read {path}: ") as info:
            read_tensor(path)
        assert isinstance(info.value.__cause__, OSError)
