import struct
import tracemalloc

import numpy as np
import pytest

from spectral_ops import FormatError, InvalidShapeError, Rng, randn, read_tensor, write_tensor


def test_randn_deterministic_across_instances():
    a = randn(Rng(1), (2, 2))
    b = randn(Rng(1), (2, 2))
    assert np.array_equal(a, b)


def test_randn_streams_differ_by_seed():
    assert not np.array_equal(randn(Rng(1), (64,)), randn(Rng(2), (64,)))


@pytest.mark.parametrize("seed", [1, 2])
def test_randn_moments(seed):
    z = randn(Rng(seed), (1024,))
    assert abs(z.mean()) < 0.1
    assert abs(z.var() - 1.0) < 0.15


def test_randn_sequential_draws_continue_the_stream():
    rng = Rng(9)
    first, second = rng.normal(4), rng.normal(4)
    assert not np.array_equal(first, second)


def test_randn_rejects_zero_extent():
    with pytest.raises(InvalidShapeError):
        randn(Rng(1), (0,))
    with pytest.raises(InvalidShapeError):
        randn(Rng(1), ())


def test_randn_f32_is_rounded_f64():
    a64 = randn(Rng(5), (16,))
    a32 = randn(Rng(5), (16,), np.float32)
    assert a32.dtype == np.float32
    assert np.array_equal(a32, a64.astype(np.float32))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_roundtrip_bit_exact(tmp_path, rank, dtype):
    t = randn(Rng(3 + rank), (2,) * rank, dtype)
    path = tmp_path / "t.ftns"
    write_tensor(t, path)
    back = read_tensor(path)
    assert back.dtype == t.dtype
    assert back.shape == t.shape
    assert back.tobytes() == t.tobytes()


def test_roundtrip_shape_3_2_1(tmp_path):
    t = randn(Rng(17), (3, 2, 1))
    write_tensor(t, tmp_path / "t.ftns")
    assert read_tensor(tmp_path / "t.ftns").tobytes() == t.tobytes()


def test_header_layout(tmp_path):
    # magic(4) + version(1) + dtype(1) + rank u32 + 2 extents u64 = 26 bytes
    path = tmp_path / "t.ftns"
    write_tensor(np.array([[1.0, 2.0]]), path)
    data = path.read_bytes()
    assert len(data) == 26 + 16
    assert data[:4] == b"FTNS"
    assert data[4] == 1  # version
    assert data[5] == 1  # dtype code f64
    assert struct.unpack_from("<I", data, 6)[0] == 2
    assert struct.unpack_from("<QQ", data, 10) == (1, 2)
    assert np.frombuffer(data, "<f8", offset=26).tolist() == [1.0, 2.0]


def test_bad_magic_names_offset(tmp_path):
    path = tmp_path / "bad.ftns"
    write_tensor(np.zeros(3), path)
    corrupted = b"XXXX" + path.read_bytes()[4:]
    path.write_bytes(corrupted)
    with pytest.raises(FormatError, match="offset 0"):
        read_tensor(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "short.ftns"
    write_tensor(np.zeros(3), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        read_tensor(path)


def test_oversized_header_fails_before_reading_payload(tmp_path):
    # the header claims 2^40 f32 elements; the (sparse) 16 MB file holds far fewer
    path = tmp_path / "huge.ftns"
    with open(path, "wb") as fh:
        fh.write(b"FTNS" + struct.pack("<BBIQ", 1, 0, 1, 2**40))
        fh.truncate(16 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="payload length mismatch"):
            read_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_unknown_dtype_code(tmp_path):
    path = tmp_path / "odd.ftns"
    write_tensor(np.zeros(3), path)
    data = bytearray(path.read_bytes())
    data[5] = 9
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="dtype code 9"):
        read_tensor(path)


def test_write_rejects_non_float(tmp_path):
    with pytest.raises(ValueError):
        write_tensor(np.zeros(3, dtype=np.int32), tmp_path / "i.ftns")
