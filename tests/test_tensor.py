import hashlib
import multiprocessing
import random
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_ops import (
    ConfigError,
    FitConfig,
    FitModel,
    FormatError,
    InvalidShapeError,
    Rng,
    init_fit_model,
    load_model,
    randn,
    read_tensor,
    save_model,
    write_tensor,
)


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


# sha256 of Rng(seed).normal(3 * 2**16 + 5) after a 13-sample draw, captured
# from the one-shot vectorised generator: the draw crosses block boundaries of
# the blocked one, and seeds 0 and 2**64 - 1 cover the wrapping counter sum
@pytest.mark.parametrize("seed, digest", [
    (1, "206fb1b4b1311df2951fab689baebcc5c0c82eefa15e24d009abcdfbae1009c7"),
    (0, "f2d44d4de1655e127e5232bbfd8d3d38a029e1ef1e88c5a7e819899790d39aaf"),
    (2**64 - 1, "9b2ca87d2a99a8eda2ebb95065ac34d67d7e289fd44a234fd451ae9f7438979b"),
])
def test_normal_stream_is_pinned_across_blocks(seed, digest):
    rng = Rng(seed)
    rng.normal(13)
    assert hashlib.sha256(rng.normal(3 * 2**16 + 5).tobytes()).hexdigest() == digest


def test_normal_first_draws_are_pinned():
    assert [float(z).hex() for z in Rng(7).normal(4)] == [
        "0x1.5d70229cdee61p+0", "0x1.27fabdf770e33p-3",
        "-0x1.960a61872e245p-2", "-0x1.d21e03d25aeaep-3",
    ]


def _reference_normal(seed: int, counter: int, n: int) -> np.ndarray:
    # the stream's definition in one vectorised shot, with full-length temporaries
    pairs = (n + 1) // 2
    idx = np.arange(counter + 1, counter + 2 * pairs + 1, dtype=np.uint64)
    x = np.uint64(seed % 2**64) + idx * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    u = ((x >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    theta = (2.0 * np.pi) * u[1::2]
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(theta)
    out[1::2] = radius * np.sin(theta)
    return out[:n]


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**64 - 1),
    sizes=st.lists(st.integers(0, 70), max_size=4),
    spanning=st.integers(2 * 2**15 + 1, 5 * 2**15),
    at=st.integers(0, 4),
)
def test_normal_matches_one_shot_reference(seed, sizes, spanning, at):
    # every sequence holds one draw of more than 2**15 pairs, which crosses a block
    sizes.insert(at, spanning)
    rng, counter = Rng(seed), 0
    for n in sizes:
        assert np.array_equal(rng.normal(n), _reference_normal(seed, counter, n))
        counter += 2 * ((n + 1) // 2)


def test_normal_scratch_is_block_sized():
    tracemalloc.start()
    try:
        z = Rng(1).normal(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= z.nbytes + 4 * 2**20


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("blocks", [1, 2, 3, 5])
def test_normal_bits_do_not_depend_on_the_split(blocks, cpus, thread_starts, allow_cpus):
    # with two usable CPUs, draws of more than one block deal alternate blocks
    # to a second thread; each n is odd and ends in a ragged block of 12,345 pairs
    allow_cpus(cpus)
    n = 2 * ((blocks - 1) * 2**15 + 12_345) - 1
    rng = Rng(2**64 - 1)
    assert np.array_equal(rng.normal(n), _reference_normal(2**64 - 1, 0, n))
    assert np.array_equal(rng.normal(9), _reference_normal(2**64 - 1, n + 1, 9))
    assert len(thread_starts) == (blocks > 1 and cpus > 1)


def test_no_thread_outlives_a_multi_block_draw(thread_starts, allow_cpus):
    allow_cpus(2)
    before = threading.active_count()
    init_fit_model(FitConfig(embed_dim=256, dim_feedforward=512, depth=1), Rng(1))
    assert thread_starts and threading.active_count() == before


def test_worker_half_error_reaches_the_caller(allow_cpus, monkeypatch):
    allow_cpus(2)
    real_log = np.log

    def log(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("worker half")
        return real_log(*args, **kwargs)

    monkeypatch.setattr(np, "log", log)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="worker half"):
        Rng(3).normal(2**17)
    assert threading.active_count() == before


def _send_digest(conn):
    conn.send(hashlib.sha256(Rng(5).normal(5 * 2**15 + 3).tobytes()).hexdigest())
    conn.close()


def test_fork_child_draws_the_parents_stream(thread_starts, allow_cpus):
    # the parent splits a draw first, so the child forks after a second thread ran
    allow_cpus(2)
    expected = hashlib.sha256(Rng(5).normal(5 * 2**15 + 3).tobytes()).hexdigest()
    assert thread_starts
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_digest, args=(sender,))
    child.start()
    sender.close()
    assert receiver.poll(60)
    digest = receiver.recv()
    child.join(60)
    assert not child.is_alive() and child.exitcode == 0
    assert digest == expected


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


@pytest.mark.parametrize("dtype", [">f4", ">f8"])
def test_byte_swapped_floats_write_as_native(tmp_path, dtype):
    swapped = (np.arange(6.0).reshape(2, 3) - 2.5).astype(dtype)
    assert swapped.dtype.str == dtype  # arithmetic would have made it native
    native = swapped.astype(swapped.dtype.newbyteorder("="))
    write_tensor(swapped, tmp_path / "swapped.ftns")
    write_tensor(native, tmp_path / "native.ftns")
    assert (tmp_path / "swapped.ftns").read_bytes() == (tmp_path / "native.ftns").read_bytes()
    back = read_tensor(tmp_path / "swapped.ftns")
    assert back.dtype == native.dtype
    np.testing.assert_array_equal(back, swapped)


def test_write_rejects_float16(tmp_path):
    for dtype in ("<f2", ">f2"):
        with pytest.raises(ValueError, match="float32/float64"):
            write_tensor(np.zeros(3, dtype=dtype), tmp_path / "h.ftns")


def _mutate(data: bytes, rng: random.Random, span: int) -> bytes:
    """One seeded byte mutation within data[:span]: overwrite, insert,
    delete, or truncate there."""
    out = bytearray(data)
    pos = rng.randrange(span)
    kind = rng.randrange(4)
    if kind == 0:
        out[pos] = rng.randrange(256)
    elif kind == 1:
        out.insert(pos, rng.randrange(256))
    elif kind == 2:
        del out[pos]
    else:
        del out[pos:]
    return bytes(out)


def test_mutated_tensor_file_reads_or_raises_format_error(tmp_path):
    # half of the mutations land in the 34-byte header of a rank-3 file
    path = tmp_path / "t.ftns"
    write_tensor(randn(Rng(5), (2, 3, 4), np.float32), path)
    original = path.read_bytes()
    rng = random.Random(4321)
    outcomes = {"tensor": 0, "error": 0}
    for i in range(400):
        path.write_bytes(_mutate(original, rng, 34 if i % 2 else len(original)))
        try:
            t = read_tensor(path)
        except FormatError:
            outcomes["error"] += 1
        else:
            assert isinstance(t, np.ndarray) and t.dtype in (np.float32, np.float64)
            outcomes["tensor"] += 1
    assert min(outcomes.values()) > 0  # the mutations reach past the first check


def test_mutated_manifest_loads_or_raises_config_error(tmp_path):
    save_model(init_fit_model(FitConfig(img_size=(8, 8), depth=1), Rng(41)), tmp_path)
    manifest = tmp_path / "manifest.txt"
    original = manifest.read_bytes()
    rng = random.Random(1234)
    outcomes = {"model": 0, "error": 0}
    for _ in range(300):
        manifest.write_bytes(_mutate(original, rng, len(original)))
        try:
            model = load_model(tmp_path)
        except (ConfigError, FormatError):
            outcomes["error"] += 1
        else:
            assert isinstance(model, FitModel)
            outcomes["model"] += 1
    assert min(outcomes.values()) > 0
