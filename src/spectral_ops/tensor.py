"""Dense tensors, seeded normal sampling, and the FTNS binary tensor format.

Tensors are plain row-major (C-order) numpy arrays of float32 or float64;
frequency-domain intermediates elsewhere in the library use the matching
complex dtypes.  Arrays are treated as immutable values: every operation
returns fresh buffers and nothing mutates its inputs.

The random stream is fully pinned down so that ports in other languages can
reproduce fixtures bit-for-bit; see :class:`Rng`.

FTNS file layout (little-endian throughout):

    offset  size       field
    0       4          magic bytes ``F T N S``
    4       1          format version, u8, currently 1
    5       1          dtype code, u8: 0 = f32, 1 = f64
    6       4          rank, u32
    10      8 * rank   extents, u64 each
    ...     payload    scalars, row-major, little-endian

The payload length must equal ``itemsize * product(extents)`` exactly.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import FormatError, InvalidShapeError

_MAGIC = b"FTNS"
_VERSION = 1

# dtype code <-> numpy dtype (explicitly little-endian for the wire format)
_DTYPE_FOR_CODE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR_DTYPE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}

# splitmix64 constants
_MASK64 = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_S11 = np.uint64(11)
# Box-Muller pairs per block of Rng.normal, whose scratch is six such arrays (1.5 MB) per thread
_BLOCK_PAIRS = 2**15


def check_shape(shape) -> tuple[int, ...]:
    """Validate a shape: rank >= 1 and every extent a positive integer."""
    try:
        extents = tuple(int(e) for e in shape)
    except TypeError as exc:
        raise InvalidShapeError(f"shape {shape!r} is not a sequence of extents") from exc
    if len(extents) < 1:
        raise InvalidShapeError("rank must be >= 1 (scalar shapes are not tensors)")
    if any(e < 1 for e in extents):
        raise InvalidShapeError(f"all extents must be >= 1, got {extents}")
    return extents


def _uniform_into(x: np.ndarray, t: np.ndarray, u: np.ndarray) -> None:
    # u = ((mix64(x) >> 11) + 1) * 2**-53 in (0, 1]: the splitmix64 finalizer
    # in place on uint64 (wrapping), then the top 53 bits; t is scratch
    for shift, mult in ((_S30, _MIX1), (_S27, _MIX2)):
        np.right_shift(x, shift, out=t)
        x ^= t
        x *= mult
    np.right_shift(x, _S31, out=t)
    x ^= t
    x >>= _S11
    np.add(x, 1.0, out=u)
    u *= 2.0**-53


class Rng:
    """Deterministic stream of standard-normal draws.

    The raw stream is splitmix64 evaluated at consecutive counter values:

        out_i = mix64(seed + i * 0x9E3779B97F4A7C15)   for i = 1, 2, 3, ...

    where ``mix64`` is the splitmix64 finalizer
    (``z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27;
    z *= 0x94D049BB133111EB; z ^= z>>31`` on 64-bit wrapping integers).

    Each raw output maps to a uniform in (0, 1] via
    ``u = ((out >> 11) + 1) * 2**-53``; consecutive uniform pairs (u1, u2)
    feed the Box-Muller transform, emitting

        sqrt(-2 ln u1) * cos(2 pi u2),   then
        sqrt(-2 ln u1) * sin(2 pi u2).

    A draw of n samples consumes exactly ceil(n/2) pairs; for odd n the
    trailing sin value is discarded and never carried into the next draw.
    All math is IEEE-754 f64, so equal seeds reproduce equal streams across
    platforms; f32 tensors are f64 draws rounded once at the end.

    Any stretch of the stream depends only on its counters, so a draw is
    computed in blocks of 2**15 pairs with O(block) scratch memory (about
    1.5 MB per thread) beside its result; the stream is the same as in one
    pass.  When the process may run on more than one CPU, a draw of more
    than one block deals alternate blocks to a short-lived second thread,
    joined before the call returns, and advances the counter once after
    both finish.

    Single-owner: instances are cheap and not meant to be shared between
    threads; the second thread of a draw never touches the instance.
    """

    def __init__(self, seed: int):
        self._seed = int(seed & _MASK64)
        self._counter = 0

    def normal(self, n: int) -> np.ndarray:
        """Return the next `n` standard-normal f64 draws."""
        if n < 0:
            raise ValueError(f"sample count must be >= 0, got {n}")
        pairs = (n + 1) // 2
        out = np.empty((pairs, 2))
        block = min(pairs, _BLOCK_PAIRS)
        # pair k of a block reads counters c + 2k (u1) and c + 2k + 1 (u2)
        step = np.arange(block, dtype=np.uint64) * np.uint64(2 * _GOLDEN & _MASK64)
        starts = range(0, pairs, _BLOCK_PAIRS)
        args = (out, step, self._seed, self._counter)
        if len(starts) > 1 and _usable_cpus() > 1:
            _on_two_threads(_normal_blocks, (*args, starts[0::2]), (*args, starts[1::2]))
        else:
            _normal_blocks(*args, starts)
        self._counter += 2 * pairs
        return out.reshape(-1)[:n]


def _usable_cpus() -> int:
    # CPUs this process may run on: its affinity mask where the OS has one
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_two_threads(fn, first: tuple, second: tuple) -> tuple:
    """(fn(*first), fn(*second)), the second call on a short-lived second thread
    joined before the return, which re-raises its exception.  The pool module is
    imported here, so that `import spectral_ops` loads none."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:
        later = pool.submit(fn, *second)
        return fn(*first), later.result()


def _normal_blocks(out: np.ndarray, step: np.ndarray, seed: int, counter: int, starts) -> None:
    # Box-Muller pairs into the rows out[start:start + len(step)] for each block
    # start, after `counter` draws of the stream, with scratch of its own
    block = len(step)
    x, t = np.empty(block, np.uint64), np.empty(block, np.uint64)
    radius, theta, tmp = np.empty(block), np.empty(block), np.empty(block)
    for start in starts:
        m = min(block, len(out) - start)
        c = counter + 2 * start + 1
        for k, u in ((c, radius), (c + 1, theta)):
            base = np.uint64((seed + k * _GOLDEN) & _MASK64)
            np.add(step[:m], base, out=x[:m])
            _uniform_into(x[:m], t[:m], u[:m])
        r, th = radius[:m], theta[:m]
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        th *= 2.0 * np.pi
        np.multiply(r, np.cos(th, out=tmp[:m]), out=out[start:start + m, 0])
        np.multiply(r, np.sin(th, out=tmp[:m]), out=out[start:start + m, 1])


def randn(rng: Rng, shape, dtype=np.float64) -> np.ndarray:
    """Tensor of i.i.d. standard-normal draws from `rng`.

    Draws are generated in f64 and rounded to `dtype` (f32 or f64).
    """
    extents = check_shape(shape)
    dt = np.dtype(dtype)
    if dt not in _CODE_FOR_DTYPE:
        raise ValueError(f"dtype must be float32 or float64, got {dt}")
    flat = rng.normal(math.prod(extents))
    return flat.astype(dt, copy=False).reshape(extents)


def write_tensor(t, path) -> None:
    """Write a float32/float64 array to `path` in the FTNS format."""
    a = np.asarray(t)
    code = _CODE_FOR_DTYPE.get(a.dtype.newbyteorder("="))  # ">f8" is float64 too
    if code is None:
        raise ValueError(f"FTNS stores float32/float64 tensors only, got dtype {a.dtype}")
    extents = check_shape(a.shape)
    header = _MAGIC + struct.pack("<BBI", _VERSION, code, len(extents))
    header += struct.pack(f"<{len(extents)}Q", *extents)
    payload = np.ascontiguousarray(a, dtype=_DTYPE_FOR_CODE[code])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.data)


def read_tensor(path) -> np.ndarray:
    """Read an FTNS file back into a numpy array (inverse of write_tensor).

    The header is checked against the file size before the payload is read,
    so a header that claims more data than the file holds allocates nothing.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(10)
        if len(header) < 10:
            raise FormatError(f"truncated file: fixed header needs 10 bytes, got {size}")
        if header[:4] != _MAGIC:
            raise FormatError(
                f"bad magic at offset 0: expected {_MAGIC!r}, got {header[:4]!r}"
            )
        version, code, rank = struct.unpack_from("<BBI", header, 4)
        if version != _VERSION:
            raise FormatError(f"unsupported version {version} at offset 4 (expected {_VERSION})")
        if code not in _DTYPE_FOR_CODE:
            raise FormatError(f"unknown dtype code {code} at offset 5")
        if rank < 1:
            raise FormatError(f"rank {rank} at offset 6 is invalid (must be >= 1)")
        end_extents = 10 + 8 * rank
        if size < end_extents:
            raise FormatError(
                f"truncated file: extents end at offset {end_extents}, file has {size} bytes"
            )
        extents = struct.unpack(f"<{rank}Q", fh.read(8 * rank))
        if any(e < 1 for e in extents):
            raise FormatError(f"non-positive extent in {extents} at offset 10")
        dt = _DTYPE_FOR_CODE[code]
        count = math.prod(extents)
        expected = end_extents + count * dt.itemsize
        if size != expected:
            raise FormatError(
                f"payload length mismatch at offset {end_extents}: expected file size "
                f"{expected}, got {size}"
            )
        flat = np.fromfile(fh, dtype=dt, count=count)
    # native byte order; fromfile already returned a fresh writable buffer
    return flat.astype(dt.newbyteorder("="), copy=False).reshape(extents)
