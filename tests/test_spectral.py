import ast
import re
from pathlib import Path

import numpy as np
import pytest

import spectral_ops
from spectral_ops import (
    GConvParams,
    InvalidShapeError,
    Rng,
    causal_fft_conv,
    dft_naive,
    fft_axis,
    fft_xcorr2d,
    gconv_forward,
    irfft2,
    linear_fft_conv,
    randn,
    rfft2,
)


def crandn(rng, n):
    return randn(rng, (n,)) + 1j * randn(rng, (n,))


def test_constant_gives_impulse():
    assert np.allclose(dft_naive([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-14)


def test_impulse_gives_constant():
    assert np.allclose(dft_naive([1, 0, 0, 0]), [1, 1, 1, 1], atol=1e-14)


def test_naive_matches_term_by_term_sum():
    # independent evaluation of the defining sum, term by term
    x = crandn(Rng(2), 8)
    expected = np.zeros(8, dtype=complex)
    for k in range(8):
        for n in range(8):
            expected[k] += x[n] * np.exp(-2j * np.pi * n * k / 8)
    assert np.max(np.abs(dft_naive(x) - expected)) < 1e-12
    assert np.max(np.abs(fft_axis(x) - expected)) < 1e-12


def test_dft_naive_rejects_matrices():
    with pytest.raises(InvalidShapeError):
        dft_naive(np.zeros((2, 2)))


def test_fft_inverse_roundtrip_length_7():
    x = crandn(Rng(3), 7)
    assert np.max(np.abs(fft_axis(fft_axis(x), inverse=True) - x)) < 1e-12


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_fft_equals_naive_dft(n):
    x = crandn(Rng(100 + n), n)
    assert np.max(np.abs(fft_axis(x) - dft_naive(x))) <= 1e-10


def test_constant_2d_impulse_along_last_axis_only():
    x = np.full((3, 4), 2.0)
    out = fft_axis(x, axis=-1)
    assert np.allclose(out[:, 0], 8.0)
    assert np.allclose(out[:, 1:], 0.0, atol=1e-14)


def test_axis_out_of_range():
    with pytest.raises(InvalidShapeError):
        fft_axis(np.zeros(4), axis=2)


def test_linearity():
    rng = Rng(4)
    x, y = crandn(rng, 20), crandn(rng, 20)
    lhs = fft_axis(1.5 * x + (2 - 1j) * y)
    rhs = 1.5 * fft_axis(x) + (2 - 1j) * fft_axis(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("n", [8, 31, 64])
def test_parseval(n):
    x = crandn(Rng(5 + n), n)
    lhs = np.sum(np.abs(x) ** 2)
    rhs = np.sum(np.abs(fft_axis(x)) ** 2) / n
    assert abs(lhs - rhs) / lhs < 1e-10


@pytest.mark.parametrize("n", [5, 12, 16])
def test_double_transform_reverses(n):
    x = crandn(Rng(6 + n), n)
    twice = fft_axis(fft_axis(x))
    assert np.max(np.abs(twice - n * x[(-np.arange(n)) % n])) < 1e-10


class TestRealTransforms:
    def test_roundtrip(self):
        x = randn(Rng(7), (4, 6))
        assert np.max(np.abs(irfft2(rfft2(x), (4, 6)) - x)) < 1e-12

    def test_half_spectrum_extent(self):
        assert rfft2(randn(Rng(8), (4, 6))).shape == (4, 6 // 2 + 1)

    def test_matches_full_complex_fft(self):
        x = randn(Rng(9), (4, 6))
        full = fft_axis(fft_axis(x, axis=-1), axis=-2)
        assert np.max(np.abs(rfft2(x) - full[:, :4])) < 1e-12

    def test_batched_channels(self):
        x = randn(Rng(10), (3, 5, 7))
        assert np.max(np.abs(irfft2(rfft2(x), (5, 7)) - x)) < 1e-12

    def test_inconsistent_out_extents_rejected(self):
        spec = rfft2(randn(Rng(11), (4, 6)))
        with pytest.raises(InvalidShapeError):
            irfft2(spec, (4, 8))
        with pytest.raises(InvalidShapeError):
            irfft2(spec, (5, 6))

    def test_rfft2_rejects_complex(self):
        with pytest.raises(InvalidShapeError):
            rfft2(np.zeros((4, 4), dtype=complex))


class TestLinearFftConv:
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-3)])
    def test_matches_np_convolve(self, dtype, tol):
        rng = Rng(12)
        for n in range(1, 41):
            for m in range(1, 10):
                a = randn(rng, (n,), dtype)
                b = randn(rng, (m,), dtype)
                got = linear_fft_conv(a, b, (0,))
                assert got.dtype == dtype
                want = np.convolve(a.astype(np.float64), b.astype(np.float64))
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= tol, (n, m)

    def test_other_axes_broadcast(self):
        rng = Rng(13)
        a = randn(rng, (3, 7, 5))
        b = randn(rng, (1, 4, 5))
        got = linear_fft_conv(a, b, (1,))
        assert got.shape == (3, 10, 5)
        for c in range(3):
            for d in range(5):
                want = np.convolve(a[c, :, d], b[0, :, d])
                assert np.max(np.abs(got[c, :, d] - want)) <= 1e-12

    def test_rejects_rank_mismatch_and_complex(self):
        with pytest.raises(InvalidShapeError):
            linear_fft_conv(np.zeros((2, 3)), np.zeros(3), (0,))
        with pytest.raises(InvalidShapeError):
            linear_fft_conv(np.zeros(3, dtype=complex), np.zeros(3), (0,))


def _five_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def _xcorr_224_31():
    rng = Rng(14)
    img, ker = randn(rng, (1, 224, 224)), randn(rng, (1, 31, 31))
    for mode in ("full", "same", "valid"):
        fft_xcorr2d(img, ker, mode=mode)


def _causal_16384():
    rng = Rng(15)
    causal_fft_conv(randn(rng, (16384,)), randn(rng, (16384,)))


def _bidirectional_gconv_16384():
    rng = Rng(16)
    params = GConvParams(width=32, depth=2, base_kernel=randn(rng, (32, 2)),
                         bidirectional=True)
    gconv_forward(randn(rng, (16384, 2)), params)


# linear supports 254 = 2*127, 32767 = 7*31*151 and 49150 = 2*5^2*983
@pytest.mark.parametrize("run,support", [
    (_xcorr_224_31, 254), (_causal_16384, 32767), (_bidirectional_gconv_16384, 49150),
])
def test_padded_transform_lengths_are_five_smooth(monkeypatch, run, support):
    lengths = []
    for name in ("rfftn", "irfftn"):
        def recording(a, s=None, axes=None, *args, real=getattr(np.fft, name), **kwargs):
            lengths.extend(s)
            return real(a, s, axes, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recording)
    run()
    assert lengths
    assert all(_five_smooth(n) and n >= support for n in lengths), lengths


def test_raw_fft_calls_only_in_the_seam():
    # verify.py keeps raw calls on purpose: they are independent oracles
    raw = re.compile(r"np\.fft|numpy\.fft|scipy\.fft")
    src = Path(spectral_ops.__file__).parent
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name not in ("spectral.py", "verify.py")
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if raw.search(line)
    ]
    assert offenders == []


def test_oracles_import_only_errors_from_the_library():
    # a reference that imports the code it checks would share its faults
    tree = ast.parse((Path(spectral_ops.__file__).parent / "oracles.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "spectral_ops." * bool(node.level) + (node.module or "")
            names |= {base} if node.module else {base + alias.name for alias in node.names}
    assert {n for n in names if n.startswith("spectral_ops")} == {"spectral_ops.errors"}
