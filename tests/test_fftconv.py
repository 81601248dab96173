import numpy as np
import pytest

from spectral_ops import (
    InvalidShapeError,
    MODES,
    Rng,
    bench_conv,
    direct_xcorr2d,
    fft_circular_conv2d,
    fft_xcorr2d,
    randn,
)
from spectral_ops.oracles import direct_conv_circular, direct_conv_full


def test_delta_kernel_is_identity_same_mode():
    img = randn(Rng(1), (2, 6, 6))
    delta = np.zeros((2, 1, 1))
    delta[:, 0, 0] = 1.0
    assert np.array_equal(direct_xcorr2d(img, delta, mode="same"), img)
    assert np.max(np.abs(fft_xcorr2d(img, delta, mode="same") - img)) < 1e-12


def test_hand_evaluated_2x2_valid():
    img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    ker = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    assert direct_xcorr2d(img, ker, mode="valid").tolist() == [[[5.0]]]


def test_full_mode_corners_touch_single_term():
    img = randn(Rng(2), (1, 8, 8))
    ker = randn(Rng(3), (1, 3, 3))
    full = direct_xcorr2d(img, ker, mode="full")
    assert full.shape == (1, 10, 10)
    assert np.isclose(full[0, 0, 0], img[0, 0, 0] * ker[0, 2, 2])
    assert np.isclose(full[0, 9, 9], img[0, 7, 7] * ker[0, 0, 0])


@pytest.mark.parametrize(
    "mode,expected",
    [("full", (1, 12, 14)), ("same", (1, 8, 10)), ("valid", (1, 4, 6)), ("circular", (1, 8, 10))],
)
def test_output_extents(mode, expected):
    img = randn(Rng(4), (1, 8, 10))
    ker = randn(Rng(5), (1, 5, 5))
    assert direct_xcorr2d(img, ker, mode=mode).shape == expected
    assert fft_xcorr2d(img, ker, mode=mode).shape == expected


@pytest.mark.parametrize("mode", MODES)
def test_fft_matches_direct_3ch_16x16(mode):
    img = randn(Rng(6), (3, 16, 16))
    ker = randn(Rng(7), (3, 5, 5))
    diff = fft_xcorr2d(img, ker, mode=mode) - direct_xcorr2d(img, ker, mode=mode)
    assert np.max(np.abs(diff)) <= 1e-10


@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("n", [4, 7, 12, 25, 32])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 9])
def test_oracle_grid_f64(c, n, m):
    rng = Rng(c * 1000 + n * 10 + m)
    img = randn(rng, (c, n, n))
    ker = randn(rng, (c, m, m))
    for mode in MODES:
        if mode == "valid" and m > n:
            continue
        diff = fft_xcorr2d(img, ker, mode=mode) - direct_xcorr2d(img, ker, mode=mode)
        assert np.max(np.abs(diff)) <= 1e-10, (c, n, m, mode)


def test_oracle_grid_f32():
    rng = Rng(31)
    worst = 0.0
    for c in (1, 3):
        for n in range(4, 33):
            for m in (1, 3, 5, 7, 9):
                img = randn(rng, (c, n, n), np.float32)
                ker = randn(rng, (c, m, m), np.float32)
                for mode in MODES:
                    if mode == "valid" and m > n:
                        continue
                    got = fft_xcorr2d(img, ker, mode=mode)
                    assert got.dtype == np.float32
                    want = direct_xcorr2d(img, ker, mode=mode)
                    worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-3


def test_bias_on_zero_image_gives_constant():
    img = np.zeros((1, 4, 4))
    ker = randn(Rng(8), (1, 3, 3))
    out = fft_xcorr2d(img, ker, bias=np.array([0.5]), mode="same")
    assert np.allclose(out, 0.5, atol=1e-14)


@pytest.mark.parametrize("op", [direct_xcorr2d, fft_xcorr2d])
def test_bias_adds_exactly_per_channel(op):
    img = randn(Rng(9), (3, 6, 6))
    ker = randn(Rng(10), (3, 3, 3))
    bias = np.array([0.25, -2.0, 7.5])
    with_bias = op(img, ker, bias=bias, mode="same")
    plain = op(img, ker, mode="same")
    assert np.array_equal(with_bias, plain + bias[:, None, None])


def test_channel_mismatch_rejected():
    with pytest.raises(InvalidShapeError, match="channel"):
        direct_xcorr2d(np.zeros((2, 4, 4)), np.zeros((3, 3, 3)))


def test_valid_mode_kernel_too_big_rejected():
    for op in (direct_xcorr2d, fft_xcorr2d):
        with pytest.raises(InvalidShapeError):
            op(np.zeros((1, 4, 4)), np.zeros((1, 5, 5)), mode="valid")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        direct_xcorr2d(np.zeros((1, 4, 4)), np.zeros((1, 3, 3)), mode="reflect")


def test_bad_bias_shape_rejected():
    with pytest.raises(InvalidShapeError, match="bias"):
        fft_xcorr2d(np.zeros((2, 4, 4)), np.zeros((2, 3, 3)), bias=np.zeros(3))


# --- circular convolution ----------------------------------------------------


def circular_conv_oracle(img, ker):
    """O(n^4)-style wrap-around summation with explicit modulo indexing."""
    h, w = img.shape
    out = np.zeros_like(img)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for i in range(ker.shape[0]):
                for j in range(ker.shape[1]):
                    acc += ker[i, j] * img[(y - i) % h, (x - j) % w]
            out[y, x] = acc
    return out


def test_circular_delta_identity():
    img = randn(Rng(11), (1, 4, 4))
    delta = np.zeros((1, 1, 1))
    delta[0, 0, 0] = 1.0
    assert np.max(np.abs(fft_circular_conv2d(img, delta) - img)) < 1e-12


def test_circular_shift_theorem():
    # kernel = delta at (1, 0): true convolution shifts rows cyclically by one
    img = randn(Rng(12), (1, 4, 4))
    ker = np.zeros((1, 2, 1))
    ker[0, 1, 0] = 1.0
    out = fft_circular_conv2d(img, ker)
    assert np.max(np.abs(out - np.roll(img, 1, axis=-2))) < 1e-12


def test_circular_matches_wraparound_oracle():
    img = randn(Rng(13), (6, 6))
    ker = randn(Rng(14), (3, 3))
    assert np.max(np.abs(fft_circular_conv2d(img, ker) - circular_conv_oracle(img, ker))) <= 1e-10


def test_circular_kernel_larger_than_image_folds():
    img = randn(Rng(15), (4, 4))
    ker = randn(Rng(16), (9, 9))
    assert np.max(np.abs(fft_circular_conv2d(img, ker) - circular_conv_oracle(img, ker))) <= 1e-10


def test_circular_rank_mismatch_rejected():
    with pytest.raises(InvalidShapeError):
        fft_circular_conv2d(np.zeros((4, 4)), np.zeros((1, 3, 3)))


# --- linear vs circular ------------------------------------------------------


def test_padded_circular_equals_linear():
    # pad by (m-1): wrap-around has nothing to wrap into, circular == linear
    n, m = 12, 4
    img = randn(Rng(17), (n, n))
    ker = randn(Rng(18), (m, m))
    padded = np.zeros((n + m - 1, n + m - 1))
    padded[:n, :n] = img
    circ = fft_circular_conv2d(padded, ker)
    assert np.max(np.abs(circ - direct_conv_full(img, ker))) <= 1e-10


def test_unpadded_differs_only_in_wrap_band():
    n, m = 16, 5
    img = randn(Rng(19), (n, n))
    ker = randn(Rng(20), (m, m))
    full = direct_conv_full(img, ker)
    circ = direct_conv_circular(img, ker)
    band = m - 1
    # same terms accumulated in the same order -> exactly zero outside the band
    assert np.array_equal(circ[band:, band:], full[band:n, band:n])
    inside = max(
        np.max(np.abs(circ[:band, :] - full[:band, :n])),
        np.max(np.abs(circ[:, :band] - full[:n, :band])),
    )
    assert inside > 1e-6


def test_correlation_equals_convolution_with_flipped_kernel():
    img = randn(Rng(21), (2, 10, 10))
    ker = randn(Rng(22), (2, 4, 4))
    corr = fft_xcorr2d(img, ker, mode="full")
    flipped = np.flip(ker, axis=(1, 2))
    conv = np.stack([direct_conv_full(img[c], flipped[c]) for c in range(2)])
    assert np.max(np.abs(corr - conv)) <= 1e-10


def test_convolution_theorem_small():
    rng = Rng(23)
    for _ in range(10):
        f, g = randn(rng, (32,)), randn(rng, (32,))
        lhs = np.fft.fft(np.convolve(f, g))
        rhs = np.fft.fft(f, 63) * np.fft.fft(g, 63)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


# --- bench plumbing ----------------------------------------------------------


def test_bench_conv_rows_well_formed():
    rows = bench_conv([8, 12], [3], repeats=2)
    assert len(rows) == 4
    assert {(r.params, r.method) for r in rows} == {
        ("n=8 m=3", "direct"), ("n=8 m=3", "fft"),
        ("n=12 m=3", "direct"), ("n=12 m=3", "fft"),
    }
    for r in rows:
        assert r.suite == "conv"
        assert r.median_ms >= 0.0
        assert r.repeats == 2
        assert np.isfinite(r.checksum)
