import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_ops import (
    InvalidShapeError,
    MODES,
    NonFiniteError,
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
    # every m > n case of verify's oracle grid, which skips them
    for c, n, m, op in itertools.product((1, 3), range(4, 9), (5, 7, 9),
                                         (direct_xcorr2d, fft_xcorr2d)):
        if m > n:
            with pytest.raises(InvalidShapeError, match="valid mode"):
                op(randn(Rng(n), (c, n, n)), randn(Rng(m), (c, m, m)), mode="valid")


@pytest.mark.parametrize("op", [direct_xcorr2d, fft_xcorr2d])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("img_shape,ker_shape", [
    ((1, 0, 4), (1, 3, 3)), ((1, 4, 0), (1, 1, 1)), ((1, 4, 4), (1, 0, 3)), ((1, 4, 4), (1, 3, 0)),
], ids=["image-h", "image-w", "kernel-h", "kernel-w"])
def test_zero_extent_operand_rejected(op, mode, img_shape, ker_shape):
    # one rule for both routes and every mode, where each used to fail its own way
    with pytest.raises(InvalidShapeError, match="zero extent"):
        op(np.zeros(img_shape), np.zeros(ker_shape), mode=mode)


@pytest.mark.parametrize("operand,op", [
    (operand, op) for operand in ("image", "kernel")
    for op in (direct_xcorr2d, fft_xcorr2d, fft_circular_conv2d)
] + [("bias", direct_xcorr2d), ("bias", fft_xcorr2d)])
def test_complex_operand_rejected(operand, op):
    args = {"image": np.ones((1, 4, 4)), "kernel": np.ones((1, 3, 3))}
    if operand == "bias":  # numpy would drop its imaginary part with only a ComplexWarning
        args["bias"] = np.array([1 + 2j])
    else:
        args[operand] = args[operand] + 0j
    message = "bias must be real" if operand == "bias" else "image and kernel must be real"
    with pytest.raises(InvalidShapeError, match=f"^{message}$"):
        op(**args)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        direct_xcorr2d(np.zeros((1, 4, 4)), np.zeros((1, 3, 3)), mode="reflect")


def test_bad_bias_shape_rejected():
    with pytest.raises(InvalidShapeError, match="bias"):
        fft_xcorr2d(np.zeros((2, 4, 4)), np.zeros((2, 3, 3)), bias=np.zeros(3))


def test_one_nan_pixel_rejected_not_spread():
    # through the FFT this one pixel would make all 16 `same` outputs NaN,
    # where the sliding window makes NaN only the 4 positions that touch it
    image = randn(Rng(20), (1, 4, 4))
    image[0, 1, 2] = np.nan
    kernel = randn(Rng(21), (1, 3, 3))
    for op in (direct_xcorr2d, fft_xcorr2d):
        for mode in MODES:
            with pytest.raises(NonFiniteError, match="image"):
                op(image, kernel, mode=mode)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("operand", ["image", "kernel", "bias"])
def test_non_finite_operand_rejected(operand, value):
    args = {"image": np.ones((2, 4, 4)), "kernel": np.ones((2, 3, 3)), "bias": np.zeros(2)}
    args[operand][(0,) * args[operand].ndim] = value
    for op in (direct_xcorr2d, fft_xcorr2d):
        with pytest.raises(NonFiniteError, match=operand):
            op(args["image"], args["kernel"], bias=args["bias"])


FLOATS = (np.float32, np.float64)


@st.composite
def xcorr_cases(draw):
    """(mode, image shape, kernel shape); only valid mode keeps the kernel
    inside the image, so the others, circular among them, draw larger ones."""
    mode = draw(st.sampled_from(MODES))
    c, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kh, kw = (draw(st.integers(1, n if mode == "valid" else 2 * n + 3)) for n in (h, w))
    return mode, (c, h, w), (c, kh, kw)


@settings(max_examples=80)
@given(case=xcorr_cases(), dtype=st.sampled_from(FLOATS), seed=st.integers(0, 2**32 - 1))
def test_fft_matches_direct_on_random_shapes(case, dtype, seed):
    mode, img_shape, ker_shape = case
    rng = Rng(seed)
    img, ker = randn(rng, img_shape, dtype), randn(rng, ker_shape, dtype)
    got = fft_xcorr2d(img, ker, mode=mode)
    want = direct_xcorr2d(img, ker, mode=mode)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= (1e-3 if dtype == np.float32 else 1e-10)


@pytest.mark.parametrize("img_dtype", FLOATS)
@pytest.mark.parametrize("ker_dtype", FLOATS)
@settings(max_examples=20)
@given(case=xcorr_cases())
def test_output_dtype_is_the_operands_result_type(img_dtype, ker_dtype, case):
    mode, img_shape, ker_shape = case
    img, ker = np.ones(img_shape, img_dtype), np.ones(ker_shape, ker_dtype)
    for op in (direct_xcorr2d, fft_xcorr2d):
        assert op(img, ker, mode=mode).dtype == np.result_type(img_dtype, ker_dtype), op


@st.composite
def circular_conv_cases(draw):
    """(image shape, kernel shape, image dtype, kernel dtype): [C, H, W] with
    C <= 3 or the 2-D form, each kernel extent drawn up to 2 * extent + 3."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kh, kw = draw(st.integers(1, 2 * h + 3)), draw(st.integers(1, 2 * w + 3))
    lead = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    return lead + (h, w), lead + (kh, kw), draw(st.sampled_from(FLOATS)), draw(st.sampled_from(FLOATS))


@settings(max_examples=80)
@given(case=circular_conv_cases(), seed=st.integers(0, 2**32 - 1))
def test_circular_conv_matches_wraparound_oracle_on_random_shapes(case, seed):
    img_shape, ker_shape, img_dtype, ker_dtype = case
    rng = Rng(seed)
    img, ker = randn(rng, img_shape, img_dtype), randn(rng, ker_shape, ker_dtype)
    got = fft_circular_conv2d(img, ker)
    assert got.dtype == np.result_type(img, ker) and got.shape == img.shape
    # mixed dtypes keep the f32 bound here; test_mixed_precision_* pin them at 1e-10
    tol = 1e-10 if img.dtype == ker.dtype == np.float64 else 1e-3
    for c in np.ndindex(img.shape[:-2]):
        want = direct_conv_circular(img[c].astype(np.float64), ker[c].astype(np.float64))
        assert np.max(np.abs(got[c] - want)) <= tol


@pytest.mark.parametrize("img_dtype,ker_dtype", [(np.float32, np.float64), (np.float64, np.float32)])
def test_mixed_precision_xcorr_is_f64_accurate(img_dtype, ker_dtype):
    # both operands transform in f64, so the f32 one cannot cap the result at f32 accuracy
    rng = Rng(40)
    img, ker = randn(rng, (1, 64, 64), img_dtype), randn(rng, (1, 7, 7), ker_dtype)
    got = fft_xcorr2d(img, ker, mode="same")
    want = direct_xcorr2d(img.astype(np.float64), ker.astype(np.float64), mode="same")
    assert got.dtype == np.float64 and np.max(np.abs(got - want)) <= 1e-10


def test_mixed_precision_circular_conv_is_f64_accurate():
    rng = Rng(41)
    img, ker = randn(rng, (16, 16), np.float32), randn(rng, (5, 5))
    got = fft_circular_conv2d(img, ker)
    want = direct_conv_circular(img.astype(np.float64), ker)
    assert got.dtype == np.float64 and np.max(np.abs(got - want)) <= 1e-10


# --- circular convolution ----------------------------------------------------


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
    assert np.max(np.abs(fft_circular_conv2d(img, ker) - direct_conv_circular(img, ker))) <= 1e-10


def test_circular_kernel_larger_than_image_folds():
    img = randn(Rng(15), (4, 4))
    ker = randn(Rng(16), (9, 9))
    assert np.max(np.abs(fft_circular_conv2d(img, ker) - direct_conv_circular(img, ker))) <= 1e-10


def test_circular_rank_mismatch_rejected():
    with pytest.raises(InvalidShapeError):
        fft_circular_conv2d(np.zeros((4, 4)), np.zeros((1, 3, 3)))


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("operand", ["image", "kernel"])
def test_circular_non_finite_operand_rejected(operand, value, rank):
    args = {"image": np.ones((2, 4, 4)[3 - rank:]), "kernel": np.ones((2, 3, 3)[3 - rank:])}
    args[operand][(0,) * rank] = value
    with pytest.raises(NonFiniteError, match=operand):
        fft_circular_conv2d(args["image"], args["kernel"])


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


def test_correlation_equals_convolution_with_flipped_kernel():
    img = randn(Rng(21), (2, 10, 10))
    ker = randn(Rng(22), (2, 4, 4))
    corr = fft_xcorr2d(img, ker, mode="full")
    flipped = np.flip(ker, axis=(1, 2))
    conv = np.stack([direct_conv_full(img[c], flipped[c]) for c in range(2)])
    assert np.max(np.abs(corr - conv)) <= 1e-10


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


def test_bench_rows_carry_faults_and_thread_cpu_per_sample():
    for r in bench_conv([8], [3], repeats=2):
        assert len(r.minor_faults) == len(r.cpu_ms) == 2
        assert all(isinstance(f, int) and f >= 0 for f in r.minor_faults)
        assert all(ms >= 0.0 for ms in r.cpu_ms)
