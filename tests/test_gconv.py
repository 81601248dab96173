import numpy as np
import pytest

from spectral_ops import (
    ConfigError,
    GConvParams,
    InvalidShapeError,
    Rng,
    bilinear_resize_1d,
    build_kernel,
    gconv_forward,
    randn,
    scale_count,
)
from spectral_ops.oracles import direct_gconv


@pytest.mark.parametrize("L,expected", [(1024, 10), (1000, 10), (1, 0), (2, 1), (33, 6)])
def test_scale_count(L, expected):
    assert scale_count(L) == expected


def test_scale_count_doubles_at_powers_of_two():
    for L in (2, 8, 64, 1024):
        assert scale_count(2 * L) == scale_count(L) + 1


def test_scale_count_rejects_nonpositive():
    with pytest.raises(InvalidShapeError):
        scale_count(0)


class TestBilinearResize:
    def test_identity_when_length_unchanged(self):
        seg = randn(Rng(1), (5, 3))
        assert np.array_equal(bilinear_resize_1d(seg, 5), seg)

    def test_constant_stays_constant(self):
        seg = np.full((3, 2), 4.25)
        assert np.array_equal(bilinear_resize_1d(seg, 11), np.full((11, 2), 4.25))

    def test_half_pixel_values_exact(self):
        out = bilinear_resize_1d(np.array([[0.0], [1.0]]), 4)
        assert out.ravel().tolist() == [0.0, 0.25, 0.75, 1.0]

    def test_downsample(self):
        out = bilinear_resize_1d(np.arange(4.0)[:, None], 2)
        # source coords 0.5 and 2.5 -> midpoints of the two halves
        assert out.ravel().tolist() == [0.5, 2.5]

    def test_rejects_bad_rank(self):
        with pytest.raises(InvalidShapeError):
            bilinear_resize_1d(np.zeros(4), 8)


class TestBuildKernel:
    def test_length_arithmetic_width4_L16(self):
        # segments 4, 8, 16, 32 -> 60 positions, first 16 kept
        params = GConvParams(width=4, depth=2, base_kernel=randn(Rng(2), (4, 2)))
        assert scale_count(16) == 4
        assert build_kernel(params, 16).shape == (16, 2)

    def test_all_ones_base_gives_staircase(self):
        params = GConvParams(width=4, depth=1, base_kernel=np.ones((4, 1)))
        kernel = build_kernel(params, 16).ravel()
        expected = np.concatenate([np.full(4, 1.0), np.full(8, 0.5), np.full(4, 0.25)])
        assert np.array_equal(kernel, expected)

    def test_segment_decay_bound_exact(self):
        base = randn(Rng(3), (4, 3))
        bound = np.max(np.abs(base))
        for i in range(scale_count(64)):
            seg = bilinear_resize_1d(base * 2.0**-i, 4 << i)
            assert np.max(np.abs(seg)) <= 2.0**-i * bound

    def test_bidirectional_returns_two_halves(self):
        params = GConvParams(
            width=4, depth=2, base_kernel=randn(Rng(4), (4, 2)), bidirectional=True
        )
        kernel = build_kernel(params, 16)
        assert kernel.shape == (32, 2)
        assert np.array_equal(kernel[:16], kernel[16:])

    def test_L1_degenerate(self):
        params = GConvParams(width=1, depth=2, base_kernel=np.array([[3.0, -1.0]]))
        assert build_kernel(params, 1).tolist() == [[3.0, -1.0]]

    def test_insufficient_coverage_names_width(self):
        # width=1: total coverage 2^s - 1 = 7 < L = 8
        params = GConvParams(width=1, depth=1, base_kernel=np.ones((1, 1)))
        with pytest.raises(ConfigError, match="width"):
            build_kernel(params, 8)

    def test_sequence_shorter_than_width_rejected(self):
        params = GConvParams(width=4, depth=1, base_kernel=np.ones((4, 1)))
        with pytest.raises(InvalidShapeError):
            build_kernel(params, 2)


def test_delta_kernel_passes_signal_through():
    # width == L keeps only the identity-resized first segment, so a delta
    # base yields a built kernel that is exactly [1, 0, ..., 0]
    base = np.zeros((8, 1))
    base[0, 0] = 1.0
    params = GConvParams(width=8, depth=1, base_kernel=base, bias=np.array([0.25]))
    assert np.array_equal(build_kernel(params, 8), base)
    sig = randn(Rng(5), (8, 1))
    out = gconv_forward(sig, params)
    assert np.max(np.abs(out - (sig + 0.25))) <= 1e-12


def test_zero_signal_returns_bias():
    params = GConvParams(
        width=2, depth=3, base_kernel=randn(Rng(6), (2, 3)), bias=np.array([1.0, -2.0, 0.5])
    )
    out = gconv_forward(np.zeros((16, 3)), params)
    assert np.array_equal(out, np.tile(params.bias, (16, 1)))


@pytest.mark.parametrize("L", [8, 16, 33, 64])
@pytest.mark.parametrize("width", [2, 4])
@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_forward_matches_direct_oracle(L, width, depth, bidirectional):
    rng = Rng(L * 100 + width * 10 + depth + int(bidirectional))
    params = GConvParams(
        width=width,
        depth=depth,
        base_kernel=randn(rng, (width, depth)),
        bidirectional=bidirectional,
        bias=randn(rng, (depth,)),
    )
    sig = randn(rng, (L, depth))
    want = direct_gconv(sig, build_kernel(params, L)) + params.bias
    diff = gconv_forward(sig, params) - want
    assert np.max(np.abs(diff)) <= 1e-10


@pytest.mark.parametrize("bidirectional", [False, True])
def test_forward_keeps_f32(bidirectional):
    rng = Rng(12)
    # the bias is float64, as a plain np.array of Python floats is
    params = GConvParams(width=4, depth=2, base_kernel=randn(rng, (4, 2), np.float32),
                         bidirectional=bidirectional, bias=np.array([0.5, -1.0]))
    sig = randn(rng, (32, 2), np.float32)
    out = gconv_forward(sig, params)
    want = direct_gconv(sig.astype(np.float64), build_kernel(params, 32)) + params.bias
    assert out.dtype == np.float32 and np.max(np.abs(out - want)) <= 1e-3


def test_forward_L1_bidirectional():
    params = GConvParams(
        width=1, depth=2, base_kernel=np.array([[2.0, -1.0]]), bidirectional=True
    )
    sig = np.array([[3.0, 5.0]])
    # single tap on both sides: y = (k_f[0] + k_b[0]) * u
    assert np.allclose(gconv_forward(sig, params), [[12.0, -10.0]], atol=1e-12)


def test_forward_linear_in_signal():
    params = GConvParams(width=4, depth=2, base_kernel=randn(Rng(7), (4, 2)))
    a, b = randn(Rng(8), (32, 2)), randn(Rng(9), (32, 2))
    lhs = gconv_forward(3.0 * a - 0.5 * b, params)
    rhs = 3.0 * gconv_forward(a, params) - 0.5 * gconv_forward(b, params)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_forward_depth_mismatch_rejected():
    params = GConvParams(width=2, depth=2, base_kernel=np.ones((2, 2)))
    with pytest.raises(InvalidShapeError):
        gconv_forward(np.zeros((8, 3)), params)


def test_base_kernel_shape_must_match_declared():
    params = GConvParams(width=3, depth=2, base_kernel=np.ones((2, 2)))
    with pytest.raises(InvalidShapeError):
        build_kernel(params, 8)
