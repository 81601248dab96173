from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_ops import (
    ConfigError,
    GConvParams,
    InvalidShapeError,
    NonFiniteError,
    Rng,
    bilinear_resize_1d,
    build_kernel,
    gconv,
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

    @pytest.mark.parametrize("width", [1, 3, 32])
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_equals_first_L_of_every_scale(self, width, bidirectional):
        # coverage width * (2^k - 1) decides how many segments are built
        base = randn(Rng(width), (width, 2))
        params = GConvParams(width=width, depth=2, base_kernel=base,
                             bidirectional=bidirectional)
        for k in range(1, 9):
            for L in {width * (2**k - 1) + d for d in (-1, 0, 1)} - {0}:
                if L < width or width * (2 ** scale_count(L) - 1) < L:
                    continue
                all_scales = np.concatenate([
                    bilinear_resize_1d(base * 2.0**-i, width << i)
                    for i in range(max(scale_count(L), 1))
                ])[:L]
                want = np.concatenate([all_scales] * (1 + bidirectional))
                assert np.array_equal(build_kernel(params, L), want), L

    @pytest.mark.parametrize(
        "width,L,covered,need", [(1, 2, 1, 2), (1, 8, 7, 2), (1, 1024, 1023, 2)]
    )
    def test_coverage_error_message(self, width, L, covered, need):
        params = GConvParams(width=width, depth=1, base_kernel=np.ones((width, 1)))
        with pytest.raises(ConfigError) as info:
            build_kernel(params, L)
        assert str(info.value) == (
            f"multi-scale kernel covers only {covered} of {L} positions; "
            f"increase width to at least {need}"
        )

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


@pytest.mark.parametrize("base_dtype,sig_dtype", [(np.float32, np.float64), (np.float64, np.float32)])
def test_mixed_precision_is_f64_accurate(base_dtype, sig_dtype):
    # the taps are prepared at the result dtype, which keys the kept spectrum, so
    # the spectrum an all-f32 call keeps does not serve the f64 call after it
    rng = Rng(13)
    params = GConvParams(width=8, depth=2, base_kernel=randn(rng, (8, 2), base_dtype),
                         bidirectional=True)
    sig = randn(rng, (64, 2), sig_dtype)
    gconv_forward(sig.astype(np.float32), params)
    got = gconv_forward(sig, params)
    want = direct_gconv(sig.astype(np.float64), build_kernel(params, 64).astype(np.float64))
    assert got.dtype == np.float64 and np.max(np.abs(got - want)) <= 1e-10


def test_forward_L1_bidirectional():
    params = GConvParams(
        width=1, depth=2, base_kernel=np.array([[2.0, -1.0]]), bidirectional=True
    )
    sig = np.array([[3.0, 5.0]])
    # single tap on both sides: y = (k_f[0] + k_b[0]) * u
    assert np.allclose(gconv_forward(sig, params), [[12.0, -10.0]], atol=1e-12)


@settings(max_examples=60)
@given(L=st.integers(1, 40), width=st.integers(1, 40), depth=st.integers(1, 3),
       bidirectional=st.booleans(), with_bias=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_forward_matches_direct_on_random_geometry(L, width, depth, bidirectional, with_bias, seed):
    # build_kernel refuses a width above L, or one whose scales cannot cover L
    assume(width <= L and (L == 1 or width * (2 ** scale_count(L) - 1) >= L))
    rng = Rng(seed)
    params = GConvParams(width=width, depth=depth, base_kernel=randn(rng, (width, depth)),
                         bidirectional=bidirectional,
                         bias=randn(rng, (depth,)) if with_bias else None)
    sig = randn(rng, (L, depth))
    want = direct_gconv(sig, build_kernel(params, L))
    if with_bias:
        want = want + params.bias
    assert np.max(np.abs(gconv_forward(sig, params) - want)) <= 1e-10


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


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


class TestKernelCache:
    @staticmethod
    def _params(bidirectional=True):
        rng = Rng(30)
        base = np.round(randn(rng, (4, 3)) * 8) / 8  # exact in f32 as well
        return GConvParams(width=4, depth=3, base_kernel=base, bidirectional=bidirectional,
                           bias=randn(rng, (3,)))

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_repeat_call_reuses_the_kernel(self, monkeypatch, bidirectional):
        params, sig = self._params(bidirectional), randn(Rng(31), (64, 3))
        builds = _counting(monkeypatch, gconv, "build_kernel")
        first = gconv_forward(sig, params)
        assert np.array_equal(gconv_forward(sig, params), first)
        assert np.array_equal(gconv_forward(sig.astype(np.float32), params),
                              gconv_forward(sig.astype(np.float32), replace(params)))
        assert len(builds) == 2  # the first call and the fresh copy

    @pytest.mark.parametrize("edit", ["in place", "new array", "to f32", "bidirectional"])
    def test_changed_params_rebuild(self, monkeypatch, edit):
        params, sig = self._params(), randn(Rng(32), (64, 3), np.float32)
        gconv_forward(sig, params)
        if edit == "in place":
            params.base_kernel[1, 2] += 0.5
        elif edit == "new array":
            params.base_kernel = params.base_kernel * 2.0
        elif edit == "to f32":  # equal values: a stale f64 kernel would give f64 output
            params.base_kernel = params.base_kernel.astype(np.float32)
        else:
            params.bidirectional = False
        builds = _counting(monkeypatch, gconv, "build_kernel")
        got = gconv_forward(sig, params)
        assert len(builds) == 1
        want = gconv_forward(sig, replace(params))
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_switching_length_back_and_forth(self):
        params = self._params()
        for L in (64, 100, 64, 100):
            sig = randn(Rng(L), (L, 3))
            assert np.array_equal(gconv_forward(sig, params), gconv_forward(sig, replace(params)))

    def test_bias_is_applied_after_the_kept_conv(self, monkeypatch):
        params, sig = self._params(), randn(Rng(33), (64, 3))
        gconv_forward(sig, params)
        builds = _counting(monkeypatch, gconv, "build_kernel")
        params.bias = params.bias + 1.0
        got = gconv_forward(sig, params)
        assert builds == []
        assert np.array_equal(got, gconv_forward(sig, replace(params)))

    def test_replace_and_eq_ignore_the_kept_conv(self):
        params = self._params()
        gconv_forward(np.ones((16, 3)), params)
        assert replace(params) == params
        assert "_conv" not in repr(params)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("operand", ["signal", "base_kernel", "bias"])
def test_non_finite_operand_rejected(operand, value):
    # through the FFT one such value would turn every output NaN; the kernel
    # is checked when it is built, here after an in-place edit of a kept one
    args = {"signal": np.ones((16, 2)), "base_kernel": np.ones((4, 2)), "bias": np.zeros(2)}
    params = GConvParams(width=4, depth=2, base_kernel=args["base_kernel"], bidirectional=True,
                         bias=args["bias"])
    gconv_forward(args["signal"].copy(), params)
    args[operand][0, ...] = value
    with pytest.raises(NonFiniteError, match=operand):
        gconv_forward(args["signal"], params)
