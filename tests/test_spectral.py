import ast
import re
import threading
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import spectral_ops
from spectral_ops import (
    GConvParams,
    InvalidShapeError,
    NonFiniteError,
    Rng,
    causal_fft_conv,
    dft_naive,
    fft_circular_conv2d,
    fft_xcorr2d,
    gconv_forward,
    irfft2,
    linear_fft_conv,
    prepare_conv,
    randn,
    rfft2,
    spectral,
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
    assert np.max(np.abs(scipy.fft.fft(x) - expected)) < 1e-12


def test_dft_naive_rejects_matrices():
    with pytest.raises(InvalidShapeError):
        dft_naive(np.zeros((2, 2)))


def test_fft_inverse_roundtrip_length_7():
    x = crandn(Rng(3), 7)
    assert np.max(np.abs(scipy.fft.ifft(scipy.fft.fft(x)) - x)) < 1e-12


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_fft_equals_naive_dft(n):
    x = crandn(Rng(100 + n), n)
    assert np.max(np.abs(scipy.fft.fft(x) - dft_naive(x))) <= 1e-10


def test_constant_2d_impulse_along_last_axis_only():
    x = np.full((3, 4), 2.0)
    out = scipy.fft.fft(x, axis=-1)
    assert np.allclose(out[:, 0], 8.0)
    assert np.allclose(out[:, 1:], 0.0, atol=1e-14)


def test_linearity():
    rng = Rng(4)
    x, y = crandn(rng, 20), crandn(rng, 20)
    lhs = scipy.fft.fft(1.5 * x + (2 - 1j) * y)
    rhs = 1.5 * scipy.fft.fft(x) + (2 - 1j) * scipy.fft.fft(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("n", [8, 31, 64])
def test_parseval(n):
    x = crandn(Rng(5 + n), n)
    lhs = np.sum(np.abs(x) ** 2)
    rhs = np.sum(np.abs(scipy.fft.fft(x)) ** 2) / n
    assert abs(lhs - rhs) / lhs < 1e-10


@pytest.mark.parametrize("n", [5, 12, 16])
def test_double_transform_reverses(n):
    x = crandn(Rng(6 + n), n)
    twice = scipy.fft.fft(scipy.fft.fft(x))
    assert np.max(np.abs(twice - n * x[(-np.arange(n)) % n])) < 1e-10


class TestRealTransforms:
    def test_roundtrip(self):
        x = randn(Rng(7), (4, 6))
        assert np.max(np.abs(irfft2(rfft2(x), (4, 6)) - x)) < 1e-12

    def test_half_spectrum_extent(self):
        assert rfft2(randn(Rng(8), (4, 6))).shape == (4, 6 // 2 + 1)

    def test_matches_full_complex_fft(self):
        x = randn(Rng(9), (4, 6))
        full = scipy.fft.fft(scipy.fft.fft(x, axis=-1), axis=-2)
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


@pytest.mark.parametrize("real,cplx", [(np.float32, np.complex64), (np.float64, np.complex128)])
def test_seam_keeps_precision(real, cplx):
    x = randn(Rng(17), (4, 6), real)
    spec = rfft2(x)
    assert spec.dtype == cplx
    assert irfft2(spec, (4, 6)).dtype == real
    assert linear_fft_conv(x, x[:2], (0, 1)).dtype == real


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

    def test_empty_operands_give_empty_results(self):
        assert linear_fft_conv(np.zeros(0), np.zeros(0), (0,)).shape == (0,)
        assert np.array_equal(linear_fft_conv(np.zeros(0), np.ones(3), (0,)), np.zeros(2))
        assert causal_fft_conv(np.zeros(0), np.zeros(0)).shape == (0,)
        assert linear_fft_conv(np.zeros((1, 0, 0)), np.ones((1, 1, 1)), (1, 2)).shape == (1, 0, 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, 2, 3, 31])
    def test_pruned_spectrum_equals_rfftn(self, dtype, m):
        ker = randn(Rng(40 + m), (2, m, m), dtype)
        for x in (ker, ker[:, ::-1, ::-1]):
            for axes, lengths in (((2,), [m + 5]), ((1, 2), [m + 7, 2 * m + 30])):
                want = scipy.fft.rfftn(x, lengths, axes)
                assert np.array_equal(spectral._pruned_rfftn(x, lengths, axes), want)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-3)])
    def test_crop_equals_cropped_full_support(self, dtype, tol):
        rng = Rng(41)
        for n, m in ((1, 1), (2, 5), (7, 3), (12, 6)):
            a, b = randn(rng, (2, n), dtype), randn(rng, (1, m), dtype)
            full = linear_fft_conv(a, b, (1,))
            support = n + m - 1
            for start in range(support + 1):
                for stop in range(start, support + 1):
                    got = linear_fft_conv(a, b, (1,), [(start, stop)])
                    assert got.dtype == dtype and got.shape == (2, stop - start)
                    assert np.max(np.abs(got - full[:, start:stop]), initial=0.0) <= tol
        img, ker = randn(rng, (1, 9, 11), dtype), randn(rng, (1, 4, 3), dtype)
        full = linear_fft_conv(img, ker, (1, 2))
        for crop in (((0, 12), (0, 13)), ((2, 11), (1, 12)), ((3, 9), (2, 11)), ((5, 5), (0, 13))):
            got = linear_fft_conv(img, ker, (1, 2), crop)
            want = full[:, slice(*crop[0]), slice(*crop[1])]
            assert got.shape == want.shape
            assert np.max(np.abs(got - want), initial=0.0) <= tol

    @pytest.mark.parametrize("crop", [
        [(-1, 3)], [(0, 9)], [(4, 3)], [(0, 3), (0, 3)], [],
    ])
    def test_rejects_windows_outside_the_support(self, crop):
        with pytest.raises(InvalidShapeError):
            linear_fft_conv(np.ones(5), np.ones(4), (0,), crop)

    def test_rejects_rank_mismatch_and_complex(self):
        with pytest.raises(InvalidShapeError):
            linear_fft_conv(np.zeros((2, 3)), np.zeros(3), (0,))
        with pytest.raises(InvalidShapeError):
            linear_fft_conv(np.zeros(3, dtype=complex), np.zeros(3), (0,))
        # repeated, aliased, empty and out-of-range axes
        for axes in ((0, 0), (0, -2), (), (2,), (-3,)):
            with pytest.raises(InvalidShapeError, match="axes"):
                linear_fft_conv(np.ones((5, 4)), np.ones((3, 4)), axes)
        # axes that are not convolved must broadcast
        with pytest.raises(InvalidShapeError, match=r"\(3, 4\).*\(5, 5\)"):
            linear_fft_conv(np.ones((5, 4)), np.ones((3, 4)), (1,))


class TestPreparedConv:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_applied_equals_linear_fft_conv(self, dtype):
        rng = Rng(50)
        a = randn(rng, (1, 9), dtype)
        for crop in (None, [(3, 12)]):
            conv = prepare_conv(a, (4, 7), (1,), crop)
            for _ in range(2):  # one prepared operand serves every new signal
                b = randn(rng, (4, 7), dtype)
                assert np.array_equal(conv.apply(b), linear_fft_conv(a, b, (1,), crop))
        # a rank-1 kernel's spectrum serves a [..., L] batch
        k, u = randn(rng, (16,), dtype), randn(rng, (3, 16), dtype)
        got = prepare_conv(k, k.shape, (-1,), [(0, 16)]).apply(u)
        assert np.array_equal(got, linear_fft_conv(k[None], u, (-1,), [(0, 16)]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_two_axes_at_the_xcorr_windows(self, dtype):
        rng = Rng(51)
        img, ker = randn(rng, (2, 20, 17), dtype), randn(rng, (2, 5, 4), dtype)
        flipped = ker[:, ::-1, ::-1]
        # circular mode is valid mode over the image wrap-padded on its far sides
        wrapped = np.pad(img, ((0, 0), (0, 4), (0, 3)), mode="wrap")
        for mode, a, crop in (("full", img, None), ("same", img, [(2, 22), (2, 19)]),
                              ("valid", img, [(4, 20), (3, 17)]),
                              ("circular", wrapped, [(4, 24), (3, 20)])):
            got = prepare_conv(a, flipped.shape, (1, 2), crop).apply(flipped)
            assert np.array_equal(got, linear_fft_conv(a, flipped, (1, 2), crop))
            assert np.array_equal(got, fft_xcorr2d(img, ker, mode=mode))
        # circular convolution: the unflipped kernel over the image wrap-padded on its near sides
        near = np.pad(img, ((0, 0), (4, 0), (3, 0)), mode="wrap")
        assert np.array_equal(fft_circular_conv2d(img, ker),
                              linear_fft_conv(near, ker, (1, 2), [(4, 24), (3, 20)]))

    def test_immutable_with_a_read_only_spectrum(self):
        conv = prepare_conv(np.ones(4), (6,), (0,))
        with pytest.raises(ValueError):
            conv.spectrum[0] = 0.0
        with pytest.raises(FrozenInstanceError):
            conv.lengths = (64,)

    def test_apply_rejects_other_extents_and_complex(self):
        conv = prepare_conv(np.ones((2, 4)), (2, 6), (1,))
        for b in (np.ones((2, 7)), np.ones(()), np.ones((2, 6), dtype=complex)):
            with pytest.raises(InvalidShapeError):
                conv.apply(b)
        with pytest.raises(InvalidShapeError):
            prepare_conv(np.ones((2, 4)), (6,), (1,))
        # the axes that are not convolved must broadcast
        conv = prepare_conv(np.ones((5, 4)), (3, 4), (1,))
        for b in (np.ones((3, 4)), np.ones((2, 3, 4))):
            with pytest.raises(InvalidShapeError, match=r"\(5, 5\)"):
                conv.apply(b)


# conv_grid's cases: C=3, (mode, dtype, n, m)
CONV_GRID_CASES = (
    [("same", np.float32, n, m) for n in (64, 224, 512) for m in (3, 31)]
    + [(mode, np.float32, 224, 31) for mode in ("full", "valid", "circular")]
    + [("same", np.float64, 224, m) for m in (3, 31)]
)


class TestLineSplit:
    # With two usable CPUs, a convolution whose transforms cover 2**19 points
    # (lines x transform lengths) runs half of b's leading-axis lines on a
    # second thread.  Outputs must equal the one-CPU run bit for bit, and the
    # split must really engage.
    @staticmethod
    def run_at(cpus, fn, thread_starts, allow_cpus):
        allow_cpus(cpus)
        thread_starts.clear()
        before = threading.active_count()
        out = fn()
        assert threading.active_count() == before
        return out, len(thread_starts)

    def assert_bits(self, fn, started, thread_starts, allow_cpus, contiguous=True):
        (one, one_started), (two, two_started) = (
            self.run_at(cpus, fn, thread_starts, allow_cpus) for cpus in (1, 2))
        assert (one_started, two_started) == (0, started)
        for a, b in zip(one, two):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            # a split result is one fresh output; a whole one may be a window
            assert b.flags.c_contiguous and (a.flags.c_contiguous or not contiguous)

    @pytest.mark.parametrize("mode", ["full", "same", "valid", "circular"])
    @pytest.mark.parametrize("m", [3, 31])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_xcorr_at_n512(self, mode, m, dtype, thread_starts, allow_cpus):
        rng = Rng(60 + m)
        img, ker = randn(rng, (3, 512, 512), dtype), randn(rng, (3, m, m), dtype)
        bias = randn(rng, (3,), dtype)
        # three lines: two on the caller's thread, one on the second
        self.assert_bits(lambda: [fft_xcorr2d(img, ker, bias, mode)], 1,
                         thread_starts, allow_cpus)

    def test_circular_conv(self, thread_starts, allow_cpus):
        rng = Rng(62)
        img, ker = randn(rng, (3, 512, 512)), randn(rng, (3, 31, 31))
        self.assert_bits(lambda: [fft_circular_conv2d(img, ker)], 1, thread_starts, allow_cpus)

    def test_broadcast_operands(self, thread_starts, allow_cpus):
        rng = Rng(63)
        # a shared [1, N] operand against nine lines (5 + 4), and an [8, 1, N]
        # operand whose second axis broadcasts up to b's three columns
        a1, b1 = randn(rng, (1, 60000)), randn(rng, (9, 500))
        a2, b2 = randn(rng, (8, 1, 70000)), randn(rng, (8, 3, 200))
        self.assert_bits(lambda: [linear_fft_conv(a1, b1, (1,)),
                                  linear_fft_conv(a2, b2, (-1,), [(100, 60100)])], 2,
                         thread_starts, allow_cpus, contiguous=False)

    @pytest.mark.parametrize("dtype", [np.int8, np.float16])
    def test_output_dtype_follows_scipy_fft(self, dtype, thread_starts, allow_cpus):
        # scipy.fft transforms integers at f64 and f16 at f32, so the one
        # output both halves write into must take the whole call's dtype
        a = (np.arange(16 * 20000) % 7).reshape(16, 20000).astype(dtype)
        self.assert_bits(lambda: [linear_fft_conv(a, a[:, ::-1], (1,))], 1,
                         thread_starts, allow_cpus, contiguous=False)

    @pytest.mark.parametrize("depth,started", [(8, 0), (16, 2)])
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_kept_gconv_spectrum(self, bidirectional, depth, started, thread_starts, allow_cpus):
        rng = Rng(64)
        params = GConvParams(width=32, depth=depth, base_kernel=randn(rng, (32, depth)),
                             bidirectional=bidirectional, bias=randn(rng, (depth,)))
        signal = randn(rng, (16384, depth))

        def twice():
            fresh = replace(params)  # the first call prepares the spectrum, the second reuses it
            return [gconv_forward(signal, fresh), gconv_forward(signal, fresh)]

        # 32768 points a line: long_seq's 8 lines stay whole, 16 lines (2**19)
        # split from the first call's apply on
        self.assert_bits(twice, started, thread_starts, allow_cpus)

    def test_batched_causal_conv_shares_the_kernel_spectrum(self, thread_starts, allow_cpus):
        rng = Rng(65)
        kernel, u = randn(rng, (16384,)), randn(rng, (17, 16384))
        self.assert_bits(lambda: [causal_fft_conv(kernel, u)], 1, thread_starts, allow_cpus,
                         contiguous=False)

    @pytest.mark.parametrize("lines,started", [(1, 0), (8, 0), (15, 0), (16, 1), (17, 1)])
    def test_split_starts_at_the_threshold(self, lines, started, thread_starts, allow_cpus):
        # causal convolutions at L=16384 transform 32768 points per line
        allow_cpus(2)
        thread_starts.clear()
        causal_fft_conv(np.ones(16384), np.ones((lines, 16384)))
        assert len(thread_starts) == started

    def test_only_the_n512_conv_grid_cases_split(self, thread_starts, allow_cpus):
        allow_cpus(2)
        for mode, dtype, n, m in CONV_GRID_CASES:
            img, ker = np.ones((3, n, n), dtype), np.ones((3, m, m), dtype)
            thread_starts.clear()
            fft_xcorr2d(img, ker, mode=mode)
            assert len(thread_starts) == (n == 512), (mode, dtype, n, m)
        # long_seq's per-channel causal convolution: one line
        thread_starts.clear()
        causal_fft_conv(np.ones(16384), np.ones(16384))
        assert thread_starts == []

    def test_errors_read_the_same_at_one_and_two_cpus(self, thread_starts, allow_cpus):
        nan_image = np.ones((3, 512, 512))
        nan_image[2, 7, 7] = np.nan
        calls = [
            lambda: fft_xcorr2d(nan_image, np.ones((3, 3, 3))),
            lambda: causal_fft_conv(np.ones(16384), np.full((16, 16384), np.inf)),
            # the axes outside the convolved one must broadcast: (2, .) against (3, .)
            lambda: linear_fft_conv(np.ones((8, 2, 70000)), np.ones((8, 3, 200)), (-1,)),
            lambda: prepare_conv(np.ones((16, 16384)), (16, 16384), (1,)).apply(np.ones((16, 100))),
        ]
        for call in calls:
            messages = []
            for cpus in (1, 2):
                allow_cpus(cpus)
                thread_starts.clear()
                with pytest.raises((InvalidShapeError, NonFiniteError)) as exc:
                    call()
                messages.append((type(exc.value), str(exc.value)))
                assert thread_starts == []
            assert messages[0] == messages[1]

    @pytest.mark.parametrize("site", ["one-off", "kept"])
    def test_worker_half_error_reaches_the_caller(self, site, allow_cpus, monkeypatch):
        allow_cpus(2)
        real = spectral._inverse

        def inverse_failing_off_the_main_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("worker half")
            return real(*args)

        monkeypatch.setattr(spectral, "_inverse", inverse_failing_off_the_main_thread)
        if site == "one-off":
            call = lambda: fft_xcorr2d(np.ones((3, 512, 512)), np.ones((3, 3, 3)))  # noqa: E731
        else:
            conv = prepare_conv(np.ones(16384), (16384,), (-1,), [(0, 16384)])
            call = lambda: conv.apply(np.ones((16, 16384)))  # noqa: E731
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="worker half"):
            call()
        assert threading.active_count() == before


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


def _circular_xcorr_224_31():
    rng = Rng(14)
    fft_xcorr2d(randn(rng, (1, 224, 224)), randn(rng, (1, 31, 31)), mode="circular")


def _circular_conv_224_31():
    rng = Rng(14)
    fft_circular_conv2d(randn(rng, (1, 224, 224)), randn(rng, (1, 31, 31)))


def _causal_16384():
    rng = Rng(15)
    causal_fft_conv(randn(rng, (16384,)), randn(rng, (16384,)))


def _bidirectional_gconv_16384():
    rng = Rng(16)
    params = GConvParams(width=32, depth=2, base_kernel=randn(rng, (32, 2)),
                         bidirectional=True)
    gconv_forward(randn(rng, (16384, 2)), params)


def _record_seam_lengths(monkeypatch):
    """Patch prepare_conv, the step every convolution (linear_fft_conv and the
    kernels ssm and gconv keep) starts from, and every scipy.fft call; each
    convolution records (alias-free bound per axis, full supports,
    [(axis, length), ...]) for the transforms of its prepare and apply steps."""
    calls = []
    real_prepare = spectral.prepare_conv

    def prepare(a, b_shape, axes, crop=None):
        axes = [ax % np.ndim(a) for ax in axes]
        supports = [np.shape(a)[ax] + b_shape[ax] - 1 for ax in axes]
        windows = crop if crop is not None else [(0, s) for s in supports]
        need = {ax: max(stop, s - start) for ax, (start, stop), s in zip(axes, windows, supports)}
        calls.append((need, supports, []))
        return real_prepare(a, b_shape, axes, crop)

    monkeypatch.setattr(spectral, "prepare_conv", prepare)
    for name in ("fft", "ifft", "rfft", "irfft", "rfftn", "irfftn"):
        def recording(x, n, axes, *args, real=getattr(scipy.fft, name), **kwargs):
            resolved = np.atleast_1d(axes) % np.ndim(x)
            lengths = np.shape(x)[resolved[0]] if n is None else n  # ifft keeps its length
            calls[-1][2].extend(zip(resolved.tolist(), np.atleast_1d(lengths).tolist()))
            return real(x, n, axes, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, recording)
    return calls


# linear supports 254 = 2*127, 284 = 4*71 (both circular routes: a window of
# the image wrap-padded to 254), 32767 = 7*31*151 and 49150 = 2*5^2*983; the
# kept windows need 254/239/224 (full/same/valid), 254, 254, 32767 and 32767
@pytest.mark.parametrize("run,support", [
    (_xcorr_224_31, 254), (_circular_xcorr_224_31, 284), (_circular_conv_224_31, 284),
    (_causal_16384, 32767), (_bidirectional_gconv_16384, 49150),
])
def test_padded_transform_lengths_are_five_smooth(monkeypatch, run, support):
    calls = _record_seam_lengths(monkeypatch)
    run()
    assert calls
    for need, supports, lengths in calls:
        assert set(supports) == {support}
        assert lengths
        assert all(_five_smooth(n) and n >= need[ax] for ax, n in lengths), (need, lengths)


def test_bidirectional_gconv_transforms_at_the_kept_window(monkeypatch):
    # the two-sided convolution keeps 16384 of 49150 samples, so 32768 points
    # are alias-free where the whole support needed 49152
    calls = _record_seam_lengths(monkeypatch)
    _bidirectional_gconv_16384()
    assert {n for _, _, lengths in calls for _, n in lengths} == {32768}


def _fft_backend_lines(source):
    """Lines where `source` reaches numpy.fft or scipy.fft through an import in
    any spelling (parenthesised, aliased) or as `.fft` of a name bound to numpy
    or scipy, the spellings a line-by-line search can miss."""
    tree = ast.parse(source)
    bound = {a.asname or a.name: a.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for a in node.names}
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{bound.get(node.value.id)}.{node.attr}"]
        else:
            continue
        if any(re.match(r"(numpy|scipy)\.fft\b", name) for name in names):
            lines.add(node.lineno)
    return sorted(lines)


def test_raw_fft_calls_only_in_the_seam():
    # ROADMAP aim 2: spectral.py is the one FFT seam; verify.py keeps raw
    # calls on purpose: they are independent oracles
    raw = re.compile(r"np\.fft|numpy\.fft|scipy\.fft|from (numpy|scipy) import .*\bfft\b")
    for spelling, want in (("import numpy as xp\nxp.fft.rfft(x)", [2]),
                           ("from scipy import (\n    fft,\n)", [1]),
                           ("import scipy.fft as sf", [1]), ("from numpy.fft import rfft", [1]),
                           ("import numpy as np\nnp.linalg.norm(x)", []),
                           ("from . import spectral\nspectral.rfft2(x)", [])):
        assert _fft_backend_lines(spelling) == want, spelling
    src = Path(spectral_ops.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name in ("spectral.py", "verify.py"):
            continue
        text = path.read_text()
        lines = {n for n, line in enumerate(text.splitlines(), 1) if raw.search(line)}
        offenders += [f"{path.name}:{n}" for n in sorted(lines | set(_fft_backend_lines(text)))]
    assert offenders == []
    assert _fft_backend_lines((src / "spectral.py").read_text())


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
