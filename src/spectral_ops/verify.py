"""Self-verification suites: every oracle-equivalence and invariant check,
runnable in-process or through the CLI.

Each suite yields (check, max_err, tol) rows; tol 0.0 means the property
must hold exactly.  `run_suites` alone makes them SuiteResults, labelled with
the suite's SUITES key and passed when max_err <= tol.  The one check that
must find a difference yields its pass value as a fourth element.
Checks call the public ops through their module namespaces, so replacing an
implementation is guaranteed to be observed here.  The direct-form references
they compare against come from `oracles.py`, shared with the tests and demos.
The few raw `np.fft` calls here are on purpose: the library transforms with
`scipy.fft`, so numpy's FFT is an independent backend to check it against.
The 1-D spectral rows call `scipy.fft` itself, pinning the convention the seam inherits.
"""

from __future__ import annotations

import math
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import fftconv, fit, gconv, oracles, spectral, ssm
from .tensor import Rng, randn, read_tensor, write_tensor


@dataclass
class SuiteResult:
    suite: str
    check: str
    max_err: float
    tol: float
    passed: bool


def _maxabs(x) -> float:
    return float(np.max(np.abs(x)))


# --- tensor ------------------------------------------------------------------


def _suite_tensor() -> Iterator[tuple]:
    a = randn(Rng(7), (64,))
    b = randn(Rng(7), (64,))
    yield "randn-determinism", _maxabs(a - b), 0.0

    mean_err = var_err = 0.0
    for seed in (1, 2):
        z = randn(Rng(seed), (1024,))
        mean_err = max(mean_err, abs(float(z.mean())))
        var_err = max(var_err, abs(float(z.var()) - 1.0))
    yield "randn-moments-mean", mean_err, 0.1
    yield "randn-moments-var", var_err, 0.15

    rng = Rng(11)
    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        for rank in range(1, 5):
            for dtype in (np.float32, np.float64):
                t = randn(rng, (3,) * rank, dtype)
                path = Path(tmp) / f"t{rank}{np.dtype(dtype).char}.ftns"
                write_tensor(t, path)
                back = read_tensor(path)
                if (back.dtype, back.shape, back.tobytes()) != (t.dtype, t.shape, t.tobytes()):
                    identical = False
    yield "ftns-roundtrip-bit-exact", 0.0 if identical else 1.0, 0.0


# --- spectral ------------------------------------------------------------------


def _suite_spectral() -> Iterator[tuple]:
    import scipy.fft

    rng = Rng(21)

    err = 0.0
    for n in range(1, 65):
        x = randn(rng, (n,)) + 1j * randn(rng, (n,))
        err = max(err, _maxabs(scipy.fft.fft(x) - oracles.dft_naive(x)))
    yield "fft-equals-naive-dft-1..64", err, 1e-10

    x = randn(rng, (7,)) + 1j * randn(rng, (7,))
    roundtrip = scipy.fft.ifft(scipy.fft.fft(x))
    yield "inverse-roundtrip", _maxabs(roundtrip - x), 1e-12

    x = randn(rng, (32,)) + 1j * randn(rng, (32,))
    y = randn(rng, (32,)) + 1j * randn(rng, (32,))
    lin = scipy.fft.fft(2.5 * x - 1.25j * y) - (
        2.5 * scipy.fft.fft(x) - 1.25j * scipy.fft.fft(y)
    )
    yield "linearity", _maxabs(lin), 1e-10

    parseval = 0.0
    for n in (8, 31, 64):
        x = randn(rng, (n,)) + 1j * randn(rng, (n,))
        lhs = float(np.sum(np.abs(x) ** 2))
        rhs = float(np.sum(np.abs(scipy.fft.fft(x)) ** 2)) / n
        parseval = max(parseval, abs(lhs - rhs) / lhs)
    yield "parseval-relative", parseval, 1e-10

    rev = 0.0
    for n in (5, 16):
        x = randn(rng, (n,)) + 1j * randn(rng, (n,))
        twice = scipy.fft.fft(scipy.fft.fft(x))
        expected = n * x[(-np.arange(n)) % n]
        rev = max(rev, _maxabs(twice - expected))
    yield "double-transform-reversal", rev, 1e-10

    x = randn(rng, (4, 6))
    half = spectral.rfft2(x)
    full = scipy.fft.fft(scipy.fft.fft(x, axis=-1), axis=-2)
    err = max(
        _maxabs(half - full[:, : 6 // 2 + 1]),
        _maxabs(spectral.irfft2(half, (4, 6)) - x),
    )
    yield "rfft2-vs-full-and-inverse", err, 1e-12


# --- fftconv ------------------------------------------------------------------


def _conv_grid_error(dtype) -> float:
    rng = Rng(33)
    worst = 0.0
    for c in (1, 3):
        for n in range(4, 33):
            for m in (1, 3, 5, 7, 9):
                img = randn(rng, (c, n, n), dtype)
                ker = randn(rng, (c, m, m), dtype)
                for mode in fftconv.MODES:
                    if mode == "valid" and m > n:
                        continue
                    got = fftconv.fft_xcorr2d(img, ker, mode=mode)
                    want = fftconv.direct_xcorr2d(img, ker, mode=mode)
                    worst = max(worst, _maxabs(got - want))
    return worst


def _suite_fftconv() -> Iterator[tuple]:
    yield "oracle-equivalence-f64", _conv_grid_error(np.float64), 1e-10
    yield "oracle-equivalence-f32", _conv_grid_error(np.float32), 1e-3

    rng = Rng(35)
    thm = 0.0
    for _ in range(100):
        f = randn(rng, (32,))
        g = randn(rng, (32,))
        conv = np.convolve(f, g)  # linear convolution, length 63
        lhs = np.fft.fft(conv)
        rhs = np.fft.fft(f, 63) * np.fft.fft(g, 63)
        thm = max(thm, _maxabs(lhs - rhs))
    yield "convolution-theorem", thm, 1e-10

    # circular vs linear convolution: identical outside the (m-1) wrap band,
    # different inside it, n=16 / m=5
    img = randn(rng, (16, 16))
    ker = randn(rng, (5, 5))
    full = oracles.direct_conv_full(img, ker)
    circ = oracles.direct_conv_circular(img, ker)
    band = 4
    outside = _maxabs(circ[band:, band:] - full[band:16, band:16])
    yield "wrap-band-outside-exact", outside, 0.0
    inside = max(_maxabs(circ[:band, :] - full[:band, :16]), _maxabs(circ[:, :band] - full[:16, :band]))
    yield "wrap-band-inside-differs", inside, 1e-6, inside > 1e-6
    fft_circ = fftconv.fft_circular_conv2d(img, ker)
    yield "circular-vs-direct", _maxabs(fft_circ - circ), 1e-10

    # correlation with k == convolution with k flipped in both axes
    img3 = randn(rng, (2, 12, 12))
    ker3 = randn(rng, (2, 5, 5))
    corr = fftconv.fft_xcorr2d(img3, ker3, mode="full")
    flipped = np.flip(ker3, axis=(1, 2))
    conv = np.stack([oracles.direct_conv_full(img3[c], flipped[c]) for c in range(2)])
    yield "correlation-flip-duality", _maxabs(corr - conv), 1e-10

    bias = np.array([0.25, -1.5])
    with_bias = fftconv.fft_xcorr2d(img3, ker3, bias=bias, mode="same")
    without = fftconv.fft_xcorr2d(img3, ker3, mode="same")
    yield "bias-adds-exactly", _maxabs(with_bias - (without + bias[:, None, None])), 0.0


# --- fit ------------------------------------------------------------------


def _suite_fit() -> Iterator[tuple]:
    rng = Rng(55)

    x = randn(rng, (16, 8))
    naive = oracles.naive_fourier_mixing(x)
    yield "fourier-mixing-vs-naive-dft", _maxabs(fit.fourier_mixing(x) - naive), 1e-10

    seq_first = np.fft.fft(np.fft.fft(x, axis=-2), axis=-1).real
    yield "fourier-mixing-axis-commutation", _maxabs(fit.fourier_mixing(x) - seq_first), 1e-10

    y = randn(rng, (16, 8))
    lin = fit.fourier_mixing(3.0 * x - 0.5 * y) - (3.0 * fit.fourier_mixing(x) - 0.5 * fit.fourier_mixing(y))
    yield "fourier-mixing-linearity", _maxabs(lin), 1e-10

    row = randn(rng, (4, 16))
    invariance = _maxabs(
        fit.layer_norm(2.5 * row + 3.0, np.ones(16), np.zeros(16))
        - fit.layer_norm(row, np.ones(16), np.zeros(16))
    )
    yield "layer-norm-shift-scale-invariance", invariance, 1e-8

    d, heads = 8, 2
    block = fit.BlockWeights(
        w_q=randn(rng, (d, d)), b_q=randn(rng, (d,)),
        w_k=randn(rng, (d, d)), b_k=randn(rng, (d,)),
        w_v=randn(rng, (d, d)), b_v=randn(rng, (d,)),
        w_o=randn(rng, (d, d)), b_o=randn(rng, (d,)),
    )
    _, weights = fit.attention_mixing(randn(rng, (6, d)), block, heads, return_weights=True)
    neg = max(0.0, -float(weights.min()))
    rowsum = _maxabs(weights.sum(axis=-1) - 1.0)
    yield "attention-convexity", max(neg, rowsum), 1e-12

    yield "cross-entropy-uniform", abs(fit.cross_entropy(np.zeros(10), 3) - math.log(10)), 1e-12

    vit = fit.FitConfig(
        img_size=(224, 224), patch_size=(16, 16), in_chans=3, embed_dim=768,
        dim_feedforward=3072, depth=12, num_classes=1000, num_heads=12,
        mixer="attention",
    )
    rel = abs(fit.count_params(vit) / 86e6 - 1.0)
    yield "param-count-vit-base-style", rel, 0.02
    fourier_count = fit.count_params(replace(vit, mixer="fourier"))
    gap = fit.count_params(vit) - fourier_count - 12 * (4 * 768**2 + 4 * 768)
    yield "param-count-mixer-gap-exact", abs(gap), 0.0

    config = fit.FitConfig(img_size=(8, 8), patch_size=(4, 4), embed_dim=16, dim_feedforward=32, depth=2)
    model = fit.init_fit_model(config, Rng(3))
    image = randn(rng, (3, 8, 8))
    first = fit.fit_forward(image, model)
    second = fit.fit_forward(image, model)
    yield "forward-purity-bit-exact", _maxabs(first - second), 0.0


# --- ssm ------------------------------------------------------------------


def _suite_ssm() -> Iterator[tuple]:
    rng = Rng(77)

    formula_err = 0.0
    for n in (1, 2, 4, 8):
        want_a, want_b = oracles.three_case_hippo_legs(n)
        params, negated = ssm.hippo_legs(n, "as_written"), ssm.hippo_legs(n, "negated")
        formula_err = max(formula_err, _maxabs(params.A - want_a), _maxabs(params.B - want_b),
                          _maxabs(negated.A + want_a))
    yield "hippo-three-case-formula", formula_err, 0.0

    diag = ssm.matrix_exp(np.diag([1.0, 2.0]))
    err = _maxabs(diag - np.diag([math.e, math.e**2]))
    yield "matrix-exp-diagonal", err, 1e-12

    params = ssm.hippo_legs(4, "negated")
    params.C = randn(rng, (4,))
    kernel = ssm.ssm_kernel(params, 32)
    per_t = oracles.per_t_ssm_kernel(params, 32)
    yield "kernel-vs-per-t-exponential", _maxabs(kernel.values - per_t), 1e-8

    k = randn(rng, (33,))
    u = randn(rng, (33,))
    direct = oracles.direct_causal_conv(k, u)
    yield "causal-conv-vs-direct", _maxabs(ssm.causal_fft_conv(k, u) - direct), 1e-10

    # causality: zeroing future inputs leaves the prefix unchanged.  The FFT
    # route realizes the exact mathematical property up to roundoff (~1e-15),
    # so the pin is 1e-12 — tighter than the op's own 1e-10 oracle tolerance.
    head = ssm.causal_fft_conv(k, u)[:16]
    trunc = u.copy()
    trunc[16:] = 0.0
    yield "causality-prefix", _maxabs(ssm.causal_fft_conv(k, trunc)[:16] - head), 1e-12

    decay = 0.0
    for n in range(1, 9):
        p = ssm.hippo_legs(n, "negated")
        norms = [
            float(np.linalg.norm(ssm.matrix_exp(t * p.A) @ p.B)) for t in range(17)
        ]
        decay = max(decay, max(norms[t + 1] - norms[t] for t in range(16)))
    yield "negated-kernel-decay", max(decay, 0.0), 1e-12


# --- gconv ------------------------------------------------------------------


def _suite_gconv() -> Iterator[tuple]:
    rng = Rng(99)

    base = randn(rng, (4, 3))
    worst = 0.0
    for i in range(gconv.scale_count(64)):
        seg = gconv.bilinear_resize_1d(base * 2.0**-i, 4 << i)
        excess = _maxabs(seg) - 2.0**-i * _maxabs(base)
        worst = max(worst, excess)
    yield "segment-decay-bound", max(worst, 0.0), 0.0

    resized = gconv.bilinear_resize_1d(np.array([[0.0], [1.0]]), 4)
    err = _maxabs(resized - np.array([[0.0], [0.25], [0.75], [1.0]]))
    yield "half-pixel-resize-values", err, 0.0

    worst = 0.0
    for L in (8, 16, 33, 64):
        for width in (2, 4):
            for depth in (1, 3):
                for bidirectional in (False, True):
                    params = gconv.GConvParams(
                        width=width, depth=depth,
                        base_kernel=randn(rng, (width, depth)),
                        bidirectional=bidirectional,
                        bias=randn(rng, (depth,)),
                    )
                    sig = randn(rng, (L, depth))
                    want = oracles.direct_gconv(sig, gconv.build_kernel(params, L)) + params.bias
                    got = gconv.gconv_forward(sig, params)
                    worst = max(worst, _maxabs(got - want))
    yield "forward-vs-direct-oracle", worst, 1e-10

    params = gconv.GConvParams(width=4, depth=2, base_kernel=randn(rng, (4, 2)))
    a = randn(rng, (32, 2))
    b = randn(rng, (32, 2))
    lin = gconv.gconv_forward(2.0 * a - 0.75 * b, params) - (
        2.0 * gconv.gconv_forward(a, params) - 0.75 * gconv.gconv_forward(b, params)
    )
    yield "forward-linearity", _maxabs(lin), 1e-10

    doubling = max(
        abs(gconv.scale_count(2 * L) - gconv.scale_count(L) - 1) for L in (2, 8, 64, 1024)
    )
    yield "scale-count-doubling", doubling, 0.0


SUITES = {
    "tensor": _suite_tensor,
    "spectral": _suite_spectral,
    "fftconv": _suite_fftconv,
    "fit": _suite_fit,
    "ssm": _suite_ssm,
    "gconv": _suite_gconv,
}


def run_suites(names=None) -> list[SuiteResult]:
    """Run the named suites (all of them when names is None), one SuiteResult
    per row, labelled with the suite's SUITES key."""
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
        for check, max_err, tol, *inverted in SUITES[name]():
            max_err = float(max_err)
            passed = inverted[0] if inverted else max_err <= tol
            results.append(SuiteResult(name, check, max_err, tol, passed))
    return results
