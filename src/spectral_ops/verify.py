"""Self-verification suites: every oracle-equivalence and invariant check,
runnable in-process or through the CLI.

Each check produces a SuiteResult with the measured max error and the
tolerance it was held to (tol 0.0 means the property must hold exactly).
Checks call the public ops through their module namespaces, so replacing an
implementation is guaranteed to be observed here.  The direct-form references
they compare against come from `oracles.py`, shared with the tests and demos.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
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


def _result(suite: str, check: str, max_err: float, tol: float) -> SuiteResult:
    max_err = float(max_err)
    return SuiteResult(suite, check, max_err, tol, max_err <= tol)


def _maxabs(x) -> float:
    return float(np.max(np.abs(x)))


# --- tensor ------------------------------------------------------------------


def _suite_tensor() -> list[SuiteResult]:
    results = []
    a = randn(Rng(7), (64,))
    b = randn(Rng(7), (64,))
    results.append(_result("tensor", "randn-determinism", _maxabs(a - b), 0.0))

    mean_err = var_err = 0.0
    for seed in (1, 2):
        z = randn(Rng(seed), (1024,))
        mean_err = max(mean_err, abs(float(z.mean())))
        var_err = max(var_err, abs(float(z.var()) - 1.0))
    results.append(_result("tensor", "randn-moments-mean", mean_err, 0.1))
    results.append(_result("tensor", "randn-moments-var", var_err, 0.15))

    rng = Rng(11)
    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        for rank in range(1, 5):
            for dtype in (np.float32, np.float64):
                t = randn(rng, (3,) * rank, dtype)
                path = Path(tmp) / f"t{rank}{np.dtype(dtype).char}.ftns"
                write_tensor(t, path)
                back = read_tensor(path)
                if back.dtype != t.dtype or back.shape != t.shape:
                    identical = False
                elif back.tobytes() != t.tobytes():
                    identical = False
    results.append(
        SuiteResult("tensor", "ftns-roundtrip-bit-exact", 0.0 if identical else 1.0, 0.0, identical)
    )
    return results


# --- spectral ------------------------------------------------------------------


def _suite_spectral() -> list[SuiteResult]:
    results = []
    rng = Rng(21)

    err = 0.0
    for n in range(1, 65):
        x = randn(rng, (n,)) + 1j * randn(rng, (n,))
        err = max(err, _maxabs(spectral.fft_axis(x) - oracles.dft_naive(x)))
    results.append(_result("spectral", "fft-equals-naive-dft-1..64", err, 1e-10))

    x = randn(rng, (7,)) + 1j * randn(rng, (7,))
    roundtrip = spectral.fft_axis(spectral.fft_axis(x), inverse=True)
    results.append(_result("spectral", "inverse-roundtrip", _maxabs(roundtrip - x), 1e-12))

    x = randn(rng, (32,)) + 1j * randn(rng, (32,))
    y = randn(rng, (32,)) + 1j * randn(rng, (32,))
    lin = spectral.fft_axis(2.5 * x - 1.25j * y) - (
        2.5 * spectral.fft_axis(x) - 1.25j * spectral.fft_axis(y)
    )
    results.append(_result("spectral", "linearity", _maxabs(lin), 1e-10))

    parseval = 0.0
    for n in (8, 31, 64):
        x = randn(rng, (n,)) + 1j * randn(rng, (n,))
        lhs = float(np.sum(np.abs(x) ** 2))
        rhs = float(np.sum(np.abs(spectral.fft_axis(x)) ** 2)) / n
        parseval = max(parseval, abs(lhs - rhs) / lhs)
    results.append(_result("spectral", "parseval-relative", parseval, 1e-10))

    rev = 0.0
    for n in (5, 16):
        x = randn(rng, (n,)) + 1j * randn(rng, (n,))
        twice = spectral.fft_axis(spectral.fft_axis(x))
        expected = n * x[(-np.arange(n)) % n]
        rev = max(rev, _maxabs(twice - expected))
    results.append(_result("spectral", "double-transform-reversal", rev, 1e-10))

    x = randn(rng, (4, 6))
    half = spectral.rfft2(x)
    full = spectral.fft_axis(spectral.fft_axis(x, axis=-1), axis=-2)
    err = max(
        _maxabs(half - full[:, : 6 // 2 + 1]),
        _maxabs(spectral.irfft2(half, (4, 6)) - x),
    )
    results.append(_result("spectral", "rfft2-vs-full-and-inverse", err, 1e-12))
    return results


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


def _suite_fftconv() -> list[SuiteResult]:
    results = []
    results.append(_result("fftconv", "oracle-equivalence-f64", _conv_grid_error(np.float64), 1e-10))
    results.append(_result("fftconv", "oracle-equivalence-f32", _conv_grid_error(np.float32), 1e-3))

    rng = Rng(35)
    thm = 0.0
    for _ in range(100):
        f = randn(rng, (32,))
        g = randn(rng, (32,))
        conv = np.convolve(f, g)  # linear convolution, length 63
        lhs = np.fft.fft(conv)
        rhs = np.fft.fft(f, 63) * np.fft.fft(g, 63)
        thm = max(thm, _maxabs(lhs - rhs))
    results.append(_result("fftconv", "convolution-theorem", thm, 1e-10))

    # circular vs linear convolution: identical outside the (m-1) wrap band,
    # different inside it, n=16 / m=5
    img = randn(rng, (16, 16))
    ker = randn(rng, (5, 5))
    full = oracles.direct_conv_full(img, ker)
    circ = oracles.direct_conv_circular(img, ker)
    band = 4
    outside = _maxabs(circ[band:, band:] - full[band:16, band:16])
    results.append(_result("fftconv", "wrap-band-outside-exact", outside, 0.0))
    inside = max(_maxabs(circ[:band, :] - full[:band, :16]), _maxabs(circ[:, :band] - full[:16, :band]))
    results.append(
        SuiteResult("fftconv", "wrap-band-inside-differs", inside, 1e-6, inside > 1e-6)
    )
    fft_circ = fftconv.fft_circular_conv2d(img, ker)
    results.append(_result("fftconv", "circular-vs-direct", _maxabs(fft_circ - circ), 1e-10))

    # correlation with k == convolution with k flipped in both axes
    img3 = randn(rng, (2, 12, 12))
    ker3 = randn(rng, (2, 5, 5))
    corr = fftconv.fft_xcorr2d(img3, ker3, mode="full")
    flipped = np.flip(ker3, axis=(1, 2))
    conv = np.stack([oracles.direct_conv_full(img3[c], flipped[c]) for c in range(2)])
    results.append(_result("fftconv", "correlation-flip-duality", _maxabs(corr - conv), 1e-10))

    bias = np.array([0.25, -1.5])
    with_bias = fftconv.fft_xcorr2d(img3, ker3, bias=bias, mode="same")
    without = fftconv.fft_xcorr2d(img3, ker3, mode="same")
    results.append(
        _result("fftconv", "bias-adds-exactly", _maxabs(with_bias - (without + bias[:, None, None])), 0.0)
    )
    return results


# --- fit ------------------------------------------------------------------


def _suite_fit() -> list[SuiteResult]:
    results = []
    rng = Rng(55)

    x = randn(rng, (16, 8))
    naive = oracles.naive_fourier_mixing(x)
    results.append(
        _result("fit", "fourier-mixing-vs-naive-dft", _maxabs(fit.fourier_mixing(x) - naive), 1e-10)
    )

    seq_first = np.fft.fft(np.fft.fft(x, axis=-2), axis=-1).real
    results.append(
        _result("fit", "fourier-mixing-axis-commutation", _maxabs(fit.fourier_mixing(x) - seq_first), 1e-10)
    )

    y = randn(rng, (16, 8))
    lin = fit.fourier_mixing(3.0 * x - 0.5 * y) - (3.0 * fit.fourier_mixing(x) - 0.5 * fit.fourier_mixing(y))
    results.append(_result("fit", "fourier-mixing-linearity", _maxabs(lin), 1e-10))

    row = randn(rng, (4, 16))
    invariance = _maxabs(
        fit.layer_norm(2.5 * row + 3.0, np.ones(16), np.zeros(16))
        - fit.layer_norm(row, np.ones(16), np.zeros(16))
    )
    results.append(_result("fit", "layer-norm-shift-scale-invariance", invariance, 1e-8))

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
    results.append(_result("fit", "attention-convexity", max(neg, rowsum), 1e-12))

    results.append(
        _result("fit", "cross-entropy-uniform", abs(fit.cross_entropy(np.zeros(10), 3) - math.log(10)), 1e-12)
    )

    vit = fit.FitConfig(
        img_size=(224, 224), patch_size=(16, 16), in_chans=3, embed_dim=768,
        dim_feedforward=3072, depth=12, num_classes=1000, num_heads=12,
        mixer="attention",
    )
    rel = abs(fit.count_params(vit) / 86e6 - 1.0)
    results.append(_result("fit", "param-count-vit-base-style", rel, 0.02))
    fourier_count = fit.count_params(
        fit.FitConfig(
            img_size=(224, 224), patch_size=(16, 16), in_chans=3, embed_dim=768,
            dim_feedforward=3072, depth=12, num_classes=1000, num_heads=12,
            mixer="fourier",
        )
    )
    gap = fit.count_params(vit) - fourier_count - 12 * (4 * 768**2 + 4 * 768)
    results.append(_result("fit", "param-count-mixer-gap-exact", abs(gap), 0.0))

    config = fit.FitConfig(img_size=(8, 8), patch_size=(4, 4), embed_dim=16, dim_feedforward=32, depth=2)
    model = fit.init_fit_model(config, Rng(3))
    image = randn(rng, (3, 8, 8))
    first = fit.fit_forward(image, model)
    second = fit.fit_forward(image, model)
    results.append(_result("fit", "forward-purity-bit-exact", _maxabs(first - second), 0.0))
    return results


# --- ssm ------------------------------------------------------------------


def _suite_ssm() -> list[SuiteResult]:
    results = []
    rng = Rng(77)

    formula_err = 0.0
    for n in (1, 2, 4, 8):
        params = ssm.hippo_legs(n, "as_written")
        for i in range(n):
            for j in range(n):
                if i > j:
                    want = math.sqrt(2 * i + 1) * math.sqrt(2 * j + 1)
                elif i == j:
                    want = i + 1.0
                else:
                    want = 0.0
                formula_err = max(formula_err, abs(params.A[i, j] - want))
            formula_err = max(formula_err, abs(params.B[i] - math.sqrt(2 * i + 1)))
        negated = ssm.hippo_legs(n, "negated")
        formula_err = max(formula_err, _maxabs(negated.A + params.A))
    results.append(_result("ssm", "hippo-three-case-formula", formula_err, 0.0))

    diag = ssm.matrix_exp(np.diag([1.0, 2.0]))
    err = _maxabs(diag - np.diag([math.e, math.e**2]))
    results.append(_result("ssm", "matrix-exp-diagonal", err, 1e-12))

    params = ssm.hippo_legs(4, "negated")
    params.C = randn(rng, (4,))
    kernel = ssm.ssm_kernel(params, 32)
    per_t = oracles.per_t_ssm_kernel(params, 32)
    results.append(_result("ssm", "kernel-vs-per-t-exponential", _maxabs(kernel.values - per_t), 1e-8))

    k = randn(rng, (33,))
    u = randn(rng, (33,))
    direct = oracles.direct_causal_conv(k, u)
    results.append(
        _result("ssm", "causal-conv-vs-direct", _maxabs(ssm.causal_fft_conv(k, u) - direct), 1e-10)
    )

    # causality: zeroing future inputs leaves the prefix unchanged.  The FFT
    # route realizes the exact mathematical property up to roundoff (~1e-15),
    # so the pin is 1e-12 — tighter than the op's own 1e-10 oracle tolerance.
    head = ssm.causal_fft_conv(k, u)[:16]
    trunc = u.copy()
    trunc[16:] = 0.0
    results.append(
        _result("ssm", "causality-prefix", _maxabs(ssm.causal_fft_conv(k, trunc)[:16] - head), 1e-12)
    )

    decay = 0.0
    for n in range(1, 9):
        p = ssm.hippo_legs(n, "negated")
        norms = [
            float(np.linalg.norm(ssm.matrix_exp(t * p.A) @ p.B)) for t in range(17)
        ]
        decay = max(decay, max(norms[t + 1] - norms[t] for t in range(16)))
    results.append(_result("ssm", "negated-kernel-decay", max(decay, 0.0), 1e-12))
    return results


# --- gconv ------------------------------------------------------------------


def _suite_gconv() -> list[SuiteResult]:
    results = []
    rng = Rng(99)

    base = randn(rng, (4, 3))
    worst = 0.0
    for i in range(gconv.scale_count(64)):
        seg = gconv.bilinear_resize_1d(base * 2.0**-i, 4 << i)
        excess = _maxabs(seg) - 2.0**-i * _maxabs(base)
        worst = max(worst, excess)
    results.append(_result("gconv", "segment-decay-bound", max(worst, 0.0), 0.0))

    resized = gconv.bilinear_resize_1d(np.array([[0.0], [1.0]]), 4)
    err = _maxabs(resized - np.array([[0.0], [0.25], [0.75], [1.0]]))
    results.append(_result("gconv", "half-pixel-resize-values", err, 0.0))

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
    results.append(_result("gconv", "forward-vs-direct-oracle", worst, 1e-10))

    params = gconv.GConvParams(width=4, depth=2, base_kernel=randn(rng, (4, 2)))
    a = randn(rng, (32, 2))
    b = randn(rng, (32, 2))
    lin = gconv.gconv_forward(2.0 * a - 0.75 * b, params) - (
        2.0 * gconv.gconv_forward(a, params) - 0.75 * gconv.gconv_forward(b, params)
    )
    results.append(_result("gconv", "forward-linearity", _maxabs(lin), 1e-10))

    doubling = max(
        abs(gconv.scale_count(2 * L) - gconv.scale_count(L) - 1) for L in (2, 8, 64, 1024)
    )
    results.append(_result("gconv", "scale-count-doubling", float(doubling), 0.0))
    return results


SUITES = {
    "tensor": _suite_tensor,
    "spectral": _suite_spectral,
    "fftconv": _suite_fftconv,
    "fit": _suite_fit,
    "ssm": _suite_ssm,
    "gconv": _suite_gconv,
}


def run_suites(names=None) -> list[SuiteResult]:
    """Run the named suites (all of them when names is None)."""
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
        results.extend(SUITES[name]())
    return results
