"""End-to-end acceptance checks for the package's documented guarantees.

Each test covers one headline guarantee — oracle equivalence, the analytic
identities, the parameter-count closed forms, the qualitative timing trends,
and end-to-end determinism of the command-line tools — and prints a single
summary line.  Run with

    python3 -m pytest tests/test_acceptance.py -v -s

to see the lines as they pass; a plain pytest run shows them only on failure.
"""

import math
import time

import numpy as np

from spectral_ops import (
    FitConfig,
    GConvParams,
    InvalidShapeError,
    Rng,
    bench_conv,
    bench_mixing,
    bilinear_resize_1d,
    build_kernel,
    causal_fft_conv,
    count_params,
    cross_entropy,
    direct_xcorr2d,
    fft_axis,
    fft_circular_conv2d,
    fft_xcorr2d,
    fourier_mixing,
    gconv_forward,
    hippo_legs,
    randn,
    scale_count,
    ssm_kernel,
)
from spectral_ops.oracles import (
    direct_causal_conv,
    direct_conv_circular,
    direct_conv_full,
    direct_gconv,
    naive_fourier_mixing,
    per_t_ssm_kernel,
)
from test_cli import run_cli


def _check(num, label, ok, detail):
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{label}] failed: {detail}"


def test_01_fft_conv_matches_direct_oracle():
    start = time.perf_counter()
    rng = Rng(1001)
    worst = 0.0
    cases = 0
    for chans in (1, 3):
        for n in range(4, 33):
            for m in (1, 3, 5, 7, 9):
                img = randn(rng, (chans, n, n))
                ker = randn(rng, (chans, m, m))
                for mode in ("full", "same", "valid", "circular"):
                    if mode == "valid" and m > n:
                        for fn in (fft_xcorr2d, direct_xcorr2d):
                            try:
                                fn(img, ker, mode=mode)
                                raise AssertionError(f"{fn.__name__} accepted m>n valid")
                            except InvalidShapeError:
                                pass
                        continue
                    err = np.max(np.abs(
                        fft_xcorr2d(img, ker, mode=mode) - direct_xcorr2d(img, ker, mode=mode)
                    ))
                    worst = max(worst, float(err))
                    cases += 1
    elapsed = time.perf_counter() - start
    _check(1, "fft vs direct, full grid", worst <= 1e-10 and elapsed < 30.0,
           f"max err {worst:.3e} over {cases} cases, {elapsed:.1f}s")


def test_02_convolution_theorem():
    start = time.perf_counter()
    rng = Rng(1002)
    worst = 0.0
    for _ in range(100):
        f = randn(rng, (32,))
        g = randn(rng, (32,))
        padded_len = 63  # linear-convolution length 2*32 - 1
        lhs = fft_axis(np.convolve(f, g))
        rhs = fft_axis(np.pad(f, (0, padded_len - 32))) * fft_axis(np.pad(g, (0, padded_len - 32)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - start
    _check(2, "convolution theorem", worst <= 1e-10 and elapsed < 5.0,
           f"max err {worst:.3e} over 100 pairs, {elapsed:.2f}s")


def test_03_circular_wrap_band():
    rng = Rng(1003)
    img = randn(rng, (16, 16))
    ker = randn(rng, (5, 5))
    band = 4  # m - 1
    full = direct_conv_full(img, ker)
    circ = direct_conv_circular(img, ker)
    outside = float(np.max(np.abs(circ[band:, band:] - full[band:16, band:16])))
    inside = float(max(
        np.max(np.abs(circ[:band, :] - full[:band, :16])),
        np.max(np.abs(circ[:, :band] - full[:16, :band])),
    ))
    fft_err = float(np.max(np.abs(fft_circular_conv2d(img, ker) - circ)))
    ok = outside == 0.0 and inside > 1e-6 and fft_err <= 1e-10
    _check(3, "wrap band n=16 m=5", ok,
           f"outside band {outside:.1e} (exact), inside band {inside:.2f}, fft route {fft_err:.3e}")


def test_04_fourier_mixing_matches_naive_dft():
    x = randn(Rng(1004), (16, 8))
    hidden_then_seq = naive_fourier_mixing(x)
    seq_then_hidden = naive_fourier_mixing(x.T).T
    err_mix = float(np.max(np.abs(fourier_mixing(x) - hidden_then_seq)))
    err_commute = float(np.max(np.abs(hidden_then_seq - seq_then_hidden)))
    ok = err_mix <= 1e-10 and err_commute <= 1e-10
    _check(4, "fourier mixing vs naive DFT", ok,
           f"vs naive {err_mix:.3e}, axis-order commutation {err_commute:.3e}")


def test_05_parameter_counts():
    base = dict(
        img_size=(224, 224), patch_size=(16, 16), in_chans=3, embed_dim=768,
        dim_feedforward=3072, depth=12, num_classes=1000, num_heads=12,
    )
    attn = count_params(FitConfig(mixer="attention", **base))
    four = count_params(FitConfig(mixer="fourier", **base))
    rel = abs(attn - 86_000_000) / 86_000_000
    gap = attn - four
    expected_gap = 12 * (4 * 768**2 + 4 * 768)
    ok = rel <= 0.02 and gap == expected_gap
    _check(5, "parameter counts", ok,
           f"attention {attn:,} ({100 * rel:.2f}% from 86M), mixer gap {gap:,} == {expected_gap:,}")


def test_06_uniform_cross_entropy():
    err = abs(cross_entropy(np.zeros(10), 3) - math.log(10))
    _check(6, "uniform cross-entropy", err <= 1e-12, f"|loss - ln 10| = {err:.2e}")


def test_07_timing_trends():
    start = time.perf_counter()
    rows = bench_conv([256], [3, 31], repeats=3)
    t = {(r.params, r.method): r.median_ms for r in rows}
    direct_ratio = t[("n=256 m=31", "direct")] / t[("n=256 m=3", "direct")]
    fft_ratio = t[("n=256 m=31", "fft")] / t[("n=256 m=3", "fft")]

    rows = bench_conv([224], [31], repeats=3)
    t = {r.method: r.median_ms for r in rows}
    crossover = t["fft"] < t["direct"]

    rows = bench_mixing([4096], 256, repeats=3)
    t = {r.method: r.median_ms for r in rows}
    mixing_ratio = t["attention"] / t["fourier"]

    elapsed = time.perf_counter() - start
    ok = direct_ratio >= 10.0 and fft_ratio <= 1.5 and crossover and mixing_ratio >= 3.0 and elapsed < 300.0
    _check(7, "timing trends", ok,
           f"direct m31/m3 {direct_ratio:.1f} (>=10), fft {fft_ratio:.2f} (<=1.5), "
           f"fft<direct at n=224 {crossover}, fourier speedup {mixing_ratio:.1f}x (>=3), {elapsed:.0f}s")


def test_08_ssm_formulas():
    params = hippo_legs(2, sign_convention="as_written")
    a_exact = params.A.tolist() == [[1.0, 0.0], [math.sqrt(3.0), 2.0]]
    b_exact = params.B.tolist() == [1.0, math.sqrt(3.0)]

    params = hippo_legs(4)
    params.C = randn(Rng(1008), (4,))
    kernel = ssm_kernel(params, 32)
    kernel_err = float(np.max(np.abs(kernel.values - per_t_ssm_kernel(params, 32))))

    k = randn(Rng(1009), (33,))
    u = randn(Rng(1010), (33,))
    causal_err = float(np.max(np.abs(causal_fft_conv(k, u) - direct_causal_conv(k, u))))

    ok = a_exact and b_exact and kernel_err <= 1e-8 and causal_err <= 1e-10
    _check(8, "state-space formulas", ok,
           f"hippo N=2 exact {a_exact and b_exact}, kernel vs expm {kernel_err:.3e}, "
           f"causal conv vs O(L^2) {causal_err:.3e}")


def test_09_gconv():
    rng = Rng(1011)
    width, depth = 4, 2
    base = randn(rng, (width, depth))
    bound_ok = True
    forward_worst = 0.0
    for L in (8, 16, 33, 64):
        params = GConvParams(width=width, depth=depth, base_kernel=base,
                             bias=randn(rng, (depth,)))
        kernel = build_kernel(params, L)
        pos = 0
        for i in range(scale_count(L)):
            seg = kernel[pos : min(pos + width * 2**i, L)]
            if seg.size:
                bound_ok &= bool(np.max(np.abs(seg)) <= np.max(np.abs(base)) * 2.0 ** -i)
            pos += width * 2**i
            if pos >= L:
                break

        for bidirectional in (False, True):
            params.bidirectional = bidirectional
            u = randn(rng, (L, depth))
            expected = direct_gconv(u, build_kernel(params, L)) + params.bias
            err = float(np.max(np.abs(gconv_forward(u, params) - expected)))
            forward_worst = max(forward_worst, err)

    ramp = bilinear_resize_1d(np.array([[0.0], [1.0]]), 4)[:, 0]
    resize_exact = ramp.tolist() == [0.0, 0.25, 0.75, 1.0]

    ok = bound_ok and forward_worst <= 1e-10 and resize_exact
    _check(9, "multi-scale gconv", ok,
           f"decay bound exact {bound_ok}, forward vs direct {forward_worst:.3e}, "
           f"half-pixel ramp exact {resize_exact}")


def test_10_end_to_end_determinism(tmp_path):
    def run(*args):
        return run_cli(*args, cwd=tmp_path)

    verify_proc = run("verify")
    init_proc = run(
        "init-model", "--out", "model", "--img-size", "8", "--patch-size", "4",
        "--embed-dim", "16", "--dim-feedforward", "32", "--depth", "1",
        "--sample-input", "img.ftns",
    )
    first = run("demo", "--model", "model", "--input", "img.ftns")
    second = run("demo", "--model", "model", "--input", "img.ftns")
    ok = (
        verify_proc.returncode == 0
        and init_proc.returncode == 0
        and first.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.startswith("logits:")
    )
    tail = verify_proc.stdout.strip().splitlines()[-1] if verify_proc.stdout else "no output"
    _check(10, "end-to-end determinism", ok,
           f"verify exit {verify_proc.returncode} ({tail}), demo runs byte-identical "
           f"{first.stdout == second.stdout}")
