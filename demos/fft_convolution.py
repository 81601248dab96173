"""Walk through FFT-based 2D cross-correlation: the four border modes, the
wrap-around effect that padding removes, and the convolution theorem that
makes the whole approach work.

Run:  python3 demos/fft_convolution.py
"""

import numpy as np

from spectral_ops import (
    Rng,
    bench_conv,
    direct_xcorr2d,
    fft_axis,
    fft_circular_conv2d,
    fft_xcorr2d,
    randn,
)
from spectral_ops.oracles import direct_conv_full

rng = Rng(7)

# --- the four modes on one image/kernel pair --------------------------------
img = randn(rng, (3, 16, 16))
ker = randn(rng, (3, 5, 5))

print("output extents per mode (image 16x16, kernel 5x5):")
for mode in ("full", "same", "valid", "circular"):
    out = fft_xcorr2d(img, ker, mode=mode)
    err = np.max(np.abs(out - direct_xcorr2d(img, ker, mode=mode)))
    print(f"  {mode:8s} -> {out.shape[1]}x{out.shape[2]}   |fft - direct| = {err:.2e}")

# --- wrap-around: what happens without padding ------------------------------
# Multiplying spectra without zero-padding computes *circular* convolution:
# the kernel taps that slide past the right/bottom edge re-enter on the left/
# top.  Exactly the first (m-1) rows and columns are contaminated; everything
# else matches the linear result.
n, m = 16, 5
img1 = randn(rng, (n, n))
ker1 = randn(rng, (m, m))

full = direct_conv_full(img1, ker1)
circ = fft_circular_conv2d(img1, ker1)

band = m - 1
diff = np.abs(circ - full[:n, :n])
print(f"\ncircular vs linear convolution, {n}x{n} image, {m}x{m} kernel:")
print(f"  max difference inside the {band}-wide wrap band : {diff[:band, :].max():.3f}")
print(f"  max difference outside the band               : {diff[band:, band:].max():.2e}")

# --- the convolution theorem -------------------------------------------------
# F(f * g) = F(f) . F(g) once both signals are padded to the linear length.
f = randn(rng, (32,))
g = randn(rng, (32,))
L = 2 * 32 - 1
lhs = fft_axis(np.convolve(f, g))
rhs = fft_axis(np.pad(f, (0, L - 32))) * fft_axis(np.pad(g, (0, L - 32)))
print(f"\nconvolution theorem, length-32 signals: max |F(f*g) - F(f).F(g)| = "
      f"{np.max(np.abs(lhs - rhs)):.2e}")

# --- when is the FFT route worth it? ------------------------------------------
# Direct correlation costs O(n^2 m^2); the FFT route is O(n^2 log n) and does
# not care about m.  Around n=224, m=31 the FFT route wins clearly.
print("\ntiming (median ms, float32):")
for row in bench_conv([224], [3, 31], repeats=3):
    print(f"  {row.params:12s} {row.method:7s} {row.median_ms:8.2f} ms")
