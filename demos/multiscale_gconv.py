"""Global convolution from a small parameter budget: a width-w base kernel is
bilinearly stretched across geometric scales, each scale damped by 2^-i, so a
handful of weights covers an arbitrarily long sequence.

Run:  python3 demos/multiscale_gconv.py
"""

import numpy as np

from spectral_ops import (
    GConvParams,
    Rng,
    bilinear_resize_1d,
    build_kernel,
    gconv_forward,
    randn,
    scale_count,
)
from spectral_ops.oracles import direct_gconv

# --- bilinear resize, the building block ----------------------------------------
ramp = np.array([[0.0], [1.0]])
print("resize [0, 1] -> length 4 :", bilinear_resize_1d(ramp, 4)[:, 0].tolist())
print("resize [0, 1] -> length 8 :", np.round(bilinear_resize_1d(ramp, 8)[:, 0], 4).tolist())

# --- the multi-scale staircase ----------------------------------------------------
# With a constant base kernel the built kernel is literally a staircase:
# width taps at 1.0, then 2*width taps at 0.5, then 4*width at 0.25, ...
width, depth, L = 4, 1, 28
params = GConvParams(width=width, depth=depth,
                     base_kernel=np.ones((width, depth)))
kernel = build_kernel(params, L)
print(f"\nconstant base, width={width}, L={L} ({scale_count(L)} scales):")
print("  kernel =", kernel[:, 0].tolist())

# --- forward pass vs a direct convolution ------------------------------------------
rng = Rng(11)
L, depth = 64, 3
params = GConvParams(width=8, depth=depth, base_kernel=randn(rng, (8, depth)),
                     bias=randn(rng, (depth,)))
u = randn(rng, (L, depth))
y = gconv_forward(u, params)

direct = direct_gconv(u, build_kernel(params, L)) + params.bias
print(f"\nunidirectional forward vs direct loop (L={L}, depth={depth}): "
      f"max err {np.max(np.abs(y - direct)):.2e}")

# --- bidirectional: one two-sided FFT pass -------------------------------------------
# build_kernel returns [2L, depth]: forward taps k_f then backward taps k_b,
# y[t] = sum_s k_f[s] u[t-s] + sum_s k_b[s] u[t+s].
params.bidirectional = True
y2 = gconv_forward(u, params)
direct2 = direct_gconv(u, build_kernel(params, L)) + params.bias
print(f"bidirectional forward vs direct loop: max err {np.max(np.abs(y2 - direct2)):.2e}")
