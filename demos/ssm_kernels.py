"""State-space models as convolutions: materialize the HiPPO-LegS kernel
K[t] = C . (e^A)^t . B and apply it with a causal FFT convolution.

Run:  python3 demos/ssm_kernels.py
"""

import numpy as np
import scipy.linalg

from spectral_ops import Rng, causal_fft_conv, hippo_legs, randn, ssm_kernel

# --- the HiPPO-LegS matrices ---------------------------------------------------
# A is lower-triangular with sqrt-scaled entries, B follows the same roots.
# The "as_written" convention keeps the raw signs; the default "negated" flips
# A so the recurrence decays instead of exploding.
params = hippo_legs(2, sign_convention="as_written")
print("hippo N=2, as written:")
print("  A =", params.A.tolist())
print("  B =", params.B.tolist())

# --- kernel materialization ------------------------------------------------------
params = hippo_legs(8)
params.C = randn(Rng(3), (8,))
L = 64
kernel = ssm_kernel(params, L)

oracle = np.array([params.C @ scipy.linalg.expm(params.A * t) @ params.B for t in range(L)])
print(f"\nssm_kernel vs per-step expm oracle (N=8, L={L}): max err "
      f"{np.max(np.abs(kernel.values - oracle)):.2e}")

# the negated convention yields a decaying impulse response
mags = np.abs(kernel.values)
print("kernel magnitude at t = 0, 8, 16, 32, 63:",
      " ".join(f"{mags[t]:.4f}" for t in (0, 8, 16, 32, 63)))

# --- causal convolution -----------------------------------------------------------
# y[t] = sum_{s<=t} K[s] u[t-s]: the FFT route pads to at least 2L-1 so no
# future sample can wrap around into the past.
u = randn(Rng(4), (L,))
y = causal_fft_conv(kernel, u)

direct = np.array([sum(kernel.values[s] * u[t - s] for s in range(t + 1)) for t in range(L)])
print(f"\ncausal FFT conv vs O(L^2) loop: max err {np.max(np.abs(y - direct)):.2e}")

# causality check: zeroing the future must leave the past (numerically) alone
u_cut = u.copy()
u_cut[L // 2 :] = 0.0
y_cut = causal_fft_conv(kernel, u_cut)
print(f"prefix perturbation after zeroing u[{L // 2}:]: "
      f"{np.max(np.abs(y_cut[: L // 2] - y[: L // 2])):.2e}")
