"""Direct-form references that verify, the tests and the demos check the FFT
routes against.  Each evaluates its defining sum or matrix product literally
in float64, calls no FFT and imports nothing from the library but `errors`,
so it shares no code with what it checks.  Keep them naive.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidShapeError


def dft_naive(x) -> np.ndarray:
    """O(n^2) DFT of a rank-1 signal: X_k = sum_n x_n e^{-2 pi i nk/N}.

    Evaluates the definition via the explicit phase matrix in complex128.
    """
    a = np.asarray(x)
    if a.ndim != 1:
        raise InvalidShapeError(f"dft_naive expects a rank-1 signal, got rank {a.ndim}")
    if a.size < 1:
        raise InvalidShapeError("dft_naive needs length >= 1")
    a = a.astype(np.complex128, copy=False)
    n = a.size
    k = np.arange(n)
    phases = np.exp((-2j * np.pi / n) * np.outer(k, k))
    return phases @ a


def naive_fourier_mixing(x) -> np.ndarray:
    """Re(DFT_seq(DFT_hidden(x))) of a [seq, hidden] array via `dft_naive`."""
    along_hidden = np.stack([dft_naive(row) for row in np.asarray(x).astype(complex)])
    return np.stack([dft_naive(col) for col in along_hidden.T]).T.real


def direct_conv_full(img, ker) -> np.ndarray:
    """Full linear convolution of an n x n image with an m x m kernel."""
    n, m = img.shape[0], ker.shape[0]
    out = np.zeros((n + m - 1, n + m - 1))
    for i in range(m):
        for j in range(m):
            out[i : i + n, j : j + n] += ker[i, j] * img
    return out


def direct_conv_circular(img, ker) -> np.ndarray:
    """Circular 2-D convolution: one rolled copy of the image per kernel tap."""
    out = np.zeros_like(img)
    for i in range(ker.shape[0]):
        for j in range(ker.shape[1]):
            out += ker[i, j] * np.roll(img, (i, j), axis=(0, 1))
    return out


def direct_causal_conv(k, u) -> np.ndarray:
    """y[t] = sum_{s<=t} k[s] * u[t-s], the O(L^2) causal sum."""
    return np.array([sum(k[s] * u[t - s] for s in range(t + 1)) for t in range(len(u))])


def direct_gconv(signal, kernel) -> np.ndarray:
    """O(L^2) convolution of a [L, depth] signal with a built gconv kernel,
    bias excluded.  A [2L, depth] kernel is bidirectional (see gconv.py) and
    adds sum_{s<L-t} k_b[s] u[t+s] to the causal sum over its first L rows."""
    L, depth = signal.shape
    out = np.zeros((L, depth))
    k_f = kernel[:L]
    for t in range(L):
        for s in range(t + 1):
            out[t] += k_f[s] * signal[t - s]
    if kernel.shape[0] == 2 * L:
        k_b = kernel[L:]
        for t in range(L):
            for s in range(L - t):
                out[t] += k_b[s] * signal[t + s]
    return out


def per_t_ssm_kernel(params, L: int) -> np.ndarray:
    """K[t] = C . e^{tA} . B with a fresh matrix exponential for every t."""
    from scipy.linalg import expm  # lazy: keeps scipy.linalg out of `import spectral_ops`

    return np.array([params.C @ expm(t * params.A) @ params.B for t in range(L)])
