"""The library's one FFT seam: DFT/FFT contracts, the shared linear
convolution primitive, and a naive direct-summation oracle.

Convention: the forward transform is unnormalized with e^{-2 pi i nk/N}
phases; the inverse carries the 1/N factor, so forward-multiply-inverse
pipelines need no extra scaling.

The transforms are numpy's pocketfft, which handles any length and keeps f32
in complex64.  ``linear_fft_conv`` holds the one padding policy for linear
convolution (the smallest 5-smooth length that holds the whole support); the
convolution modules crop its output.  ``dft_naive`` is the independent O(n^2)
oracle the fast path is verified against — do not "optimize" it into an FFT.
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


def _resolve_axis(ndim: int, axis: int) -> int:
    if not -ndim <= axis < ndim:
        raise InvalidShapeError(f"axis {axis} out of range for rank-{ndim} tensor")
    return axis % ndim


def fft_axis(x, axis: int = -1, inverse: bool = False) -> np.ndarray:
    """FFT along one axis; `inverse` applies the conjugate transform with 1/N."""
    a = np.asarray(x)
    ax = _resolve_axis(a.ndim, axis)
    return np.fft.ifft(a, axis=ax) if inverse else np.fft.fft(a, axis=ax)


def rfft2(x) -> np.ndarray:
    """Real-input 2D FFT over the last two axes.

    Returns the Hermitian half-spectrum: full extent along axis -2,
    floor(W/2)+1 along axis -1.
    """
    a = np.asarray(x)
    if a.ndim < 2:
        raise InvalidShapeError(f"rfft2 needs rank >= 2, got rank {a.ndim}")
    if np.iscomplexobj(a):
        raise InvalidShapeError("rfft2 expects a real tensor")
    return np.fft.rfft2(a, axes=(-2, -1))


def irfft2(spectrum, out_extents) -> np.ndarray:
    """Inverse of rfft2; `out_extents` = (H, W) of the original real tensor."""
    a = np.asarray(spectrum)
    if a.ndim < 2:
        raise InvalidShapeError(f"irfft2 needs rank >= 2, got rank {a.ndim}")
    h, w = (int(e) for e in out_extents)
    if h < 1 or w < 1:
        raise InvalidShapeError(f"output extents must be positive, got ({h}, {w})")
    if a.shape[-2] != h or a.shape[-1] != w // 2 + 1:
        raise InvalidShapeError(
            f"half-spectrum extents {a.shape[-2:]} inconsistent with output extents "
            f"({h}, {w}): expected ({h}, {w // 2 + 1})"
        )
    return np.fft.irfft2(a, s=(h, w), axes=(-2, -1))


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) >= n, for n >= 1."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def linear_fft_conv(a, b, axes) -> np.ndarray:
    """Full linear convolution of real arrays `a` and `b` along `axes`.

    out[..., p, ...] = sum_i a[..., p - i, ...] * b[..., i, ...] over each
    listed axis, so each has extent a + b - 1; the other axes broadcast.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != b.ndim:
        raise InvalidShapeError(f"operand ranks differ: {a.ndim} and {b.ndim}")
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        raise InvalidShapeError("linear_fft_conv expects real operands")
    axes = tuple(_resolve_axis(a.ndim, ax) for ax in axes)
    extents = {ax: a.shape[ax] + b.shape[ax] - 1 for ax in axes}
    lengths = [_fast_len(extents[ax]) for ax in axes]
    spec = np.fft.rfftn(a, lengths, axes) * np.fft.rfftn(b, lengths, axes)
    full = np.fft.irfftn(spec, lengths, axes)
    return full[tuple(slice(extents.get(ax)) for ax in range(a.ndim))]
