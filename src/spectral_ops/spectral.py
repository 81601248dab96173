"""The library's one FFT seam: DFT/FFT contracts and the shared linear
convolution primitive.

Convention: the forward transform is unnormalized with e^{-2 pi i nk/N}
phases; the inverse carries the 1/N factor, so forward-multiply-inverse
pipelines need no extra scaling.

The transforms are ``scipy.fft`` (pocketfft), which handles any length, keeps
f32 in complex64 and runs on its default single worker, so results do not
depend on the core count.  It is imported inside each function: at module
level it would add tens of ms to every ``import spectral_ops``.
``linear_fft_conv`` holds the one padding policy for linear convolution:
each caller names the window it keeps, and each axis pads to the smallest
5-smooth (``next_fast_len``) length at which circular wrap cannot reach that
window, max(stop, support - start).  Its transforms are pruned: the forward
real pass runs over an operand's own rows only (bit for bit ``rfftn``), and
the inverse real pass over the kept rows only.  The direct-form references
these routes are verified against, ``dft_naive`` among them, live in
``oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidShapeError


def _resolve_axis(ndim: int, axis: int) -> int:
    if not -ndim <= axis < ndim:
        raise InvalidShapeError(f"axis {axis} out of range for rank-{ndim} tensor")
    return axis % ndim


def fft_axis(x, axis: int = -1, inverse: bool = False) -> np.ndarray:
    """FFT along one axis; `inverse` applies the conjugate transform with 1/N."""
    import scipy.fft

    a = np.asarray(x)
    ax = _resolve_axis(a.ndim, axis)
    return scipy.fft.ifft(a, axis=ax) if inverse else scipy.fft.fft(a, axis=ax)


def rfft2(x) -> np.ndarray:
    """Real-input 2D FFT over the last two axes.

    Returns the Hermitian half-spectrum: full extent along axis -2,
    floor(W/2)+1 along axis -1.
    """
    import scipy.fft

    a = np.asarray(x)
    if a.ndim < 2:
        raise InvalidShapeError(f"rfft2 needs rank >= 2, got rank {a.ndim}")
    if np.iscomplexobj(a):
        raise InvalidShapeError("rfft2 expects a real tensor")
    return scipy.fft.rfft2(a, axes=(-2, -1))


def irfft2(spectrum, out_extents) -> np.ndarray:
    """Inverse of rfft2; `out_extents` = (H, W) of the original real tensor."""
    import scipy.fft

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
    return scipy.fft.irfft2(a, s=(h, w), axes=(-2, -1))


def _pruned_rfftn(x, lengths, axes):
    """scipy.fft.rfftn(x, lengths, axes) bit for bit, its real pass over x's own rows only."""
    import scipy.fft

    spec = scipy.fft.rfft(np.ascontiguousarray(x), lengths[-1], axes[-1])
    for n, ax in zip(lengths[:-1], axes[:-1]):
        spec = scipy.fft.fft(spec, n, ax)
    return spec


def linear_fft_conv(a, b, axes, crop=None) -> np.ndarray:
    """Window `crop` of the full linear convolution of real arrays `a` and `b`.

    full[..., p, ...] = sum_i a[..., p - i, ...] * b[..., i, ...] over each
    listed axis, whose support has extent S = a + b - 1; the other axes
    broadcast.  `crop` holds one (start, stop) per listed axis, default the
    whole support (0, S), and only that window is computed and returned.

    Each axis transforms at the smallest 5-smooth n >= max(stop, S - start)
    that also holds both operands.  Proof that the window is alias-free: a
    length-n circular convolution gives sum_k full[p + k*n], and for
    start <= p < stop <= n every term with k != 0 lies outside [0, S).
    """
    import scipy.fft

    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != b.ndim:
        raise InvalidShapeError(f"operand ranks differ: {a.ndim} and {b.ndim}")
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        raise InvalidShapeError("linear_fft_conv expects real operands")
    axes = tuple(_resolve_axis(a.ndim, ax) for ax in axes)
    # an empty operand gives an empty support, but a transform needs length >= 1
    supports = [max(a.shape[ax] + b.shape[ax] - 1, 0) for ax in axes]
    windows = [(0, s) for s in supports] if crop is None else list(crop)
    if len(windows) != len(axes) or any(
        not 0 <= lo <= hi <= s for (lo, hi), s in zip(windows, supports)
    ):
        raise InvalidShapeError(f"crop {crop} is not one window inside each support {supports}")
    lengths = [scipy.fft.next_fast_len(max(hi, s - lo, a.shape[ax], b.shape[ax], 1), real=True)
               for (lo, hi), s, ax in zip(windows, supports, axes)]
    spec = _pruned_rfftn(a, lengths, axes) * _pruned_rfftn(b, lengths, axes)
    # pruned inverse: the complex passes run in place and keep only their
    # window's rows, so the real pass runs over the kept rows alone
    kept = [(slice(None),) * ax + (slice(*w),) for ax, w in zip(axes, windows)]
    for ax, index in zip(axes[:-1], kept):
        spec = scipy.fft.ifft(spec, None, ax, overwrite_x=True)[index]
    return scipy.fft.irfft(spec, lengths[-1], axes[-1])[kept[-1]]
