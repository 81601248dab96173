"""The library's one FFT seam: the real-input transforms and the shared
linear convolution primitive.

Convention: the forward transform is unnormalized with e^{-2 pi i nk/N}
phases; the inverse carries the 1/N factor, so forward-multiply-inverse
pipelines need no extra scaling.  It is the ``scipy.fft`` convention, which
the seam inherits; `verify`'s 1-D spectral rows pin it on ``scipy.fft``
itself.

The transforms are ``scipy.fft`` (pocketfft), which handles any length, keeps
f32 in complex64 and runs on its default single worker, so results do not
depend on the core count.  It is imported inside each function, as
``fit.py`` imports ``scipy.special``, so ``import spectral_ops`` loads no scipy
module: ``scipy.fft`` itself imports ``scipy.special``, about 200 ms cold on
2 vCPUs, which the first FFT pays once.
``linear_fft_conv`` holds the one padding policy for linear convolution:
each caller names the window it keeps, and each axis pads to the smallest
5-smooth (``next_fast_len``) length at which circular wrap cannot reach that
window, max(stop, support - start).  Its transforms are pruned: the forward
real pass runs over an operand's own rows only (bit for bit ``rfftn``), and
the inverse real pass over the kept rows only.  It is ``prepare_conv``, which
transforms one operand into an immutable ``PreparedConv``, then its
``apply``: a caller with a fixed kernel keeps the prepared half and pays only
for the signal's transforms.  The direct-form references
these routes are verified against, ``dft_naive`` among them, live in
``oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidShapeError


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
    Both operands transform at the precision of np.result_type(a, b).
    """
    a, b = np.asarray(a), np.asarray(b)
    return prepare_conv(np.asarray(a, np.result_type(a, b)), b.shape, axes, crop).apply(b)


def prepare_conv(a, b_shape, axes, crop=None) -> PreparedConv:
    """`a` transformed once, so that .apply(b) is linear_fft_conv(a, b, axes,
    crop) for any `b` of shape `b_shape`, transforming only `b`.

    Each axis transforms at the smallest 5-smooth n >= max(stop, S - start)
    that also holds both operands.  Proof that the window is alias-free: a
    length-n circular convolution gives sum_k full[p + k*n], and for
    start <= p < stop <= n every term with k != 0 lies outside [0, S).
    """
    import scipy.fft

    a = np.asarray(a)
    if a.ndim != len(b_shape):
        raise InvalidShapeError(f"operand ranks differ: {a.ndim} and {len(b_shape)}")
    if np.iscomplexobj(a):
        raise InvalidShapeError("linear_fft_conv expects real operands")
    given, axes = axes, tuple(ax - a.ndim * (ax >= 0) for ax in axes)
    if not axes or len(set(axes)) < len(axes) or not all(-a.ndim <= ax < 0 for ax in axes):
        raise InvalidShapeError(f"axes {given} are not distinct axes of a rank-{a.ndim} array")
    extents = tuple(b_shape[ax] for ax in axes)
    # an empty operand gives an empty support, but a transform needs length >= 1
    supports = [max(a.shape[ax] + e - 1, 0) for ax, e in zip(axes, extents)]
    windows = tuple((0, s) for s in supports) if crop is None else tuple(map(tuple, crop))
    if len(windows) != len(axes) or any(
        not 0 <= lo <= hi <= s for (lo, hi), s in zip(windows, supports)
    ):
        raise InvalidShapeError(f"crop {crop} is not one window inside each support {supports}")
    lengths = tuple(scipy.fft.next_fast_len(max(hi, s - lo, a.shape[ax], e, 1), real=True)
                    for (lo, hi), s, ax, e in zip(windows, supports, axes, extents))
    spectrum = _pruned_rfftn(a, lengths, axes)
    spectrum.flags.writeable = False
    return PreparedConv(spectrum, extents, lengths, axes, windows)


@dataclass(frozen=True)
class PreparedConv:
    """One operand's read-only pruned spectrum, with the transform lengths, the
    axes (negative, so that a rank-1 kernel also serves a [..., L] batch), the
    other operand's extents along them and the kept windows."""

    spectrum: np.ndarray
    extents: tuple
    lengths: tuple
    axes: tuple
    windows: tuple

    def apply(self, b) -> np.ndarray:
        """The kept window of the convolution with `b`; other axes broadcast."""
        import scipy.fft

        b = np.asarray(b)
        if np.iscomplexobj(b):
            raise InvalidShapeError("linear_fft_conv expects real operands")
        if b.ndim < -min(self.axes) or tuple(b.shape[ax] for ax in self.axes) != self.extents:
            raise InvalidShapeError(f"shape {b.shape} lacks the extents {self.extents} "
                                    f"prepared for axes {self.axes}")
        # at least the spectrum's precision, so that an f32 `b` cannot cap an f64 result
        b = np.asarray(b, np.result_type(b, np.finfo(self.spectrum.dtype).dtype))
        spec = _pruned_rfftn(b, self.lengths, self.axes)
        try:
            fits = np.broadcast_shapes(self.spectrum.shape, spec.shape) == spec.shape
        except ValueError:
            raise InvalidShapeError(f"shape {b.shape} does not broadcast with the prepared "
                                    f"spectrum {self.spectrum.shape} outside axes "
                                    f"{self.axes}") from None
        # the prepared spectrum stays the left factor, because with fused
        # multiply-adds a complex product is not bitwise commutative
        spec = np.multiply(self.spectrum, spec, out=spec if fits else None)
        # pruned inverse: the complex passes run in place and keep only their
        # window's rows, so the real pass runs over the kept rows alone
        kept = [(..., slice(*w)) + (slice(None),) * (-1 - ax)
                for ax, w in zip(self.axes, self.windows)]
        for ax, index in zip(self.axes[:-1], kept):
            spec = scipy.fft.ifft(spec, None, ax, overwrite_x=True)[index]
        return scipy.fft.irfft(spec, self.lengths[-1], self.axes[-1])[kept[-1]]
