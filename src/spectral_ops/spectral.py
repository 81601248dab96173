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
for the signal's transforms.  A one-off convolution releases its prepared
spectrum right after the product, before the inverse passes.  A convolution
whose transforms cover at least ``_SPLIT_POINTS`` points runs half of its
leading-axis lines on a short-lived second thread when the process may use
more than one CPU; every line transforms alone, so the bits are the same.
The direct-form references
these routes are verified against, ``dft_naive`` among them, live in
``oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidShapeError
from .tensor import _on_two_threads, _usable_cpus

# lines x transform lengths at and above which a convolution splits its lines
# over two threads: conv_grid's n=512 cases (3 x 540 x 540) split; its n <= 224
# cases (at most 3 x 256 x 256) ran slower split, and long_seq's gconv
# (8 x 32768) stays whole
_SPLIT_POINTS = 2**19


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
    a = np.asarray(a, np.result_type(a, b))
    axes, _, lengths, windows = _plan(a, b.shape, axes, crop)
    return _by_lines(lambda x, y: _one_off(x, y, axes, windows), a, b, axes, lengths, windows)


def _one_off(a, b, axes, crop) -> np.ndarray:
    """prepare_conv(a, b.shape, axes, crop).apply(b) on this thread, with a's
    spectrum released right after the product, before the inverse passes."""
    conv = prepare_conv(a, b.shape, axes, crop)
    spec, geometry = conv._product(conv._checked(b)), (conv.lengths, conv.axes, conv.windows)
    del conv
    return _inverse(spec, *geometry)


def _by_lines(fn, other, b, axes, lengths, windows) -> np.ndarray:
    """fn(other, b): the kept windows of b's convolution with `other` (the other
    operand, or a prepared spectrum of no higher rank).  It runs in two halves,
    b's first ceil(lines/2) lines on this thread and the rest on a second one,
    each writing its window into one output, when b has a leading axis outside
    `axes` with two or more lines that `other` matches or broadcasts, the
    transforms cover _SPLIT_POINTS points (lines x lengths) and a second CPU
    is usable."""
    import scipy.fft

    lines = b.shape[0] if -b.ndim not in axes else 1
    if lines < 2 or lines * math.prod(lengths) < _SPLIT_POINTS:
        return fn(other, b)
    outside = [tuple(1 if i - len(s) in axes else e for i, e in enumerate(s))
               for s in (other.shape, b.shape)]
    try:
        shape = list(np.broadcast_shapes(*outside))
    except ValueError:  # fn raises it, about the whole operands
        return fn(other, b)
    if len(shape) != b.ndim or shape[0] != lines or _usable_cpus() < 2:
        return fn(other, b)
    for ax, (lo, hi) in zip(axes, windows):
        shape[ax] = hi - lo
    # the whole convolution's dtype: the real part of its product spectrum, where
    # a real `other` transforms at scipy.fft's precision for its dtype
    spec = other if np.iscomplexobj(other) else scipy.fft.rfft(np.zeros(1, other.dtype))
    out = np.empty(shape, np.finfo(np.result_type(spec.dtype, b.dtype)).dtype)
    shared = other.ndim < b.ndim or other.shape[0] == 1

    def half(part):
        out[part] = fn(other if shared else other[part], b[part])

    cut = (lines + 1) // 2
    _on_two_threads(half, (slice(cut),), (slice(cut, None),))
    return out


def _plan(a, b_shape, axes, crop):
    """prepare_conv's checks, then its (axes, extents, lengths, windows)."""
    import scipy.fft

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
    return axes, extents, lengths, windows


def prepare_conv(a, b_shape, axes, crop=None) -> PreparedConv:
    """`a` transformed once, so that .apply(b) is linear_fft_conv(a, b, axes,
    crop) for any `b` of shape `b_shape`, transforming only `b`.

    Each axis transforms at the smallest 5-smooth n >= max(stop, S - start)
    that also holds both operands.  Proof that the window is alias-free: a
    length-n circular convolution gives sum_k full[p + k*n], and for
    start <= p < stop <= n every term with k != 0 lies outside [0, S).
    """
    a = np.asarray(a)
    axes, extents, lengths, windows = _plan(a, b_shape, axes, crop)
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
        return _by_lines(lambda s, part: _convolve(replace(self, spectrum=s), part),
                         self.spectrum, self._checked(b), self.axes, self.lengths, self.windows)

    def _checked(self, b) -> np.ndarray:
        # `b` real, with the prepared extents, and at least at the spectrum's
        # precision, so that an f32 `b` cannot cap an f64 result
        b = np.asarray(b)
        if np.iscomplexobj(b):
            raise InvalidShapeError("linear_fft_conv expects real operands")
        if b.ndim < -min(self.axes) or tuple(b.shape[ax] for ax in self.axes) != self.extents:
            raise InvalidShapeError(f"shape {b.shape} lacks the extents {self.extents} "
                                    f"prepared for axes {self.axes}")
        return np.asarray(b, np.result_type(b, np.finfo(self.spectrum.dtype).dtype))

    def _product(self, b) -> np.ndarray:
        # the spectrum of a checked `b` times the prepared one
        spec = _pruned_rfftn(b, self.lengths, self.axes)
        try:
            fits = np.broadcast_shapes(self.spectrum.shape, spec.shape) == spec.shape
        except ValueError:
            raise InvalidShapeError(f"shape {b.shape} does not broadcast with the prepared "
                                    f"spectrum {self.spectrum.shape} outside axes "
                                    f"{self.axes}") from None
        # the prepared spectrum stays the left factor, because with fused
        # multiply-adds a complex product is not bitwise commutative
        return np.multiply(self.spectrum, spec, out=spec if fits else None)


def _convolve(conv: PreparedConv, b) -> np.ndarray:
    return _inverse(conv._product(b), conv.lengths, conv.axes, conv.windows)


def _inverse(spec, lengths, axes, windows) -> np.ndarray:
    """The kept windows of the inverse transform of a product spectrum."""
    import scipy.fft

    # pruned: the complex passes run in place and keep only their window's
    # rows, so the real pass runs over the kept rows alone
    kept = [(..., slice(*w)) + (slice(None),) * (-1 - ax) for ax, w in zip(axes, windows)]
    for ax, index in zip(axes[:-1], kept):
        spec = scipy.fft.ifft(spec, None, ax, overwrite_x=True)[index]
    return scipy.fft.irfft(spec, lengths[-1], axes[-1])[kept[-1]]
