"""Depthwise 2D cross-correlation: direct sliding-window evaluation and the
FFT route through a linear convolution with the flipped kernel.

Cross-correlation (no kernel flip) is what CNN "convolution" layers compute:

    out[c, y, x] = sum_{i,j} image[c, y+i-oy, x+j-ox] * kernel[c, i, j]

with zeros outside the image (or wrap-around for circular mode).  Everything
is depthwise: one kernel slice per channel, no cross-channel mixing.

Output extents for an H x W image and Kh x Kw kernel:

    full      (H+Kh-1, W+Kw-1)   whole correlation support, oy = ox = Kh-1 side
    same      (H, W)             centered, oy = floor((Kh-1)/2) — CNN drop-in
    valid     (H-Kh+1, W-Kw+1)   kernel fully inside (needs Kh<=H, Kw<=W)
    circular  (H, W)             indices taken modulo the image extents

`full` keeps the entire linear-correlation support (the natural crop of the
frequency-domain pipeline); `same` is the centered convention CNNs use.  The
two disagree about what "the" output is, so both are exposed as modes.

The FFT route computes correlation as convolution with the index-reversed
kernel: spectral.linear_fft_conv computes the window each mode keeps of the
(H+Kh-1, W+Kw-1) support: `full` is all of it, and `same`/`valid` start at
(Kh//2, Kw//2) and (Kh-1, Kw-1).  Both circular routes are windows of the
same primitive over the image wrap-padded by (Kh-1, Kw-1), as often as the
kernel needs: circular correlation pads the far sides and keeps valid mode,
fft_circular_conv2d (true convolution, kernel as given) pads the near sides.
direct_xcorr2d is the O(n^2 m^2) oracle it is verified against; the transform
convention is scipy's, which the seam inherits and verify's 1-D rows pin.
"""

from __future__ import annotations

import numpy as np

from . import spectral
from .errors import InvalidShapeError, require_finite

MODES = ("full", "same", "valid", "circular")


def _check_operands(image, kernel, bias, mode):
    img = np.asarray(image)
    ker = np.asarray(kernel)
    if img.ndim != 3 or ker.ndim != 3:
        raise InvalidShapeError(
            f"expected image [C, H, W] and kernel [C, Kh, Kw], got ranks "
            f"{img.ndim} and {ker.ndim}"
        )
    if img.shape[0] != ker.shape[0]:
        raise InvalidShapeError(
            f"channel mismatch: image has {img.shape[0]} channels, "
            f"kernel has {ker.shape[0]}"
        )
    if np.iscomplexobj(img) or np.iscomplexobj(ker):
        raise InvalidShapeError("image and kernel must be real")
    if 0 in img.shape[1:] + ker.shape[1:]:
        raise InvalidShapeError(f"zero extent in image {img.shape} or kernel {ker.shape}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode == "valid" and (ker.shape[1] > img.shape[1] or ker.shape[2] > img.shape[2]):
        raise InvalidShapeError(
            f"kernel extents {ker.shape[1:]} exceed image extents {img.shape[1:]} "
            f"in valid mode"
        )
    if bias is not None:
        b = np.asarray(bias)
        if b.shape != (img.shape[0],):
            raise InvalidShapeError(
                f"bias must have shape [{img.shape[0]}], got {b.shape}"
            )
        if np.iscomplexobj(b):
            raise InvalidShapeError("bias must be real")
    require_finite(image=img, kernel=ker, bias=bias)
    return img, ker


def _add_bias(out, bias):
    if bias is None:
        return out
    return out + np.asarray(bias, dtype=out.dtype)[:, None, None]


def direct_xcorr2d(image, kernel, bias=None, mode: str = "same") -> np.ndarray:
    """Literal sliding-window cross-correlation (the oracle path).

    Accumulates one kernel tap at a time in row-major tap order, so two
    calls that differ only in boundary handling add the same terms in the
    same order wherever the boundary is not touched.
    """
    img, ker = _check_operands(image, kernel, bias, mode)
    c, h, w = img.shape
    _, kh, kw = ker.shape

    dtype = np.result_type(img, ker)
    if mode == "circular":
        out = np.zeros(img.shape, dtype)
        for i in range(kh):
            for j in range(kw):
                out += np.roll(img, (-i, -j), axis=(1, 2)) * ker[:, i, j, None, None]
        return _add_bias(out, bias)

    if mode == "valid":
        pt = pl = 0
        oh, ow = h - kh + 1, w - kw + 1
    elif mode == "full":
        pt, pl = kh - 1, kw - 1
        oh, ow = h + kh - 1, w + kw - 1
    else:  # same
        pt, pl = (kh - 1) // 2, (kw - 1) // 2
        oh, ow = h, w
    # pad exactly enough that every window padded[:, y+i, x+j] exists
    pad_bottom = oh + kh - 1 - h - pt
    pad_right = ow + kw - 1 - w - pl
    padded = np.zeros((c, h + pt + pad_bottom, w + pl + pad_right), dtype=img.dtype)
    padded[:, pt : pt + h, pl : pl + w] = img

    out = np.zeros((c, oh, ow), dtype)
    for i in range(kh):
        for j in range(kw):
            out += padded[:, i : i + oh, j : j + ow] * ker[:, i, j, None, None]
    return _add_bias(out, bias)


def fft_xcorr2d(image, kernel, bias=None, mode: str = "same") -> np.ndarray:
    """Cross-correlation as an FFT convolution with the flipped kernel."""
    img, ker = _check_operands(image, kernel, bias, mode)
    _, kh, kw = ker.shape
    if mode == "circular":
        img = np.pad(img, ((0, 0), (0, kh - 1), (0, kw - 1)), mode="wrap")
        mode = "valid"
    _, h, w = img.shape

    if mode == "full":
        crop = None
    elif mode == "same":
        crop = ((kh // 2, kh // 2 + h), (kw // 2, kw // 2 + w))
    else:  # valid
        crop = ((kh - 1, h), (kw - 1, w))
    out = spectral.linear_fft_conv(img, ker[:, ::-1, ::-1], (1, 2), crop)
    return _add_bias(np.ascontiguousarray(out), bias)


def fft_circular_conv2d(image, kernel) -> np.ndarray:
    """True circular convolution: kernel indices taken modulo the image extents.

    out[c, y, x] = sum_{i,j} kernel[c, i, j] * image[c, (y-i) % H, (x-j) % W]
    for [H, W] or [C, H, W] operands: the window ((Kh-1, Kh-1+H), (Kw-1, Kw-1+W))
    of the linear convolution of the image, wrap-padded by (Kh-1, Kw-1) on its
    near sides, with the kernel as given (fft_xcorr2d passes it flipped).
    """
    squeeze = np.ndim(image) == np.ndim(kernel) == 2
    if squeeze:
        image, kernel = np.asarray(image)[None], np.asarray(kernel)[None]
    img, ker = _check_operands(image, kernel, None, "circular")
    (_, h, w), (_, kh, kw) = img.shape, ker.shape
    img = np.pad(img, ((0, 0), (kh - 1, 0), (kw - 1, 0)), mode="wrap")
    out = spectral.linear_fft_conv(img, ker, (1, 2), ((kh - 1, kh - 1 + h), (kw - 1, kw - 1 + w)))
    return np.ascontiguousarray(out[0] if squeeze else out)
