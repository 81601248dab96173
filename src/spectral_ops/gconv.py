"""Multi-scale interpolated global convolution kernels.

A small base kernel of shape [width, depth] is stretched to cover a whole
sequence: segment i (i = 0 .. scale_count(L)-1) is the base kernel scaled by
2^-i and bilinearly resized to length width * 2^i.  The segments are
concatenated and the first L positions kept, so nearby taps come from the
fine segments and far-away taps from coarse, exponentially damped ones.
When the concatenation covers more than L positions the tail scales are
simply discarded (take-first-L, as designed); when it covers fewer the
configuration is rejected with advice to raise `width`.

Bidirectional contract (made precise here because the usual sketch of it is
ambiguous): build_kernel returns [2L, depth] — rows 0..L-1 are the forward
(causal) taps k_f and rows L..2L-1 the backward (anti-causal) taps k_b, both
taken from the same multi-scale construction.  The forward output is

    y[t] = sum_{s=0..L-1} k_f[s] * u[t-s]  +  sum_{s=0..L-1} k_b[s] * u[t+s]

realized as samples L-1 .. 2L-2 of one linear FFT convolution with the
two-sided (2L-1)-tap kernel h[L-1+s] = k_f[s], h[L-1-s] += k_b[s] (center
tap k_f[0] + k_b[0]).  Unidirectional gconv is the first sum alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import ConfigError, InvalidShapeError


@dataclass
class GConvParams:
    """Base kernel [width, depth] plus the bidirectional flag and bias [depth]."""

    width: int
    depth: int
    base_kernel: np.ndarray
    bidirectional: bool = False
    bias: np.ndarray | None = None


def scale_count(L: int) -> int:
    """ceil(log2 L): how many geometric scales cover a length-L sequence."""
    if L < 1:
        raise InvalidShapeError(f"sequence length must be >= 1, got {L}")
    return (L - 1).bit_length()


def bilinear_resize_1d(segment, new_len: int) -> np.ndarray:
    """Per-channel linear interpolation with half-pixel-centered sampling.

    Output position i samples source coordinate (i + 0.5) * n/new_len - 0.5,
    clamped to [0, n-1] (align-corners false).  Interpolation is computed as
    a + frac * (b - a), which keeps constant segments exactly constant and
    never exceeds the endpoint magnitudes.  A floating segment keeps its
    dtype; an integer one gives float64.
    """
    seg = np.asarray(segment)
    if seg.ndim != 2:
        raise InvalidShapeError(f"segment must be [n, depth], got rank {seg.ndim}")
    n = seg.shape[0]
    if n < 1 or new_len < 1:
        raise InvalidShapeError("segment length and new_len must be >= 1")
    src = (np.arange(new_len) + 0.5) * (n / new_len) - 0.5
    src = np.clip(src, 0.0, n - 1.0)
    lo = np.floor(src).astype(np.intp)
    hi = np.minimum(lo + 1, n - 1)
    frac = (src - lo)[:, None].astype(np.result_type(seg.dtype, np.float32), copy=False)
    a = seg[lo]
    return a + frac * (seg[hi] - a)


def _check_params(params: GConvParams):
    base = np.asarray(params.base_kernel)
    if params.width < 1 or params.depth < 1:
        raise InvalidShapeError("width and depth must be >= 1")
    if base.shape != (params.width, params.depth):
        raise InvalidShapeError(
            f"base_kernel shape {base.shape} != (width, depth) = "
            f"({params.width}, {params.depth})"
        )
    if params.bias is not None and np.asarray(params.bias).shape != (params.depth,):
        raise InvalidShapeError(
            f"bias must have shape [{params.depth}], got {np.asarray(params.bias).shape}"
        )
    return base


def build_kernel(params: GConvParams, L: int) -> np.ndarray:
    """Materialize the multi-scale kernel for sequence length L.

    Returns [L, depth], or [2L, depth] when params.bidirectional (forward
    taps first, backward taps second — see the module docstring).
    """
    base = _check_params(params)
    if L < params.width:
        raise InvalidShapeError(
            f"sequence length {L} is shorter than the base kernel width {params.width}"
        )
    if L == 1:
        concat = bilinear_resize_1d(base, 1)
    else:
        s = scale_count(L)
        segments = [
            bilinear_resize_1d(base * 2.0**-i, params.width << i) for i in range(s)
        ]
        concat = np.concatenate(segments, axis=0)
    if concat.shape[0] < L:
        need = -(-L // (2 ** scale_count(L) - 1))
        raise ConfigError(
            f"multi-scale kernel covers only {concat.shape[0]} of {L} positions; "
            f"increase width to at least {need}"
        )
    forward = concat[:L]
    if not params.bidirectional:
        return forward.copy()
    return np.concatenate([forward, forward], axis=0)


def gconv_forward(signal, params: GConvParams) -> np.ndarray:
    """FFT convolution of a [L, depth] signal with the built kernel, plus bias:
    an L-sample crop of spectral.linear_fft_conv along the sequence axis."""
    sig = np.asarray(signal)
    if sig.ndim != 2:
        raise InvalidShapeError(f"signal must be [L, depth], got rank {sig.ndim}")
    if sig.shape[1] != params.depth:
        raise InvalidShapeError(
            f"signal depth {sig.shape[1]} != params.depth {params.depth}"
        )
    L = sig.shape[0]
    kernel = build_kernel(params, L)

    if not params.bidirectional:
        out = spectral.linear_fft_conv(kernel, sig, (0,))[:L]
    else:
        k_f, k_b = kernel[:L], kernel[L:]
        two_sided = np.zeros((2 * L - 1, params.depth), dtype=kernel.dtype)
        two_sided[L - 1 :] = k_f
        two_sided[L - 1 :: -1] += k_b  # h[L-1-s] += k_b[s]
        out = spectral.linear_fft_conv(two_sided, sig, (0,))[L - 1 : 2 * L - 1]

    if params.bias is not None:
        out = out + np.asarray(params.bias, dtype=out.dtype)[None, :]
    return out
