"""Structured state-space convolution kernels.

Builds the lower-triangular polynomial-basis transition pair (A, B),
materializes the kernel K[t] = C . (e^A)^t . B at integer times t (unit time
step, no bilinear/zero-order-hold discretization machinery), and applies the
kernel causally as the first L samples of spectral.linear_fft_conv.

Two sign conventions are exposed.  `as_written` keeps the transition matrix
all-positive exactly as the defining formula reads, which makes e^{tA} blow
up with t; `negated` (the default) flips the sign of A, giving the decaying
kernels the rest of the state-space literature uses.  Formula tests pin the
first, demos use the second — neither silently "fixes" the other.

Kernels are materialized by blocked powers of e^A: about 2 sqrt(L) matrix-
vector steps and one [sqrt(L), N] x [N, sqrt(L)] product instead of L
sequential steps.  The diagonal-plus-low-rank / Woodbury O(N+L) machinery
is deliberately out of scope at these state sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import spectral
from ._slot import Slot
from .errors import ConfigError, InvalidShapeError, require_finite

SIGN_CONVENTIONS = ("as_written", "negated")


@dataclass
class SsmParams:
    """State dimension N with transition A [N,N], input B [N], readout C [N]."""

    N: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray | None = None
    _kernel: Slot = field(default_factory=Slot, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class SsmKernel:
    """Materialized kernel values K[0..L-1], held as a read-only copy, and the
    spectrum causal_fft_conv prepares from them on first use (concurrent first
    calls may both prepare it, which is harmless)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.array(self.values))
        self.values.flags.writeable = False

    @property
    def L(self) -> int:
        return self.values.shape[0]

    @cached_property
    def _causal_conv(self) -> spectral.PreparedConv:
        require_finite(kernel=self.values)
        return spectral.prepare_conv(self.values, self.values.shape, (-1,), [(0, self.L)])


def hippo_legs(n: int, sign_convention: str = "negated") -> SsmParams:
    """The HiPPO-LegS transition pair (0-indexed n, k):

        A[n,k] = sqrt(2n+1)*sqrt(2k+1)  if n > k
                 n + 1                  if n = k
                 0                      if n < k
        B[n]   = sqrt(2n+1)

    `negated` returns -A instead.  C is left unset — callers choose a readout.
    """
    if n < 1:
        raise InvalidShapeError(f"state dimension must be >= 1, got {n}")
    if sign_convention not in SIGN_CONVENTIONS:
        raise ValueError(
            f"sign_convention must be one of {SIGN_CONVENTIONS}, got {sign_convention!r}"
        )
    idx = np.arange(n)
    root = np.sqrt(2.0 * idx + 1.0)
    a = np.tril(np.outer(root, root), -1) + np.diag(idx + 1.0)
    if sign_convention == "negated":
        a = -a
    return SsmParams(N=n, A=a, B=root.copy(), C=None)


def matrix_exp(m) -> np.ndarray:
    """e^M of a square matrix, by scipy.linalg.expm (Pade scaling-and-squaring)."""
    # lazy: at module level it adds tens of ms to every `demo` start, which never uses it
    from scipy.linalg import expm

    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidShapeError(f"matrix_exp needs a square matrix, got shape {a.shape}")
    return expm(a)


def ssm_kernel(params: SsmParams, L: int) -> SsmKernel:
    """values[t] = C . (e^A)^t . B for t = 0..L-1.

    e^A is computed once.  With a block size b = isqrt(L), t = j*b + k and
    values[t] = (C . (e^A)^{jb}) . ((e^A)^k B): b matvecs give the columns
    (e^A)^k B, ceil(L/b) vector-matrix products against (e^A)^b give the
    rows C . (e^A)^{jb}, and one matrix product of the two gives every
    value (unit time step).  A or B of the wrong shape raises
    InvalidShapeError, a NaN or infinity in A, B or C raises NonFiniteError,
    and a non-finite value, such as the `as_written` overflow at long L,
    raises ConfigError.

    The result is kept on `params`, keyed by the values of A, B, C and L (see
    _slot.Slot), so a repeat call with unchanged parameters returns it;
    concurrent callers may both build it, which is harmless.
    """
    if params.C is None:
        raise ConfigError("SsmParams.C is unset; set a readout vector before materializing")
    if L < 1:
        raise InvalidShapeError(f"kernel length must be >= 1, got {L}")
    c = np.asarray(params.C, dtype=np.float64)
    if c.shape != (params.N,):
        raise InvalidShapeError(f"C must have shape [{params.N}], got {c.shape}")
    return params._kernel.get((params.A, params.B, params.C), (L, params.N),
                              lambda: _blocked_kernel(params, c, L))


def _blocked_kernel(params: SsmParams, c: np.ndarray, L: int) -> SsmKernel:
    n = params.N
    a, b = np.asarray(params.A), np.asarray(params.B, dtype=np.float64)
    if a.shape != (n, n) or b.shape != (n,):
        raise InvalidShapeError(f"A and B must have shapes [{n}, {n}] and [{n}], "
                                f"got {a.shape} and {b.shape}")
    require_finite(A=a, B=b, C=c)
    step = matrix_exp(a)
    block = math.isqrt(L)
    cols = np.empty((params.N, block))
    rows = np.empty((-(-L // block), params.N))
    with np.errstate(over="ignore", invalid="ignore"):
        state = b
        for k in range(block):
            cols[:, k] = state
            state = step @ state
        jump = np.linalg.matrix_power(step, block)
        readout = c
        for j in range(rows.shape[0]):
            rows[j] = readout
            readout = readout @ jump
        values = (rows @ cols).ravel()[:L]
    finite = np.isfinite(values)
    if not finite.all():
        raise ConfigError(f"SSM kernel is non-finite from t = {finite.argmin()} of L = {L}; "
                          "use a shorter L or a decaying A (the 'negated' convention)")
    return SsmKernel(values=values)


def causal_fft_conv(kernel, u) -> np.ndarray:
    """y[..., t] = sum_{s<=t} K[s] * u[..., t-s]: the first L samples of the
    full linear convolution, which no future sample can wrap into.

    `kernel` may be an SsmKernel or a plain rank-1 array; `u` is [..., L], so
    one call transforms the kernel once for every leading row; an SsmKernel
    keeps its spectrum.  A NaN or infinity in `u` or the kernel raises
    NonFiniteError.
    """
    k = kernel.values if isinstance(kernel, SsmKernel) else np.asarray(kernel)
    u = np.asarray(u)
    if k.ndim != 1 or u.ndim < 1:
        raise InvalidShapeError("causal_fft_conv expects a rank-1 kernel and [..., L] input")
    if k.shape[0] != u.shape[-1]:
        raise InvalidShapeError(f"kernel length {k.shape[0]} != input length {u.shape[-1]}")
    require_finite(signal=u)
    if not isinstance(kernel, SsmKernel):  # a plain kernel transforms at the result precision
        kernel = SsmKernel(np.asarray(k, np.result_type(k, u)))
    return kernel._causal_conv.apply(u)
