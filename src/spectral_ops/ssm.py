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

Kernels are materialized naively; the diagonal-plus-low-rank / Woodbury
O(N+L) machinery is deliberately out of scope at these state sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import ConfigError, InvalidShapeError

SIGN_CONVENTIONS = ("as_written", "negated")


@dataclass
class SsmParams:
    """State dimension N with transition A [N,N], input B [N], readout C [N]."""

    N: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray | None = None
    sign_convention: str = "negated"


@dataclass
class SsmKernel:
    """Materialized kernel values K[0..L-1]."""

    values: np.ndarray

    @property
    def L(self) -> int:
        return self.values.shape[0]


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
    return SsmParams(N=n, A=a, B=root.copy(), C=None, sign_convention=sign_convention)


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

    e^A is computed once; the powers come from repeated multiplication
    against the running state vector (unit time step).  A non-finite
    value, such as the `as_written` overflow at long L, raises ConfigError.
    """
    if params.C is None:
        raise ConfigError("SsmParams.C is unset; set a readout vector before materializing")
    if L < 1:
        raise InvalidShapeError(f"kernel length must be >= 1, got {L}")
    c = np.asarray(params.C, dtype=np.float64)
    if c.shape != (params.N,):
        raise InvalidShapeError(f"C must have shape [{params.N}], got {c.shape}")
    step = matrix_exp(params.A)
    state = np.asarray(params.B, dtype=np.float64).copy()
    values = np.empty(L)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(L):
            values[t] = c @ state
            state = step @ state
    finite = np.isfinite(values)
    if not finite.all():
        raise ConfigError(f"SSM kernel is non-finite from t = {finite.argmin()} of L = {L}; "
                          "use a shorter L or a decaying A (the 'negated' convention)")
    return SsmKernel(values=values)


def causal_fft_conv(kernel, u) -> np.ndarray:
    """y[t] = sum_{s<=t} K[s] * u[t-s]: the first L samples of the full
    linear convolution, which no future sample can wrap into.

    `kernel` may be an SsmKernel or a plain rank-1 array.
    """
    k = kernel.values if isinstance(kernel, SsmKernel) else np.asarray(kernel)
    u = np.asarray(u)
    if k.ndim != 1 or u.ndim != 1:
        raise InvalidShapeError("causal_fft_conv expects rank-1 kernel and input")
    if k.shape[0] != u.shape[0]:
        raise InvalidShapeError(
            f"kernel length {k.shape[0]} != input length {u.shape[0]}"
        )
    return spectral.linear_fft_conv(k, u, (0,))[: k.shape[0]]
