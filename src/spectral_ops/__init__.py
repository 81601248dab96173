"""FFT-based neural building blocks with brute-force oracles.

Four mechanisms, each a pure forward-pass operation verified against an
independent direct-summation implementation:

- fftconv: depthwise 2D cross-correlation via FFT convolution
- fit: Fourier token-mixing transformer blocks (plus an attention baseline)
- ssm: HiPPO/S4 state-space convolution kernels
- gconv: multi-scale interpolated global convolution kernels

plus the spectral transform contracts, a minimal tensor/RNG/file-format
layer, and verification/benchmark plumbing surfaced through the
`spectral-ops` CLI.
"""

from .bench import BenchRow, bench_conv, bench_mixing, bench_seq, time_cases, write_csv
from .errors import ConfigError, FormatError, InvalidShapeError, NonFiniteError
from .fftconv import MODES, direct_xcorr2d, fft_circular_conv2d, fft_xcorr2d
from .fit import (
    BlockWeights,
    FitConfig,
    FitModel,
    attention_mixing,
    count_params,
    cross_entropy,
    feed_forward,
    fit_block,
    fit_forward,
    fourier_mixing,
    gelu,
    init_fit_model,
    layer_norm,
    load_model,
    patch_embed,
    save_model,
)
from .gconv import (
    GConvParams,
    bilinear_resize_1d,
    build_kernel,
    gconv_forward,
    scale_count,
)
from .oracles import dft_naive
from .spectral import PreparedConv, irfft2, linear_fft_conv, prepare_conv, rfft2
from .ssm import (
    SsmKernel,
    SsmParams,
    causal_fft_conv,
    hippo_legs,
    matrix_exp,
    ssm_kernel,
)
from .tensor import Rng, randn, read_tensor, write_tensor
from .verify import SuiteResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "BenchRow", "bench_conv", "bench_mixing", "bench_seq", "time_cases", "write_csv",
    "ConfigError", "FormatError", "InvalidShapeError", "NonFiniteError",
    "MODES", "direct_xcorr2d", "fft_circular_conv2d", "fft_xcorr2d",
    "BlockWeights", "FitConfig", "FitModel", "attention_mixing",
    "count_params", "cross_entropy", "feed_forward", "fit_block", "fit_forward",
    "fourier_mixing", "gelu", "init_fit_model", "layer_norm", "load_model",
    "patch_embed", "save_model",
    "GConvParams", "bilinear_resize_1d", "build_kernel", "gconv_forward", "scale_count",
    "dft_naive", "PreparedConv", "irfft2", "linear_fft_conv", "prepare_conv", "rfft2",
    "SsmKernel", "SsmParams", "causal_fft_conv", "hippo_legs", "matrix_exp", "ssm_kernel",
    "Rng", "randn", "read_tensor", "write_tensor",
    "SuiteResult", "run_suites",
    "__version__",
]
