"""Outside-in span tracer for the benchmark's traced run.

Spans are recorded by wrapping public functions where they are looked up:
every loaded ``spectral_ops`` module namespace that binds a target function
object gets the wrapper, so names imported with ``from .tensor import randn``
are caught as well as ``fit.randn``.  The library source is never edited and
nothing is wrapped outside the traced run.

Raw transforms (``numpy.fft`` and ``scipy.fft``) are recorded only at the
outermost level, as one ``fft`` span per call, with the number of points
transformed and whether any transform length has a prime factor above 7.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# Public functions traced per module, named ``<module>.<function>`` in results.
LAYER_TARGETS = {
    "fit": ("fit_forward", "patch_embed", "fit_block", "fourier_mixing", "layer_norm",
            "feed_forward", "gelu", "init_fit_model", "save_model", "load_model"),
    "tensor": ("randn", "read_tensor", "write_tensor"),
    "spectral": ("rfft2", "irfft2"),
    "fftconv": ("fft_xcorr2d",),
    "ssm": ("ssm_kernel", "matrix_exp", "causal_fft_conv"),
    "gconv": ("gconv_forward", "build_kernel", "bilinear_resize_1d"),
    "cli": ("main",),
}
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2",
                 "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


class Span:
    __slots__ = ("name", "detail", "phase", "parent", "start", "end", "child_s",
                 "points", "nonsmooth", "outputs")

    def __init__(self, name, detail, phase, parent):
        self.name = name
        self.detail = detail
        self.phase = phase
        self.parent = parent
        self.start = self.end = self.child_s = 0.0
        self.points = 0  # fft: points transformed; fft_xcorr2d: largest child fft
        self.nonsmooth = False
        self.outputs = 0  # fft_xcorr2d: output elements

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


def _largest_prime_factor(n: int) -> int:
    largest, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            largest, n = p, n // p
        p += 1
    return max(largest, n)


def fft_lengths(func: str, args, kwargs) -> tuple[list[int], int]:
    """Logical transform lengths and batch count of one numpy/scipy fft call.

    Both libraries take ``(array, n|s, axis|axes, ...)`` in that order.
    Inverse real transforms without an explicit length produce 2*(m-1) points
    along the last transformed axis.
    """
    array = args[0] if args else kwargs.get("a", kwargs.get("x"))
    shape = tuple(getattr(array, "shape", ()))
    size_arg = args[1] if len(args) > 1 else kwargs.get("n", kwargs.get("s"))
    axis_arg = args[2] if len(args) > 2 else kwargs.get("axis", kwargs.get("axes"))
    one_d = not func.endswith(("2", "n"))
    if one_d:
        axes = [axis_arg if axis_arg is not None else -1]
        sizes = None if size_arg is None else [size_arg]
    else:
        if axis_arg is not None:
            axes = list(axis_arg)
        elif func.endswith("2"):
            axes = [-2, -1]
        elif size_arg is not None:
            axes = list(range(-len(size_arg), 0))
        else:
            axes = list(range(-len(shape), 0))
        sizes = None if size_arg is None else list(size_arg)
    axes = [a % len(shape) for a in axes]
    if sizes is None:
        sizes = [shape[a] for a in axes]
        if func.startswith(("irfft", "hfft")):
            sizes[-1] = 2 * (sizes[-1] - 1)
    batch = 1
    for i, extent in enumerate(shape):
        if i not in axes:
            batch *= extent
    return [int(s) for s in sizes], batch


class Tracer:
    """Keeps spans in memory; ``install``/``uninstall`` add and remove wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.bytes = defaultdict(int)  # (phase, "read"|"written") -> bytes
        self._stack: list[int] = []
        self._fft_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _call(self, name, detail, fn, args, kwargs):
        idx = len(self.spans)
        span = Span(name, detail, self.phase, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].child_s += span.duration_s

    def _layer_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            result = self._call(name, name, fn, args, kwargs)
            if name == "tensor.read_tensor":
                path = args[0] if args else kwargs["path"]
                self.bytes[(self.phase, "read")] += os.stat(path).st_size
            elif name == "tensor.write_tensor":
                path = args[1] if len(args) > 1 else kwargs["path"]
                self.bytes[(self.phase, "written")] += os.stat(path).st_size
            elif name == "fftconv.fft_xcorr2d":
                span = self.spans[idx]
                span.outputs = result.size
                span.points = max((s.points for s in self.spans[idx + 1:] if s.name == "fft"),
                                  default=0)
            return result

        return wrapper

    def _fft_wrapper(self, module, func, fn):
        detail = f"{module}.{func}"

        def wrapper(*args, **kwargs):
            if self._fft_depth:
                return fn(*args, **kwargs)
            self._fft_depth += 1
            try:
                idx = len(self.spans)
                result = self._call("fft", detail, fn, args, kwargs)
            finally:
                self._fft_depth -= 1
            lengths, batch = fft_lengths(func, args, kwargs)
            span = self.spans[idx]
            span.points = batch
            for n in lengths:
                span.points *= n
            span.nonsmooth = any(_largest_prime_factor(n) > 7 for n in lengths)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper, namespaces):
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        """Wrap every target in every namespace that binds it."""
        import scipy.fft  # noqa: F401  (wrapped even if the library imports it lazily)

        if self._patches:
            raise RuntimeError("tracer already installed")
        library = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "spectral_ops" or name.startswith("spectral_ops."))]
        for short, funcs in LAYER_TARGETS.items():
            module = sys.modules[f"spectral_ops.{short}"]
            for func in funcs:
                original = getattr(module, func)
                self._rebind(original, self._layer_wrapper(f"{short}.{func}", original), library)
        for module_name in FFT_MODULES:
            module = sys.modules[module_name]
            for func in FFT_FUNCTIONS:
                original = getattr(module, func)
                wrapper = self._fft_wrapper(module_name, func, original)
                self._rebind(original, wrapper, [module] + library)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
