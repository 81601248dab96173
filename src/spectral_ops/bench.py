"""Microbenchmark sweeps of the ops, with their timed medians and CSV rows.

Timing protocol: `repeats` rounds over the cases in list order, never in
parallel; a sample is an untimed call of a case and at once its timed call
(monotonic clock), so no timed call pays for a heavier case before it.  The
sweeps list their cases method by method, so the cases a ratio compares run
side by side and see the same host state.  Rows report the median and carry a
checksum (first element of the last output): timed work cannot be elided.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import fftconv, fit, gconv, ssm
from .tensor import Rng, randn

CSV_HEADER = "suite,params,method,median_ms,repeats,checksum"


@dataclass
class BenchRow:
    suite: str
    params: str  # space-separated key=value pairs, e.g. "n=256 m=31"
    method: str
    median_ms: float
    repeats: int
    checksum: float
    samples_ms: tuple[float, ...] = ()  # the timed calls in round order; not in the CSV
    minor_faults: tuple[int, ...] = ()  # the thread's minor page faults per timed call
    cpu_ms: tuple[float, ...] = ()  # the thread's CPU time per timed call


def time_cases(cases, repeats: int) -> list[BenchRow]:
    """One BenchRow per (suite, params, method, fn) case: `repeats` rounds in
    list order, each sample an untimed call of a case and then its timed call."""
    import resource  # here, not at module level, so that importing the library stays lean

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    who = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)  # not on every platform
    samples = [[] for _ in cases]  # (ms, minor faults, thread CPU ms) per timed call
    outs = [None] * len(cases)
    for _ in range(repeats):
        for i, (*_, fn) in enumerate(cases):
            fn()
            faults, cpu = resource.getrusage(who).ru_minflt, time.thread_time()
            start = time.perf_counter()
            outs[i] = fn()
            ms = (time.perf_counter() - start) * 1e3
            samples[i].append((ms, resource.getrusage(who).ru_minflt - faults,
                               (time.thread_time() - cpu) * 1e3))
    return [
        BenchRow(suite, params, method, float(np.median(ms)), repeats,
                 float(np.asarray(out).flat[0]), ms, faults, cpu)
        for (suite, params, method, _), (ms, faults, cpu), out
        in zip(cases, (zip(*calls) for calls in samples), outs)
    ]


def write_csv(rows, fh) -> None:
    """Write rows sorted by (params, method) for deterministic output."""
    fh.write(CSV_HEADER + "\n")
    for row in sorted(rows, key=lambda r: (r.params, r.method)):
        fh.write(
            f"{row.suite},{row.params},{row.method},"
            f"{row.median_ms:.6f},{row.repeats},{row.checksum:.9g}\n"
        )


def bench_seq(seq_lens, repeats: int = 5, seed: int = 42):
    """Time ssm_kernel at each length L, then bidirectional gconv_forward.

    The layers are sized like one long-sequence model layer: a HiPPO-LegS
    state of 64 with a seeded readout, and a gconv of width 32 and depth 8
    on a seeded [L, 8] f64 signal, so every L must be at least 32.  Each
    call gets its own dataclasses.replace copy of the parameters, whose
    kernel cache starts empty, so every row times a first call.
    """
    rng = Rng(seed)
    ssm_params = ssm.hippo_legs(64)
    ssm_params.C = randn(rng, (64,))
    gconv_params = gconv.GConvParams(
        width=32, depth=8, base_kernel=randn(rng, (32, 8)), bidirectional=True,
        bias=randn(rng, (8,)),
    )
    signals = [randn(rng, (L, 8)) for L in seq_lens]
    return time_cases(
        [("seq", f"L={L}", "ssm_kernel", lambda L=L: ssm.ssm_kernel(replace(ssm_params), L).values)
         for L in seq_lens]
        + [("seq", f"L={L}", "gconv_forward", lambda s=s: gconv.gconv_forward(s, replace(gconv_params)))
           for L, s in zip(seq_lens, signals)],
        repeats,
    )


def bench_conv(image_sizes, kernel_sizes, repeats: int = 5, seed: int = 42):
    """Time every direct, then every FFT, same-mode f32 correlation over an (n, m) grid.

    Returns one BenchRow per (n, m, method).  Runs a small-case equality
    guard before any timing so a broken path can never produce timings.
    """
    guard_img = randn(Rng(seed), (1, 8, 8), np.float64)
    guard_ker = randn(Rng(seed + 1), (1, 3, 3), np.float64)
    guard_diff = np.max(
        np.abs(
            fftconv.fft_xcorr2d(guard_img, guard_ker, mode="same")
            - fftconv.direct_xcorr2d(guard_img, guard_ker, mode="same")
        )
    )
    if not guard_diff <= 1e-10:
        raise RuntimeError(f"conv guard failed: max |fft - direct| = {guard_diff}")

    rng = Rng(seed)
    grid = [(f"n={n} m={m}", randn(rng, (1, n, n), np.float32), randn(rng, (1, m, m), np.float32))
            for n in image_sizes for m in kernel_sizes]
    return time_cases(
        [("conv", params, method, lambda fn=fn, img=img, ker=ker: fn(img, ker, mode="same"))
         for method, fn in (("direct", fftconv.direct_xcorr2d), ("fft", fftconv.fft_xcorr2d))
         for params, img, ker in grid],
        repeats,
    )


def bench_mixing(seq_lens, d: int, repeats: int = 5, seed: int = 42):
    """Time fourier_mixing on [S, d] f32 inputs at every S, then attention_mixing."""
    num_heads = 4 if d % 4 == 0 else 1
    rng = Rng(seed)
    inputs = []
    for s in seq_lens:
        x = randn(rng, (s, d), np.float32)
        block = fit.BlockWeights()
        for p in "qkvo":
            setattr(block, f"w_{p}", randn(rng, (d, d), np.float32) / np.float32(np.sqrt(d)))
            setattr(block, f"b_{p}", np.zeros(d, dtype=np.float32))
        inputs.append((f"S={s} d={d}", x, block))
    return time_cases(
        [("mixing", params, "fourier", lambda x=x: fit.fourier_mixing(x)) for params, x, _ in inputs]
        + [("mixing", params, "attention", lambda x=x, b=block: fit.attention_mixing(x, b, num_heads))
           for params, x, block in inputs],
        repeats,
    )
