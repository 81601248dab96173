"""The benchmark's four workloads and the independent references that check them.

Each workload is built in ``__init__`` (its set-up, which ``setup_s``
measures), then ``references()`` computes everything the checks need (outside
set-up and outside timing).  ``make_input(i)`` draws request ``i``'s inputs
from the workload seed, ``request`` is the timed call into the library, and
``check`` returns a list of failure messages (empty when the output is right).

The library is always reached through module attributes at call time (never
``from spectral_ops.x import f``), so the traced run's wrappers see every call.
The references below re-derive each result from its documented definition
(direct sums, DFT matrices, ``np.interp``) without calling the code under
test; the one exception is cli_demo, whose check is that the command line
prints what an in-process fit_forward computes.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import spectral_ops
from spectral_ops import cli, fftconv, fit, gconv, ssm, tensor

# The repo's own oracle tolerances (verify.py): fftconv oracle grid f64/f32,
# fourier mixing vs the naive DFT, the per-t exponential SSM kernel check and
# the direct-sum convolution checks of ssm and gconv.
TOL_CONV = {np.dtype(np.float64): 1e-10, np.dtype(np.float32): 1e-3}
TOL_FIT = 1e-10
TOL_SSM_KERNEL = 1e-8
TOL_DIRECT_SUM = 1e-10
# cli demo prints logits with 6 decimals.
TOL_CLI_PRINT = 5e-7 + 1e-12

SAMPLES_PER_OUTPUT = 16


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent numpy stream per (seed, purpose, index)."""
    return np.random.default_rng([seed, *stream])


def _bad_array(name, out, shape, dtype) -> list[str]:
    out = np.asarray(out)
    if out.shape != tuple(shape):
        return [f"{name}: shape {out.shape} != {tuple(shape)}"]
    if out.dtype != np.dtype(dtype):
        return [f"{name}: dtype {out.dtype} != {np.dtype(dtype)}"]
    if not np.isfinite(out).all():
        return [f"{name}: non-finite values"]
    return []


def _too_far(name, got, want, tol) -> list[str]:
    err = float(np.max(np.abs(np.asarray(got, dtype=np.float64) - want)))
    return [] if err <= tol else [f"{name}: max error {err:.3e} > tol {tol:.0e}"]


# --- vit_base ---------------------------------------------------------------


def _dft_cos_sin(n: int):
    """cos and sin parts of the DFT matrix F[j, k] = exp(-2 pi i jk / n)."""
    jk = np.outer(np.arange(n), np.arange(n)) % n
    angle = (2.0 * np.pi / n) * jk
    return np.cos(angle), np.sin(angle)


def _ref_layer_norm(x, gamma, beta):
    d = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) / d
    var = ((x - mean) ** 2).sum(axis=-1, keepdims=True) / d
    return (x - mean) / np.sqrt(var + 1e-12) * gamma + beta


def fit_reference(model, image) -> np.ndarray:
    """Logits from the documented FiT wiring, with DFT matrices as the mixer.

    mixed = Re(F_S x F_d); x1 = LN1(mixed + x); out = LN2(dense(gelu(ff(x1))) + mixed);
    logits = gelu(W_head cls + b_head); GELU is exact-erf.
    """
    from scipy.special import erf

    def gelu(v):
        return 0.5 * v * (1.0 + erf(v / np.sqrt(2.0)))

    cfg = model.config
    ph, pw = cfg.patch_size
    gh, gw = cfg.grid_size
    patches = np.stack([
        image[:, r * ph:(r + 1) * ph, c * pw:(c + 1) * pw].reshape(-1)
        for r in range(gh) for c in range(gw)
    ])
    tokens = patches @ model.patch_proj_weight.T + model.patch_proj_bias
    x = np.vstack([model.cls_token, tokens]) + model.pos_embed
    x = _ref_layer_norm(x, 1.0, 0.0)
    cos_s, sin_s = _dft_cos_sin(x.shape[0])
    cos_d, sin_d = _dft_cos_sin(x.shape[1])
    for b in model.blocks:
        # Re((C_S - i S_S) x (C_d - i S_d)) = C_S x C_d - S_S x S_d
        mixed = cos_s @ (x @ cos_d) - sin_s @ (x @ sin_d)
        x1 = _ref_layer_norm(mixed + x, b.gamma1, b.beta1)
        h = gelu(x1 @ b.w_ff.T + b.b_ff) @ b.w_dense.T + b.b_dense
        x = _ref_layer_norm(h + mixed, b.gamma2, b.beta2)
    return gelu(x[0] @ model.head_weight.T + model.head_bias)


class VitBase:
    """fit_forward at the ViT-Base-style Fourier config, one image per request.

    Set-up is the user's init-model then demo path: init_fit_model, save_model,
    load_model.  Requests cycle through a small pool of seeded images so that
    every output can be checked against a reference forward computed before
    timing.
    """

    CONFIG = dict(img_size=(224, 224), patch_size=(16, 16), in_chans=3, embed_dim=768,
                  dim_feedforward=3072, depth=12, num_classes=1000, mixer="fourier")
    POOL = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        config = fit.FitConfig(**self.CONFIG)
        self.model_dir = workdir / "model"
        model = fit.init_fit_model(config, tensor.Rng(seed))
        fit.save_model(model, self.model_dir)
        del model
        self.model = fit.load_model(self.model_dir)

    def references(self):
        # Delete the 465 MB of model files once loaded, so that the kernel's
        # writeback of them does not run during the timed requests.
        shutil.rmtree(self.model_dir)
        shape = (3, *self.CONFIG["img_size"])
        self.images = [rng_for(self.seed, 1, k).standard_normal(shape) for k in range(self.POOL)]
        self.expected = [fit_reference(self.model, img) for img in self.images]

    def make_input(self, i):
        return i % self.POOL

    def request(self, k):
        return fit.fit_forward(self.images[k], self.model)

    def check(self, k, out, i):
        bad = _bad_array("logits", out, (self.CONFIG["num_classes"],), np.float64)
        return bad or _too_far("logits", out, self.expected[k], TOL_FIT)


# --- conv_grid --------------------------------------------------------------


def xcorr_at(image, kernel, mode, points) -> np.ndarray:
    """Direct window sums of the depthwise cross-correlation at (c, y, x) points.

    out[c, y, x] = sum_{i,j} image[c, y+i-oy, x+j-ox] * kernel[c, i, j], with
    zeros outside the image, or indices modulo the extents in circular mode.
    """
    _, h, w = image.shape
    _, kh, kw = kernel.shape
    oy, ox = {"full": (kh - 1, kw - 1), "same": ((kh - 1) // 2, (kw - 1) // 2),
              "valid": (0, 0), "circular": (0, 0)}[mode]
    image = image.astype(np.float64)
    kernel = kernel.astype(np.float64)
    values = []
    for c, y, x in points:
        rows = y + np.arange(kh) - oy
        cols = x + np.arange(kw) - ox
        if mode == "circular":
            rows, cols = rows % h, cols % w
        ri = (rows >= 0) & (rows < h)
        ci = (cols >= 0) & (cols < w)
        window = image[c][np.ix_(rows[ri], cols[ci])]
        values.append(np.sum(window * kernel[c][np.ix_(ri, ci)]))
    return np.array(values)


def _output_extents(mode, n, m):
    return {"full": n + m - 1, "same": n, "valid": n - m + 1, "circular": n}[mode]


def _sample_points(rng, c, h, w, count):
    corners = [(0, 0, 0), (c - 1, h - 1, w - 1)]
    drawn = zip(rng.integers(0, c, count), rng.integers(0, h, count), rng.integers(0, w, count))
    return corners + [tuple(int(v) for v in p) for p in drawn][: count - 2]


class ConvGrid:
    """One request is a sweep of fft_xcorr2d (C=3) over sizes, modes and dtypes.

    Every call gets a fresh image and kernel, so nothing about the kernel can
    be reused between calls.
    """

    CHANNELS = 3
    CASES = (
        [("same", np.float32, n, m) for n in (64, 224, 512) for m in (3, 31)]
        + [(mode, np.float32, 224, 31) for mode in ("full", "valid", "circular")]
        + [("same", np.float64, 224, m) for m in (3, 31)]
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def references(self):
        pass

    def make_input(self, i):
        rng = rng_for(self.seed, 1, i)
        c = self.CHANNELS
        return [
            (mode, rng.standard_normal((c, n, n)).astype(dt), rng.standard_normal((c, m, m)).astype(dt))
            for mode, dt, n, m in self.CASES
        ]

    def request(self, calls):
        return [fftconv.fft_xcorr2d(img, ker, mode=mode) for mode, img, ker in calls]

    def check(self, calls, outs, i):
        rng = rng_for(self.seed, 2, i)
        bad = []
        for (mode, img, ker), out in zip(calls, outs):
            c, n, m = img.shape[0], img.shape[1], ker.shape[1]
            e = _output_extents(mode, n, m)
            name = f"{mode}/{img.dtype}/n={n}/m={m}"
            problems = _bad_array(name, out, (c, e, e), img.dtype)
            if not problems:
                points = _sample_points(rng, c, e, e, SAMPLES_PER_OUTPUT)
                got = np.array([out[p] for p in points])
                problems = _too_far(name, got, xcorr_at(img, ker, mode, points), TOL_CONV[img.dtype])
            bad += problems
        return bad


# --- long_seq ---------------------------------------------------------------


def resize_reference(segment, new_len) -> np.ndarray:
    """Half-pixel-centred linear resize of each column, via np.interp."""
    n = segment.shape[0]
    src = (np.arange(new_len) + 0.5) * (n / new_len) - 0.5
    return np.stack([np.interp(src, np.arange(n), segment[:, d])
                     for d in range(segment.shape[1])], axis=1)


def multiscale_reference(base, L) -> np.ndarray:
    """First L taps of the concatenated segments base * 2^-i resized to width * 2^i."""
    width = base.shape[0]
    segments, covered, i = [], 0, 0
    while covered < L:
        segments.append(resize_reference(base * 2.0**-i, width << i))
        covered += width << i
        i += 1
    return np.concatenate(segments)[:L]


class LongSeq:
    """One SSM layer then one bidirectional gconv layer on a fresh L=16384 signal.

    SSM: hippo_legs(64) with a fixed readout C, ssm_kernel, then causal_fft_conv
    on each of 8 channels.  gconv: gconv_forward with width 32, depth 8 on the
    SSM output.  The parameters are fixed across requests.
    """

    L = 16384
    STATE = 64
    CHANNELS = 8
    WIDTH = 32

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = rng_for(seed, 0)
        self.ssm_params = ssm.hippo_legs(self.STATE)
        self.ssm_params.C = rng.standard_normal(self.STATE)
        self.gconv_params = gconv.GConvParams(
            width=self.WIDTH, depth=self.CHANNELS,
            base_kernel=rng.standard_normal((self.WIDTH, self.CHANNELS)),
            bidirectional=True, bias=rng.standard_normal(self.CHANNELS),
        )

    def references(self):
        from scipy.linalg import expm

        p = self.ssm_params
        step = expm(p.A)
        state = np.array(p.B, dtype=np.float64)
        kernel = np.empty(self.L)
        for t in range(self.L):
            kernel[t] = p.C @ state
            state = step @ state
        self.ssm_kernel = kernel
        self.gconv_taps = multiscale_reference(self.gconv_params.base_kernel, self.L)

    def make_input(self, i):
        return rng_for(self.seed, 1, i).standard_normal((self.CHANNELS, self.L))

    def request(self, u):
        kernel = ssm.ssm_kernel(self.ssm_params, self.L)
        y = np.stack([ssm.causal_fft_conv(kernel, u[c]) for c in range(self.CHANNELS)])
        z = gconv.gconv_forward(y.T, self.gconv_params)
        return kernel.values, y, z

    def check(self, u, outs, i):
        k, y, z = outs
        L, C = self.L, self.CHANNELS
        bad = (_bad_array("ssm kernel", k, (L,), np.float64)
               + _bad_array("ssm output", y, (C, L), np.float64)
               + _bad_array("gconv output", z, (L, C), np.float64))
        if bad:
            return bad
        bad += _too_far("ssm kernel", k, self.ssm_kernel, TOL_SSM_KERNEL)
        rng = rng_for(self.seed, 2, i)
        points = [(0, 0), (C - 1, L - 1)] + list(
            zip(rng.integers(0, C, SAMPLES_PER_OUTPUT - 2).tolist(),
                rng.integers(0, L, SAMPLES_PER_OUTPUT - 2).tolist()))
        # y[c, t] = sum_{s<=t} K[s] u[c, t-s]
        want_y = [np.dot(k[: t + 1], u[c, t::-1]) for c, t in points]
        bad += _too_far("ssm output", [y[c, t] for c, t in points], np.array(want_y), TOL_DIRECT_SUM)
        # z[t, d] = sum_{s<=t} h[s] y[d, t-s] + sum_{s<L-t} h[s] y[d, t+s] + bias[d]
        h, bias = self.gconv_taps, self.gconv_params.bias
        want_z = [np.dot(h[: t + 1, d], y[d, t::-1]) + np.dot(h[: L - t, d], y[d, t:]) + bias[d]
                  for d, t in points]
        bad += _too_far("gconv output", [z[t, d] for d, t in points], np.array(want_z),
                        TOL_DIRECT_SUM)
        return bad


# --- cli_demo ---------------------------------------------------------------


def _parse_demo(stdout: bytes):
    lines = stdout.decode().splitlines()
    if len(lines) != 2 or not lines[0].startswith("logits: ") or not lines[1].startswith("argmax: "):
        raise ValueError(f"unexpected demo output {stdout[:200]!r}")
    return np.array([float(v) for v in lines[0][8:].split()]), int(lines[1][8:])


class CliDemo:
    """Cold `python -m spectral_ops demo` processes on a tiny default-config model.

    The model and input are written once in set-up.  Each request is a fresh
    interpreter, so import time and FTNS reads dominate.  In the traced run the
    same command runs in-process through cli.main, so its layers can be seen.
    """

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.model_dir = workdir / "model"
        self.input_path = workdir / "input.ftns"
        config = fit.FitConfig()
        fit.save_model(fit.init_fit_model(config, tensor.Rng(seed)), self.model_dir)
        image = rng_for(seed, 1).standard_normal((config.in_chans, *config.img_size))
        tensor.write_tensor(image, self.input_path)
        self.argv = ["demo", "--model", str(self.model_dir), "--input", str(self.input_path)]
        self.env = dict(os.environ, PYTHONPATH=str(Path(spectral_ops.__file__).parents[1]))
        self.child_peak_kb = 0
        self.in_process = False

    def references(self):
        logits = fit.fit_forward(tensor.read_tensor(self.input_path), fit.load_model(self.model_dir))
        self.expected = logits, int(np.argmax(logits))
        self.first_stdout = None

    def make_input(self, i):
        return None

    def request(self, _):
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.argv)
            return code, buf.getvalue().encode()
        proc = subprocess.Popen([sys.executable, "-m", "spectral_ops", *self.argv],
                                stdout=subprocess.PIPE, env=self.env)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, stdout

    def check(self, _, out, i):
        code, stdout = out
        if code != 0:
            return [f"demo exit code {code}"]
        if self.first_stdout is None:
            self.first_stdout = stdout
        bad = [] if stdout == self.first_stdout else ["demo stdout differs from the first request"]
        logits, argmax = _parse_demo(stdout)
        want, want_argmax = self.expected
        if logits.shape != want.shape:
            return bad + [f"logits shape {logits.shape} != {want.shape}"]
        bad += _too_far("demo logits", logits, want, TOL_CLI_PRINT)
        if argmax != want_argmax:
            bad.append(f"argmax {argmax} != {want_argmax}")
        return bad


WORKLOADS = {"vit_base": VitBase, "conv_grid": ConvGrid, "long_seq": LongSeq, "cli_demo": CliDemo}
