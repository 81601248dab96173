"""Forward-pass image transformer with two token mixers: a parameter-free
two-axis Fourier mixer and a softmax self-attention baseline.

The pipeline: non-overlapping patches are flattened (channel-major) and
linearly projected, a CLS token is prepended, positional embeddings added,
LayerNorm applied; each block then mixes tokens, normalizes the residual,
applies a GELU feed-forward, and normalizes again; the CLS row is projected
to logits with a GELU after the projection.

Block wiring, kept exactly as designed (the second residual reuses the mixer
output rather than the first norm's output — do not "correct" it to the
standard transformer residual):

    mixed = mixer(x)
    x1    = layer_norm1(mixed + x)
    h     = dense(gelu(ff(x1)))        # dropout is identity at inference
    out   = layer_norm2(h + mixed)

Every linear layer stores its weight as [out_features, in_features] and
applies x @ W.T + b.  All ops are pure functions over immutable weights;
forward passes are safe to run concurrently.  Forward-only: no autodiff.

The logits read only the CLS row (row 0), and every op after the mixer is
row-local, so fit_forward runs the last block on row 0 alone.  For the
Fourier mixer this is exact because row 0 of the sequence DFT matrix F_S is
all ones: row 0 of Re(F_S x F_d) is Re(F_d(sum of x's rows)), which is
fourier_mixing of the [1, d] column sum.  The attention mixer still mixes
every row and keeps row 0 of its output.  The logits then differ from the
all-rows forward only in rounding (about 3e-15 at the ViT-Base config).
The same row-locality lets a block's tail run the bottom half of its rows
on a short-lived second thread when the process may use more than one CPU
and each half has two or more rows and 2**22 FF multiply-adds, with the same
bits.

Chains such as `x @ W.T + b` are plain numpy expressions: numpy reuses a
large temporary for the next result of its dtype and shape, never an input
or a weight.  f32 in, f32 out; f64 in, f64 out; an f32/f64 mix gives f64.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import spectral
from .errors import ConfigError, InvalidShapeError, require_finite
from .tensor import Rng, _on_two_threads, _usable_cpus, randn, read_tensor, write_tensor

MIXERS = ("fourier", "attention")
# FF multiply-adds per half (rows/2 * d * dim_feedforward) from which a block
# tail of at least two rows per half splits its rows over two threads.  Below
# it a thread start costs more than it saves.  On OpenBLAS 0.3.31 a GEMM over
# a small half of the rows was not always bit-identical to the whole GEMM:
# every mismatch seen had a one-row half (a GEMV) or at most 2.4M
# multiply-adds per half.
_SPLIT_MACS = 2**22


@dataclass(frozen=True)
class FitConfig:
    img_size: tuple[int, int] = (32, 32)
    patch_size: tuple[int, int] = (4, 4)
    in_chans: int = 3
    embed_dim: int = 64
    dim_feedforward: int = 128
    depth: int = 2
    num_classes: int = 10
    num_heads: int = 4
    dropout_rate: float = 0.0
    mixer: str = "fourier"

    def __post_init__(self):
        h, w = self.img_size
        ph, pw = self.patch_size
        positive = {
            "img_size": min(h, w),
            "patch_size": min(ph, pw),
            "in_chans": self.in_chans,
            "embed_dim": self.embed_dim,
            "dim_feedforward": self.dim_feedforward,
            "num_classes": self.num_classes,
            "num_heads": self.num_heads,
        }
        for name, value in positive.items():
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.depth < 0:
            raise ConfigError(f"depth must be >= 0, got {self.depth}")
        if h % ph or w % pw:
            raise ConfigError(
                f"patch size {self.patch_size} must divide image size {self.img_size}"
            )
        if self.mixer not in MIXERS:
            raise ConfigError(f"mixer must be one of {MIXERS}, got {self.mixer!r}")
        if self.mixer == "attention" and self.embed_dim % self.num_heads:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def grid_size(self) -> tuple[int, int]:
        return self.img_size[0] // self.patch_size[0], self.img_size[1] // self.patch_size[1]

    @property
    def num_patches(self) -> int:
        gh, gw = self.grid_size
        return gh * gw

    @property
    def patch_dim(self) -> int:
        return self.in_chans * self.patch_size[0] * self.patch_size[1]

    @property
    def seq_len(self) -> int:
        return self.num_patches + 1


@dataclass
class BlockWeights:
    gamma1: np.ndarray = None
    beta1: np.ndarray = None
    w_ff: np.ndarray = None
    b_ff: np.ndarray = None
    w_dense: np.ndarray = None
    b_dense: np.ndarray = None
    gamma2: np.ndarray = None
    beta2: np.ndarray = None
    # attention mixer only
    w_q: np.ndarray = None
    b_q: np.ndarray = None
    w_k: np.ndarray = None
    b_k: np.ndarray = None
    w_v: np.ndarray = None
    b_v: np.ndarray = None
    w_o: np.ndarray = None
    b_o: np.ndarray = None


@dataclass
class FitModel:
    config: FitConfig
    patch_proj_weight: np.ndarray  # [d, C*Ph*Pw]
    patch_proj_bias: np.ndarray  # [d]
    cls_token: np.ndarray  # [1, d]
    pos_embed: np.ndarray  # [num_patches+1, d]
    blocks: list[BlockWeights] = field(default_factory=list)
    head_weight: np.ndarray = None  # [num_classes, d]
    head_bias: np.ndarray = None  # [num_classes]


def gelu(x) -> np.ndarray:
    """Exact-erf GELU: x * Phi(x) (no tanh approximation).
    `scipy.special` loads at the first call, not with `import spectral_ops`."""
    from scipy.special import erf

    x = np.asarray(x)
    # sqrt(2) in x's float dtype: an f64 scalar would turn f32 input into f64;
    # asarray keeps a 0-d quotient an array that out= can write to
    t = np.asarray(x / np.sqrt(2.0, dtype=np.result_type(x, 1.0)))
    # in place for f32 and f64; erf takes f16 up to f64, so that result needs its own array
    t = erf(t, out=t) if t.dtype in (np.float32, np.float64) else erf(t)
    t += 1.0
    t *= 0.5  # exact, so (t * 0.5) * x rounds as (0.5 * x) * t did, and cannot overflow
    t *= x
    return t[()]  # a scalar for a scalar x


def layer_norm(x, gamma, beta) -> np.ndarray:
    """Normalize over the last axis with population (1/d) variance, plus a
    fixed eps of 1e-12 under the square root."""
    x = np.asarray(x)
    centred = x - x.mean(axis=-1, keepdims=True)
    centred /= np.sqrt(np.square(centred).mean(axis=-1, keepdims=True) + 1e-12)
    return centred * gamma + beta


def patch_embed(image, model: FitModel) -> np.ndarray:
    """[C, H, W] image -> [num_patches+1, d] token sequence.

    Projects channel-major-flattened Ph x Pw patches, prepends the CLS
    token, adds positional embeddings, then applies LayerNorm.  The final
    norm has no learnable scale/shift (gamma = 1, beta = 0); the learnable
    parameters are exactly the fields on FitModel.
    """
    cfg = model.config
    img = np.asarray(image)
    expected = (cfg.in_chans, *cfg.img_size)
    if img.shape != expected:
        raise InvalidShapeError(f"image shape {img.shape} != configured {expected}")
    gh, gw = cfg.grid_size
    ph, pw = cfg.patch_size
    patches = (
        img.reshape(cfg.in_chans, gh, ph, gw, pw)
        .transpose(1, 3, 0, 2, 4)
        .reshape(cfg.num_patches, cfg.patch_dim)
    )
    tokens = patches @ model.patch_proj_weight.T + model.patch_proj_bias
    seq = np.concatenate([model.cls_token, tokens], axis=0) + model.pos_embed
    d = cfg.embed_dim
    return layer_norm(seq, np.ones(d, seq.dtype), np.zeros(d, seq.dtype))


def fourier_mixing(x) -> np.ndarray:
    """Re(F_seq(F_hidden(x))): complex FFT along the hidden axis, then the
    sequence axis, real part kept.  Zero learnable parameters.

    The two transforms commute, so the axis order is immaterial (tested).
    For real x the 2D spectrum is Hermitian, Y[j, d-k] = conj Y[-j mod S, k],
    so one real half-spectrum (hidden frequencies 0..d//2) gives every column.
    A NaN or infinity in x raises NonFiniteError: it would reach nearly every output.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise InvalidShapeError(f"expected [S, d] input, got rank {x.ndim}")
    require_finite(x=x)
    s, d = x.shape
    half = spectral.rfft2(x).real
    mirrored = half[-np.arange(s) % s, (d - 1) // 2 : 0 : -1]
    return np.concatenate([half, mirrored], axis=1)


def attention_mixing(x, block: BlockWeights, num_heads: int, return_weights: bool = False):
    """Multi-head self-attention: softmax(Q K^T / sqrt(d_k)) V, concat, W_O.
    A NaN or infinity in x raises NonFiniteError, as in `fourier_mixing`.
    `scipy.special` loads at the first call, as in `gelu`."""
    from scipy.special import softmax

    x = np.asarray(x)
    if x.ndim != 2:
        raise InvalidShapeError(f"expected [S, d] input, got rank {x.ndim}")
    require_finite(x=x)
    s, d = x.shape
    if num_heads < 1 or d % num_heads:
        raise ConfigError(f"num_heads {num_heads} is not a positive divisor of embed_dim {d}")
    missing = [f"{p}_{n}" for n in "qkvo" for p in "wb" if getattr(block, f"{p}_{n}") is None]
    if missing:
        raise ConfigError(f"the attention mixer needs the block's {', '.join(missing)}")
    dk = d // num_heads

    def heads(m):
        return m.reshape(s, num_heads, dk).transpose(1, 0, 2)  # [heads, S, dk]

    q = heads(x @ block.w_q.T + block.b_q)
    k = heads(x @ block.w_k.T + block.b_k)
    v = heads(x @ block.w_v.T + block.b_v)
    scale = np.sqrt(dk, dtype=np.result_type(q, 1.0))  # in q's dtype, so f32 stays f32
    weights = softmax(q @ k.transpose(0, 2, 1) / scale, axis=-1)
    ctx = (weights @ v).transpose(1, 0, 2).reshape(s, d)
    out = ctx @ block.w_o.T + block.b_o
    return (out, weights) if return_weights else out


def feed_forward(x, block: BlockWeights) -> np.ndarray:
    """dense(gelu(ff(x))): d -> dim_feedforward -> d with exact-erf GELU."""
    return gelu(np.asarray(x) @ block.w_ff.T + block.b_ff) @ block.w_dense.T + block.b_dense


def fit_block(x, block: BlockWeights, mixer: str = "fourier", num_heads: int = 1) -> np.ndarray:
    """One transformer block; see the module docstring for the exact wiring."""
    if mixer not in MIXERS:
        raise ConfigError(f"mixer must be one of {MIXERS}, got {mixer!r}")
    mixed = fourier_mixing(x) if mixer == "fourier" else attention_mixing(x, block, num_heads)
    return _block_tail(x, mixed, block)


def _block_tail(x, mixed: np.ndarray, block: BlockWeights) -> np.ndarray:
    """The row-local rest of a block after its mixer: LN1, FF, residual, LN2.
    With more than one usable CPU, two or more rows and _SPLIT_MACS of FF work
    per half, the bottom half of the rows runs on a second thread."""
    half = len(mixed) // 2
    # w_ff holds d * dim_feedforward scalars, so this is the FF GEMM's multiply-adds per half
    if half >= 2 and half * np.size(block.w_ff) >= _SPLIT_MACS and _usable_cpus() > 1:
        x = np.asarray(x)
        top, bottom = (x[:half], mixed[:half], block), (x[half:], mixed[half:], block)
        return np.concatenate(_on_two_threads(_rows_tail, top, bottom))
    return _rows_tail(x, mixed, block)


def _rows_tail(x, mixed: np.ndarray, block: BlockWeights) -> np.ndarray:
    # second residual adds the mixer output itself (reference wiring)
    h = feed_forward(layer_norm(mixed + x, block.gamma1, block.beta1), block) + mixed
    return layer_norm(h, block.gamma2, block.beta2)


def fit_forward(image, model: FitModel) -> np.ndarray:
    """Full forward pass: logits[num_classes] = gelu(W_head . cls + b_head).
    The last block computes the CLS row only (see the module docstring).
    A NaN or infinity in the image raises NonFiniteError."""
    require_finite(image=image)
    cfg = model.config
    x = patch_embed(image, model)
    for block in model.blocks[:-1]:
        x = fit_block(x, block, cfg.mixer, cfg.num_heads)
    if model.blocks:
        last = model.blocks[-1]
        if cfg.mixer == "fourier":  # row 0 of F_S is all ones
            mixed = fourier_mixing(x.sum(axis=0, keepdims=True))
        else:
            mixed = attention_mixing(x, last, cfg.num_heads)[:1]
        x = _block_tail(x[:1], mixed, last)
    return gelu(x[0] @ model.head_weight.T + model.head_bias)


def cross_entropy(logits, label: int) -> float:
    """-log softmax(logits)[label], stabilized by max subtraction
    (`scipy.special.log_softmax`, loaded at the first call as in `gelu`)."""
    from scipy.special import log_softmax

    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1:
        raise InvalidShapeError(f"logits must be rank-1, got rank {z.ndim}")
    if not 0 <= label < z.shape[0]:
        raise ValueError(f"label {label} out of range for {z.shape[0]} classes")
    return float(-log_softmax(z)[label])


def count_params(config: FitConfig) -> int:
    """Exact learnable-scalar count: the sizes of every tensor in _layout(config)."""
    return sum(math.prod(shape) for _, shape, _ in _layout(config))


def _layout(config: FitConfig) -> Iterator[tuple[str, tuple[int, ...], int | float]]:
    """(file name, shape, init) for every model tensor, in file order, yielded
    one at a time so that a reader stops at the first missing file whatever
    depth a manifest claims.

    An int init is a fan-in: the tensor is standard-normal divided by its
    square root.  A float init is a constant fill.  Drawn tensors take the
    random stream in this order; fills draw nothing.
    """
    d = config.embed_dim
    dff = config.dim_feedforward
    block = [
        ("gamma1", (d,), 1.0), ("beta1", (d,), 0.0),
        ("w_ff", (dff, d), d), ("b_ff", (dff,), 0.0),
        ("w_dense", (d, dff), dff), ("b_dense", (d,), 0.0),
        ("gamma2", (d,), 1.0), ("beta2", (d,), 0.0),
    ]
    if config.mixer == "attention":
        for p in "qkvo":
            block += [(f"w_{p}", (d, d), d), (f"b_{p}", (d,), 0.0)]
    yield ("patch_proj_weight", (d, config.patch_dim), config.patch_dim)
    yield ("patch_proj_bias", (d,), 0.0)
    yield ("cls_token", (1, d), 1)
    yield ("pos_embed", (config.seq_len, d), 0.0)
    for i in range(config.depth):
        yield from ((f"block{i}.{name}", shape, init) for name, shape, init in block)
    yield ("head_weight", (config.num_classes, d), d)
    yield ("head_bias", (config.num_classes,), 0.0)


def _slot(model: FitModel, name: str) -> tuple[FitModel | BlockWeights, str]:
    """(object, attribute) that holds the tensor saved as `name`."""
    block, _, attr = name.rpartition(".")
    return (model.blocks[int(block.removeprefix("block"))] if block else model), attr


def _assemble(config: FitConfig, tensors: dict[str, np.ndarray]) -> FitModel:
    """FitModel from {file name: tensor} over the names of _layout(config)."""
    # the four leading tensor fields are set from `tensors` with the rest
    model = FitModel(config, None, None, None, None, [BlockWeights() for _ in range(config.depth)])
    for name, tensor in tensors.items():
        setattr(*_slot(model, name), tensor)
    return model


def init_fit_model(config: FitConfig, rng: Rng) -> FitModel:
    """Seeded demo initialization, following _layout: weights are
    standard-normal scaled by 1/sqrt(fan_in), the CLS token is unit-scale
    normal, biases and the positional table start at zero, norm scales and
    shifts at 1 and 0.  Draw order (for stream reproduction): patch_proj_weight,
    cls_token, then per block [w_ff, w_dense, and for attention w_q, w_k,
    w_v, w_o], then head_weight.
    """
    tensors = {}
    for name, shape, init in _layout(config):
        if isinstance(init, float):
            tensors[name] = np.full(shape, init)
        else:
            tensors[name] = randn(rng, shape)
            tensors[name] /= np.sqrt(init)
    return _assemble(config, tensors)


# --- model directory I/O ----------------------------------------------------

_MANIFEST = "manifest.txt"
# FitConfig's tuple fields take one manifest key per element
_PAIR_KEYS = {"img_size": ("img_h", "img_w"), "patch_size": ("patch_h", "patch_w")}


def save_model(model: FitModel, directory) -> None:
    """Write a model as a directory: manifest.txt plus one FTNS file per tensor."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for f in fields(FitConfig):
        value = getattr(model.config, f.name)
        items = zip(_PAIR_KEYS[f.name], value) if f.name in _PAIR_KEYS else [(f.name, value)]
        lines += [f"{key}={v}" for key, v in items]
    (directory / _MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")
    for name, _, _ in _layout(model.config):
        write_tensor(getattr(*_slot(model, name)), directory / f"{name}.ftns")


def load_model(directory) -> FitModel:
    """Read a save_model directory back; a missing or malformed manifest key,
    a manifest that is not UTF-8, a missing tensor file or a shape mismatch
    raises ConfigError."""
    directory = Path(directory)
    manifest = directory / _MANIFEST
    if not manifest.is_file():
        raise ConfigError(f"missing manifest: {manifest}")
    try:
        text = manifest.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{manifest}: not UTF-8 text: {exc}") from exc
    entries = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{manifest}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    kwargs = {}
    for f in fields(FitConfig):
        pair = f.name in _PAIR_KEYS
        parse = type(f.default[0] if pair else f.default)  # int, float or str
        values = []
        for key in _PAIR_KEYS.get(f.name, (f.name,)):
            if key not in entries:
                raise ConfigError(f"{manifest}: missing required key {key!r}")
            try:
                values.append(parse(entries[key]))
            except ValueError as exc:
                raise ConfigError(f"{manifest}: bad value for {key!r}: {exc}") from exc
        kwargs[f.name] = tuple(values) if pair else values[0]
    config = FitConfig(**kwargs)

    tensors = {}
    for name, shape, _ in _layout(config):
        path = directory / f"{name}.ftns"
        if not path.is_file():
            raise ConfigError(f"missing tensor file: {path}")
        t = read_tensor(path)
        if t.shape != shape:
            raise ConfigError(
                f"{path}: tensor shape {t.shape} does not match configured {shape}"
            )
        tensors[name] = t
    return _assemble(config, tensors)
