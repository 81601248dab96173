"""A transformer encoder whose token mixer is a parameter-free 2D Fourier
transform instead of self-attention: build one, run an image through it, and
compare parameter counts and mixing speed against the attention variant.

Run:  python3 demos/fourier_transformer.py
"""

import math

import numpy as np

from spectral_ops import (
    FitConfig,
    Rng,
    bench_mixing,
    count_params,
    cross_entropy,
    fit_forward,
    fourier_mixing,
    init_fit_model,
    randn,
)
from spectral_ops.oracles import naive_fourier_mixing

rng = Rng(42)

# --- the mixing step in isolation --------------------------------------------
# fourier_mixing(x) = Re( FFT_seq( FFT_hidden(x) ) ): every token talks to
# every other token through the transform, with zero learned parameters.
x = randn(rng, (16, 8))
print("fourier mixing vs naive DFT composition:",
      f"max err {np.max(np.abs(fourier_mixing(x) - naive_fourier_mixing(x))):.2e}")

# --- a small classifier end to end --------------------------------------------
config = FitConfig(
    img_size=(32, 32), patch_size=(4, 4), in_chans=3, embed_dim=64,
    dim_feedforward=128, depth=2, num_classes=10,
)
model = init_fit_model(config, rng)
image = randn(rng, (3, 32, 32))
logits = fit_forward(image, model)

print(f"\n{config.num_patches} patches + CLS -> sequence length {config.seq_len}")
print("logits:", " ".join(f"{v:+.3f}" for v in logits))
print("argmax:", int(np.argmax(logits)))

# An untrained model should hover near chance: loss ~ ln(10) for 10 classes.
loss = cross_entropy(logits, label=3)
print(f"cross-entropy at init: {loss:.3f}   (ln 10 = {math.log(10):.3f})")

# --- parameter counts: where attention spends its budget ----------------------
vit_base = dict(
    img_size=(224, 224), patch_size=(16, 16), in_chans=3, embed_dim=768,
    dim_feedforward=3072, depth=12, num_classes=1000, num_heads=12,
)
attn = count_params(FitConfig(mixer="attention", **vit_base))
four = count_params(FitConfig(mixer="fourier", **vit_base))
d, depth = 768, 12
print(f"\nViT-Base geometry: attention mixer {attn:,} params, fourier mixer {four:,}")
print(f"difference {attn - four:,} = depth * (4d^2 + 4d) = {depth * (4 * d**2 + 4 * d):,}")

# --- and where attention spends its time --------------------------------------
# Attention is quadratic in sequence length; the FFT mixer is S log S.
print("\nmixing time (median ms, d=256):")
for row in bench_mixing([1024, 4096], 256, repeats=3):
    print(f"  {row.params:14s} {row.method:10s} {row.median_ms:9.2f} ms")
