import copy
import hashlib
import math
import threading
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from spectral_ops import (
    BlockWeights,
    ConfigError,
    FitConfig,
    FitModel,
    InvalidShapeError,
    NonFiniteError,
    Rng,
    attention_mixing,
    bench_mixing,
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
    randn,
    read_tensor,
    save_model,
)
from spectral_ops.oracles import naive_fourier_mixing


def small_config(**overrides):
    defaults = dict(
        img_size=(8, 8), patch_size=(4, 4), in_chans=3, embed_dim=16,
        dim_feedforward=32, depth=2, num_classes=10, num_heads=4,
    )
    defaults.update(overrides)
    return FitConfig(**defaults)


class TestConfig:
    def test_patch_must_divide_image(self):
        with pytest.raises(ConfigError):
            FitConfig(img_size=(32, 32), patch_size=(5, 5))

    def test_heads_must_divide_embed_dim_for_attention(self):
        with pytest.raises(ConfigError):
            FitConfig(embed_dim=10, num_heads=4, mixer="attention")
        FitConfig(embed_dim=10, num_heads=4, mixer="fourier")  # fine: heads unused

    def test_unknown_mixer(self):
        with pytest.raises(ConfigError):
            FitConfig(mixer="mamba")

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            FitConfig(dropout_rate=1.0)

    def test_derived_sizes(self):
        cfg = FitConfig(img_size=(32, 32), patch_size=(4, 4))
        assert cfg.grid_size == (8, 8)
        assert cfg.num_patches == 64
        assert cfg.seq_len == 65


class TestPatchEmbed:
    def test_cifar_geometry(self):
        cfg = FitConfig(img_size=(32, 32), patch_size=(4, 4), embed_dim=24)
        model = init_fit_model(cfg, Rng(1))
        out = patch_embed(randn(Rng(2), (3, 32, 32)), model)
        assert out.shape == (65, 24)  # 64 patches + CLS

    def test_all_zero_pipeline_stays_zero(self):
        cfg = FitConfig(
            img_size=(4, 4), patch_size=(2, 2), in_chans=1, embed_dim=4,
            dim_feedforward=8, depth=0,
        )
        model = init_fit_model(cfg, Rng(1))
        model.patch_proj_weight = np.eye(4)
        model.patch_proj_bias = np.zeros(4)
        model.cls_token = np.zeros((1, 4))
        out = patch_embed(np.zeros((1, 4, 4)), model)
        assert np.array_equal(out, np.zeros((5, 4)))

    def test_first_patch_row_matches_hand_projection(self):
        cfg = FitConfig(
            img_size=(4, 4), patch_size=(2, 2), in_chans=1, embed_dim=3,
            dim_feedforward=8, depth=0,
        )
        model = init_fit_model(cfg, Rng(3))  # pos_embed zero-initialized
        img = randn(Rng(4), (1, 4, 4))
        flat = np.array([img[0, 0, 0], img[0, 0, 1], img[0, 1, 0], img[0, 1, 1]])
        hand = model.patch_proj_weight @ flat + model.patch_proj_bias
        expected = layer_norm(hand[None, :], np.ones(3), np.zeros(3))[0]
        out = patch_embed(img, model)
        assert np.max(np.abs(out[1] - expected)) <= 1e-12

    def test_extent_mismatch_rejected(self):
        model = init_fit_model(small_config(), Rng(1))
        with pytest.raises(InvalidShapeError):
            patch_embed(np.zeros((3, 8, 12)), model)


class TestFourierMixing:
    def test_zeros(self):
        assert np.array_equal(fourier_mixing(np.zeros((4, 4))), np.zeros((4, 4)))

    def test_single_element_identity(self):
        x = np.array([[2.75]])
        assert np.array_equal(fourier_mixing(x), x)

    def test_matches_naive_dft_composition(self):
        x = randn(Rng(5), (4, 4))
        assert np.max(np.abs(fourier_mixing(x) - naive_fourier_mixing(x))) <= 1e-10

    # odd and even S and d: the Hermitian fill mirrors rows -j mod S and
    # hidden columns 1..(d-1)//2, so both parities of both axes matter
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-3)])
    @pytest.mark.parametrize("s,d", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 5), (4, 6),
                                     (5, 8), (8, 7), (197, 12)])
    def test_half_spectrum_matches_naive(self, s, d, dtype, tol):
        x = randn(Rng(s * 1000 + d), (s, d), dtype)
        got = fourier_mixing(x)
        assert got.dtype == dtype and got.shape == (s, d)
        assert np.max(np.abs(got - naive_fourier_mixing(x))) <= tol

    # at ViT-Base size the naive DFT takes seconds and its own phase rounding
    # reaches 5e-10, so numpy's independent complex FFT is the reference
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-3)])
    def test_half_spectrum_vit_base_size(self, dtype, tol):
        x = randn(Rng(197), (197, 768), dtype)
        got = fourier_mixing(x)
        assert got.dtype == dtype and got.shape == (197, 768)
        want = np.fft.fft2(x.astype(np.float64)).real
        assert np.max(np.abs(got - want)) <= tol

    def test_axis_order_commutes(self):
        x = randn(Rng(6), (16, 8))
        seq_first = np.fft.fft(np.fft.fft(x, axis=-2), axis=-1).real
        assert np.max(np.abs(fourier_mixing(x) - seq_first)) <= 1e-10

    def test_linear_over_real_scalars(self):
        x, y = randn(Rng(7), (6, 5)), randn(Rng(8), (6, 5))
        lhs = fourier_mixing(2.0 * x - 0.25 * y)
        rhs = 2.0 * fourier_mixing(x) - 0.25 * fourier_mixing(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_rejects_bad_rank(self):
        with pytest.raises(InvalidShapeError):
            fourier_mixing(np.zeros(4))

    def test_rejects_complex_input(self):
        with pytest.raises(InvalidShapeError):
            fourier_mixing(np.zeros((2, 2), dtype=complex))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, value):
        # one NaN in a 4x6 input would turn 20 of the 24 outputs into NaN
        x = np.ones((4, 6))
        x[1, 2] = value
        with pytest.raises(NonFiniteError, match="^x holds"):
            fourier_mixing(x)


class TestLayerNorm:
    def test_standardizes_rows(self):
        x = randn(Rng(9), (5, 16))
        out = layer_norm(x, np.ones(16), np.zeros(16))
        assert np.max(np.abs(out.mean(axis=-1))) <= 1e-12
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) <= 1e-6

    def test_constant_row_gives_beta(self):
        out = layer_norm(np.full((1, 8), 3.0), np.ones(8), np.full(8, 5.0))
        assert np.allclose(out, 5.0, atol=1e-12)

    def test_matches_two_pass_reference(self):
        x = randn(Rng(10), (3, 12))
        gamma, beta = randn(Rng(11), (12,)), randn(Rng(12), (12,))
        expected = np.empty_like(x)
        for i, row in enumerate(x):
            mean = row.sum() / 12
            var = ((row - mean) ** 2).sum() / 12
            expected[i] = (row - mean) / math.sqrt(var + 1e-12) * gamma + beta
        assert np.max(np.abs(layer_norm(x, gamma, beta) - expected)) <= 1e-10

    def test_shift_scale_invariance(self):
        x = randn(Rng(13), (4, 16))
        base = layer_norm(x, np.ones(16), np.zeros(16))
        for a, c in ((0.5, -3.0), (2.0, 0.0), (7.0, 11.0)):
            out = layer_norm(a * x + c, np.ones(16), np.zeros(16))
            assert np.max(np.abs(out - base)) <= 1e-8


class TestFeedForward:
    def test_gelu_fixed_points(self):
        assert gelu(0.0) == 0.0
        assert abs(gelu(6.0) - 6.0) <= 1e-6
        assert abs(gelu(-6.0)) <= 1e-6

    def test_zero_weights_give_zeros(self):
        block = BlockWeights(
            w_ff=np.zeros((8, 4)), b_ff=np.zeros(8),
            w_dense=np.zeros((4, 8)), b_dense=np.zeros(4),
        )
        assert np.array_equal(feed_forward(randn(Rng(14), (3, 4)), block), np.zeros((3, 4)))

    def test_matches_hand_matmuls(self):
        rng = Rng(15)
        block = BlockWeights(
            w_ff=randn(rng, (8, 4)), b_ff=randn(rng, (8,)),
            w_dense=randn(rng, (4, 8)), b_dense=randn(rng, (4,)),
        )
        x = randn(rng, (5, 4))
        hidden = x @ block.w_ff.T + block.b_ff
        hidden = 0.5 * hidden * (1.0 + np.vectorize(math.erf)(hidden / math.sqrt(2.0)))
        expected = hidden @ block.w_dense.T + block.b_dense
        assert np.max(np.abs(feed_forward(x, block) - expected)) <= 1e-12


def attention_block(rng, d):
    return BlockWeights(
        w_q=randn(rng, (d, d)), b_q=randn(rng, (d,)),
        w_k=randn(rng, (d, d)), b_k=randn(rng, (d,)),
        w_v=randn(rng, (d, d)), b_v=randn(rng, (d,)),
        w_o=randn(rng, (d, d)), b_o=randn(rng, (d,)),
    )


class TestAttention:
    def test_single_token_reduces_to_value_path(self):
        block = attention_block(Rng(16), 6)
        x = randn(Rng(17), (1, 6))
        expected = (x @ block.w_v.T + block.b_v) @ block.w_o.T + block.b_o
        out = attention_mixing(x, block, num_heads=2)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_weights_are_convex_combinations(self):
        block = attention_block(Rng(18), 8)
        _, weights = attention_mixing(randn(Rng(19), (6, 8)), block, 2, return_weights=True)
        assert weights.min() >= 0.0
        assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) <= 1e-12

    def test_single_head_hand_reference(self):
        block = attention_block(Rng(20), 4)
        x = randn(Rng(21), (3, 4))
        q = x @ block.w_q.T + block.b_q
        k = x @ block.w_k.T + block.b_k
        v = x @ block.w_v.T + block.b_v
        scores = q @ k.T / 2.0  # sqrt(d_k) = sqrt(4)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        expected = (weights @ v) @ block.w_o.T + block.b_o
        assert np.max(np.abs(attention_mixing(x, block, 1) - expected)) <= 1e-12

    def test_rejects_indivisible_heads(self):
        for heads in (4, 0, -2):
            with pytest.raises(ConfigError):
                attention_mixing(randn(Rng(22), (2, 6)), attention_block(Rng(23), 6), heads)

    @pytest.mark.parametrize("shape", [(2, 5, 16), (16,)])
    def test_rejects_bad_rank(self, shape):
        with pytest.raises(InvalidShapeError):
            attention_mixing(np.zeros(shape), attention_block(Rng(23), 16), 4)

    def test_block_without_attention_weights_rejected(self):
        fourier_block = init_fit_model(small_config(), Rng(1)).blocks[0]
        with pytest.raises(ConfigError, match="needs the block's w_q, b_q, w_k, .*, b_o$"):
            fit_block(randn(Rng(24), (5, 16)), fourier_block, "attention", 4)
        partial = replace(attention_block(Rng(25), 8), b_v=None)
        with pytest.raises(ConfigError, match="needs the block's b_v$"):
            attention_mixing(randn(Rng(26), (4, 8)), partial, 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, value):
        x = randn(Rng(22), (4, 8))
        x[1, 2] = value
        with pytest.raises(NonFiniteError, match="^x holds"):
            attention_mixing(x, attention_block(Rng(23), 8), 2)


class TestFitBlock:
    def test_zero_ff_degenerates_to_norm_of_mixed(self):
        d = 8
        block = BlockWeights(
            gamma1=np.ones(d), beta1=np.zeros(d),
            w_ff=np.zeros((16, d)), b_ff=np.zeros(16),
            w_dense=np.zeros((d, 16)), b_dense=np.zeros(d),
            gamma2=np.ones(d), beta2=np.zeros(d),
        )
        x = randn(Rng(24), (5, d))
        expected = layer_norm(fourier_mixing(x), np.ones(d), np.zeros(d))
        assert np.max(np.abs(fit_block(x, block) - expected)) <= 1e-12

    def test_matches_scripted_composition(self):
        cfg = small_config(depth=1)
        model = init_fit_model(cfg, Rng(25))
        block = model.blocks[0]
        x = randn(Rng(26), (cfg.seq_len, cfg.embed_dim))
        mixed = fourier_mixing(x)
        x1 = layer_norm(mixed + x, block.gamma1, block.beta1)
        expected = layer_norm(feed_forward(x1, block) + mixed, block.gamma2, block.beta2)
        assert np.max(np.abs(fit_block(x, block) - expected)) <= 1e-12

    def test_attention_mixer_wiring(self):
        cfg = small_config(depth=1, mixer="attention")
        model = init_fit_model(cfg, Rng(27))
        block = model.blocks[0]
        x = randn(Rng(28), (6, cfg.embed_dim))
        mixed = attention_mixing(x, block, cfg.num_heads)
        x1 = layer_norm(mixed + x, block.gamma1, block.beta1)
        expected = layer_norm(feed_forward(x1, block) + mixed, block.gamma2, block.beta2)
        out = fit_block(x, block, mixer="attention", num_heads=cfg.num_heads)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_one_fourier_block_param_count_closed_form(self):
        d, dff = 16, 32
        one = count_params(small_config(depth=1))
        zero = count_params(small_config(depth=0))
        assert one - zero == 2 * (2 * d) + d * dff + dff + dff * d + d


class TestFitForward:
    def test_logit_shape_and_finiteness(self):
        model = init_fit_model(small_config(), Rng(29))
        logits = fit_forward(randn(Rng(30), (3, 8, 8)), model)
        assert logits.shape == (10,)
        assert np.all(np.isfinite(logits))

    @pytest.mark.parametrize("mixer", ["fourier", "attention"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_rejected(self, mixer, value):
        model = init_fit_model(small_config(mixer=mixer), Rng(29))
        image = randn(Rng(30), (3, 8, 8))
        image[2, 5, 1] = value
        with pytest.raises(NonFiniteError, match="image"):
            fit_forward(image, model)

    def test_purity_bit_exact(self):
        model = init_fit_model(small_config(), Rng(31))
        img = randn(Rng(32), (3, 8, 8))
        assert np.array_equal(fit_forward(img, model), fit_forward(img, model))

    @pytest.mark.parametrize("depth,expect_invariant", [(1, True), (2, False)])
    def test_row_permutation_sensitivity(self, depth, expect_invariant):
        # With one block the CLS read-out sits on the FFT's DC row — a plain
        # column sum — and every later op is row-local, so swapping non-CLS
        # rows cannot move the logits.  A second block re-mixes the
        # position-dependent rows and breaks the invariance.
        cfg = small_config(depth=depth)
        model = init_fit_model(cfg, Rng(33))

        def head(seq):
            for block in model.blocks:
                seq = fit_block(seq, block, cfg.mixer, cfg.num_heads)
            return gelu(seq[0] @ model.head_weight.T + model.head_bias)

        embedded = patch_embed(randn(Rng(34), (3, 8, 8)), model)
        swapped = embedded.copy()
        swapped[[1, 2]] = swapped[[2, 1]]
        invariant = bool(np.allclose(head(embedded), head(swapped), atol=1e-12))
        assert invariant == expect_invariant


def _as_f32(weights):
    for name, value in vars(weights).items():
        if isinstance(value, np.ndarray):
            setattr(weights, name, value.astype(np.float32))
    return weights


@pytest.mark.parametrize("mixer", ["fourier", "attention"])
def test_f32_model_and_image_give_f32_logits(mixer):
    cfg = small_config(mixer=mixer)
    model = init_fit_model(cfg, Rng(50))
    image = randn(Rng(51), (3, 8, 8))
    want = fit_forward(image, model)
    model32 = _as_f32(init_fit_model(cfg, Rng(50)))
    model32.blocks = [_as_f32(block) for block in model32.blocks]
    got = fit_forward(image.astype(np.float32), model32)
    assert want.dtype == np.float64 and got.dtype == np.float32
    assert np.max(np.abs(got - want)) <= 1e-3


def _arrays(obj):
    """(owner, name, array) for an array itself, or every array a block or model holds."""
    if isinstance(obj, np.ndarray):
        return [(obj, None, obj)]
    return [(owner, name, value) for owner in [obj, *getattr(obj, "blocks", [])]
            for name, value in vars(owner).items() if isinstance(value, np.ndarray)]


def _all_rows_forward(image, model):
    """fit_forward as the plain composition: every block on every row."""
    cfg = model.config
    x = patch_embed(image, model)
    for block in model.blocks:
        x = fit_block(x, block, cfg.mixer, cfg.num_heads)
    return gelu(x[0] @ model.head_weight.T + model.head_bias)


def _randomized_model(mixer, depth, seed, **overrides):
    """A small model (or small_config with `overrides`) whose zero- and one-filled
    tensors (biases, norm scales and shifts, positional table) are random too,
    so every term is exercised."""
    model = init_fit_model(small_config(mixer=mixer, depth=depth, **overrides), Rng(seed))
    rng = Rng(seed + 1)
    for owner, name, value in _arrays(model):
        if value.ndim == 1 or name == "pos_embed":
            setattr(owner, name, randn(rng, value.shape))
    return model


class TestClsShortcut:
    # fit_forward runs the last block on the CLS row only; the logits must
    # equal the all-rows composition up to rounding.
    @pytest.mark.parametrize("mixer", ["fourier", "attention"])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_equals_all_rows_composition_f64(self, mixer, depth):
        model = _randomized_model(mixer, depth, 60 + depth)
        image = randn(Rng(70 + depth), (3, 8, 8))
        got = fit_forward(image, model)
        assert got.shape == (10,) and got.dtype == np.float64
        assert np.max(np.abs(got - _all_rows_forward(image, model))) <= 1e-12

    @pytest.mark.parametrize("mixer", ["fourier", "attention"])
    @pytest.mark.parametrize("depth", [1, 3])
    def test_equals_all_rows_composition_f32(self, mixer, depth):
        model = _as_f32(_randomized_model(mixer, depth, 80 + depth))
        model.blocks = [_as_f32(block) for block in model.blocks]
        image = randn(Rng(90 + depth), (3, 8, 8)).astype(np.float32)
        got = fit_forward(image, model)
        assert got.dtype == np.float32
        assert np.max(np.abs(got - _all_rows_forward(image, model))) <= 1e-3

    # Both mixers check their input, so a non-finite value that reaches a
    # mixer raises instead of turning the logits into NaN.
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_non_cls_row_entering_last_block_raises(self, value):
        model = _randomized_model("fourier", 1, 100)
        model.pos_embed[3, 5] = value  # patch_embed's LayerNorm turns row 3 into NaN
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
            fit_forward(randn(Rng(101), (3, 8, 8)), model)

    def test_non_finite_from_an_earlier_block_raises(self):
        model = _randomized_model("fourier", 2, 102)
        model.blocks[0].b_dense[3] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
            fit_forward(randn(Rng(103), (3, 8, 8)), model)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_attention_non_finite_position_raises(self, value):
        model = _randomized_model("attention", 2, 104)
        model.pos_embed[3, 5] = value
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
            fit_forward(randn(Rng(105), (3, 8, 8)), model)

    def test_attention_non_finite_from_an_earlier_block_raises(self):
        model = _randomized_model("attention", 2, 106)
        model.blocks[0].b_dense[3] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
            fit_forward(randn(Rng(107), (3, 8, 8)), model)


def _snapshot(*objects):
    return [(owner, name, value.copy()) for obj in objects for owner, name, value in _arrays(obj)]


def _assert_unchanged(snapshot):
    for owner, name, before in snapshot:
        now = owner if name is None else getattr(owner, name)
        assert now.dtype == before.dtype and np.array_equal(now, before), name


def _mixed(obj, matrix_dtype, vector_dtype):
    """Cast a block's or model's vectors (biases, norm scales and shifts) to
    `vector_dtype` and its other arrays to `matrix_dtype`."""
    for owner, name, value in _arrays(obj):
        setattr(owner, name, value.astype(vector_dtype if value.ndim == 1 else matrix_dtype))
    return obj


MIXED_DTYPES = [(np.float32, np.float64), (np.float64, np.float32)]


class TestDtypeContractAndNoMutation:
    # The ops run their elementwise chains in place on arrays they allocated;
    # an f64 operand must still promote an f32 chain, and nothing the caller
    # passed may change.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu(self, dtype):
        x = randn(Rng(110), (4, 6)).astype(dtype)
        snap = _snapshot(x)
        assert gelu(x).dtype == dtype
        _assert_unchanged(snap)
        scalar = gelu(dtype(0.5))
        assert not isinstance(scalar, np.ndarray) and np.asarray(scalar).dtype == dtype
        assert np.isscalar(gelu(0.5))

    @pytest.mark.parametrize("x_dtype,param_dtype", MIXED_DTYPES)
    def test_layer_norm(self, x_dtype, param_dtype):
        rng = Rng(111)
        x = randn(rng, (5, 8)).astype(x_dtype)
        gamma, beta = randn(rng, (8,)).astype(param_dtype), randn(rng, (8,)).astype(param_dtype)
        snap = _snapshot(x, gamma, beta)
        assert layer_norm(x, gamma, beta).dtype == np.result_type(x, gamma, beta)
        _assert_unchanged(snap)

    @pytest.mark.parametrize("x_dtype,param_dtype", MIXED_DTYPES)
    def test_feed_forward(self, x_dtype, param_dtype):
        block = _mixed(_randomized_model("fourier", 1, 112).blocks[0], x_dtype, param_dtype)
        x = randn(Rng(113), (5, 16)).astype(x_dtype)
        snap = _snapshot(x, block)
        want = np.result_type(x, block.w_ff, block.b_ff, block.w_dense, block.b_dense)
        assert feed_forward(x, block).dtype == want
        _assert_unchanged(snap)

    @pytest.mark.parametrize("mixer", ["fourier", "attention"])
    @pytest.mark.parametrize("x_dtype,param_dtype", MIXED_DTYPES)
    def test_fit_block(self, mixer, x_dtype, param_dtype):
        block = _mixed(_randomized_model(mixer, 1, 114).blocks[0], x_dtype, param_dtype)
        x = randn(Rng(115), (5, 16)).astype(x_dtype)
        snap = _snapshot(x, block)
        out = fit_block(x, block, mixer, num_heads=4)
        assert out.dtype == np.result_type(x, *(a for _, _, a in _arrays(block)))
        _assert_unchanged(snap)

    @pytest.mark.parametrize("mixer", ["fourier", "attention"])
    @pytest.mark.parametrize("x_dtype,param_dtype", MIXED_DTYPES)
    def test_fit_forward(self, mixer, x_dtype, param_dtype):
        model = _mixed(_randomized_model(mixer, 2, 116), x_dtype, param_dtype)
        image = randn(Rng(117), (3, 8, 8)).astype(x_dtype)
        snap = _snapshot(image, model)
        logits = fit_forward(image, model)
        assert logits.dtype == np.result_type(image, *(a for _, _, a in _arrays(model)))
        _assert_unchanged(snap)


class TestAboveNumpysElisionThreshold:
    # At S=197 (224x224, patch 16), d=256 and dim_feedforward=512 the [197, 512]
    # temporaries, and in f64 the [197, 256] ones, exceed numpy's 256 KiB
    # temporary-elision threshold, which the 8x8 models above never reach.  With
    # every operand read-only, a write into one raises; results must equal the
    # run on writeable copies bit for bit.
    @pytest.mark.parametrize("mixer", ["fourier", "attention"])
    @pytest.mark.parametrize("x_dtype,param_dtype", [(np.float32, np.float32),
                                                     (np.float64, np.float64),
                                                     (np.float32, np.float64)])
    def test_read_only_operands_give_the_same_bits(self, mixer, x_dtype, param_dtype):
        model = _randomized_model(mixer, 2, 120, img_size=(224, 224), patch_size=(16, 16),
                                  embed_dim=256, dim_feedforward=512)
        model = _mixed(model, param_dtype, param_dtype)
        cfg = model.config
        image = randn(Rng(121), (3, 224, 224)).astype(x_dtype)
        x = randn(Rng(122), (cfg.seq_len, 256)).astype(x_dtype)

        def run(image, x, model):
            block = model.blocks[0]
            return {
                "layer_norm": layer_norm(x, block.gamma1, block.beta1),
                "feed_forward": feed_forward(x, block),
                "fit_block": fit_block(x, block, mixer, cfg.num_heads),
                "fit_forward": fit_forward(image, model),
            }

        want = run(image.copy(), x.copy(), copy.deepcopy(model))
        for _, _, value in _arrays(model) + _arrays(image) + _arrays(x):
            value.flags.writeable = False
        got = run(image, x, model)
        dtype = np.result_type(x_dtype, param_dtype)
        for name, out in got.items():
            assert out.dtype == want[name].dtype == dtype, name
            assert out.shape == want[name].shape and out.tobytes() == want[name].tobytes(), name


# ViT-Base width at 224x224, patch 16 (S=197): 98 rows per half
VIT_BASE_WIDTH = dict(img_size=(224, 224), patch_size=(16, 16), embed_dim=768,
                      dim_feedforward=3072, num_heads=12)
# S=129, d=128, dim_feedforward=512: 64 rows per half, 64 * 128 * 512 = 2**22 multiply-adds
AT_SPLIT_THRESHOLD = dict(img_size=(32, 64), patch_size=(4, 4), embed_dim=128,
                          dim_feedforward=512, num_heads=4)
WIDE_FF = dict(embed_dim=64, dim_feedforward=65536)


class TestTailRowSplit:
    # With two usable CPUs, a block tail whose halves each have two or more rows
    # and 2**22 FF multiply-adds runs its bottom rows on a second thread.  Outputs
    # must equal the one-CPU run bit for bit, and the split must really engage.
    @pytest.mark.parametrize("geometry", [VIT_BASE_WIDTH, AT_SPLIT_THRESHOLD],
                             ids=["vit_base_width", "at_threshold"])
    @pytest.mark.parametrize("mixer", ["fourier", "attention"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_at_one_and_two_cpus(self, geometry, mixer, dtype, thread_starts, allow_cpus):
        model = _mixed(_randomized_model(mixer, 2, 130, **geometry), dtype, dtype)
        cfg = model.config
        image = randn(Rng(131), (3, *cfg.img_size)).astype(dtype)
        x = randn(Rng(132), (cfg.seq_len, cfg.embed_dim)).astype(dtype)

        def run(cpus):
            allow_cpus(cpus)
            thread_starts.clear()
            outputs = fit_block(x, model.blocks[0], mixer, cfg.num_heads), fit_forward(image, model)
            return outputs, len(thread_starts)

        (one, one_started), (two, two_started) = run(1), run(2)
        # fit_block's tail, and fit_forward's first block; its last block runs the CLS row only
        assert (one_started, two_started) == (0, 2)
        for a, b in zip(one, two):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("geometry,rows,started", [
        (AT_SPLIT_THRESHOLD, 127, 0), (AT_SPLIT_THRESHOLD, 128, 1), (AT_SPLIT_THRESHOLD, 129, 1),
        # 1 * 64 * 65536 = 2**22 multiply-adds in a one-row half, whose GEMMs
        # numpy runs as GEMVs, whose bits can differ from the whole GEMM's
        (WIDE_FF, 2, 0), (WIDE_FF, 3, 0), (WIDE_FF, 4, 1),
    ])
    def test_split_starts_at_the_threshold(self, geometry, rows, started, thread_starts,
                                           allow_cpus):
        block = _randomized_model("fourier", 1, 133, **geometry).blocks[0]
        x = randn(Rng(134), (rows, geometry["embed_dim"]))
        allow_cpus(1)
        one = fit_block(x, block)
        allow_cpus(2)
        thread_starts.clear()
        assert fit_block(x, block).tobytes() == one.tobytes()
        assert len(thread_starts) == started

    @pytest.mark.parametrize("mixer", ["fourier", "attention"])
    def test_default_config_starts_no_thread(self, mixer, thread_starts, allow_cpus):
        allow_cpus(2)
        model = init_fit_model(FitConfig(mixer=mixer), Rng(135))
        fit_forward(randn(Rng(136), (3, 32, 32)), model)
        assert thread_starts == []

    def test_error_reaches_the_caller_as_on_one_cpu(self, allow_cpus):
        block = _randomized_model("fourier", 1, 137, **AT_SPLIT_THRESHOLD).blocks[0]
        block.b_ff = np.zeros(513)  # does not broadcast against [rows, 512]
        x = randn(Rng(138), (129, 128))
        for cpus in (1, 2):
            allow_cpus(cpus)
            before = threading.active_count()
            with pytest.raises(ValueError):
                fit_block(x, block)
            assert threading.active_count() == before

    def test_worker_half_error_reaches_the_caller(self, allow_cpus, monkeypatch):
        allow_cpus(2)
        block = _randomized_model("fourier", 1, 137, **AT_SPLIT_THRESHOLD).blocks[0]

        def gelu_failing_off_the_main_thread(t):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("worker half")
            return gelu(t)

        monkeypatch.setattr("spectral_ops.fit.gelu", gelu_failing_off_the_main_thread)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="worker half"):
            fit_block(randn(Rng(138), (129, 128)), block)
        assert threading.active_count() == before


class TestCrossEntropy:
    def test_uniform_logits_give_log_m(self):
        assert abs(cross_entropy(np.zeros(10), 7) - math.log(10)) <= 1e-12

    def test_saturated_correct_label(self):
        assert cross_entropy(np.array([100.0, -100.0]), 0) <= 1e-12

    def test_non_negative(self):
        rng = Rng(35)
        for label in range(5):
            assert cross_entropy(randn(rng, (5,)), label) >= 0.0

    def test_matches_extended_precision_reference(self):
        logits = randn(Rng(36), (9,))
        label = 4
        with mpmath.workdps(50):
            exps = [mpmath.exp(mpmath.mpf(float(v))) for v in logits]
            expected = float(-mpmath.log(exps[label] / mpmath.fsum(exps)))
        assert abs(cross_entropy(logits, label) - expected) <= 1e-10

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros(4), 4)
        with pytest.raises(ValueError):
            cross_entropy(np.zeros(4), -1)


class TestCountParams:
    VIT_BASE = dict(
        img_size=(224, 224), patch_size=(16, 16), in_chans=3, embed_dim=768,
        dim_feedforward=3072, depth=12, num_classes=1000, num_heads=12,
    )

    def test_vit_base_within_two_percent_of_86m(self):
        count = count_params(FitConfig(mixer="attention", **self.VIT_BASE))
        assert abs(count - 86_000_000) <= 0.02 * 86_000_000

    def test_mixer_gap_closed_form(self):
        attn = count_params(FitConfig(mixer="attention", **self.VIT_BASE))
        four = count_params(FitConfig(mixer="fourier", **self.VIT_BASE))
        assert attn - four == 12 * (4 * 768**2 + 4 * 768)

    def test_depth_zero_hand_count(self):
        cfg = FitConfig(
            img_size=(8, 8), patch_size=(4, 4), in_chans=2, embed_dim=6,
            dim_feedforward=12, depth=0, num_classes=3,
        )
        patch_dim = 2 * 4 * 4
        expected = 6 * patch_dim + 6 + 6 + 5 * 6 + 3 * 6 + 3
        assert count_params(cfg) == expected

    def test_fourier_mixer_contributes_zero(self):
        base = count_params(small_config(depth=0))
        per_block = count_params(small_config(depth=1)) - base
        d, dff = 16, 32
        assert per_block == 2 * (2 * d) + d * dff + dff + dff * d + d  # no mixer terms


class TestModelIo:
    def test_save_load_roundtrip_preserves_forward(self, tmp_path):
        model = init_fit_model(small_config(mixer="attention"), Rng(37))
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        img = randn(Rng(38), (3, 8, 8))
        assert np.array_equal(fit_forward(img, model), fit_forward(img, back))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ConfigError, match="manifest"):
            load_model(tmp_path)

    def test_missing_tensor_file(self, tmp_path):
        model = init_fit_model(small_config(), Rng(39))
        save_model(model, tmp_path / "m")
        (tmp_path / "m" / "head_bias.ftns").unlink()
        with pytest.raises(ConfigError, match="head_bias"):
            load_model(tmp_path / "m")

    def test_shape_mismatch_names_tensor(self, tmp_path):
        from spectral_ops import write_tensor

        model = init_fit_model(small_config(), Rng(40))
        save_model(model, tmp_path / "m")
        write_tensor(np.zeros((3, 3)), tmp_path / "m" / "cls_token.ftns")
        with pytest.raises(ConfigError, match="cls_token"):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("key, value", [
        ("depth", "two"), ("dropout_rate", "x"), ("img_h", ""),
    ])
    def test_malformed_manifest_value_names_key(self, tmp_path, key, value):
        save_model(init_fit_model(small_config(), Rng(41)), tmp_path / "m")
        manifest = tmp_path / "m" / "manifest.txt"
        lines = [f"{key}={value}" if line.startswith(f"{key}=") else line
                 for line in manifest.read_text().splitlines()]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=f"manifest.txt: bad value for '{key}'"):
            load_model(tmp_path / "m")

    def test_non_utf8_manifest(self, tmp_path):
        save_model(init_fit_model(small_config(), Rng(41)), tmp_path / "m")
        manifest = tmp_path / "m" / "manifest.txt"
        manifest.write_bytes(manifest.read_bytes().replace(b"mixer=", b"mix\xffr="))
        with pytest.raises(ConfigError, match="manifest.txt: not UTF-8"):
            load_model(tmp_path / "m")

    def test_huge_claimed_depth_stops_at_first_missing_file(self, tmp_path):
        # the manifest claims 10^5 blocks but the directory holds 2: the
        # reader must stop at block2 without listing the other 10^5 first
        save_model(init_fit_model(small_config(), Rng(41)), tmp_path / "m")
        manifest = tmp_path / "m" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("depth=2", "depth=100000"))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="missing tensor file: .*block2.gamma1"):
                load_model(tmp_path / "m")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20

    def test_model_directories_are_byte_stable(self, tmp_path):
        # sha256 over the sorted file names and bytes of six saved models,
        # pinned from the layout as first written: the manifest keys, file
        # names, shapes, init rules and draw order must all stay as they are
        digest = hashlib.sha256()
        for mixer in ("fourier", "attention"):
            for depth in (0, 1, 3):
                cfg = FitConfig(
                    img_size=(8, 12), patch_size=(4, 4), in_chans=2, embed_dim=8,
                    dim_feedforward=12, depth=depth, num_classes=5, num_heads=2,
                    dropout_rate=0.125, mixer=mixer,
                )
                directory = tmp_path / f"{mixer}{depth}"
                save_model(init_fit_model(cfg, Rng(7)), directory)
                for path in sorted(directory.iterdir()):
                    digest.update(f"{directory.name}/{path.name}\n".encode())
                    digest.update(path.read_bytes())
        assert digest.hexdigest() == (
            "333371c562a9af4e8e090aee0fe84315fa51c1013ea7d594dd8d50591bea4156"
        )

    @pytest.mark.parametrize("mixer", ["fourier", "attention"])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_count_params_matches_saved_scalars(self, tmp_path, mixer, depth):
        cfg = small_config(mixer=mixer, depth=depth)
        save_model(init_fit_model(cfg, Rng(42)), tmp_path)
        tensors = [read_tensor(p) for p in tmp_path.glob("*.ftns")]
        assert sum(t.size for t in tensors) == count_params(cfg)


class TestBenchMixing:
    def test_rows_well_formed(self):
        rows = bench_mixing([16, 32], 8, repeats=2)
        assert len(rows) == 4
        assert {(r.params, r.method) for r in rows} == {
            ("S=16 d=8", "fourier"), ("S=16 d=8", "attention"),
            ("S=32 d=8", "fourier"), ("S=32 d=8", "attention"),
        }

    def test_growth_trends(self):
        # quadratic attention vs subquadratic fourier, S = 512 -> 2048
        rows = bench_mixing([512, 2048], 64, repeats=9)
        t = {(r.params, r.method): r.median_ms for r in rows}
        attention_growth = t[("S=2048 d=64", "attention")] / t[("S=512 d=64", "attention")]
        fourier_growth = t[("S=2048 d=64", "fourier")] / t[("S=512 d=64", "fourier")]
        samples = {(r.params, r.method): (r.samples_ms, r.minor_faults, r.cpu_ms) for r in rows}
        timed = f"medians {t}, (samples ms, minor faults, thread CPU ms) {samples}"
        assert attention_growth >= 8.0, timed
        assert fourier_growth <= 8.0, timed
