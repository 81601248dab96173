import math

import mpmath
import numpy as np
import pytest

from spectral_ops import (
    BlockWeights,
    ConfigError,
    FitConfig,
    FitModel,
    InvalidShapeError,
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

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            layer_norm(np.zeros((2, 4)), np.ones(4), np.zeros(4), eps=0.0)


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
        with pytest.raises(ConfigError):
            attention_mixing(randn(Rng(22), (2, 6)), attention_block(Rng(23), 6), 4)


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
        assert attention_growth >= 8.0
        assert fourier_growth <= 8.0
