import math

import mpmath
import numpy as np
import pytest

from spectral_ops import (
    ConfigError,
    InvalidShapeError,
    Rng,
    SsmKernel,
    causal_fft_conv,
    hippo_legs,
    matrix_exp,
    randn,
    ssm_kernel,
)
from spectral_ops.oracles import direct_causal_conv, per_t_ssm_kernel


class TestHippoLegs:
    def test_n2_exact(self):
        params = hippo_legs(2, "as_written")
        assert params.A.tolist() == [[1.0, 0.0], [math.sqrt(3.0), 2.0]]
        assert params.B.tolist() == [1.0, math.sqrt(3.0)]

    def test_n1(self):
        params = hippo_legs(1, "as_written")
        assert params.A.tolist() == [[1.0]]
        assert params.B.tolist() == [1.0]

    def test_n4_three_case_formula(self):
        params = hippo_legs(4, "as_written")
        for n in range(4):
            for k in range(4):
                if n > k:
                    expected = math.sqrt(2 * n + 1) * math.sqrt(2 * k + 1)
                elif n == k:
                    expected = n + 1.0
                else:
                    expected = 0.0
                assert params.A[n, k] == expected
            assert params.B[n] == math.sqrt(2 * n + 1)

    def test_negated_flips_sign(self):
        a = hippo_legs(5, "as_written").A
        assert np.array_equal(hippo_legs(5, "negated").A, -a)

    def test_c_left_unset(self):
        assert hippo_legs(3).C is None

    def test_invalid_inputs(self):
        with pytest.raises(InvalidShapeError):
            hippo_legs(0)
        with pytest.raises(ValueError):
            hippo_legs(2, "upside_down")


class TestMatrixExp:
    def test_zero_matrix(self):
        assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = matrix_exp(np.diag([1.0, 2.0]))
        assert np.max(np.abs(out - np.diag([math.e, math.e**2]))) <= 1e-12

    def test_matches_extended_precision_taylor(self):
        # 60-term Taylor sum in 50-digit arithmetic as the independent oracle
        a = randn(Rng(42), (4, 4))
        a = a / np.linalg.norm(a, 2)  # spectral norm 1
        with mpmath.workdps(50):
            mp_a = mpmath.matrix(a.tolist())
            acc = mpmath.eye(4)
            term = mpmath.eye(4)
            for k in range(1, 61):
                term = term * mp_a / k
                acc += term
            expected = np.array(acc.tolist(), dtype=np.float64)
        assert np.max(np.abs(matrix_exp(a) - expected)) <= 1e-10

    def test_large_norm_scaling_branch(self):
        # HiPPO N=8 has 1-norm ~ tens; exercise several squarings
        a = hippo_legs(8, "negated").A
        with mpmath.workdps(60):
            mp_a = mpmath.matrix(a.tolist())
            acc = mpmath.eye(8)
            term = mpmath.eye(8)
            for k in range(1, 120):
                term = term * mp_a / k
                acc += term
            expected = np.array(acc.tolist(), dtype=np.float64)
        assert np.max(np.abs(matrix_exp(a) - expected)) <= 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(InvalidShapeError):
            matrix_exp(np.zeros((2, 3)))


class TestSsmKernel:
    def test_t0_equals_c_dot_b(self):
        params = hippo_legs(4)
        params.C = randn(Rng(1), (4,))
        kernel = ssm_kernel(params, 5)
        assert np.isclose(kernel.values[0], params.C @ params.B, atol=1e-14)

    def test_scalar_exponential(self):
        params = hippo_legs(1, "negated")  # A = [[-1]]
        params.C = np.array([1.0])
        kernel = ssm_kernel(params, 8)
        expected = np.exp(-1.0 * np.arange(8))
        assert np.max(np.abs(kernel.values - expected)) <= 1e-12

    def test_matches_per_t_matrix_exponential(self):
        params = hippo_legs(4, "negated")
        params.C = randn(Rng(2), (4,))
        kernel = ssm_kernel(params, 32)
        assert np.max(np.abs(kernel.values - per_t_ssm_kernel(params, 32))) <= 1e-8

    def test_unset_c_rejected(self):
        with pytest.raises(ConfigError, match="C"):
            ssm_kernel(hippo_legs(4), 8)

    def test_bad_length_rejected(self):
        params = hippo_legs(2)
        params.C = np.ones(2)
        with pytest.raises(InvalidShapeError):
            ssm_kernel(params, 0)

    @pytest.mark.filterwarnings("error")  # the ConfigError is the only signal
    def test_overflow_raises_naming_first_non_finite_t(self):
        params = hippo_legs(4, "as_written")
        params.C = np.ones(4)
        with pytest.raises(ConfigError, match=r"t = 177 "):
            ssm_kernel(params, 2000)

    def test_long_negated_kernel_stays_finite(self):
        # the state size and length of the long-sequence benchmark workload
        params = hippo_legs(64)
        params.C = randn(Rng(9), (64,))
        assert np.isfinite(ssm_kernel(params, 16384).values).all()

    def test_negated_decay_non_increasing(self):
        # \|e^{tA} B\| never grows with t under the negated convention
        for n in range(1, 9):
            params = hippo_legs(n, "negated")
            norms = [
                float(np.linalg.norm(matrix_exp(t * params.A) @ params.B))
                for t in range(17)
            ]
            for t in range(16):
                assert norms[t + 1] <= norms[t] + 1e-12, (n, t)


class TestCausalFftConv:
    def test_delta_kernel_returns_input(self):
        u = randn(Rng(3), (16,))
        k = np.zeros(16)
        k[0] = 1.0
        assert np.max(np.abs(causal_fft_conv(k, u) - u)) <= 1e-12

    def test_ones_give_prefix_sums(self):
        out = causal_fft_conv(np.ones(4), np.ones(4))
        assert np.allclose(out, [1.0, 2.0, 3.0, 4.0], atol=1e-12)

    def test_matches_causal_summation_oracle(self):
        rng = Rng(4)
        k, u = randn(rng, (33,)), randn(rng, (33,))
        assert np.max(np.abs(causal_fft_conv(k, u) - direct_causal_conv(k, u))) <= 1e-10

    def test_accepts_ssm_kernel_values(self):
        params = hippo_legs(3, "negated")
        params.C = randn(Rng(5), (3,))
        kernel = ssm_kernel(params, 12)
        u = randn(Rng(6), (12,))
        assert np.array_equal(causal_fft_conv(kernel, u), causal_fft_conv(kernel.values, u))
        assert isinstance(kernel, SsmKernel) and kernel.L == 12

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidShapeError):
            causal_fft_conv(np.ones(4), np.ones(5))

    def test_linear_in_input_and_kernel(self):
        rng = Rng(7)
        k, u, v = randn(rng, (20,)), randn(rng, (20,)), randn(rng, (20,))
        lhs = causal_fft_conv(k, 2.0 * u - 3.0 * v)
        rhs = 2.0 * causal_fft_conv(k, u) - 3.0 * causal_fft_conv(k, v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10
        lhs = causal_fft_conv(k + 0.5 * v, u)
        rhs = causal_fft_conv(k, u) + 0.5 * causal_fft_conv(v, u)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_causality_zeroing_future_inputs(self):
        # y[0..t] is a function of u[0..t] alone; the FFT route realizes the
        # exact property up to roundoff, pinned well below the 1e-10 oracle tol
        rng = Rng(8)
        k, u = randn(rng, (33,)), randn(rng, (33,))
        y = causal_fft_conv(k, u)
        for t in (0, 7, 20, 32):
            trunc = u.copy()
            trunc[t + 1 :] = 0.0
            diff = np.max(np.abs(causal_fft_conv(k, trunc)[: t + 1] - y[: t + 1]))
            assert diff <= 1e-12
