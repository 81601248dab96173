import math
from dataclasses import FrozenInstanceError, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_ops import (
    ConfigError,
    InvalidShapeError,
    NonFiniteError,
    Rng,
    SsmKernel,
    causal_fft_conv,
    hippo_legs,
    matrix_exp,
    randn,
    ssm,
    ssm_kernel,
)
from spectral_ops.oracles import direct_causal_conv, per_t_ssm_kernel, three_case_hippo_legs


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
        a, b = three_case_hippo_legs(4)
        assert np.array_equal(params.A, a)
        assert np.array_equal(params.B, b)

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

    @pytest.mark.parametrize("L", [1, 2, 3, 37, 1000])
    def test_blocked_powers_match_per_t_oracle(self, L):
        # block size isqrt(L): L <= 3 gives blocks of one, while 37 and 1000
        # leave the last block row partly unused (7 x 6 and 33 x 31 slots)
        params = hippo_legs(8, "negated")
        params.C = randn(Rng(10), (8,))
        kernel = ssm_kernel(params, L)
        assert kernel.L == L
        assert np.max(np.abs(kernel.values - per_t_ssm_kernel(params, L))) <= 1e-8

    def test_unset_c_rejected(self):
        with pytest.raises(ConfigError, match="C"):
            ssm_kernel(hippo_legs(4), 8)

    def test_bad_length_rejected(self):
        params = hippo_legs(2)
        params.C = np.ones(2)
        with pytest.raises(InvalidShapeError):
            ssm_kernel(params, 0)

    @pytest.mark.parametrize("operand,shape", [("A", (5, 5)), ("A", (4, 5)), ("A", (16,)),
                                               ("B", (5,)), ("B", (4, 1))])
    def test_wrong_a_or_b_shape_rejected(self, operand, shape):
        params = hippo_legs(4)
        params.C = np.ones(4)
        setattr(params, operand, np.ones(shape))
        with pytest.raises(InvalidShapeError, match="A and B"):
            ssm_kernel(params, 8)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("operand", ["A", "B", "C"])
    def test_non_finite_a_b_or_c_rejected(self, operand, value):
        params = hippo_legs(4)
        params.C = np.ones(4)
        getattr(params, operand)[-1] = value
        with pytest.raises(NonFiniteError, match=f"^{operand} "):
            ssm_kernel(params, 8)

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

    @pytest.mark.parametrize("k_dtype,u_dtype", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_mixed_precision_is_f64_accurate(self, k_dtype, u_dtype):
        # a plain kernel and u both transform in f64, whichever of them is f32
        rng = Rng(10)
        k, u = randn(rng, (257,), k_dtype), randn(rng, (257,), u_dtype)
        got = causal_fft_conv(k, u)
        want = direct_causal_conv(k.astype(np.float64), u.astype(np.float64))
        assert got.dtype == np.float64 and np.max(np.abs(got - want)) <= 1e-10

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
        with pytest.raises(InvalidShapeError):
            causal_fft_conv(np.ones((2, 4)), np.ones((2, 4)))

    def test_batched_rows_equal_per_channel_calls(self):
        # one call over [8, L] transforms the kernel once for all channels
        rng = Rng(9)
        k, u = randn(rng, (16384,)), randn(rng, (8, 16384))
        y = causal_fft_conv(k, u)
        assert y.shape == u.shape
        for c in range(8):
            assert np.array_equal(y[c], causal_fft_conv(k, u[c]))
        assert causal_fft_conv(k[:5], randn(rng, (2, 3, 5))).shape == (2, 3, 5)

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


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


class TestKernelCache:
    @staticmethod
    def _params():
        params = hippo_legs(6)
        params.C = np.round(randn(Rng(40), (6,)) * 8) / 8  # exact in f32 as well
        return params

    def test_repeat_call_reuses_kernel_and_spectrum(self, monkeypatch):
        params, u = self._params(), randn(Rng(41), (2, 50))
        exps = _counting(monkeypatch, ssm, "matrix_exp")
        kernel = ssm_kernel(params, 50)
        first = causal_fft_conv(kernel, u)
        again = ssm_kernel(params, 50)
        assert again is kernel and len(exps) == 1
        assert np.array_equal(causal_fft_conv(again, u), first)
        assert np.array_equal(first, causal_fft_conv(kernel.values.copy(), u))

    @pytest.mark.parametrize("edit", ["A in place", "B in place", "C in place",
                                      "C new array", "C to f32"])
    def test_changed_params_rebuild(self, monkeypatch, edit):
        params = self._params()
        ssm_kernel(params, 50)
        if edit == "A in place":
            params.A[2, 1] *= 0.5
        elif edit == "B in place":
            params.B[0] += 1.0
        elif edit == "C in place":
            params.C[3] = -params.C[3]
        elif edit == "C new array":
            params.C = params.C * 2.0
        else:
            params.C = params.C.astype(np.float32)
        exps = _counting(monkeypatch, ssm, "matrix_exp")
        got = ssm_kernel(params, 50).values
        assert len(exps) == 1
        assert np.array_equal(got, ssm_kernel(replace(params), 50).values)

    def test_switching_length_back_and_forth(self):
        params = self._params()
        for L in (40, 90, 40, 90):
            assert np.array_equal(ssm_kernel(params, L).values,
                                  ssm_kernel(replace(params), L).values)

    def test_replace_and_eq_ignore_the_kept_kernel(self):
        params = self._params()
        ssm_kernel(params, 20)
        assert replace(params) == params
        assert "_kernel" not in repr(params)

    def test_values_are_a_read_only_copy(self):
        raw = np.arange(5.0)
        kernel = SsmKernel(values=raw)
        raw[0] = 9.0
        assert kernel.values[0] == 0.0
        with pytest.raises(ValueError):
            kernel.values[1] = 1.0
        with pytest.raises(FrozenInstanceError):
            kernel.values = raw
        with pytest.raises(ValueError):
            ssm_kernel(self._params(), 8).values[0] = 0.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("operand", ["signal", "kernel"])
@pytest.mark.parametrize("wrap", [np.asarray, lambda k: SsmKernel(values=k)])
def test_non_finite_operand_rejected(operand, value, wrap):
    k, u = np.ones(8), np.ones((2, 8))
    {"kernel": k, "signal": u}[operand].flat[3] = value
    with pytest.raises(NonFiniteError, match=operand):
        causal_fft_conv(wrap(k), u)


@pytest.mark.parametrize("wrap", [np.asarray, lambda k: SsmKernel(values=k)])
@settings(max_examples=40)
@given(L=st.integers(1, 48), lead=st.lists(st.integers(1, 3), max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_causal_conv_matches_direct_on_random_shapes(wrap, L, lead, seed):
    rng = Rng(seed)
    k, u, v = randn(rng, (L,)), randn(rng, (*lead, L)), randn(rng, (*lead, L))
    kernel = wrap(k)
    y = causal_fft_conv(kernel, u)
    want = np.apply_along_axis(lambda row: direct_causal_conv(k, row), -1, u)
    assert y.shape == u.shape
    assert np.max(np.abs(y - want)) <= 1e-10
    lin = causal_fft_conv(kernel, 2.0 * u - 3.0 * v) - (2.0 * y - 3.0 * causal_fft_conv(kernel, v))
    assert np.max(np.abs(lin)) <= 1e-10
