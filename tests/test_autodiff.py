import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsp import autodiff as ad
from wsp.autodiff import Tensor
from wsp.errors import ContractError, NonFiniteError
from wsp.losses import pairwise_logsumexp

from oracles import conv_bias_relu_stage as oracle_stage, im2col_conv2d, product


def square(t):
    """A smooth nonlinearity (t * t) so gradient checks see non-constant slopes."""
    return product(t, t)


def fd_check(f, x, tol=1e-6, eps=1e-5):
    leaf = Tensor(x, requires_grad=True)
    analytic = ad.backward(f(leaf)).wrt(leaf)
    numeric = ad.finite_diff_gradient(f, Tensor(x), eps=eps).data
    assert ad.max_relative_error(analytic, numeric) < tol


class TestAffine:
    def test_identity(self):
        out = ad.affine(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_hand_arithmetic(self):
        out = ad.affine(Tensor([[1.0, 0.0]]), Tensor([[2.0, 3.0], [5.0, 7.0]]), Tensor([1.0, 1.0]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0]])

    def test_bias_gradient_is_ones(self):
        x = Tensor(np.array([[0.5, -1.0, 2.0]]))
        w = Tensor(np.ones((3, 2)))
        b = Tensor(np.zeros(2), requires_grad=True)
        np.testing.assert_array_equal(ad.backward(ad.sum_all(ad.affine(x, w, b))).wrt(b), np.ones(2))

    def test_bias_gradient_scales_with_batch(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        w = Tensor(np.ones((3, 2)))
        b = Tensor(np.zeros(2), requires_grad=True)
        np.testing.assert_array_equal(ad.backward(ad.sum_all(ad.affine(x, w, b))).wrt(b), np.full(2, 2.0))

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            ad.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), Tensor(np.zeros(2)))

    def test_gradient(self, rng):
        x = rng.uniform(-1, 1, (3, 4))
        w = rng.uniform(-1, 1, (4, 2))
        fd_check(lambda t: ad.sum_all(square(ad.affine(t, Tensor(w), Tensor([0.1, -0.2])))), x)

    def test_input_gradient_skipped_when_not_required(self, rng):
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        g = rng.normal(size=(5, 3))
        frozen = ad.affine(Tensor(x), Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))
        full = ad.affine(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))
        gx_frozen, gw_frozen, gb_frozen = frozen._backward_fn(g)
        gx_full, gw_full, gb_full = full._backward_fn(g)
        assert gx_frozen is None
        assert gx_full.shape == x.shape
        assert np.array_equal(gw_frozen, gw_full)
        assert np.array_equal(gb_frozen, gb_full)


class TestConv2d:
    def test_all_ones(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = ad.conv2d(x, k, stride=1)
        np.testing.assert_array_equal(out.data, [[[[9.0]]]])

    def test_delta_kernel_center_crop(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = ad.conv2d(Tensor(x), Tensor(k), stride=1)
        np.testing.assert_array_equal(out.data[0, 0], x[0, 0, 1:4, 1:4])

    def test_output_extent_with_stride(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 9, 7)))
        k = Tensor(rng.normal(size=(4, 3, 3, 3)))
        assert ad.conv2d(x, k, stride=2).shape == (2, 4, 4, 3)

    def test_kernel_larger_than_input(self):
        with pytest.raises(ContractError):
            ad.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))), stride=1)

    def test_gradient_matches_finite_differences(self, rng):
        x = rng.uniform(-1, 1, (2, 1, 5, 5))
        k = rng.uniform(-1, 1, (2, 1, 3, 3))

        def wrt_input(t):
            return ad.sum_all(square(ad.conv2d(t, Tensor(k), stride=2)))

        def wrt_kernel(t):
            return ad.sum_all(square(ad.conv2d(Tensor(x), t, stride=2)))

        fd_check(wrt_input, x)
        fd_check(wrt_kernel, k)

    def test_input_gradient_skipped_when_not_required(self, rng):
        x = rng.normal(size=(2, 3, 9, 7))
        k = rng.normal(size=(4, 3, 3, 3))
        g = rng.normal(size=(2, 4, 4, 3))
        frozen = ad.conv2d(Tensor(x), Tensor(k, requires_grad=True), stride=2)
        full = ad.conv2d(Tensor(x, requires_grad=True), Tensor(k, requires_grad=True), stride=2)
        gx_frozen, gk_frozen = frozen._backward_fn(g)
        gx_full, gk_full = full._backward_fn(g)
        assert gx_frozen is None
        assert gx_full.shape == x.shape
        assert np.array_equal(gk_frozen, gk_full)


# The five stages of the default EncoderConfig on a 32x32 input: (in channels, side, out channels, kernel, stride).
CANONICAL_STAGES = [(1, 32, 16, 3, 2), (16, 15, 32, 3, 2), (32, 7, 64, 3, 2), (64, 3, 128, 3, 2), (128, 1, 256, 1, 1)]


class TestConvBiasRelu:
    """The channels-last fused stage and the channels-first conv2d equal the textbook im2col stage bit for bit."""

    @pytest.mark.parametrize("views", [64, 128])
    @pytest.mark.parametrize("stage", range(len(CANONICAL_STAGES)), ids=lambda i: f"conv{i + 1}")
    @pytest.mark.parametrize("input_grad", [True, False], ids=["input_grad", "frozen_input"])
    def test_bit_identical_to_im2col_oracle(self, views, stage, input_grad):
        cin, side, cout, ksize, stride = CANONICAL_STAGES[stage]
        rng = np.random.default_rng([views, stage])
        x = rng.uniform(-1, 1, (views, cin, side, side))
        k = rng.uniform(-0.3, 0.3, (cout, cin, ksize, ksize))
        b = rng.uniform(-0.1, 0.1, cout)
        hout = (side - ksize) // stride + 1
        g = rng.normal(size=(views, cout, hout, hout))
        out, gx, gk, gb = oracle_stage(x, k, b, stride, g, input_grad)

        fused = ad.conv_bias_relu(
            Tensor(x.transpose(0, 2, 3, 1), requires_grad=input_grad),
            Tensor(k, requires_grad=True),
            Tensor(b, requires_grad=True),
            stride,
        )
        assert np.array_equal(fused.data, out.transpose(0, 2, 3, 1))
        fgx, fgk, fgb = fused._backward_fn(np.ascontiguousarray(g.transpose(0, 2, 3, 1)))
        assert np.array_equal(fgk, gk)
        assert np.array_equal(fgb, gb)
        if input_grad:
            assert np.array_equal(fgx, gx.transpose(0, 2, 3, 1))
        else:
            assert fgx is None

        conv, conv_backward = im2col_conv2d(x, k, stride)
        plain = ad.conv2d(Tensor(x, requires_grad=input_grad), Tensor(k, requires_grad=True), stride)
        assert np.array_equal(plain.data, conv)
        pgx, pgk = plain._backward_fn(g)
        ogx, ogk = conv_backward(g, input_grad)
        assert np.array_equal(pgk, ogk)
        assert (pgx is None) if not input_grad else np.array_equal(pgx, ogx)

    def test_relu_zeroes_negative_pre_activations(self):
        x = Tensor(np.array([[[[1.0], [-2.0]]]]))  # one 1x2 single-channel image, channels-last
        out = ad.conv_bias_relu(x, Tensor(np.ones((1, 1, 1, 1))), Tensor([0.5]))
        np.testing.assert_array_equal(out.data, [[[[1.5], [0.0]]]])

    def test_bias_must_match_kernel(self):
        with pytest.raises(ContractError):
            ad.conv_bias_relu(Tensor(np.ones((1, 3, 3, 1))), Tensor(np.ones((2, 1, 1, 1))), Tensor(np.zeros(3)))


class TestElementwise:
    def test_relu(self):
        np.testing.assert_array_equal(ad.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    @pytest.mark.parametrize("kind", ["relu", "neg"])
    def test_gradients(self, kind, rng):
        op = {"relu": ad.relu, "neg": lambda t: product(t, Tensor(np.full(t.shape, -1.0)))}[kind]
        x = rng.uniform(-1, 1, (3, 3)) + 0.01  # keep relu away from the kink
        fd_check(lambda t: ad.sum_all(product(op(t), op(t))), x)


def lse(s, exclude_anchor):
    """The loss denominator's values, without its vjp."""
    return pairwise_logsumexp(s, exclude_anchor)[0]


class TestLogSumExp:
    """The loss denominator: L[t, i] = log sum_j exp S[t, j] over j != i (and j != t)."""

    def test_two_zeros(self):
        np.testing.assert_allclose(lse(np.zeros((3, 3)), exclude_anchor=False), math.log(2.0), atol=1e-15)

    def test_large_values_do_not_overflow(self):
        out = lse(np.full((3, 3), 1000.0), exclude_anchor=False)
        np.testing.assert_allclose(out, 1000.0 + math.log(2.0), atol=1e-12)

    def test_singleton(self):
        s = np.array([[3.25, -1.5], [0.75, 2.0]])
        np.testing.assert_array_equal(lse(s, exclude_anchor=False), s[:, ::-1])

    def test_empty_axis(self):
        with pytest.raises(ContractError):
            pairwise_logsumexp(np.zeros((2, 2)), exclude_anchor=True)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, values):
        m = len(values)
        out = lse(np.tile(values, (m, 1)), exclude_anchor=False)
        for i in range(m):
            rest = max(v for j, v in enumerate(values) if j != i)
            assert np.all(out[:, i] >= rest - 1e-12)
            assert np.all(out[:, i] <= rest + math.log(m - 1) + 1e-12)

    def test_gradient(self, rng):
        # f(S) = sum L^2, so the vjp of 2 L is the gradient.
        x = rng.uniform(-1, 1, (4, 4))
        for exclude_anchor in (True, False):
            out, vjp = pairwise_logsumexp(x, exclude_anchor)
            numeric = ad.finite_diff_gradient(lambda t: Tensor((lse(t.data, exclude_anchor) ** 2).sum()), Tensor(x))
            assert ad.max_relative_error(vjp(2.0 * out), numeric.data) < 1e-6


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(ad.l2_normalize(Tensor([[3.0, 4.0]])).data, [[0.6, 0.8]], atol=1e-15)

    def test_unit_vector_unchanged(self):
        v = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(ad.l2_normalize(Tensor(v)).data, v, atol=1e-15)

    def test_rows_unit_and_idempotent(self, rng):
        x = rng.uniform(-2, 2, (6, 5))
        once = ad.l2_normalize(Tensor(x))
        norms = np.linalg.norm(once.data, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        twice = ad.l2_normalize(once)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-12)

    def test_zero_row(self):
        with pytest.raises(ContractError):
            ad.l2_normalize(Tensor(np.zeros((2, 3))))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_norm(self, value):
        # x / inf would map a finite row to zeros, not to a unit row; there is no direction to keep.
        with pytest.raises(NonFiniteError, match="non-finite row norm"):
            ad.l2_normalize(Tensor(np.array([[1.0, 2.0], [value, 1.0]])))

    def test_gradient(self, rng):
        x = rng.uniform(-1, 1, (3, 4)) + 0.1
        w = rng.uniform(-1, 1, (3, 4))
        fd_check(lambda t: ad.sum_all(product(ad.l2_normalize(t), Tensor(w))), x)


class TestBackward:
    def test_sum_of_squares(self, rng):
        x = Tensor(rng.uniform(-1, 1, 7), requires_grad=True)
        np.testing.assert_allclose(ad.backward(ad.sum_all(product(x, x))).wrt(x), 2.0 * x.data, atol=1e-14)

    def test_chain_through_normalize_and_dot(self, rng):
        x = rng.uniform(-1, 1, (2, 6)) + 0.05
        other = rng.uniform(-1, 1, (2, 6))

        def f(t):
            return ad.sum_all(product(ad.l2_normalize(t), Tensor(other)))

        fd_check(f, x)

    def test_leaf_not_on_tape_reads_zero(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        grads = ad.backward(ad.sum_all(product(x, x)))
        np.testing.assert_array_equal(grads.wrt(unused), [0.0])

    def test_non_scalar_rejected(self):
        with pytest.raises(ContractError):
            ad.backward(Tensor([1.0, 2.0]))

    def test_backward_twice_bit_identical(self, rng):
        x = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
        y = ad.sum_all(square(product(x, x)))
        first = ad.backward(y).wrt(x).copy()
        second = ad.backward(y).wrt(x)
        assert np.array_equal(first, second)

    def test_gradient_accumulates_over_reuse(self):
        # x enters x * x twice and then (x * x) * x once: d/dx x^3 = 3 x^2.
        x = Tensor([2.0], requires_grad=True)
        grads = ad.backward(ad.sum_all(product(product(x, x), x)))
        np.testing.assert_allclose(grads.wrt(x), [12.0])


class TestFiniteDiff:
    def test_sum_of_squares(self):
        grad = ad.finite_diff_gradient(lambda t: ad.sum_all(product(t, t)), Tensor([1.0, 2.0]), eps=1e-5)
        np.testing.assert_allclose(grad.data, [2.0, 4.0], atol=1e-9)

    def test_quadratic_is_exact_to_eps_squared(self):
        # For a quadratic, the central difference is exact up to rounding.
        grad = ad.finite_diff_gradient(lambda t: ad.sum_all(product(t, t)), Tensor([0.5]), eps=1e-3)
        assert abs(grad.data[0] - 1.0) < 1e-9

    def test_eps_must_be_positive(self):
        with pytest.raises(ContractError):
            ad.finite_diff_gradient(lambda t: ad.sum_all(t), Tensor([1.0]), eps=0.0)


class TestCompositePrimitives:
    """Every differentiable primitive agrees with finite differences."""

    def test_channel_bias_and_spatial_mean(self, rng):
        # A 1x1 conv stage (channel bias and ReLU included) on a channels-last batch, then the pool.
        x = rng.uniform(-1, 1, (2, 4, 4, 3))
        k = rng.uniform(-1, 1, (3, 3, 1, 1))
        b = rng.uniform(-1, 1, 3)
        pre = x @ k[:, :, 0, 0].T + b
        assert np.abs(pre).min() > 1e-3  # no pre-activation within a finite-difference step of the ReLU kink

        def f(t):
            return ad.sum_all(square(ad.spatial_mean(ad.conv_bias_relu(t, Tensor(k), Tensor(b)))))

        fd_check(f, x)

        def g(t):
            return ad.sum_all(square(ad.spatial_mean(ad.conv_bias_relu(Tensor(x), Tensor(k), t))))

        fd_check(g, b)

        def h(t):
            return ad.sum_all(square(ad.spatial_mean(ad.conv_bias_relu(Tensor(x), t, Tensor(b)))))

        fd_check(h, k)
