"""Gradient correctness for every Tensor op, verified by finite differences."""

import numpy as np
import pytest

from repro.tensor import Tensor

from .gradcheck import grad_check


def _t(shape, seed=0, scale=1.0, shift=0.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape) * scale + shift, requires_grad=True)


class TestElementwiseGrads:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: x.exp(),
            lambda x: x.tanh(),
            lambda x: x.sigmoid(),
            lambda x: x.relu(),
            lambda x: x.leaky_relu(0.1),
            lambda x: x * x,
            lambda x: x**3,
            lambda x: -x,
        ],
        ids=["exp", "tanh", "sigmoid", "relu", "leaky_relu", "square", "cube", "neg"],
    )
    def test_unary(self, fn):
        grad_check(fn, [_t((3, 4), seed=1)], rtol=1e-3, atol=1e-6)

    def test_log_and_sqrt_on_positive_input(self):
        x = Tensor(np.random.default_rng(2).uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
        grad_check(lambda x: x.log(), [x], rtol=1e-3, atol=1e-6)
        x.zero_grad()
        grad_check(lambda x: x.sqrt(), [x], rtol=1e-3, atol=1e-6)

    def test_abs_away_from_zero(self):
        x = Tensor(np.random.default_rng(3).choice([-1.0, 1.0], size=6) * np.random.default_rng(4).uniform(0.5, 2, 6), requires_grad=True)
        grad_check(lambda x: x.abs(), [x], rtol=1e-3, atol=1e-6)

    def test_clip_interior_points(self):
        x = Tensor(np.linspace(-3, 3, 7, dtype=np.float64), requires_grad=True)
        grad_check(lambda x: x.clip(-2.5, 2.5), [x], rtol=1e-3, atol=1e-6)


class TestBinaryGrads:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: a * b,
            lambda a, b: a / b,
        ],
        ids=["add", "sub", "mul", "div"],
    )
    def test_broadcasting_pairs(self, fn):
        a = _t((2, 3), seed=5)
        b = Tensor(np.random.default_rng(6).uniform(0.5, 2.0, size=(3,)), requires_grad=True)
        grad_check(fn, [a, b], rtol=1e-3, atol=1e-6)

    def test_matmul_2d(self):
        grad_check(lambda a, b: a @ b, [_t((3, 4), 7), _t((4, 2), 8)], rtol=1e-3, atol=1e-6)

    def test_matmul_matrix_vector(self):
        grad_check(lambda a, b: a @ b, [_t((3, 4), 9), _t((4,), 10)], rtol=1e-3, atol=1e-6)


class TestWeakScalars:
    """Python scalars take the tensor's dtype (NEP 50), in both operand orders."""

    @pytest.mark.parametrize(
        "fn, grad",
        [
            (lambda x: x + 1.5, lambda x: np.ones_like(x)),
            (lambda x: x - 1.5, lambda x: np.ones_like(x)),
            (lambda x: x * 1.5, lambda x: np.full_like(x, 1.5)),
            (lambda x: x / 1.5, lambda x: np.full_like(x, 1 / 1.5)),
            (lambda x: 1.5 + x, lambda x: np.ones_like(x)),
            (lambda x: 1.5 - x, lambda x: -np.ones_like(x)),
            (lambda x: 1.5 * x, lambda x: np.full_like(x, 1.5)),
            (lambda x: 1.5 / x, lambda x: -1.5 / (x * x)),
        ],
        ids=["add", "sub", "mul", "div", "radd", "rsub", "rmul", "rdiv"],
    )
    def test_float32_stays_float32(self, fn, grad):
        data = np.random.default_rng(9).uniform(0.5, 2.0, size=(3, 4)).astype(np.float32)
        x = Tensor(data, requires_grad=True)
        out = fn(x)
        assert out.data.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32
        np.testing.assert_allclose(x.grad, grad(data), rtol=1e-6)

    def test_int_plus_python_int_stays_integer(self):
        x = Tensor(np.arange(4, dtype=np.int32))
        out = x + 3
        assert out.data.dtype == np.int32
        np.testing.assert_array_equal(out.data, np.arange(3, 7))

    def test_float64_plus_python_float_stays_float64(self):
        x = Tensor(np.linspace(0.0, 1.0, 5))
        out = 1e-5 + x
        assert out.data.dtype == np.float64
        np.testing.assert_array_equal(out.data, np.linspace(0.0, 1.0, 5) + 1e-5)


class TestReductionGrads:
    def test_sum_all_axes(self):
        grad_check(lambda x: x.sum(), [_t((2, 3), 11)], rtol=1e-3, atol=1e-6)

    def test_sum_axis_keepdims(self):
        grad_check(lambda x: x.sum(axis=0, keepdims=True) * x, [_t((3, 2), 12)], rtol=1e-3, atol=1e-6)

    def test_mean_axes_tuple(self):
        grad_check(lambda x: x.mean(axis=(0, 2)), [_t((2, 3, 4), 13)], rtol=1e-3, atol=1e-6)

    def test_var(self):
        grad_check(lambda x: x.var(axis=1), [_t((3, 5), 14)], rtol=1e-3, atol=1e-6)

    def test_max_unique_values(self):
        x = Tensor(np.random.default_rng(15).permutation(12).astype(np.float64).reshape(3, 4), requires_grad=True)
        grad_check(lambda x: x.max(axis=1), [x], rtol=1e-3, atol=1e-6)

    def test_max_splits_ties(self):
        x = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
        x.data = x.data.astype(np.float64)
        out = x.max(axis=1)
        out.backward(np.ones_like(out.data))
        assert np.allclose(x.grad, [[0.5, 0.5, 0.0]])


class TestShapeGrads:
    def test_reshape(self):
        grad_check(lambda x: x.reshape(6) * Tensor(np.arange(6, dtype=np.float64), requires_grad=False), [_t((2, 3), 16)], rtol=1e-3, atol=1e-6)

    def test_transpose_default_and_axes(self):
        grad_check(lambda x: x.T * 2, [_t((2, 3), 17)], rtol=1e-3, atol=1e-6)
        grad_check(lambda x: x.transpose((2, 0, 1)).sum(axis=0), [_t((2, 3, 4), 18)], rtol=1e-3, atol=1e-6)

    def test_getitem_slice(self):
        grad_check(lambda x: x[1:, :2] * 3, [_t((3, 3), 19)], rtol=1e-3, atol=1e-6)

    def test_getitem_fancy_index_accumulates(self):
        x = Tensor(np.arange(4, dtype=np.float64), requires_grad=True)
        y = x[np.array([0, 0, 2])]
        y.backward(np.ones(3))
        assert np.allclose(x.grad, [2, 0, 1, 0])

    def test_concatenate(self):
        a, b = _t((2, 3), 20), _t((1, 3), 21)
        grad_check(lambda a, b: Tensor.concatenate([a, b], axis=0) * 2, [a, b], rtol=1e-3, atol=1e-6)

    def test_astype_roundtrip_gradient(self):
        x = _t((4,), 22)
        out = x.astype(np.float64) * 2
        out.backward(np.ones(4))
        assert np.allclose(x.grad, 2.0)
