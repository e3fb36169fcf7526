"""Gradient correctness for every Tensor op, verified by finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestRectifierBits:
    """relu and leaky_relu return the values of ``np.where(...).astype(x.dtype)``
    without its second copy, at the uint level."""

    @staticmethod
    def _special(dtype, uint):
        values = np.array([1.5, -2.0, 0.0, -0.0, np.inf, -np.inf, np.nan, np.nan, np.nan, 3e-39], dtype=dtype)
        bits = values.view(uint)
        exponent = np.asarray(np.inf, dtype=dtype).view(uint)
        sign = np.asarray(-0.0, dtype=dtype).view(uint)
        bits[6] |= uint(7)  # quiet NaN with a payload
        bits[7] = exponent | uint(1)  # signalling NaN
        bits[8] = sign | exponent | uint(0b1011)  # negative NaN with a payload
        return values

    @pytest.mark.parametrize("dtype,uint", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_relu_matches_old_expression(self, dtype, uint):
        x = self._special(dtype, uint)
        with np.errstate(invalid="ignore"):
            want = np.where(x > 0, x, 0.0).astype(x.dtype)
            got = Tensor(x).relu().data
        assert got.dtype == x.dtype and np.array_equal(got.view(uint), want.view(uint))

    @pytest.mark.parametrize("dtype,uint", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_leaky_relu_matches_old_expression(self, dtype, uint):
        x = self._special(dtype, uint)
        with np.errstate(invalid="ignore"):
            want = np.where(x > 0, x, 0.1 * x).astype(x.dtype)
            got = Tensor(x).leaky_relu(0.1).data
        assert got.dtype == x.dtype and np.array_equal(got.view(uint), want.view(uint))

    def test_integer_relu_keeps_dtype(self):
        out = Tensor(np.array([-3, 0, 4], dtype=np.int32)).relu().data
        assert out.dtype == np.int32 and out.tolist() == [0, 0, 4]

    @staticmethod
    def _reference(x):
        return np.where(x > 0, x, x.dtype.type(0))

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([(np.float32, np.uint32, 32), (np.float64, np.uint64, 64)]),
        st.lists(st.integers(min_value=0), min_size=1, max_size=24),
    )
    def test_relu_on_raw_bit_patterns(self, kind, patterns):
        dtype, uint, width = kind
        x = np.array([bits % (1 << width) for bits in patterns], dtype=uint).view(dtype)
        got = Tensor(x).relu().data
        want = self._reference(x)
        assert got.dtype == dtype and np.array_equal(got.view(uint), want.view(uint))

    @pytest.mark.parametrize(
        "view",
        [
            lambda a: a.T,
            lambda a: a.transpose(2, 0, 1),
            lambda a: a[:, ::2, 1::3],
            lambda a: a[::-1, :, ::-2],
            lambda a: np.broadcast_to(a[:1], a.shape),
        ],
        ids=["transposed", "axes-permuted", "strided", "reversed", "broadcast"],
    )
    def test_relu_layout_matches_where(self, view):
        base = np.random.default_rng(4).normal(size=(4, 6, 10)).astype(np.float32)
        base[0, 0, :3] = (-0.0, np.nan, np.inf)
        x = view(base)
        got = Tensor(x).relu().data
        want = self._reference(x)
        assert got.strides == want.strides
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("dtype", [np.float16, np.int8, np.uint8, np.int64])
    def test_relu_other_dtypes(self, dtype):
        info = np.finfo(dtype) if np.issubdtype(dtype, np.floating) else np.iinfo(dtype)
        values = np.array([info.min, 0, 1, info.max], dtype=dtype)
        x = values.reshape(1, 4).repeat(3, axis=0)[:, ::-1]
        got = Tensor(x).relu().data
        want = self._reference(x)
        assert got.dtype == dtype and got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype,uint", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_relu_raises_no_fp_exception(self, dtype, uint):
        x = self._special(dtype, uint)
        with np.errstate(all="raise"):
            got = Tensor(x).relu().data
        assert np.array_equal(got.view(uint), self._reference(x).view(uint))

    def test_relu_gradient_masks_by_sign(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0, np.nan], dtype=np.float32), requires_grad=True)
        x.relu().sum().backward()
        assert x.grad.tolist() == [0.0, 0.0, 1.0, 0.0]


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
