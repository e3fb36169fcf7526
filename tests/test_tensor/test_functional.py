"""Tests for conv/pool/pad/softmax primitives: values and gradients."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    avg_pool2d,
    conv2d,
    global_avg_pool2d,
    log_softmax,
    max_pool2d,
    pad2d,
    softmax,
)
from repro.tensor.functional import im2col_indices, zero_pad2d

from .gradcheck import grad_check


def _t(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


def _reference_conv2d(x, w, b, stride, padding):
    """Naive loop convolution for value verification."""
    n, c, h, wid = x.shape
    oc, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wid + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for bi in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[bi, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[bi, o, i, j] = (patch * w[o]).sum() + (b[o] if b is not None else 0.0)
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_matches_reference(self, stride, padding):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        want = _reference_conv2d(x, w, b, stride, padding)
        assert got.shape == want.shape
        assert np.allclose(got.data, want, atol=1e-4)

    def test_no_bias(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        got = conv2d(Tensor(x), Tensor(w), None, stride=1, padding=0)
        want = _reference_conv2d(x, w, None, 1, 0)
        assert np.allclose(got.data, want, atol=1e-4)

    def test_gradients(self):
        x, w, b = _t((2, 2, 5, 5), 1), _t((3, 2, 3, 3), 2), _t((3,), 3)
        grad_check(lambda x, w, b: conv2d(x, w, b, stride=2, padding=1), [x, w, b], rtol=1e-3, atol=1e-5)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channels"):
            conv2d(_t((1, 3, 5, 5)), _t((2, 4, 3, 3)))

    def test_kernel_too_large_raises(self):
        with pytest.raises(ValueError, match="larger than"):
            conv2d(_t((1, 1, 2, 2)), _t((1, 1, 5, 5)))


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), 2)
        assert np.array_equal(out.data.reshape(2, 2), [[5, 7], [13, 15]])

    def test_avg_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = avg_pool2d(Tensor(x), 2)
        assert np.allclose(out.data.reshape(2, 2), [[2.5, 4.5], [10.5, 12.5]])

    def test_strided_max_pool_shape(self):
        out = max_pool2d(_t((2, 3, 8, 8)), kernel_size=3, stride=2)
        assert out.shape == (2, 3, 3, 3)

    def test_max_pool_gradient(self):
        grad_check(lambda x: max_pool2d(x, 2), [_t((2, 2, 4, 4), 5)], rtol=1e-3, atol=1e-5)

    def test_avg_pool_gradient(self):
        grad_check(lambda x: avg_pool2d(x, 2), [_t((2, 2, 4, 4), 6)], rtol=1e-3, atol=1e-5)

    def test_global_avg_pool(self):
        x = _t((2, 3, 4, 4), 7)
        out = global_avg_pool2d(x)
        assert out.shape == (2, 3)
        assert np.allclose(out.data, x.data.mean(axis=(2, 3)))


class TestPad:
    def test_pad_values_and_gradient(self):
        x = _t((1, 1, 2, 2), 8)
        out = pad2d(x, 1)
        assert out.shape == (1, 1, 4, 4)
        assert out.data[0, 0, 0, 0] == 0.0
        grad_check(lambda x: pad2d(x, 2) * 3, [x], rtol=1e-3, atol=1e-6)

    def test_pad_zero_is_identity(self):
        x = _t((1, 1, 3, 3), 9)
        assert pad2d(x, 0) is x

    @pytest.mark.parametrize("dtype,uint", [(np.float32, np.uint32), (np.float64, np.uint64)])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("shape", [(2, 3, 4, 5), (3, 2, 3, 4, 4)], ids=["nchw", "stacked"])
    def test_zero_pad_matches_np_pad_bitwise(self, shape, padding, dtype, uint):
        data = np.random.default_rng(11).normal(size=shape).astype(dtype)
        bits = data.reshape(-1).view(uint)
        bits[0] = np.asarray(-0.0, dtype=dtype).view(uint)
        # quiet and signalling NaNs with distinct payloads, both signs
        exponent = np.asarray(np.inf, dtype=dtype).view(uint)
        sign = np.asarray(-0.0, dtype=dtype).view(uint)
        bits[1] = exponent | uint(1)
        bits[2] = sign | exponent | uint(0b1011)
        bits[3] = np.asarray(np.nan, dtype=dtype).view(uint) | uint(7)
        spatial = ((0, 0),) * (data.ndim - 2) + ((padding, padding),) * 2
        expected = np.pad(data, spatial)
        out = zero_pad2d(data, padding)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert np.array_equal(out.view(uint), expected.view(uint))


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        out = softmax(_t((4, 6), 10))
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_log_softmax_consistent_with_softmax(self):
        x = _t((3, 5), 11)
        assert np.allclose(np.exp(log_softmax(x).data), softmax(x).data, atol=1e-6)

    def test_shift_invariance(self):
        x = np.random.default_rng(12).normal(size=(2, 4))
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 1000.0)).data
        assert np.allclose(a, b, atol=1e-6)

    def test_numerical_stability_extreme_logits(self):
        x = Tensor(np.array([[1e4, -1e4, 0.0]]))
        out = log_softmax(x)
        assert np.isfinite(out.data).all()

    def test_gradients(self):
        grad_check(lambda x: softmax(x) * Tensor(np.arange(8, dtype=np.float64).reshape(2, 4)), [_t((2, 4), 13)], rtol=1e-3, atol=1e-6)
        grad_check(lambda x: log_softmax(x)[np.arange(2), np.array([0, 2])], [_t((2, 4), 14)], rtol=1e-3, atol=1e-6)


class TestIm2Col:
    def test_output_dims(self):
        k, i, j, oh, ow = im2col_indices((1, 2, 5, 5), 3, 3, 1, 1)
        assert oh == ow == 5
        assert k.shape == (2 * 9, 1)
        assert i.shape == (2 * 9, 25)

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            im2col_indices((1, 1, 2, 2), 5, 5, 1, 0)
