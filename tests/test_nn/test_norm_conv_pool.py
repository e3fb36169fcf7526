"""BatchNorm, Conv2d, pooling layers."""

import numpy as np
import pytest

from repro.nn import AvgPool2d, BatchNorm1d, BatchNorm2d, Conv2d, GlobalAvgPool2d, MaxPool2d
from repro.tensor import Tensor


class TestBatchNorm:
    def test_train_mode_normalises_batch(self):
        bn = BatchNorm1d(4)
        x = Tensor(np.random.default_rng(0).normal(5.0, 3.0, size=(64, 4)).astype(np.float32))
        out = bn(x).data
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-4)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_move_toward_batch_stats(self):
        bn = BatchNorm1d(2, momentum=0.5)
        x = Tensor(np.full((16, 2), 10.0, dtype=np.float32))
        bn(x)
        assert np.allclose(bn.running_mean, 5.0)  # 0.5*0 + 0.5*10
        assert int(bn.num_batches_tracked) == 1

    def test_eval_mode_uses_running_stats(self):
        bn = BatchNorm1d(2)
        x = Tensor(np.random.default_rng(1).normal(size=(32, 2)).astype(np.float32))
        for _ in range(50):
            bn(x)
        bn.eval()
        single = Tensor(np.zeros((1, 2), dtype=np.float32))
        out = bn(single).data
        expected = (0.0 - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        assert np.allclose(out, expected.reshape(1, 2), atol=1e-5)

    def test_eval_is_deterministic(self):
        bn = BatchNorm2d(3).eval()
        x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 4, 4)).astype(np.float32))
        assert np.array_equal(bn(x).data, bn(x).data)

    def test_2d_reduces_over_spatial_axes(self):
        bn = BatchNorm2d(2)
        x = Tensor(np.random.default_rng(3).normal(3.0, 2.0, size=(8, 2, 5, 5)).astype(np.float32))
        out = bn(x).data
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)

    def test_gamma_beta_trainable(self):
        bn = BatchNorm1d(3)
        names = [n for n, _ in bn.named_parameters()]
        assert names == ["weight", "bias"]

    def test_wrong_rank_raises(self):
        with pytest.raises(ValueError, match="2-D"):
            BatchNorm1d(3)(Tensor(np.zeros((2, 3, 4), dtype=np.float32)))

    def test_wrong_channels_raises(self):
        with pytest.raises(ValueError, match="channels"):
            BatchNorm2d(3)(Tensor(np.zeros((1, 4, 2, 2), dtype=np.float32)))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BatchNorm1d(0)
        with pytest.raises(ValueError):
            BatchNorm1d(3, momentum=0.0)


class TestConvLayer:
    def test_shape_with_stride_padding(self):
        conv = Conv2d(3, 8, 3, stride=2, padding=1, rng=0)
        out = conv(Tensor(np.zeros((2, 3, 16, 16), dtype=np.float32)))
        assert out.shape == (2, 8, 8, 8)

    def test_parameter_names(self):
        conv = Conv2d(1, 2, 3, rng=0)
        assert [n for n, _ in conv.named_parameters()] == ["weight", "bias"]
        assert Conv2d(1, 2, 3, bias=False, rng=0).bias is None

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            Conv2d(0, 1, 3)
        with pytest.raises(ValueError):
            Conv2d(1, 1, 3, padding=-1)

    def test_gradients_reach_weight(self):
        conv = Conv2d(1, 1, 3, padding=1, rng=0)
        out = conv(Tensor(np.ones((1, 1, 4, 4), dtype=np.float32)))
        out.sum().backward()
        assert conv.weight.grad is not None
        assert conv.weight.grad.shape == conv.weight.shape


class TestPoolLayers:
    def test_max_pool_layer(self):
        out = MaxPool2d(2)(Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)))
        assert out.shape == (1, 1, 2, 2)

    def test_avg_pool_layer_custom_stride(self):
        out = AvgPool2d(2, stride=1)(Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)))
        assert out.shape == (1, 1, 3, 3)

    def test_global_avg_pool_layer(self):
        out = GlobalAvgPool2d()(Tensor(np.ones((2, 5, 3, 3), dtype=np.float32)))
        assert out.shape == (2, 5)
        assert np.allclose(out.data, 1.0)

    def test_invalid_kernel_raises(self):
        with pytest.raises(ValueError):
            MaxPool2d(0)

    @pytest.mark.parametrize("layer", [MaxPool2d, AvgPool2d])
    def test_zero_stride_is_not_kernel_size(self, layer):
        pool = layer(2, stride=0)
        assert pool.stride == 0 and layer(2).stride == 2
        with pytest.raises(ValueError, match="stride must be >= 1, got 0"):
            pool(Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)))
