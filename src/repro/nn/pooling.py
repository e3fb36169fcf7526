"""Pooling layers over NCHW feature maps."""

from __future__ import annotations

from repro.nn.module import Module
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d"]


class MaxPool2d(Module):
    """Max pooling with square windows."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError(f"kernel_size must be positive, got {kernel_size}")
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def extra_repr(self) -> str:
        return f"k={self.kernel_size}, s={self.stride}"


class AvgPool2d(Module):
    """Average pooling with square windows."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError(f"kernel_size must be positive, got {kernel_size}")
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)

    def extra_repr(self) -> str:
        return f"k={self.kernel_size}, s={self.stride}"


class GlobalAvgPool2d(Module):
    """Collapse each channel's spatial map to its mean: NCHW → NC.

    ResNet-18 uses this immediately before the final dense classifier.
    """

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)
