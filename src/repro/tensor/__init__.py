"""A small reverse-mode automatic-differentiation engine over numpy.

This is the substrate the paper's deep-learning stack runs on (the paper used
PyTorch; nothing in BDLFI depends on framework internals beyond a
differentiable forward pass, which this package provides).

Public surface:

* :class:`~repro.tensor.tensor.Tensor` — an ndarray wrapper that records the
  computation graph and supports ``backward()``.
* :mod:`~repro.tensor.functional` — convolution, pooling, padding, and the
  fused softmax/cross-entropy primitives used by :mod:`repro.nn`.
"""

from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor.functional import (
    conv2d,
    max_pool2d,
    avg_pool2d,
    global_avg_pool2d,
    pad2d,
    log_softmax,
    softmax,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "pad2d",
    "log_softmax",
    "softmax",
]
