"""Finite-difference gradient verification.

Used by the tensor tests to validate every op in the autodiff engine. Checks
are run in float64: float32 round-off would swamp the central-difference
error and produce false failures.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["grad_check", "numerical_gradient"]


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    index: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs))`` w.r.t. ``inputs[index]``."""
    target = inputs[index]
    grad = np.zeros_like(target.data, dtype=np.float64)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(fn(*inputs).data.sum())
        flat[i] = original - eps
        minus = float(fn(*inputs).data.sum())
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def grad_check(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    rtol: float = 1e-4,
    atol: float = 1e-6,
    eps: float = 1e-6,
) -> bool:
    """Verify analytic gradients of ``fn`` against central differences.

    ``fn`` must accept the tensors in ``inputs`` and return a single tensor;
    the implicit loss is the sum of that output. Inputs must be float64 with
    ``requires_grad=True``. Raises ``AssertionError`` with a diagnostic on
    mismatch; returns ``True`` otherwise.
    """
    for idx, t in enumerate(inputs):
        if t.data.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 inputs; input {idx} is {t.data.dtype}")
        if not t.requires_grad:
            raise ValueError(f"input {idx} must have requires_grad=True")
        t.zero_grad()

    out = fn(*inputs)
    out.backward(np.ones_like(out.data))

    for idx, t in enumerate(inputs):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numerical_gradient(fn, inputs, idx, eps=eps)
        if not np.allclose(analytic, numeric, rtol=rtol, atol=atol):
            worst = np.abs(analytic - numeric).max()
            raise AssertionError(
                f"gradient mismatch on input {idx}: max abs diff {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True
