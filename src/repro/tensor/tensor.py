"""Reverse-mode autodiff tensor.

The design follows the classic tape-based approach: every operation that
produces a :class:`Tensor` from other tensors records its parents and a
closure that maps the output gradient to parent gradients. ``backward()``
topologically sorts the recorded graph and accumulates gradients.

All numerical work is vectorised numpy; the tape only stores O(#ops) Python
objects per forward pass, which is cheap relative to the ndarray math. The
engine supports full numpy broadcasting — gradients are "unbroadcast"
(summed) back to each parent's shape.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.obs import profile as _profile

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the ``with`` block (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autodiff graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An ndarray with an optional autodiff tape.

    Parameters
    ----------
    data:
        Anything convertible to ``np.ndarray``. Floating data defaults to
        float32 (the precision the paper's fault model operates on).
    requires_grad:
        Record operations involving this tensor so ``backward()`` can compute
        ``.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(
        self,
        data: np.ndarray | float | int | Sequence,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward_fn: Callable[[np.ndarray], None] | None = None,
        _op: str = "",
    ) -> None:
        arr = np.asarray(data)
        if arr.dtype == np.float64 and not isinstance(data, (np.ndarray, np.generic)):
            # Python floats/lists default to float32 (the precision the fault
            # model operates on); numpy inputs keep their dtype, so interior
            # op results and explicit float64 tensors are never downcast.
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward_fn = _backward_fn
        self._op = _op

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        out_data = self.data.astype(dtype)
        out = Tensor(out_data, requires_grad=self.requires_grad, _parents=(self,), _op="astype")
        if out.requires_grad:
            src_dtype = self.data.dtype

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad.astype(src_dtype))

            out._backward_fn = _backward
        return out

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph machinery
    # ------------------------------------------------------------------ #

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first touch)."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward_fn: Callable[[np.ndarray], None],
        op: str,
        flops: float | None = None,
    ) -> "Tensor":
        """Create an interior node, honouring the global grad switch.

        Every tensor op funnels through here, making it the engine's
        profiling chokepoint: with a profiler attached the op's call
        count, FLOP estimate (``flops`` overrides the generic estimator
        for ops like conv2d whose cost the output shape alone cannot
        determine), and allocated bytes are recorded, and the backward
        closure is wrapped so tape replay bills per-layer backward time.
        With no profiler attached this costs one ``is None`` check.
        """
        profiler = _profile.ACTIVE
        if profiler is not None:
            profiler.record_tensor_op(op, data, parents, flops=flops)
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            if profiler is not None:
                backward_fn = profiler.wrap_backward(op, backward_fn)
            out._parents = parents
            out._backward_fn = backward_fn
            out._op = op
        return out

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (for scalar losses simply ``1.0``).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                )

        # Iterative topological sort (recursion would overflow on deep nets).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        if type(other) in (bool, int, float):
            # Python scalars are weak (NEP 50): they take this tensor's dtype,
            # so a float32 activation plus ``eps`` stays float32.
            return Tensor(np.asarray(other, dtype=np.result_type(self.data, other)))
        return Tensor(np.asarray(other))

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), _backward, "add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(-grad, other.shape))

        return Tensor._make(out_data, (self, other), _backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), _backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data * other.data), other.shape)
            )

        return Tensor._make(out_data, (self, other), _backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __neg__(self) -> "Tensor":
        def _backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), _backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        out_data = self.data**exponent

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), _backward, "pow")

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    g = np.outer(grad, other.data) if grad.ndim == 1 else np.einsum(
                        "...i,j->...ij", grad, other.data
                    )
                    self._accumulate(_unbroadcast(g.reshape(self.shape) if g.shape != self.shape else g, self.shape))
                else:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    g = np.outer(self.data, grad) if grad.ndim == 1 else np.einsum(
                        "i,...j->...ij", self.data, grad
                    )
                    other._accumulate(_unbroadcast(g.reshape(other.shape) if g.shape != other.shape else g, other.shape))
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(out_data, (self, other), _backward, "matmul")

    # ------------------------------------------------------------------ #
    # elementwise nonlinearities
    # ------------------------------------------------------------------ #

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), _backward, "exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), _backward, "log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), _backward, "sqrt")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data * out_data))

        return Tensor._make(out_data, (self,), _backward, "tanh")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), _backward, "sigmoid")

    def relu(self) -> "Tensor":
        data = self.data
        mask = data > 0
        if data.dtype.kind in "biuf" and data.dtype.isnative and data.itemsize in (1, 2, 4, 8):
            # Branch-free select: the bits times 0 or 1 as a same-width
            # integer. Same bits as np.where(mask, x, 0) (NaN and -0.0 give
            # +0.0), same strides, no FP flags, several times faster.
            out_data = np.multiply(data.view(f"i{data.itemsize}"), mask).view(data.dtype)
        else:
            out_data = np.where(mask, data, data.dtype.type(0))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), _backward, "relu")

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, negative_slope * self.data).astype(self.data.dtype, copy=False)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.where(mask, 1.0, negative_slope).astype(grad.dtype))

        return Tensor._make(out_data, (self,), _backward, "leaky_relu")

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), _backward, "abs")

    def clip(self, lo: float, hi: float) -> "Tensor":
        out_data = np.clip(self.data, lo, hi)
        mask = (self.data >= lo) & (self.data <= hi)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), _backward, "clip")

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def _backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                g = np.expand_dims(g, axes)
            self._accumulate(np.broadcast_to(g, self.shape).astype(self.data.dtype))

        return Tensor._make(out_data, (self,), _backward, "sum")

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a] for a in axes]))

        def _backward(grad: np.ndarray) -> None:
            g = grad / count
            if axis is not None and not keepdims:
                axes_ = (axis,) if isinstance(axis, int) else tuple(axis)
                g = np.expand_dims(g, axes_)
            self._accumulate(np.broadcast_to(g, self.shape).astype(self.data.dtype))

        return Tensor._make(out_data, (self,), _backward, "mean")

    def var(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable via composition."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        sq = centered * centered
        return sq.mean(axis=axis, keepdims=keepdims)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def _backward(grad: np.ndarray) -> None:
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                out = np.expand_dims(out, axis)
            mask = self.data == out
            # Split gradient evenly among ties (matches subgradient convention).
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate((mask * g / counts).astype(self.data.dtype))

        return Tensor._make(out_data, (self,), _backward, "max")

    # ------------------------------------------------------------------ #
    # shape ops
    # ------------------------------------------------------------------ #

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        src_shape = self.shape

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(src_shape))

        return Tensor._make(out_data, (self,), _backward, "reshape")

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        out_data = self.data.transpose(axes)
        if axes is None:
            inverse = None
        else:
            inverse = tuple(np.argsort(axes))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), _backward, "transpose")

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]

        def _backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, idx, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), _backward, "getitem")

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = tuple(tensors)
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def _backward(grad: np.ndarray) -> None:
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                sl = [slice(None)] * grad.ndim
                sl[axis] = slice(start, stop)
                t._accumulate(grad[tuple(sl)])

        return Tensor._make(out_data, tensors, _backward, "concat")

    # ------------------------------------------------------------------ #
    # comparisons (non-differentiable; return plain ndarrays)
    # ------------------------------------------------------------------ #

    def argmax(self, axis: int | None = None) -> np.ndarray:
        return self.data.argmax(axis=axis)

    def __eq__(self, other) -> np.ndarray:  # type: ignore[override]
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data == other_data

    def __ne__(self, other) -> np.ndarray:  # type: ignore[override]
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data != other_data

    def __hash__(self) -> int:
        return id(self)
