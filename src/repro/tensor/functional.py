"""Convolution, pooling, padding, and softmax primitives.

Convolution is implemented with the im2col transformation: each receptive
field is flattened into a row, so the convolution becomes one large matrix
multiply. That keeps both the forward pass and the gradient fully
vectorised, which matters because BDLFI campaigns run thousands of forward
passes per probability point.

Gather layout. Every forward patch matrix (``conv2d``, max and average
pooling) is one ``np.take`` through a cached flat index
(:meth:`Window.gather`). The index addresses one image flattened to
``C*H*W`` values plus a trailing ``+0.0``; padding positions point at
that zero, so the padding is folded into the gather and no padded copy
is made (with ``padding == 0`` the take reads the images directly). The
index is kept in two orders:

* positions-major ``(positions, features)``: the take yields
  ``(batch, positions, features)``, and ``conv2d`` hands einsum its
  ``(batch, features, positions)`` transposed view. einsum lowers
  ``of,bfp->bop`` to one GEMM on that operand reshaped to
  ``(batch*positions, features)``, and in this layout the reshape is free;
  :func:`conv2d_forward` makes that GEMM call itself.
* features-major ``(features, positions)``: the take reads the images
  transposed and yields ``(features, positions, rows)``, the layout of
  the indexed gather ``x_padded[:, k, i, j]`` with the rows innermost.
  The pooling ops use it with rows ``batch*channels`` (the ``C = 1``
  case). With one image or one output position it is also ``conv2d``'s
  ``(features, batch, positions)`` operand, whose einsum reshape is
  again a view.

Either way the take copies exactly the bytes the indexed gather did (NaN
payloads and ``-0.0`` included) into the layout each einsum call and
reduction already had, so GEMM calls and outputs are bit-identical to
it. The weight gradient contracts over ``(batch, positions)`` and gets a
features-major copy; the backward scatter keeps :func:`im2col_indices`
and its ``np.add.at`` order.

Layout convention: images are NCHW (batch, channels, height, width) —
the layout the paper's ResNet-18 uses.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = [
    "zero_pad2d",
    "pad2d",
    "conv2d",
    "conv2d_forward",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "softmax",
    "log_softmax",
    "im2col_indices",
    "im2col_window",
    "Window",
]


#: window-geometry cache — a :class:`Window` depends only on the key below,
#: not on the batch size or data, so every forward pass of a fixed
#: architecture hits after the first. Bounded FIFO; the index arrays are
#: marked read-only since they are shared across callers.
_IM2COL_CACHE: dict[tuple[int, int, int, int, int, int, int], Window] = {}
_IM2COL_CACHE_LIMIT = 128


class Window:
    """The gather indices of one window geometry over ``(C, H, W)`` images.

    ``k, i, j`` index channel, row and column of the padded image, each
    broadcast to ``(C*kh*kw, out_h*out_w)``; the backward scatters use
    them. The flat forward indices are built from them on first use.
    """

    def __init__(
        self, channels: int, height: int, width: int, kh: int, kw: int, stride: int, padding: int
    ) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")
        out_h = (height + 2 * padding - kh) // stride + 1
        out_w = (width + 2 * padding - kw) // stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(
                f"kernel ({kh}x{kw}, stride={stride}, padding={padding}) larger than "
                f"padded input ({height}x{width})"
            )
        i0 = np.tile(np.repeat(np.arange(kh), kw), channels)
        i1 = stride * np.repeat(np.arange(out_h), out_w)
        j0 = np.tile(np.arange(kw), kh * channels)
        j1 = stride * np.tile(np.arange(out_w), out_h)
        self.i = i0.reshape(-1, 1) + i1.reshape(1, -1)
        self.j = j0.reshape(-1, 1) + j1.reshape(1, -1)
        self.k = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
        for index in (self.k, self.i, self.j):
            index.flags.writeable = False
        self.image_shape = (channels, height, width)
        self.padding = padding
        self.out_h, self.out_w = out_h, out_w
        self._flat: dict[bool, np.ndarray] = {}

    def _flat_index(self, features_major: bool) -> np.ndarray:
        """Flat gather index into one image's ``C*H*W`` values plus one ``+0.0``.

        Padding positions hold ``C*H*W``, the trailing zero. Shape
        ``(C*kh*kw, P)`` features-major, else its C-contiguous transpose
        ``(P, C*kh*kw)``; built on first request of each order, read-only.
        """
        index = self._flat.get(features_major)
        if index is None:
            channels, height, width = self.image_shape
            rows, cols = self.i - self.padding, self.j - self.padding
            inside = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
            index = np.where(inside, (self.k * height + rows) * width + cols, channels * height * width)
            index = np.ascontiguousarray(index if features_major else index.T, dtype=np.intp)
            index.flags.writeable = False
            self._flat[features_major] = index
        return index

    def gather(self, data: np.ndarray, features_major: bool) -> np.ndarray:
        """Patch matrix of a stack of ``(C, H, W)`` images by one ``np.take``.

        ``data`` holds ``rows`` whole images in C order (``(..., C, H, W)``,
        or NCHW channels as ``C = 1`` images). Returns a C-contiguous
        ``(C*kh*kw, P, rows)`` array features-major, else
        ``(rows, P, C*kh*kw)``; see the module docstring.
        """
        channels, height, width = self.image_shape
        size = channels * height * width
        images = data.reshape(-1, size)
        if features_major or self.padding:
            # One copy of the images, transposed for the features-major
            # take; with padding each image ends in the zero the index
            # points at.
            rows, columns = len(images), size + (1 if self.padding else 0)
            source = np.empty((columns, rows) if features_major else (rows, columns), dtype=data.dtype)
            view = source.T if features_major else source
            view[:, :size] = images
            view[:, size:] = 0
            images = source
        # The index is in range by construction; "wrap" is numpy's fastest
        # take loop and never wraps here.
        return np.take(images, self._flat_index(features_major), axis=0 if features_major else 1, mode="wrap")


def im2col_window(x_shape: tuple[int, ...], kh: int, kw: int, stride: int, padding: int) -> Window:
    """The cached :class:`Window` for images of shape ``x_shape[-3:]``.

    Leading axes (the batch) do not enter the geometry. Raises
    ``ValueError`` for ``stride < 1``, ``padding < 0`` or a kernel larger
    than the padded input.
    """
    key = (*x_shape[-3:], kh, kw, stride, padding)
    window = _IM2COL_CACHE.get(key)
    if window is None:
        window = Window(*key)
        if len(_IM2COL_CACHE) >= _IM2COL_CACHE_LIMIT:
            _IM2COL_CACHE.pop(next(iter(_IM2COL_CACHE)))
        _IM2COL_CACHE[key] = window
    return window


def im2col_indices(
    x_shape: tuple[int, int, int, int], kh: int, kw: int, stride: int, padding: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Compute the gather indices that turn an NCHW image into patch rows.

    Returns ``(k, i, j, out_h, out_w)`` of the cached :func:`im2col_window`
    (batch size is irrelevant), so the index arrays are shared and
    read-only.
    """
    window = im2col_window(x_shape, kh, kw, stride, padding)
    return window.k, window.i, window.j, window.out_h, window.out_w


def zero_pad2d(data: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the last two axes of ``data`` by ``padding`` on every side.

    Writes the same bytes as ``np.pad`` with its default constant mode
    (the interior is copied bit-for-bit, NaN payloads and ``-0.0``
    included), at a fraction of its per-call overhead: one ``np.zeros`` of
    the padded shape and one slice assignment. ``padding == 0`` returns
    ``data`` itself.
    """
    if padding == 0:
        return data
    *lead, height, width = data.shape
    out = np.zeros((*lead, height + 2 * padding, width + 2 * padding), dtype=data.dtype)
    out[..., padding:-padding, padding:-padding] = data
    return out


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the last two (spatial) axes of an NCHW tensor."""
    if padding == 0:
        return x
    out_data = zero_pad2d(x.data, padding)

    def _backward(grad: np.ndarray) -> None:
        x._accumulate(grad[:, :, padding:-padding, padding:-padding])

    return Tensor._make(out_data, (x,), _backward, "pad2d")


def conv2d_forward(
    x: np.ndarray, weights: np.ndarray, biases: np.ndarray | None, stride: int, padding: int
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """The ndarray kernel of :func:`conv2d`'s forward, over a stack of ``k`` weights.

    ``weights`` is ``(k, out_channels, in_channels, kh, kw)`` and
    ``biases`` ``(k, out_channels)`` or ``None``. ``x`` is one NCHW input
    shared by every row, gathered once, or a ``(k, batch, C, H, W)``
    stack of one input per row, gathered one row at a time (and released
    before the next). Returns the ``k`` NCHW outputs, one per row, and
    ``cols``: the shared input's ``(batch, C*kh*kw, P)`` patch matrix,
    which the weight gradient reuses, or ``None`` for per-row inputs.

    Each row runs the one GEMM ``np.einsum("of,bfp->bop", w, cols,
    optimize=True)`` runs, and its output keeps that call's memory layout
    (a biased output stays channels-last), so :func:`conv2d`, the ``k = 1``
    call, and every faulted row of the segment engine match the einsum
    kernel bit for bit downstream too. When no dimension among
    out-channels O, features F, images B and positions P is 1, einsum
    lowers the contraction (as ``bfp,of->bop``) to ``matmul`` of the
    ``(B*P, F)`` patch rows by the ``(F, O)`` transposed weight, read back
    as ``(B, O, P)``; that call is made directly, without einsum's parse
    per row. einsum drops unit dimensions and then contracts differently
    (a matrix-vector product, or a plain multiply when F = 1), so those
    shapes keep the einsum call.
    """
    in_c, w_in_c = x.shape[-3], weights.shape[2]
    if in_c != w_in_c:
        raise ValueError(f"input has {in_c} channels but weight expects {w_in_c}")

    kh, kw = weights.shape[-2:]
    window = im2col_window(x.shape, kh, kw, stride, padding)
    cols = _conv_cols(window, x) if x.ndim == 4 else None
    outs = [
        _conv_row(
            window,
            _conv_cols(window, x[row]) if cols is None else cols,
            weights[row],
            None if biases is None else biases[row],
        )
        for row in range(len(weights))
    ]
    return outs, cols


def _conv_row(window: Window, cols: np.ndarray, weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """One NCHW output: ``weight`` over the ``(B, F, P)`` patch matrix ``cols``, plus ``bias``."""
    batch, features, positions = cols.shape
    out_c = weight.shape[0]
    w_mat = weight.reshape(out_c, features)
    if min(out_c, features, batch, positions) > 1:
        # cols.transpose(0, 2, 1) is the C-contiguous (B, P, F) take, so
        # the (B*P, F) reshape is the view einsum hands matmul
        patch_rows = cols.transpose(0, 2, 1).reshape(batch * positions, features)
        out = np.matmul(patch_rows, w_mat.T).reshape(batch, positions, out_c).transpose(0, 2, 1)
    else:
        out = np.einsum("of,bfp->bop", w_mat, cols, optimize=True)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1)
    return out.reshape(batch, out_c, window.out_h, window.out_w)


def _conv_cols(window: Window, x: np.ndarray) -> np.ndarray:
    """``(batch, C*kh*kw, P)`` patch matrix of the NCHW ``x``: a transposed
    view of one contiguous take (see the module docstring for the two orders)."""
    batch = x.shape[0]
    positions = window.out_h * window.out_w
    if batch == 1 or positions == 1:
        patches = window.gather(x, features_major=True)
        return patches.reshape(-1, batch, positions).transpose(1, 0, 2)
    return window.gather(x, features_major=False).transpose(0, 2, 1)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) over an NCHW input.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)`` and ``bias``
    (optional) shape ``(out_channels,)``.
    """
    biases = None if bias is None else bias.data[None]
    outs, cols = conv2d_forward(x.data, weight.data[None], biases, stride, padding)
    out_data = outs[0]
    batch, in_c, height, width = x.shape
    out_c, _, kh, kw = weight.shape
    w_mat = weight.data.reshape(out_c, -1)
    padded_shape = (batch, in_c, height + 2 * padding, width + 2 * padding)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def _backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(batch, out_c, -1)  # (batch, out_c, P)
        if weight.requires_grad:
            # einsum contracts over (b, p) on cols laid out as (f, b*p); hand
            # it that layout C-contiguous, as the indexed gather's copy was,
            # so the GEMM call and the gradient bits do not change.
            cols_fbp = np.ascontiguousarray(cols.transpose(1, 0, 2)).transpose(1, 0, 2)
            gw = np.einsum("bop,bfp->of", grad_mat, cols_fbp, optimize=True)
            weight._accumulate(gw.reshape(weight.shape).astype(weight.dtype))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=(0, 2)).astype(bias.dtype))
        if x.requires_grad:
            window = im2col_window(x.shape, kh, kw, stride, padding)
            gcols = np.einsum("of,bop->bfp", w_mat, grad_mat, optimize=True)
            gx_padded = np.zeros(padded_shape, dtype=x.dtype)
            # Scatter-add patch gradients back into the padded image.
            np.add.at(gx_padded, (slice(None), window.k, window.i, window.j), gcols)
            x._accumulate(gx_padded[:, :, padding : padding + height, padding : padding + width])

    # Exact multiply-add cost for the profiler: the output shape alone
    # cannot recover the receptive-field size, so pass it explicitly.
    conv_flops = 2.0 * out_data.size * (in_c * kh * kw)
    return Tensor._make(out_data, parents, _backward, "conv2d", flops=conv_flops)


def _pool_cols(x: Tensor, kernel_size: int, stride: int | None) -> tuple[Window, np.ndarray]:
    """Pooling windows of every channel: the features-major take with ``C = 1``.

    Returns the window and ``cols``, a ``(B*C, k*k, P)`` view with the rows
    innermost in memory. ``stride=None`` means ``kernel_size``.
    """
    _, _, height, width = x.shape
    stride = kernel_size if stride is None else stride
    window = im2col_window((1, height, width), kernel_size, kernel_size, stride, 0)
    return window, window.gather(x.data, features_major=True).transpose(2, 0, 1)


def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows of an NCHW tensor."""
    batch, channels, height, width = x.shape
    window, cols = _pool_cols(x, kernel_size, stride)
    arg = cols.argmax(axis=1)  # (B*C, P)
    out = np.take_along_axis(cols, arg[:, None, :], axis=1)[:, 0, :]
    out_data = out.reshape(batch, channels, window.out_h, window.out_w)

    def _backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(batch * channels, -1)  # (B*C, P)
        gcols = np.zeros_like(cols)
        np.put_along_axis(gcols, arg[:, None, :], grad_flat[:, None, :], axis=1)
        gx = np.zeros((batch * channels, 1, height, width), dtype=x.dtype)
        np.add.at(gx, (slice(None), window.k, window.i, window.j), gcols)
        x._accumulate(gx.reshape(x.shape))

    return Tensor._make(
        out_data, (x,), _backward, "max_pool2d", flops=float(out_data.size) * kernel_size * kernel_size
    )


def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Average pooling over windows of an NCHW tensor."""
    batch, channels, height, width = x.shape
    window, cols = _pool_cols(x, kernel_size, stride)
    out = cols.mean(axis=1)
    out_data = out.reshape(batch, channels, window.out_h, window.out_w)
    area = kernel_size * kernel_size

    def _backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(batch * channels, 1, -1) / area
        gcols = np.broadcast_to(grad_flat, cols.shape)
        gx = np.zeros((batch * channels, 1, height, width), dtype=x.dtype)
        np.add.at(gx, (slice(None), window.k, window.i, window.j), gcols)
        x._accumulate(gx.reshape(x.shape))

    return Tensor._make(
        out_data, (x,), _backward, "avg_pool2d", flops=float(out_data.size) * kernel_size * kernel_size
    )


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions: NCHW → NC.

    The input is made C-contiguous before reducing: numpy's pairwise
    summation visits elements in memory order, so the mean's low-order bits
    would otherwise depend on the (implementation-defined) stride layout
    the upstream einsum happened to produce — and the batched fast path
    must reproduce the standard path bit-for-bit.
    """
    if not x.data.flags["C_CONTIGUOUS"]:
        x = _as_contiguous(x)
    return x.mean(axis=(2, 3))


def _as_contiguous(x: Tensor) -> Tensor:
    """C-ordered copy of ``x`` as a tape-preserving identity op."""
    out_data = np.ascontiguousarray(x.data)

    def _backward(grad: np.ndarray) -> None:
        x._accumulate(grad)

    return Tensor._make(out_data, (x,), _backward, "contiguous")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def _backward(grad: np.ndarray) -> None:
        # dL/dx = s * (g - sum(g * s))
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate((out_data * (grad - dot)).astype(x.dtype))

    return Tensor._make(out_data, (x,), _backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    soft = np.exp(out_data)

    def _backward(grad: np.ndarray) -> None:
        x._accumulate((grad - soft * grad.sum(axis=axis, keepdims=True)).astype(x.dtype))

    return Tensor._make(out_data, (x,), _backward, "log_softmax")
