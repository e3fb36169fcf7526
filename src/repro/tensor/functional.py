"""Convolution, pooling, padding, and softmax primitives.

Convolution is implemented with the im2col transformation: each receptive
field is flattened into a row, so the convolution becomes one large matrix
multiply. That keeps both the forward pass and the gradient fully
vectorised, which matters because BDLFI campaigns run thousands of forward
passes per probability point.

Gather layout. ``conv2d`` builds its patch matrix from a strided
:func:`~numpy.lib.stride_tricks.sliding_window_view` with one contiguous
copy, laid out batch-major as ``(batch, positions, features)``, and hands
einsum a ``(batch, features, positions)`` transposed view of it. einsum
lowers ``of,bfp->bop`` to one GEMM on that operand reshaped to
``(batch*positions, features)``, and in this layout the reshape is free.
An indexed gather (``x_padded[:, k, i, j]``) returns the matrix with the
batch axis innermost in memory instead, so einsum had to copy it again on
every call: a second full pass over the largest array of the forward.
The layout is also the one that copy produced, so the GEMM call is
unchanged and outputs are bit-identical to the indexed gather. (With one
image or one output position einsum's reshape of the indexed gather was a
view, features-major, so that case copies features-major too.) The weight
gradient contracts over ``(batch, positions)`` and gets a features-major
copy, again as before. Pooling and the backward scatter keep the cached
:func:`im2col_indices`.

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
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "softmax",
    "log_softmax",
    "im2col_indices",
]


#: gather-index cache — the indices depend only on the geometry below, not
#: on the batch size or data, so every forward pass of a fixed architecture
#: hits after the first. Bounded FIFO; entries are marked read-only since
#: they are shared across callers.
_IM2COL_CACHE: dict[tuple[int, int, int, int, int, int, int], tuple] = {}
_IM2COL_CACHE_LIMIT = 128


def im2col_indices(
    x_shape: tuple[int, int, int, int], kh: int, kw: int, stride: int, padding: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Compute the gather indices that turn an NCHW image into patch rows.

    Returns ``(k, i, j, out_h, out_w)`` where ``k, i, j`` index channel, row
    and column respectively, each of shape ``(C*kh*kw, out_h*out_w)``.
    Results are cached on the geometry (batch size is irrelevant), so the
    returned index arrays are shared and read-only.
    """
    _, channels, height, width = x_shape
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}, stride={stride}, padding={padding}) larger than "
            f"padded input ({height}x{width})"
        )
    key = (channels, height, width, kh, kw, stride, padding)
    cached = _IM2COL_CACHE.get(key)
    if cached is not None:
        return cached

    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
    for index in (k, i, j):
        index.flags.writeable = False
    if len(_IM2COL_CACHE) >= _IM2COL_CACHE_LIMIT:
        _IM2COL_CACHE.pop(next(iter(_IM2COL_CACHE)))
    _IM2COL_CACHE[key] = (k, i, j, out_h, out_w)
    return k, i, j, out_h, out_w


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


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) over an NCHW input.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)`` and ``bias``
    (optional) shape ``(out_channels,)``.
    """
    batch, in_c, _, _ = x.shape
    out_c, w_in_c, kh, kw = weight.shape
    if in_c != w_in_c:
        raise ValueError(f"input has {in_c} channels but weight expects {w_in_c}")

    x_padded = zero_pad2d(x.data, padding)
    k, i, j, out_h, out_w = im2col_indices(x.shape, kh, kw, stride, padding)

    # cols: (batch, C*kh*kw, out_h*out_w), a transposed view of one
    # contiguous copy of the (B, C, out_h, out_w, kh, kw) window view; see
    # the module docstring for why the copy's order is the one below.
    windows = np.lib.stride_tricks.sliding_window_view(x_padded, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    positions = out_h * out_w
    if batch == 1 or positions == 1:
        patches = np.ascontiguousarray(windows.transpose(1, 4, 5, 0, 2, 3))
        cols = patches.reshape(-1, batch, positions).transpose(1, 0, 2)
    else:
        patches = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
        cols = patches.reshape(batch, positions, -1).transpose(0, 2, 1)
    w_mat = weight.data.reshape(out_c, -1)  # (out_c, C*kh*kw)
    out = np.einsum("of,bfp->bop", w_mat, cols, optimize=True)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1)
    out_data = out.reshape(batch, out_c, out_h, out_w)

    padded_shape = x_padded.shape
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
            gcols = np.einsum("of,bop->bfp", w_mat, grad_mat, optimize=True)
            gx_padded = np.zeros(padded_shape, dtype=x.dtype)
            # Scatter-add patch gradients back into the padded image.
            np.add.at(gx_padded, (slice(None), k, i, j), gcols)
            if padding:
                gx = gx_padded[:, :, padding:-padding, padding:-padding]
            else:
                gx = gx_padded
            x._accumulate(gx)

    # Exact multiply-add cost for the profiler: the output shape alone
    # cannot recover the receptive-field size, so pass it explicitly.
    conv_flops = 2.0 * out_data.size * (w_in_c * kh * kw)
    return Tensor._make(out_data, parents, _backward, "conv2d", flops=conv_flops)


def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows of an NCHW tensor."""
    stride = stride or kernel_size
    batch, channels, height, width = x.shape
    k, i, j, out_h, out_w = im2col_indices((batch, 1, height, width), kernel_size, kernel_size, stride, 0)

    # View each channel independently: (batch*channels, 1, H, W)
    flat = x.data.reshape(batch * channels, 1, height, width)
    cols = flat[:, k, i, j]  # (B*C, k*k, P)
    arg = cols.argmax(axis=1)  # (B*C, P)
    out = np.take_along_axis(cols, arg[:, None, :], axis=1)[:, 0, :]
    out_data = out.reshape(batch, channels, out_h, out_w)

    def _backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(batch * channels, -1)  # (B*C, P)
        gcols = np.zeros_like(cols)
        np.put_along_axis(gcols, arg[:, None, :], grad_flat[:, None, :], axis=1)
        gx = np.zeros((batch * channels, 1, height, width), dtype=x.dtype)
        np.add.at(gx, (slice(None), k, i, j), gcols)
        x._accumulate(gx.reshape(x.shape))

    return Tensor._make(
        out_data, (x,), _backward, "max_pool2d", flops=float(out_data.size) * kernel_size * kernel_size
    )


def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Average pooling over windows of an NCHW tensor."""
    stride = stride or kernel_size
    batch, channels, height, width = x.shape
    k, i, j, out_h, out_w = im2col_indices((batch, 1, height, width), kernel_size, kernel_size, stride, 0)

    flat = x.data.reshape(batch * channels, 1, height, width)
    cols = flat[:, k, i, j]
    out = cols.mean(axis=1)
    out_data = out.reshape(batch, channels, out_h, out_w)
    window = kernel_size * kernel_size

    def _backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(batch * channels, 1, -1) / window
        gcols = np.broadcast_to(grad_flat, cols.shape)
        gx = np.zeros((batch * channels, 1, height, width), dtype=x.dtype)
        np.add.at(gx, (slice(None), k, i, j), gcols)
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
