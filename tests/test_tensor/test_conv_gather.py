"""conv2d's contiguous im2col gather is bit-identical to the indexed gather.

``conv2d`` builds its patch matrix from a strided window view copied once
in ``(features, batch, positions)`` order, so the GEMM operand needs no
further copy. :func:`_indexed_conv2d` keeps the fancy-index gather it
replaced (patch matrix with the batch axis innermost in memory). Forward
outputs and the x/w/b gradients must match it at the uint level: the
GEMM sees the same values in the same shape, so no bit may move.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor, conv2d
from repro.tensor.functional import im2col_indices


def _indexed_conv2d(x, weight, bias, stride, padding):
    """Reference: conv2d with the patch matrix gathered by ``x_padded[:, k, i, j]``."""
    batch = x.shape[0]
    out_c, _, kh, kw = weight.shape
    x_padded = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x.data
    k, i, j, out_h, out_w = im2col_indices(x.shape, kh, kw, stride, padding)
    cols = x_padded[:, k, i, j]
    w_mat = weight.data.reshape(out_c, -1)
    out = np.einsum("of,bfp->bop", w_mat, cols, optimize=True)
    out = out + bias.data.reshape(1, -1, 1)
    out_data = out.reshape(batch, out_c, out_h, out_w)
    padded_shape = x_padded.shape

    def _backward(grad):
        grad_mat = grad.reshape(batch, out_c, -1)
        gw = np.einsum("bop,bfp->of", grad_mat, cols, optimize=True)
        weight._accumulate(gw.reshape(weight.shape).astype(weight.dtype))
        bias._accumulate(grad_mat.sum(axis=(0, 2)).astype(bias.dtype))
        gcols = np.einsum("of,bop->bfp", w_mat, grad_mat, optimize=True)
        gx_padded = np.zeros(padded_shape, dtype=x.dtype)
        np.add.at(gx_padded, (slice(None), k, i, j), gcols)
        x._accumulate(gx_padded[:, :, padding:-padding, padding:-padding] if padding else gx_padded)

    return Tensor._make(out_data, (x, weight, bias), _backward, "conv2d")


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint8)


@st.composite
def conv_cases(draw):
    kernel = draw(st.sampled_from((1, 3)))
    padding = draw(st.integers(0, 2))
    # the padded input must hold at least one window
    size = st.integers(max(1, kernel - 2 * padding), 9)
    return {
        "batch": draw(st.integers(1, 4)),
        "in_c": draw(st.integers(1, 4)),
        "out_c": draw(st.integers(1, 4)),
        "height": draw(size),
        "width": draw(size),
        "kernel": kernel,
        "stride": draw(st.integers(1, 3)),
        "padding": padding,
        "dtype": draw(st.sampled_from((np.float32, np.float64))),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _run(conv, case, x, w, b, grad):
    xt, wt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
    out = conv(xt, wt, bt, case["stride"], case["padding"])
    out.backward(grad)
    return out.data, xt.grad, wt.grad, bt.grad


@settings(max_examples=150, deadline=None)
@given(conv_cases())
def test_gather_bit_identical_to_indexed_gather(case):
    rng = np.random.default_rng(case["seed"])
    dtype = case["dtype"]
    x = rng.normal(size=(case["batch"], case["in_c"], case["height"], case["width"])).astype(dtype)
    w = rng.normal(size=(case["out_c"], case["in_c"], case["kernel"], case["kernel"])).astype(dtype)
    b = rng.normal(size=case["out_c"]).astype(dtype)
    reference = _indexed_conv2d(Tensor(x), Tensor(w), Tensor(b), case["stride"], case["padding"])
    grad = rng.normal(size=reference.shape).astype(dtype)

    want = _run(_indexed_conv2d, case, x, w, b, grad)
    got = _run(lambda *args: conv2d(*args[:3], stride=args[3], padding=args[4]), case, x, w, b, grad)
    for name, g, r in zip(("output", "x.grad", "w.grad", "b.grad"), got, want):
        assert g.shape == r.shape and g.dtype == r.dtype, name
        assert np.array_equal(_bits(g), _bits(r)), f"{name} differs from the indexed gather"
