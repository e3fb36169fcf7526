"""The take gather is bit-identical to the indexed gather it replaced.

``conv2d`` and the pooling ops build their patch matrices with one
``np.take`` through a cached flat index (padding folded in), copied in
the layout the indexed gather ``x_padded[:, k, i, j]`` gave each einsum
call or reduction. :func:`_indexed_conv2d` and :func:`_indexed_pool2d`
keep that indexed gather. Forward outputs and gradients must match them
at the uint level, NaN payloads, ``-0.0`` and ``±inf`` included: the
GEMMs and reductions see the same values in the same layout, so no bit
may move. Training through either conv must give the same parameters.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.tensor.functional as functional
from repro.nn import LeNet
from repro.nn.models.resnet import resnet18_cifar_small
from repro.tensor import Tensor, avg_pool2d, conv2d, max_pool2d
from repro.tensor.functional import im2col_indices, im2col_window
from repro.train.losses import CrossEntropyLoss
from repro.train.optim import Adam


def _indexed_conv2d(x, weight, bias=None, stride=1, padding=0):
    """Reference: conv2d with the patch matrix gathered by ``x_padded[:, k, i, j]``."""
    batch = x.shape[0]
    out_c, _, kh, kw = weight.shape
    x_padded = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x.data
    k, i, j, out_h, out_w = im2col_indices(x.shape, kh, kw, stride, padding)
    cols = x_padded[:, k, i, j]
    w_mat = weight.data.reshape(out_c, -1)
    out = np.einsum("of,bfp->bop", w_mat, cols, optimize=True)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1)
    out_data = out.reshape(batch, out_c, out_h, out_w)
    padded_shape = x_padded.shape
    parents = (x, weight) if bias is None else (x, weight, bias)

    def _backward(grad):
        grad_mat = grad.reshape(batch, out_c, -1)
        if weight.requires_grad:
            gw = np.einsum("bop,bfp->of", grad_mat, cols, optimize=True)
            weight._accumulate(gw.reshape(weight.shape).astype(weight.dtype))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=(0, 2)).astype(bias.dtype))
        if x.requires_grad:
            gcols = np.einsum("of,bop->bfp", w_mat, grad_mat, optimize=True)
            gx_padded = np.zeros(padded_shape, dtype=x.dtype)
            np.add.at(gx_padded, (slice(None), k, i, j), gcols)
            x._accumulate(gx_padded[:, :, padding:-padding, padding:-padding] if padding else gx_padded)

    return Tensor._make(out_data, parents, _backward, "conv2d")


def _indexed_pool2d(x, kernel_size, stride, mode):
    """Reference max/avg pooling with windows gathered by ``flat[:, k, i, j]``."""
    batch, channels, height, width = x.shape
    k, i, j, out_h, out_w = im2col_indices((batch, 1, height, width), kernel_size, kernel_size, stride, 0)
    flat = x.data.reshape(batch * channels, 1, height, width)
    cols = flat[:, k, i, j]
    if mode == "max":
        arg = cols.argmax(axis=1)
        out = np.take_along_axis(cols, arg[:, None, :], axis=1)[:, 0, :]
    else:
        out = cols.mean(axis=1)

    def _backward(grad):
        grad_flat = grad.reshape(batch * channels, -1)
        if mode == "max":
            gcols = np.zeros_like(cols)
            np.put_along_axis(gcols, arg[:, None, :], grad_flat[:, None, :], axis=1)
        else:
            gcols = np.broadcast_to(grad_flat[:, None, :] / (kernel_size * kernel_size), cols.shape)
        gx = np.zeros((batch * channels, 1, height, width), dtype=x.dtype)
        np.add.at(gx, (slice(None), k, i, j), gcols)
        x._accumulate(gx.reshape(x.shape))

    return Tensor._make(out.reshape(batch, channels, out_h, out_w), (x,), _backward, f"{mode}_pool2d")


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint8)


def _sprinkle_special(array, rng):
    """Overwrite a few elements with NaN payloads of both signs, ``-0.0`` and ``±inf``."""
    uint = np.uint32 if array.dtype == np.float32 else np.uint64
    exponent = np.asarray(np.inf, dtype=array.dtype).view(uint)
    sign = np.asarray(-0.0, dtype=array.dtype).view(uint)
    specials = np.array(
        [exponent | uint(0b101), sign | exponent | uint(0b1011), sign, exponent, sign | exponent], dtype=uint
    ).view(array.dtype)
    flat = array.reshape(-1)
    positions = rng.choice(flat.size, size=min(flat.size, rng.integers(0, 6)), replace=False)
    flat[positions] = specials[rng.integers(0, len(specials), size=len(positions))]
    return array


@st.composite
def conv_cases(draw):
    kernel = draw(st.sampled_from((1, 3)))
    padding = draw(st.integers(0, 2))
    stride = draw(st.integers(1, 3))
    # the padded input must hold at least one window
    smallest = max(1, kernel - 2 * padding)
    branch = draw(st.sampled_from(("any", "one image", "one position")))
    if branch == "one position":
        # (size + 2*padding - kernel) // stride == 0
        largest = kernel - 2 * padding + stride - 1
        assume(largest >= smallest)
        size = st.integers(smallest, largest)
    else:
        size = st.integers(smallest, 9)
    return {
        "batch": 1 if branch == "one image" else draw(st.integers(1, 4)),
        "in_c": draw(st.integers(1, 4)),
        "out_c": draw(st.integers(1, 4)),
        "height": draw(size),
        "width": draw(size),
        "kernel": kernel,
        "stride": stride,
        "padding": padding,
        "bias": draw(st.booleans()),
        "special": draw(st.booleans()),
        "dtype": draw(st.sampled_from((np.float32, np.float64))),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=200, deadline=None)
@given(conv_cases(), st.sampled_from(((), (3,), (2, 3))))
def test_take_copies_indexed_gather_bytes_and_layout(case, lead):
    """Both orders hold the indexed gather's bytes, in its layout or its positions-major copy."""
    rng = np.random.default_rng(case["seed"])
    image = (case["in_c"], case["height"], case["width"])
    x = _sprinkle_special(rng.normal(size=(*lead, case["batch"], *image)).astype(case["dtype"]), rng)
    kernel, stride, padding = case["kernel"], case["stride"], case["padding"]
    k, i, j, _, _ = im2col_indices((1, *image), kernel, kernel, stride, padding)
    spatial = ((0, 0),) * (x.ndim - 2) + ((padding, padding),) * 2
    indexed = np.pad(x, spatial)[(Ellipsis, k, i, j)]  # (..., F, P), rows innermost in memory
    window = im2col_window(x.shape, kernel, kernel, stride, padding)
    rows = x.shape[:-3]

    features_major = window.gather(x, features_major=True)
    taken = features_major.reshape(features_major.shape[:2] + rows)
    taken = taken.transpose(*range(2, taken.ndim), 0, 1)
    assert taken.strides == indexed.strides
    assert np.array_equal(_bits(taken), _bits(indexed))

    positions_major = window.gather(x, features_major=False)
    assert positions_major.flags.c_contiguous
    taken = positions_major.reshape(rows + positions_major.shape[1:])
    assert np.array_equal(_bits(taken), _bits(np.swapaxes(indexed, -1, -2)))


def _run(conv, case, x, w, b, grad):
    xt, wt = Tensor(x.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)
    bt = Tensor(b.copy(), requires_grad=True) if case["bias"] else None
    with np.errstate(all="ignore"):
        out = conv(xt, wt, bt, case["stride"], case["padding"])
        out.backward(grad)
    return out.data, xt.grad, wt.grad, None if bt is None else bt.grad


@settings(max_examples=200, deadline=None)
@given(conv_cases())
def test_gather_bit_identical_to_indexed_gather(case):
    rng = np.random.default_rng(case["seed"])
    dtype = case["dtype"]
    x = rng.normal(size=(case["batch"], case["in_c"], case["height"], case["width"])).astype(dtype)
    if case["special"]:
        _sprinkle_special(x, rng)
    w = rng.normal(size=(case["out_c"], case["in_c"], case["kernel"], case["kernel"])).astype(dtype)
    b = rng.normal(size=case["out_c"]).astype(dtype)
    with np.errstate(all="ignore"):
        reference = _indexed_conv2d(Tensor(x), Tensor(w), None, case["stride"], case["padding"])
    grad = rng.normal(size=reference.shape).astype(dtype)

    want = _run(_indexed_conv2d, case, x, w, b, grad)
    got = _run(lambda *args: conv2d(*args[:3], stride=args[3], padding=args[4]), case, x, w, b, grad)
    for name, g, r in zip(("output", "x.grad", "w.grad", "b.grad"), got, want):
        if r is None:
            assert g is None, name
            continue
        assert g.shape == r.shape and g.dtype == r.dtype, name
        assert np.array_equal(_bits(g), _bits(r)), f"{name} differs from the indexed gather"


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(("max", "avg")),
    kernel=st.integers(1, 3),
    stride=st.one_of(st.none(), st.integers(1, 3)),
    batch=st.integers(1, 3),
    channels=st.integers(1, 3),
    height=st.integers(3, 8),
    width=st.integers(3, 8),
    special=st.booleans(),
    dtype=st.sampled_from((np.float32, np.float64)),
    seed=st.integers(0, 2**32 - 1),
)
def test_pooling_bit_identical_to_indexed_gather(
    mode, kernel, stride, batch, channels, height, width, special, dtype, seed
):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, channels, height, width)).astype(dtype)
    if special:
        _sprinkle_special(x, rng)
    pool = max_pool2d if mode == "max" else avg_pool2d
    results = []
    for fn in (lambda t: _indexed_pool2d(t, kernel, kernel if stride is None else stride, mode),
               lambda t: pool(t, kernel, stride)):
        xt = Tensor(x.copy(), requires_grad=True)
        with np.errstate(all="ignore"):
            out = fn(xt)
            out.backward(np.random.default_rng(seed).normal(size=out.shape).astype(dtype))
        results.append((out.data, xt.grad))
    for name, g, r in zip(("output", "x.grad"), results[1], results[0]):
        assert g.shape == r.shape and g.dtype == r.dtype, name
        assert np.array_equal(_bits(g), _bits(r)), f"{mode}_pool2d {name} differs from the indexed gather"


def _train(model, images, labels, steps=3):
    optimizer = Adam(model.parameters(), lr=1e-2)
    loss_fn = CrossEntropyLoss()
    model.train()
    for _ in range(steps):
        optimizer.zero_grad()
        loss_fn(model(Tensor(images)), labels).backward()
        optimizer.step()
    return {name: param.data.copy() for name, param in model.named_parameters()}


@pytest.mark.parametrize(
    "build,in_channels,size",
    [(lambda: resnet18_cifar_small(rng=0), 3, 8), (lambda: LeNet(in_channels=1, image_size=12, rng=0), 1, 12)],
    ids=["resnet18_cifar_small", "lenet"],
)
def test_training_bit_identical_to_indexed_gather(monkeypatch, build, in_channels, size):
    """A few Adam steps give the same parameter bits through either conv."""
    rng = np.random.default_rng(5)
    images = rng.normal(size=(4, in_channels, size, size)).astype(np.float32)
    labels = rng.integers(0, 10, size=4)
    got = _train(build(), images, labels)
    calls = []
    monkeypatch.setattr(functional, "conv2d", lambda *args, **kw: calls.append(1) or _indexed_conv2d(*args, **kw))
    want = _train(build(), images, labels)
    assert calls, "the indexed conv was not used"
    assert got.keys() == want.keys()
    for name in got:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(_bits(got[name]), _bits(want[name])), f"{name} differs after training"
