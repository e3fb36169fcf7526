"""The segment engine's faulted conv equals ``conv2d`` row by row, at the uint level.

:meth:`BatchedNetworkEvaluator._run_conv` hands ``conv2d``'s own kernel
(:func:`~repro.tensor.functional.conv2d_forward`) the whole stack of
faulted weights and biases. The kernel gathers a shared ``(B, ...)``
entry once for every row and a diverged ``(k, B, ...)`` one row at a
time, and runs each row's GEMM by a direct ``matmul`` where einsum
lowers to one, or by einsum itself where a dimension is 1. Each output
row must equal ``conv2d`` on the same operands, and the einsum kernel's
output, NaN payloads (a NaN weight times a NaN activation included),
``-0.0`` and ``±inf`` included, across the kernel, stride and padding
geometries the model zoo does not reach, and where the GEMM degenerates
(one output channel, one feature, one image or one output position).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.batched import BatchedNetworkEvaluator, _State
from repro.faults import ConfigurationBlock, FaultConfiguration
from repro.nn import Conv2d
from repro.tensor import Tensor, conv2d
from repro.tensor.functional import im2col_indices

NAME = "conv"


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint32)


def _mask(golden, rng):
    """A dense uint32 flip mask: a few random bits, exponent lanes included."""
    mask = np.zeros(golden.size, dtype=np.uint32)
    flips = rng.integers(0, 4)
    elements = rng.integers(0, mask.size, size=flips)
    lanes = rng.integers(0, 32, size=flips).astype(np.uint32)
    np.bitwise_xor.at(mask, elements, np.uint32(1) << lanes)
    return mask.reshape(golden.shape)


def _special_activations(shape, rng):
    data = rng.normal(size=shape).astype(np.float32)
    specials = np.array([0x7FC00005, 0xFF80000B, 0x80000000, 0x7F800000, 0xFF800000], dtype=np.uint32)
    flat = data.reshape(-1)
    positions = rng.choice(flat.size, size=min(flat.size, 6), replace=False)
    flat[positions] = specials[rng.integers(0, len(specials), size=len(positions))].view(np.float32)
    return data


def _einsum_conv(x, weight, bias, stride, padding):
    """Reference: the patch matrix by ``x_padded[:, k, i, j]`` and the GEMM by einsum."""
    out_c, _, kh, kw = weight.shape
    x_padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    k, i, j, out_h, out_w = im2col_indices(x.shape, kh, kw, stride, padding)
    with np.errstate(all="ignore"):
        out = np.einsum("of,bfp->bop", weight.reshape(out_c, -1), x_padded[:, k, i, j], optimize=True)
        if bias is not None:
            out = out + bias.reshape(1, -1, 1)
    return out.reshape(x.shape[0], out_c, out_h, out_w)


@st.composite
def engine_cases(draw):
    kernel = draw(st.sampled_from((1, 3)))
    padding = draw(st.sampled_from((0, 1, 2)))
    stride = draw(st.sampled_from((1, 2, 3)))
    size = st.integers(max(1, kernel - 2 * padding), 7)
    return {
        "kernel": kernel,
        "stride": stride,
        "padding": padding,
        "bias": draw(st.booleans()),
        "diverged": draw(st.booleans()),
        "k": draw(st.sampled_from((1, 3))),
        "batch": draw(st.integers(1, 3)),
        "in_c": draw(st.integers(1, 3)),
        "out_c": draw(st.integers(1, 3)),
        "height": draw(size),
        "width": draw(size),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _case(**overrides):
    """A 3x3 padding-1 conv of two 4x4 images into three rows, with ``overrides``."""
    case = {
        "kernel": 3, "stride": 1, "padding": 1, "bias": True, "diverged": False, "k": 3,
        "batch": 2, "in_c": 2, "out_c": 3, "height": 4, "width": 4, "seed": 7,
    }
    return {**case, **overrides}


@settings(max_examples=200, deadline=None)
@given(engine_cases())
@example(_case(out_c=1))  # O = 1
@example(_case(kernel=1, in_c=1, k=9))  # F = 1: einsum multiplies, and a padded zero times -x is -0.0
@example(_case(kernel=1, in_c=1, k=9, diverged=True, bias=False))  # F = 1, diverged
@example(_case(batch=1, k=9, diverged=True))  # B = 1
@example(_case(padding=0, height=3, width=3, k=9))  # P = 1
@example(_case(kernel=1, in_c=1, out_c=1, batch=1, padding=0, height=1, width=1, k=9))  # O = F = B = P = 1
@example(_case(k=9, diverged=True, stride=2, height=7, width=7))  # one GEMM per row, diverged
@example(_case(k=9, padding=2, height=5, width=6))  # one GEMM per row, shared
def test_run_conv_rows_match_conv2d(case):
    rng = np.random.default_rng(case["seed"])
    k = case["k"]
    module = Conv2d(
        case["in_c"], case["out_c"], case["kernel"], stride=case["stride"],
        padding=case["padding"], bias=case["bias"], rng=rng,
    ).eval()
    if module.bias is not None:
        module.bias.data[...] = rng.normal(size=module.bias.shape)
    image = (case["batch"], case["in_c"], case["height"], case["width"])
    entry = _special_activations((k, *image) if case["diverged"] else image, rng)
    parameters = {f"{NAME}.{name}": param for name, param in module.named_parameters()}
    configurations = [
        FaultConfiguration({name: _mask(param.data, rng) for name, param in parameters.items()})
        for _ in range(k)
    ]

    # _run_conv reads only the fault targets: the chain and cut play no part
    engine = BatchedNetworkEvaluator.__new__(BatchedNetworkEvaluator)
    engine.owners = dict.fromkeys(parameters, 0)
    with np.errstate(all="ignore"):
        block = ConfigurationBlock.of(configurations)
        state = engine._run_conv(module, NAME, _State(entry, case["diverged"]), block)
    assert state.diverged and state.data.shape[:2] == (k, case["batch"])

    for row, configuration in enumerate(configurations):
        faulted = {
            name: (param.data.view(np.uint32) ^ configuration.mask(name)).view(np.float32)
            for name, param in parameters.items()
        }
        with np.errstate(all="ignore"):
            want = conv2d(
                Tensor(entry[row] if case["diverged"] else entry),
                Tensor(faulted[f"{NAME}.weight"]),
                Tensor(faulted[f"{NAME}.bias"]) if module.bias is not None else None,
                stride=case["stride"],
                padding=case["padding"],
            ).data
        got = state.data[row]
        assert got.shape == want.shape and got.dtype == want.dtype == np.float32
        assert np.array_equal(_bits(got), _bits(want)), f"row {row} differs from conv2d"
        einsum = _einsum_conv(
            entry[row] if case["diverged"] else entry,
            faulted[f"{NAME}.weight"],
            faulted[f"{NAME}.bias"] if module.bias is not None else None,
            case["stride"],
            case["padding"],
        )
        assert np.array_equal(_bits(got), _bits(einsum)), f"row {row} differs from the einsum kernel"
