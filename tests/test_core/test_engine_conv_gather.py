"""The segment engine's faulted conv equals ``conv2d`` row by row, at the uint level.

:meth:`BatchedNetworkEvaluator._run_conv` calls ``conv2d``'s own kernel
once per configuration row, on that row's input (the shared ``(B, ...)``
entry or its slice of a diverged ``(k, B, ...)`` one) with that
configuration's faulted weight and bias. Each output row must equal
``conv2d`` on the same operands, NaN payloads (a NaN weight times a NaN
activation included), ``-0.0`` and ``±inf`` included, across the kernel,
stride and padding geometries the model zoo does not reach, and where
``conv2d``'s GEMM degenerates to a vector product (one output channel, or
one image with one output position).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched import BatchedNetworkEvaluator, _State
from repro.faults import ConfigurationBlock, FaultConfiguration
from repro.nn import Conv2d
from repro.tensor import Tensor, conv2d

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


@settings(max_examples=200, deadline=None)
@given(engine_cases())
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
