"""The segment engine's faulted conv equals ``conv2d`` row by row, at the uint level.

:meth:`BatchedNetworkEvaluator._run_conv` gathers the patch matrix once
for all ``k`` configurations (shared ``(B, ...)`` entry) or once for the
folded ``(k*B, ...)`` rows (diverged entry), then contracts every
configuration's faulted weights in one einsum. Each output row must equal
``conv2d`` on that row's input with that configuration's faulted weight
and bias, NaN payloads, ``-0.0`` and ``±inf`` included, across the
kernel, stride and padding geometries the model zoo does not reach.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.batched import BatchedNetworkEvaluator, _State
from repro.faults import FaultConfiguration
from repro.nn import Conv2d
from repro.tensor import Tensor, conv2d

NAME = "conv"


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint32)


def _mask(golden, rng):
    """A dense uint32 flip mask: a few random bits, exponent lanes included.

    Flips that would make a weight NaN are dropped. A NaN weight times a
    NaN activation yields whichever payload the kernel's operand order
    picks, and the engine's stacked einsum and ``conv2d``'s need not order
    the pair alike; that choice is not the gather's to pin.
    """
    mask = np.zeros(golden.size, dtype=np.uint32)
    flips = rng.integers(0, 4)
    elements = rng.integers(0, mask.size, size=flips)
    lanes = rng.integers(0, 32, size=flips).astype(np.uint32)
    np.bitwise_xor.at(mask, elements, np.uint32(1) << lanes)
    mask[np.isnan((golden.reshape(-1).view(np.uint32) ^ mask).view(np.float32))] = 0
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
    case = {
        "kernel": kernel,
        "stride": stride,
        "padding": padding,
        "bias": draw(st.booleans()),
        "diverged": draw(st.booleans()),
        "k": draw(st.sampled_from((1, 3))),
        "batch": draw(st.integers(1, 3)),
        "in_c": draw(st.integers(1, 3)),
        # conv2d's GEMM is a matrix product on both sides: with one output
        # channel, or one image with one output position, numpy hands it
        # to GEMV instead, whose summation order the engine's stacked
        # product does not share (open ROADMAP item)
        "out_c": draw(st.integers(2, 3)),
        "height": draw(size),
        "width": draw(size),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }
    positions = ((case["height"] + 2 * padding - kernel) // stride + 1) * (
        (case["width"] + 2 * padding - kernel) // stride + 1
    )
    assume(case["batch"] * positions > 1)
    return case


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

    # _run_conv reads no evaluator state: the chain and cut play no part
    engine = BatchedNetworkEvaluator.__new__(BatchedNetworkEvaluator)
    with np.errstate(all="ignore"):
        state = engine._run_conv(module, NAME, _State(entry, case["diverged"]), configurations)
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
