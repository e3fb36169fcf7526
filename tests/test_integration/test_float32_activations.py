"""Invariant: every activation of every workbench model is float32.

The fault model flips bits of IEEE-754 float32 encodings, and the batched
engine mirrors each layer's ``forward``; both hold only if no layer widens
its activations. A forward hook on every module records the output dtype,
in eval mode under ``no_grad`` and in training mode (where BatchNorm uses
batch statistics and builds the autograd graph).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import WORKBENCHES
from repro.tensor import Tensor, no_grad
from repro.train.losses import CrossEntropyLoss


@pytest.fixture(scope="module", params=sorted(WORKBENCHES))
def workbench_case(request, tiny_resnet):
    workbench = WORKBENCHES[request.param]
    _, evaluation = workbench.build_data(8, 8)
    features, labels = evaluation.arrays()
    if request.param.startswith("resnet-"):
        # the session's tiny ResNet is the workbench architecture; sharing
        # it and four images keeps the ResNet forwards cheap
        return request.param, tiny_resnet, features[:4], labels[:4]
    return request.param, workbench.build_model(), features, labels


def _forward_dtypes(model, x):
    seen: list[tuple[str, np.dtype]] = []
    handles = [
        module.register_forward_hook(
            lambda _m, _i, output, name=name: seen.append((name, output.data.dtype))
        )
        for name, module in model.named_modules()
    ]
    try:
        logits = model(Tensor(x))
    finally:
        for handle in handles:
            handle.remove()
    return logits, seen


def _assert_float32(seen, logits):
    assert seen
    wide = [(name, dtype) for name, dtype in seen if dtype != np.float32]
    assert not wide, f"non-float32 activations: {wide}"
    assert logits.data.dtype == np.float32


def test_eval_activations_are_float32(workbench_case):
    _, model, features, _ = workbench_case
    model.eval()
    with no_grad():
        logits, seen = _forward_dtypes(model, features)
    _assert_float32(seen, logits)


def test_training_activations_and_gradients_are_float32(workbench_case):
    _, model, features, labels = workbench_case
    snapshot = model.state_dict()
    model.train()
    try:
        logits, seen = _forward_dtypes(model, features)
        _assert_float32(seen, logits)
        CrossEntropyLoss()(logits, labels).backward()
        grads = {name: p.grad.dtype for name, p in model.named_parameters() if p.grad is not None}
        assert grads and set(grads.values()) == {np.dtype(np.float32)}, grads
    finally:
        model.zero_grad()
        model.load_state_dict(snapshot)
        model.eval()
