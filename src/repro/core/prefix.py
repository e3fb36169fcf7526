"""Forward-chain decomposition: the segments the segment engine runs.

Supported models decompose into a *forward chain* of segments whose
sequential application reproduces ``model(x)`` bit-for-bit. The segment
engine (:class:`~repro.core.batched.BatchedNetworkEvaluator`) verifies the
chain against the golden logits once, finds the earliest segment any fault
target lives in (the *cut*), keeps the golden activation entering it, and
starts every faulted forward there. Since the suffix executes exactly the
ops the full forward would — on bit-identical inputs, because the prefix
parameters are untouched — the logits are bit-identical to the standard
path; the differential tests enforce that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.containers import Sequential
from repro.nn.models.lenet import LeNet
from repro.nn.models.mlp import MLP
from repro.nn.models.resnet import ResNet
from repro.nn.module import Module
from repro.tensor.tensor import Tensor

__all__ = ["ChainStep", "forward_chain", "run_chain"]

#: sentinel step name for the MLP's implicit input flatten (owns no params)
_FLATTEN = "<flatten>"


@dataclass(frozen=True)
class ChainStep:
    """One segment of a model's forward chain.

    ``module is None`` marks the synthetic input-flatten step that
    replicates :meth:`repro.nn.models.mlp.MLP.forward`'s reshape.
    """

    name: str
    module: Module | None

    def __call__(self, x: Tensor) -> Tensor:
        if self.module is None:
            return x.reshape(x.shape[0], -1) if x.ndim > 2 else x
        return self.module(x)


def _expand(name: str, module: Module, out: list[ChainStep]) -> None:
    """Flatten nested Sequentials into leaf/block steps, preserving order."""
    if isinstance(module, Sequential):
        for child_name, child in module._modules.items():
            _expand(f"{name}.{child_name}" if name else child_name, child, out)
    else:
        out.append(ChainStep(name, module))


def forward_chain(model: Module) -> list[ChainStep] | None:
    """Decompose ``model`` into forward-chain segments, or ``None``.

    Supported topologies are the ones whose ``forward`` is a straight-line
    composition of child modules (plus MLP's input flatten): MLP,
    Sequential, LeNet, and ResNet (stem → blocks → pool → fc; each
    BasicBlock stays one segment, its residual structure intact). Callers
    must still verify the chain against the real forward (:func:`run_chain`
    versus ``model(x)``) before trusting it — subclasses may override
    ``forward``.
    """
    steps: list[ChainStep] = []
    if isinstance(model, MLP):
        steps.append(ChainStep(_FLATTEN, None))
        _expand("layers", model.layers, steps)
    elif isinstance(model, LeNet):
        _expand("features", model.features, steps)
        _expand("classifier", model.classifier, steps)
    elif isinstance(model, ResNet):
        _expand("stem", model.stem, steps)
        _expand("stages", model.stages, steps)
        steps.append(ChainStep("pool", model.pool))
        steps.append(ChainStep("fc", model.fc))
    elif isinstance(model, Sequential):
        _expand("", model, steps)
    else:
        return None
    return steps or None


def run_chain(steps: list[ChainStep], x: Tensor, start: int = 0) -> Tensor:
    """Apply ``steps[start:]`` to ``x`` in order."""
    for step in steps[start:]:
        x = step(x)
    return x
