"""Forward-chain decomposition and the golden trace the segment engine reads.

Supported models decompose into a *forward chain* of segments whose
sequential application reproduces ``model(x)`` bit-for-bit. A
:class:`GoldenTrace` holds one model's golden logits on one evaluation
batch and, built lazily on first request, the chain verified against
those logits plus the golden activation entering every step. The segment
engine (:class:`~repro.core.batched.BatchedNetworkEvaluator`) reads its
steps and the activation entering its *cut* (the earliest segment any
fault target lives in) from the trace, running no forward of its own, and
starts every faulted forward there. Since the suffix executes exactly the
ops the full forward would — on bit-identical inputs, because the prefix
parameters are untouched — the logits are bit-identical to the standard
path; the differential tests enforce that.

One trace serves every injector over the same model object and batch: a
layerwise campaign builds one and pays one clean forward and one chain
run, however many layers it injects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.containers import Sequential
from repro.nn.models.lenet import LeNet
from repro.nn.models.mlp import MLP
from repro.nn.models.resnet import ResNet
from repro.nn.module import Module
from repro.tensor.tensor import Tensor, no_grad

__all__ = ["ChainStep", "GoldenTrace", "forward_chain", "run_chain"]

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


def _read_only(array: np.ndarray) -> np.ndarray:
    """A non-writeable view of ``array``; the array itself keeps its flags."""
    view = array.view()
    view.flags.writeable = False
    return view


class GoldenTrace:
    """Golden logits of one model on one evaluation batch, plus its chain.

    Construction switches ``model`` to eval mode and runs the one clean
    forward the trace is built on. :meth:`chain` decomposes the model,
    runs the chain once, checks its logits bit-for-bit against the golden
    ones and keeps the activation entering every step; the outcome,
    success or failure, is cached, so the chain runs at most once per
    trace. Callers must not mutate the model's parameters between building
    the trace and reading it (the standard path's apply-and-restore is
    fine: it restores the parameters bit-exactly).

    The logits and every stored activation are read-only views: the
    segment engine hands them out as golden rows and prefixes, so an
    in-place write raises instead of corrupting every later golden row.
    """

    def __init__(self, model: Module, inputs: np.ndarray) -> None:
        self.model = model.eval()
        self.inputs = np.asarray(inputs, dtype=np.float32)
        with no_grad():
            #: fault-free logits on ``inputs``
            self.logits = _read_only(model(Tensor(self.inputs)).data)
        self._chain: tuple[list[ChainStep], list[np.ndarray]] | Exception | None = None

    def matches(self, model: Module, inputs: np.ndarray) -> bool:
        """Whether this trace was built for ``model`` (by identity) and ``inputs`` (bitwise, as float32)."""
        inputs = np.asarray(inputs, dtype=np.float32)
        return model is self.model and inputs.shape == self.inputs.shape and np.array_equal(
            np.ascontiguousarray(inputs).view(np.uint32),
            np.ascontiguousarray(self.inputs).view(np.uint32),
        )

    def chain(self) -> tuple[list[ChainStep], list[np.ndarray]]:
        """The verified chain and the golden activation entering each step.

        Raises :class:`TypeError` when the model has no forward chain and
        :class:`ValueError` when the chain is not bit-identical to
        ``model(x)``; the first outcome is cached and repeated.
        """
        if self._chain is None:
            try:
                self._chain = self._verified_chain()
            except (TypeError, ValueError) as exc:
                self._chain = exc
        if isinstance(self._chain, Exception):
            raise self._chain
        return self._chain

    def _verified_chain(self) -> tuple[list[ChainStep], list[np.ndarray]]:
        steps = forward_chain(self.model)
        if steps is None:
            raise TypeError(
                f"no forward chain for {type(self.model).__name__}; batched evaluation unsupported"
            )
        activations = []
        x = Tensor(self.inputs)
        with no_grad(), np.errstate(all="ignore"):
            for step in steps:
                activations.append(_read_only(x.data))
                x = step(x)
        if not np.array_equal(x.data.view(np.uint8), self.logits.view(np.uint8)):
            raise ValueError("forward chain is not bit-identical to model forward")
        return steps, activations
