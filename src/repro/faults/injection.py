"""Applying fault configurations to a live network.

Three mechanisms, one per storage surface class:

* **Parameters** — :func:`apply_configuration` XORs masks into parameter
  arrays inside a ``with`` block and restores the golden bits on exit, so a
  campaign can run thousands of faulted forward passes off one golden
  model without reconstruction.
* **Activations** — :class:`ActivationInjector` registers forward hooks on
  selected modules; each hook corrupts the module's output with a fresh
  draw from the fault model (activations are transient, so a new fault
  realisation per inference is the physically faithful choice, and matches
  how TensorFI instruments TensorFlow ops).
* **Inputs** — :class:`InputInjector` does the same via a forward
  *pre*-hook on the root module.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

import repro.obs as obs
from repro.bits.float32 import apply_bit_mask
from repro.faults.configuration import FaultConfiguration
from repro.faults.model import FaultModel
from repro.nn.module import HookHandle, Module
from repro.tensor.tensor import Tensor

__all__ = ["apply_configuration", "inject_parameters", "ActivationInjector", "InputInjector"]

#: above this touched-element fraction the full-copy path beats fancy indexing
_SPARSE_DENSITY_LIMIT = 0.25


@contextlib.contextmanager
def apply_configuration(model: Module, configuration: FaultConfiguration) -> Iterator[Module]:
    """Context manager: corrupt the named parameters, restore on exit.

    Copy-on-write at bit granularity: targets with empty masks are skipped
    outright, and a sparsely faulted target saves and restores only its
    touched elements (O(K) per evaluation) instead of snapshotting the full
    golden array. Densely faulted targets — above ~25 % touched elements,
    where fancy indexing loses to a contiguous copy — fall back to the full
    save/XOR/restore. Both paths write the exact golden bits back even if
    the body raises, so a crashed evaluation cannot leak faults into later
    runs.
    """
    # (flat float32 view, touched indices | None for full-copy, golden bits)
    saved: list[tuple[np.ndarray, np.ndarray | None, np.ndarray]] = []
    try:
        for name in configuration.names():
            if not configuration.touches(name):
                continue
            param = model.get_parameter(name)
            data = param.data
            sparse = configuration.sparse(name)
            dense_fallback = (
                data.dtype != np.float32
                or not data.flags["C_CONTIGUOUS"]
                or sparse.touched > _SPARSE_DENSITY_LIMIT * max(1, data.size)
            )
            if dense_fallback:
                golden = data.copy()
                data[...] = apply_bit_mask(data, configuration.mask(name))
                saved.append((data, None, golden))
            else:
                with obs.span("flip.sparse"):
                    flat = data.reshape(-1)
                    golden = flat[sparse.elements]  # fancy indexing copies
                    flat.view(np.uint32)[sparse.elements] ^= sparse.lane_masks
                    saved.append((flat, sparse.elements, golden))
        yield model
    finally:
        for flat, elements, golden in reversed(saved):
            if elements is None:
                flat[...] = golden
            else:
                flat[elements] = golden


@contextlib.contextmanager
def inject_parameters(
    model: Module,
    targets: list,
    fault_model: FaultModel,
    rng: np.random.Generator,
) -> Iterator[FaultConfiguration]:
    """Sample a configuration over ``targets`` and apply it for the block.

    Yields the sampled :class:`FaultConfiguration` so callers can log it.
    """
    configuration = FaultConfiguration.sample(targets, fault_model, rng)
    with apply_configuration(model, configuration):
        yield configuration


class _HookInjector:
    """Shared lifecycle for hook-based (activation/input) injectors."""

    def __init__(self, fault_model: FaultModel, rng: np.random.Generator) -> None:
        self.fault_model = fault_model
        self.rng = rng
        self._handles: list[HookHandle] = []
        #: number of tensors corrupted since construction (test observability)
        self.corruption_count = 0

    def _corrupt_tensor(self, tensor: Tensor) -> Tensor:
        data = tensor.data
        if data.dtype != np.float32:
            raise TypeError(f"bit flips act on float32 activations, got {data.dtype}")
        corrupted = self.fault_model.corrupt(data, self.rng)
        self.corruption_count += 1
        return Tensor(corrupted)

    def remove(self) -> None:
        for handle in self._handles:
            handle.remove()
        self._handles.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()


class ActivationInjector(_HookInjector):
    """Corrupt the outputs of the given modules on every forward pass.

    Parameters
    ----------
    modules:
        ``(name, module)`` pairs, e.g. from
        :func:`repro.faults.targets.resolve_activation_modules`.
    fault_model / rng:
        Distribution over corruption and its random stream; a fresh fault
        realisation is drawn per module per forward pass.
    """

    def __init__(
        self,
        modules: list[tuple[str, Module]],
        fault_model: FaultModel,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(fault_model, rng)
        self.module_names = [name for name, _ in modules]
        for _, module in modules:
            handle = module.register_forward_hook(self._hook)
            self._handles.append(handle)

    def _hook(self, module: Module, inputs: tuple, output: Tensor) -> Tensor:
        return self._corrupt_tensor(output)


class InputInjector(_HookInjector):
    """Corrupt the network's input tensor before the forward pass."""

    def __init__(self, model: Module, fault_model: FaultModel, rng: np.random.Generator) -> None:
        super().__init__(fault_model, rng)
        handle = model.register_forward_pre_hook(self._pre_hook)
        self._handles.append(handle)

    def _pre_hook(self, module: Module, inputs: tuple) -> tuple:
        return tuple(
            self._corrupt_tensor(x) if isinstance(x, Tensor) else x for x in inputs
        )
