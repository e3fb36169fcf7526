"""Fault models and injection machinery.

The paper considers "transient faults in the memory units for storing NN
parameters, inputs, intermediate activations and outputs", modelled with a
per-bit architectural vulnerability factor: every bit of every float32 is
an independent Bernoulli(p) flip, applied by XOR.

This package provides:

* :class:`~repro.faults.targets.FaultSurface` /
  :class:`~repro.faults.targets.TargetSpec` — *where* faults land
  (weights, biases, activations, inputs; which layers);
* :class:`~repro.faults.model.FaultModel` and implementations — *how* bits
  flip (:class:`BernoulliBitFlipModel` is the paper's model; single-bit,
  stuck-at, and byte-error models cover the broader FI literature);
* :class:`~repro.faults.configuration.FaultConfiguration` — a concrete
  sampled set of XOR masks over named parameters (this is also the state
  space the MCMC kernels walk), and
  :class:`~repro.faults.configuration.ConfigurationBlock` — rows of them
  with each target folded over all rows, as campaigns draw and score them;
* :mod:`~repro.faults.injection` — applying configurations to a network:
  a save/apply/restore context for parameters and forward hooks for
  activation and input corruption (mirroring TensorFI's op instrumentation).
"""

from repro.faults.targets import FaultSurface, TargetSpec, resolve_parameter_targets, resolve_activation_modules
from repro.faults.model import FaultModel
from repro.faults.bernoulli import BernoulliBitFlipModel
from repro.faults.heterogeneous import HeterogeneousBitFlipModel
from repro.faults.single import SingleBitFlipModel, StuckAtModel, ByteErrorModel
from repro.faults.burst import BurstBitFlipModel
from repro.faults.configuration import ConfigurationBlock, FaultConfiguration
from repro.faults.sparse import SparseMask
from repro.faults.injection import (
    apply_configuration,
    inject_parameters,
    ActivationInjector,
    InputInjector,
)

__all__ = [
    "FaultSurface",
    "TargetSpec",
    "resolve_parameter_targets",
    "resolve_activation_modules",
    "FaultModel",
    "BernoulliBitFlipModel",
    "HeterogeneousBitFlipModel",
    "SingleBitFlipModel",
    "StuckAtModel",
    "ByteErrorModel",
    "BurstBitFlipModel",
    "FaultConfiguration",
    "ConfigurationBlock",
    "SparseMask",
    "apply_configuration",
    "inject_parameters",
    "ActivationInjector",
    "InputInjector",
]
