"""Fault targeting: which surfaces and layers faults may land on.

The paper's fault model covers four storage surfaces — parameters
(weights), biases, intermediate activations, and inputs. Campaigns select a
subset of surfaces and optionally restrict to particular layers (the
layer-by-layer study of Fig. 3 injects into exactly one layer at a time).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.nn.module import Module, Parameter

__all__ = [
    "FaultSurface",
    "TargetSpec",
    "resolve_parameter_targets",
    "resolve_activation_modules",
]


class FaultSurface(enum.Enum):
    """A class of memory locations faults can corrupt."""

    WEIGHTS = "weights"
    BIASES = "biases"
    ACTIVATIONS = "activations"
    INPUTS = "inputs"


@dataclass(frozen=True)
class TargetSpec:
    """Selection of fault surfaces and layers.

    Attributes
    ----------
    surfaces:
        Which of the four surfaces to corrupt. Defaults to weights only —
        the surface the paper's Fig. 1 formalism (``W' = e ⊕ W``) centres on.
    include_layers:
        Glob patterns over dotted module names; ``None`` means every layer.
        ``("stages.2.*",)`` restricts injection to stage 2 of a ResNet.
    exclude_layers:
        Glob patterns removed after inclusion.
    """

    surfaces: frozenset[FaultSurface] = frozenset({FaultSurface.WEIGHTS})
    include_layers: tuple[str, ...] | None = None
    exclude_layers: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.surfaces:
            raise ValueError("TargetSpec requires at least one fault surface")
        object.__setattr__(self, "surfaces", frozenset(self.surfaces))

    @classmethod
    def all_surfaces(cls) -> "TargetSpec":
        """Target weights, biases, activations, and inputs everywhere."""
        return cls(surfaces=frozenset(FaultSurface))

    @classmethod
    def weights_and_biases(cls, include_layers: tuple[str, ...] | None = None) -> "TargetSpec":
        """Target all stored parameters (the most common campaign)."""
        return cls(
            surfaces=frozenset({FaultSurface.WEIGHTS, FaultSurface.BIASES}),
            include_layers=include_layers,
        )

    @classmethod
    def single_layer(cls, layer_name: str, surfaces: frozenset[FaultSurface] | None = None) -> "TargetSpec":
        """Target one layer — the unit of the Fig. 3 layerwise campaign."""
        return cls(
            surfaces=surfaces or frozenset({FaultSurface.WEIGHTS, FaultSurface.BIASES}),
            include_layers=(layer_name,),
        )

    def matches_layer(self, dotted_name: str) -> bool:
        """Whether a dotted module name passes the include/exclude filters."""
        if self.include_layers is not None:
            if not any(fnmatchcase(dotted_name, pattern) for pattern in self.include_layers):
                return False
        return not any(fnmatchcase(dotted_name, pattern) for pattern in self.exclude_layers)


def _surface_of_parameter(name: str) -> FaultSurface:
    """Classify a parameter by its leaf name (``weight`` vs ``bias``)."""
    leaf = name.rsplit(".", 1)[-1]
    return FaultSurface.BIASES if leaf == "bias" else FaultSurface.WEIGHTS


def resolve_parameter_targets(model: Module, spec: TargetSpec) -> list[tuple[str, Parameter]]:
    """List the (dotted_name, parameter) pairs the spec selects.

    Order matches ``model.named_parameters()``, so campaigns have a stable,
    documented target ordering.
    """
    selected: list[tuple[str, Parameter]] = []
    for name, param in model.named_parameters():
        layer_name = name.rsplit(".", 1)[0] if "." in name else ""
        if not spec.matches_layer(layer_name):
            continue
        if _surface_of_parameter(name) in spec.surfaces:
            selected.append((name, param))
    return selected


def resolve_activation_modules(model: Module, spec: TargetSpec) -> list[tuple[str, Module]]:
    """List leaf modules whose *outputs* the spec selects for corruption.

    Only parameterised leaves are instrumented (their outputs are the
    "intermediate activations" stored to memory between layers on an
    accelerator); pure reshapes are not separate storage.
    """
    if FaultSurface.ACTIVATIONS not in spec.surfaces:
        return []
    modules: list[tuple[str, Module]] = []
    for name, module in model.named_modules():
        if not name or not module._parameters:
            continue
        if spec.matches_layer(name):
            modules.append((name, module))
    return modules
