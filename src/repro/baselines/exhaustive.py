"""Ares-style exhaustive / sampled static bit sweep.

Reagen et al. (DAC'18) quantify resilience by sweeping faults over stored
weights offline. :class:`ExhaustiveBitInjector` enumerates every
(element, bit) pair of the selected tensors — or a uniformly sampled subset
when the space is too large — evaluating each flip's effect independently.

Besides serving as the source-level baseline of experiment E7, its
per-bit-lane aggregation is the ground truth for the bit-position
sensitivity ablation (A1): exponent-bit flips dominate SDCs, which is the
mechanistic explanation for the paper's two-regime curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.configuration import FaultConfiguration
from repro.faults.injection import apply_configuration
from repro.faults.targets import TargetSpec, resolve_parameter_targets
from repro.nn.module import Module
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.rng import RngFactory

__all__ = ["BitPositionSensitivity", "ExhaustiveBitInjector"]


@dataclass(frozen=True)
class BitPositionSensitivity:
    """Per-bit-lane aggregation of a static sweep."""

    #: lane → SDC rate (fraction of flips at this lane changing any prediction)
    sdc_by_bit: dict[int, float]
    #: lane → DUE rate (non-finite outputs)
    due_by_bit: dict[int, float]
    #: lane → number of flips evaluated
    count_by_bit: dict[int, int]

    def field_table(self) -> list[dict[str, float | str]]:
        """Aggregate lanes into sign/exponent/mantissa rows."""
        from repro.bits.fields import bit_field

        rows = []
        for name in ("mantissa", "exponent", "sign"):
            lanes = [b for b in self.sdc_by_bit if bit_field(b) == name]
            total = sum(self.count_by_bit[b] for b in lanes)
            if total == 0:
                rows.append({"field": name, "sdc_rate": float("nan"), "due_rate": float("nan"), "flips": 0})
                continue
            sdc = sum(self.sdc_by_bit[b] * self.count_by_bit[b] for b in lanes) / total
            due = sum(self.due_by_bit[b] * self.count_by_bit[b] for b in lanes) / total
            rows.append({"field": name, "sdc_rate": sdc, "due_rate": due, "flips": total})
        return rows


class ExhaustiveBitInjector:
    """Static sweep over the (element, bit) fault space of selected tensors."""

    def __init__(
        self,
        model: Module,
        inputs: np.ndarray,
        labels: np.ndarray,
        spec: TargetSpec | None = None,
        seed: int = 0,
    ) -> None:
        self.model = model.eval()
        self.inputs = np.asarray(inputs, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.spec = spec or TargetSpec()
        self.targets = resolve_parameter_targets(model, self.spec)
        if not self.targets:
            raise ValueError("target spec selects no parameters")
        self.seed = seed
        self._rng_factory = RngFactory(seed)
        self._x = Tensor(self.inputs)
        self._golden = self._predict()

    def _predict(self) -> np.ndarray:
        with no_grad(), np.errstate(all="ignore"):
            logits = self.model(self._x)
        return logits.data.argmax(axis=1)

    @property
    def space_size(self) -> int:
        """Total number of (element, bit) fault sites."""
        return sum(param.size for _, param in self.targets) * 32

    def _site_list(self, budget: int | None) -> list[tuple[str, int, int]]:
        """(target, element, bit) sites — all of them, or a uniform sample."""
        sites: list[tuple[str, int, int]] = []
        if budget is None or budget >= self.space_size:
            for name, param in self.targets:
                for element in range(param.size):
                    for bit in range(32):
                        sites.append((name, element, bit))
            return sites
        rng = self._rng_factory.stream("site-sample")
        flat = rng.choice(self.space_size, size=budget, replace=False)
        offsets = np.cumsum([0] + [param.size * 32 for _, param in self.targets])
        for position in np.sort(flat):
            index = int(np.searchsorted(offsets, position, side="right") - 1)
            local = int(position - offsets[index])
            sites.append((self.targets[index][0], local // 32, local % 32))
        return sites

    def run(self, budget: int | None = None) -> BitPositionSensitivity:
        """Evaluate each fault site once; aggregate by bit lane.

        ``budget=None`` enumerates the full space (mind the cost: one
        forward pass per site); otherwise a uniform random subset of
        ``budget`` sites is swept.
        """
        if budget is not None and budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        shapes = {name: param.shape for name, param in self.targets}
        sizes = {name: param.size for name, param in self.targets}
        sdc_counts: dict[int, int] = {b: 0 for b in range(32)}
        due_counts: dict[int, int] = {b: 0 for b in range(32)}
        totals: dict[int, int] = {b: 0 for b in range(32)}

        for name, element, bit in self._site_list(budget):
            mask = np.zeros(sizes[name], dtype=np.uint32)
            mask[element] = np.uint32(1) << np.uint32(bit)
            configuration = FaultConfiguration({name: mask.reshape(shapes[name])})
            with apply_configuration(self.model, configuration):
                with no_grad(), np.errstate(all="ignore"):
                    logits = self.model(self._x)
            predictions = logits.data.argmax(axis=1)
            finite = bool(np.isfinite(logits.data).all())
            totals[bit] += 1
            if not finite:
                due_counts[bit] += 1
            elif (predictions != self._golden).any():
                sdc_counts[bit] += 1

        observed = {b for b in range(32) if totals[b] > 0}
        return BitPositionSensitivity(
            sdc_by_bit={b: sdc_counts[b] / totals[b] for b in observed},
            due_by_bit={b: due_counts[b] / totals[b] for b in observed},
            count_by_bit={b: totals[b] for b in observed},
        )
