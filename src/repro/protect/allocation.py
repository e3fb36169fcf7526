"""Protection-budget allocation and scheme evaluation.

Allocation units are (target, IEEE-754 field) pairs — the granularity real
memory-protection hardware works at (e.g. ECC covering the exponent byte of
a weight SRAM). Units are ranked by *predicted damage averted per overhead
bit*, using the gradient-based sensitivity profile, and greedily added
until the overhead budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bits.fields import EXPONENT_BITS, MANTISSA_BITS, SIGN_BIT
from repro.protect.scheme import ProtectedFaultModel, ProtectionScheme
from repro.sensitivity.taylor import TaylorSensitivity

__all__ = ["allocate_protection", "evaluate_scheme", "ProtectionComparison"]

_FIELD_LANES = {
    "sign": frozenset({SIGN_BIT}),
    "exponent": frozenset(EXPONENT_BITS),
    "mantissa": frozenset(MANTISSA_BITS),
}


def allocate_protection(
    sensitivity: TaylorSensitivity,
    budget_fraction: float,
) -> ProtectionScheme:
    """Greedy protection allocation under a storage-overhead budget.

    Parameters
    ----------
    sensitivity:
        Taylor sensitivity over the campaign's targets; supplies the
        per-(target, field) predicted damage.
    budget_fraction:
        Maximum fraction of all stored bits that may be protected
        (e.g. 0.25 ≈ "ECC on one byte of every word").

    Returns the scheme maximising predicted damage averted per overhead bit
    under the greedy heuristic.
    """
    if not 0.0 < budget_fraction <= 1.0:
        raise ValueError(f"budget_fraction must be in (0, 1], got {budget_fraction}")

    targets = sensitivity.targets
    total_bits = sum(param.size for _, param in targets) * 32
    budget_bits = int(budget_fraction * total_bits)

    # Score each (target, field) unit: predicted damage in that field.
    units: list[tuple[float, str, str, int]] = []  # (score/bit, target, field, cost)
    for name, param in targets:
        impact = sensitivity.impacts[name]
        for field_name, lanes in _FIELD_LANES.items():
            lane_list = sorted(lanes)
            block = impact[:, lane_list]
            finite = block[np.isfinite(block)]
            catastrophic = int((~np.isfinite(block)).sum())
            damage = float(finite.sum()) + catastrophic  # inf sites ≈ unit mass
            cost = param.size * len(lanes)
            if cost == 0:
                continue
            units.append((damage / cost, name, field_name, cost))

    units.sort(key=lambda unit: -unit[0])
    lanes_by_target: dict[str, frozenset[int]] = {}
    spent = 0
    for _, name, field_name, cost in units:
        if spent + cost > budget_bits:
            continue
        lanes_by_target[name] = lanes_by_target.get(name, frozenset()) | _FIELD_LANES[field_name]
        spent += cost
    return ProtectionScheme(lanes_by_target)


@dataclass(frozen=True)
class ProtectionComparison:
    """Measured effect of a protection scheme at one flip probability."""

    p: float
    unprotected_error: float
    protected_error: float
    golden_error: float
    overhead_fraction: float

    @property
    def error_averted(self) -> float:
        """Absolute error reduction achieved by the scheme."""
        return self.unprotected_error - self.protected_error

    @property
    def recovery_fraction(self) -> float:
        """Fraction of the fault-induced *excess* error removed (0..1)."""
        excess = self.unprotected_error - self.golden_error
        if excess <= 0:
            return 0.0
        return max(0.0, min(1.0, self.error_averted / excess))

    def summary_row(self) -> dict[str, float]:
        return {
            "p": self.p,
            "golden_pct": 100 * self.golden_error,
            "unprotected_pct": 100 * self.unprotected_error,
            "protected_pct": 100 * self.protected_error,
            "recovered_frac": self.recovery_fraction,
            "overhead_frac": self.overhead_fraction,
        }


def evaluate_scheme(
    injector,
    scheme: ProtectionScheme,
    p: float,
    samples: int = 200,
) -> ProtectionComparison:
    """Campaigns with and without the scheme at flip probability ``p``.

    Uses the injector's Bernoulli model as the base fault process; the
    protected campaign wraps it in :class:`ProtectedFaultModel`.
    """
    from repro.faults.bernoulli import BernoulliBitFlipModel

    base = BernoulliBitFlipModel(p)
    unprotected = injector.forward_campaign(p, samples=samples, fault_model=base, stream="protect:base")
    protected = injector.forward_campaign(
        p,
        samples=samples,
        fault_model=ProtectedFaultModel(base, scheme),
        stream="protect:scheme",
    )
    return ProtectionComparison(
        p=p,
        unprotected_error=unprotected.mean_error,
        protected_error=protected.mean_error,
        golden_error=injector.golden_error,
        overhead_fraction=scheme.overhead_fraction(injector.parameter_targets),
    )
